//! Exact optimal solvers for small instances.
//!
//! The Conference Call problem is NP-hard for every fixed `m ≥ 2`,
//! `d ≥ 2` (Section 3), so no polynomial-time exact solver exists unless
//! P = NP. These solvers are exponential and intended as ground truth
//! for the experiments: measuring the heuristic's empirical
//! approximation ratio (Theorem 4.8 bounds it by `e/(e−1)`), and
//! verifying the NP-hardness reduction's YES ⇔ `EP = LB` equivalence.
//!
//! Three engines, cross-checked against each other in tests:
//!
//! * [`optimal_exhaustive`] — enumerates all `d^c` round assignments
//!   (skipping those with empty rounds); simple, for `c ≤ 12`;
//! * [`optimal_subset_dp`] — dynamic program over prefix-union chains
//!   `∅ ⊂ L_1 ⊂ … ⊂ L_d = [c]` in `O(d·3^c)`; reaches `c ≈ 18`;
//! * [`optimal_two_round_exact`] — exact rational optimum for `d = 2`
//!   by enumerating the `2^c − 2` first-round subsets, used by the
//!   hardness pipeline where certified arithmetic matters.

use crate::cancel::CancelToken;
use crate::error::{Error, Result};
use crate::greedy::{ExactPlannedStrategy, PlannedStrategy};
use crate::instance::{Delay, ExactInstance, Instance};
use crate::strategy::Strategy;
use rational::Ratio;

/// Hard cap for [`optimal_exhaustive`] so `d^c` stays tractable.
pub const EXHAUSTIVE_MAX_CELLS: usize = 12;
/// Hard cap for [`optimal_subset_dp`] so `3^c` stays tractable.
pub const SUBSET_DP_MAX_CELLS: usize = 18;

/// Finds a minimum-expected-paging strategy by enumerating every
/// assignment of cells to rounds.
///
/// # Errors
///
/// Returns [`Error::DelayExceedsCells`] when `d > c`.
///
/// # Panics
///
/// Panics if `c >` [`EXHAUSTIVE_MAX_CELLS`] — use
/// [`optimal_subset_dp`] or the heuristic instead.
#[expect(clippy::expect_used, reason = "stored assignments are onto; d <= c")]
pub fn optimal_exhaustive(instance: &Instance, delay: Delay) -> Result<PlannedStrategy> {
    let c = instance.num_cells();
    let d = delay.get();
    if d > c {
        return Err(Error::DelayExceedsCells { delay: d, cells: c });
    }
    assert!(
        c <= EXHAUSTIVE_MAX_CELLS,
        "optimal_exhaustive supports at most {EXHAUSTIVE_MAX_CELLS} cells, got {c}"
    );
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut assignment = vec![0usize; c];
    loop {
        if let Some(groups) = groups_of(&assignment, d) {
            let strategy = Strategy::new(groups).expect("assignment yields a valid partition");
            let ep = instance
                .expected_paging(&strategy)
                .expect("dimensions match");
            if best.as_ref().is_none_or(|(b, _)| ep < *b) {
                best = Some((ep, assignment.clone()));
            }
        }
        if !advance(&mut assignment, d) {
            break;
        }
    }
    let (ep, assignment) = best.expect("d <= c guarantees at least one onto assignment");
    let strategy = Strategy::new(groups_of(&assignment, d).expect("stored assignment is onto"))
        .expect("valid partition");
    Ok(PlannedStrategy {
        strategy,
        expected_paging: ep,
    })
}

/// Exact-rational exhaustive optimum (same enumeration as
/// [`optimal_exhaustive`]).
///
/// # Errors
///
/// Returns [`Error::DelayExceedsCells`] when `d > c`.
///
/// # Panics
///
/// Panics if `c >` [`EXHAUSTIVE_MAX_CELLS`].
#[expect(clippy::expect_used, reason = "stored assignments are onto; d <= c")]
pub fn optimal_exhaustive_exact(
    instance: &ExactInstance,
    delay: Delay,
) -> Result<ExactPlannedStrategy> {
    let c = instance.num_cells();
    let d = delay.get();
    if d > c {
        return Err(Error::DelayExceedsCells { delay: d, cells: c });
    }
    assert!(
        c <= EXHAUSTIVE_MAX_CELLS,
        "optimal_exhaustive_exact supports at most {EXHAUSTIVE_MAX_CELLS} cells, got {c}"
    );
    let mut best: Option<(Ratio, Vec<usize>)> = None;
    let mut assignment = vec![0usize; c];
    loop {
        if let Some(groups) = groups_of(&assignment, d) {
            let strategy = Strategy::new(groups).expect("valid partition");
            let ep = instance
                .expected_paging(&strategy)
                .expect("dimensions match");
            if best.as_ref().is_none_or(|(b, _)| ep < *b) {
                best = Some((ep, assignment.clone()));
            }
        }
        if !advance(&mut assignment, d) {
            break;
        }
    }
    let (ep, assignment) = best.expect("d <= c guarantees a strategy");
    let strategy =
        Strategy::new(groups_of(&assignment, d).expect("onto")).expect("valid partition");
    Ok(ExactPlannedStrategy {
        strategy,
        expected_paging: ep,
    })
}

/// Converts an assignment vector into groups, returning `None` if some
/// round is empty.
fn groups_of(assignment: &[usize], d: usize) -> Option<Vec<Vec<usize>>> {
    let mut groups = vec![Vec::new(); d];
    for (cell, &round) in assignment.iter().enumerate() {
        groups[round].push(cell);
    }
    if groups.iter().any(Vec::is_empty) {
        None
    } else {
        Some(groups)
    }
}

/// Odometer increment over base-`d` assignment vectors.
fn advance(assignment: &mut [usize], d: usize) -> bool {
    for digit in assignment.iter_mut() {
        *digit += 1;
        if *digit < d {
            return true;
        }
        *digit = 0;
    }
    false
}

/// Finds a minimum-expected-paging strategy with a dynamic program over
/// prefix-union chains (`O(d · 3^c)` time, `O(2^c)` space).
///
/// # Errors
///
/// Returns [`Error::DelayExceedsCells`] when `d > c`.
///
/// # Panics
///
/// Panics if `c >` [`SUBSET_DP_MAX_CELLS`].
pub fn optimal_subset_dp(instance: &Instance, delay: Delay) -> Result<PlannedStrategy> {
    optimal_subset_dp_cancel(instance, delay, &CancelToken::never())
}

/// Cancellable counterpart of [`optimal_subset_dp`]: polls `cancel` at
/// checkpoints inside the `O(d·3^c)` submask enumeration so a deadline
/// that expires mid-solve abandons the DP instead of completing late.
///
/// # Errors
///
/// [`Error::Cancelled`] when `cancel` fires mid-solve;
/// [`Error::DelayExceedsCells`] when `d > c`.
///
/// # Panics
///
/// Panics if `c >` [`SUBSET_DP_MAX_CELLS`].
pub fn optimal_subset_dp_cancel(
    instance: &Instance,
    delay: Delay,
    cancel: &CancelToken,
) -> Result<PlannedStrategy> {
    let c = instance.num_cells();
    let d = delay.get();
    if d > c {
        return Err(Error::DelayExceedsCells { delay: d, cells: c });
    }
    assert!(
        c <= SUBSET_DP_MAX_CELLS,
        "optimal_subset_dp supports at most {SUBSET_DP_MAX_CELLS} cells, got {c}"
    );
    let full: u32 = if c == 32 { u32::MAX } else { (1u32 << c) - 1 };
    let size = 1usize << c;
    let mut ticks = 0u32;

    // f[mask] = Π_i P_i(mask): probability all devices are in `mask`.
    let mut f = vec![1.0f64; size];
    for i in 0..instance.num_devices() {
        // prefix-sum over bits: p[mask] = Σ_{j ∈ mask} p_{i,j}
        let mut p = vec![0.0f64; size];
        for mask in 1..size {
            cancel.checkpoint(&mut ticks)?;
            let low = mask.trailing_zeros() as usize;
            p[mask] = p[mask & (mask - 1)] + instance.prob(i, low);
        }
        for mask in 0..size {
            f[mask] *= p[mask];
        }
    }

    // h[L] = best savings for chains ending at L after r rounds.
    // parent[r][L] records the predecessor for backtracking.
    let neg = f64::NEG_INFINITY;
    let mut h = vec![neg; size];
    let mut parent: Vec<Vec<u32>> = vec![vec![0; size]; d + 1];
    // Round 1: any non-empty L_1 with enough cells left for d−1 rounds.
    for (mask, slot) in h.iter_mut().enumerate() {
        let bits = (mask as u32).count_ones() as usize;
        if mask != 0 && bits >= 1 && c - bits >= d - 1 {
            *slot = 0.0;
        }
    }
    for r in 2..=d {
        let mut next = vec![neg; size];
        for sup in 1..size {
            let sup_bits = (sup as u32).count_ones() as usize;
            // Need r rounds so far and d − r more non-empty rounds.
            if sup_bits < r || c - sup_bits < d - r {
                continue;
            }
            // Enumerate proper submasks `sub` of `sup`.
            let supm = sup as u32;
            let mut sub = (sup - 1) as u32 & supm;
            loop {
                cancel.checkpoint(&mut ticks)?;
                if sub != 0 && h[sub as usize].is_finite() {
                    let gained = (supm.count_ones() - sub.count_ones()) as f64 * f[sub as usize];
                    let cand = h[sub as usize] + gained;
                    if cand > next[sup] {
                        next[sup] = cand;
                        parent[r][sup] = sub;
                    }
                }
                if sub == 0 {
                    break;
                }
                sub = (sub - 1) & supm;
            }
        }
        h = next;
    }
    let savings = h[full as usize];
    debug_assert!(
        savings.is_finite(),
        "full chain always feasible when d <= c"
    );

    // Backtrack the chain into groups.
    let mut chain = vec![full];
    let mut cur = full;
    for r in (2..=d).rev() {
        cur = parent[r][cur as usize];
        chain.push(cur);
    }
    chain.reverse(); // L_1, …, L_d = full
    let mut groups = Vec::with_capacity(d);
    let mut prev: u32 = 0;
    for &l in &chain {
        let newly = l & !prev;
        let cells: Vec<usize> = (0..c).filter(|&j| newly & (1 << j) != 0).collect();
        groups.push(cells);
        prev = l;
    }
    #[expect(clippy::expect_used, reason = "the DP chain yields a partition")]
    let strategy = Strategy::new(groups).expect("chain yields a partition");
    Ok(PlannedStrategy {
        expected_paging: c as f64 - savings,
        strategy,
    })
}

/// Exact optimal two-round strategy by enumerating all first-round
/// subsets (`2^c − 2` candidates) over the rationals.
///
/// # Errors
///
/// Returns [`Error::DelayExceedsCells`] when `c < 2`.
///
/// # Panics
///
/// Panics if `c > 24` (the enumeration would not terminate in
/// reasonable time).
#[expect(clippy::expect_used, reason = "c >= 2 yields masks; each splits cells")]
pub fn optimal_two_round_exact(instance: &ExactInstance) -> Result<ExactPlannedStrategy> {
    let c = instance.num_cells();
    if c < 2 {
        return Err(Error::DelayExceedsCells { delay: 2, cells: c });
    }
    assert!(c <= 24, "optimal_two_round_exact supports at most 24 cells");
    let m = instance.num_devices();
    let mut best: Option<(Ratio, u32)> = None;
    for mask in 1u32..((1u32 << c) - 1) {
        // EP = c − |S_2| · Π_i P_i(S_1)
        let mut prod = Ratio::one();
        for i in 0..m {
            let mut pi = Ratio::zero();
            for j in 0..c {
                if mask & (1 << j) != 0 {
                    pi = &pi + instance.prob(i, j);
                }
            }
            prod = &prod * &pi;
            if prod.is_zero() {
                break;
            }
        }
        let s2 = c as u32 - mask.count_ones();
        let ep = &Ratio::from(c) - &(&Ratio::from(u64::from(s2)) * &prod);
        if best.as_ref().is_none_or(|(b, _)| ep < *b) {
            best = Some((ep, mask));
        }
    }
    let (ep, mask) = best.expect("c >= 2 yields candidates");
    let first: Vec<usize> = (0..c).filter(|&j| mask & (1 << j) != 0).collect();
    let second: Vec<usize> = (0..c).filter(|&j| mask & (1 << j) == 0).collect();
    let strategy = Strategy::new(vec![first, second]).expect("mask split is a partition");
    Ok(ExactPlannedStrategy {
        strategy,
        expected_paging: ep,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{approx_ratio_upper_bound, greedy_strategy_planned};

    fn demo_instance() -> Instance {
        Instance::from_rows(vec![
            vec![0.30, 0.25, 0.20, 0.15, 0.05, 0.05],
            vec![0.10, 0.15, 0.20, 0.25, 0.15, 0.15],
        ])
        .unwrap()
    }

    #[test]
    fn engines_agree() {
        let inst = demo_instance();
        for d in 1..=4 {
            let a = optimal_exhaustive(&inst, Delay::new(d).unwrap()).unwrap();
            let b = optimal_subset_dp(&inst, Delay::new(d).unwrap()).unwrap();
            assert!(
                (a.expected_paging - b.expected_paging).abs() < 1e-9,
                "d={d}: exhaustive={} subset={}",
                a.expected_paging,
                b.expected_paging
            );
        }
    }

    #[test]
    fn two_round_exact_agrees_with_float_engines() {
        let exact = crate::lower_bound_instance::instance_exact();
        let e = optimal_two_round_exact(&exact).unwrap();
        assert_eq!(e.expected_paging, crate::lower_bound_instance::optimal_ep());
        let f = optimal_subset_dp(&exact.to_f64(), Delay::new(2).unwrap()).unwrap();
        assert!((e.expected_paging.to_f64() - f.expected_paging).abs() < 1e-9);
    }

    #[test]
    fn heuristic_within_proven_factor() {
        let inst = demo_instance();
        for d in 1..=4 {
            let opt = optimal_subset_dp(&inst, Delay::new(d).unwrap()).unwrap();
            let heur = greedy_strategy_planned(&inst, Delay::new(d).unwrap());
            let ratio = heur.expected_paging / opt.expected_paging;
            assert!(
                ratio <= approx_ratio_upper_bound() + 1e-9,
                "d={d}: ratio {ratio}"
            );
            assert!(ratio >= 1.0 - 1e-9, "heuristic cannot beat the optimum");
        }
    }

    #[test]
    fn exhaustive_exact_matches_float() {
        let exact = crate::lower_bound_instance::instance_exact();
        let inst = exact.to_f64();
        for d in [2usize, 3] {
            let e = optimal_exhaustive_exact(&exact, Delay::new(d).unwrap()).unwrap();
            let f = optimal_exhaustive(&inst, Delay::new(d).unwrap()).unwrap();
            assert!(
                (e.expected_paging.to_f64() - f.expected_paging).abs() < 1e-9,
                "d={d}"
            );
        }
    }

    #[test]
    fn one_round_is_blanket() {
        let inst = demo_instance();
        let a = optimal_exhaustive(&inst, Delay::new(1).unwrap()).unwrap();
        assert_eq!(a.strategy.rounds(), 1);
        assert!((a.expected_paging - 6.0).abs() < 1e-12);
    }

    #[test]
    fn delay_exceeding_cells_rejected() {
        let inst = Instance::uniform(1, 3).unwrap();
        assert!(matches!(
            optimal_exhaustive(&inst, Delay::new(4).unwrap()),
            Err(Error::DelayExceedsCells { .. })
        ));
        assert!(matches!(
            optimal_subset_dp(&inst, Delay::new(4).unwrap()),
            Err(Error::DelayExceedsCells { .. })
        ));
    }

    #[test]
    fn subset_dp_cancels_mid_solve() {
        // 14 cells → 2^14 masks: plenty of checkpoint strides.
        let inst = Instance::uniform(2, 14).unwrap();
        let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            optimal_subset_dp_cancel(&inst, Delay::new(3).unwrap(), &expired),
            Err(Error::Cancelled)
        );
        // A live token matches the plain entry point.
        let small = demo_instance();
        let a = optimal_subset_dp_cancel(&small, Delay::new(3).unwrap(), &CancelToken::never())
            .unwrap();
        let b = optimal_subset_dp(&small, Delay::new(3).unwrap()).unwrap();
        assert!((a.expected_paging - b.expected_paging).abs() < 1e-12);
    }

    #[test]
    fn optimal_monotone_in_delay() {
        let inst = demo_instance();
        let mut last = f64::INFINITY;
        for d in 1..=5 {
            let p = optimal_subset_dp(&inst, Delay::new(d).unwrap()).unwrap();
            assert!(p.expected_paging <= last + 1e-12, "d={d}");
            last = p.expected_paging;
        }
    }

    #[test]
    fn full_delay_uniform_matches_closed_form() {
        let inst = Instance::uniform(1, 6).unwrap();
        let p = optimal_subset_dp(&inst, Delay::new(6).unwrap()).unwrap();
        let closed = crate::single_user::uniform_optimal_ep(6, 6);
        assert!((p.expected_paging - closed).abs() < 1e-9);
    }
}
