//! Strategy diagnostics: per-round breakdowns of where a strategy's
//! expected paging comes from.
//!
//! Lemma 2.1 writes `EP = c − Σ_r |S_{r+1}|·Pr[F_r]`; this module
//! exposes the individual terms — per-round stop probabilities,
//! expected cost contributions, and savings relative to blanket
//! paging — for reporting and debugging (the `pager` CLI's `--report`
//! mode renders them).

use crate::error::Result;
use crate::instance::Instance;
use crate::strategy::Strategy;

/// Per-round diagnostics of one strategy under one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundBreakdown {
    /// 0-based round index.
    pub round: usize,
    /// Cells paged this round.
    pub cells: usize,
    /// Cumulative cells paged through this round.
    pub cumulative_cells: usize,
    /// `Pr[F_r]` — probability the search is over after this round.
    pub stop_probability: f64,
    /// Probability the search *ends exactly* in this round.
    pub stop_here_probability: f64,
    /// This round's contribution to the expected paging
    /// (`cumulative_cells · stop_here_probability`).
    pub cost_contribution: f64,
}

/// A full strategy report.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyReport {
    /// Per-round breakdowns.
    pub rounds: Vec<RoundBreakdown>,
    /// The expected paging (equals the sum of cost contributions).
    pub expected_paging: f64,
    /// Expected number of rounds used.
    pub expected_rounds: f64,
    /// Savings versus blanket paging, as a fraction of `c`.
    pub savings_fraction: f64,
}

/// Computes the per-round report of a strategy.
///
/// # Errors
///
/// Propagates dimension mismatches from the expectation computations.
///
/// # Examples
///
/// ```
/// use pager_core::analysis::analyze;
/// use pager_core::{Instance, Strategy};
///
/// let inst = Instance::uniform(1, 4)?;
/// let s = Strategy::new(vec![vec![0, 1], vec![2, 3]])?;
/// let report = analyze(&inst, &s)?;
/// assert_eq!(report.rounds.len(), 2);
/// assert!((report.expected_paging - 3.0).abs() < 1e-12);
/// assert!((report.rounds[0].stop_probability - 0.5).abs() < 1e-12);
/// # Ok::<(), pager_core::Error>(())
/// ```
pub fn analyze(instance: &Instance, strategy: &Strategy) -> Result<StrategyReport> {
    let c = instance.num_cells() as f64;
    let t = strategy.rounds();
    let mut rounds = Vec::with_capacity(t);
    let mut cumulative = 0usize;
    let mut prev_stop = 0.0f64;
    let mut expected_paging = 0.0f64;
    let mut expected_rounds = 0.0f64;
    for r in 0..t {
        cumulative += strategy.group(r).len();
        let stop = instance.found_by_round(strategy, r)?;
        // Guard fp noise: the last round must stop with probability 1.
        let stop = if r + 1 == t { 1.0 } else { stop };
        let stop_here = (stop - prev_stop).max(0.0);
        let contribution = cumulative as f64 * stop_here;
        expected_paging += contribution;
        expected_rounds += (r + 1) as f64 * stop_here;
        rounds.push(RoundBreakdown {
            round: r,
            cells: strategy.group(r).len(),
            cumulative_cells: cumulative,
            stop_probability: stop,
            stop_here_probability: stop_here,
            cost_contribution: contribution,
        });
        prev_stop = stop;
    }
    Ok(StrategyReport {
        rounds,
        expected_paging,
        expected_rounds,
        savings_fraction: 1.0 - expected_paging / c,
    })
}

impl StrategyReport {
    /// Renders the report as an aligned text table.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>6} {:>7} {:>11} {:>10} {:>11} {:>13}\n",
            "round", "cells", "cumulative", "Pr[stop]", "Pr[here]", "contribution"
        ));
        for r in &self.rounds {
            out.push_str(&format!(
                "{:>6} {:>7} {:>11} {:>10.4} {:>11.4} {:>13.4}\n",
                r.round + 1,
                r.cells,
                r.cumulative_cells,
                r.stop_probability,
                r.stop_here_probability,
                r.cost_contribution
            ));
        }
        out.push_str(&format!(
            "expected paging {:.4}, expected rounds {:.3}, savings {:.1}%\n",
            self.expected_paging,
            self.expected_rounds,
            100.0 * self.savings_fraction
        ));
        out
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "a zero saving is exact")]
mod tests {
    use super::*;

    fn demo() -> (Instance, Strategy) {
        let inst =
            Instance::from_rows(vec![vec![0.4, 0.3, 0.2, 0.1], vec![0.25, 0.25, 0.25, 0.25]])
                .unwrap();
        let s = Strategy::new(vec![vec![0, 1], vec![2], vec![3]]).unwrap();
        (inst, s)
    }

    #[test]
    fn contributions_sum_to_ep() {
        let (inst, s) = demo();
        let report = analyze(&inst, &s).unwrap();
        let ep = inst.expected_paging(&s).unwrap();
        assert!((report.expected_paging - ep).abs() < 1e-12);
        let sum: f64 = report.rounds.iter().map(|r| r.cost_contribution).sum();
        assert!((sum - ep).abs() < 1e-12);
    }

    #[test]
    fn stop_probabilities_monotone_and_complete() {
        let (inst, s) = demo();
        let report = analyze(&inst, &s).unwrap();
        let mut last = 0.0;
        for r in &report.rounds {
            assert!(r.stop_probability >= last - 1e-12);
            last = r.stop_probability;
        }
        assert!((last - 1.0).abs() < 1e-12, "last round always stops");
        let total_here: f64 = report.rounds.iter().map(|r| r.stop_here_probability).sum();
        assert!((total_here - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_rounds_in_range() {
        let (inst, s) = demo();
        let report = analyze(&inst, &s).unwrap();
        assert!(report.expected_rounds >= 1.0);
        assert!(report.expected_rounds <= s.rounds() as f64);
    }

    #[test]
    fn blanket_report_is_trivial() {
        let inst = Instance::uniform(2, 5).unwrap();
        let report = analyze(&inst, &Strategy::blanket(5)).unwrap();
        assert_eq!(report.rounds.len(), 1);
        assert!((report.expected_paging - 5.0).abs() < 1e-12);
        assert_eq!(report.savings_fraction, 0.0);
        assert!((report.expected_rounds - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_all_rounds() {
        let (inst, s) = demo();
        let report = analyze(&inst, &s).unwrap();
        let table = report.to_table();
        assert!(table.contains("expected paging"));
        assert_eq!(table.lines().count(), 1 + 3 + 1);
    }
}
