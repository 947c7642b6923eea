//! Answer checks applied to every reply.

use pager_core::{Instance, Strategy};

/// Largest accepted gap between a served expected paging and the
/// client's recomputation, relative to `max(1, |EP|)`.
pub const EP_TOLERANCE: f64 = 1e-9;

/// Checks that `groups` is an ordered partition of the `cells` cells
/// into at most `delay` non-empty rounds, each within `cap` cells when
/// a bandwidth cap was asked for.
///
/// # Errors
///
/// A message naming the first defect.
pub fn check_partition(
    groups: &[Vec<usize>],
    cells: usize,
    delay: usize,
    cap: Option<usize>,
) -> Result<(), String> {
    if groups.is_empty() || groups.len() > delay {
        return Err(format!("{} rounds for a delay of {delay}", groups.len()));
    }
    let mut seen = vec![false; cells];
    for (round, group) in groups.iter().enumerate() {
        if group.is_empty() {
            return Err(format!("round {round} is empty"));
        }
        if let Some(cap) = cap {
            if group.len() > cap {
                return Err(format!("round {round} pages {} > cap {cap}", group.len()));
            }
        }
        for &cell in group {
            match seen.get_mut(cell) {
                None => return Err(format!("cell {cell} out of range for {cells} cells")),
                Some(true) => return Err(format!("cell {cell} paged twice")),
                Some(slot) => *slot = true,
            }
        }
    }
    match seen.iter().position(|&s| !s) {
        Some(cell) => Err(format!("cell {cell} never paged")),
        None => Ok(()),
    }
}

/// Recomputes the expected paging of `groups` on `instance` and checks
/// the served value against it. Returns the recomputed value.
///
/// # Errors
///
/// A message when the strategy does not fit the instance or the
/// values differ by more than [`EP_TOLERANCE`].
pub fn check_ep(served: f64, instance: &Instance, groups: &[Vec<usize>]) -> Result<f64, String> {
    let strategy = Strategy::new(groups.to_vec()).map_err(|e| e.to_string())?;
    let ep = instance
        .expected_paging(&strategy)
        .map_err(|e| e.to_string())?;
    if (served - ep).abs() > EP_TOLERANCE * ep.abs().max(1.0) || !served.is_finite() {
        return Err(format!("served EP {served} but the strategy pages {ep}"));
    }
    Ok(ep)
}

/// Checks that a plan built from profile version `served` is not older
/// than the client's last acknowledged observe (`acked`).
///
/// # Errors
///
/// A message when the version regressed.
pub fn check_version(served: u64, acked: u64) -> Result<(), String> {
    if served < acked {
        Err(format!(
            "plan used profile version {served}, below the acked {acked}"
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_partition() {
        assert!(check_partition(&[vec![2, 0], vec![1, 3]], 4, 2, None).is_ok());
        assert!(check_partition(&[vec![2, 0], vec![1, 3]], 4, 3, Some(2)).is_ok());
    }

    #[test]
    fn rejects_malformed_strategies() {
        type Case<'a> = (&'a [Vec<usize>], usize, usize, Option<usize>);
        let cases: [Case<'_>; 7] = [
            (&[vec![0, 1], vec![2]], 4, 2, None),          // cell 3 missing
            (&[vec![0, 1], vec![1, 2, 3]], 4, 2, None),    // cell 1 twice
            (&[vec![0], vec![1], vec![2, 3]], 4, 2, None), // too many rounds
            (&[vec![0, 1], vec![], vec![2, 3]], 4, 3, None), // empty round
            (&[vec![0, 1, 4], vec![2, 3]], 4, 2, None),    // out of range
            (&[vec![0, 1, 2], vec![3]], 4, 2, Some(2)),    // over the cap
            (&[], 4, 2, None),                             // no rounds
        ];
        for (groups, cells, delay, cap) in cases {
            assert!(
                check_partition(groups, cells, delay, cap).is_err(),
                "{groups:?} accepted"
            );
        }
    }

    #[test]
    fn ep_must_match_the_recomputation() {
        let inst = Instance::from_rows(vec![vec![0.5, 0.25, 0.25], vec![0.25, 0.5, 0.25]])
            .expect("valid rows");
        let groups = vec![vec![0, 1], vec![2]];
        let ep = check_ep(0.0, &inst, &groups).expect_err("0 is wrong");
        assert!(ep.contains("served EP"));
        let strategy = Strategy::new(groups.clone()).expect("valid");
        let truth = inst.expected_paging(&strategy).expect("fits");
        assert_eq!(check_ep(truth, &inst, &groups), Ok(truth));
        assert!(check_ep(truth + 1e-12, &inst, &groups).is_ok());
        assert!(check_ep(truth + 1e-6, &inst, &groups).is_err());
        assert!(check_ep(f64::NAN, &inst, &groups).is_err());
    }

    #[test]
    fn rejects_a_regressed_version() {
        assert!(check_version(5, 5).is_ok());
        assert!(check_version(9, 5).is_ok());
        assert!(check_version(4, 5).is_err());
    }
}
