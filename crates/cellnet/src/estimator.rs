//! Location-probability estimation from movement histories.
//!
//! The paper's model takes per-device probability vectors as input,
//! citing [15, 16] for how systems approximate them. The estimator
//! math itself lives in `pager_profiles::estimators` — the online
//! profile store and this offline trace path must agree exactly, so
//! there is exactly one implementation and this module re-exports it
//! under the historical `cellnet` names.

pub use pager_profiles::estimators::{empirical, recency_weighted, total_variation};

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "a self-distance is exactly zero")]
mod tests {
    use super::*;

    #[test]
    fn empirical_counts() {
        let p = empirical(&[0, 0, 1, 2], 4, 0.0);
        assert_eq!(p, vec![0.5, 0.25, 0.25, 0.0]);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smoothing_makes_everything_positive() {
        let p = empirical(&[0, 0, 0], 5, 0.5);
        assert!(p.iter().all(|&x| x > 0.0));
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Cell 0 still dominates.
        assert!(p[0] > p[1]);
    }

    #[test]
    fn empty_history_uniform_under_smoothing() {
        let p = empirical(&[], 4, 1.0);
        for &x in &p {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn recency_prefers_recent_cells() {
        // Old sightings in cell 0, recent in cell 1.
        let history = vec![0, 0, 0, 0, 1, 1];
        let p = recency_weighted(&history, 3, 0.5, 0.01);
        assert!(p[1] > p[0], "{p:?}");
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decay_one_matches_empirical_shape() {
        let history = vec![0, 1, 1, 2];
        let a = recency_weighted(&history, 3, 1.0, 0.0);
        let b = empirical(&history, 3, 0.0);
        assert!(total_variation(&a, &b) < 1e-12);
    }

    #[test]
    fn tv_distance_properties() {
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        assert!((total_variation(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(total_variation(&a, &a), 0.0);
    }

    #[test]
    fn guards() {
        assert!(std::panic::catch_unwind(|| empirical(&[], 3, 0.0)).is_err());
        assert!(std::panic::catch_unwind(|| empirical(&[5], 3, 1.0)).is_err());
        assert!(std::panic::catch_unwind(|| recency_weighted(&[0], 3, 0.0, 0.1)).is_err());
    }
}
