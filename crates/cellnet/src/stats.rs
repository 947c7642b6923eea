//! Streaming statistics for simulation outputs.
//!
//! Welford-style accumulation (numerically stable single pass) with
//! normal-approximation confidence intervals — the standard way to
//! report discrete-event simulation results.

/// A streaming mean/variance accumulator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Accumulator {
        Accumulator {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (`NaN` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`NaN` below two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        (self.variance() / self.count as f64).sqrt()
    }

    /// Smallest observation seen (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation seen (`−inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Normal-approximation confidence interval half-width at the
    /// given z-score (1.96 for 95%, 2.58 for 99%).
    #[must_use]
    pub fn ci_half_width(&self, z: f64) -> f64 {
        z * self.std_error()
    }

    /// `(lower, upper)` of the 95% confidence interval for the mean.
    #[must_use]
    pub fn ci95(&self) -> (f64, f64) {
        let h = self.ci_half_width(1.96);
        (self.mean() - h, self.mean() + h)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Accumulator {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Accumulator {
        let mut acc = Accumulator::new();
        for x in iter {
            acc.push(x);
        }
        acc
    }
}

impl Extend<f64> for Accumulator {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "min, max and one-sample means are exact")]
mod tests {
    use super::*;

    #[test]
    fn small_sample_moments() {
        let acc: Accumulator = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(acc.count(), 8);
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic data set is 32/7.
        assert!((acc.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(acc.min(), 2.0);
        assert_eq!(acc.max(), 9.0);
    }

    #[test]
    fn empty_and_singleton() {
        let empty = Accumulator::new();
        assert!(empty.mean().is_nan());
        assert!(empty.variance().is_nan());
        let mut one = Accumulator::new();
        one.push(3.5);
        assert_eq!(one.mean(), 3.5);
        assert!(one.variance().is_nan());
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let whole: Accumulator = data.iter().copied().collect();
        let mut left: Accumulator = data[..37].iter().copied().collect();
        let right: Accumulator = data[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut acc: Accumulator = [1.0, 2.0].into_iter().collect();
        let before = acc.clone();
        acc.merge(&Accumulator::new());
        assert_eq!(acc, before);
        let mut empty = Accumulator::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn confidence_interval_shrinks() {
        let narrow: Accumulator = (0..10_000).map(|i| f64::from(i % 7)).collect();
        let wide: Accumulator = (0..100).map(|i| f64::from(i % 7)).collect();
        assert!(narrow.ci_half_width(1.96) < wide.ci_half_width(1.96));
        let (lo, hi) = narrow.ci95();
        assert!(lo < narrow.mean() && narrow.mean() < hi);
    }

    #[test]
    fn extend_accumulates() {
        let mut acc = Accumulator::new();
        acc.extend([1.0, 2.0, 3.0]);
        acc.extend([4.0]);
        assert_eq!(acc.count(), 4);
        assert!((acc.mean() - 2.5).abs() < 1e-12);
    }
}
