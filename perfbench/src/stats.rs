//! Order statistics used by every metric, and the metric list a run
//! prints.

use jsonio::Value;

/// Named metrics with units, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Moves every metric of `other` to the end of this list.
    pub fn append(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::object(vec![
                            ("value", Value::Float(*value)),
                            ("unit", Value::from(*unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The `p`-th percentile of `values` by the nearest-rank rule: the
/// smallest sample such that at least `p` percent of the samples are
/// at or below it, i.e. the sample of 1-based rank `ceil(p/100 · n)`.
/// Returns `None` for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Arithmetic mean; `None` for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Nearest-rank median.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        // Rank ceil(0.99 · 1000) = 990: ten samples lie beyond p99.
        let w: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), Some(990.0));
        // Five samples: p50 has rank ceil(2.5) = 3, p99 rank 5.
        let few = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&few), Some(3.0));
        assert_eq!(percentile(&few, 99.0), Some(5.0));
        assert_eq!(percentile(&few, 20.0), Some(1.0));
        assert_eq!(percentile(&few, 21.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
