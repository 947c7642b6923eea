//! Lock-free service metrics, each declared once.
//!
//! Counters and latency histograms are plain atomics so the hot path
//! never takes a lock to record. [`declare_metrics!`](crate::declare_metrics)
//! declares a metrics struct and renders it as JSON through [`jsonio`]
//! when a snapshot is asked for.

use std::sync::atomic::{AtomicU64, Ordering};

/// The JSON value metrics render to.
pub use jsonio::Value;

use crate::deadline::Deadline;
use crate::error::ServiceError;
use crate::planner::{Plan, Tier};

/// Anything a metrics dump can render.
pub trait Metric {
    /// Snapshot as JSON.
    fn to_json(&self) -> Value;
}

/// Declares a metrics struct once: every field is a [`Metric`], and
/// the generated [`Metric::to_json`] renders the fields under their
/// own names, in declaration order. Attributes, doc comments and
/// visibilities pass through; the struct derives `Debug` and
/// `Default`.
///
/// ```
/// use pager_service::metrics::{Counter, Metric};
///
/// pager_service::declare_metrics! {
///     /// Counters of a line reader.
///     pub struct Reader {
///         /// Lines read.
///         pub lines: Counter,
///     }
/// }
///
/// let reader = Reader::default();
/// reader.lines.inc();
/// assert_eq!(reader.to_json().to_string(), r#"{"lines":1}"#);
/// ```
#[macro_export]
macro_rules! declare_metrics {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_attr:meta])* $field_vis:vis $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $($(#[$field_attr])* $field_vis $field: $ty,)*
        }

        impl $crate::metrics::Metric for $name {
            fn to_json(&self) -> $crate::metrics::Value {
                $crate::metrics::Value::object(vec![$((
                    stringify!($field),
                    $crate::metrics::Metric::to_json(&self.$field),
                ),)*])
            }
        }
    };
}

/// A monotone counter, or an advisory gauge when [`Counter::dec`] is
/// used.
///
/// Every access is `Relaxed`: a counter is read only to report it and
/// never publishes other memory, so it needs atomicity but no
/// ordering. This type holds every such access in the serving stack.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero. The gauge is advisory, so a
    /// lost race simply under-reports momentarily.
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Metric for Counter {
    fn to_json(&self) -> Value {
        Value::from(self.get())
    }
}

/// Histogram bucket count: bucket `i` holds samples in
/// `[2^(i-1), 2^i)` microseconds (bucket 0 is `< 1µs`).
const BUCKETS: usize = 32;

/// A log₂-bucketed latency histogram over microseconds.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl LatencyHistogram {
    /// Records one sample.
    pub fn record(&self, micros: u64) {
        let idx = (u64::BITS - micros.leading_zeros()).min(BUCKETS as u32 - 1) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper bound (µs) of the bucket containing the `q`-quantile
    /// sample, or 0 with no samples. Approximate by construction —
    /// resolution is the power-of-two bucket width.
    pub fn quantile_upper_micros(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let target = ((count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        self.max_micros.load(Ordering::Relaxed)
    }
}

impl Metric for LatencyHistogram {
    fn to_json(&self) -> Value {
        let count = self.count();
        let total = self.total_micros.load(Ordering::Relaxed);
        let max = self.max_micros.load(Ordering::Relaxed);
        // With no samples the total is 0 too, so the mean reads 0.
        #[allow(clippy::cast_precision_loss)]
        let mean = total as f64 / count.max(1) as f64;
        let quantile = |q| Value::from(self.quantile_upper_micros(q));
        Value::object(vec![
            ("count", Value::from(count)),
            ("total_micros", Value::from(total)),
            ("mean_micros", Value::Float(mean)),
            ("p50_le_micros", quantile(0.50)),
            ("p90_le_micros", quantile(0.90)),
            ("p99_le_micros", quantile(0.99)),
            ("max_micros", Value::from(max)),
        ])
    }
}

declare_metrics! {
    /// Planning latency per solver tier.
    pub struct TierLatency {
        /// Exact subset-DP tier.
        pub exact: LatencyHistogram,
        /// Fig. 1 greedy tier.
        pub greedy: LatencyHistogram,
        /// Bandwidth-bounded tier.
        pub bandwidth: LatencyHistogram,
        /// Signature tier.
        pub signature: LatencyHistogram,
    }
}

impl TierLatency {
    /// The histogram of one tier.
    #[must_use]
    pub fn of(&self, tier: Tier) -> &LatencyHistogram {
        match tier {
            Tier::Exact => &self.exact,
            Tier::Greedy => &self.greedy,
            Tier::Bandwidth => &self.bandwidth,
            Tier::Signature => &self.signature,
        }
    }
}

declare_metrics! {
    /// The counters the service keeps itself. The `metrics` payload
    /// adds those it reads from the strategy cache, the profile store
    /// and the durable store
    /// ([`PagerService::metrics_json`](crate::PagerService::metrics_json)).
    pub struct Metrics {
        /// Total plan requests received (cacheable or not).
        pub requests: Counter,
        /// Requests answered straight from the strategy cache.
        pub cache_hits: Counter,
        /// Requests that had to plan (or join an in-flight plan).
        pub cache_misses: Counter,
        /// Requests that joined an identical in-flight computation
        /// instead of planning again.
        pub coalesced: Counter,
        /// Requests rejected with an error (bad instance, infeasible
        /// bandwidth, a solve its deadline cancelled, ...).
        pub errors: Counter,
        /// Requests shed at admission because the bounded queue was full
        /// (answered `"code": "overloaded"` instead of waiting).
        pub requests_shed: Counter,
        /// Exact-tier plans abandoned at a deadline checkpoint and
        /// re-planned greedily (`"downgraded": true` on the wire).
        pub deadline_downgrades: Counter,
        /// Solves that finished after their deadline or that it
        /// cancelled (downgrades included).
        pub deadline_misses: Counter,
        /// Jobs currently sitting in the bounded admission queue (gauge:
        /// incremented on enqueue, decremented on dequeue).
        pub queue_depth: Counter,
        /// Profiles that served a `plan_devices` request while stale
        /// (staleness weight below ½ — mostly decayed toward uniform).
        pub stale_profiles_served: Counter,
        /// Open TCP connections on the connection engine (gauge).
        pub reactor_connections: Counter,
        /// Reactor timer-wheel watchdog firings: a request whose deadline
        /// elapsed while it was still awaiting its solver. Telemetry only
        /// — enforcement (downgrades, `deadline_misses`) stays with the
        /// solver's own deadline checks, so this never double-counts.
        pub reactor_deadline_watchdog: Counter,
        /// Queue wait per admitted planning job (enqueue → dequeue). This
        /// is the signal behind shed responses' `retry_after_ms`: the
        /// median wait is roughly how long the backlog ahead of a retry
        /// takes to drain.
        pub queue_wait: LatencyHistogram,
        /// Planning latency per solver tier.
        pub tier_latency: TierLatency,
    }
}

impl Metrics {
    /// Records how one solve ended, for the pool worker and the inline
    /// path alike: a plan records its tier latency, a downgrade, and a
    /// deadline miss if it came too late; a failure records an error,
    /// and a deadline miss when the deadline cancelled the solve.
    pub fn record_solve(&self, outcome: &Result<Plan, ServiceError>, deadline: &Deadline) {
        match outcome {
            Ok(plan) => {
                self.tier_latency.of(plan.tier).record(plan.planning_micros);
                if plan.downgraded {
                    self.deadline_downgrades.inc();
                }
                if deadline.expired() {
                    self.deadline_misses.inc();
                }
            }
            Err(error) => {
                self.errors.inc();
                if matches!(error, ServiceError::Overloaded { .. }) {
                    self.deadline_misses.inc();
                }
            }
        }
    }

    /// Suggested client backoff (ms) for shed requests, derived from
    /// the observed queue-wait distribution: retrying sooner than the
    /// median wait only rejoins the same backlog. Falls back to the
    /// static [`crate::planner::RETRY_AFTER_MS`] before any job has
    /// been timed, and is clamped to `[10, 2000]` ms so a pathological
    /// tail can neither tell clients to hammer nor to stay away for
    /// minutes.
    pub fn retry_hint_ms(&self) -> u64 {
        if self.queue_wait.count() == 0 {
            return crate::planner::RETRY_AFTER_MS;
        }
        self.queue_wait
            .quantile_upper_micros(0.50)
            .div_ceil(1000)
            .clamp(10, 2000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        for micros in [0, 1, 2, 3, 10, 100, 1000, 1000, 1000, 100_000] {
            h.record(micros);
        }
        assert_eq!(h.count(), 10);
        assert!(h.quantile_upper_micros(0.5) <= 128);
        assert!(h.quantile_upper_micros(1.0) >= 65_536);
        assert_eq!(LatencyHistogram::default().quantile_upper_micros(0.5), 0);
    }

    /// Sorted key names of a JSON object.
    fn keys(value: &Value) -> Vec<&str> {
        let Value::Object(fields) = value else {
            panic!("not an object: {value}");
        };
        let mut keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        keys.sort_unstable();
        keys
    }

    /// The wire names of the `metrics` payload (also the `stats.stats`
    /// object): operators and perfbench read these keys, so the set is
    /// pinned here whatever order they render in.
    #[test]
    fn metrics_json_has_required_fields() {
        let svc = crate::PagerService::new(crate::ServiceConfig {
            workers: 1,
            ..crate::ServiceConfig::default()
        });
        let json = svc.metrics_json();
        assert_eq!(
            keys(&json),
            [
                "cache_hits",
                "cache_misses",
                "checkpoints",
                "coalesced",
                "deadline_downgrades",
                "deadline_misses",
                "degraded",
                "errors",
                "evictions",
                "profile_evictions",
                "queue_depth",
                "queue_wait",
                "reactor_connections",
                "reactor_deadline_watchdog",
                "requests",
                "requests_shed",
                "sightings_ingested",
                "stale_profiles_served",
                "tier_latency",
                "wal_appends",
                "wal_fsyncs",
                "wal_recovered_records",
                "wal_truncated_bytes",
            ]
        );
        let histogram = [
            "count",
            "max_micros",
            "mean_micros",
            "p50_le_micros",
            "p90_le_micros",
            "p99_le_micros",
            "total_micros",
        ];
        assert_eq!(keys(json.get("queue_wait").unwrap()), histogram);
        let tiers = json.get("tier_latency").unwrap();
        assert_eq!(keys(tiers), ["bandwidth", "exact", "greedy", "signature"]);
        for tier in ["exact", "greedy", "bandwidth", "signature"] {
            assert_eq!(keys(tiers.get(tier).unwrap()), histogram, "{tier}");
        }
        // The dump must serialise cleanly.
        assert!(jsonio::parse(&json.to_string()).is_ok());
    }

    #[test]
    fn retry_hint_follows_observed_queue_wait() {
        let m = Metrics::default();
        assert_eq!(m.retry_hint_ms(), crate::planner::RETRY_AFTER_MS);
        // A slow queue (median ~200 ms) pushes the hint up…
        for _ in 0..100 {
            m.queue_wait.record(200_000);
        }
        let hint = m.retry_hint_ms();
        assert!((100..=2000).contains(&hint), "{hint}");
        // …and a fast queue clamps it at the floor instead of telling
        // clients to retry every microsecond.
        let fast = Metrics::default();
        for _ in 0..100 {
            fast.queue_wait.record(5);
        }
        assert_eq!(fast.retry_hint_ms(), 10);
    }

    #[test]
    fn gauge_dec_saturates_at_zero() {
        let gauge = Counter::default();
        gauge.dec();
        assert_eq!(gauge.get(), 0);
        gauge.inc();
        gauge.add(2);
        gauge.dec();
        assert_eq!(gauge.get(), 2);
    }
}
