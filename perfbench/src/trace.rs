//! In-memory spans and their self times.
//!
//! A span records one call the benchmark made: name, start, end, the
//! span that caused it, and the request it belongs to. Spans stay in
//! memory until the run ends and are then written out as JSON lines.

use std::io::Write;
use std::time::Instant;

use jsonio::Value;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `pager-core.greedy`.
    pub name: &'static str,
    /// The request this span serves.
    pub request: u64,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// `end - start`, in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans for one thread. Ids are `base + sequence`, so
/// tracers with distinct bases never collide.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    #[must_use]
    pub fn new(origin: Instant, base: u64) -> Tracer {
        Tracer {
            origin,
            next_id: base,
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let span = Span {
            id,
            parent,
            name,
            request,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        };
        self.spans.push(span);
        id
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, request, start, end);
        out
    }

    /// Reserves an id for a parent span whose end is not known yet;
    /// close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u64) -> (u64, Instant) {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent: None,
            name,
            request,
            start_ns: 0,
            end_ns: 0,
        });
        (id, Instant::now())
    }

    /// Sets the interval of a span reserved by [`Tracer::open`].
    pub fn close(&mut self, id: u64, start: Instant) {
        let end = Instant::now();
        let (start_ns, end_ns) = (self.offset(start), self.offset(end));
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.start_ns = start_ns;
            span.end_ns = end_ns;
        }
    }

    /// The spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in the order given: its duration minus
/// the part of its interval that its children cover. Children may
/// nest, overlap each other, or stick out of the parent; only the
/// union of their intervals clipped to the parent's counts.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self times, in microseconds, of the spans called `name`.
#[must_use]
pub fn self_times_us(spans: &[Span], self_ns: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect()
}

/// Writes the spans as JSON lines.
///
/// # Errors
///
/// Any I/O error from `out`.
pub fn write_spans(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        let line = Value::object(vec![
            ("id", Value::from(s.id)),
            ("parent", s.parent.map_or(Value::Null, Value::from)),
            ("name", Value::from(s.name)),
            ("request", Value::from(s.request)),
            ("start_ns", Value::from(s.start_ns)),
            ("end_ns", Value::from(s.end_ns)),
        ]);
        writeln!(out, "{line}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) with children [10,30) and [40,70); the second
        // child has its own child [45,50), which must not count twice.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 40, 70),
            span(4, Some(3), 45, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn self_time_unions_overlapping_children_and_clips_them() {
        // Children [10,40) and [30,60) overlap on [30,40): covered is
        // [10,60) = 50. A child sticking out, [90,120), covers only
        // [90,100) of the parent.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 90, 120),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
        // A child wholly inside another adds nothing.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 80),
            span(3, Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn open_close_and_time_record_parented_spans() {
        let mut t = Tracer::new(Instant::now(), 100);
        let (root, start) = t.open("root", 7);
        t.time("child", Some(root), 7, || std::hint::black_box(1 + 1));
        t.close(root, start);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].id, spans[1].id), (100, 101));
        assert_eq!(spans[1].parent, Some(100));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns[0] + spans[1].duration_ns(), spans[0].duration_ns());
    }
}
