//! `perfbench-wire` — the wire layer of the paging-stack benchmark.
//!
//! ```text
//! perfbench-wire --workload NAME --seed N --trace-out FILE
//! ```
//!
//! Times `pager_service::handle_frame` (v2) and `handle_line` (v1) on
//! the same cache-hit plan from the workload's generator, with a span
//! per call, and counts heap allocations under the counting global
//! allocator. This is the only benchmark process that installs it.
//! Prints one JSON line; exits non-zero unless the steady-state v2
//! window allocated nothing and v2 is at least 5x faster than v1.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use jsonio::Value;
use pager_service::{handle_frame, handle_line, PagerService, ServiceConfig};
use pager_wire::count_alloc;
use pager_wire::frame::{self, Split};
use perfbench::gen::{self, SolveStream, Workload};
use perfbench::stats;
use perfbench::trace::Tracer;

#[global_allocator]
static ALLOC: count_alloc::CountingAlloc = count_alloc::CountingAlloc;

/// The gate inherited from the wire protocol's design: v2 must beat v1
/// per message by at least this factor.
const REQUIRED_SPEEDUP: f64 = 5.0;
/// Wall time each codec is timed for, bounding the call count.
const BUDGET: Duration = Duration::from_millis(800);
const WARMUP: u32 = 200;

struct Timed {
    ns: Vec<f64>,
    allocations: u64,
    calls: usize,
}

/// Times `calls` runs of `step`, recording every call's interval in
/// storage reserved beforehand so the window itself allocates only
/// what `step` does.
fn timed(name: &'static str, tracer: &mut Tracer, mut step: impl FnMut()) -> Timed {
    let started = Instant::now();
    for _ in 0..WARMUP {
        step();
    }
    let per_call = started.elapsed() / WARMUP;
    let calls = usize::try_from(BUDGET.as_nanos() / per_call.as_nanos().max(1))
        .unwrap_or(usize::MAX)
        .clamp(500, 50_000);
    let mut marks: Vec<(Instant, Instant)> = Vec::with_capacity(calls);
    count_alloc::reset();
    for _ in 0..calls {
        let t0 = Instant::now();
        step();
        marks.push((t0, Instant::now()));
    }
    let allocations = count_alloc::allocations();
    let ns = marks
        .iter()
        .map(|(a, b)| (*b - *a).as_nanos() as f64)
        .collect();
    for (i, (a, b)) in marks.into_iter().enumerate() {
        tracer.record(name, None, i as u64, a, b);
    }
    Timed {
        ns,
        allocations,
        calls,
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut trace_out) = (None, None, None);
    while let (Some(flag), Some(value)) = (args.next(), args.next()) {
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value).ok(),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--trace-out" => trace_out = Some(value),
            _ => {}
        }
    }
    let (Some(workload), Some(seed), Some(trace_out)) = (workload, seed, trace_out) else {
        eprintln!("usage: perfbench-wire --workload NAME --seed N --trace-out FILE");
        return ExitCode::from(2);
    };
    let req = match workload {
        Workload::NodeHit => gen::hit_pool(seed).swap_remove(0),
        Workload::NodeSolve => SolveStream::new(seed, 0).next_request(),
        Workload::ClusterMix => gen::mix_pool(seed).swap_remove(0),
    };
    let service = match PagerService::try_new(ServiceConfig::default()) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("perfbench-wire: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line_bytes = req.encode_line(1);
    let line = String::from_utf8_lossy(&line_bytes).trim_end().to_string();
    let wire = req.frame(1);
    let Split::V2Frame { op, payload, .. } = frame::split(&wire) else {
        eprintln!("perfbench-wire: the encoder produced no frame");
        return ExitCode::FAILURE;
    };
    // Populate the cache, so both codecs time a steady-state hit.
    let warm = handle_line(&service, &line);
    if !warm.response.contains("\"ok\":true") {
        eprintln!("perfbench-wire: warming failed: {}", warm.response);
        return ExitCode::FAILURE;
    }
    let mut tracer = Tracer::new(Instant::now(), 1 << 52);
    let mut out = Vec::with_capacity(1 << 20);
    let v2 = timed("pager-wire.handle_frame", &mut tracer, || {
        out.clear();
        let stop = handle_frame(&service, op, payload, &mut out);
        std::hint::black_box(stop);
    });
    let response_bytes = out.len();
    let v1 = timed("pager-wire.handle_line", &mut tracer, || {
        std::hint::black_box(handle_line(&service, &line));
    });
    service.shutdown();

    let v2_p50 = stats::median(&v2.ns).unwrap_or(f64::NAN);
    let v1_p50 = stats::median(&v1.ns).unwrap_or(f64::NAN);
    let speedup = v1_p50 / v2_p50;
    let report = Value::object(vec![
        ("v2_frame_ns_p50", Value::Float(v2_p50)),
        ("v1_line_ns_p50", Value::Float(v1_p50)),
        ("v2_over_v1", Value::Float(speedup)),
        (
            "v2_allocs_per_msg",
            Value::Float(v2.allocations as f64 / v2.calls as f64),
        ),
        (
            "v1_allocs_per_msg",
            Value::Float(v1.allocations as f64 / v1.calls as f64),
        ),
        ("v2_total_allocs", Value::from(v2.allocations)),
        ("bytes_per_plan", Value::from(wire.len() + response_bytes)),
    ]);
    let written = std::fs::File::create(&trace_out)
        .and_then(|mut file| perfbench::trace::write_spans(tracer.spans(), &mut file));
    if let Err(e) = written {
        eprintln!("perfbench-wire: cannot write {trace_out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{report}");
    if v2.allocations != 0 {
        eprintln!(
            "cache-hit v2 plan allocated {} times over {} calls",
            v2.allocations, v2.calls
        );
        return ExitCode::FAILURE;
    }
    if speedup < REQUIRED_SPEEDUP || !speedup.is_finite() {
        eprintln!("v2 per-message speedup {speedup:.2}x is below {REQUIRED_SPEEDUP}x");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
