//! `perfbench` — end-to-end and per-layer benchmark of the paging
//! stack.
//!
//! ```text
//! perfbench --workload node-hit|node-solve|cluster-mix --seed N
//!           --seconds S --trace 0|1 --bin-dir DIR
//! ```
//!
//! Drives the real `pager-serve` / `pager-cluster launch` binaries
//! found in `--bin-dir` over loopback with closed-loop clients (at
//! most two connections), checks every answer, and prints a stamped
//! report line followed by one JSON result line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the workload again with a
//! span per request, times each layer's public functions on the
//! workload's own requests, and reports the per-layer metrics. Spans
//! are written to `.perfbench/trace-<workload>-seed<N>.jsonl`.
//!
//! Exit status 0 only when every answer was correct, every gate held
//! and no server process outlived the run.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use jsonio::Value;
use perfbench::client::{self, Conn, Reply};
use perfbench::gen::{self, PlanReq, PoolDraws, SolveStream, Workload};
use perfbench::load::{self, ClientRun, Limit, Mix, Op, Pool, Script, Tally, Window};
use perfbench::procs::{self, Server};
use perfbench::stats::{self, Metrics};
use perfbench::{host, layers};

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bin_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s > 0)
                        .ok_or("--seconds needs a positive integer")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                });
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
    })
}

/// Scratch root of one run, inside the checkout.
const SCRATCH: &str = ".perfbench";

/// Plans per client that feed `ep_per_cell`: a fixed prefix of the
/// seeded request stream, so the value is a pure function of the seed.
fn ep_prefix(workload: Workload) -> u64 {
    match workload {
        Workload::NodeHit => 2000,
        Workload::NodeSolve => 600,
        Workload::ClusterMix => 300,
    }
}

/// Everything a run spawns and measures.
struct Bench {
    opts: Opts,
    scratch: PathBuf,
    /// Process groups of every server spawned, for the final check.
    groups: Vec<i32>,
    tally: Tally,
    /// The core a workload that shares one runs its client and server
    /// on.
    cpu: Option<usize>,
}

impl Bench {
    fn command(&self, workload: Workload, rep: usize) -> Command {
        match workload {
            Workload::NodeHit | Workload::NodeSolve => {
                let mut c = Command::new(self.opts.bin_dir.join("pager-serve"));
                c.args(["--addr", "127.0.0.1:0"]);
                c
            }
            Workload::ClusterMix => {
                let mut c = Command::new(self.opts.bin_dir.join("pager-cluster"));
                c.args(["launch", "--addr", "127.0.0.1:0", "--data-root"])
                    .arg(self.scratch.join(format!("cluster-{rep}")));
                c
            }
        }
    }

    /// Spawns the workload's servers and waits for the first correct
    /// reply; returns the server and the seconds that took.
    fn start(&mut self, workload: Workload, rep: usize) -> Result<(Server, f64), String> {
        let started = Instant::now();
        let cpu = self.cpu.filter(|_| workload.shares_one_core());
        let server = Server::spawn(self.command(workload, rep), cpu)?;
        self.groups.push(server.pid());
        let mut conn = Conn::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        match conn.round_trip(&client::ping_frame()) {
            Ok(Reply::Frame { op, .. }) if op == pager_wire::frame::op::PONG => {}
            other => return Err(format!("first reply was not a pong: {other:?}")),
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    /// Sets up several times and keeps the last server; `setup_s` is
    /// the median.
    fn setup(&mut self, workload: Workload) -> Result<(Server, f64), String> {
        let reps = match workload {
            Workload::NodeHit | Workload::NodeSolve => 21,
            Workload::ClusterMix => 11,
        };
        let mut times = Vec::with_capacity(reps);
        for rep in 0..reps {
            let (server, seconds) = self.start(workload, rep)?;
            times.push(seconds);
            if rep + 1 == reps {
                let setup = stats::median(&times).unwrap_or(seconds);
                return Ok((server, setup));
            }
            server.shutdown()?;
        }
        unreachable!("reps > 0")
    }
}

/// Sends each pool entry once and wraps the answers for the clients.
fn warm(bench: &mut Bench, addr: std::net::SocketAddr, reqs: &[PlanReq]) -> Pool {
    let frames: Vec<Vec<u8>> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| r.frame(i as u64))
        .collect();
    let warm = load::warm_pool(addr, &frames, reqs, &mut bench.tally);
    Pool {
        frames: std::sync::Arc::new(frames),
        warm: std::sync::Arc::new(warm),
    }
}

/// Builds the workload's client scripts and brings the server to a
/// steady state: pools cached, connections and workers warm.
fn prepare(bench: &mut Bench, server: &Server) -> Vec<Script> {
    let seed = bench.opts.seed;
    let addr = server.addr();
    match bench.opts.workload {
        Workload::NodeHit => {
            let pool = warm(bench, addr, &gen::hit_pool(seed));
            vec![Script::Hit {
                draws: PoolDraws::new(seed, 0, pool.frames.len()),
                pool,
                current: 0,
            }]
        }
        Workload::NodeSolve => {
            // Warm on streams the measured clients never use.
            let mut warmers: Vec<Script> = (0..2)
                .map(|k| Script::Solve {
                    stream: SolveStream::new(seed, 10 + k),
                    current: None,
                })
                .collect();
            warm_steps(bench, &mut warmers, addr, 16);
            (0..2)
                .map(|k| Script::Solve {
                    stream: SolveStream::new(seed, k),
                    current: None,
                })
                .collect()
        }
        Workload::ClusterMix => {
            let pool = warm(bench, addr, &gen::mix_pool(seed));
            let mut scripts = vec![Script::Mix(Box::new(Mix::new(seed, 0, pool)))];
            warm_steps(bench, &mut scripts, addr, 32);
            scripts
        }
    }
}

fn warm_steps(bench: &mut Bench, scripts: &mut [Script], addr: std::net::SocketAddr, n: u64) {
    let limit = Limit {
        duration: Duration::ZERO,
        ep_plans: 0,
        max_requests: Some(n),
        cpu: None,
        slice: Duration::from_secs(1),
    };
    for run in load::run_window(scripts, addr, limit, None).0 {
        bench.tally.absorb(run.tally);
    }
}

fn summarize(
    workload: Workload,
    (runs, marks): (Vec<ClientRun>, Vec<(u64, u64)>),
    tally: &mut Tally,
) -> (Window, Vec<perfbench::trace::Span>) {
    let elapsed_s = runs
        .iter()
        .map(|r| r.elapsed)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    let mut latency_us: [Vec<f64>; 3] = Default::default();
    let mut done_s: [Vec<f64>; 3] = Default::default();
    let (mut ep_sum, mut ep_plans) = (0.0, 0u64);
    let mut spans = Vec::new();
    for run in runs {
        for (all, mine) in latency_us.iter_mut().zip(run.latency_us) {
            all.extend(mine);
        }
        for (all, mine) in done_s.iter_mut().zip(run.done_s) {
            all.extend(mine);
        }
        ep_sum += run.ep_sum;
        ep_plans += run.ep_plans;
        spans.extend(run.spans);
        tally.absorb(run.tally);
    }
    let window = Window {
        latency_us,
        done_s,
        elapsed_s,
        ep_per_cell: if ep_plans == 0 {
            f64::NAN
        } else {
            ep_sum / ep_plans as f64
        },
        slice_s: workload.slice_s(),
        steal: marks
            .windows(2)
            .map(|m| procs::steal_share(m[0], m[1]))
            .collect(),
    };
    (window, spans)
}

fn rss_mib(server: &Server) -> f64 {
    server.pids().into_iter().map(procs::rss_mib).sum()
}

/// Metrics printed only in the report line: they are zero at a
/// correct HEAD, exist on one workload only, or, like the plan p50 and
/// p99, jump between modes of `node-hit`'s latency from run to run.
/// Its requests run in a fast (13-16 us) and a slow (20-24 us) regime
/// that alternate every few dozen requests whatever their size, in a
/// mix set by the host's load, so the p50 often falls in the gap
/// between them; and about 1% of its requests meet a timer tick or an
/// interprocessor interrupt, so the p99 lands inside or outside that
/// population. `BENCHMARK.json` gates the mean, which moves smoothly
/// with the mix, and p90 instead.
fn extra_metrics(window: &Window, tally: &Tally, extra: &mut Metrics) {
    extra.put(
        "error_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    for (q, name) in [(50.0, "plan_p50_us"), (99.0, "plan_p99_us")] {
        extra.put(name, window.sliced_percentile(Op::Plan, q), "us");
    }
    for (op, name) in [(Op::PlanDevices, "plan_devices"), (Op::Observe, "observe")] {
        if !window.latency_us[op as usize].is_empty() {
            extra.put(
                &format!("{name}_p50_us"),
                window.sliced_percentile(op, 50.0),
                "us",
            );
            extra.put(
                &format!("{name}_p99_us"),
                window.sliced_percentile(op, 99.0),
                "us",
            );
        }
    }
    let calm = window.calm();
    extra.put("slices", calm.len() as f64, "count");
    extra.put(
        "calm_slices",
        calm.iter().filter(|&&c| c).count() as f64,
        "count",
    );
    for (i, name) in ["plan", "plan_devices", "observe"].iter().enumerate() {
        extra.put(
            &format!("{name}_samples"),
            window.latency_us[i].len() as f64,
            "count",
        );
    }
}

fn run_e2e(bench: &mut Bench, metrics: &mut Metrics, extra: &mut Metrics) -> Result<(), String> {
    let workload = bench.opts.workload;
    let (server, setup_s) = bench.setup(workload)?;
    let mut scripts = prepare(bench, &server);
    let limit = Limit {
        duration: Duration::from_secs(bench.opts.seconds),
        ep_plans: ep_prefix(workload),
        max_requests: None,
        cpu: bench.cpu.filter(|_| workload.shares_one_core()),
        slice: Duration::from_secs_f64(workload.slice_s()),
    };
    let runs = load::run_window(&mut scripts, server.addr(), limit, None);
    let rss = rss_mib(&server);
    if let (Some(first), Some(last)) = (runs.1.first(), runs.1.last()) {
        extra.put(
            "host_steal_share",
            procs::steal_share(*first, *last),
            "ratio",
        );
    }
    let mut window_tally = Tally::default();
    let (window, _) = summarize(workload, runs, &mut window_tally);
    metrics.put("throughput_rps", window.throughput_rps(), "1/s");
    metrics.put("plan_mean_us", window.sliced_mean(Op::Plan), "us");
    metrics.put(
        "plan_p90_us",
        window.sliced_percentile(Op::Plan, 90.0),
        "us",
    );
    metrics.put("ep_per_cell", window.ep_per_cell, "ratio");
    metrics.put("setup_s", setup_s, "s");
    metrics.put("rss_mib", rss, "MiB");
    extra_metrics(&window, &window_tally, extra);
    bench.tally.absorb(window_tally);
    server.shutdown()
}

fn run_traced(bench: &mut Bench, metrics: &mut Metrics, extra: &mut Metrics) -> Result<(), String> {
    let workload = bench.opts.workload;
    let (server, _) = bench.setup(workload)?;
    let mut scripts = prepare(bench, &server);
    // Untraced and traced quarters alternate as U T T U, so a drift
    // over the run cancels out of `trace.overhead`.
    let limit = Limit {
        duration: Duration::from_secs(bench.opts.seconds).div_f64(4.0),
        ep_plans: 0,
        max_requests: None,
        cpu: bench.cpu.filter(|_| workload.shares_one_core()),
        slice: Duration::from_secs_f64(workload.slice_s()),
    };
    let origin = Instant::now();
    let (mut untraced_rps, mut traced_rps) = (0.0, 0.0);
    let mut request_spans = Vec::new();
    for (quarter, traced) in [false, true, true, false].into_iter().enumerate() {
        let tracer = traced.then_some((origin, quarter as u64));
        let runs = load::run_window(&mut scripts, server.addr(), limit, tracer);
        let (window, spans) = summarize(workload, runs, &mut bench.tally);
        if traced {
            traced_rps += window.throughput_rps();
            request_spans.extend(spans);
        } else {
            untraced_rps += window.throughput_rps();
        }
    }
    let observes: u64 = scripts.iter().map(Script::observes).sum();
    let ctx = layers::Context {
        workload,
        seed: bench.opts.seed,
        scratch: bench.scratch.clone(),
        origin,
        server: &server,
        observes,
        client_cpu: limit.cpu,
    };
    let mut cluster_for_node = None;
    if workload != Workload::ClusterMix {
        let (cluster, _) = bench.start(Workload::ClusterMix, 9)?;
        cluster_for_node = Some(cluster);
    }
    let cluster = cluster_for_node.as_ref().unwrap_or(&server);
    let trace_dir = PathBuf::from(SCRATCH);
    let suite = layers::run(&ctx, cluster, &request_spans, &trace_dir)?;
    for note in &suite.failures {
        bench.tally.fail(note.clone());
    }
    metrics.append(suite.metrics);
    metrics.put("trace.overhead", untraced_rps / traced_rps - 1.0, "ratio");
    extra.append(suite.extra);
    let path = trace_dir.join(format!(
        "trace-{}-seed{}.jsonl",
        workload.name(),
        bench.opts.seed
    ));
    layers::write_trace(&path, &request_spans, &suite.spans)?;
    extra.put(
        "spans_written",
        (request_spans.len() + suite.spans.len()) as f64,
        "count",
    );
    if let Some(cluster) = cluster_for_node {
        cluster.shutdown()?;
    }
    server.shutdown()
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(SCRATCH);
    let scratch = root.join("data");
    // Each run starts from an empty scratch data root.
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let stamp = host::stamp(opts.seed);
    let mut bench = Bench {
        opts,
        scratch,
        groups: Vec::new(),
        tally: Tally::default(),
        cpu: procs::first_allowed_cpu(),
    };
    let (mut metrics, mut extra) = (Metrics::default(), Metrics::default());
    let outcome = if bench.opts.trace {
        run_traced(&mut bench, &mut metrics, &mut extra)
    } else {
        run_e2e(&mut bench, &mut metrics, &mut extra)
    };
    if let Err(e) = outcome {
        bench.tally.fail(format!("run aborted: {e}"));
    }
    // No server process may outlive the command.
    for &group in &bench.groups {
        let left = procs::live_in_group(group);
        if !left.is_empty() {
            bench
                .tally
                .fail(format!("server processes {left:?} outlived the run"));
        }
    }
    let _ = std::fs::remove_dir_all(&bench.scratch);
    let correct = bench.tally.failed == 0 && metrics.0.iter().all(|(_, v, _)| v.is_finite());
    let report = Value::object(vec![
        ("workload", Value::from(bench.opts.workload.name())),
        ("trace", Value::Bool(bench.opts.trace)),
        ("seconds", Value::from(bench.opts.seconds)),
        ("host", stamp),
        (
            "note",
            Value::from("absolute figures depend on the host; compare hosts only by ratios"),
        ),
        ("metrics", metrics.to_json()),
        ("report_only", extra.to_json()),
        (
            "failures",
            Value::Array(
                bench
                    .tally
                    .notes
                    .iter()
                    .map(|n| Value::from(n.as_str()))
                    .collect(),
            ),
        ),
    ]);
    println!("{report}");
    let result = Value::object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::from(bench.tally.attempted.max(1))),
        ("failed", Value::from(bench.tally.failed)),
        ("metrics", metrics.to_json()),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
