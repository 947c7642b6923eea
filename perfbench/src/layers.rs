//! The traced run's per-layer measurements.
//!
//! Each layer is timed by calling its crate's public functions from
//! here, on the workload's own generated requests, with one span per
//! call. Server-side counters come from the nodes' `metrics` and the
//! router's `stats` ops; transport and hop costs from round trips
//! against the live processes.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jsonio::Value;
use pager_core::cancel::CancelToken;
use pager_core::{bandwidth, dp, greedy_strategy_planned_cancel, optimal, Delay, Instance};
use pager_profiles::io::DiskIo;
use pager_profiles::{DurabilityConfig, DurableStore, FsyncPolicy, ProfileStore, StoreConfig};
use pager_service::{PagerService, ServiceConfig};
use pager_wire::frame::{self, Split};
use pager_wire::{binary, IdView, PlanFrameView};

use crate::client::{self, Conn};
use crate::gen::{self, PlanReq, PoolDraws, Sightings, SolveStream, Workload};
use crate::procs::{self, Server};
use crate::stats::{self, Metrics};
use crate::trace::{self, Span, Tracer};

/// What the layer suite needs from the run.
pub struct Context<'a> {
    /// The workload being traced.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Scratch directory for in-process stores.
    pub scratch: PathBuf,
    /// Origin of every span timestamp.
    pub origin: Instant,
    /// The workload's own server (node or cluster).
    pub server: &'a Server,
    /// Observes the workload's clients had acknowledged.
    pub observes: u64,
    /// The CPU the workload's clients were pinned to, if any; the
    /// transport is timed from the same CPU.
    pub client_cpu: Option<usize>,
}

/// The suite's results.
#[derive(Default)]
pub struct Suite {
    /// Per-layer metrics, in print order.
    pub metrics: Metrics,
    /// Report-only figures: the blocking-path breakdown.
    pub extra: Metrics,
    /// Every layer span.
    pub spans: Vec<Span>,
    /// Failed checks and gates.
    pub failures: Vec<String>,
}

impl Suite {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.put(name, value, unit);
    }
}

/// A cluster node found under the router process.
struct Node {
    id: String,
    pid: i32,
    addr: SocketAddr,
}

fn discover(cluster: &Server) -> Result<Vec<Node>, String> {
    let mut nodes = Vec::new();
    for pid in procs::children(cluster.pid()) {
        let id = procs::cmdline_value(pid, "--node-id").ok_or("node without --node-id")?;
        let port = procs::listen_port(pid).ok_or_else(|| format!("{id} listens nowhere"))?;
        nodes.push(Node {
            id,
            pid,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
        });
    }
    nodes.sort_by(|a, b| a.id.cmp(&b.id));
    if nodes.is_empty() {
        return Err("no cluster nodes found".into());
    }
    Ok(nodes)
}

fn ask(addr: SocketAddr, line: &str) -> Result<Value, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let reply = conn
        .round_trip(&client::line(line))
        .map_err(|e| format!("{line}: {e}"))?;
    client::expect_ok(&reply)
}

fn u64_at(value: &Value, path: &[&str]) -> u64 {
    let mut v = value;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0,
        }
    }
    v.as_u64().unwrap_or(0)
}

fn p(values: &[f64], q: f64) -> f64 {
    stats::percentile(values, q).unwrap_or(f64::NAN)
}

/// Summed `metrics` counters of the nodes that served the workload.
fn service_metrics(addrs: &[SocketAddr], suite: &mut Suite) -> Result<(u64, f64), String> {
    let mut sum: HashMap<&str, u64> = HashMap::new();
    let keys = [
        "requests",
        "cache_hits",
        "evictions",
        "coalesced",
        "requests_shed",
        "deadline_downgrades",
        "wal_fsyncs",
    ];
    let (mut wait_total, mut wait_count) = (0u64, 0u64);
    for &addr in addrs {
        let m = ask(addr, r#"{"cmd": "metrics"}"#)?;
        for key in keys {
            *sum.entry(key).or_default() += u64_at(&m, &["metrics", key]);
        }
        wait_total += u64_at(&m, &["metrics", "queue_wait", "total_micros"]);
        wait_count += u64_at(&m, &["metrics", "queue_wait", "count"]);
    }
    let requests = sum["requests"].max(1) as f64;
    suite.put(
        "pager-service.cache_hit_ratio",
        sum["cache_hits"] as f64 / requests,
        "ratio",
    );
    suite.put("pager-service.evictions", sum["evictions"] as f64, "count");
    suite.put("pager-service.coalesced", sum["coalesced"] as f64, "count");
    suite.put("pager-service.shed", sum["requests_shed"] as f64, "count");
    suite.put(
        "pager-service.downgrades",
        sum["deadline_downgrades"] as f64,
        "count",
    );
    let queue_wait = wait_total as f64 / wait_count.max(1) as f64;
    suite.put("pager-service.queue_wait_us.mean", queue_wait, "us");
    Ok((sum["wal_fsyncs"], queue_wait))
}

/// v2 PING round trips against an idle node, from the clients' CPU:
/// the transport alone.
fn ping(
    addr: SocketAddr,
    tracer: &mut Tracer,
    n: u64,
    cpu: Option<usize>,
) -> Result<Vec<f64>, String> {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                if let Some(cpu) = cpu {
                    procs::pin_to_cpu(0, cpu).map_err(|e| format!("pin to cpu {cpu}: {e}"))?;
                }
                ping_here(addr, tracer, n)
            })
            .join()
            .unwrap_or_else(|_| Err("ping thread panicked".to_string()))
    })
}

fn ping_here(addr: SocketAddr, tracer: &mut Tracer, n: u64) -> Result<Vec<f64>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let wire = client::ping_frame();
    for _ in 0..64 {
        conn.round_trip(&wire).map_err(|e| e.to_string())?;
    }
    let mut rtt = Vec::with_capacity(n as usize);
    for i in 0..n {
        let t0 = Instant::now();
        conn.round_trip(&wire).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        tracer.record("pager-reactor.ping", None, i, t0, t1);
        rtt.push((t1 - t0).as_nanos() as f64 / 1e3);
    }
    Ok(rtt)
}

/// The workload's plan requests that the in-process layers replay.
fn replay_requests(workload: Workload, seed: u64, max: usize) -> Vec<PlanReq> {
    match workload {
        Workload::NodeHit => gen::hit_pool(seed).into_iter().take(max).collect(),
        Workload::NodeSolve => {
            let mut stream = SolveStream::new(seed, 0);
            (0..max).map(|_| stream.next_request()).collect()
        }
        Workload::ClusterMix => gen::mix_pool(seed).into_iter().take(max).collect(),
    }
}

fn payload(wire: &[u8]) -> &[u8] {
    match frame::split(wire) {
        Split::V2Frame { payload, .. } => payload,
        _ => &[],
    }
}

/// The solver tiers on the workload's instances: the served tier
/// under a `replay.solve` root with the codec work around it, then
/// the other tier, the split DP alone and the EP evaluation.
fn core_layers(
    reqs: &[PlanReq],
    exact: &[Instance],
    tracer: &mut Tracer,
    budget: Duration,
) -> Result<(), String> {
    let started = Instant::now();
    let never = CancelToken::never();
    let mut out = Vec::with_capacity(1 << 16);
    for (i, req) in reqs.iter().enumerate() {
        if i > 0 && started.elapsed() > budget {
            break;
        }
        let i = i as u64;
        let wire = req.frame(i);
        let delay = Delay::new(req.delay).expect("generated delays are positive");
        let c = req.instance.num_cells();
        let derived_cap = c.div_ceil(req.delay.min(c));
        let (root, start) = tracer.open("replay.solve", i);
        let decoded = tracer.time("pager-wire.v2_decode", Some(root), i, || {
            PlanFrameView::parse(payload(&wire)).map(|v| v.to_request().is_ok())
        });
        if decoded != Ok(true) {
            return Err(format!("replayed request {i} did not decode"));
        }
        let planned = match req.cap() {
            Some(cap) => tracer.time("pager-core.bandwidth", Some(root), i, || {
                bandwidth::greedy_strategy_bounded_cancel(&req.instance, delay, cap, &never)
            }),
            None => tracer.time("pager-core.greedy", Some(root), i, || {
                greedy_strategy_planned_cancel(&req.instance, delay, &never)
            }),
        };
        let planned = planned.map_err(|e| format!("replayed request {i}: {e}"))?;
        tracer.time("pager-wire.v2_encode", Some(root), i, || {
            out.clear();
            binary::encode_plan_response(
                &mut out,
                IdView::I64(i as i64),
                None,
                "greedy",
                planned.expected_paging,
                0,
                false,
                false,
                false,
                planned.strategy.groups(),
            );
        });
        tracer.close(root, start);
        let _ = match req.cap() {
            Some(_) => tracer.time("pager-core.greedy", None, i, || {
                greedy_strategy_planned_cancel(&req.instance, delay, &never).map(|_| ())
            }),
            None => tracer.time("pager-core.bandwidth", None, i, || {
                bandwidth::greedy_strategy_bounded_cancel(&req.instance, delay, derived_cap, &never)
                    .map(|_| ())
            }),
        };
        let order = req.instance.cells_by_weight_desc();
        let rows: Vec<&[f64]> = req.instance.rows().collect();
        let g = dp::conference_stop_probs(&rows, &order);
        let d = delay.clamp_to_cells(c).get();
        tracer.time("pager-core.split", None, i, || {
            std::hint::black_box(dp::optimal_split(&g, d, None))
        });
        let _ = tracer.time("pager-core.ep_eval", None, i, || {
            std::hint::black_box(req.instance.expected_paging(&planned.strategy))
        });
    }
    let delay = Delay::new(gen::MIX_DELAY).expect("positive delay");
    for (i, instance) in exact.iter().enumerate() {
        tracer
            .time("pager-core.exact", None, i as u64, || {
                std::hint::black_box(optimal::optimal_subset_dp_cancel(instance, delay, &never))
            })
            .map_err(|e| format!("exact tier on shape {i}: {e}"))?;
    }
    Ok(())
}

/// Cache probes against a warmed in-process service, each under a
/// `replay.hit` root with the frame parse and response encode.
fn cache_layers(frames: &[Vec<u8>], order: &[usize], tracer: &mut Tracer) -> Result<(), String> {
    let service = PagerService::try_new(ServiceConfig::default()).map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(1 << 16);
    for wire in frames {
        out.clear();
        let _ = pager_service::handle_frame(&service, frame::op::PLAN, payload(wire), &mut out);
    }
    let mut misses = 0u64;
    for (n, &i) in order.iter().enumerate() {
        let n = n as u64;
        let (root, start) = tracer.open("replay.hit", n);
        let view = tracer.time("pager-wire.v2_parse", Some(root), n, || {
            PlanFrameView::parse(payload(&frames[i]))
        });
        let Ok(view) = view else {
            misses += 1;
            continue;
        };
        let hit = tracer.time("pager-service.cache_probe", Some(root), n, || {
            service.plan_cache_probe(&view)
        });
        let Some(hit) = hit else {
            misses += 1;
            continue;
        };
        tracer.time("pager-wire.v2_encode", Some(root), n, || {
            out.clear();
            binary::encode_plan_response(
                &mut out,
                view.id(),
                None,
                hit.plan.tier.name(),
                hit.plan.expected_paging,
                hit.plan.planning_micros,
                hit.plan.downgraded,
                true,
                false,
                hit.plan.strategy.groups(),
            );
        });
        tracer.close(root, start);
    }
    service.shutdown();
    if misses > 0 {
        return Err(format!(
            "{misses} warmed frames missed the in-process cache"
        ));
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|d| {
            d.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn open_durable(dir: &Path, fsync: FsyncPolicy) -> Result<DurableStore, String> {
    let config = DurabilityConfig {
        fsync,
        ..DurabilityConfig::default()
    };
    DurableStore::open(Arc::new(DiskIo), dir, StoreConfig::default(), config).map(|(s, _)| s)
}

/// Profile ingest in memory, ingest plus WAL append, and the same
/// under `fsync always` inside a `replay.observe` root with the v1
/// codec work around it. Returns `(fsyncs per observe, WAL bytes per
/// sighting)` of the fsync store.
fn profile_layers(ctx: &Context<'_>, tracer: &mut Tracer) -> Result<(f64, f64), String> {
    const CHEAP: u64 = 3000;
    const FSYNCED: u64 = 300;
    let memory = ProfileStore::new(StoreConfig::default())?;
    let mut stream = Sightings::new(ctx.seed, 0);
    for i in 0..CHEAP {
        let step = stream.next_step();
        let s = [stream.sighting(step)];
        tracer
            .time("pager-profiles.ingest", None, i, || {
                memory.observe_batch(gen::MIX_CELLS, &s)
            })
            .map_err(|e| format!("ingest: {e}"))?;
    }
    let never = open_durable(&ctx.scratch.join("wal-never"), FsyncPolicy::Never)?;
    let mut stream = Sightings::new(ctx.seed, 0);
    for i in 0..CHEAP {
        let step = stream.next_step();
        let s = [stream.sighting(step)];
        tracer
            .time("pager-profiles.append", None, i, || {
                never.observe_batch(gen::MIX_CELLS, &s)
            })
            .map_err(|e| format!("append: {e:?}"))?;
    }
    let dir = ctx.scratch.join("wal-always");
    let always = open_durable(&dir, FsyncPolicy::Always)?;
    let before = dir_bytes(&dir);
    let fsyncs_before = always.stats().wal_fsyncs;
    let mut stream = Sightings::new(ctx.seed, 0);
    for i in 0..FSYNCED {
        let step = stream.next_step();
        let line = stream.observe_line(step);
        let (root, start) = tracer.open("replay.observe", i);
        let text = std::str::from_utf8(&line).map_err(|e| e.to_string())?;
        let request = tracer.time("pager-wire.v1_decode", Some(root), i, || {
            pager_wire::json::parse_request(text.trim_end())
        });
        let Ok(pager_wire::Request::Observe { cells, sightings }) = request else {
            return Err("generated observe line did not decode".into());
        };
        let versions = tracer
            .time("pager-profiles.append_fsync", Some(root), i, || {
                always.observe_batch(cells, &sightings)
            })
            .map_err(|e| format!("append_fsync: {e:?}"))?;
        tracer.time("pager-wire.v1_encode", Some(root), i, || {
            let latest = versions
                .iter()
                .map(|(d, v)| (d.clone(), Value::from(*v)))
                .collect();
            std::hint::black_box(pager_wire::json::ok_line(
                None,
                vec![
                    ("ingested", Value::from(versions.len())),
                    ("versions", Value::Object(latest)),
                ],
            ))
        });
        tracer.close(root, start);
    }
    let fsyncs = (always.stats().wal_fsyncs - fsyncs_before) as f64 / FSYNCED as f64;
    let wal_bytes = dir_bytes(&dir).saturating_sub(before) as f64 / FSYNCED as f64;
    Ok((fsyncs, wal_bytes))
}

/// Runs the wire-layer process (the only one with the counting
/// allocator) and checks its gates.
fn wire_layer(ctx: &Context<'_>, trace_out: &Path, suite: &mut Suite) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let wire_exe = exe.with_file_name("perfbench-wire");
    let output = Command::new(&wire_exe)
        .args(["--workload", ctx.workload.name(), "--seed"])
        .arg(ctx.seed.to_string())
        .arg("--trace-out")
        .arg(trace_out)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", wire_exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let value = jsonio::parse(last).map_err(|e| format!("wire layer printed {last:?}: {e}"))?;
    let f = |key: &str| value.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    suite.put("pager-wire.v2_frame_ns.p50", f("v2_frame_ns_p50"), "ns");
    suite.put("pager-wire.v1_line_ns.p50", f("v1_line_ns_p50"), "ns");
    suite.put("pager-wire.v2_over_v1", f("v2_over_v1"), "ratio");
    suite.put(
        "pager-wire.v2_allocs_per_msg",
        f("v2_allocs_per_msg"),
        "count",
    );
    suite.put(
        "pager-wire.v1_allocs_per_msg",
        f("v1_allocs_per_msg"),
        "count",
    );
    suite.put("pager-wire.bytes_per_plan", f("bytes_per_plan"), "bytes");
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        suite
            .failures
            .push(format!("wire-layer gate failed: {}", stderr.trim()));
    }
    Ok(())
}

/// Router hop, observe hop and shipping against a live cluster.
struct Hops {
    router_hop_us: f64,
    observe_hop_us: f64,
    /// p50 of an observe sent straight to its owner.
    observe_direct_us: f64,
    /// Router `stats` taken while every observe had gone through the
    /// router, before any observe was sent straight to an owner.
    stats: Value,
    /// Observes the router had handled when `stats` was taken.
    router_observes: u64,
}

fn conn_for(conns: &mut HashMap<SocketAddr, Conn>, addr: SocketAddr) -> Result<&mut Conn, String> {
    match conns.entry(addr) {
        Entry::Occupied(e) => Ok(e.into_mut()),
        Entry::Vacant(e) => {
            let conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            Ok(e.insert(conn))
        }
    }
}

fn owner_of(reply: &Value) -> Result<String, String> {
    reply
        .get("node")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| "reply names no node".to_string())
}

fn cluster_hops(
    ctx: &Context<'_>,
    cluster: &Server,
    nodes: &[Node],
    tracer: &mut Tracer,
) -> Result<Hops, String> {
    let addr_of: HashMap<&str, SocketAddr> =
        nodes.iter().map(|n| (n.id.as_str(), n.addr)).collect();
    let mut via = Conn::connect(cluster.addr()).map_err(|e| e.to_string())?;
    let mut direct: HashMap<SocketAddr, Conn> = HashMap::new();
    // Plans: warm each frame through the router (its reply names the
    // owner), then alternate router and owner with the same frame.
    let reqs = replay_requests(ctx.workload, ctx.seed, 32);
    let mut targets = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        let wire = req.frame(i as u64);
        let reply = via.round_trip(&wire).map_err(|e| e.to_string())?;
        let plan = client::expect_plan(&reply)?;
        let owner = *addr_of
            .get(plan.node.as_str())
            .ok_or_else(|| format!("unknown owner {:?}", plan.node))?;
        targets.push((wire, owner));
    }
    let (mut via_us, mut direct_us) = (Vec::new(), Vec::new());
    let mut n = 0u64;
    for _ in 0..16 {
        for (wire, owner) in &targets {
            n += 1;
            let t0 = Instant::now();
            let a = via.round_trip(wire);
            let t1 = Instant::now();
            let b = conn_for(&mut direct, *owner)?.round_trip(wire);
            let t2 = Instant::now();
            client::expect_plan(&a.map_err(|e| e.to_string())?)?;
            client::expect_plan(&b.map_err(|e| e.to_string())?)?;
            tracer.record("pager-cluster.plan_via_router", None, n, t0, t1);
            tracer.record("pager-cluster.plan_direct", None, n, t1, t2);
            via_us.push((t1 - t0).as_nanos() as f64 / 1e3);
            direct_us.push((t2 - t1).as_nanos() as f64 / 1e3);
        }
    }
    let router_hop_us = p(&via_us, 50.0) - p(&direct_us, 50.0);
    // Observes: probe devices of this run only, alternating the router
    // and the device's owner.
    let devices: Vec<String> = (0..16)
        .map(|i| format!("probe-s{}-{i}", ctx.seed))
        .collect();
    let observe = |device: &str, time: u64| {
        client::line(&format!(
            r#"{{"cmd": "observe", "cells": {}, "sightings": [{{"device": "{device}", "cell": {}, "time": {time}}}]}}"#,
            gen::MIX_CELLS,
            time % gen::MIX_CELLS as u64
        ))
    };
    let mut owners = Vec::new();
    for device in &devices {
        client::expect_ok(
            &via.round_trip(&observe(device, 1))
                .map_err(|e| e.to_string())?,
        )?;
        let plan = client::line(&format!(
            r#"{{"cmd": "plan_devices", "devices": ["{device}"], "delay": 2, "now": 1}}"#
        ));
        let reply = client::expect_ok(&via.round_trip(&plan).map_err(|e| e.to_string())?)?;
        let owner = owner_of(&reply)?;
        owners.push(
            *addr_of
                .get(owner.as_str())
                .ok_or_else(|| format!("unknown owner {owner:?}"))?,
        );
    }
    let stats = ask(cluster.addr(), r#"{"cmd": "stats"}"#)?;
    let router_observes = devices.len() as u64
        + if ctx.workload == Workload::ClusterMix {
            ctx.observes
        } else {
            0
        };
    let (mut via_us, mut direct_us) = (Vec::new(), Vec::new());
    let mut time = 1u64;
    for _ in 0..20 {
        time += 2;
        for (device, owner) in devices.iter().zip(&owners) {
            n += 1;
            let (a_line, b_line) = (observe(device, time), observe(device, time + 1));
            let t0 = Instant::now();
            let a = via.round_trip(&a_line);
            let t1 = Instant::now();
            let b = conn_for(&mut direct, *owner)?.round_trip(&b_line);
            let t2 = Instant::now();
            client::expect_ok(&a.map_err(|e| e.to_string())?)?;
            client::expect_ok(&b.map_err(|e| e.to_string())?)?;
            tracer.record("pager-cluster.observe_via_router", None, n, t0, t1);
            tracer.record("pager-cluster.observe_direct", None, n, t1, t2);
            via_us.push((t1 - t0).as_nanos() as f64 / 1e3);
            direct_us.push((t2 - t1).as_nanos() as f64 / 1e3);
        }
    }
    Ok(Hops {
        router_hop_us,
        observe_hop_us: p(&via_us, 50.0) - p(&direct_us, 50.0),
        observe_direct_us: p(&direct_us, 50.0),
        stats,
        router_observes,
    })
}

/// p50 self time of the spans called `name` whose parent is called
/// `parent` (any parent when `None`).
fn stage_p50(spans: &[Span], self_ns: &[u64], names: &[&str], parent: Option<&str>) -> f64 {
    let parents: HashMap<u64, &str> = spans.iter().map(|s| (s.id, s.name)).collect();
    let values: Vec<f64> = spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| names.contains(&s.name))
        .filter(|(s, _)| match parent {
            None => true,
            Some(want) => s.parent.and_then(|id| parents.get(&id)) == Some(&want),
        })
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect();
    p(&values, 50.0)
}

/// Runs every layer measurement for the traced workload. `cluster`
/// is the workload's cluster on `cluster-mix` and a separate default
/// cluster otherwise.
///
/// # Errors
///
/// A message when a layer could not be measured at all.
pub fn run(
    ctx: &Context<'_>,
    cluster: &Server,
    request_spans: &[Span],
    trace_dir: &Path,
) -> Result<Suite, String> {
    let mut suite = Suite::default();
    let mut tracer = Tracer::new(ctx.origin, 1 << 50);
    let nodes = discover(cluster)?;

    // Server-side counters of the nodes that served the workload.
    let (served_by, ping_target): (Vec<SocketAddr>, (SocketAddr, i32)) = match ctx.workload {
        Workload::ClusterMix => {
            let info = ask(cluster.addr(), r#"{"cmd": "node_info"}"#)?;
            let owner = info
                .get("shards")
                .and_then(Value::as_array)
                .and_then(|s| s.first())
                .and_then(|s| s.get("owner"))
                .and_then(Value::as_str)
                .ok_or("node_info names no owner")?
                .to_string();
            let node = nodes
                .iter()
                .find(|n| n.id == owner)
                .ok_or("shard owner not found")?;
            (
                nodes.iter().map(|n| n.addr).collect(),
                (node.addr, node.pid),
            )
        }
        _ => (
            vec![ctx.server.addr()],
            (ctx.server.addr(), ctx.server.pid()),
        ),
    };
    let (node_fsyncs, queue_wait_us) = service_metrics(&served_by, &mut suite)?;

    // Transport alone.
    let rtt = ping(ping_target.0, &mut tracer, 2000, ctx.client_cpu)?;
    suite.put("pager-reactor.ping_rtt_us.p50", p(&rtt, 50.0), "us");
    suite.put("pager-reactor.ping_rtt_us.p99", p(&rtt, 99.0), "us");
    suite.put(
        "pager-reactor.threads",
        procs::threads(ping_target.1) as f64,
        "count",
    );

    // Solver tiers and codec on the workload's own instances.
    let reqs = replay_requests(ctx.workload, ctx.seed, 400);
    if let Err(e) = core_layers(
        &reqs,
        &gen::exact_shapes(ctx.seed, 500),
        &mut tracer,
        Duration::from_secs(2),
    ) {
        suite.failures.push(e);
    }

    // Cache probes on the workload's frames, in its draw order.
    let (frames, order): (Vec<Vec<u8>>, Vec<usize>) = match ctx.workload {
        Workload::NodeSolve => {
            let frames: Vec<Vec<u8>> = reqs
                .iter()
                .take(64)
                .enumerate()
                .map(|(i, r)| r.frame(i as u64))
                .collect();
            let order = (0..4096).map(|i| i % frames.len()).collect();
            (frames, order)
        }
        _ => {
            let frames: Vec<Vec<u8>> = reqs
                .iter()
                .enumerate()
                .map(|(i, r)| r.frame(i as u64))
                .collect();
            let mut draws = PoolDraws::new(ctx.seed, 0, frames.len());
            let order = (0..20_000).map(|_| draws.next_index()).collect();
            (frames, order)
        }
    };
    if let Err(e) = cache_layers(&frames, &order, &mut tracer) {
        suite.failures.push(e);
    }

    // Profiles: ingest, append, append + fsync.
    let (fsyncs_in_process, wal_bytes) = profile_layers(ctx, &mut tracer)?;

    // Wire codec, in its own process under the counting allocator.
    let wire_trace = trace_dir.join(format!(
        "trace-{}-seed{}-wire.jsonl",
        ctx.workload.name(),
        ctx.seed
    ));
    wire_layer(ctx, &wire_trace, &mut suite)?;

    // Router hop, observe hop and shipping.
    let hops = cluster_hops(ctx, cluster, &nodes, &mut tracer)?;
    let shipped = u64_at(&hops.stats, &["router", "shipped_records"]) as f64;

    let spans = tracer.into_spans();
    let self_ns = trace::self_times_ns(&spans);
    let layer = |name: &str| trace::self_times_us(&spans, &self_ns, name);
    let greedy = layer("pager-core.greedy");
    let split = layer("pager-core.split");
    let fsync = layer("pager-profiles.append_fsync");
    suite.put("pager-core.greedy_us.p50", p(&greedy, 50.0), "us");
    suite.put("pager-core.greedy_us.p99", p(&greedy, 99.0), "us");
    suite.put(
        "pager-core.bandwidth_us.p50",
        p(&layer("pager-core.bandwidth"), 50.0),
        "us",
    );
    suite.put("pager-core.split_us.p50", p(&split, 50.0), "us");
    suite.put("pager-core.split_us.p99", p(&split, 99.0), "us");
    suite.put(
        "pager-core.exact_us.p50",
        p(&layer("pager-core.exact"), 50.0),
        "us",
    );
    suite.put(
        "pager-core.ep_eval_us.p50",
        p(&layer("pager-core.ep_eval"), 50.0),
        "us",
    );
    suite.put(
        "pager-service.cache_probe_ns.p50",
        p(&layer("pager-service.cache_probe"), 50.0) * 1e3,
        "ns",
    );
    suite.put(
        "pager-profiles.ingest_us.p50",
        p(&layer("pager-profiles.ingest"), 50.0),
        "us",
    );
    suite.put(
        "pager-profiles.append_us.p50",
        p(&layer("pager-profiles.append"), 50.0),
        "us",
    );
    suite.put("pager-profiles.append_fsync_us.p50", p(&fsync, 50.0), "us");
    suite.put("pager-profiles.append_fsync_us.p99", p(&fsync, 99.0), "us");
    let fsyncs_per_observe = if ctx.workload == Workload::ClusterMix {
        node_fsyncs as f64 / ctx.observes.max(1) as f64
    } else {
        fsyncs_in_process
    };
    suite.put(
        "pager-profiles.fsyncs_per_observe",
        fsyncs_per_observe,
        "ratio",
    );
    suite.put("pager-profiles.wal_bytes_per_sighting", wal_bytes, "bytes");
    suite.put("pager-cluster.router_hop_us.p50", hops.router_hop_us, "us");
    suite.put(
        "pager-cluster.observe_hop_us.p50",
        hops.observe_hop_us,
        "us",
    );
    suite.put(
        "pager-cluster.ship_us.p50",
        hops.observe_hop_us - hops.router_hop_us,
        "us",
    );
    suite.put(
        "pager-cluster.shipped_per_observe",
        shipped / hops.router_observes.max(1) as f64,
        "ratio",
    );
    for key in ["retries", "transport_errors", "breaker_rejections"] {
        suite.put(
            &format!("pager-cluster.{key}"),
            u64_at(&hops.stats, &["router", key]) as f64,
            "count",
        );
    }

    // The blocking path of the workload's headline request.
    let request_self = trace::self_times_ns(request_spans);
    let (e2e_name, mut path): (&str, Vec<(&str, f64)>) = match ctx.workload {
        Workload::NodeHit => (
            "request.plan",
            vec![
                (
                    "pager-wire.v2_parse",
                    stage_p50(
                        &spans,
                        &self_ns,
                        &["pager-wire.v2_parse"],
                        Some("replay.hit"),
                    ),
                ),
                (
                    "pager-service.cache_probe",
                    stage_p50(
                        &spans,
                        &self_ns,
                        &["pager-service.cache_probe"],
                        Some("replay.hit"),
                    ),
                ),
                (
                    "pager-wire.v2_encode",
                    stage_p50(
                        &spans,
                        &self_ns,
                        &["pager-wire.v2_encode"],
                        Some("replay.hit"),
                    ),
                ),
            ],
        ),
        Workload::NodeSolve => (
            "request.plan",
            vec![
                ("pager-service.queue_wait", queue_wait_us),
                (
                    "pager-wire.v2_decode",
                    stage_p50(
                        &spans,
                        &self_ns,
                        &["pager-wire.v2_decode"],
                        Some("replay.solve"),
                    ),
                ),
                (
                    "pager-core.solve",
                    stage_p50(
                        &spans,
                        &self_ns,
                        &["pager-core.greedy", "pager-core.bandwidth"],
                        Some("replay.solve"),
                    ),
                ),
                (
                    "pager-wire.v2_encode",
                    stage_p50(
                        &spans,
                        &self_ns,
                        &["pager-wire.v2_encode"],
                        Some("replay.solve"),
                    ),
                ),
            ],
        ),
        Workload::ClusterMix => (
            "request.observe",
            vec![
                (
                    "pager-wire.v1_decode",
                    stage_p50(
                        &spans,
                        &self_ns,
                        &["pager-wire.v1_decode"],
                        Some("replay.observe"),
                    ),
                ),
                (
                    "pager-profiles.append_fsync",
                    stage_p50(
                        &spans,
                        &self_ns,
                        &["pager-profiles.append_fsync"],
                        Some("replay.observe"),
                    ),
                ),
                (
                    "pager-wire.v1_encode",
                    stage_p50(
                        &spans,
                        &self_ns,
                        &["pager-wire.v1_encode"],
                        Some("replay.observe"),
                    ),
                ),
                ("pager-cluster.observe_hop", hops.observe_hop_us),
            ],
        ),
    };
    path.insert(0, ("pager-reactor.ping_rtt", p(&rtt, 50.0)));
    let e2e = p(
        &trace::self_times_us(request_spans, &request_self, e2e_name),
        50.0,
    );
    let layers_sum: f64 = path.iter().map(|(_, v)| v).sum();
    let residual = e2e - layers_sum;
    suite.put("trace.residual_us", residual, "us");
    suite.put("trace.residual_share", residual / e2e, "ratio");
    suite.extra.put("path.e2e_p50_us", e2e, "us");
    suite.extra.put(
        "observe_direct_to_owner_p50_us",
        hops.observe_direct_us,
        "us",
    );
    for (name, value) in path {
        suite.extra.put(&format!("path.{name}_us"), value, "us");
    }
    suite.spans = spans;
    Ok(suite)
}

/// Writes the request spans and the layer spans as JSON lines.
///
/// # Errors
///
/// A message when the file cannot be written.
pub fn write_trace(path: &Path, requests: &[Span], layers: &[Span]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    trace::write_spans(requests, &mut out)
        .and_then(|()| trace::write_spans(layers, &mut out))
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("{}: {e}", path.display()))
}
