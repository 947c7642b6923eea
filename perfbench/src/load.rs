//! Closed-loop clients: each connection sends its next request only
//! when the previous reply has arrived, like a call-setup controller
//! waiting for its plan before it pages.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pager_profiles::{Estimator, ProfileStore, StoreConfig};

use crate::check;
use crate::client::{self, Conn, Reply};
use crate::gen::{self, PlanReq, PoolDraws, Sightings, SolveStream, Step};
use crate::procs;
use crate::stats;
use crate::trace::{Span, Tracer};

/// The request kinds the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A matrix plan (v2 frame).
    Plan = 0,
    /// A profile-backed plan (v1 line).
    PlanDevices = 1,
    /// A sighting ingest (v1 line).
    Observe = 2,
}

impl Op {
    /// The span name of a client request of this kind.
    #[must_use]
    pub fn span_name(self) -> &'static str {
        match self {
            Op::Plan => "request.plan",
            Op::PlanDevices => "request.plan_devices",
            Op::Observe => "request.observe",
        }
    }
}

/// What a client learnt about one pool entry while warming it.
#[derive(Debug, Clone)]
pub struct Warm {
    /// The strategy bytes every later hit must repeat.
    pub groups_bytes: Vec<u8>,
    /// The client's own expected paging of that strategy.
    pub ep: f64,
    /// Cells of the instance.
    pub cells: usize,
}

/// Sends `reqs` once each, in order, checks every answer, and records
/// what later cache hits must repeat. Failures go to `tally`.
pub fn warm_pool(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    reqs: &[PlanReq],
    tally: &mut Tally,
) -> Vec<Warm> {
    let mut out = Vec::with_capacity(reqs.len());
    let mut conn = Conn::connect(addr).ok();
    for (frame, req) in frames.iter().zip(reqs) {
        tally.attempted += 1;
        let checked = conn
            .as_mut()
            .ok_or_else(|| "cannot connect".to_string())
            .and_then(|c| c.round_trip(frame).map_err(|e| e.to_string()))
            .and_then(|reply| check_plan(&reply, req, None));
        match checked {
            Ok((plan, ep)) => out.push(Warm {
                groups_bytes: plan.groups_bytes,
                ep,
                cells: req.instance.num_cells(),
            }),
            Err(e) => {
                tally.fail(format!("warming pool: {e}"));
                out.push(Warm {
                    groups_bytes: Vec::new(),
                    ep: f64::NAN,
                    cells: 1,
                });
            }
        }
    }
    out
}

fn check_plan(
    reply: &Reply,
    req: &PlanReq,
    id: Option<u64>,
) -> Result<(client::PlanReply, f64), String> {
    let plan = client::expect_plan(reply)?;
    if let Some(id) = id {
        if plan.id != i64::try_from(id).ok() {
            return Err(format!("reply id {:?} for request {id}", plan.id));
        }
    }
    let c = req.instance.num_cells();
    check::check_partition(&plan.groups, c, req.delay, req.cap())?;
    let ep = check::check_ep(plan.ep, &req.instance, &plan.groups)?;
    Ok((plan, ep))
}

fn check_hit(reply: &Reply, warm: &Warm) -> Result<f64, String> {
    let plan = client::expect_plan(reply)?;
    if plan.groups_bytes != warm.groups_bytes {
        return Err("a repeated instance got a different strategy".into());
    }
    if (plan.ep - warm.ep).abs() > check::EP_TOLERANCE * warm.ep.abs().max(1.0) {
        return Err(format!(
            "served EP {} but the strategy pages {}",
            plan.ep, warm.ep
        ));
    }
    Ok(warm.ep / warm.cells as f64)
}

/// A shared, read-only pool with its warm answers.
#[derive(Debug, Clone)]
pub struct Pool {
    /// Pre-encoded `PLAN` frames; the id of entry `i` is `i`.
    pub frames: Arc<Vec<Vec<u8>>>,
    /// What each entry's hits must repeat.
    pub warm: Arc<Vec<Warm>>,
}

/// The per-connection request script of one workload.
pub enum Script {
    /// `node-hit`: uniform draws over the pool.
    Hit {
        /// Pool and answers.
        pool: Pool,
        /// Index stream.
        draws: PoolDraws,
        /// Entry of the request in flight.
        current: usize,
    },
    /// `node-solve`: never-repeated instances.
    Solve {
        /// Request stream.
        stream: SolveStream,
        /// Request in flight and its id.
        current: Option<(PlanReq, u64)>,
    },
    /// `cluster-mix`: observe, plan_devices, observe, plan.
    Mix(Box<Mix>),
}

/// State of one `cluster-mix` client.
pub struct Mix {
    sightings: Sightings,
    pool: Pool,
    draws: PoolDraws,
    /// Profiles rebuilt from this client's acked sightings: the same
    /// estimator over the same sightings yields the instance the
    /// server planned, so every served EP can be recomputed.
    replica: ProfileStore,
    acked: Vec<u64>,
    step_no: u64,
    last: Option<Step>,
    pending: Pending,
    /// Observes acknowledged so far.
    pub observes: u64,
}

#[derive(Debug, Clone, Copy)]
enum Pending {
    Observe(Step),
    PlanDevices(Step),
    Plan(usize),
}

impl Mix {
    /// Client `client` of `seed` over the warmed pool.
    ///
    /// # Panics
    ///
    /// Never: the default store configuration is valid.
    #[must_use]
    pub fn new(seed: u64, client: usize, pool: Pool) -> Mix {
        Mix {
            sightings: Sightings::new(seed, client as u64),
            draws: PoolDraws::new(seed, client, pool.frames.len()),
            pool,
            replica: ProfileStore::new(StoreConfig::default()).expect("default store config"),
            acked: vec![0; gen::DEVICES_PER_CLIENT],
            step_no: 0,
            last: None,
            pending: Pending::Plan(0),
            observes: 0,
        }
    }

    fn check_observe(&mut self, reply: &Reply, step: Step) -> Result<Option<f64>, String> {
        let value = client::expect_ok(reply)?;
        let name = self.sightings.device_name(step.device);
        let version = value
            .get("versions")
            .and_then(|v| v.get(&name))
            .and_then(jsonio::Value::as_u64)
            .ok_or_else(|| format!("observe ack without a version for {name}"))?;
        self.acked[step.device] = version;
        self.replica
            .observe(&name, gen::MIX_CELLS, step.time, step.cell)
            .map_err(|e| format!("replica rejected an acked sighting: {e}"))?;
        self.observes += 1;
        Ok(None)
    }

    fn check_plan_devices(&self, reply: &Reply, step: Step) -> Result<Option<f64>, String> {
        let value = client::expect_ok(reply)?;
        let name = self.sightings.device_name(step.device);
        let served = value
            .get("profile_versions")
            .and_then(jsonio::Value::as_array)
            .and_then(|v| v.first())
            .and_then(jsonio::Value::as_u64)
            .ok_or("plan_devices reply without a profile version")?;
        check::check_version(served, self.acked[step.device])?;
        if value.get("now").and_then(jsonio::Value::as_f64) != Some(step.time) {
            return Err(format!(
                "plan_devices evaluated at another time than {}",
                step.time
            ));
        }
        let groups = client::json_groups(&value)?;
        let ep = value
            .get("ep")
            .and_then(jsonio::Value::as_f64)
            .ok_or("plan_devices reply without ep")?;
        let (instance, _, _) =
            self.replica
                .instance_for(&[name.as_str()], Estimator::Markov, Some(step.time))?;
        check::check_partition(&groups, gen::MIX_CELLS, gen::MIX_DELAY, None)?;
        let ep = check::check_ep(ep, &instance, &groups)?;
        Ok(Some(ep / gen::MIX_CELLS as f64))
    }
}

impl Script {
    /// Appends the next request to `out` and returns its kind.
    pub fn next(&mut self, id: u64, out: &mut Vec<u8>) -> Op {
        match self {
            Script::Hit {
                pool,
                draws,
                current,
            } => {
                *current = draws.next_index();
                out.extend_from_slice(&pool.frames[*current]);
                Op::Plan
            }
            Script::Solve { stream, current } => {
                let req = stream.next_request();
                req.encode_frame(id, out);
                *current = Some((req, id));
                Op::Plan
            }
            Script::Mix(mix) => {
                let phase = mix.step_no % 4;
                mix.step_no += 1;
                match (phase, mix.last) {
                    (1, Some(step)) => {
                        out.extend_from_slice(&mix.sightings.plan_devices_line(step, id));
                        mix.pending = Pending::PlanDevices(step);
                        Op::PlanDevices
                    }
                    (3, _) => {
                        let index = mix.draws.next_index();
                        out.extend_from_slice(&mix.pool.frames[index]);
                        mix.pending = Pending::Plan(index);
                        Op::Plan
                    }
                    _ => {
                        let step = mix.sightings.next_step();
                        out.extend_from_slice(&mix.sightings.observe_line(step));
                        mix.last = Some(step);
                        mix.pending = Pending::Observe(step);
                        Op::Observe
                    }
                }
            }
        }
    }

    /// Checks the reply to the request in flight; returns the served
    /// plan's expected paging per cell, `None` for observes.
    ///
    /// # Errors
    ///
    /// A message describing the wrong or failed answer.
    pub fn check(&mut self, reply: &Reply) -> Result<Option<f64>, String> {
        match self {
            Script::Hit { pool, current, .. } => check_hit(reply, &pool.warm[*current]).map(Some),
            Script::Solve { current, .. } => {
                let (req, id) = current.as_ref().ok_or("no request in flight")?;
                let (_, ep) = check_plan(reply, req, Some(*id))?;
                Ok(Some(ep / req.instance.num_cells() as f64))
            }
            Script::Mix(mix) => match mix.pending {
                Pending::Observe(step) => mix.check_observe(reply, step),
                Pending::PlanDevices(step) => mix.check_plan_devices(reply, step),
                Pending::Plan(index) => check_hit(reply, &mix.pool.warm[index]).map(Some),
            },
        }
    }

    /// Observes this script has had acknowledged.
    #[must_use]
    pub fn observes(&self) -> u64 {
        match self {
            Script::Mix(mix) => mix.observes,
            _ => 0,
        }
    }
}

/// Attempts, failures and the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent and checked.
    pub attempted: u64,
    /// Requests that failed: error or shed reply, transport error,
    /// timeout, or a wrong answer.
    pub failed: u64,
    /// The first failure messages.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one failure.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Adds another tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
        self.failed += other.failed;
    }
}

/// When a client loop stops.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    /// Run at least this long...
    pub duration: Duration,
    /// ...and until this many plans fed `ep_per_cell`...
    pub ep_plans: u64,
    /// ...unless this many requests were sent.
    pub max_requests: Option<u64>,
    /// The CPU the client threads run on, if pinned.
    pub cpu: Option<usize>,
    /// Slice length: the host's CPU counters are sampled at every
    /// slice boundary.
    pub slice: Duration,
}

/// What one client loop measured.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// Latency samples in microseconds, indexed by [`Op`].
    pub latency_us: [Vec<f64>; 3],
    /// When each sample's reply arrived, in seconds since the window
    /// started; parallel to `latency_us`.
    pub done_s: [Vec<f64>; 3],
    /// Attempts and failures.
    pub tally: Tally,
    /// Sum of EP/c over the first `ep_plans` plans.
    pub ep_sum: f64,
    /// Plans summed into `ep_sum`.
    pub ep_plans: u64,
    /// Wall time of the loop.
    pub elapsed: Duration,
    /// One span per request when traced.
    pub spans: Vec<Span>,
}

/// Runs one closed-loop client from `started` until `limit`; with
/// `tracer`, records a span per request.
pub fn run_client(
    script: &mut Script,
    addr: SocketAddr,
    limit: Limit,
    started: Instant,
    mut tracer: Option<Tracer>,
) -> ClientRun {
    let mut run = ClientRun::default();
    if let Some(cpu) = limit.cpu {
        if let Err(e) = crate::procs::pin_to_cpu(0, cpu) {
            run.tally
                .fail(format!("cannot pin the client to cpu {cpu}: {e}"));
        }
    }
    let mut conn = Conn::connect(addr).ok();
    let mut wire = Vec::with_capacity(1 << 16);
    // A run that cannot reach its ep prefix in four times its window
    // stops anyway and reports the shortfall.
    let hard_stop = limit.duration * 4 + Duration::from_secs(5);
    let mut id = 0u64;
    loop {
        let elapsed = started.elapsed();
        let window_done = elapsed >= limit.duration && run.ep_plans >= limit.ep_plans;
        if window_done
            || elapsed >= hard_stop
            || limit.max_requests.is_some_and(|n| run.tally.attempted >= n)
        {
            break;
        }
        id += 1;
        wire.clear();
        let op = script.next(id, &mut wire);
        run.tally.attempted += 1;
        let t0 = Instant::now();
        let reply = match conn.as_mut() {
            Some(c) => c.round_trip(&wire),
            None => Err(std::io::Error::other("not connected")),
        };
        let t1 = Instant::now();
        if let Some(tracer) = tracer.as_mut() {
            tracer.record(op.span_name(), None, id, t0, t1);
        }
        let outcome = reply
            .map_err(|e| {
                // The stream's state is unknown after a transport
                // error: start over on a fresh connection.
                conn = Conn::connect(addr).ok();
                format!("transport: {e}")
            })
            .and_then(|reply| script.check(&reply));
        match outcome {
            Ok(ep) => {
                run.latency_us[op as usize].push((t1 - t0).as_nanos() as f64 / 1e3);
                run.done_s[op as usize].push((t1 - started).as_secs_f64());
                if let Some(ep) = ep {
                    if run.ep_plans < limit.ep_plans {
                        run.ep_sum += ep;
                        run.ep_plans += 1;
                    }
                }
            }
            Err(e) => run.tally.fail(format!("{op:?} {id}: {e}")),
        }
    }
    run.elapsed = started.elapsed();
    if run.ep_plans < limit.ep_plans {
        run.tally.fail(format!(
            "only {} of {} plans for ep_per_cell within the hard stop",
            run.ep_plans, limit.ep_plans
        ));
    }
    run.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    run
}

/// Runs every script on its own thread and connection at once. With
/// `traced = Some((origin, window))`, each request gets a span timed
/// from `origin`; `window` keeps span ids of separate windows apart.
/// Also returns the host's CPU counters ([`procs::cpu_times`]) at the
/// start and at every slice boundary of the window.
pub fn run_window(
    scripts: &mut [Script],
    addr: SocketAddr,
    limit: Limit,
    traced: Option<(Instant, u64)>,
) -> (Vec<ClientRun>, Vec<(u64, u64)>) {
    let started = Instant::now();
    let slice = limit.slice.max(Duration::from_millis(100));
    std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter_mut()
            .enumerate()
            .map(|(k, script)| {
                let tracer = traced.map(|(origin, window)| {
                    Tracer::new(origin, (window << 44) | ((k as u64 + 1) << 40))
                });
                scope.spawn(move || run_client(script, addr, limit, started, tracer))
            })
            .collect();
        // This thread sleeps between slice boundaries, where it reads
        // the host's CPU counters.
        let mut marks = vec![procs::cpu_times()];
        let mut next = started + slice;
        while !handles
            .iter()
            .all(std::thread::ScopedJoinHandle::is_finished)
        {
            let now = Instant::now();
            if now >= next {
                marks.push(procs::cpu_times());
                next += slice;
            } else {
                std::thread::sleep((next - now).min(Duration::from_millis(10)));
            }
        }
        let runs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (runs, marks)
    })
}

/// A slice counts as calm when the hypervisor stole at most this share
/// of the CPU time in it: an idle virtual machine reads 0-3%.
pub const CALM_STEAL: f64 = 0.03;

/// The end-to-end figures of one measured window, cut into slices.
/// Throughput and latency percentiles are medians over the calm
/// slices: those where the hypervisor stole no more CPU than in the
/// median slice, or at most [`CALM_STEAL`]. A neighbour's burst on a
/// shared host then moves neither the figure nor its spread, while a
/// slowdown of the program itself shows in every slice. Steal accrues
/// only while this machine wants to run, so a program that does more
/// work raises it in every slice alike and the ranking still holds.
pub struct Window {
    /// Latency samples per [`Op`], in microseconds.
    pub latency_us: [Vec<f64>; 3],
    /// Reply times per [`Op`], in seconds since the window started.
    pub done_s: [Vec<f64>; 3],
    /// Wall time of the window, in seconds.
    pub elapsed_s: f64,
    /// Mean EP/c over the fixed plan prefix.
    pub ep_per_cell: f64,
    /// Slice length in seconds.
    pub slice_s: f64,
    /// Share of CPU time stolen in each slice, from the window's CPU
    /// counter marks (missing slices read as calm).
    pub steal: Vec<f64>,
}

impl Window {
    fn slices(&self) -> (usize, f64) {
        if self.elapsed_s < self.slice_s {
            (1, self.elapsed_s.max(1e-9))
        } else {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let n = (self.elapsed_s / self.slice_s).floor() as usize;
            (n, self.slice_s)
        }
    }

    fn slice_of(&self, t: f64) -> Option<usize> {
        let (n, len) = self.slices();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let k = (t / len).floor() as usize;
        (k < n).then_some(k)
    }

    /// Whether each slice is calm; never all false.
    #[must_use]
    pub fn calm(&self) -> Vec<bool> {
        let (n, _) = self.slices();
        let steal: Vec<f64> = (0..n)
            .map(|k| self.steal.get(k).copied().unwrap_or(0.0))
            .collect();
        let limit = stats::median(&steal).unwrap_or(0.0).max(CALM_STEAL);
        steal.iter().map(|&s| s <= limit).collect()
    }

    /// Median over calm slices of correct replies per second.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        let (n, len) = self.slices();
        let mut counts = vec![0u64; n];
        for t in self.done_s.iter().flatten() {
            if let Some(k) = self.slice_of(*t) {
                counts[k] += 1;
            }
        }
        let rates: Vec<f64> = counts
            .iter()
            .zip(self.calm())
            .filter(|(_, calm)| *calm)
            .map(|(&c, _)| c as f64 / len)
            .collect();
        stats::median(&rates).unwrap_or(f64::NAN)
    }

    /// Median over calm slices of the per-slice `q`-th percentile of
    /// `op`.
    #[must_use]
    pub fn sliced_percentile(&self, op: Op, q: f64) -> f64 {
        self.sliced(op, |v| stats::percentile(v, q))
    }

    /// Median over calm slices of the per-slice mean latency of `op`.
    #[must_use]
    pub fn sliced_mean(&self, op: Op) -> f64 {
        self.sliced(op, stats::mean)
    }

    /// Median over calm slices of `stat` of each slice's `op` latencies.
    fn sliced(&self, op: Op, stat: impl Fn(&[f64]) -> Option<f64>) -> f64 {
        let (n, _) = self.slices();
        let mut per_slice = vec![Vec::new(); n];
        for (t, us) in self.done_s[op as usize]
            .iter()
            .zip(&self.latency_us[op as usize])
        {
            if let Some(k) = self.slice_of(*t) {
                per_slice[k].push(*us);
            }
        }
        let values: Vec<f64> = per_slice
            .iter()
            .zip(self.calm())
            .filter(|(_, calm)| *calm)
            .filter_map(|(v, _)| stat(v))
            .collect();
        stats::median(&values).unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(elapsed_s: f64, plans: &[(f64, f64)]) -> Window {
        Window {
            latency_us: [plans.iter().map(|p| p.1).collect(), Vec::new(), Vec::new()],
            done_s: [plans.iter().map(|p| p.0).collect(), Vec::new(), Vec::new()],
            elapsed_s,
            ep_per_cell: 0.5,
            slice_s: 2.0,
            steal: Vec::new(),
        }
    }

    #[test]
    fn throughput_is_the_median_slice_rate() {
        // Three 2 s slices with 10, 2 and 6 replies; the tail past the
        // last whole slice is dropped.
        let mut plans = Vec::new();
        plans.extend((0..10).map(|i| (0.1 * f64::from(i), 1.0)));
        plans.extend((0..2).map(|i| (2.5 + 0.1 * f64::from(i), 1.0)));
        plans.extend((0..6).map(|i| (4.2 + 0.1 * f64::from(i), 1.0)));
        plans.push((6.5, 1.0));
        let w = window(6.9, &plans);
        assert_eq!(w.throughput_rps(), 3.0);
    }

    #[test]
    fn a_stalled_slice_moves_neither_the_sliced_percentiles_nor_the_mean() {
        let mut plans: Vec<(f64, f64)> = Vec::new();
        for slice in 0..5 {
            let stall = if slice == 2 { 100.0 } else { 1.0 };
            plans.extend((0..100).map(|i| (2.0 * f64::from(slice) + 0.01 * f64::from(i), stall)));
        }
        let w = window(10.0, &plans);
        assert_eq!(w.sliced_percentile(Op::Plan, 99.0), 1.0);
        assert_eq!(w.sliced_percentile(Op::Plan, 50.0), 1.0);
        assert_eq!(w.sliced_mean(Op::Plan), 1.0);
        let all: Vec<f64> = plans.iter().map(|p| p.1).collect();
        assert_eq!(stats::percentile(&all, 99.0), Some(100.0));
        assert_eq!(stats::mean(&all), Some(20.8));
        // Short windows are one slice.
        let short = window(1.0, &[(0.2, 3.0), (0.4, 5.0)]);
        assert_eq!(short.throughput_rps(), 2.0);
    }

    #[test]
    fn slices_with_more_steal_than_the_median_are_left_out() {
        // Four calm slices at 50 replies of 1 us, four stolen ones at
        // 10 replies of 9 us: the stolen ones are never the median.
        let mut plans: Vec<(f64, f64)> = Vec::new();
        let steal = [0.0, 0.3, 0.01, 0.4, 0.02, 0.35, 0.0, 0.3];
        for (k, &s) in steal.iter().enumerate() {
            let (count, us) = if s > 0.1 { (10, 9.0) } else { (50, 1.0) };
            let start = 2.0 * k as f64;
            plans.extend((0..count).map(|i| (start + 0.01 * f64::from(i), us)));
        }
        let mut w = window(16.0, &plans);
        w.steal = steal.to_vec();
        assert_eq!(
            w.calm(),
            vec![true, false, true, false, true, false, true, false]
        );
        assert_eq!(w.throughput_rps(), 25.0);
        assert_eq!(w.sliced_percentile(Op::Plan, 99.0), 1.0);
        // On a quiet host every slice is calm: the nearest-rank median
        // of four 5/s and four 25/s slices is 5/s.
        w.steal = vec![0.01; 8];
        assert!(w.calm().iter().all(|&c| c));
        assert_eq!(w.throughput_rps(), 5.0);
    }
}
