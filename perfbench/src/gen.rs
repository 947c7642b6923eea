//! Seeded request generators for the three workloads.
//!
//! Every stream is a pure function of `(seed, stream id)`, so the same
//! seed always sends the same requests; the servers never see the
//! seed, only the requests.

use jsonio::Value;
use pager_core::{Delay, Instance};
use pager_profiles::{Estimator, Sighting};
use pager_wire::{binary, Codec, JsonCodec, PlanSpec, Request, Variant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{DistributionFamily, InstanceGenerator};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One node, one connection, cache-hit plans from a small pool.
    NodeHit,
    /// One node, two connections, never-repeated plans (all misses).
    NodeSolve,
    /// A 3-shard cluster, one connection, observe/plan_devices/plan.
    ClusterMix,
}

impl Workload {
    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// A message naming the unknown workload.
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "node-hit" => Ok(Workload::NodeHit),
            "node-solve" => Ok(Workload::NodeSolve),
            "cluster-mix" => Ok(Workload::ClusterMix),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::NodeHit => "node-hit",
            Workload::NodeSolve => "node-solve",
            Workload::ClusterMix => "cluster-mix",
        }
    }

    /// Length in seconds of the slices its windows are cut into: short
    /// enough for several slices per run, long enough that every slice
    /// holds over a thousand plans, so ten samples lie beyond each
    /// slice's p99. `cluster-mix` sends about 250 plans a second.
    #[must_use]
    pub fn slice_s(self) -> f64 {
        match self {
            Workload::NodeHit => 1.0,
            Workload::NodeSolve => 2.0,
            Workload::ClusterMix => 5.0,
        }
    }

    /// Whether the client and every server process are pinned to one
    /// shared core. With one connection in a closed loop, request and
    /// reply alternate and never run in parallel, so one core loses
    /// nothing; pinning removes cross-core wake-ups, whose cost on a
    /// virtual machine swings from run to run, and keeps the scheduler
    /// from placing the ping-pong on one core in some runs and on two
    /// in others (a 2x swing in `node-hit`'s p50). On `cluster-mix` a
    /// request crosses the client, the router, a shard and, for an
    /// observe, its replica; unpinned, these seven processes' wake-ups
    /// spread the plan p99 over 2-3x from run to run.
    #[must_use]
    pub fn shares_one_core(self) -> bool {
        matches!(self, Workload::NodeHit | Workload::ClusterMix)
    }
}

/// A seeded RNG for stream `stream` of `seed` (splitmix64 mixing, so
/// neighbouring seeds and streams give unrelated sequences).
#[must_use]
pub fn rng(seed: u64, stream: u64) -> StdRng {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// One matrix plan request.
#[derive(Debug, Clone)]
pub struct PlanReq {
    /// The instance to plan.
    pub instance: Instance,
    /// The round budget.
    pub delay: usize,
    /// `Auto`, or `Bandwidth(cap)` with a feasible cap.
    pub variant: Variant,
}

impl PlanReq {
    /// The wire spec of this request.
    ///
    /// # Panics
    ///
    /// Never: generated delays are positive.
    #[must_use]
    pub fn spec(&self) -> PlanSpec {
        PlanSpec::new(Delay::new(self.delay).expect("generated delays are positive"))
            .with_variant(self.variant)
    }

    /// Appends the v2 `PLAN` frame carrying `id` to `out`.
    pub fn encode_frame(&self, id: u64, out: &mut Vec<u8>) {
        let id = Value::Int(i64::try_from(id).unwrap_or(i64::MAX));
        if !binary::encode_plan_request(out, &id, &self.instance, &self.spec()) {
            JsonCodec.encode_request(
                &Request::Plan {
                    id,
                    instance: self.instance.clone(),
                    spec: self.spec(),
                },
                out,
            );
        }
    }

    /// The v2 `PLAN` frame carrying `id`.
    #[must_use]
    pub fn frame(&self, id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_frame(id, &mut out);
        out
    }

    /// The same request as a v1 line (with its trailing newline).
    #[must_use]
    pub fn encode_line(&self, id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        JsonCodec.encode_request(
            &Request::Plan {
                id: Value::Int(i64::try_from(id).unwrap_or(i64::MAX)),
                instance: self.instance.clone(),
                spec: self.spec(),
            },
            &mut out,
        );
        out
    }

    /// The bandwidth cap the request carries, if any.
    #[must_use]
    pub fn cap(&self) -> Option<usize> {
        match self.variant {
            Variant::Bandwidth(cap) => Some(cap),
            _ => None,
        }
    }
}

/// Size of the `node-hit` pool: far below the node's 4,096-entry
/// strategy cache, so every measured plan is a hit.
pub const HIT_POOL: usize = 512;
/// Size of the `cluster-mix` plan pool.
pub const MIX_POOL: usize = 64;

fn dirichlet_pool(seed: u64, stream: u64, n: usize, cells: (usize, usize)) -> Vec<PlanReq> {
    let mut r = rng(seed, stream);
    let generator = InstanceGenerator::new(DistributionFamily::Dirichlet);
    (0..n)
        .map(|_| {
            let c = r.gen_range(cells.0..=cells.1);
            let m = r.gen_range(2..=4usize);
            let delay = r.gen_range(2..=4usize);
            PlanReq {
                instance: generator.generate(m, c, &mut r),
                delay,
                variant: Variant::Auto,
            }
        })
        .collect()
}

/// The `node-hit` pool: Dirichlet rows, c 8–64, m 2–4, d 2–4.
#[must_use]
pub fn hit_pool(seed: u64) -> Vec<PlanReq> {
    dirichlet_pool(seed, 1, HIT_POOL, (8, 64))
}

/// The `cluster-mix` plan pool: Dirichlet rows, c 8–32, m 2–4, d 2–4.
#[must_use]
pub fn mix_pool(seed: u64) -> Vec<PlanReq> {
    dirichlet_pool(seed, 2, MIX_POOL, (8, 32))
}

/// Index stream over a pool of `n` entries for client `client`.
#[derive(Debug)]
pub struct PoolDraws {
    rng: StdRng,
    n: usize,
}

impl PoolDraws {
    /// Uniform draws over `0..n`.
    #[must_use]
    pub fn new(seed: u64, client: usize, n: usize) -> PoolDraws {
        PoolDraws {
            rng: rng(seed, 100 + client as u64),
            n,
        }
    }

    /// The next pool index.
    pub fn next_index(&mut self) -> usize {
        self.rng.gen_range(0..self.n)
    }
}

/// The `node-solve` stream of client `client`: never-repeated
/// instances, c log-uniform in 16–1024, m 2–8, d 2–16, families
/// mixed, about one request in eight capped by a feasible bandwidth.
#[derive(Debug)]
pub struct SolveStream {
    rng: StdRng,
}

impl SolveStream {
    /// Stream `client` of `seed`.
    #[must_use]
    pub fn new(seed: u64, client: u64) -> SolveStream {
        SolveStream {
            rng: rng(seed, 200 + client),
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> PlanReq {
        let r = &mut self.rng;
        let family = DistributionFamily::ALL[r.gen_range(0..DistributionFamily::ALL.len())];
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let c = (16.0 * 64f64.powf(r.gen::<f64>()))
            .round()
            .clamp(16.0, 1024.0) as usize;
        let m = r.gen_range(2..=8usize);
        let delay = r.gen_range(2..=16usize);
        let variant = if r.gen_range(0..8u32) == 0 {
            let min_cap = c.div_ceil(delay);
            Variant::Bandwidth(min_cap + r.gen_range(0..=min_cap / 2))
        } else {
            Variant::Auto
        };
        PlanReq {
            instance: InstanceGenerator::new(family).generate(m, c, r),
            delay,
            variant,
        }
    }
}

/// Cells of every `cluster-mix` device profile.
pub const MIX_CELLS: usize = 8;
/// Round budget of `cluster-mix` `plan_devices` requests.
pub const MIX_DELAY: usize = 2;
/// Devices each `cluster-mix` client owns.
pub const DEVICES_PER_CLIENT: usize = 2048;

/// One `cluster-mix` sighting: device index, cell, time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Index into the client's devices.
    pub device: usize,
    /// The sighted cell.
    pub cell: usize,
    /// The sighting time, strictly increasing per device.
    pub time: f64,
}

/// The `cluster-mix` sighting stream of one client: thousands of
/// devices, each moving over its own hotspot distribution, with
/// per-device monotone integer times.
#[derive(Debug)]
pub struct Sightings {
    rng: StdRng,
    prefix: String,
    homes: Vec<Vec<f64>>,
    clock: Vec<f64>,
}

impl Sightings {
    /// Stream `client` of `seed`.
    #[must_use]
    pub fn new(seed: u64, client: u64) -> Sightings {
        let mut r = rng(seed, 300 + client);
        let generator = InstanceGenerator::new(DistributionFamily::Hotspot);
        let homes = (0..DEVICES_PER_CLIENT)
            .map(|_| generator.generate_row(MIX_CELLS, &mut r))
            .collect();
        let clock = (0..DEVICES_PER_CLIENT)
            .map(|_| f64::from(r.gen_range(1..=100u32)))
            .collect();
        Sightings {
            rng: r,
            prefix: format!("s{seed}-c{client}-"),
            homes,
            clock,
        }
    }

    /// The wire name of device `i`.
    #[must_use]
    pub fn device_name(&self, i: usize) -> String {
        format!("{}{i:04}", self.prefix)
    }

    /// The next sighting.
    pub fn next_step(&mut self) -> Step {
        let device = self.rng.gen_range(0..DEVICES_PER_CLIENT);
        let u: f64 = self.rng.gen();
        let row = &self.homes[device];
        let mut acc = 0.0;
        let mut cell = row.len() - 1;
        for (j, p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                cell = j;
                break;
            }
        }
        self.clock[device] += f64::from(self.rng.gen_range(1..=30u32));
        Step {
            device,
            cell,
            time: self.clock[device],
        }
    }

    /// The step as a wire sighting.
    #[must_use]
    pub fn sighting(&self, step: Step) -> Sighting {
        Sighting {
            device: self.device_name(step.device),
            cell: step.cell,
            time: step.time,
        }
    }

    /// The v1 `observe` line for one sighting.
    #[must_use]
    pub fn observe_line(&self, step: Step) -> Vec<u8> {
        let mut out = Vec::new();
        JsonCodec.encode_request(
            &Request::Observe {
                cells: MIX_CELLS,
                sightings: vec![self.sighting(step)],
            },
            &mut out,
        );
        out
    }

    /// The v1 `plan_devices` line for the device of `step`, evaluated
    /// at the sighting's own time so the served instance does not
    /// depend on what other clients sent.
    ///
    /// # Panics
    ///
    /// Never: the delay is a positive constant.
    #[must_use]
    pub fn plan_devices_line(&self, step: Step, id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        JsonCodec.encode_request(
            &Request::PlanDevices {
                id: Value::Int(i64::try_from(id).unwrap_or(i64::MAX)),
                devices: vec![self.device_name(step.device)],
                estimator: Estimator::Markov,
                now: Some(step.time),
                spec: PlanSpec::new(Delay::new(MIX_DELAY).expect("positive delay")),
            },
            &mut out,
        );
        out
    }
}

/// Single-device, 8-cell instances: the shape of `cluster-mix`'s
/// `plan_devices` requests, for timing the exact tier.
#[must_use]
pub fn exact_shapes(seed: u64, n: usize) -> Vec<Instance> {
    let mut r = rng(seed, 400);
    let generator = InstanceGenerator::new(DistributionFamily::Hotspot);
    (0..n)
        .map(|_| generator.generate(1, MIX_CELLS, &mut r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(reqs: &[PlanReq]) -> Vec<Vec<u8>> {
        reqs.iter()
            .enumerate()
            .map(|(i, r)| r.frame(i as u64))
            .collect()
    }

    #[test]
    fn generators_repeat_for_one_seed() {
        assert_eq!(frames(&hit_pool(7)), frames(&hit_pool(7)));
        assert_eq!(frames(&mix_pool(7)), frames(&mix_pool(7)));
        let (mut a, mut b) = (SolveStream::new(7, 0), SolveStream::new(7, 0));
        let a: Vec<PlanReq> = (0..20).map(|_| a.next_request()).collect();
        let b: Vec<PlanReq> = (0..20).map(|_| b.next_request()).collect();
        assert_eq!(frames(&a), frames(&b));
        let (mut a, mut b) = (Sightings::new(7, 1), Sightings::new(7, 1));
        for _ in 0..50 {
            let (x, y) = (a.next_step(), b.next_step());
            assert_eq!(x, y);
            assert_eq!(a.observe_line(x), b.observe_line(y));
        }
        let (mut a, mut b) = (PoolDraws::new(7, 0, 512), PoolDraws::new(7, 0, 512));
        assert!((0..100).all(|_| a.next_index() == b.next_index()));
        assert_eq!(exact_shapes(7, 5), exact_shapes(7, 5));
    }

    #[test]
    fn generators_differ_across_seeds_and_clients() {
        assert_ne!(frames(&hit_pool(7)), frames(&hit_pool(8)));
        assert_ne!(frames(&mix_pool(7)), frames(&mix_pool(8)));
        let first = |seed, client| SolveStream::new(seed, client).next_request();
        assert_ne!(frames(&[first(7, 0)]), frames(&[first(8, 0)]));
        assert_ne!(frames(&[first(7, 0)]), frames(&[first(7, 1)]));
        let steps = |seed, client| {
            let mut s = Sightings::new(seed, client);
            (0..20).map(|_| s.next_step()).collect::<Vec<_>>()
        };
        assert_ne!(steps(7, 0), steps(8, 0));
        assert_ne!(steps(7, 0), steps(7, 1));
        assert_ne!(
            Sightings::new(7, 0).device_name(0),
            Sightings::new(7, 1).device_name(0)
        );
    }

    #[test]
    fn generated_requests_have_the_documented_shapes() {
        for r in hit_pool(3) {
            let c = r.instance.num_cells();
            assert!((8..=64).contains(&c) && (2..=4).contains(&r.delay));
        }
        let mut s = SolveStream::new(3, 0);
        let reqs: Vec<PlanReq> = (0..400).map(|_| s.next_request()).collect();
        assert!(reqs
            .iter()
            .all(|r| (16..=1024).contains(&r.instance.num_cells())));
        let capped = reqs.iter().filter(|r| r.cap().is_some()).count();
        assert!((20..=80).contains(&capped), "{capped} of 400 capped");
        for r in reqs.iter().filter(|r| r.cap().is_some()) {
            let cap = r.cap().unwrap_or(0);
            assert!(cap * r.delay >= r.instance.num_cells(), "infeasible cap");
        }
        let mut sightings = Sightings::new(3, 0);
        let mut last = vec![0.0; DEVICES_PER_CLIENT];
        for _ in 0..5000 {
            let step = sightings.next_step();
            assert!(step.time > last[step.device] && step.cell < MIX_CELLS);
            last[step.device] = step.time;
        }
    }
}
