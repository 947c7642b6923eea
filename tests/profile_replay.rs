//! End-to-end acceptance: sightings → profiles → plans → simulation.
//!
//! Drives `cellnet` mobility through the profile store and the full
//! serving stack, then checks the realised paging cost against the
//! Lemma 2.1 expectation of the served strategies — the closed loop
//! the profile subsystem exists for.

use cellnet::mobility::{MobilityModel, RandomWalk};
use cellnet::Topology;
use conference_call::profiles::{replay, Estimator, ReplayConfig, Step};
use conference_call::service::{PagerService, PlanSpec, ServiceConfig};
use pager_core::Delay;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ground truth: random walks over a topology, one step per time unit.
fn walk_truth(
    topology: &Topology,
    devices: usize,
    steps: usize,
    stay: f64,
    seed: u64,
) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut models: Vec<RandomWalk> = (0..devices).map(|_| RandomWalk::new(stay)).collect();
    let mut positions: Vec<usize> = (0..devices)
        .map(|d| (d * topology.num_cells()) / devices)
        .collect();
    (0..steps)
        .map(|i| {
            for (d, model) in models.iter_mut().enumerate() {
                positions[d] = model.next_cell(positions[d], topology, &mut rng);
            }
            Step {
                time: i as f64,
                cells: positions.clone(),
            }
        })
        .collect()
}

/// With a long empirical history the profile rows converge to the
/// walk's true occupancy distribution, and the true placements at call
/// time are draws from (nearly) that same distribution — so the mean
/// realised paging must match the Lemma 2.1 expectation of the served
/// strategies. Tolerance: ±25% on the ratio.
#[test]
fn realized_paging_matches_lemma_2_1_expectation() {
    let topology = Topology::grid(3, 3);
    let cells = topology.num_cells();
    let truth = walk_truth(&topology, 3, 900, 0.3, 7);
    let service = PagerService::new(ServiceConfig::default());
    let spec = PlanSpec::new(Delay::new(3).unwrap());
    let config = ReplayConfig {
        estimator: Estimator::Empirical,
        observe_every: 1,
        call_every: 11,
        warmup: 300,
    };
    let report = replay(service.profiles(), cells, &truth, &config, |instance| {
        service
            .plan(instance, spec)
            .map(|r| r.plan.strategy.clone())
            .map_err(|e| e.to_string())
    })
    .unwrap();
    assert!(report.calls.len() >= 50, "want a meaningful sample");
    let ratio = report.realized_over_expected();
    assert!(
        (0.75..=1.25).contains(&ratio),
        "realized {} vs expected {} (ratio {ratio})",
        report.mean_realized_paging(),
        report.mean_expected_paging()
    );
    // Plans built from profiles still beat blanket paging.
    assert!(report.mean_realized_paging() < cells as f64);
    service.shutdown();
}

/// Profile versions make cached strategies safe to reuse *and*
/// impossible to serve stale: calls between observations share one
/// cache entry, and every new sighting forces a fresh plan.
#[test]
fn replay_cache_reuse_follows_profile_versions() {
    let topology = Topology::line(5);
    let mut config = ServiceConfig::default();
    // Freeze staleness so distributions depend only on the profile
    // contents, not the query clock — identical requests between
    // observations then key the same cache slot.
    config.profiles.profile.staleness_half_life = f64::INFINITY;
    let service = PagerService::new(config);
    let truth = walk_truth(&topology, 2, 201, 0.4, 11);
    let replay_config = ReplayConfig {
        estimator: Estimator::Empirical,
        observe_every: 100, // sightings at steps 0, 100, 200
        call_every: 10,
        warmup: 5,
    };
    let spec = PlanSpec::new(Delay::new(2).unwrap());
    let report = replay(
        service.profiles(),
        topology.num_cells(),
        &truth,
        &replay_config,
        |instance| {
            service
                .plan(instance, spec)
                .map(|r| r.plan.strategy.clone())
                .map_err(|e| e.to_string())
        },
    )
    .unwrap();
    // Calls at 10..90 share the versions of the step-0 sightings; the
    // observation at step 100 bumps them for the later calls.
    let early = &report.calls[0];
    let later = report
        .calls
        .iter()
        .find(|c| c.step >= 100)
        .expect("calls after the second observation");
    assert_eq!(
        early.versions, report.calls[1].versions,
        "no sighting between the first two calls"
    );
    assert!(later.versions[0] > early.versions[0], "versions bumped");
    let m = service.metrics();
    assert!(
        m.cache_hits.get() >= 8,
        "identical-version calls reuse the cached strategy (hits: {})",
        m.cache_hits.get()
    );
    assert!(
        m.cache_misses.get() >= 2,
        "each observation forces at least one fresh plan"
    );
    service.shutdown();
}
