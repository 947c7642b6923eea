//! Cluster failover integration test: a real 3-shard cluster with one
//! warm replica per shard, driven through the router, with the owner
//! of shard 0 SIGKILLed mid-traffic.
//!
//! Proves the deployment-level acked-write guarantee end to end:
//! every observation acked by the router before (or after) the kill is
//! served by the promoted replica with the owner's exact version
//! numbering — no acked sighting lost, no version regression — and all
//! surviving nodes converge on the router's bumped membership epoch.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use conference_call::cluster::ring::ShardMap;
use conference_call::cluster::router::RouterConfig;
use conference_call::cluster::{Cluster, HarnessConfig, Topology};
use jsonio::Value;

const CELLS: usize = 6;
const DEVICES: usize = 30;

fn observe_line(sightings: &[(String, usize, f64)]) -> String {
    let body: Vec<String> = sightings
        .iter()
        .map(|(device, cell, time)| {
            format!(r#"{{"device": "{device}", "cell": {cell}, "time": {time}}}"#)
        })
        .collect();
    format!(
        r#"{{"cmd": "observe", "cells": {CELLS}, "sightings": [{}]}}"#,
        body.join(", ")
    )
}

/// Sends one observe through the router, retrying while the cluster
/// fails over, and returns the acked `device -> version` pairs.
fn observe_acked(
    cluster: &conference_call::cluster::Cluster,
    sightings: &[(String, usize, f64)],
) -> Vec<(String, u64)> {
    let line = observe_line(sightings);
    for _ in 0..20 {
        let response = cluster.request(&line);
        if response.get("ok").and_then(Value::as_bool) == Some(true) {
            return response
                .get("versions")
                .and_then(Value::as_object)
                .expect("versions map")
                .iter()
                .map(|(d, v)| (d.clone(), v.as_u64().expect("integer version")))
                .collect();
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("observe never acked: {line}");
}

#[test]
fn sigkill_owner_fails_over_without_losing_acked_observations() {
    let data_root =
        std::env::temp_dir().join(format!("pager-cluster-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_root);
    let topology = Topology {
        shards: 3,
        replicas: 1,
        vnodes: 64,
        workers: 2,
        queue_depth: 256,
        wal_retain: 8,
        checkpoint_every: 0,
        chaos: None,
    };
    let config = HarnessConfig {
        pager_serve: PathBuf::from(env!("CARGO_BIN_EXE_pager-serve")),
        data_root: data_root.clone(),
        topology: topology.clone(),
        router: RouterConfig::default(),
    };
    let mut cluster = Cluster::launch(&config).expect("launch 3x2 cluster");

    // The ring is deterministic, so the test can compute each device's
    // shard the same way the router does.
    let map = ShardMap::new(&topology.shard_names(), topology.vnodes, 0);
    let devices: Vec<String> = (0..DEVICES).map(|i| format!("device-{i}")).collect();
    let mut per_shard = [0usize; 3];
    for d in &devices {
        per_shard[map.owner_index(d).expect("owner")] += 1;
    }
    assert!(
        per_shard.iter().all(|&n| n > 0),
        "every shard must own some devices: {per_shard:?}"
    );

    // Preload: three acked rounds across all devices, versions recorded.
    let mut acked: HashMap<String, u64> = HashMap::new();
    for round in 0..3usize {
        for chunk in devices.chunks(6) {
            let batch: Vec<(String, usize, f64)> = chunk
                .iter()
                .enumerate()
                .map(|(i, d)| (d.clone(), (i + round) % CELLS, round as f64 + 1.0))
                .collect();
            for (device, version) in observe_acked(&cluster, &batch) {
                acked.insert(device, version);
            }
        }
    }
    assert_eq!(acked.len(), DEVICES);

    // Keep traffic flowing while the owner of shard 0 dies. The writer
    // thread retries through the failover and records its own acks.
    let router = Arc::clone(&cluster.router);
    let writer = std::thread::spawn(move || {
        let mut acks: Vec<(String, u64)> = Vec::new();
        for i in 0..40usize {
            let device = format!("device-{}", i % DEVICES);
            let line = observe_line(&[(device, i % CELLS, 100.0 + i as f64)]);
            for _ in 0..20 {
                let outcome = router.handle_line(&line);
                let response = jsonio::parse(&outcome.response).expect("response JSON");
                if response.get("ok").and_then(Value::as_bool) == Some(true) {
                    let versions = response
                        .get("versions")
                        .and_then(Value::as_object)
                        .expect("versions map");
                    acks.extend(
                        versions
                            .iter()
                            .map(|(d, v)| (d.clone(), v.as_u64().expect("version"))),
                    );
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        acks
    });
    std::thread::sleep(Duration::from_millis(100));
    let killed = cluster.kill_owner(0).expect("kill shard-0 owner");
    assert_eq!(killed, "shard-0.r0", "initial owner of shard 0");
    for (device, version) in writer.join().expect("writer thread") {
        let entry = acked.entry(device).or_insert(0);
        *entry = (*entry).max(version);
    }

    // Every acked observation survives on the promoted replica, with
    // the owner's version numbering (>= covers re-observes since).
    for device in &devices {
        let line = format!(
            r#"{{"cmd": "plan_devices", "id": 1, "devices": ["{device}"], "delay": 2, "estimator": "empirical", "deadline_ms": 3000}}"#
        );
        let response = cluster.request(&line);
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "post-failover plan failed for {device}: {response}"
        );
        let version = response
            .get("profile_versions")
            .and_then(Value::as_array)
            .and_then(|v| v.first())
            .and_then(Value::as_u64)
            .expect("profile version");
        assert!(
            version >= acked[device],
            "{device}: version regressed to {version} after acking {}",
            acked[device]
        );
        if map.owner(device) == Some("shard-0") {
            assert_eq!(
                response.get("node").and_then(Value::as_str),
                Some("shard-0.r1"),
                "shard-0 reads must come from the promoted replica: {response}"
            );
            assert_eq!(
                response.get("shard").and_then(Value::as_str),
                Some("shard-0"),
                "router must stamp the serving shard: {response}"
            );
        }
    }

    // Writes stay monotone across the failover.
    for device in devices.iter().take(6) {
        let bump = observe_acked(&cluster, &[(device.clone(), 0, 500.0)]);
        assert!(
            bump[0].1 > acked[device],
            "{device}: post-failover version {} not past acked {}",
            bump[0].1,
            acked[device]
        );
    }

    // The failover bumped the epoch, and every survivor agrees on it.
    let info = cluster.request("{\"cmd\": \"node_info\"}");
    let epoch = info
        .get("epoch")
        .and_then(Value::as_u64)
        .expect("router epoch");
    assert!(epoch >= 1, "failover must bump the epoch: {info}");
    for node in 1..topology.nodes() {
        let survivor = cluster.node_info(node).expect("survivor node_info");
        assert_eq!(
            survivor.get("epoch").and_then(Value::as_u64),
            Some(epoch),
            "node {node} disagrees on the epoch: {survivor}"
        );
        assert_eq!(
            survivor.get("degraded").and_then(Value::as_bool),
            Some(false),
            "survivor must be healthy: {survivor}"
        );
    }

    // The stats op records the failover and the shipping volume.
    let stats = cluster.request("{\"cmd\": \"stats\"}");
    let failovers = stats
        .get("router")
        .and_then(|r| r.get("failovers"))
        .and_then(Value::as_u64)
        .expect("failovers counter");
    assert!(failovers >= 1, "router must count the failover: {stats}");
    let shipped = stats
        .get("router")
        .and_then(|r| r.get("shipped_records"))
        .and_then(Value::as_u64)
        .expect("shipped counter");
    assert!(
        shipped > 0,
        "replication must have shipped WAL records: {stats}"
    );

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&data_root);
}
