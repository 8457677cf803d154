//! Chaos testing: random failure bursts against the real engine.
//!
//! For every randomly sampled failure burst, ECCheck must recover
//! bit-exactly when at most `m` nodes failed, and must *refuse* (rather
//! than return wrong data) when more did — across repeated rounds of
//! training, checkpointing, failure and recovery.

use std::collections::BTreeMap;

use ecc_chaos::{run_campaign, CampaignConfig, ChaosConfig, ChaosPlane};
use ecc_cluster::{Cluster, ClusterSpec, FailureModel};
use ecc_dnn::{build_worker_state_dict, ModelConfig, ParallelismSpec, StateDictSpec};
use eccheck::{keys, EcCheck, EcCheckConfig, EcCheckError, SaveMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts every counter in `now` is at least its value in `before`
/// (counters are monotonic: telemetry never un-counts work).
fn assert_counters_monotonic(before: &BTreeMap<String, u64>, now: &BTreeMap<String, u64>) {
    for (name, old) in before {
        let new = now.get(name).copied().unwrap_or(0);
        assert!(new >= *old, "counter {name} decreased: {old} -> {new}");
    }
}

fn dicts(iteration: u64) -> Vec<ecc_checkpoint::StateDict> {
    let model = ModelConfig::gpt2(64, 4, 4).with_vocab(256).with_seq_len(16);
    let par = ParallelismSpec::new(2, 2, 2).unwrap();
    let spec = StateDictSpec { iteration, ..StateDictSpec::new(model, par) };
    (0..8).map(|w| build_worker_state_dict(&spec, w).unwrap()).collect()
}

#[test]
fn random_failure_bursts_never_corrupt_state() {
    let spec = ClusterSpec::tiny_test(4, 2);
    let failure = FailureModel::new(0.35).unwrap();
    let mut outcomes = (0usize, 0usize); // (recovered, refused)

    for trial in 0..20u64 {
        let mut cluster = Cluster::new(spec);
        let mut ecc = EcCheck::initialize(
            &spec,
            EcCheckConfig::paper_defaults().with_packet_size(2048).with_remote_flush_every(0),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(trial);
        let mut current = dicts(0);
        ecc.save(&mut cluster, &current).unwrap();
        let mut bursts_injected = 0u64;
        let mut prev_counters = ecc.recorder().snapshot().counters;

        for round in 1..=4u64 {
            // A failure burst strikes.
            let scenario = failure.sample(4, trial * 1000 + round);
            for &n in scenario.failed() {
                cluster.fail_node(n);
                cluster.replace_node(n);
            }
            bursts_injected += 1;
            match ecc.load(&mut cluster) {
                Ok((restored, report)) => {
                    assert!(
                        scenario.count() <= 2,
                        "trial {trial} round {round}: recovered from {} failures (> m)",
                        scenario.count()
                    );
                    assert_eq!(restored, current, "trial {trial} round {round}");
                    assert_eq!(report.failed_nodes.len(), scenario.count());
                    outcomes.0 += 1;
                }
                Err(EcCheckError::Unrecoverable { .. }) => {
                    assert!(
                        scenario.count() > 2,
                        "trial {trial} round {round}: refused with only {} failures",
                        scenario.count()
                    );
                    outcomes.1 += 1;
                    // A refused recovery still counts as an attempt.
                    assert_eq!(
                        ecc.recorder().snapshot().counter("ecc.load.calls"),
                        bursts_injected
                    );
                    break; // this training run is lost without remote
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
            // Telemetry invariants: every injected burst triggered exactly
            // one recovery attempt, and no counter ever ran backwards.
            let snap = ecc.recorder().snapshot();
            assert_eq!(
                snap.counter("ecc.load.calls"),
                bursts_injected,
                "trial {trial} round {round}: recovery attempts != bursts injected"
            );
            assert_counters_monotonic(&prev_counters, &snap.counters);
            prev_counters = snap.counters;
            // Training continues; sometimes save a new version.
            if rng.gen_bool(0.7) {
                current = dicts(round * 100);
                ecc.save(&mut cluster, &current).unwrap();
            }
        }
    }
    // With p = 0.35 both outcomes must actually occur.
    assert!(outcomes.0 > 5, "too few recoveries: {outcomes:?}");
    assert!(outcomes.1 > 1, "too few refusals: {outcomes:?}");
}

#[test]
fn crash_between_gather_and_restore_is_survivable() {
    let spec = ClusterSpec::tiny_test(4, 2);
    let mut plane = ChaosPlane::new(Cluster::new(spec), ChaosConfig::quiet(7));
    let mut ecc = EcCheck::initialize(
        &spec,
        EcCheckConfig::paper_defaults().with_packet_size(2048).with_remote_flush_every(0),
    )
    .unwrap();
    let current = dicts(1);
    ecc.save(&mut plane, &current).unwrap();

    // The load probes the epoch fence on every node, then gathers one
    // sealed chunk per node and one sealed header per worker (4 + 4 + 8
    // ops on this testbed); 18 storage ops into the load, the engine
    // has gathered everything and is re-seeding node 0 — the
    // fault-tolerant-restore window.
    plane.schedule_crash_at_op(0, plane.op() + 18);
    let (restored, report) = ecc.load(&mut plane).unwrap();
    assert_eq!(restored, current, "mid-load crash corrupted the restored state");
    assert_eq!(report.restore_skipped, vec![0]);

    // The node comes back empty (volatile memory), like a replacement
    // node; the next load treats its missing chunk as an erasure and
    // re-seeds it.
    plane.heal(0);
    let (again, report2) = ecc.load(&mut plane).unwrap();
    assert_eq!(again, current);
    assert!(report2.failed_nodes.contains(&0));
    assert!(report2.restore_skipped.is_empty());
}

/// The Remote workflow regression: with more than `m` nodes lost the
/// load decodes from tier 1, then re-seeds every node — and a node that
/// dies during that re-seeding used to abort the whole load with
/// `NodeDown` even though decode had already succeeded. Sweep the crash
/// of the one surviving node across every storage op of the load
/// (fence probes, gather retries, restore puts): every offset must
/// return the saved state bit-exactly.
#[test]
fn remote_workflow_survives_a_node_dying_mid_restore() {
    let spec = ClusterSpec::tiny_test(4, 2);
    for after in 1..60u64 {
        let mut plane = ChaosPlane::new(Cluster::new(spec), ChaosConfig::quiet(5));
        let mut ecc = EcCheck::initialize(
            &spec,
            EcCheckConfig::paper_defaults().with_packet_size(2048).with_remote_flush_every(1),
        )
        .unwrap();
        // Small shards keep the 59-load sweep fast; the op sequence
        // depends only on the cluster shape, not on the state size.
        let current: Vec<ecc_checkpoint::StateDict> = (0..8)
            .map(|w| {
                let mut sd = ecc_checkpoint::StateDict::new();
                let bytes = vec![(w as u8) ^ (after as u8); 96 + w];
                let t = ecc_checkpoint::Tensor::from_bytes(
                    ecc_checkpoint::DType::U8,
                    &[bytes.len()],
                    bytes,
                )
                .unwrap();
                sd.insert("weights", ecc_checkpoint::Value::Tensor(t));
                sd
            })
            .collect();
        ecc.save(&mut plane, &current).unwrap();
        // Three of four nodes lost (> m = 2): they come back empty.
        for node in [0, 2, 3] {
            plane.crash_now(node);
            plane.heal(node);
        }
        plane.schedule_crash_at_op(1, plane.op() + after);
        let (restored, report) =
            ecc.load(&mut plane).unwrap_or_else(|e| panic!("crash {after} ops in: {e}"));
        plane.cancel_scheduled_crashes();
        assert_eq!(restored, current, "crash {after} ops in");
        assert_eq!(report.workflow, eccheck::RecoveryWorkflow::Remote, "crash {after} ops in");
    }
}

/// Pins the plane calls of a save: every chunk and header is one
/// sealed blob, so a first save puts exactly one chunk, `W` headers,
/// the manifest and the epoch marker per node — `n·(W+3)` puts — on
/// top of the epoch fence's one marker probe per node. A sibling key
/// (say, a separate checksum blob) cannot come back unnoticed.
#[test]
fn first_save_puts_one_blob_per_chunk_header_manifest_and_epoch() {
    let spec = ClusterSpec::tiny_test(4, 2);
    let (n, w) = (spec.nodes() as u64, spec.world_size() as u64);
    for mode in [SaveMode::Sequential, SaveMode::Pipelined] {
        let mut plane = ChaosPlane::new(Cluster::new(spec), ChaosConfig::quiet(1));
        let before = plane.op();
        assert_eq!(keys::committed_epoch(&plane), None);
        let fence = plane.op() - before;
        assert_eq!(fence, n, "the fence probes each alive node once");

        let mut ecc = EcCheck::initialize(
            &spec,
            EcCheckConfig::paper_defaults()
                .with_packet_size(2048)
                .with_remote_flush_every(0)
                .with_save_mode(mode),
        )
        .unwrap();
        let before = plane.op();
        ecc.save(&mut plane, &dicts(0)).unwrap();
        assert_eq!(plane.op() - before - fence, n * (w + 3), "{mode:?}");
        for node in 0..spec.nodes() {
            assert_eq!(plane.inner().local_keys(node).len() as u64, w + 3, "{mode:?} node {node}");
        }
    }
}

#[test]
fn transient_read_outages_are_absorbed_by_bounded_retries() {
    let spec = ClusterSpec::tiny_test(4, 2);
    // Every blob's first read fails once; the engine's bounded retry
    // budget (2) must absorb the outage without declaring any node
    // failed.
    let mut plane =
        ChaosPlane::new(Cluster::new(spec), ChaosConfig::quiet(3).with_transient_get(1.0, 1));
    let mut ecc = EcCheck::initialize(
        &spec,
        EcCheckConfig::paper_defaults()
            .with_packet_size(2048)
            .with_remote_flush_every(0)
            .with_fetch_retries(2),
    )
    .unwrap();
    plane.set_recorder(ecc.recorder().clone());
    let current = dicts(2);
    ecc.save(&mut plane, &current).unwrap();

    let (restored, report) = ecc.load(&mut plane).unwrap();
    assert_eq!(restored, current);
    assert!(report.failed_nodes.is_empty(), "transients misread as failures");
    let snap = ecc.recorder().snapshot();
    assert!(snap.counter("ecc.load.fetch_retries") > 0, "no retry was ever needed?");
    assert!(snap.counter("chaos.fault.transient_get") > 0);
}

#[test]
fn seeded_chaos_campaigns_uphold_recovery_contract() {
    let cfg = CampaignConfig::standard();
    let (mut recovered, mut refused) = (0usize, 0usize);
    for seed in 0..6 {
        let report = run_campaign(&cfg, seed);
        assert!(report.passed(), "seed {seed} violations: {:?}", report.violations);
        recovered += report.recovered();
        refused += report.refused();
    }
    // The matrix must exercise both halves of the contract.
    assert!(recovered > 0, "no campaign round ever recovered");
    assert!(refused > 0, "no campaign round ever refused");
}

#[test]
fn chaos_with_remote_flush_always_recovers() {
    let spec = ClusterSpec::tiny_test(4, 2);
    let failure = FailureModel::new(0.5).unwrap();
    for trial in 0..8u64 {
        let mut cluster = Cluster::new(spec);
        let mut ecc = EcCheck::initialize(
            &spec,
            EcCheckConfig::paper_defaults().with_packet_size(2048).with_remote_flush_every(1),
        )
        .unwrap();
        let current = dicts(trial);
        ecc.save(&mut cluster, &current).unwrap();
        let scenario = failure.sample(4, trial + 99);
        for &n in scenario.failed() {
            cluster.fail_node(n);
            cluster.replace_node(n);
        }
        // With step 4's remote copy, even total cluster loss recovers.
        let (restored, _) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, current, "trial {trial}");
    }
}
