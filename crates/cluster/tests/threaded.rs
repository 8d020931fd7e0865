//! Serial vs. threaded admission must be indistinguishable: under a fixed
//! seed both modes commit the same jobs to the same nodes with the same
//! partitions and spend the same number of observation windows. The job
//! stream deliberately mixes light and heavy jobs so some submissions are
//! rejected outright and others probe several nodes before landing —
//! exactly the paths where a naive parallelization would diverge.

use std::sync::Arc;

use clite_cluster::placement::PlacementPolicy;
use clite_cluster::scheduler::{AdmissionMode, ClusterScheduler, SchedulerConfig};
use clite_sim::prelude::*;
use clite_store::{ShardPolicy, ShardedStore};

/// A deterministic non-zero ranking model, so the learned policy's
/// byte-identity is tested with weights that actually reorder candidates.
fn test_model() -> Arc<clite_learn::RankingModel> {
    let mut model = clite_learn::RankingModel::zeroed();
    for (i, w) in model.weights.iter_mut().enumerate() {
        *w = (i as f64 - 6.0) * 0.05;
    }
    model.epochs = 1;
    Arc::new(model)
}

fn job_stream() -> Vec<JobSpec> {
    vec![
        JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
        JobSpec::latency_critical(WorkloadId::ImgDnn, 0.8),
        JobSpec::background(WorkloadId::Streamcluster),
        JobSpec::latency_critical(WorkloadId::Masstree, 0.8),
        JobSpec::latency_critical(WorkloadId::Specjbb, 0.9),
        JobSpec::latency_critical(WorkloadId::Memcached, 0.7),
    ]
}

/// Runs the stream through a fresh cluster and returns the placement
/// sequence (`None` = rejected) plus the final fleet statistics.
fn run(
    mode: AdmissionMode,
    placement: PlacementPolicy,
    seed: u64,
) -> (Vec<Option<usize>>, clite_cluster::stats::ClusterStats) {
    let config = SchedulerConfig { placement, admission: mode, ..SchedulerConfig::default() };
    let mut cluster = ClusterScheduler::new(2, config, seed).expect("2-node cluster");
    let placements: Vec<Option<usize>> = job_stream()
        .into_iter()
        .map(|spec| cluster.submit(spec).expect("submit").map(|p| p.node))
        .collect();
    (placements, cluster.stats())
}

#[test]
fn threaded_admission_matches_serial_placements_and_stats() {
    for placement in [
        PlacementPolicy::FirstFit,
        PlacementPolicy::LeastLoaded,
        PlacementPolicy::MostLoaded,
        PlacementPolicy::Learned { model: test_model() },
    ] {
        let (serial_placements, serial_stats) = run(AdmissionMode::Serial, placement.clone(), 42);
        let (threaded_placements, threaded_stats) =
            run(AdmissionMode::Threaded, placement.clone(), 42);
        assert_eq!(
            serial_placements,
            threaded_placements,
            "{} placements diverged between serial and threaded admission",
            placement.name()
        );
        assert_eq!(
            serial_stats,
            threaded_stats,
            "{} fleet statistics diverged between serial and threaded admission",
            placement.name()
        );
    }
}

#[test]
fn threaded_admission_is_self_deterministic() {
    let (a_placements, a_stats) = run(AdmissionMode::Threaded, PlacementPolicy::LeastLoaded, 7);
    let (b_placements, b_stats) = run(AdmissionMode::Threaded, PlacementPolicy::LeastLoaded, 7);
    assert_eq!(a_placements, b_placements);
    assert_eq!(a_stats, b_stats);
}

/// Like [`run`] but with one shared observation store across the fleet.
fn run_with_store(
    mode: AdmissionMode,
    placement: PlacementPolicy,
    seed: u64,
) -> (Vec<Option<usize>>, clite_cluster::stats::ClusterStats, u64) {
    let config = SchedulerConfig { placement, admission: mode, ..SchedulerConfig::default() };
    let store = ShardedStore::in_memory(ShardPolicy::with_shards(1));
    let mut cluster = ClusterScheduler::new(2, config, seed)
        .expect("2-node cluster")
        .with_store(Arc::clone(&store));
    let placements: Vec<Option<usize>> = job_stream()
        .into_iter()
        .map(|spec| cluster.submit(spec).expect("submit").map(|p| p.node))
        .collect();
    let appends = store.stats().appends;
    (placements, cluster.stats(), appends)
}

#[test]
fn store_backed_admission_keeps_serial_threaded_equivalence() {
    // Probes read the store; appends happen only at commit — so a shared
    // store must not break the serial ≡ threaded placement guarantee, and
    // both modes must append the same committed samples.
    let (serial_placements, serial_stats, serial_appends) =
        run_with_store(AdmissionMode::Serial, PlacementPolicy::LeastLoaded, 42);
    let (threaded_placements, threaded_stats, threaded_appends) =
        run_with_store(AdmissionMode::Threaded, PlacementPolicy::LeastLoaded, 42);
    assert_eq!(serial_placements, threaded_placements);
    assert_eq!(serial_stats, threaded_stats);
    assert_eq!(serial_appends, threaded_appends);
    assert!(serial_appends > 0, "committed searches must reach the store");
}

#[test]
fn store_backed_admission_matches_storeless_placements() {
    // Warm starts change how fast searches converge, never which
    // placements are feasible: the committed fleet must match the
    // storeless run's.
    let (plain, _) = run(AdmissionMode::Serial, PlacementPolicy::LeastLoaded, 42);
    let (stored, _, _) = run_with_store(AdmissionMode::Serial, PlacementPolicy::LeastLoaded, 42);
    assert_eq!(plain, stored);
}

/// Like [`run`] but with fault injection on every node's testbeds: each
/// probe's fault stream is seeded by the build seed — a pure function of
/// `(node id, commit count)` — so both admission modes must see identical
/// crashes, evict identical nodes, and re-place the orphaned jobs
/// identically.
fn run_with_faults(
    mode: AdmissionMode,
    placement: PlacementPolicy,
    seed: u64,
    spec: clite_faults::FaultSpec,
) -> (Vec<Option<usize>>, clite_cluster::stats::ClusterStats) {
    use clite_faults::FaultyFactory;
    use clite_sim::testbed::ServerFactory;

    let config = SchedulerConfig { placement, admission: mode, ..SchedulerConfig::default() };
    let factory = FaultyFactory::new(ServerFactory, spec);
    let mut cluster =
        ClusterScheduler::with_factory(3, config, seed, factory).expect("3-node cluster");
    let placements: Vec<Option<usize>> = job_stream()
        .into_iter()
        .map(|spec| cluster.submit(spec).expect("submit survives crashes").map(|p| p.node))
        .collect();
    (placements, cluster.stats())
}

#[test]
fn node_crashes_keep_serial_threaded_equivalence() {
    // Crashes early enough (windows 1..=20) to hit mid-search, often
    // enough (50%) that several probes die across the stream.
    let spec = clite_faults::FaultSpec {
        crash_prob: 0.5,
        crash_window_max: 20,
        ..clite_faults::FaultSpec::none()
    };
    let (serial_placements, serial_stats) =
        run_with_faults(AdmissionMode::Serial, PlacementPolicy::LeastLoaded, 42, spec.clone());
    let (threaded_placements, threaded_stats) =
        run_with_faults(AdmissionMode::Threaded, PlacementPolicy::LeastLoaded, 42, spec);
    assert_eq!(
        serial_placements, threaded_placements,
        "placements diverged between serial and threaded admission under crashes"
    );
    assert_eq!(
        serial_stats, threaded_stats,
        "fleet statistics diverged between serial and threaded admission under crashes"
    );
    assert!(
        serial_stats.dead_nodes >= 1,
        "the fault spec must actually kill a node, or this test proves nothing"
    );
    // Dead nodes host nothing; live committed nodes still meet QoS.
    for n in serial_stats.nodes.iter().filter(|n| !n.alive) {
        assert_eq!(n.jobs, 0, "evicted node {} still hosts jobs", n.node);
    }
}

#[test]
fn learned_policy_keeps_serial_threaded_equivalence_under_crashes() {
    // The learned scorer reads committed state (stats, traces, headroom),
    // all of which the byte-identity discipline already pins — so the
    // model-ordered fleet must stay identical across admission modes even
    // while nodes crash and orphans re-home.
    let spec = clite_faults::FaultSpec {
        crash_prob: 0.5,
        crash_window_max: 20,
        ..clite_faults::FaultSpec::none()
    };
    let policy = PlacementPolicy::Learned { model: test_model() };
    let (serial_placements, serial_stats) =
        run_with_faults(AdmissionMode::Serial, policy.clone(), 42, spec.clone());
    let (threaded_placements, threaded_stats) =
        run_with_faults(AdmissionMode::Threaded, policy, 42, spec);
    assert_eq!(
        serial_placements, threaded_placements,
        "learned placements diverged between serial and threaded admission under crashes"
    );
    assert_eq!(
        serial_stats, threaded_stats,
        "learned fleet statistics diverged between serial and threaded admission under crashes"
    );
}

#[test]
fn nested_fanout_never_oversubscribes_the_pool() {
    // Threaded admission fans out one slot per candidate node, and each
    // node's search fans out again (hyper-grid fits, acquisition starts)
    // with more requested slots than the pool owns. Before the shared
    // pool, every layer spawned its own OS threads, multiplying live
    // workers; now every layer draws from the same fixed pool and callers
    // self-execute unclaimed slots, so the number of concurrently busy
    // pool workers can never exceed the pool size.
    use clite_par::WorkerPool;

    let pool = WorkerPool::global();
    let before = pool.stats();

    let mut config = SchedulerConfig {
        placement: PlacementPolicy::LeastLoaded,
        admission: AdmissionMode::Threaded,
        ..SchedulerConfig::default()
    };
    // Request far more search parallelism than any pool owns.
    config.clite.bo = config.clite.bo.with_threads(pool.size() * 4);
    let mut cluster = ClusterScheduler::new(3, config, 42).expect("3-node cluster");
    for spec in job_stream() {
        cluster.submit(spec).expect("submit");
    }

    let after = pool.stats();
    assert!(
        after.jobs > before.jobs,
        "the nested fan-out must actually dispatch through the shared pool"
    );
    assert!(
        after.max_busy_workers <= pool.workers(),
        "pool oversubscribed: {} workers busy at once but only {} exist",
        after.max_busy_workers,
        pool.workers()
    );
}

#[test]
fn heavy_stream_exercises_rejections_and_multi_node_probes() {
    // Sanity check on the fixture itself: if everything were trivially
    // placeable on the first candidate, the equality tests above would
    // prove nothing.
    let (placements, stats) = run(AdmissionMode::Serial, PlacementPolicy::LeastLoaded, 42);
    assert!(placements.iter().any(Option::is_none), "stream must include rejections");
    assert!(placements.iter().flatten().count() >= 4, "stream must include placements");
    let probes: u64 = stats.nodes.iter().map(|n| n.samples_spent).sum();
    assert!(probes > 0);
}
