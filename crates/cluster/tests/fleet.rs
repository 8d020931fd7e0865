//! Fleet-scale determinism: for a fixed trace and seed the event loop's
//! placements, counters, and statistics must be byte-identical across
//! serial vs threaded admission, across store shard counts, and across
//! repeated runs — at a fleet size (≥256 nodes) where a naive
//! parallelization or shard-dependent lookup would actually diverge.

use std::sync::Arc;

use clite_cluster::fleet::{FleetConfig, FleetRun, FleetService};
use clite_cluster::scheduler::AdmissionMode;
use clite_cluster::stats::ClusterStats;
use clite_cluster::trace::{generate, TraceConfig};
use clite_store::{ShardPolicy, ShardedStore};
use clite_telemetry::Telemetry;

const NODES: usize = 256;
const SEED: u64 = 42;

/// A mixed trace that grows the fleet past 256 nodes while jobs arrive,
/// depart, and shift load.
fn fleet_trace() -> Vec<clite_cluster::event::TimedEvent> {
    generate(
        &TraceConfig {
            events: 48,
            arrival_weight: 6,
            departure_weight: 2,
            load_shift_weight: 2,
            onboard_every: Some(16),
            onboard_nodes: 8,
        },
        SEED,
    )
}

/// Mean-field config: epoch template every 8 ticks, at most 4 probes per
/// admission — the fleet-scale operating point (probing all 256+ nodes per
/// arrival would be quadratic and is exactly what the epoch policy
/// avoids).
fn config(mode: AdmissionMode) -> FleetConfig {
    let mut config = FleetConfig::mean_field(8, 4);
    config.scheduler.admission = mode;
    config
}

fn run(mode: AdmissionMode, store: Option<Arc<ShardedStore>>) -> FleetRun {
    let mut fleet = FleetService::new(NODES, config(mode), SEED).expect("fleet");
    if let Some(store) = store {
        fleet = fleet.with_store(store);
    }
    fleet.run(&fleet_trace(), &Telemetry::disabled()).expect("trace runs")
}

/// Like [`config`] but serving a trained (non-zero) placement model.
fn learned_config(mode: AdmissionMode) -> FleetConfig {
    let mut model = clite_learn::RankingModel::zeroed();
    for (i, w) in model.weights.iter_mut().enumerate() {
        *w = (i as f64 - 6.0) * 0.05;
    }
    model.epochs = 1;
    let mut config = FleetConfig::mean_field_learned(8, 4, Arc::new(model));
    config.scheduler.admission = mode;
    config
}

#[test]
fn learned_fleet_is_byte_identical_across_admission_modes() {
    // The acceptance criterion for the learned policy: the model-ordered
    // fleet keeps the serial ≡ threaded contract at scale, epoch solves
    // and all.
    let mut serial_fleet =
        FleetService::new(NODES, learned_config(AdmissionMode::Serial), SEED).expect("fleet");
    let serial = serial_fleet.run(&fleet_trace(), &Telemetry::disabled()).expect("trace runs");
    let mut threaded_fleet =
        FleetService::new(NODES, learned_config(AdmissionMode::Threaded), SEED).expect("fleet");
    let threaded = threaded_fleet.run(&fleet_trace(), &Telemetry::disabled()).expect("trace runs");
    assert_eq!(serial.placements, threaded.placements, "learned placements diverged");
    assert_eq!(serial.counters, threaded.counters, "learned counters diverged");
    assert_eq!(serial.stats, threaded.stats, "learned statistics diverged");
    assert!(serial.counters.epoch_solves >= 2, "epoch loop must keep solving for gauges");
    assert!(
        matches!(
            serial_fleet.scheduler().config().placement,
            clite_cluster::placement::PlacementPolicy::Learned { .. }
        ),
        "epoch solves must never overwrite the learned policy"
    );
}

#[test]
fn serial_and_threaded_fleets_are_byte_identical_at_256_nodes() {
    let serial = run(AdmissionMode::Serial, None);
    let threaded = run(AdmissionMode::Threaded, None);
    assert_eq!(serial.placements, threaded.placements, "placements diverged");
    assert_eq!(serial.counters, threaded.counters, "counters diverged");
    assert_eq!(serial.stats, threaded.stats, "statistics diverged");

    // The fixture must exercise the paths where divergence would show.
    assert!(serial.counters.arrivals >= 20, "trace must be arrival-heavy");
    assert!(serial.counters.departures + serial.counters.load_shifts > 0, "trace must churn");
    assert!(serial.counters.nodes_onboarded > 0, "trace must onboard nodes");
    assert!(serial.counters.epoch_solves >= 2, "epoch policy must re-solve");
    assert_eq!(serial.stats.nodes.len(), NODES + serial.counters.nodes_onboarded as usize);
}

/// A 1-shard store: the reference every other shard count must match.
/// (1 shard ≡ the plain `ObservationStore` is pinned at the store level by
/// `clite-store`'s `shard_invariance` suite.)
fn one_shard() -> Arc<ShardedStore> {
    ShardedStore::in_memory(ShardPolicy::with_shards(1))
}

#[test]
fn shard_count_does_not_change_fleet_outcomes() {
    let reference = run(AdmissionMode::Serial, Some(one_shard()));
    for shards in [1usize, 4, 16] {
        let store: Arc<ShardedStore> = ShardedStore::in_memory(ShardPolicy::with_shards(shards));
        let got = run(AdmissionMode::Serial, Some(Arc::clone(&store)));
        assert_eq!(got, reference, "{shards}-shard fleet diverged from the 1-shard reference");
        assert!(store.stats().appends > 0, "committed searches must reach the store");
    }
}

#[test]
fn threaded_sharded_fleet_matches_serial_one_shard() {
    // Serial over a 1-shard store vs threaded over an 8-shard store —
    // admission mode and shard count swapped at once, still
    // byte-identical.
    let serial = run(AdmissionMode::Serial, Some(one_shard()));
    let sharded: Arc<ShardedStore> = ShardedStore::in_memory(ShardPolicy::with_shards(8));
    let threaded = run(AdmissionMode::Threaded, Some(sharded));
    assert_eq!(serial, threaded);
}

#[test]
fn incremental_stats_match_from_scratch_recompute() {
    // The fleet reads ClusterStats every epoch; it is maintained
    // incrementally on commit/evict/remove/load-shift. Pin it against the
    // O(fleet) from-scratch recompute after a full churn trace.
    let mut fleet = FleetService::new(8, config(AdmissionMode::Serial), SEED).expect("fleet");
    fleet.run(&fleet_trace(), &Telemetry::disabled()).expect("trace runs");
    let scheduler = fleet.scheduler();
    let recomputed = ClusterStats::collect(scheduler.nodes(), scheduler.rejected());
    assert_eq!(fleet.stats(), recomputed, "incremental stats drifted from recompute");
    assert!(recomputed.placed > 0, "fixture must commit jobs for the check to bite");
}

#[test]
fn fleet_runs_are_self_deterministic() {
    let a = run(AdmissionMode::Threaded, None);
    let b = run(AdmissionMode::Threaded, None);
    assert_eq!(a, b);
}
