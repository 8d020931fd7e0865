//! `fleet` — the fleet-service scale experiment (extension).
//!
//! Two curves, both committed to `results/BENCH_pr7.json`:
//!
//! 1. **Nodes vs admission latency**: the event loop streams a mixed
//!    arrival/departure/load-shift trace (with node crashes injected via
//!    `clite-faults`) across fleets from 64 up to ≥512 nodes under the
//!    mean-field epoch policy, serial and threaded admission side by
//!    side. The two runs must be byte-identical — the experiment asserts
//!    it at every scale point.
//! 2. **Store scaling**: admission-path throughput (warm-start lookups +
//!    commit appends from concurrent worker threads) against the PR 4
//!    single-mutex store — which must run its log compaction inline,
//!    under the lock, on the admission path — vs the sharded store at 1,
//!    4, and 16 shards, which defers compaction to the background thread
//!    and drains it off the timed path. The JSON rows include the drain
//!    (`settle_ms`) and per-shard contention counters so nothing is
//!    hidden; `host_threads` records how much hardware parallelism the
//!    numbers had available.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use clite_cluster::fleet::{FleetConfig, FleetRun, FleetService};
use clite_cluster::scheduler::AdmissionMode;
use clite_cluster::trace::{generate, TraceConfig};
use clite_faults::{FaultSpec, FaultyFactory};
use clite_sim::prelude::*;
use clite_sim::testbed::Testbed;
use clite_store::{MixSignature, ObservationStore, ShardPolicy, ShardedStore, StorePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::export::save_json;
use crate::render::Table;
use crate::runner::ambient_telemetry;
use crate::{ExpOptions, Report};

/// Default artifact destination, overridable via `$CLITE_FLEET_REPORT`.
const BENCH_ARTIFACT: &str = "results/BENCH_pr7.json";

/// Compaction trigger shared by the mutex baseline and the sharded store,
/// so both pay for the same maintenance policy.
const GC_RATIO: f64 = 0.5;
const GC_MIN_RECORDS: u64 = 256;

/// The committed benchmark artifact.
#[derive(Debug, Serialize)]
struct FleetBench {
    version: u32,
    seed: u64,
    /// Hardware threads the store-scaling numbers had available.
    host_threads: usize,
    /// Nodes-vs-admission-latency curve.
    scale: Vec<ScalePoint>,
    /// Mutex baseline vs shard counts.
    store_scaling: Vec<StorePoint>,
}

/// One fleet size on the scale curve.
#[derive(Debug, Serialize)]
struct ScalePoint {
    nodes: usize,
    events: usize,
    arrivals: u64,
    placed: u64,
    departures: u64,
    load_shifts: u64,
    dead_nodes: usize,
    epoch_solves: u64,
    serial_wall_ms: f64,
    threaded_wall_ms: f64,
    /// Serial wall-clock per arrival — the admission-latency proxy.
    mean_admission_us: f64,
    byte_identical: bool,
}

/// One backend on the store-scaling curve.
#[derive(Debug, Serialize)]
struct StorePoint {
    backend: &'static str,
    shards: usize,
    threads: usize,
    ops: u64,
    admission_wall_ms: f64,
    ops_per_sec: f64,
    /// Off-path compaction drain after the timed window (sharded only;
    /// the mutex baseline compacts inline, inside `admission_wall_ms`).
    settle_ms: f64,
    lock_waits: u64,
    compactions: u64,
    appends: u64,
    hits: u64,
}

/// The crash plan for the scale runs: probes die mid-search often enough
/// that several nodes are evicted and their jobs re-placed at every
/// fleet size.
fn crash_spec() -> FaultSpec {
    FaultSpec { crash_prob: 0.35, crash_window_max: 20, ..FaultSpec::none() }
}

/// Resolves `--placement`/`--model` into the model the fleet serves
/// (`None` = the least-loaded heuristic).
fn placement_model(opts: &ExpOptions) -> Option<Arc<clite_learn::RankingModel>> {
    if !opts.learned_placement {
        return None;
    }
    let model = match &opts.model {
        Some(path) => {
            let (model, err) = clite_learn::load_or_zeroed(path);
            if let Some(e) = err {
                eprintln!("warning: {e}: serving the zero model instead of {}", path.display());
            }
            model
        }
        None => clite_learn::RankingModel::zeroed(),
    };
    Some(Arc::new(model))
}

/// Runs one trace over one fleet and times it.
fn run_fleet(
    nodes: usize,
    events: usize,
    mode: AdmissionMode,
    seed: u64,
    model: Option<&Arc<clite_learn::RankingModel>>,
) -> (FleetRun, std::time::Duration) {
    let mut config = match model {
        Some(m) => FleetConfig::mean_field_learned(8, 4, Arc::clone(m)),
        None => FleetConfig::mean_field(8, 4),
    };
    config.scheduler.admission = mode;
    let factory = FaultyFactory::new(clite_sim::testbed::ServerFactory, crash_spec());
    let store = ShardedStore::in_memory(ShardPolicy::with_shards(8));
    let mut fleet =
        FleetService::with_factory(nodes, config, seed, factory).expect("non-empty fleet");
    fleet = fleet.with_store(store);
    let trace = generate(&TraceConfig { events, ..TraceConfig::default() }, seed);
    let telemetry = ambient_telemetry();
    let start = Instant::now();
    let run = fleet.run(&trace, &telemetry).expect("fleet loop healthy");
    (run, start.elapsed())
}

/// The nodes-vs-admission-latency curve. Panics if serial and threaded
/// runs ever diverge — that is the acceptance contract, not a soft
/// metric.
fn scale_curve(opts: &ExpOptions) -> (Vec<ScalePoint>, String) {
    let node_counts: &[usize] =
        if opts.quick { &[64, 128, 256, 512] } else { &[64, 128, 256, 512, 1024] };
    let events = if opts.quick { 40 } else { 96 };
    let mut points = Vec::new();
    let mut t = Table::new(vec![
        "nodes",
        "arrivals",
        "placed",
        "dead",
        "serial (ms)",
        "threaded (ms)",
        "adm latency (us)",
        "identical",
    ]);
    let model = placement_model(opts);
    for &nodes in node_counts {
        let (serial, serial_wall) =
            run_fleet(nodes, events, AdmissionMode::Serial, opts.seed, model.as_ref());
        let (threaded, threaded_wall) =
            run_fleet(nodes, events, AdmissionMode::Threaded, opts.seed, model.as_ref());
        assert_eq!(serial, threaded, "serial and threaded fleet runs diverged at {nodes} nodes");
        let mean_admission_us =
            serial_wall.as_secs_f64() * 1e6 / (serial.counters.arrivals.max(1)) as f64;
        t.row(vec![
            nodes.to_string(),
            serial.counters.arrivals.to_string(),
            serial.counters.placed.to_string(),
            serial.stats.dead_nodes.to_string(),
            format!("{:.1}", serial_wall.as_secs_f64() * 1e3),
            format!("{:.1}", threaded_wall.as_secs_f64() * 1e3),
            format!("{mean_admission_us:.0}"),
            "yes".to_owned(),
        ]);
        points.push(ScalePoint {
            nodes,
            events,
            arrivals: serial.counters.arrivals,
            placed: serial.counters.placed,
            departures: serial.counters.departures,
            load_shifts: serial.counters.load_shifts,
            dead_nodes: serial.stats.dead_nodes,
            epoch_solves: serial.counters.epoch_solves,
            serial_wall_ms: serial_wall.as_secs_f64() * 1e3,
            threaded_wall_ms: threaded_wall.as_secs_f64() * 1e3,
            mean_admission_us,
            byte_identical: true,
        });
    }
    assert!(
        points.iter().any(|p| p.dead_nodes > 0),
        "the crash plan must actually kill nodes, or the smoke run proves nothing"
    );
    let body = format!(
        "fleet event loop, {events} events/trace, crashes injected (prob {}),\n\
         mean-field epoch policy (template every 8 ticks, probe limit 4),\n\
         {} candidate ordering:\n\n{}\n\
         Reading: admission latency stays flat as the fleet grows — the epoch\n\
         template caps per-arrival work at probe-limit searches regardless of\n\
         fleet size — and every serial/threaded pair is byte-identical.\n",
        crash_spec().crash_prob,
        if model.is_some() { "learned" } else { "heuristic" },
        t.render()
    );
    (points, body)
}

/// One pre-generated store sample.
struct PoolSample {
    signature: MixSignature,
    partition: Partition,
    observation: Observation,
}

/// A deterministic sample pool spanning 24 distinct mix keys × 6 partitions,
/// so shards are populated unevenly-but-broadly and dedupe churn creates
/// log garbage at a realistic rate.
fn sample_pool(seed: u64) -> Vec<PoolSample> {
    let catalog = ResourceCatalog::testbed();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = Vec::new();
    for jobs in [2usize, 3, 4] {
        for load_step in 1..=8u32 {
            let load = f64::from(load_step) * 0.1;
            // Rotate the workloads with the load step: the shard route
            // hashes the mix *key* (workloads, not loads), so varying only
            // the load would keep every bucket on three shards.
            let rot = load_step as usize;
            let specs: Vec<JobSpec> = (0..jobs)
                .map(|i| {
                    if i % 2 == 0 {
                        JobSpec::latency_critical(WorkloadId::LATENCY_CRITICAL[(i + rot) % 5], load)
                    } else {
                        JobSpec::background(WorkloadId::BACKGROUND[(i + rot) % 6])
                    }
                })
                .collect();
            let mut server = Server::new(catalog, specs, seed ^ jobs as u64).unwrap();
            let signature = MixSignature::capture(&server);
            for _ in 0..6 {
                let partition = Partition::random(&catalog, jobs, &mut rng).unwrap();
                let observation = Testbed::observe(&mut server, &partition);
                pool.push(PoolSample { signature: signature.clone(), partition, observation });
            }
        }
    }
    pool
}

/// Admission-path op mix: every 5th op is a commit append (with a rising
/// score, so dedupe evicts the previous sample and the log gathers
/// garbage); the rest are warm-start lookups.
fn is_append(op: usize) -> bool {
    op.is_multiple_of(5)
}

/// Drives `ops_per_thread` admission ops per thread against the mutex
/// baseline: one `ObservationStore` behind one exclusive lock, compaction
/// run inline (under the lock) whenever the garbage threshold trips —
/// the PR 4 architecture has no other place to put it.
fn drive_mutex(
    store: &Mutex<ObservationStore>,
    pool: &[PoolSample],
    threads: usize,
    ops_per_thread: usize,
) -> std::time::Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                for i in 0..ops_per_thread {
                    let s = &pool[(t * 7919 + i) % pool.len()];
                    let mut guard = store.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    if is_append(i) {
                        let score = (t * ops_per_thread + i) as f64 * 1e-9;
                        let _ = guard.append(&s.signature, &s.partition, &s.observation, score);
                        if guard.log_records() >= GC_MIN_RECORDS && guard.garbage_ratio() > GC_RATIO
                        {
                            guard.compact().expect("inline compaction");
                        }
                    } else {
                        let _ = guard.warm_start(&s.signature);
                    }
                }
            });
        }
    });
    start.elapsed()
}

/// The same op stream against the sharded store: lookups on the read fast
/// path, appends behind per-shard write locks, compaction deferred to the
/// background thread. Returns (admission wall, settle wall).
fn drive_sharded(
    store: &Arc<ShardedStore>,
    pool: &[PoolSample],
    threads: usize,
    ops_per_thread: usize,
) -> (std::time::Duration, std::time::Duration) {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let store = Arc::clone(store);
            scope.spawn(move || {
                for i in 0..ops_per_thread {
                    let s = &pool[(t * 7919 + i) % pool.len()];
                    if is_append(i) {
                        let score = (t * ops_per_thread + i) as f64 * 1e-9;
                        let _ = store.append(&s.signature, &s.partition, &s.observation, score);
                    } else {
                        let _ = store.warm_start(&s.signature);
                    }
                }
            });
        }
    });
    let admission = start.elapsed();
    let settle_start = Instant::now();
    store.compact_pending().expect("settle compaction");
    (admission, settle_start.elapsed())
}

/// The store-scaling curve: mutex baseline, then 1/4/16 shards.
fn store_curve(opts: &ExpOptions, dir: &std::path::Path) -> (Vec<StorePoint>, String) {
    let threads = 4;
    let ops_per_thread = if opts.quick { 6_000 } else { 24_000 };
    let total_ops = (threads * ops_per_thread) as u64;
    let pool = sample_pool(opts.seed);
    let mut points = Vec::new();
    let mut t = Table::new(vec![
        "backend",
        "shards",
        "ops/s",
        "admission (ms)",
        "settle (ms)",
        "lock waits",
        "compactions",
    ]);

    // Warm every backend from the same pre-population pass so lookups hit
    // from the first op.
    let prepopulate = |append: &mut dyn FnMut(&PoolSample, f64)| {
        for (k, s) in pool.iter().enumerate() {
            append(s, k as f64 * 1e-12);
        }
    };

    {
        let path = dir.join("mutex.obs");
        let mut store =
            ObservationStore::open_with(&path, StorePolicy::default()).expect("mutex store opens");
        prepopulate(&mut |s, score| {
            let _ = store.append(&s.signature, &s.partition, &s.observation, score);
        });
        let store = Mutex::new(store);
        let wall = drive_mutex(&store, &pool, threads, ops_per_thread);
        let stats = store.lock().unwrap().stats();
        let ops_per_sec = total_ops as f64 / wall.as_secs_f64();
        t.row(vec![
            "mutex".into(),
            "-".into(),
            format!("{ops_per_sec:.0}"),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            "inline".into(),
            stats.lock_waits.to_string(),
            stats.compactions.to_string(),
        ]);
        points.push(StorePoint {
            backend: "mutex",
            shards: 0,
            threads,
            ops: total_ops,
            admission_wall_ms: wall.as_secs_f64() * 1e3,
            ops_per_sec,
            settle_ms: 0.0,
            lock_waits: stats.lock_waits,
            compactions: stats.compactions,
            appends: stats.appends,
            hits: stats.hits,
        });
    }

    for shards in [1usize, 4, 16] {
        let path = dir.join(format!("sharded{shards}.obs"));
        let policy = ShardPolicy {
            shards,
            compaction_garbage_ratio: GC_RATIO,
            compaction_min_log_records: GC_MIN_RECORDS,
            background_compaction: true,
            ..ShardPolicy::default()
        };
        let store = ShardedStore::open(&path, policy).expect("sharded store opens");
        prepopulate(&mut |s, score| {
            let _ = store.append(&s.signature, &s.partition, &s.observation, score);
        });
        let (wall, settle) = drive_sharded(&store, &pool, threads, ops_per_thread);
        let stats = store.stats();
        let ops_per_sec = total_ops as f64 / wall.as_secs_f64();
        t.row(vec![
            "sharded".into(),
            shards.to_string(),
            format!("{ops_per_sec:.0}"),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            format!("{:.1}", settle.as_secs_f64() * 1e3),
            stats.lock_waits.to_string(),
            stats.compactions.to_string(),
        ]);
        points.push(StorePoint {
            backend: "sharded",
            shards,
            threads,
            ops: total_ops,
            admission_wall_ms: wall.as_secs_f64() * 1e3,
            ops_per_sec,
            settle_ms: settle.as_secs_f64() * 1e3,
            lock_waits: stats.lock_waits,
            compactions: stats.compactions,
            appends: stats.appends,
            hits: stats.hits,
        });
    }

    let mutex_ops = points[0].ops_per_sec;
    let best = points[1..]
        .iter()
        .max_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec))
        .expect("sharded points exist");
    let body = format!(
        "store admission path: {threads} threads x {ops_per_thread} ops (80% lookups,\n\
         20% commit appends), identical compaction policy (garbage > {}, min {}\n\
         records) on both backends:\n\n{}\n\
         Reading: the mutex baseline compacts inline on the admission path — every\n\
         worker stalls behind the rewrite — while the sharded store defers it to the\n\
         background thread and drains off-path (settle column). Best sharded\n\
         configuration ({} shards): {:.2}x the mutex admission throughput.\n",
        GC_RATIO,
        GC_MIN_RECORDS,
        t.render(),
        best.shards,
        best.ops_per_sec / mutex_ops,
    );
    (points, body)
}

/// The artifact destination: `$CLITE_FLEET_REPORT` or the default path.
#[must_use]
pub fn report_path() -> PathBuf {
    std::env::var_os("CLITE_FLEET_REPORT")
        .map_or_else(|| PathBuf::from(BENCH_ARTIFACT), PathBuf::from)
}

/// Experiment entry point.
///
/// # Panics
///
/// Panics if a serial and threaded fleet run diverge (determinism
/// regression) or on internal scheduler failures.
#[must_use]
pub fn run(opts: &ExpOptions) -> Report {
    let (scale, mut body) = scale_curve(opts);

    let dir = std::env::temp_dir().join(format!("clite-fleet-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    let (store_scaling, store_body) = store_curve(opts, &dir);
    std::fs::remove_dir_all(&dir).ok();
    body.push('\n');
    body.push_str(&store_body);

    let bench = FleetBench {
        version: 1,
        seed: opts.seed,
        host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        scale,
        store_scaling,
    };
    let path = report_path();
    match save_json(&path, &bench) {
        Ok(()) => body.push_str(&format!("\nbenchmark artifact written to {}\n", path.display())),
        Err(e) => {
            body.push_str(&format!("\nWARNING: cannot write {}: {e}\n", path.display()));
        }
    }
    Report {
        id: "fleet",
        title: "Fleet service at scale: event loop + sharded store (extension)".into(),
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_pool_is_deterministic_and_multi_mix() {
        let a = sample_pool(3);
        let b = sample_pool(3);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 24 * 6);
        let sigs: std::collections::HashSet<_> =
            a.iter().map(|s| s.signature.shard_hash()).collect();
        assert!(sigs.len() >= 20, "pool must span many distinct mixes");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.signature, y.signature);
            assert_eq!(x.partition, y.partition);
        }
    }

    #[test]
    fn op_mix_is_read_heavy() {
        let appends = (0..100).filter(|&i| is_append(i)).count();
        assert_eq!(appends, 20);
    }
}
