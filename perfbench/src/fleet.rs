//! `fleet` and `fleet-durable`: the event-driven fleet service, fed one
//! event at a time by a single caller (closed loop).
//!
//! * `fleet` is the default `colocate fleet` shape: a volatile
//!   `FleetService` over 256 nodes running the default mixed trace
//!   (arrivals : departures : load shifts = 6:2:2) with mean-field
//!   heuristic placement, serial admission and an in-memory 8-shard
//!   store. A round runs several traces, each on a fresh fleet.
//! * `fleet-durable` is a `DurableFleet` over 4096 nodes filling up from
//!   arrivals only, with its journal, checkpoints and on-disk 8-shard
//!   store in a fresh directory, threaded admission, learned placement
//!   serving the zero model, and injected node crashes.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clite_cluster::event::{FleetEvent, TimedEvent};
use clite_cluster::fleet::{backlog_at, EventOutcome, FleetConfig, FleetRun, FleetService};
use clite_cluster::learned;
use clite_cluster::recovery::{DurableConfig, DurableFleet, DurableOutcome};
use clite_cluster::scheduler::AdmissionMode;
use clite_cluster::trace::{generate, TraceConfig};
use clite_faults::{FaultSpec, FaultyFactory};
use clite_learn::RankingModel;
use clite_sim::testbed::{ServerFactory, TestbedFactory};
use clite_store::{ShardPolicy, ShardedStore, StoreStats};
use clite_telemetry::{Event, Telemetry};

use crate::round::{guarded, par_metrics, search_simulated, set_up, Round};
use crate::spans::{thread_index, Call, Keep, Received, SpanRecorder};
use crate::stats::Digest;

/// Shape of one fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    /// Nodes per fleet.
    pub nodes: usize,
    /// Events per trace.
    pub events: usize,
    /// Traces per round, each on a fresh fleet.
    pub traces: usize,
}

/// The `fleet` shape: five 150-event traces per round.
pub const FLEET: FleetShape = FleetShape { nodes: 256, events: 150, traces: 5 };

/// The `fleet-durable` shape: three 200-arrival traces per round, each
/// filling a fresh 4096-node durable fleet.
pub const DURABLE: FleetShape = FleetShape { nodes: 4096, events: 200, traces: 3 };

/// Node crashes injected into `fleet-durable`: the fleet experiment's
/// spec, under which probes die mid-search often enough that nodes are
/// evicted and their jobs re-placed.
#[must_use]
pub fn crash_spec() -> FaultSpec {
    FaultSpec { crash_prob: 0.35, crash_window_max: 20, ..FaultSpec::none() }
}

/// The mean-field heuristic config of `fleet` (epoch 8, probe limit 4,
/// serial admission).
#[must_use]
pub fn fleet_config() -> FleetConfig {
    FleetConfig::mean_field(8, 4)
}

/// The config of `fleet-durable`: learned placement serving the zero
/// model, which keeps the heuristic order but scores every candidate
/// node, with threaded admission.
#[must_use]
pub fn durable_config() -> FleetConfig {
    let mut config = FleetConfig::mean_field_learned(8, 4, Arc::new(RankingModel::zeroed()));
    config.scheduler.admission = AdmissionMode::Threaded;
    config
}

/// The arrivals-only trace of `fleet-durable`.
#[must_use]
pub fn durable_trace(events: usize, seed: u64) -> Vec<TimedEvent> {
    let config = TraceConfig {
        events,
        arrival_weight: 1,
        departure_weight: 0,
        load_shift_weight: 0,
        ..TraceConfig::default()
    };
    generate(&config, seed)
}

/// The default mixed trace of `fleet`.
#[must_use]
pub fn mixed_trace(events: usize, seed: u64) -> Vec<TimedEvent> {
    generate(&TraceConfig { events, ..TraceConfig::default() }, seed)
}

/// Seed of trace `k` of round `round` of a workload seeded with `seed`.
fn trace_seed(seed: u64, shape: FleetShape, round: u64, k: usize) -> u64 {
    let index = round * shape.traces as u64 + k as u64;
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index)
}

fn is_arrival(event: &TimedEvent) -> bool {
    matches!(event.event, FleetEvent::Arrival { .. })
}

fn sum_store(total: &mut StoreStats, s: StoreStats) {
    total.appends += s.appends;
    total.hits += s.hits;
    total.misses += s.misses;
    total.lock_waits += s.lock_waits;
    total.compactions += s.compactions;
}

fn store_metrics(s: &StoreStats) -> Vec<(&'static str, f64)> {
    let lookups = s.hits + s.misses;
    vec![
        ("store.hit_ratio", if lookups == 0 { 0.0 } else { s.hits as f64 / lookups as f64 }),
        ("store.appends", s.appends as f64),
        ("store.lock_waits", s.lock_waits as f64),
        ("store.compactions", s.compactions as f64),
    ]
}

/// Fleet-level outcome metrics over `runs` (one per trace).
fn outcome_metrics(runs: &[FleetRun], arrival_windows: u64) -> Vec<(&'static str, f64)> {
    let arrivals: u64 = runs.iter().map(|r| r.counters.arrivals).sum();
    let placed: u64 = runs.iter().map(|r| r.counters.placed).sum();
    let alive: usize = runs.iter().map(|r| r.stats.nodes.iter().filter(|n| n.alive).count()).sum();
    let qos_ok: usize =
        runs.iter().map(|r| r.stats.nodes.iter().filter(|n| n.alive && n.qos_met).count()).sum();
    let arrivals_f = arrivals.max(1) as f64;
    vec![
        ("windows_per_admit", arrival_windows as f64 / arrivals_f),
        ("admit_rate", placed as f64 / arrivals_f),
        ("qos_ok_frac", qos_ok as f64 / alive.max(1) as f64),
    ]
}

fn witness(run: &FleetRun) -> Digest {
    let mut digest = Digest::default();
    digest.debug(&run.placements);
    digest.debug(&run.counters);
    digest
}

/// The `fleet` workload.
pub struct FleetWorkload {
    shape: FleetShape,
    seed: u64,
}

impl FleetWorkload {
    /// The workload for `seed`.
    #[must_use]
    pub fn new(seed: u64, shape: FleetShape) -> Self {
        Self { shape, seed }
    }

    /// Runs the first `items` traces of round `index`, each on a fresh
    /// fleet and store.
    pub fn round(&self, index: u64, items: usize, traced: bool) -> Round {
        let recorder = SpanRecorder::new(if traced { Keep::All } else { Keep::Marks });
        let mut round = Round::default();
        let seeds: Vec<u64> =
            (0..items).map(|k| trace_seed(self.seed, self.shape, index, k)).collect();
        let traces: Vec<Vec<TimedEvent>> =
            seeds.iter().map(|&s| mixed_trace(self.shape.events, s)).collect();

        let (mut fleets, setups) = set_up(|| {
            seeds
                .iter()
                .map(|&s| {
                    let store = ShardedStore::in_memory(ShardPolicy::with_shards(8));
                    let fleet = FleetService::new(self.shape.nodes, fleet_config(), s)
                        .expect("non-empty fleet")
                        .with_store(Arc::clone(&store));
                    (fleet, store)
                })
                .collect::<Vec<(FleetService, Arc<ShardedStore>)>>()
        });
        round.setups = setups;

        let telemetry = Telemetry::new(&recorder);
        let thread = thread_index();
        let pool_before = clite_par::WorkerPool::global().stats();
        let mut runs = Vec::new();
        let mut arrival_windows = 0u64;
        let mut store_total = StoreStats::default();
        let started = recorder.now();
        for (trace, (fleet, store)) in traces.iter().zip(&mut fleets) {
            let mut placements = Vec::new();
            for (seq, event) in trace.iter().enumerate() {
                let backlog = backlog_at(trace, seq);
                let arrival = is_arrival(event);
                let spent_before = fleet.scheduler().total_samples_spent();
                round.attempted += 1;
                let start = recorder.now();
                let result = guarded(|| fleet.handle_with_backlog(event, backlog, &telemetry));
                let end = recorder.now();
                round.calls.push(Call { start, end, seq: seq as u64, thread, arrival });
                if arrival {
                    round.latencies_ms.push((end - start).as_secs_f64() * 1e3);
                    arrival_windows += fleet.scheduler().total_samples_spent() - spent_before;
                }
                match result {
                    Ok(EventOutcome::Placed(p)) => placements.push(Some(p.node)),
                    Ok(EventOutcome::Rejected { .. } | EventOutcome::Shed { .. }) => {
                        placements.push(None);
                    }
                    Ok(_) => {}
                    Err(e) => {
                        round.fail(&e);
                        if arrival {
                            placements.push(None);
                        }
                    }
                }
            }
            let run = FleetRun { placements, counters: fleet.counters(), stats: fleet.stats() };
            round.items.push(witness(&run));
            runs.push(run);
            sum_store(&mut store_total, store.stats());
        }
        round.wall = recorder.now() - started;
        round.received = recorder.take();
        round.searches = recorder.searches(&round.received);
        round.simulated = outcome_metrics(&runs, arrival_windows);
        round.simulated.extend(search_simulated(&round.searches));
        round.layer_extra = store_metrics(&store_total);
        round.layer_extra.extend(par_metrics(pool_before));
        round.layer_extra.push((
            "cluster.replacements",
            runs.iter().map(|r| r.counters.replacements as f64).sum(),
        ));
        round.seal();
        round
    }
}

/// A durable fleet with its on-disk store, both kept in one directory
/// that is removed when the item is dropped.
pub struct DurableItem<F: TestbedFactory> {
    state: Option<(DurableFleet<F>, Arc<ShardedStore>)>,
    dir: PathBuf,
}

impl<F: TestbedFactory + Sync + Clone> DurableItem<F> {
    /// Builds a fresh durable fleet plus its on-disk store in `dir`.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory, store or journal cannot be
    /// created.
    pub fn create(
        nodes: usize,
        config: FleetConfig,
        seed: u64,
        factory: F,
        dir: &std::path::Path,
    ) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        // The item owns the directory from here on, so a failure below
        // still removes it.
        let mut item = Self { state: None, dir: dir.to_path_buf() };
        let store = ShardedStore::open(dir.join("store"), ShardPolicy::with_shards(8))
            .map_err(|e| e.to_string())?;
        let fleet = DurableFleet::create(
            nodes,
            config,
            seed,
            factory,
            &dir.join("fleet"),
            DurableConfig::default(),
        )
        .map_err(|e| e.to_string())?
        .with_store(Arc::clone(&store));
        item.state = Some((fleet, store));
        Ok(item)
    }

    /// The fleet.
    pub fn fleet(&mut self) -> &mut DurableFleet<F> {
        &mut self.state.as_mut().expect("built").0
    }

    /// The store.
    #[must_use]
    pub fn store(&self) -> &ShardedStore {
        &self.state.as_ref().expect("built").1
    }
}

impl<F: TestbedFactory> Drop for DurableItem<F> {
    fn drop(&mut self) {
        drop(self.state.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Event spans of an unstepped durable run, read from the program's own
/// per-event marks: event `k` runs from the end of event `k - 1` (or the
/// run's start) to its last mark, its `JobArrived` or, on checkpoint
/// boundaries, its `CheckpointWritten`. The `FleetRun` the run clones
/// after its last event lies outside every span.
#[must_use]
pub fn spans_from_marks(start: Duration, marks: &[Received], thread: u32) -> Vec<Call> {
    let mut calls: Vec<Call> = Vec::new();
    for r in marks {
        match r.event {
            Event::JournalAppended { seqno, .. } => {
                let begin = calls.last().map_or(start, |c| c.end);
                calls.push(Call { start: begin, end: r.at, seq: seqno, thread, arrival: true });
            }
            _ => {
                if let Some(last) = calls.last_mut() {
                    last.end = r.at;
                }
            }
        }
    }
    calls
}

/// The `fleet-durable` workload.
pub struct DurableWorkload {
    shape: FleetShape,
    seed: u64,
    dir: PathBuf,
}

impl DurableWorkload {
    /// The workload for `seed`, keeping its state under `dir`.
    #[must_use]
    pub fn new(seed: u64, shape: FleetShape, dir: PathBuf) -> Self {
        Self { shape, seed, dir }
    }

    /// Runs the first `items` traces of round `index`, each on a fresh
    /// durable fleet. Untraced rounds make one `DurableFleet::run` call
    /// per trace and time events from its marks; traced rounds step each
    /// run one event at a time, timing `learned::rank` on the live fleet
    /// between steps.
    pub fn round(&self, index: u64, items: usize, traced: bool) -> Round {
        let recorder = SpanRecorder::new(if traced { Keep::All } else { Keep::Marks });
        let mut round = Round::default();
        let factory = FaultyFactory::new(ServerFactory, crash_spec());
        let seeds: Vec<u64> =
            (0..items).map(|k| trace_seed(self.seed, self.shape, index, k)).collect();
        let traces: Vec<Vec<TimedEvent>> =
            seeds.iter().map(|&s| durable_trace(self.shape.events, s)).collect();

        let (built, setups) = set_up(|| {
            seeds
                .iter()
                .enumerate()
                .map(|(k, &s)| {
                    let dir = self.dir.join(format!("item{k}"));
                    DurableItem::create(
                        self.shape.nodes,
                        durable_config(),
                        s,
                        factory.clone(),
                        &dir,
                    )
                })
                .collect::<Result<Vec<_>, String>>()
        });
        round.setups = setups;
        let mut fleets = match built {
            Ok(b) => b,
            Err(e) => {
                round.attempted = traces.iter().map(|t| t.len() as u64).sum();
                round.failed = round.attempted;
                eprintln!("perfbench: fleet-durable set-up failed: {e}");
                return round;
            }
        };

        let telemetry = Telemetry::new(&recorder);
        let thread = thread_index();
        let pool_before = clite_par::WorkerPool::global().stats();
        let model = RankingModel::zeroed();
        let mut rank_time = Duration::ZERO;
        let mut runs = Vec::new();
        let mut windows = 0u64;
        let mut store_total = StoreStats::default();
        let started = recorder.now();
        for (trace, item) in traces.iter().zip(&mut fleets) {
            let fleet = item.fleet();
            round.attempted += trace.len() as u64;
            let mut completed = None;
            let mut calls = Vec::new();
            if traced {
                for k in 0..trace.len() {
                    if let FleetEvent::Arrival { spec } = &trace[k].event {
                        rank_time += time_rank(fleet.service(), &model, spec);
                    }
                    let start = recorder.now();
                    let result = guarded(|| fleet.run(&trace[..=k], None, &telemetry));
                    calls.push(Call {
                        start,
                        end: recorder.now(),
                        seq: k as u64,
                        thread,
                        arrival: true,
                    });
                    match result {
                        Ok(DurableOutcome::Completed(run)) => completed = Some(run),
                        Ok(DurableOutcome::Killed { .. }) => break,
                        Err(e) => {
                            eprintln!("perfbench: durable step {k} failed: {e}");
                            break;
                        }
                    }
                }
            } else {
                let start = recorder.now();
                match guarded(|| fleet.run(trace, None, &telemetry)) {
                    Ok(DurableOutcome::Completed(run)) => completed = Some(run),
                    Ok(DurableOutcome::Killed { .. }) => {}
                    Err(e) => eprintln!("perfbench: durable run failed: {e}"),
                }
                calls.push(Call { start, end: start, seq: 0, thread, arrival: true });
            }
            let received = recorder.take();
            if traced {
                // A step ends at its last event, before the run clones its
                // FleetRun for the return.
                for call in &mut calls {
                    call.end = received
                        .iter()
                        .filter(|r| r.thread == thread && r.at >= call.start && r.at <= call.end)
                        .map(|r| r.at)
                        .max()
                        .unwrap_or(call.end);
                }
            } else {
                calls = spans_from_marks(calls[0].start, &received, thread);
            }
            round.calls.extend(calls);
            round.received.extend(received);
            match completed {
                Some(run) if run.counters.arrivals == trace.len() as u64 => {
                    round.items.push(witness(&run));
                    windows += fleet.service().scheduler().total_samples_spent();
                    runs.push(run);
                }
                _ => {
                    round.failed += trace.len() as u64;
                    round.items.push(Digest::default());
                }
            }
            sum_store(&mut store_total, item.store().stats());
        }
        // The benchmark's own ranking calls are not the workload's time.
        round.wall = (recorder.now() - started).saturating_sub(rank_time);
        round.latencies_ms = round
            .calls
            .iter()
            .filter(|c| c.arrival)
            .map(|c| (c.end - c.start).as_secs_f64() * 1e3)
            .collect();
        round.searches = recorder.searches(&round.received);
        round.simulated = outcome_metrics(&runs, windows);
        round.simulated.extend(search_simulated(&round.searches));
        round.layer_extra = store_metrics(&store_total);
        round.layer_extra.extend(par_metrics(pool_before));
        round.layer_extra.push((
            "cluster.replacements",
            runs.iter().map(|r| r.counters.replacements as f64).sum(),
        ));
        if traced {
            round.layer_extra.push(("learn.rank_ms", rank_time.as_secs_f64() * 1e3));
        }
        drop(fleets);
        let _ = std::fs::remove_dir(&self.dir);
        round.seal();
        round
    }
}

/// Times `learned::rank` for `spec` over the live fleet's candidates:
/// every node with room for one more job, as the scheduler filters them.
fn time_rank<F: TestbedFactory + Sync + Clone>(
    service: &FleetService<F>,
    model: &RankingModel,
    spec: &clite_sim::prelude::JobSpec,
) -> Duration {
    let scheduler = service.scheduler();
    let nodes = scheduler.nodes();
    let candidates: Vec<usize> =
        nodes.iter().filter(|n| n.has_capacity_for_one_more()).map(|n| n.id()).collect();
    let start = Instant::now();
    let ranked = learned::rank(model, spec, nodes, &candidates, scheduler.stats_ref());
    let elapsed = start.elapsed();
    std::hint::black_box(ranked);
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use clite_cluster::fleet::FleetService;

    fn test_dir(name: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{name}-{}", std::process::id()))
    }

    const SMALL: FleetShape = FleetShape { nodes: 24, events: 20, traces: 2 };

    /// The durable, threaded, on-disk run of `fleet-durable`'s config
    /// equals the serial and threaded volatile runs with an in-memory
    /// store: serial ≡ threaded ≡ durable.
    #[test]
    fn durable_run_equals_volatile_serial_and_threaded_runs() {
        let seed = 5;
        let trace = durable_trace(SMALL.events, seed);
        let factory = FaultyFactory::new(ServerFactory, crash_spec());
        let volatile = |mode| {
            let mut config = durable_config();
            config.scheduler.admission = mode;
            let mut fleet = FleetService::with_factory(SMALL.nodes, config, seed, factory.clone())
                .expect("non-empty fleet")
                .with_store(ShardedStore::in_memory(ShardPolicy::with_shards(8)));
            fleet.run(&trace, &Telemetry::disabled()).expect("volatile run")
        };
        let serial = volatile(AdmissionMode::Serial);
        let threaded = volatile(AdmissionMode::Threaded);
        let dir = test_dir("identity");
        let mut item = DurableItem::create(SMALL.nodes, durable_config(), seed, factory, &dir)
            .expect("set-up");
        let durable = match item.fleet().run(&trace, None, &Telemetry::disabled()).expect("run") {
            DurableOutcome::Completed(run) => run,
            DurableOutcome::Killed { .. } => panic!("no crash plan was given"),
        };
        drop(item);
        assert!(!dir.exists(), "the item removes its directory");
        assert!(serial.stats.dead_nodes > 0, "crashes must evict nodes for the check to bite");
        assert_eq!(serial, threaded);
        assert_eq!(serial, durable);
    }

    /// Stepping the durable run one event at a time under full tracing
    /// reproduces the unstepped, untraced run's witness.
    #[test]
    fn traced_stepped_round_matches_untraced_round() {
        let w = DurableWorkload::new(3, SMALL, test_dir("stepped"));
        let (plain, traced) = (w.round(0, SMALL.traces, false), w.round(0, SMALL.traces, true));
        assert_eq!(plain.failed, 0);
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(plain.calls.len(), SMALL.events * SMALL.traces);
        assert_eq!(traced.calls.len(), SMALL.events * SMALL.traces);
        // Event spans are disjoint and ordered.
        for calls in [&plain.calls, &traced.calls] {
            assert!(calls.windows(2).all(|w| w[0].end <= w[1].start));
        }
    }

    #[test]
    fn another_seed_changes_the_trace_and_the_digest() {
        assert_eq!(mixed_trace(40, 1), mixed_trace(40, 1));
        assert_ne!(mixed_trace(40, 1), mixed_trace(40, 2));
        let a = FleetWorkload::new(1, SMALL);
        let b = FleetWorkload::new(2, SMALL);
        let (a1, a2, b1) = (a.round(0, 2, false), a.round(0, 2, true), b.round(0, 2, false));
        assert_eq!(a1.digest, a2.digest, "same seed, traced or not");
        assert_ne!(a1.digest, b1.digest, "another seed");
        let (next, first) = (a.round(1, 2, false), a.round(0, 1, false));
        assert_ne!(a1.digest, next.digest, "another round draws other traces");
        assert_eq!(first.items[0], a1.items[0], "an item re-run alone reproduces its witness");
    }
}
