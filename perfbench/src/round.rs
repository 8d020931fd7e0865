//! What one round of a workload returns, and the per-layer metrics the
//! traced rounds derive from their span trees.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use clite_telemetry::{Event, Phase};

use crate::spans::{self, Call, Kind, Received, SearchSummary, Span};
use crate::stats::{self, Digest};

/// The outcome of one round: the workload's fixed work, run once on
/// freshly built state.
#[derive(Debug, Default)]
pub struct Round {
    /// Witness digest of each item (one search, or one fleet trace) in
    /// order.
    pub items: Vec<Digest>,
    /// Witness digest of the whole round: its items plus its simulated
    /// metrics (set by [`Round::seal`]).
    pub digest: Digest,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that returned an error or panicked.
    pub failed: u64,
    /// Host time of each build of the round's state before the first
    /// call (see [`set_up`]).
    pub setups: Vec<Duration>,
    /// The timed calls, on the round recorder's clock.
    pub calls: Vec<Call>,
    /// Wall time of the whole timed section (calls plus the benchmark's
    /// own work between them).
    pub wall: Duration,
    /// Host-time samples for the latency percentiles, in ms: one per
    /// search (`search`) or per arrival (fleet workloads).
    pub latencies_ms: Vec<f64>,
    /// Simulated-cost and outcome metrics; exact, so folded into the
    /// digest.
    pub simulated: Vec<(&'static str, f64)>,
    /// Layer metrics the workload reads from the program's own counters.
    pub layer_extra: Vec<(&'static str, f64)>,
    /// Every CLITE search the round ran.
    pub searches: Vec<SearchSummary>,
    /// Events the round's recorder kept: every event when traced, the
    /// fleet's per-event marks otherwise.
    pub received: Vec<Received>,
}

impl Round {
    /// Host time spent inside calls.
    #[must_use]
    pub fn busy(&self) -> Duration {
        self.calls.iter().map(|c| c.end.saturating_sub(c.start)).sum()
    }

    /// Records one failed call.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("perfbench: call failed: {what}");
    }

    /// Sets the round's digest from its items and its simulated metrics,
    /// so a repeat that spends different windows is caught too.
    pub fn seal(&mut self) {
        self.digest = Digest::default();
        for item in &self.items {
            self.digest.bytes(&item.value().to_le_bytes());
        }
        for (name, value) in &self.simulated {
            self.digest.bytes(name.as_bytes());
            self.digest.bytes(&value.to_bits().to_le_bytes());
        }
    }
}

/// Folds passes over the same work into one round whose host times are
/// the least each call and each search took over the passes. The work is
/// deterministic, so passes differ only in what the rest of the host did
/// meanwhile; the least time is the closest to the program's own.
/// Threaded admission finishes searches in varying order, so searches are
/// paired by rank of host time within their class (cold or warm, windows,
/// windows to QoS, QoS met).
/// Returns `false` with the fold when the passes did not do the same
/// work: another witness, or calls and search classes that do not line up.
#[must_use]
pub fn fastest(passes: Vec<Round>) -> (Round, bool) {
    let class = |s: &SearchSummary| (s.cold, s.windows, s.to_qos, s.qos_met);
    let sort = |r: &mut Round| {
        r.searches.sort_by(|a, b| class(a).cmp(&class(b)).then(a.host.cmp(&b.host)));
    };
    let mut passes = passes.into_iter();
    let mut best = passes.next().expect("at least one pass");
    sort(&mut best);
    let mut same = true;
    for mut pass in passes {
        sort(&mut pass);
        same &= pass.digest == best.digest
            && pass.calls.len() == best.calls.len()
            && pass
                .calls
                .iter()
                .zip(&best.calls)
                .all(|(a, b)| (a.seq, a.arrival) == (b.seq, b.arrival))
            && pass.latencies_ms.len() == best.latencies_ms.len()
            && pass.searches.len() == best.searches.len()
            && pass.searches.iter().zip(&best.searches).all(|(a, b)| class(a) == class(b));
        for (b, c) in best.calls.iter_mut().zip(&pass.calls) {
            let took = c.end.saturating_sub(c.start);
            if took < b.end.saturating_sub(b.start) {
                b.end = b.start + took;
            }
        }
        for (b, l) in best.latencies_ms.iter_mut().zip(&pass.latencies_ms) {
            *b = b.min(*l);
        }
        for (b, s) in best.searches.iter_mut().zip(&pass.searches) {
            b.host = b.host.min(s.host);
        }
        best.setups.extend(pass.setups);
        best.attempted += pass.attempted;
        best.failed += pass.failed;
        best.wall = best.wall.min(pass.wall);
    }
    (best, same)
}

/// Builds a round's state [`SETUPS`] times, timing each build, and
/// keeps the last; each earlier build is dropped before the next starts.
/// Several builds per round let `setup_s` be a median even when a run
/// holds only two rounds.
pub fn set_up<T>(mut build: impl FnMut() -> T) -> (T, Vec<Duration>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = std::time::Instant::now();
        last = Some(build());
        times.push(start.elapsed());
    }
    (last.expect("at least one build"), times)
}

/// Builds per round.
pub const SETUPS: usize = 3;

/// The exact search figures: mean windows per search, mean windows
/// until QoS was first met, and the share of searches that met it.
/// Integer sums, so the figures do not depend on the order searches on
/// different threads finished in.
#[must_use]
pub fn search_simulated(searches: &[SearchSummary]) -> Vec<(&'static str, f64)> {
    let n = searches.len().max(1) as f64;
    let windows: usize = searches.iter().map(|s| s.windows).sum();
    let to_qos: usize = searches.iter().map(|s| s.to_qos).sum();
    let met = searches.iter().filter(|s| s.qos_met).count();
    vec![
        ("search_windows", windows as f64 / n),
        ("windows_to_qos", to_qos as f64 / n),
        ("search_qos_frac", met as f64 / n),
    ]
}

/// Worker-pool counters accumulated between two snapshots.
pub fn par_metrics(before: clite_par::PoolStats) -> Vec<(&'static str, f64)> {
    let after = clite_par::WorkerPool::global().stats();
    vec![
        ("par.jobs", (after.jobs - before.jobs) as f64),
        ("par.worker_tasks", (after.worker_tasks - before.worker_tasks) as f64),
        ("par.caller_tasks", (after.caller_tasks - before.caller_tasks) as f64),
        ("par.max_busy_workers", after.max_busy_workers as f64),
    ]
}

/// Runs `f`, turning a panic into an `Err` carrying its message.
pub fn guarded<R, E: std::fmt::Display>(f: impl FnOnce() -> Result<R, E>) -> Result<R, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(e.to_string()),
        Err(panic) => Err(panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_owned())),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-layer metrics of one traced round, plus its span tree.
pub fn layer_metrics(
    round: &Round,
    call_layer: &'static str,
) -> (BTreeMap<String, f64>, Vec<Span>) {
    let (spans, _) = spans::build(&round.calls, &round.received);
    let selfs = spans::self_times(&spans);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        *m.entry(name.to_owned()).or_insert(0.0) += value;
    };

    let mut acq_us = Vec::new();
    let mut searches = 0u64;
    for (span, self_time) in spans.iter().zip(&selfs) {
        let dur = span.end.saturating_sub(span.start);
        match span.kind {
            Kind::Phase(Phase::Acquisition) => {
                put("bo.acq_ms", ms(dur));
                put("bo.suggests", 1.0);
                acq_us.push(dur.as_secs_f64() * 1e6);
            }
            Kind::Phase(Phase::GpFit) => {
                put("gp.fit_ms", ms(dur));
                put("gp.fits", 1.0);
            }
            Kind::Phase(Phase::GpExtend) => {
                put("gp.extend_ms", ms(dur));
                put("gp.extends", 1.0);
            }
            Kind::Phase(Phase::Observe) => {
                put("sim.observe_ms", ms(dur));
                put("sim.observe_calls", 1.0);
            }
            Kind::Phase(Phase::Score) => put("core.score_ms", ms(dur)),
            Kind::Phase(Phase::ParDispatch) => put("par.dispatch_ms", ms(dur)),
            Kind::Journal => put("journal.append_ms", ms(dur)),
            Kind::Checkpoint => put("checkpoint.write_ms", ms(dur)),
            Kind::Search => searches += 1,
            _ => {}
        }
        if span.kind.layer(call_layer) == "clite" {
            put("core.self_ms", ms(*self_time));
        }
    }
    put("bo.acq_call_p50_us", if acq_us.is_empty() { 0.0 } else { stats::median(&acq_us) });

    // Arrival call time not spent in a search, ranking, journal append or
    // checkpoint write: the cluster's own bookkeeping.
    let mut admit_self = Duration::ZERO;
    let roots: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].kind == Kind::Call).collect();
    for (k, &root) in roots.iter().enumerate() {
        if !round.calls[k].arrival {
            continue;
        }
        let end = roots.get(k + 1).copied().unwrap_or(spans.len());
        let mut inner: Vec<(Duration, Duration)> = spans[root + 1..end]
            .iter()
            .filter(|s| {
                matches!(s.kind, Kind::Search | Kind::Rank | Kind::Journal | Kind::Checkpoint)
            })
            .map(|s| (s.start, s.end))
            .collect();
        let call = &spans[root];
        let dur = call.end.saturating_sub(call.start);
        admit_self += dur.saturating_sub(spans::covered(call.start, call.end, &mut inner));
    }
    let arrivals = round.calls.iter().filter(|c| c.arrival).count() as f64;
    put("cluster.admit_self_ms", ms(admit_self));

    let mut placements = 0u64;
    for r in &round.received {
        match &r.event {
            Event::Terminated { samples, .. } => put("core.windows", *samples as f64),
            Event::BootstrapSample { .. } => put("core.bootstrap_samples", 1.0),
            Event::FallbackEngaged { .. } => put("core.fallbacks", 1.0),
            Event::NodeEvicted { .. } => put("cluster.evictions", 1.0),
            Event::Placement { .. } => placements += 1,
            Event::PlacementScored { candidates, .. } => {
                put("learn.candidates_scored", *candidates as f64);
            }
            Event::JournalAppended { bytes, .. } => {
                put("journal.appends", 1.0);
                put("journal.bytes", *bytes as f64);
            }
            Event::CheckpointWritten { bytes, .. } => {
                put("checkpoint.count", 1.0);
                put("checkpoint.bytes", *bytes as f64);
            }
            Event::FaultInjected { fault, .. } => {
                put("faults.injected", 1.0);
                if fault == "node_crashed" {
                    put("faults.node_crashes", 1.0);
                }
            }
            _ => {}
        }
    }
    if arrivals > 0.0 {
        put("cluster.searches_per_admit", searches as f64 / arrivals);
        put(
            "cluster.probe_yield",
            if searches == 0 { 0.0 } else { placements as f64 / searches as f64 },
        );
    }
    for &(name, value) in &round.layer_extra {
        put(name, value);
    }
    let busy = round.busy();
    put("trace.attributed_frac", busy.as_secs_f64() / round.wall.as_secs_f64().max(1e-9));
    put("trace.spans", spans.len() as f64);
    (m, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(took_ms: &[u64], search_ms: u64) -> Round {
        let ms = Duration::from_millis;
        let mut round = Round { attempted: took_ms.len() as u64, ..Round::default() };
        let mut at = Duration::ZERO;
        for (seq, &t) in took_ms.iter().enumerate() {
            let call =
                Call { start: at, end: at + ms(t), seq: seq as u64, thread: 0, arrival: true };
            round.calls.push(call);
            round.latencies_ms.push(t as f64);
            at += ms(t + 1);
        }
        round.searches.push(SearchSummary {
            host: ms(search_ms),
            windows: 7,
            to_qos: 2,
            qos_met: true,
            cold: true,
        });
        round.setups.push(ms(1));
        round.seal();
        round
    }

    #[test]
    fn fastest_keeps_each_calls_least_time_over_passes() {
        let (best, same) = fastest(vec![pass(&[5, 2, 9], 30), pass(&[3, 4, 9], 20)]);
        assert!(same);
        let took: Vec<u64> =
            best.calls.iter().map(|c| (c.end - c.start).as_millis() as u64).collect();
        assert_eq!(took, [3, 2, 9]);
        assert_eq!(best.latencies_ms, [3.0, 2.0, 9.0]);
        assert_eq!(best.busy(), Duration::from_millis(14));
        assert_eq!(best.searches[0].host, Duration::from_millis(20));
        assert_eq!((best.attempted, best.setups.len()), (6, 2));
    }

    #[test]
    fn fastest_pairs_searches_by_class_whatever_their_order() {
        let mut a = pass(&[1], 30);
        let mut b = pass(&[1], 40);
        let short = SearchSummary { host: Duration::from_millis(2), windows: 3, ..a.searches[0] };
        a.searches.insert(0, SearchSummary { host: Duration::from_millis(5), ..short });
        b.searches.push(short);
        let (best, same) = fastest(vec![a, b]);
        assert!(same);
        let hosts: Vec<u128> = best.searches.iter().map(|s| s.host.as_millis()).collect();
        assert_eq!(hosts, [2, 30]);
    }

    #[test]
    fn fastest_flags_passes_that_did_different_work() {
        let mut other = pass(&[5, 2, 9], 30);
        other.searches[0].windows = 8;
        assert!(!fastest(vec![pass(&[5, 2, 9], 30), other]).1);
        assert!(!fastest(vec![pass(&[5, 2, 9], 30), pass(&[5, 2], 30)]).1);
    }
}
