//! Shared experiment-execution helpers.

use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use clite::config::CliteConfig;
use clite::controller::CliteController;
use clite::trace::CliteOutcome;
use clite::CliteError;
use clite_faults::{FaultSpec, FaultStats, FaultyTestbed};
use clite_policies::clite_policy::ClitePolicy;
use clite_policies::genetic::Genetic;
use clite_policies::heracles::Heracles;
use clite_policies::oracle::Oracle;
use clite_policies::parties::Parties;
use clite_policies::policy::{Policy, PolicyOutcome};
use clite_policies::random_plus::RandomPlus;
use clite_sim::testbed::{MemoizedTestbed, ObservationCache, OracleTestbed};
use clite_store::ObservationStore;
use clite_telemetry::{JsonlRecorder, Telemetry};

use crate::mixes::Mix;

/// Process-wide JSONL sink, installed once by `--telemetry-out`. Every
/// [`run_policy`] call then streams its events here; explicit callers can
/// still pass their own recorder through [`run_policy_with`].
static AMBIENT_SINK: OnceLock<JsonlRecorder> = OnceLock::new();

/// Installs a process-wide JSONL telemetry sink at `path` (truncating).
/// Subsequent [`run_policy`] calls stream their events to it. Idempotent
/// only in the sense that a second install is rejected.
///
/// # Errors
///
/// Returns an I/O error if the file cannot be created, or
/// [`io::ErrorKind::AlreadyExists`] if a sink was installed before.
pub fn install_jsonl_sink(path: impl AsRef<Path>) -> io::Result<()> {
    let recorder = JsonlRecorder::create(path)?;
    AMBIENT_SINK
        .set(recorder)
        .map_err(|_| io::Error::new(io::ErrorKind::AlreadyExists, "telemetry sink already set"))
}

/// The process-wide sink, if [`install_jsonl_sink`] has run.
#[must_use]
pub fn ambient_sink() -> Option<&'static JsonlRecorder> {
    AMBIENT_SINK.get()
}

/// A fresh telemetry context over the ambient sink — disabled when no
/// sink is installed. Experiments that drive instrumented APIs directly
/// (rather than through [`run_policy`]) use this to stay observable
/// under `--telemetry-out`.
#[must_use]
pub fn ambient_telemetry() -> Telemetry<'static> {
    match ambient_sink() {
        Some(sink) => Telemetry::new(sink),
        None => Telemetry::disabled(),
    }
}

/// The policies an experiment can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Heracles (protects one LC job).
    Heracles,
    /// PARTIES (FSM coordinate descent).
    Parties,
    /// RAND+ (filtered random sampling).
    RandomPlus,
    /// GENETIC (crossover + mutation).
    Genetic,
    /// CLITE (this paper).
    Clite,
    /// ORACLE (offline upper bound).
    Oracle,
}

impl PolicyKind {
    /// The paper's presentation order.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::Heracles,
        PolicyKind::Parties,
        PolicyKind::RandomPlus,
        PolicyKind::Genetic,
        PolicyKind::Clite,
        PolicyKind::Oracle,
    ];

    /// The four policies Fig. 10/11 compare (online, multi-LC-aware).
    pub const ONLINE_COMPARED: [PolicyKind; 4] =
        [PolicyKind::Parties, PolicyKind::RandomPlus, PolicyKind::Genetic, PolicyKind::Clite];

    /// Paper name of the policy.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Heracles => "Heracles",
            PolicyKind::Parties => "PARTIES",
            PolicyKind::RandomPlus => "RAND+",
            PolicyKind::Genetic => "GENETIC",
            PolicyKind::Clite => "CLITE",
            PolicyKind::Oracle => "ORACLE",
        }
    }

    /// Instantiates the policy, seeded deterministically, for any testbed
    /// backend (the [`OracleTestbed`] bound comes from ORACLE's need for
    /// ground-truth access).
    #[must_use]
    pub fn build<T: OracleTestbed + 'static>(self, seed: u64) -> Box<dyn Policy<T>> {
        match self {
            PolicyKind::Heracles => Box::new(Heracles::default()),
            PolicyKind::Parties => Box::new(Parties::default().with_seed(seed)),
            PolicyKind::RandomPlus => Box::new(RandomPlus::default().with_seed(seed)),
            PolicyKind::Genetic => Box::new(Genetic::default().with_seed(seed)),
            PolicyKind::Clite => Box::new(ClitePolicy::new(CliteConfig::default().with_seed(seed))),
            PolicyKind::Oracle => Box::new(Oracle::default()),
        }
    }
}

/// Runs `kind` on a fresh server hosting `mix`.
///
/// Streams telemetry to the ambient sink when one is installed (see
/// [`install_jsonl_sink`]); each call gets a fresh phase timer, so phase
/// timings stay per-run while counters accumulate across runs.
///
/// # Panics
///
/// Panics on internal policy failures (experiments treat those as bugs).
#[must_use]
pub fn run_policy(kind: PolicyKind, mix: &Mix, seed: u64) -> PolicyOutcome {
    run_policy_with(kind, mix, seed, &ambient_telemetry())
}

/// [`run_policy`] with an explicit telemetry context.
///
/// # Panics
///
/// Panics on internal policy failures (experiments treat those as bugs).
#[must_use]
pub fn run_policy_with(
    kind: PolicyKind,
    mix: &Mix,
    seed: u64,
    telemetry: &Telemetry<'_>,
) -> PolicyOutcome {
    let mut server = mix.server(seed);
    kind.build(seed ^ 0x9E37_79B9)
        .run_with(&mut server, telemetry)
        .unwrap_or_else(|e| panic!("{} failed on {}: {e}", kind.name(), mix.name))
}

/// Runs CLITE on a fresh server hosting `mix` against a shared
/// observation store: the search warm-starts from any stored samples of
/// this (or a nearby-load) mix and appends everything it evaluates back.
/// Seeding matches [`run_policy`], so a storeless CLITE run on the same
/// mix and seed is the cold baseline for this call.
///
/// # Panics
///
/// Panics on internal controller failures (experiments treat those as
/// bugs).
#[must_use]
pub fn run_clite_with_store(
    mix: &Mix,
    seed: u64,
    store: &mut ObservationStore,
    telemetry: &Telemetry<'_>,
) -> PolicyOutcome {
    let mut server = mix.server(seed);
    let controller = CliteController::new(CliteConfig::default().with_seed(seed ^ 0x9E37_79B9));
    let outcome = controller
        .run_with_store(&mut server, store, telemetry)
        .unwrap_or_else(|e| panic!("CLITE (stored) failed on {}: {e}", mix.name));
    clite_outcome_to_policy(&outcome)
}

/// Converts a controller [`CliteOutcome`] into the policy-comparison
/// [`PolicyOutcome`] shape the experiments and CLI render.
#[must_use]
pub fn clite_outcome_to_policy(outcome: &CliteOutcome) -> PolicyOutcome {
    let samples: Vec<clite_policies::policy::PolicySample> = outcome
        .samples
        .iter()
        .map(|r| clite_policies::policy::PolicySample {
            index: r.index,
            partition: r.partition.clone(),
            observation: r.observation.clone(),
            score: r.score.value,
        })
        .collect();
    PolicyOutcome {
        policy: "CLITE".to_owned(),
        best_partition: outcome.best_partition.clone(),
        best_score: outcome.best_score,
        qos_met: outcome.qos_met(),
        samples_to_qos: outcome.samples_to_qos,
        samples,
        gave_up: !outcome.infeasible_jobs.is_empty(),
    }
}

/// What a chaos-mode CLITE run produced: either a completed (possibly
/// retried and quarantine-filtered) search, or a graceful degradation to
/// the controller's safe fallback partition. Panicking is reserved for
/// genuine harness bugs — injected faults never panic.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The completed search (`None` when the run degraded).
    pub outcome: Option<PolicyOutcome>,
    /// Samples the outlier guard quarantined (charged to the window
    /// budget, never entering the surrogate or the store).
    pub quarantined: usize,
    /// The re-enforced fallback partition and the fault that forced it
    /// (`None` when the search completed).
    pub fallback: Option<(clite_sim::alloc::Partition, String)>,
    /// Faults the decorator actually injected.
    pub faults: FaultStats,
    /// Whether the injected node crash fired.
    pub crashed: bool,
}

/// Runs the chaos-hardened CLITE controller on `mix` behind a
/// [`FaultyTestbed`] injecting `spec`. Seeding matches [`run_policy`]
/// (controller seed `seed ^ 0x9E37_79B9`; the fault stream is seeded by
/// `seed` itself), so a `FaultSpec::none()` chaos run is byte-identical
/// to the plain CLITE run on the same mix and seed.
///
/// # Panics
///
/// Panics on internal controller failures other than graceful
/// degradation (experiments treat those as bugs).
#[must_use]
pub fn run_clite_chaos(
    mix: &Mix,
    seed: u64,
    spec: &FaultSpec,
    store: Option<&mut ObservationStore>,
    telemetry: &Telemetry<'_>,
) -> ChaosOutcome {
    let mut server = FaultyTestbed::new(mix.server(seed), spec.clone(), seed);
    let controller =
        CliteController::new(CliteConfig::default().with_seed(seed ^ 0x9E37_79B9).hardened());
    let result = match store {
        Some(s) => controller.run_with_store(&mut server, s, telemetry),
        None => controller.run_with(&mut server, telemetry),
    };
    let (outcome, quarantined, fallback) = match result {
        Ok(o) => {
            let q = o.quarantined;
            (Some(clite_outcome_to_policy(&o)), q, None)
        }
        Err(CliteError::Degraded { fallback, reason }) => {
            (None, 0, Some((fallback, reason.to_string())))
        }
        Err(e) => panic!("CLITE (chaos) failed on {}: {e}", mix.name),
    };
    ChaosOutcome {
        outcome,
        quarantined,
        fallback,
        faults: server.stats(),
        crashed: server.crashed(),
    }
}

/// [`run_policy`] on a [`MemoizedTestbed`] sharing `cache` with other
/// runs: observations of a (job set, load, partition) combination already
/// in the cache are replayed instead of re-simulated.
///
/// Sharing replayed *noisy* observations across runs freezes the noise
/// they were first drawn with, so a shared cache is only sound for
/// sweeps whose runs are meant to agree on ground truth — ORACLE sweeps
/// being the canonical case (its evaluations are noise-free, so caching
/// loses nothing). Pass a fresh cache per run when independence matters.
///
/// # Panics
///
/// Panics on internal policy failures (experiments treat those as bugs).
#[must_use]
pub fn run_policy_memoized(
    kind: PolicyKind,
    mix: &Mix,
    seed: u64,
    cache: &Arc<Mutex<ObservationCache>>,
) -> PolicyOutcome {
    let mut testbed = MemoizedTestbed::with_shared_cache(mix.server(seed), Arc::clone(cache));
    kind.build(seed ^ 0x9E37_79B9)
        .run_with(&mut testbed, &ambient_telemetry())
        .unwrap_or_else(|e| panic!("{} failed on {}: {e}", kind.name(), mix.name))
}

/// Ground-truth (noise-free) evaluation of a policy's chosen partition on
/// a fresh server hosting `mix`: the steady-state outcome the operator
/// would measure after the controller settles, free of the winner's-curse
/// bias of selecting by noisy samples.
#[must_use]
pub fn final_eval(
    mix: &Mix,
    outcome: &PolicyOutcome,
    seed: u64,
) -> clite_sim::metrics::Observation {
    let server = mix.server(seed);
    server.ground_truth(&outcome.best_partition)
}

/// Runs `kind` on `mix` and ground-truth-evaluates its chosen partition.
/// Returns `(qos_met, mean_bg_perf, mean_lc_perf)`.
#[must_use]
pub fn run_and_eval(kind: PolicyKind, mix: &Mix, seed: u64) -> (bool, Option<f64>, Option<f64>) {
    let outcome = run_policy(kind, mix, seed);
    let obs = final_eval(mix, &outcome, seed);
    (obs.all_qos_met(), obs.mean_bg_perf(), obs.mean_lc_perf())
}

/// Finds the maximum load (from `loads`, descending) of a *probe job*
/// at which `kind` still meets every LC job's QoS. `make_mix` builds the
/// mix for a candidate probe load. Returns `None` if no load works
/// (the paper's `X`).
#[must_use]
pub fn max_supported_load(
    kind: PolicyKind,
    loads: &[f64],
    seed: u64,
    make_mix: impl Fn(f64) -> Mix,
) -> Option<f64> {
    let mut sorted: Vec<f64> = loads.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    for (i, &load) in sorted.iter().enumerate() {
        let mix = make_mix(load);
        let (qos_met, _, _) = run_and_eval(kind, &mix, seed.wrapping_add(i as u64));
        if qos_met {
            return Some(load);
        }
    }
    None
}

/// The standard load grid (10%..=90% in `step` increments, as fractions).
#[must_use]
pub fn load_grid(step: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut l: f64 = 0.1;
    while l < 0.95 {
        out.push((l * 100.0).round() / 100.0);
        l += step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixes::fig7_mix;

    #[test]
    fn load_grids() {
        assert_eq!(load_grid(0.2), vec![0.1, 0.3, 0.5, 0.7, 0.9]);
        assert_eq!(load_grid(0.4), vec![0.1, 0.5, 0.9]);
    }

    #[test]
    fn run_policy_with_streams_events() {
        use clite_telemetry::MemoryRecorder;

        let sink = MemoryRecorder::new();
        let telemetry = Telemetry::new(&sink);
        let mix = fig7_mix(0.2, 0.2, 0.2);
        let outcome = run_policy_with(PolicyKind::Clite, &mix, 3, &telemetry);
        assert!(outcome.samples_used() > 0);
        assert!(sink.count_kind("bootstrap_sample") > 0);
        assert_eq!(sink.count_kind("terminated"), 1);
        let report = telemetry.report();
        assert!(report.profiled_seconds() <= report.wall_seconds);
    }

    #[test]
    fn stored_rerun_warm_starts() {
        let mix = fig7_mix(0.2, 0.2, 0.2);
        let mut store = ObservationStore::in_memory();
        let cold = run_clite_with_store(&mix, 3, &mut store, &Telemetry::disabled());
        let warm = run_clite_with_store(&mix, 3, &mut store, &Telemetry::disabled());
        let stats = store.stats();
        assert_eq!(stats.misses, 1, "first run is cold");
        assert!(stats.hits >= 1, "second run must warm-start");
        assert!(warm.qos_met);
        assert!(
            warm.samples_used() < cold.samples_used(),
            "warm {} vs cold {}",
            warm.samples_used(),
            cold.samples_used()
        );
    }

    #[test]
    fn policies_build_and_name() {
        for k in PolicyKind::ALL {
            assert!(!k.name().is_empty());
            let _ = k.build::<clite_sim::server::Server>(1);
        }
    }

    #[test]
    fn memoized_rerun_reuses_observations() {
        let mix = fig7_mix(0.2, 0.2, 0.2);
        let cache = ObservationCache::shared();
        let a = run_policy_memoized(PolicyKind::Oracle, &mix, 3, &cache);
        let misses_after_first = cache.lock().unwrap().misses();
        let b = run_policy_memoized(PolicyKind::Oracle, &mix, 4, &cache);
        assert_eq!(a.best_partition, b.best_partition, "ORACLE ignores server noise");
        let guard = cache.lock().unwrap();
        assert_eq!(
            guard.misses(),
            misses_after_first,
            "second ORACLE sweep must be answered entirely from the cache"
        );
        assert!(guard.hits() > 0);
    }

    #[test]
    fn max_supported_load_descends() {
        // ORACLE on an easy pair of fixed loads: highest feasible probe
        // load should be found.
        let max = max_supported_load(PolicyKind::Oracle, &[0.1, 0.5], 1, |l| fig7_mix(l, 0.1, 0.1));
        assert!(max.is_some());
    }
}
