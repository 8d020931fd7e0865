//! The BO loop (paper Algorithm 1), decoupled from what the score means.
//!
//! [`BoEngine`] owns the sampled history, the GP surrogate, and the
//! acquisition maximizer. Callers drive it:
//!
//! 1. evaluate the [`bootstrap_samples`](BoEngine::bootstrap_samples) and
//!    [`record`](BoEngine::record) their scores;
//! 2. repeatedly [`suggest`](BoEngine::suggest) → run the system under the
//!    suggested partition → `record` the observed score;
//! 3. stop when the suggestion's expected improvement satisfies the
//!    termination condition (see [`crate::termination`]).
//!
//! Dropout-copy enters through `suggest`'s `frozen` argument: the caller
//! (CLITE) picks which job to freeze and at which allocation; the engine
//! restricts the acquisition search accordingly.

use std::cmp::Ordering;
use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use clite_gp::gp::{GaussianProcess, GpConfig, PredictScratch};
use clite_gp::hyper::{fit_best_threaded, HyperGrid};
use clite_gp::kernel::{Kernel, KernelFamily};
use clite_sim::alloc::{JobAllocation, Partition};
use clite_sim::resource::NUM_RESOURCES;
use clite_telemetry::{Event, Phase, Telemetry};

use crate::acquisition::Acquisition;
use crate::bootstrap::bootstrap_partitions;
use crate::optimizer::{maximize_acquisition, AcquisitionEval, EvalScratch, OptimizerConfig};
use crate::space::SearchSpace;
use crate::BoError;

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BoConfig {
    /// Kernel family for the surrogate (paper: Matérn).
    pub kernel_family: KernelFamily,
    /// Hyperparameter grid scanned when the surrogate is refreshed.
    pub hyper_grid: HyperGrid,
    /// GP observation-noise variance (absorbs the simulator's measurement
    /// noise on scores).
    pub gp_noise: f64,
    /// Acquisition function (paper: EI with ζ = 0.01).
    pub acquisition: Acquisition,
    /// Acquisition-maximizer settings.
    pub optimizer: OptimizerConfig,
    /// Re-run the hyperparameter grid every this many new observations
    /// (between refreshes the previous kernel is reused — hyperparameters
    /// drift slowly, and the surrogate is extended incrementally via a
    /// rank-1 Cholesky update instead of refitted).
    pub hyper_refresh_every: usize,
    /// Pool slots for the hyper-grid scan on refresh (1 = serial; results
    /// are byte-identical for any value). Defaults to the global pool's
    /// executor count.
    pub hyper_threads: usize,
}

impl Default for BoConfig {
    fn default() -> Self {
        Self {
            kernel_family: KernelFamily::Matern52,
            hyper_grid: HyperGrid::default_unit(),
            gp_noise: 1e-4,
            acquisition: Acquisition::paper_default(),
            optimizer: OptimizerConfig::default(),
            hyper_refresh_every: 5,
            hyper_threads: clite_par::WorkerPool::global().size(),
        }
    }
}

impl BoConfig {
    /// Returns a copy with both parallel paths — the hyper-grid scan and
    /// the acquisition multi-start climbs — using up to `threads` pool
    /// executors (both default to the global pool's size; `1` pins the
    /// whole search inline on the caller). Suggestions are byte-identical
    /// for any thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.hyper_threads = threads;
        self.optimizer.threads = threads;
        self
    }
}

/// A suggested next configuration with its acquisition diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Suggestion {
    /// The partition to evaluate next.
    pub partition: Partition,
    /// Acquisition value at the suggestion (EI for the default config);
    /// feeds the termination condition.
    pub expected_improvement: f64,
    /// Surrogate posterior mean at the suggestion.
    pub posterior_mean: f64,
    /// Surrogate posterior standard deviation at the suggestion.
    pub posterior_std: f64,
}

/// The engine's acquisition surface: GP posterior fed into the configured
/// acquisition function, with the structural fast paths the hill climb
/// exposes through [`AcquisitionEval::best_neighbor`]:
///
/// * **Transfer-incremental distances** — a climb step's neighbours each
///   differ from the step base in exactly two feature coordinates (the
///   donor's and recipient's fraction of the transferred resource), so the
///   step caches the base's squared distances to every training point once
///   and shifts them in O(n) per neighbour instead of recomputing O(n·d).
/// * **Anchored variance bound** — the exact posterior mean is O(n); only
///   the variance needs the O(n²) triangular solve. Pass 1 bounds every
///   neighbour's posterior std from above in O(n)
///   ([`GaussianProcess::gate_append`]), anchored at the step base's
///   forward solve `v`: a neighbour's cross-covariance row is nearly
///   parallel to its base's, so the Cauchy–Schwarz bound through
///   `w = L⁻ᵀv` is nearly tight. The base's `v` is the previous step's
///   winner's, already solved in that step's pass 2; only a climb's first
///   step (or the one after a step-cache hit) forward-solves the base.
///   [`Acquisition::score_upper_bound`] plus [`Acquisition::score_margin`]
///   turns the std bound into an optimistic score that holds for the
///   computed score, and a candidate whose optimistic score cannot beat
///   the step's entry value (the floor never decreases within a step) is
///   dropped without a solve. The score at the anchor-free bound defines
///   the candidate set a step ranges over; it is checked only for
///   would-be winners.
/// * **Best-first exact resolution** — pass 2 solves the four most
///   optimistic survivors in one four-lane block
///   ([`GaussianProcess::batch_stds`]), then solves in one more batch only
///   the survivors whose optimistic score still reaches the running best:
///   about a third of the neighbourhood, where the anchor-free bound alone
///   would pass nine tenths. The solves run on the calling thread; batches
///   this small cannot pay for a pool dispatch. The pool's executors go to
///   the multi-start climbs instead, which by default claim starts on
///   every executor of the global pool.
///
/// None of this changes a climb trajectory — and therefore a suggestion:
/// a candidate left unsolved provably could not have won, a solved
/// candidate's std is bit-identical whichever batch it lands in, and the
/// argmax replays the serial visitor's first-strictly-better tie-breaking
/// (highest value, then lowest enumeration index).
pub struct SurrogateAcq<'a> {
    gp: &'a GaussianProcess,
    space: SearchSpace,
    acquisition: Acquisition,
    best_score: f64,
}

impl<'a> SurrogateAcq<'a> {
    /// The acquisition surface of `gp` over `space`, scoring improvement
    /// over the incumbent `best_score` — what [`BoEngine::suggest`]
    /// maximizes.
    #[must_use]
    pub fn new(
        gp: &'a GaussianProcess,
        space: SearchSpace,
        acquisition: Acquisition,
        best_score: f64,
    ) -> Self {
        Self { gp, space, acquisition, best_score }
    }

    /// Solves the survivors at positions `sel` in one batch and folds them
    /// into the running best `(value, survivor position)`, seeded at the
    /// step's `floor`; a new best's forward solve is kept in
    /// `scratch.winner_v` for the next step's anchor.
    fn resolve(&self, scratch: &mut EvalScratch, floor: f64, best: &mut (f64, Option<usize>)) {
        if scratch.sel.is_empty() {
            return;
        }
        let n = self.gp.len();
        scratch.kstar_sel.clear();
        for &pos in &scratch.sel {
            scratch.kstar_sel.extend_from_slice(&scratch.kstar_flat[pos * n..(pos + 1) * n]);
        }
        self.gp.batch_stds(&scratch.kstar_sel, &mut scratch.solve, &mut scratch.cand_stds);
        for (j, (&pos, &std)) in scratch.sel.iter().zip(&scratch.cand_stds).enumerate() {
            debug_assert!(
                std <= scratch.cand_std_upper[pos],
                "anchored std bound {} below exact std {std}",
                scratch.cand_std_upper[pos]
            );
            let mean = scratch.cand_means[pos];
            let v = self.acquisition.score(mean, std, self.best_score);
            // Survivor positions follow enumeration order, so comparing
            // positions breaks value ties towards the first enumerated.
            let wins = v > best.0 || (v == best.0 && best.1.is_some_and(|b| pos < b));
            // Only a would-be winner pays for the anchor-free gate that
            // defines the candidate set (see `best_neighbor`).
            if wins
                && self.acquisition.score_upper_bound(
                    mean,
                    scratch.cand_std_gate[pos],
                    self.best_score,
                ) > floor
            {
                *best = (v, Some(pos));
                scratch.winner_v.clear();
                scratch.winner_v.extend_from_slice(&scratch.solve.solutions()[j * n..(j + 1) * n]);
            }
        }
    }
}

impl AcquisitionEval for SurrogateAcq<'_> {
    fn eval(&self, p: &Partition, scratch: &mut EvalScratch) -> f64 {
        self.space.encode_into(p, &mut scratch.features);
        let (mean, std) = self.gp.predict_std_into(&scratch.features, &mut scratch.gp);
        self.acquisition.score(mean, std, self.best_score)
    }

    fn best_neighbor(
        &self,
        current: &Partition,
        frozen_job: Option<usize>,
        floor: f64,
        scratch: &mut EvalScratch,
    ) -> Option<(Partition, f64)> {
        let kernel = self.gp.kernel();
        self.space.encode_into(current, &mut scratch.features);
        self.gp.scaled_sq_dists_into(
            &scratch.features,
            &mut scratch.base_scaled,
            &mut scratch.base_sq_dists,
        );
        // Anchor the variance bound at the base: reuse the forward solve
        // the previous step computed for it as its winner, else solve it.
        if scratch.winner_of_step.as_ref() == Some(current) {
            self.gp.anchor_from_solve(&scratch.winner_v, &mut scratch.anchor);
        } else {
            self.gp.anchor_at(&scratch.base_sq_dists, &mut scratch.anchor);
        }
        scratch.winner_of_step = None;

        // Pass 1 — per neighbour: shift the base distances, compute the
        // exact mean and an optimistic score, and keep only candidates it
        // cannot rule out against the step's entry floor (the running
        // best within a step only rises above it). `upper`, from the
        // anchored bound plus the acquisition's rounding margin, provably
        // bounds the computed score; it gates and orders the solves below.
        // The anchor-free bound (`std_upper`) defines the candidate set
        // the step ranges over: a candidate whose score from that bound
        // does not top the floor never wins. In the far tails of EI and
        // PI, where computed scores stop being monotone in std, that can
        // exclude a candidate whose exact score tops the floor; keeping
        // the set bit-exact keeps every trajectory. It is checked only for
        // would-be winners, in `resolve`.
        scratch.kstar_flat.clear();
        scratch.cand_means.clear();
        scratch.cand_upper.clear();
        scratch.cand_std_upper.clear();
        scratch.cand_std_gate.clear();
        scratch.cand_idx.clear();
        let mut enum_idx = 0usize;
        current.for_each_neighbor_transfer(frozen_job, |n, transfer| {
            let idx = enum_idx;
            enum_idx += 1;
            let ri = transfer.resource.index();
            let col_from = transfer.from * NUM_RESOURCES + ri;
            let col_to = transfer.to * NUM_RESOURCES + ri;
            let changes = [
                (
                    col_from,
                    scratch.base_scaled[col_from],
                    kernel.scaled_coord(col_from, n.fraction(transfer.from, transfer.resource)),
                ),
                (
                    col_to,
                    scratch.base_scaled[col_to],
                    kernel.scaled_coord(col_to, n.fraction(transfer.to, transfer.resource)),
                ),
            ];
            self.gp.shift_sq_dists(&scratch.base_sq_dists, changes, &mut scratch.neighbor_sq_dists);
            let before = scratch.kstar_flat.len();
            let gated = self.gp.gate_append(
                &scratch.neighbor_sq_dists,
                &scratch.anchor,
                &mut scratch.kstar_flat,
            );
            let acq = self.acquisition;
            let (mean, std_upper) = (gated.mean, gated.std_upper_anchored);
            let upper = acq.score_upper_bound(mean, std_upper, self.best_score)
                + acq.score_margin(mean, std_upper, self.best_score);
            if upper <= floor {
                scratch.kstar_flat.truncate(before);
            } else {
                scratch.cand_means.push(mean);
                scratch.cand_upper.push(upper);
                scratch.cand_std_upper.push(std_upper);
                scratch.cand_std_gate.push(gated.std_upper);
                scratch.cand_idx.push(idx);
            }
        });
        let m = scratch.cand_idx.len();
        if m == 0 {
            return None;
        }

        // Pass 2 — best-first exact resolution: solve the four most
        // optimistic survivors, then every survivor whose bound still
        // reaches the running best (NaN bounds are never ruled out).
        // Neither batch needs an order within it: `resolve` breaks ties
        // by position, so only the split into batches matters.
        const HEAD: usize = 4;
        scratch.sel.clear();
        scratch.sel.extend(0..m);
        let upper = &scratch.cand_upper;
        if m > HEAD {
            scratch.sel.select_nth_unstable_by(HEAD - 1, |&a, &b| upper[b].total_cmp(&upper[a]));
        }
        scratch.rest.clear();
        scratch.rest.extend(scratch.sel.drain(m.min(HEAD)..));
        let mut best = (floor, None);
        self.resolve(scratch, floor, &mut best);
        let upper = &scratch.cand_upper;
        scratch.sel.clear();
        scratch.sel.extend(
            scratch
                .rest
                .iter()
                .filter(|&&pos| upper[pos].partial_cmp(&best.0) != Some(Ordering::Less)),
        );
        self.resolve(scratch, floor, &mut best);

        let (best_val, pos) = (best.0, best.1?);
        let n = current
            .nth_neighbor(frozen_job, scratch.cand_idx[pos])
            .expect("index enumerated by for_each_neighbor_transfer");
        scratch.winner_of_step = Some(n.clone());
        Some((n, best_val))
    }
}

/// The Bayesian-optimization engine over a partition search space.
#[derive(Debug, Clone)]
pub struct BoEngine {
    space: SearchSpace,
    config: BoConfig,
    history: Vec<(Partition, f64)>,
    visited: HashSet<Partition>,
    rng: StdRng,
    kernel: Option<Kernel>,
    records_since_refresh: usize,
    /// The maintained surrogate between hyper refreshes: kept in sync with
    /// `history` by O(n²) rank-1 extensions in `record`, so `suggest` only
    /// refits from scratch when the hyper grid is re-scanned.
    surrogate: Option<GaussianProcess>,
}

impl BoEngine {
    /// Builds an engine for `space`, seeded deterministically.
    #[must_use]
    pub fn new(space: SearchSpace, config: BoConfig, seed: u64) -> Self {
        Self {
            space,
            config,
            history: Vec::new(),
            visited: HashSet::new(),
            rng: StdRng::seed_from_u64(seed),
            kernel: None,
            records_since_refresh: 0,
            surrogate: None,
        }
    }

    /// The search space of this engine.
    #[must_use]
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The kernel chosen by the most recent hyper-grid refresh, if any
    /// (diagnostics; also lets benchmarks pit alternative surrogate
    /// implementations against the engine on the same EI landscape).
    #[must_use]
    pub fn current_kernel(&self) -> Option<&Kernel> {
        self.kernel.as_ref()
    }

    /// The paper's informed bootstrap set for this space.
    ///
    /// # Errors
    ///
    /// Propagates [`BoError::Space`] from extremum construction.
    pub fn bootstrap_samples(&self) -> Result<Vec<Partition>, BoError> {
        bootstrap_partitions(&self.space)
    }

    /// Records one evaluated configuration.
    pub fn record(&mut self, partition: Partition, score: f64) {
        self.record_with(partition, score, &Telemetry::disabled());
    }

    /// [`record`](BoEngine::record) with telemetry: when a surrogate is
    /// maintained and the next suggestion will not re-scan the hyper grid
    /// anyway, the surrogate is extended in place by a rank-1 Cholesky
    /// update (O(n²), timed as [`Phase::GpExtend`]) instead of being
    /// refitted from scratch (O(n³)) on the next `suggest`.
    pub fn record_with(&mut self, partition: Partition, score: f64, telemetry: &Telemetry<'_>) {
        let refresh_next = self.kernel.is_none()
            || self.records_since_refresh + 1 >= self.config.hyper_refresh_every;
        if refresh_next {
            // The next suggest refits from scratch; keeping the stale
            // surrogate would only risk serving it by accident.
            self.surrogate = None;
        } else if let Some(gp) = self.surrogate.take() {
            if gp.len() == self.history.len() {
                let x = self.space.encode(&partition);
                // A failed extension (and the fallback refit inside it)
                // just drops the surrogate; the next suggest refits.
                self.surrogate = telemetry.time(Phase::GpExtend, || gp.extended(x, score)).ok();
            }
        }
        self.visited.insert(partition.clone());
        self.history.push((partition, score));
        self.records_since_refresh += 1;
    }

    /// Seeds the engine with pre-recorded `(partition, score)` samples
    /// before its first suggestion — the warm-start path for re-invoked
    /// searches. Entries are recorded in the order given (callers must
    /// pass a deterministic order for reproducible runs); each marks its
    /// partition visited, so the engine never re-proposes a stored point.
    pub fn warm_start(&mut self, entries: impl IntoIterator<Item = (Partition, f64)>) {
        for (partition, score) in entries {
            self.record(partition, score);
        }
    }

    /// Quarantines `partition`: marks it visited so the engine never
    /// re-proposes it, **without** entering it into the surrogate history.
    /// This is the fault-hardening path for observations rejected by the
    /// controller's outlier guard — a measurement too inconsistent with
    /// the posterior to trust must not train the GP, but re-proposing the
    /// same point would just re-measure the same faulty configuration.
    pub fn quarantine(&mut self, partition: Partition) {
        self.visited.insert(partition);
    }

    /// Number of recorded evaluations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// The recorded history in evaluation order.
    #[must_use]
    pub fn history(&self) -> &[(Partition, f64)] {
        &self.history
    }

    /// Best recorded `(partition, score)` so far.
    #[must_use]
    pub fn best(&self) -> Option<(&Partition, f64)> {
        self.history.iter().max_by(|a, b| a.1.total_cmp(&b.1)).map(|(p, s)| (p, *s))
    }

    /// Best recorded score among configurations where `keep` holds (used by
    /// dropout-copy to find a job's best row).
    #[must_use]
    pub fn best_where(
        &self,
        mut keep: impl FnMut(&Partition, f64) -> bool,
    ) -> Option<(&Partition, f64)> {
        self.history
            .iter()
            .filter(|(p, s)| keep(p, *s))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(p, s)| (p, *s))
    }

    /// Runs one iteration of Algorithm 1: refresh the surrogate, maximize
    /// the acquisition (optionally with a frozen dropout row), and return
    /// the next configuration to evaluate.
    ///
    /// # Errors
    ///
    /// Returns [`BoError::NoHistory`] before any `record`,
    /// [`BoError::Surrogate`] if the GP cannot be fitted, and
    /// [`BoError::NoCandidate`] if no feasible unsampled candidate exists.
    pub fn suggest(
        &mut self,
        frozen: Option<(usize, JobAllocation)>,
    ) -> Result<Suggestion, BoError> {
        self.suggest_with(frozen, &Telemetry::disabled())
    }

    /// [`suggest`](BoEngine::suggest) with telemetry: the GP fit and the
    /// acquisition maximization are timed as their Fig. 15b phases, and
    /// hyper-grid refreshes emit [`Event::GpRefit`].
    ///
    /// # Errors
    ///
    /// See [`BoEngine::suggest`].
    pub fn suggest_with(
        &mut self,
        frozen: Option<(usize, JobAllocation)>,
        telemetry: &Telemetry<'_>,
    ) -> Result<Suggestion, BoError> {
        let gp = self.fit_surrogate_with(telemetry)?;

        let best_score = self.best().map(|(_, s)| s).unwrap_or(0.0);
        let acq = SurrogateAcq::new(&gp, self.space, self.config.acquisition, best_score);

        // Warm starts: the incumbent best and the most recent sample.
        let mut seeds: Vec<Partition> = Vec::new();
        if let Some((p, _)) = self.best() {
            seeds.push(p.clone());
        }
        if let Some((p, _)) = self.history.last() {
            if seeds.first() != Some(p) {
                seeds.push(p.clone());
            }
        }

        let (partition, ei) = telemetry
            .time(Phase::Acquisition, || {
                maximize_acquisition(
                    &self.space,
                    self.config.optimizer,
                    acq,
                    &seeds,
                    frozen,
                    &self.visited,
                    &mut self.rng,
                )
            })?
            .ok_or(BoError::NoCandidate)?;

        let (posterior_mean, posterior_std) = gp.predict_std(&self.space.encode(&partition));
        Ok(Suggestion { partition, expected_improvement: ei, posterior_mean, posterior_std })
    }

    /// Local exploitation ("polish") move: the best unvisited candidate by
    /// posterior mean, from a caller-supplied candidate set (typically
    /// unit-transfer donations around the incumbent). Used when the global
    /// acquisition dries up — a smooth global surrogate can have near-zero
    /// EI everywhere while genuine improvements still hide one transfer
    /// away from the incumbent; sampling those candidates both exploits
    /// them and teaches the surrogate local structure. Returns `Ok(None)`
    /// when every candidate has been visited.
    ///
    /// # Errors
    ///
    /// Returns [`BoError::NoHistory`] before any `record` and
    /// [`BoError::Surrogate`] if the GP cannot be fitted.
    pub fn suggest_among(
        &mut self,
        candidates: &[Partition],
    ) -> Result<Option<Suggestion>, BoError> {
        self.suggest_among_with(candidates, &Telemetry::disabled())
    }

    /// [`suggest_among`](BoEngine::suggest_among) with telemetry.
    ///
    /// # Errors
    ///
    /// See [`BoEngine::suggest_among`].
    pub fn suggest_among_with(
        &mut self,
        candidates: &[Partition],
        telemetry: &Telemetry<'_>,
    ) -> Result<Option<Suggestion>, BoError> {
        let gp = self.fit_surrogate_with(telemetry)?;
        let best_score = self.best().map(|(_, s)| s).ok_or(BoError::NoHistory)?;
        let mut features = Vec::new();
        let mut scratch = PredictScratch::default();
        let mut best: Option<(Partition, f64, f64)> = None;
        for n in candidates {
            if self.visited.contains(n) {
                continue;
            }
            self.space.encode_into(n, &mut features);
            let (mean, std) = gp.predict_std_into(&features, &mut scratch);
            if best.as_ref().is_none_or(|(_, m, _)| mean > *m) {
                best = Some((n.clone(), mean, std));
            }
        }
        Ok(best.map(|(partition, posterior_mean, posterior_std)| Suggestion {
            expected_improvement: (posterior_mean - best_score).max(0.0),
            partition,
            posterior_mean,
            posterior_std,
        }))
    }

    /// Takes the *first unvisited* candidate from a priority-ordered list
    /// (highest-priority first), reporting its posterior stats. Used for
    /// counter-guided local moves where the caller's domain knowledge
    /// (e.g. "the weakest job's bandwidth counter is pinned at its share")
    /// ranks moves better than a smooth global surrogate can.
    ///
    /// # Errors
    ///
    /// Returns [`BoError::NoHistory`] before any `record` and
    /// [`BoError::Surrogate`] if the GP cannot be fitted.
    pub fn suggest_ordered(
        &mut self,
        candidates: &[Partition],
    ) -> Result<Option<Suggestion>, BoError> {
        self.suggest_ordered_with(candidates, &Telemetry::disabled())
    }

    /// [`suggest_ordered`](BoEngine::suggest_ordered) with telemetry.
    ///
    /// # Errors
    ///
    /// See [`BoEngine::suggest_ordered`].
    pub fn suggest_ordered_with(
        &mut self,
        candidates: &[Partition],
        telemetry: &Telemetry<'_>,
    ) -> Result<Option<Suggestion>, BoError> {
        let Some(partition) = candidates.iter().find(|p| !self.visited.contains(*p)) else {
            return Ok(None);
        };
        let gp = self.fit_surrogate_with(telemetry)?;
        let best_score = self.best().map(|(_, s)| s).ok_or(BoError::NoHistory)?;
        let (posterior_mean, posterior_std) = gp.predict_std(&self.space.encode(partition));
        Ok(Some(Suggestion {
            expected_improvement: (posterior_mean - best_score).max(0.0),
            partition: partition.clone(),
            posterior_mean,
            posterior_std,
        }))
    }

    /// Convenience polish over all single-unit-transfer neighbours of the
    /// incumbent best, optionally honouring a frozen row.
    ///
    /// # Errors
    ///
    /// See [`BoEngine::suggest_among`].
    pub fn suggest_polish(
        &mut self,
        frozen: Option<(usize, JobAllocation)>,
    ) -> Result<Option<Suggestion>, BoError> {
        self.suggest_polish_with(frozen, &Telemetry::disabled())
    }

    /// [`suggest_polish`](BoEngine::suggest_polish) with telemetry.
    ///
    /// # Errors
    ///
    /// See [`BoEngine::suggest_among`].
    pub fn suggest_polish_with(
        &mut self,
        frozen: Option<(usize, JobAllocation)>,
        telemetry: &Telemetry<'_>,
    ) -> Result<Option<Suggestion>, BoError> {
        let incumbent = self.best().ok_or(BoError::NoHistory)?.0.clone();
        let frozen_job = match &frozen {
            Some((j, row)) if incumbent.job(*j) == row => Some(*j),
            _ => None,
        };
        let candidates = incumbent.neighbors(frozen_job);
        self.suggest_among_with(&candidates, telemetry)
    }

    /// Fits (or refreshes) the GP surrogate on the recorded history.
    ///
    /// Three paths, cheapest first:
    /// 1. between refreshes, the surrogate maintained by
    ///    [`record_with`](BoEngine::record_with)'s rank-1 extensions is
    ///    served directly (no linear algebra at all);
    /// 2. if that surrogate was lost (extension failure, deserialized
    ///    state), the history is refitted under the cached kernel
    ///    (one O(n³) factorization, timed as [`Phase::GpFit`]);
    /// 3. on hyper refresh, the full grid is re-scanned over a shared
    ///    pairwise-distance matrix ([`fit_best_threaded`]), timed as
    ///    [`Phase::GpFit`] and emitting [`Event::GpRefit`].
    fn fit_surrogate_with(
        &mut self,
        telemetry: &Telemetry<'_>,
    ) -> Result<GaussianProcess, BoError> {
        if self.history.is_empty() {
            return Err(BoError::NoHistory);
        }
        let gp_config = GpConfig { noise_variance: self.config.gp_noise };

        let refresh =
            self.kernel.is_none() || self.records_since_refresh >= self.config.hyper_refresh_every;
        if !refresh {
            if let Some(gp) = &self.surrogate {
                if gp.len() == self.history.len() {
                    return Ok(gp.clone());
                }
            }
        }

        let xs: Vec<Vec<f64>> = self.history.iter().map(|(p, _)| self.space.encode(p)).collect();
        let ys: Vec<f64> = self.history.iter().map(|(_, s)| *s).collect();

        let fitted = if refresh {
            let template = Kernel::new(self.config.kernel_family, 1.0, 1.0);
            let fitted = telemetry.time(Phase::GpFit, || {
                fit_best_threaded(
                    &template,
                    gp_config,
                    &self.config.hyper_grid,
                    &xs,
                    &ys,
                    self.config.hyper_threads,
                )
            })?;
            self.kernel = Some(fitted.kernel().clone());
            self.records_since_refresh = 0;
            let summary = fitted.fit_summary();
            telemetry.emit(Event::GpRefit {
                observations: summary.observations,
                lengthscale: summary.lengthscale,
                signal_variance: summary.signal_variance,
                log_marginal: summary.log_marginal,
            });
            fitted
        } else {
            let kernel = self.kernel.clone().ok_or(BoError::KernelMissing)?;
            telemetry.time(Phase::GpFit, || GaussianProcess::fit(kernel, gp_config, xs, ys))?
        };
        self.surrogate = Some(fitted.clone());
        Ok(fitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clite_sim::resource::{ResourceCatalog, ResourceKind};

    fn engine(jobs: usize, seed: u64) -> BoEngine {
        let space = SearchSpace::new(ResourceCatalog::testbed(), jobs).unwrap();
        BoEngine::new(space, BoConfig::default(), seed)
    }

    /// A deterministic synthetic objective with a known optimum: reward
    /// job 0's cores and job 1's ways.
    fn objective(p: &Partition) -> f64 {
        0.6 * p.fraction(0, ResourceKind::Cores) + 0.4 * p.fraction(1, ResourceKind::LlcWays)
    }

    #[test]
    fn suggest_before_record_errors() {
        let mut e = engine(2, 1);
        assert!(matches!(e.suggest(None), Err(BoError::NoHistory)));
    }

    #[test]
    fn warm_start_primes_history_and_skips_stored_points() {
        let mut warm = engine(2, 3);
        let seeds: Vec<(Partition, f64)> = engine(2, 3)
            .bootstrap_samples()
            .unwrap()
            .into_iter()
            .map(|p| {
                let y = objective(&p);
                (p, y)
            })
            .collect();
        warm.warm_start(seeds.clone());
        assert_eq!(warm.len(), seeds.len());
        assert_eq!(warm.best().unwrap().1, seeds.iter().map(|s| s.1).fold(f64::MIN, f64::max));

        // A warm engine can suggest immediately, and never re-proposes a
        // stored partition.
        let s = warm.suggest(None).unwrap();
        assert!(seeds.iter().all(|(p, _)| *p != s.partition));

        // Warm-started and manually-recorded engines are byte-equivalent.
        let mut cold = engine(2, 3);
        for (p, y) in seeds {
            cold.record(p, y);
        }
        let s2 = cold.suggest(None).unwrap();
        assert_eq!(s.partition, s2.partition);
    }

    #[test]
    fn engine_improves_over_bootstrap() {
        let mut e = engine(2, 2);
        for p in e.bootstrap_samples().unwrap() {
            let y = objective(&p);
            e.record(p, y);
        }
        let bootstrap_best = e.best().unwrap().1;
        for _ in 0..15 {
            let s = e.suggest(None).unwrap();
            let y = objective(&s.partition);
            e.record(s.partition, y);
        }
        let final_best = e.best().unwrap().1;
        assert!(final_best >= bootstrap_best);
        // Known optimum: job 0 has 9 cores, job 1 has 10 ways
        // => 0.6·0.9 + 0.4·(10/11) ≈ 0.9036. Engine should get close.
        assert!(final_best > 0.85, "final best {final_best}");
    }

    #[test]
    fn suggestions_are_never_repeats() {
        let mut e = engine(2, 3);
        for p in e.bootstrap_samples().unwrap() {
            let y = objective(&p);
            e.record(p, y);
        }
        let mut seen: HashSet<Partition> = e.history().iter().map(|(p, _)| p.clone()).collect();
        for _ in 0..10 {
            let s = e.suggest(None).unwrap();
            assert!(!seen.contains(&s.partition), "suggested an already-sampled partition");
            seen.insert(s.partition.clone());
            let y = objective(&s.partition);
            e.record(s.partition, y);
        }
    }

    #[test]
    fn frozen_row_respected_in_suggestions() {
        let mut e = engine(3, 4);
        for p in e.bootstrap_samples().unwrap() {
            let y = objective(&p);
            e.record(p, y);
        }
        let frozen_row = *e.space().equal_share().unwrap().job(2);
        for _ in 0..5 {
            let s = e.suggest(Some((2, frozen_row))).unwrap();
            assert_eq!(s.partition.job(2), &frozen_row);
            let y = objective(&s.partition);
            e.record(s.partition, y);
        }
    }

    #[test]
    fn ei_diagnostics_are_finite_and_nonnegative() {
        let mut e = engine(2, 5);
        for p in e.bootstrap_samples().unwrap() {
            let y = objective(&p);
            e.record(p, y);
        }
        let s = e.suggest(None).unwrap();
        assert!(s.expected_improvement.is_finite() && s.expected_improvement >= 0.0);
        assert!(s.posterior_std >= 0.0);
        assert!(s.posterior_mean.is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut e = engine(2, seed);
            for p in e.bootstrap_samples().unwrap() {
                let y = objective(&p);
                e.record(p, y);
            }
            let mut trace = Vec::new();
            for _ in 0..5 {
                let s = e.suggest(None).unwrap();
                trace.push(s.partition.clone());
                let y = objective(&s.partition);
                e.record(s.partition, y);
            }
            trace
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn best_where_filters() {
        let mut e = engine(2, 6);
        for p in e.bootstrap_samples().unwrap() {
            let y = objective(&p);
            e.record(p, y);
        }
        let all_best = e.best().unwrap().1;
        let constrained = e.best_where(|p, _| p.units(0, ResourceKind::Cores) <= 2).map(|(_, s)| s);
        if let Some(c) = constrained {
            assert!(c <= all_best);
        }
    }
}
