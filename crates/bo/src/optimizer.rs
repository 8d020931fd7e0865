//! Constrained acquisition maximization.
//!
//! The paper solves `maximize a(x(j,r))` subject to the per-resource
//! simplex constraints (Eq. 4–6) with constrained SLSQP over a continuous
//! relaxation. The feasible set is really a product of integer simplices,
//! whose natural neighbourhood is the *single-unit transfer* (move one unit
//! of one resource between two jobs). This module maximizes the acquisition
//! directly in that discrete space: steepest-ascent hill climbing from a
//! set of seeds (incumbent-derived plus random restarts), optionally with
//! one job's row frozen (dropout-copy, Sec. 4).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::Rng;

use clite_gp::gp::{BatchScratch, PredictScratch, VarianceAnchor};
use clite_sim::alloc::{JobAllocation, Partition};

use crate::space::SearchSpace;

/// Configuration for the hill-climbing acquisition maximizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Number of random restart points added to the provided seeds.
    pub random_restarts: usize,
    /// Maximum steepest-ascent steps per start point.
    pub max_steps: usize,
    /// Executors for the independent hill-climb starts: at most this many
    /// pool slots claim starts, each from a shared counter (1 = in-line
    /// serial, never touching the shared pool; results are byte-identical
    /// at any count). Defaults to the global pool's executor count; climbs
    /// with almost no neighbours to visit run inline regardless.
    pub threads: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self { random_restarts: 4, max_steps: 25, threads: clite_par::WorkerPool::global().size() }
    }
}

/// Reusable per-worker buffers threaded through every acquisition
/// evaluation: the candidate's feature encoding plus the GP prediction
/// scratch. One hill climb evaluates thousands of neighbours; with this
/// scratch the whole climb allocates nothing per candidate.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Feature-encoding buffer (see `SearchSpace::encode_into`).
    pub features: Vec<f64>,
    /// GP prediction buffers.
    pub gp: PredictScratch,
    /// Scaled feature encoding of the current climb step's base partition
    /// (batched evaluators only).
    pub base_scaled: Vec<f64>,
    /// Squared scaled distances from the step base to every training
    /// point (batched evaluators only).
    pub base_sq_dists: Vec<f64>,
    /// Per-neighbour shifted squared distances (batched evaluators only).
    pub neighbor_sq_dists: Vec<f64>,
    /// Cross-covariance rows of every candidate that survived the bound
    /// gate this step, concatenated (batched evaluators only).
    pub kstar_flat: Vec<f64>,
    /// Posterior means of the surviving candidates, same order as
    /// `kstar_flat` rows.
    pub cand_means: Vec<f64>,
    /// Optimistic acquisition scores of the surviving candidates.
    pub cand_upper: Vec<f64>,
    /// Anchored posterior std upper bounds of the surviving candidates.
    pub cand_std_upper: Vec<f64>,
    /// Anchor-free posterior std upper bounds of the surviving candidates
    /// (the bound that defines a step's candidate set).
    pub cand_std_gate: Vec<f64>,
    /// Neighbour-enumeration indices of the surviving candidates.
    pub cand_idx: Vec<usize>,
    /// Positions of the survivors in the batch being solved.
    pub sel: Vec<usize>,
    /// Positions of the survivors left for the second batch.
    pub rest: Vec<usize>,
    /// Cross-covariance rows of the batch being solved.
    pub kstar_sel: Vec<f64>,
    /// Exact posterior standard deviations of the batch being solved.
    pub cand_stds: Vec<f64>,
    /// Batched triangular-solve scratch.
    pub solve: BatchScratch,
    /// Direction of the current step's anchored variance bound.
    pub anchor: VarianceAnchor,
    /// The last step's winner, whose forward solve is `winner_v`: the
    /// next step anchors on it without a solve if it starts there.
    pub winner_of_step: Option<Partition>,
    /// Forward solve `L⁻¹k*` of the running (then final) step winner.
    pub winner_v: Vec<f64>,
}

/// A memoized [`AcquisitionEval::best_neighbor`] result, keyed in a
/// climb set's shared step cache by the step's base partition.
///
/// Caching across differing floors is sound because the result is
/// floor-independent whenever a winner exists: the running max returns the
/// first enumeration-order argmax of the *whole* neighbourhood and its
/// exact value (candidates at or below the floor can never tie a winner,
/// whose value strictly exceeds the floor). A `None` result only certifies
/// "no neighbour above this floor", so it is recorded with the floor it
/// was computed at and replayed only for floors at least as high.
#[derive(Debug, Clone)]
pub enum StepOutcome {
    /// The neighbourhood's first argmax and its value (floor-independent).
    Best(Partition, f64),
    /// No neighbour strictly exceeded the recorded floor.
    NoneAtFloor(f64),
}

/// Below this many first-step neighbours summed over all starts, the
/// climbs run inline: measured on a 2-core VM, such a climb set takes
/// ~25 µs, about what waking a pool worker costs (~20 µs), while sets of
/// 40 or more take 100 µs and up.
const POOLED_MIN_NEIGHBOURS: usize = 32;

/// Memoized climb steps of one [`maximize_acquisition`] call, shared by
/// every executor. Multiple starts converge to the same optima and replay
/// identical neighbour sweeps; each hit skips a full `best_neighbor` pass.
/// It lives for one call, over which the acquisition surface is fixed.
type StepCache = Mutex<HashMap<Partition, StepOutcome>>;

/// An acquisition surface a hill climb can evaluate, with an optional
/// whole-step batched fast path.
///
/// The plain entry point is [`AcquisitionEval::eval`]; any
/// `Fn(&Partition, &mut EvalScratch) -> f64 + Sync` closure implements the
/// trait through it. Evaluators that can exploit the climb's structure
/// (every candidate of a step differs from the step base by one unit
/// transfer, and steepest ascent needs only the step's argmax) override
/// [`AcquisitionEval::best_neighbor`].
pub trait AcquisitionEval: Sync {
    /// Exact acquisition value at `p`.
    fn eval(&self, p: &Partition, scratch: &mut EvalScratch) -> f64;

    /// Returns the neighbour of `current` (with `frozen_job` untouched)
    /// whose acquisition value is highest, together with that value — or
    /// `None` if no neighbour's value strictly exceeds `floor`.
    ///
    /// Ties must resolve to the *first* strictly-better neighbour in
    /// [`Partition::for_each_neighbor_transfer`] enumeration order, i.e.
    /// exactly what the default implementation (a running max seeded at
    /// `floor`) produces. Implementations may evaluate candidates lazily
    /// or in bulk as long as the returned pair is identical.
    fn best_neighbor(
        &self,
        current: &Partition,
        frozen_job: Option<usize>,
        floor: f64,
        scratch: &mut EvalScratch,
    ) -> Option<(Partition, f64)> {
        let mut best: Option<Partition> = None;
        let mut best_val = floor;
        current.for_each_neighbor(frozen_job, |n| {
            let v = self.eval(n, scratch);
            if v > best_val {
                best_val = v;
                best = Some(n.clone());
            }
        });
        best.map(|p| (p, best_val))
    }
}

impl<F> AcquisitionEval for F
where
    F: Fn(&Partition, &mut EvalScratch) -> f64 + Sync,
{
    fn eval(&self, p: &Partition, scratch: &mut EvalScratch) -> f64 {
        self(p, scratch)
    }
}

/// Maximizes `acq` over the feasible partitions of `space`.
///
/// * `seeds` — warm-start points (e.g. the incumbent best); random restarts
///   are added on top.
/// * `frozen` — dropout-copy: `(job, row)` fixes that job's allocation to
///   `row` in every candidate; hill-climbing moves never touch it.
/// * `tabu` — partitions already sampled; they are skipped as *final*
///   answers (their acquisition is typically zero anyway, but observation
///   noise can make re-sampling look attractive).
///
/// Returns `Ok(Some(_))` with the best candidate found and its acquisition
/// value, or `Ok(None)` if every reachable candidate is tabu.
///
/// The randomness (restart points, seed jitter) is consumed from `rng`
/// serially up front; the climbs themselves are deterministic. Up to
/// `config.threads` executors of the shared [`clite_par`] worker pool
/// claim starts one at a time from a counter and share one step cache;
/// the pool runs the same loop inline when the width is 1 or no worker is
/// idle. The result is **byte-identical at any width**: each start's
/// outcome is a pure function of its start point (see `climb`), outcomes
/// are kept by start index, and the reduction replays the serial loop's
/// first-strictly-better tie-breaking in start order.
///
/// # Errors
///
/// Returns [`BoError::Space`](crate::BoError::Space) if a random restart
/// point cannot be generated (an internal space inconsistency).
pub fn maximize_acquisition(
    space: &SearchSpace,
    config: OptimizerConfig,
    acq: impl AcquisitionEval,
    seeds: &[Partition],
    frozen: Option<(usize, JobAllocation)>,
    tabu: &HashSet<Partition>,
    rng: &mut StdRng,
) -> Result<Option<(Partition, f64)>, crate::BoError> {
    let frozen_job = frozen.as_ref().map(|(j, _)| *j);

    let mut starts: Vec<Partition> = Vec::with_capacity(seeds.len() + config.random_restarts);
    starts.extend_from_slice(seeds);
    for _ in 0..config.random_restarts {
        starts.push(space.random(rng)?);
    }
    // Jitter half the seeds with a couple of random transfers so warm
    // starts don't all climb the same hill.
    let mut jittered: Vec<Partition> = Vec::new();
    for p in &starts {
        if rng.gen_bool(0.5) {
            jittered.push(jitter(p, frozen_job, rng));
        }
    }
    starts.extend(jittered);

    // Apply the frozen row up front; skip starts that cannot host it.
    let starts: Vec<Partition> = starts
        .into_iter()
        .filter_map(|start| match &frozen {
            Some((job, row)) => start.with_frozen_row(*job, row).ok(),
            None => Some(start),
        })
        .collect();

    // Executors claim starts in any order and share one step cache; each
    // start's outcome is stored at its index, so the reduction below sees
    // the same sequence at any width (see `climb`). Width 1 (or a pool
    // with no idle worker) runs this same body inline on the caller. So do
    // climbs too small to pay for waking a worker: single-job spaces and
    // frozen rows can leave no neighbour to climb to at all.
    let cache: StepCache = Mutex::new(HashMap::new());
    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<Option<(Partition, f64)>>> = Mutex::new(vec![None; starts.len()]);
    let neighbours: usize = starts.iter().map(|s| s.neighbor_count(frozen_job)).sum();
    let width =
        if neighbours < POOLED_MIN_NEIGHBOURS { 1 } else { config.threads.clamp(1, starts.len()) };
    clite_par::WorkerPool::global().dispatch(width, |_| {
        let mut scratch = EvalScratch::default();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(start) = starts.get(i) else { break };
            let outcome =
                climb(&acq, start, frozen_job, config.max_steps, tabu, &cache, &mut scratch);
            outcomes.lock().unwrap_or_else(PoisonError::into_inner)[i] = outcome;
        }
    });

    let mut best: Option<(Partition, f64)> = None;
    for (partition, value) in
        outcomes.into_inner().unwrap_or_else(PoisonError::into_inner).into_iter().flatten()
    {
        if best.as_ref().is_none_or(|(_, bv)| value > *bv) {
            best = Some((partition, value));
        }
    }
    Ok(best)
}

/// Climbs from `start` to a local optimum, then (only if it is tabu) falls
/// back to its best non-tabu neighbour, so the engine always gets fresh
/// information.
///
/// The outcome is a pure function of `start`, whatever `cache` holds and
/// whichever scratch runs it: a hit replays an outcome only where it
/// equals what `best_neighbor` would compute (see [`StepOutcome`]), and a
/// miss computes it. So executors may claim starts in any order and share
/// one cache. The cache lock is not held across a step's computation; two
/// executors racing on one base both store a valid outcome.
fn climb(
    acq: &impl AcquisitionEval,
    start: &Partition,
    frozen_job: Option<usize>,
    max_steps: usize,
    tabu: &HashSet<Partition>,
    cache: &StepCache,
    scratch: &mut EvalScratch,
) -> Option<(Partition, f64)> {
    let mut current = start.clone();
    let mut current_val = acq.eval(&current, scratch);
    for _ in 0..max_steps {
        let cached = match cache.lock().unwrap_or_else(PoisonError::into_inner).get(&current) {
            Some(StepOutcome::Best(p, v)) => {
                Some(if *v > current_val { Some((p.clone(), *v)) } else { None })
            }
            Some(StepOutcome::NoneAtFloor(f)) if current_val >= *f => Some(None),
            _ => None,
        };
        let step = cached.unwrap_or_else(|| {
            let step = acq.best_neighbor(&current, frozen_job, current_val, scratch);
            let outcome = match &step {
                Some((p, v)) => StepOutcome::Best(p.clone(), *v),
                None => StepOutcome::NoneAtFloor(current_val),
            };
            cache.lock().unwrap_or_else(PoisonError::into_inner).insert(current.clone(), outcome);
            step
        });
        match step {
            Some((n, v)) => {
                current = n;
                current_val = v;
            }
            None => break,
        }
    }

    if !tabu.contains(&current) {
        return Some((current, current_val));
    }
    // The tabu fallback is a once-per-climb corner case, so it takes the
    // exact (unbatched) path.
    let mut alt: Option<(Partition, f64)> = None;
    current.for_each_neighbor(frozen_job, |n| {
        if tabu.contains(n) {
            return;
        }
        let v = acq.eval(n, scratch);
        if alt.as_ref().is_none_or(|(_, av)| v > *av) {
            alt = Some((n.clone(), v));
        }
    });
    alt
}

/// Applies 1–3 random feasible unit transfers to diversify a start point.
/// Each transfer is sampled directly by index ([`Partition::nth_neighbor`])
/// instead of materializing the full neighbour list; the RNG draw sequence
/// (`1..=3`, then one index per move) matches the old materializing
/// implementation, so jittered starts are unchanged.
fn jitter(p: &Partition, frozen_job: Option<usize>, rng: &mut StdRng) -> Partition {
    let mut out = p.clone();
    let moves = rng.gen_range(1..=3);
    for _ in 0..moves {
        let count = out.neighbor_count(frozen_job);
        if count == 0 {
            break;
        }
        let index = rng.gen_range(0..count);
        out = out.nth_neighbor(frozen_job, index).expect("index < neighbor_count");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clite_sim::resource::{ResourceCatalog, ResourceKind};
    use rand::SeedableRng;

    fn space(jobs: usize) -> SearchSpace {
        SearchSpace::new(ResourceCatalog::testbed(), jobs).unwrap()
    }

    #[test]
    fn finds_obvious_optimum() {
        // Acquisition = job 0's core fraction: optimum gives job 0 all
        // transferable cores.
        let s = space(2);
        let mut rng = StdRng::seed_from_u64(1);
        let (best, val) = maximize_acquisition(
            &s,
            OptimizerConfig::default(),
            |p: &Partition, _: &mut EvalScratch| p.fraction(0, ResourceKind::Cores),
            &[s.equal_share().unwrap()],
            None,
            &HashSet::new(),
            &mut rng,
        )
        .unwrap()
        .unwrap();
        assert_eq!(best.units(0, ResourceKind::Cores), 9);
        assert!((val - 0.9).abs() < 1e-12);
    }

    #[test]
    fn respects_frozen_row() {
        let s = space(3);
        let mut rng = StdRng::seed_from_u64(2);
        let frozen_row = *s.equal_share().unwrap().job(1);
        let (best, _) = maximize_acquisition(
            &s,
            OptimizerConfig::default(),
            |p: &Partition, _: &mut EvalScratch| p.fraction(0, ResourceKind::LlcWays),
            &[s.equal_share().unwrap()],
            Some((1, frozen_row)),
            &HashSet::new(),
            &mut rng,
        )
        .unwrap()
        .unwrap();
        assert_eq!(best.job(1), &frozen_row, "frozen job's row must be untouched");
        // Job 0 still maximized its ways subject to the freeze.
        assert!(
            best.units(0, ResourceKind::LlcWays)
                > s.equal_share().unwrap().units(0, ResourceKind::LlcWays)
        );
    }

    #[test]
    fn avoids_tabu_points() {
        let s = space(2);
        let mut rng = StdRng::seed_from_u64(3);
        // Make the global optimum tabu; the maximizer must return something
        // else.
        let optimum = s.max_for_job(0).unwrap();
        let mut tabu = HashSet::new();
        tabu.insert(optimum.clone());
        let found = maximize_acquisition(
            &s,
            OptimizerConfig::default(),
            |p: &Partition, _: &mut EvalScratch| p.features().iter().take(5).sum::<f64>(),
            &[s.equal_share().unwrap()],
            None,
            &tabu,
            &mut rng,
        );
        let (best, _) = found.unwrap().unwrap();
        assert_ne!(best, optimum);
    }

    #[test]
    fn multimodal_surface_benefits_from_restarts() {
        // Two distant optima; hill climbing from the single seed lands in
        // one, restarts make the search robust to the seed choice.
        let s = space(2);
        let mut rng = StdRng::seed_from_u64(4);
        let target_a = s.max_for_job(0).unwrap().features();
        let target_b = s.max_for_job(1).unwrap().features();
        let acq = |p: &Partition, scratch: &mut EvalScratch| {
            p.features_into(&mut scratch.features);
            let f = &scratch.features;
            let da: f64 = f.iter().zip(&target_a).map(|(x, t)| (x - t).abs()).sum();
            let db: f64 = f.iter().zip(&target_b).map(|(x, t)| (x - t).abs()).sum();
            (-da).exp() + 1.5 * (-db).exp()
        };
        let (best, _) = maximize_acquisition(
            &s,
            OptimizerConfig { random_restarts: 8, max_steps: 40, threads: 1 },
            acq,
            &[s.max_for_job(0).unwrap()],
            None,
            &HashSet::new(),
            &mut rng,
        )
        .unwrap()
        .unwrap();
        // The better optimum (job 1 maxed) should win despite the seed.
        assert_eq!(best, s.max_for_job(1).unwrap());
    }

    #[test]
    fn parallel_starts_byte_identical_to_serial() {
        let s = space(3);
        let target = s.max_for_job(1).unwrap().features();
        let acq = |p: &Partition, scratch: &mut EvalScratch| {
            p.features_into(&mut scratch.features);
            let d: f64 = scratch.features.iter().zip(&target).map(|(x, t)| (x - t).abs()).sum();
            (-d).exp()
        };
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(9);
            maximize_acquisition(
                &s,
                OptimizerConfig { random_restarts: 6, max_steps: 30, threads },
                acq,
                &[s.equal_share().unwrap()],
                None,
                &HashSet::new(),
                &mut rng,
            )
            .unwrap()
            .unwrap()
        };
        let (serial_p, serial_v) = run(1);
        for threads in [2, 4, 8, 16] {
            let (p, v) = run(threads);
            assert_eq!(serial_p, p, "threads={threads}");
            assert_eq!(serial_v.to_bits(), v.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn reverse_claims_through_shared_cache_match_private_climbs() {
        use clite_gp::gp::{GaussianProcess, GpConfig};
        use clite_gp::kernel::Kernel;

        use crate::acquisition::Acquisition;
        use crate::engine::SurrogateAcq;

        /// Counts the neighbourhood sweeps a climb actually computes.
        struct Counting<'a> {
            inner: SurrogateAcq<'a>,
            sweeps: AtomicUsize,
        }
        impl AcquisitionEval for Counting<'_> {
            fn eval(&self, p: &Partition, scratch: &mut EvalScratch) -> f64 {
                self.inner.eval(p, scratch)
            }
            fn best_neighbor(
                &self,
                current: &Partition,
                frozen_job: Option<usize>,
                floor: f64,
                scratch: &mut EvalScratch,
            ) -> Option<(Partition, f64)> {
                self.sweeps.fetch_add(1, Ordering::Relaxed);
                self.inner.best_neighbor(current, frozen_job, floor, scratch)
            }
        }

        let s = space(3);
        let mut rng = StdRng::seed_from_u64(21);
        let train: Vec<Partition> = (0..24).map(|_| s.random(&mut rng).unwrap()).collect();
        let xs: Vec<Vec<f64>> = train.iter().map(|p| s.encode(p)).collect();
        let ys: Vec<f64> = train
            .iter()
            .map(|p| {
                p.fraction(0, ResourceKind::Cores) + 0.5 * p.fraction(2, ResourceKind::LlcWays)
            })
            .collect();
        let best = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let gp =
            GaussianProcess::fit(Kernel::matern52(0.05, 0.4), GpConfig::default(), xs, ys).unwrap();
        let acq = Counting {
            inner: SurrogateAcq::new(&gp, s, Acquisition::paper_default(), best),
            sweeps: AtomicUsize::new(0),
        };
        // Repeated and jittered starts make climbs converge onto shared
        // bases, so the shared cache is actually hit.
        let mut starts: Vec<Partition> = (0..12).map(|_| s.random(&mut rng).unwrap()).collect();
        starts.extend(starts.clone().iter().map(|p| jitter(p, None, &mut rng)));
        starts.push(starts[0].clone());

        let climb_all = |order: &mut dyn Iterator<Item = usize>,
                         tabu: &HashSet<Partition>,
                         shared: Option<&StepCache>| {
            let mut out: Vec<Option<(Partition, f64)>> = vec![None; starts.len()];
            let mut scratch = EvalScratch::default();
            for i in order {
                let private = StepCache::default();
                let cache = shared.unwrap_or(&private);
                out[i] = climb(&acq, &starts[i], None, 25, tabu, cache, &mut scratch);
            }
            out
        };
        let private = climb_all(&mut (0..starts.len()), &HashSet::new(), None);
        // Make one endpoint tabu so the fallback path runs too.
        let tabu: HashSet<Partition> = std::iter::once(private[3].clone().unwrap().0).collect();
        acq.sweeps.store(0, Ordering::Relaxed);
        let private = climb_all(&mut (0..starts.len()), &tabu, None);
        let private_sweeps = acq.sweeps.swap(0, Ordering::Relaxed);

        let cache = StepCache::default();
        let reversed = climb_all(&mut (0..starts.len()).rev(), &tabu, Some(&cache));
        let shared_sweeps = acq.sweeps.load(Ordering::Relaxed);
        assert!(shared_sweeps < private_sweeps, "the shared cache must replay some steps");
        for (i, (a, b)) in private.iter().zip(&reversed).enumerate() {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.0, b.0, "start {i}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "start {i}");
        }
        assert!(tabu.iter().all(|t| reversed.iter().flatten().all(|(p, _)| p != t)));
    }

    #[test]
    fn tabu_climb_endpoint_falls_back_identically_in_parallel() {
        // Constant acquisition: every climb ends where it starts, and the
        // equal-share seed is tabu — forcing the alt-neighbour path on
        // every thread count.
        let s = space(2);
        let seed = s.equal_share().unwrap();
        let mut tabu = HashSet::new();
        tabu.insert(seed.clone());
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(12);
            maximize_acquisition(
                &s,
                OptimizerConfig { random_restarts: 2, max_steps: 5, threads },
                |_: &Partition, _: &mut EvalScratch| 1.0,
                std::slice::from_ref(&seed),
                None,
                &tabu,
                &mut rng,
            )
            .unwrap()
            .unwrap()
        };
        let serial = run(1);
        assert_ne!(serial.0, seed, "tabu point must not be returned");
        for threads in [2, 8] {
            assert_eq!(serial, run(threads));
        }
    }
}
