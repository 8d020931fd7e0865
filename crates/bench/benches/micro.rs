//! Microbenchmarks for the building blocks on CLITE's critical path: the
//! per-iteration cost the paper reports as "less than 100 ms in most
//! cases" decomposes into GP fitting/prediction, acquisition evaluation,
//! acquisition maximization, score computation, and partition enforcement.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::collections::HashSet;
use std::hint::black_box;

use clite::controller::CliteController;
use clite::score::score_value;
use clite_bo::acquisition::Acquisition;
use clite_bo::engine::{BoConfig, BoEngine};
use clite_bo::optimizer::{maximize_acquisition, EvalScratch, OptimizerConfig};
use clite_bo::space::SearchSpace;
use clite_gp::gp::{GaussianProcess, GpConfig};
use clite_gp::kernel::Kernel;
use clite_sim::alloc::Partition;
use clite_sim::prelude::*;
use clite_sim::resource::ResourceKind;
use clite_sim::testbed::{MemoizedTestbed, Testbed};
use clite_store::{MixSignature, ObservationStore};
use clite_telemetry::{Event, MemoryRecorder, Phase, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn training_data(n: usize, jobs: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let space = SearchSpace::new(ResourceCatalog::testbed(), jobs).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let xs: Vec<Vec<f64>> =
        (0..n).map(|_| space.encode(&space.random(&mut rng).unwrap())).collect();
    let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>() / x.len() as f64).collect();
    (xs, ys)
}

fn bench_gp(c: &mut Criterion) {
    let (xs, ys) = training_data(30, 4);
    let dims = xs[0].len(); // 4 jobs x NUM_RESOURCES
    c.bench_function("gp_fit_n30", |b| {
        b.iter(|| {
            GaussianProcess::fit(
                Kernel::matern52(0.04, 0.3),
                GpConfig::default(),
                black_box(xs.clone()),
                black_box(ys.clone()),
            )
            .unwrap()
        })
    });
    let gp =
        GaussianProcess::fit(Kernel::matern52(0.04, 0.3), GpConfig::default(), xs, ys).unwrap();
    let query = vec![0.3; dims];
    c.bench_function("gp_predict_n30", |b| b.iter(|| gp.predict(black_box(&query))));
}

fn bench_acquisition(c: &mut Criterion) {
    let acq = Acquisition::paper_default();
    c.bench_function("ei_eval", |b| {
        b.iter(|| acq.score(black_box(0.6), black_box(0.1), black_box(0.7)))
    });

    let (xs, ys) = training_data(30, 3);
    let gp =
        GaussianProcess::fit(Kernel::matern52(0.04, 0.3), GpConfig::default(), xs, ys).unwrap();
    let space = SearchSpace::new(ResourceCatalog::testbed(), 3).unwrap();
    c.bench_function("acquisition_maximize_3jobs", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(7),
            |mut rng| {
                maximize_acquisition(
                    &space,
                    OptimizerConfig::default(),
                    |p: &Partition, scratch: &mut EvalScratch| {
                        space.encode_into(p, &mut scratch.features);
                        let (m, s) = gp.predict_std_into(&scratch.features, &mut scratch.gp);
                        acq.score(m, s, 0.7)
                    },
                    &[space.equal_share().unwrap()],
                    None,
                    &HashSet::new(),
                    &mut rng,
                )
                .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
}

/// Deterministic synthetic objective for the end-to-end `suggest()`
/// benchmarks (the same family the engine tests climb).
fn suggest_objective(p: &Partition) -> f64 {
    let jobs = p.job_count();
    0.6 * p.fraction(0, ResourceKind::Cores) + 0.4 * p.fraction(jobs - 1, ResourceKind::LlcWays)
}

/// An engine driven through a real bootstrap + suggest/record loop until
/// it holds `n` observations. With the default `hyper_refresh_every = 5`
/// and the `jobs + 1` bootstrap, none of the benchmarked sizes lands on a
/// refresh round, so the cloned engine's next `suggest` measures the
/// steady-state fast path (cached rank-1-extended surrogate, visitor
/// climb).
fn prepared_engine(jobs: usize, n: usize) -> BoEngine {
    let space = SearchSpace::new(ResourceCatalog::testbed(), jobs).unwrap();
    let mut engine = BoEngine::new(space, BoConfig::default(), 11);
    for p in engine.bootstrap_samples().unwrap() {
        let y = suggest_objective(&p);
        engine.record(p, y);
    }
    while engine.len() < n {
        let s = engine.suggest(None).unwrap();
        let y = suggest_objective(&s.partition);
        engine.record(s.partition, y);
    }
    engine
}

/// The pre-optimization GP, reconstructed from the public linear-algebra
/// pieces: training points kept unscaled, so every covariance pays a
/// division per coordinate per training pair (`Kernel::eval`), and every
/// prediction allocates its `k_star` and solve vectors.
struct BaselineGp {
    kernel: Kernel,
    xs: Vec<Vec<f64>>,
    mean_y: f64,
    alpha: Vec<f64>,
    chol: clite_gp::linalg::Cholesky,
}

impl BaselineGp {
    fn fit(kernel: Kernel, noise: f64, xs: Vec<Vec<f64>>, ys: &[f64]) -> Self {
        let mut gram = kernel.gram(&xs);
        gram.add_diagonal(noise);
        let chol = clite_gp::linalg::Cholesky::decompose(&gram).unwrap();
        let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
        let centered: Vec<f64> = ys.iter().map(|y| y - mean_y).collect();
        let alpha = chol.solve(&centered).unwrap();
        Self { kernel, xs, mean_y, alpha, chol }
    }

    fn predict_std(&self, x: &[f64]) -> (f64, f64) {
        let k_star: Vec<f64> = self.xs.iter().map(|xi| self.kernel.eval(xi, x)).collect();
        let mean = self.mean_y + clite_gp::linalg::dot(&k_star, &self.alpha);
        let v = self.chol.solve_lower(&k_star).unwrap();
        let var = self.kernel.variance() - clite_gp::linalg::dot(&v, &v);
        (mean, var.max(0.0).sqrt())
    }
}

/// The pre-optimization `suggest()` hot path, reconstructed for
/// comparison: every call re-encodes the history, refits the GP from
/// scratch under the cached kernel (O(n³)), and hill-climbs over
/// *materialized* neighbour lists with an allocating encode + predict per
/// candidate. Start construction (incumbent + last + 4 random restarts +
/// coin-flip jitter) mirrors the maximizer so the search effort matches,
/// and the kernel is the engine's own grid-refresh winner so both sides
/// climb the same EI landscape.
fn baseline_suggest(
    space: &SearchSpace,
    history: &[(Partition, f64)],
    visited: &HashSet<Partition>,
    kernel: Kernel,
    rng: &mut StdRng,
) -> (Partition, f64) {
    let xs: Vec<Vec<f64>> = history.iter().map(|(p, _)| space.encode(p)).collect();
    let ys: Vec<f64> = history.iter().map(|(_, s)| *s).collect();
    let best_score = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let gp = BaselineGp::fit(kernel, 1e-4, xs, &ys);
    let acq = Acquisition::paper_default();
    let eval = |p: &Partition| {
        let f = space.encode(p);
        let (m, s) = gp.predict_std(&f);
        acq.score(m, s, best_score)
    };

    let best_p = history
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(p, _)| p.clone())
        .expect("non-empty history");
    let mut starts = vec![best_p, history.last().unwrap().0.clone()];
    for _ in 0..4 {
        starts.push(space.random(rng).unwrap());
    }
    let mut jittered = Vec::new();
    for p in &starts {
        if rng.gen_bool(0.5) {
            let mut q = p.clone();
            for _ in 0..rng.gen_range(1..=3) {
                let neighbors = q.neighbors(None);
                q = neighbors[rng.gen_range(0..neighbors.len())].clone();
            }
            jittered.push(q);
        }
    }
    starts.extend(jittered);

    let mut best: Option<(Partition, f64)> = None;
    for start in starts {
        let mut current = start;
        let mut current_val = eval(&current);
        for _ in 0..25 {
            let neighbors = current.neighbors(None);
            let mut moved = false;
            for n in neighbors {
                let v = eval(&n);
                if v > current_val {
                    current_val = v;
                    current = n;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        if visited.contains(&current) {
            continue;
        }
        if best.as_ref().is_none_or(|(_, bv)| current_val > *bv) {
            best = Some((current, current_val));
        }
    }
    best.expect("baseline found a candidate")
}

/// End-to-end `suggest()` at growing history sizes on a small and a
/// paper-sized job mix: the maintained-surrogate fast path against the
/// reconstructed pre-optimization path. The acceptance bar for this PR is
/// `suggest_new_5jobs_n60` at least 3x faster than
/// `suggest_baseline_5jobs_n60`.
fn bench_suggest(c: &mut Criterion) {
    for &jobs in &[2usize, 5] {
        for &n in &[10usize, 30, 60] {
            let engine = prepared_engine(jobs, n);
            c.bench_function(&format!("suggest_new_{jobs}jobs_n{n}"), |b| {
                b.iter_batched(
                    || engine.clone(),
                    |mut e| e.suggest(None).unwrap(),
                    BatchSize::SmallInput,
                )
            });

            let space = SearchSpace::new(ResourceCatalog::testbed(), jobs).unwrap();
            let history = engine.history().to_vec();
            let visited: HashSet<Partition> = history.iter().map(|(p, _)| p.clone()).collect();
            let kernel = engine.current_kernel().expect("refreshed engine").clone();
            c.bench_function(&format!("suggest_baseline_{jobs}jobs_n{n}"), |b| {
                b.iter_batched(
                    || StdRng::seed_from_u64(23),
                    |mut rng| {
                        baseline_suggest(&space, &history, &visited, kernel.clone(), &mut rng)
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }

    // The record-time cost of growing the surrogate by one observation:
    // rank-1 Cholesky extension (O(n²)) against the from-scratch refit
    // (O(n³)) it replaces.
    let engine = prepared_engine(5, 60);
    let space = SearchSpace::new(ResourceCatalog::testbed(), 5).unwrap();
    let xs: Vec<Vec<f64>> = engine.history().iter().map(|(p, _)| space.encode(p)).collect();
    let ys: Vec<f64> = engine.history().iter().map(|(_, s)| *s).collect();
    let kernel = Kernel::matern52(0.04, 0.3);
    let config = GpConfig { noise_variance: 1e-4 };
    let base =
        GaussianProcess::fit(kernel.clone(), config, xs[..59].to_vec(), ys[..59].to_vec()).unwrap();
    let (new_x, new_y) = (xs[59].clone(), ys[59]);
    c.bench_function("gp_extend_rank1_n60", |b| {
        b.iter(|| base.extended(black_box(new_x.clone()), black_box(new_y)).unwrap())
    });
    c.bench_function("gp_fit_scratch_n60", |b| {
        b.iter(|| {
            GaussianProcess::fit(
                kernel.clone(),
                config,
                black_box(xs.clone()),
                black_box(ys.clone()),
            )
            .unwrap()
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    let jobs = vec![
        JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
        JobSpec::latency_critical(WorkloadId::ImgDnn, 0.3),
        JobSpec::background(WorkloadId::Streamcluster),
    ];
    let mut server = Server::new(ResourceCatalog::testbed(), jobs.clone(), 1).unwrap();
    let p = Partition::equal_share(server.catalog(), 3).unwrap();
    c.bench_function("server_observe_3jobs", |b| b.iter(|| server.observe(black_box(&p))));

    // The memoized hit path: same partition + load vector as the primed
    // entry, so every iteration replays the cached observation (compare
    // against `server_observe_3jobs` for the hit-path speedup).
    let mut memo = MemoizedTestbed::new(Server::new(ResourceCatalog::testbed(), jobs, 1).unwrap());
    let _ = Testbed::observe(&mut memo, &p);
    c.bench_function("memoized_observe_hit_3jobs", |b| {
        b.iter(|| Testbed::observe(&mut memo, black_box(&p)))
    });

    // Same pair at a paper-sized mix (4 LC + 1 BG): the simulator's window
    // cost grows per job while the replay cost is nearly flat, so this is
    // the ratio ORACLE sweeps and steady-state monitoring actually see.
    let jobs5 = vec![
        JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
        JobSpec::latency_critical(WorkloadId::ImgDnn, 0.3),
        JobSpec::latency_critical(WorkloadId::Masstree, 0.3),
        JobSpec::latency_critical(WorkloadId::Xapian, 0.3),
        JobSpec::background(WorkloadId::Streamcluster),
    ];
    let mut server5 = Server::new(ResourceCatalog::testbed(), jobs5.clone(), 1).unwrap();
    let p5 = Partition::equal_share(server5.catalog(), 5).unwrap();
    c.bench_function("server_observe_5jobs", |b| b.iter(|| server5.observe(black_box(&p5))));
    let mut memo5 =
        MemoizedTestbed::new(Server::new(ResourceCatalog::testbed(), jobs5, 1).unwrap());
    let _ = Testbed::observe(&mut memo5, &p5);
    c.bench_function("memoized_observe_hit_5jobs", |b| {
        b.iter(|| Testbed::observe(&mut memo5, black_box(&p5)))
    });

    let obs = server.observe(&p);
    c.bench_function("score_eq3", |b| b.iter(|| score_value(black_box(&obs))));

    c.bench_function("partition_neighbors_3jobs", |b| b.iter(|| black_box(&p).neighbors(None)));
}

/// Telemetry overhead on the hot path. The disabled (Noop) context must
/// cost essentially nothing over the bare computation: `emit` through the
/// noop recorder is an inlined empty call, and `time` adds only two
/// `Instant::now` reads per span. Compare the three `score_eq3*` rows —
/// bare vs noop should be indistinguishable, while the memory recorder
/// pays for event construction and storage.
fn bench_telemetry(c: &mut Criterion) {
    let jobs = vec![
        JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
        JobSpec::background(WorkloadId::Streamcluster),
    ];
    let mut server = Server::new(ResourceCatalog::testbed(), jobs, 1).unwrap();
    let p = Partition::equal_share(server.catalog(), 2).unwrap();
    let obs = server.observe(&p);

    c.bench_function("score_eq3_bare", |b| b.iter(|| score_value(black_box(&obs))));

    let disabled = Telemetry::disabled();
    c.bench_function("score_eq3_noop_span", |b| {
        b.iter(|| disabled.time(Phase::Score, || score_value(black_box(&obs))))
    });

    let sink = MemoryRecorder::new();
    let recording = Telemetry::new(&sink);
    c.bench_function("score_eq3_memory_span", |b| {
        b.iter(|| recording.time(Phase::Score, || score_value(black_box(&obs))))
    });

    c.bench_function("emit_noop", |b| {
        b.iter(|| {
            disabled
                .emit(black_box(Event::CandidateChosen { sample: 3, expected_improvement: 0.01 }))
        })
    });
    c.bench_function("emit_memory", |b| {
        b.iter(|| {
            recording
                .emit(black_box(Event::CandidateChosen { sample: 3, expected_improvement: 0.01 }))
        })
    });
}

/// Cold vs. warm search convergence (the PR 4 acceptance metric): a
/// controller re-invoked on a mix it has already searched warm-starts its
/// surrogate from the observation store and skips bootstrap, so it reaches
/// a QoS-meeting partition in fewer observation windows. The setup prints
/// the window counts (total, and to the first QoS-meeting partition) that
/// `results/BENCH_pr4.json` archives; the timed body is the full search,
/// whose cost is proportional to windows on the simulator substrate.
fn bench_warm_start(c: &mut Criterion) {
    let mixes: [(&str, Vec<JobSpec>); 2] = [
        (
            "2jobs",
            vec![
                JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
                JobSpec::latency_critical(WorkloadId::Xapian, 0.3),
            ],
        ),
        // 20% per LC job: heavy enough that the cold search works for its
        // QoS-meeting partition, light enough that one exists.
        (
            "5jobs",
            vec![
                JobSpec::latency_critical(WorkloadId::Memcached, 0.2),
                JobSpec::latency_critical(WorkloadId::ImgDnn, 0.2),
                JobSpec::latency_critical(WorkloadId::Masstree, 0.2),
                JobSpec::latency_critical(WorkloadId::Xapian, 0.2),
                JobSpec::background(WorkloadId::Streamcluster),
            ],
        ),
    ];
    let controller = CliteController::default();
    for (name, jobs) in mixes {
        let fresh = || Server::new(ResourceCatalog::testbed(), jobs.clone(), 5).unwrap();

        // One cold pass primes the store; the warm start is snapshotted
        // once so every warm iteration replays the same stored samples.
        let mut store = ObservationStore::in_memory();
        let cold = {
            let mut server = fresh();
            controller.run_with_store(&mut server, &mut store, &Telemetry::disabled()).unwrap()
        };
        let warm = {
            let server = fresh();
            let signature = MixSignature::capture(&server);
            store.warm_start(&signature).expect("primed store must hit")
        };
        let warmed = {
            let mut server = fresh();
            controller.run_warmed(&mut server, &warm, &Telemetry::disabled()).unwrap()
        };
        eprintln!(
            "search_{name}: cold {} windows (QoS at {:?}), warm {} windows (QoS at {:?}), \
             {} stored samples",
            cold.samples_used(),
            cold.samples_to_qos,
            warmed.samples_used(),
            warmed.samples_to_qos,
            warm.entries.len()
        );
        assert!(
            warmed.samples_used() < cold.samples_used(),
            "warm search must use fewer observation windows"
        );

        // Full end-to-end searches are orders of magnitude longer than the
        // other microbenches; a smaller sample count keeps the suite usable.
        let mut g = c.benchmark_group("search");
        g.sample_size(15);
        g.bench_function(&format!("search_cold_{name}"), |b| {
            b.iter_batched(fresh, |mut s| controller.run(&mut s).unwrap(), BatchSize::SmallInput)
        });
        g.bench_function(&format!("search_warm_{name}"), |b| {
            b.iter_batched(
                fresh,
                |mut s| controller.run_warmed(&mut s, &warm, &Telemetry::disabled()).unwrap(),
                BatchSize::SmallInput,
            )
        });
        g.finish();
    }
}

criterion_group!(
    benches,
    bench_gp,
    bench_acquisition,
    bench_suggest,
    bench_simulator,
    bench_telemetry,
    bench_warm_start
);
criterion_main!(benches);
