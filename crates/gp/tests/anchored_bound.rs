//! Soundness of the anchored variance bound behind the acquisition climb's
//! solve gate: for every unit-transfer neighbour of a query, the anchored
//! std upper bound [`GaussianProcess::gate_append`] reports must be at
//! least the exact std [`GaussianProcess::batch_stds`] computes — as
//! computed, in floating point — whether the anchor was solved fresh from
//! the query or reused from a neighbour's batch solve. A bound that dips
//! below by one ulp could gate out a climb step's true winner.
//!
//! The fits cover what makes the solves ill-conditioned: near-duplicate and
//! exactly duplicated training points, noise down to 1e-6, noise-free fits
//! rescued by the jitter ladder, and all three kernel families.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use clite_gp::gp::{BatchScratch, GaussianProcess, GpConfig, VarianceAnchor};
use clite_gp::kernel::{Kernel, KernelFamily};

const FAMILIES: [KernelFamily; 3] =
    [KernelFamily::Matern52, KernelFamily::Matern32, KernelFamily::SquaredExponential];

/// Features shaped like a partition encoding: `jobs × 6` fractions, with a
/// share of the points near-duplicates (or exact duplicates) of the one
/// before.
fn training_set(rng: &mut StdRng, n: usize, dim: usize, dup_eps: f64) -> Vec<Vec<f64>> {
    let mut xs: Vec<Vec<f64>> = Vec::with_capacity(n);
    for _ in 0..n {
        let x = match xs.last() {
            Some(prev) if rng.gen_bool(0.35) => {
                prev.iter().map(|v| v + dup_eps * rng.gen_range(-1.0..1.0)).collect()
            }
            _ => (0..dim).map(|_| rng.gen_range(0.05..1.0)).collect(),
        };
        xs.push(x);
    }
    xs
}

/// The unit-transfer neighbours of `x`, as the climb derives them: for
/// every ordered pair of jobs and every resource, one unit (`step`) moves
/// from the first job's coordinate to the second's. Returns each
/// neighbour's `[(dim, old, new); 2]` scaled-coordinate changes.
fn transfers(kernel: &Kernel, x: &[f64], jobs: usize, step: f64) -> Vec<[(usize, f64, f64); 2]> {
    let mut out = Vec::new();
    for r in 0..6 {
        for from in 0..jobs {
            for to in 0..jobs {
                if from == to {
                    continue;
                }
                let (df, dt) = (from * 6 + r, to * 6 + r);
                out.push([
                    (df, kernel.scaled_coord(df, x[df]), kernel.scaled_coord(df, x[df] - step)),
                    (dt, kernel.scaled_coord(dt, x[dt]), kernel.scaled_coord(dt, x[dt] + step)),
                ]);
            }
        }
    }
    out
}

/// Checks every neighbour of one random query against both anchors and
/// returns how many neighbours were checked.
fn check_query(
    gp: &GaussianProcess,
    rng: &mut StdRng,
    x: &[f64],
    jobs: usize,
    label: &str,
) -> usize {
    let (mut scaled, mut base) = (Vec::new(), Vec::new());
    gp.scaled_sq_dists_into(x, &mut scaled, &mut base);
    let moves = transfers(gp.kernel(), x, jobs, rng.gen_range(0.05..0.15));

    // Exact stds of every neighbour, from one batch.
    let mut fresh = VarianceAnchor::default();
    gp.anchor_at(&base, &mut fresh);
    let (mut shifted, mut kstar, mut stds) = (Vec::new(), Vec::new(), Vec::new());
    let mut gated = Vec::new();
    for changes in &moves {
        gp.shift_sq_dists(&base, *changes, &mut shifted);
        gated.push(gp.gate_append(&shifted, &fresh, &mut kstar));
    }
    let mut solve = BatchScratch::default();
    gp.batch_stds(&kstar, &mut solve, &mut stds);

    // A reused anchor: some neighbour's forward solve from that batch, the
    // way a climb step anchors on the previous step's winner.
    let n = gp.len();
    let winner = rng.gen_range(0..moves.len());
    let mut reused = VarianceAnchor::default();
    gp.anchor_from_solve(&solve.solutions()[winner * n..(winner + 1) * n], &mut reused);

    let mut sink = Vec::new();
    for (i, changes) in moves.iter().enumerate() {
        let std = stds[i];
        let g = gated[i];
        assert!(
            g.std_upper_anchored >= std,
            "{label} neighbour {i}: fresh-anchor bound {} < exact std {std}",
            g.std_upper_anchored
        );
        gp.shift_sq_dists(&base, *changes, &mut shifted);
        sink.clear();
        let r = gp.gate_append(&shifted, &reused, &mut sink);
        assert_eq!(r.mean.to_bits(), g.mean.to_bits(), "{label}: the anchor changed the mean");
        assert!(
            r.std_upper_anchored >= std,
            "{label} neighbour {i}: reused-anchor bound {} < exact std {std}",
            r.std_upper_anchored
        );
    }
    moves.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn anchored_std_bound_never_undercuts_the_exact_std(
        seed in 0u64..1_000_000,
        jobs in 2usize..6,
        n in 3usize..45,
        family in 0usize..3,
        noise_pick in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = jobs * 6;
        // Noise 0 with exact duplicates forces the jitter ladder.
        let (noise, dup_eps) = [(1e-4, 1e-3), (1e-6, 1e-7), (1e-6, 0.0), (0.0, 0.0)][noise_pick];
        let xs = training_set(&mut rng, n, dim, dup_eps);
        let ys: Vec<f64> = xs.iter().map(|x| (x.iter().sum::<f64>() * 1.7).sin()).collect();
        let kernel = Kernel::new(FAMILIES[family], rng.gen_range(0.05..2.0), rng.gen_range(0.2..1.5));
        let gp = GaussianProcess::fit(kernel, GpConfig { noise_variance: noise }, xs.clone(), ys)
            .expect("jitter ladder rescues the fit");
        let label = format!("seed {seed} jobs {jobs} n {n} family {family} noise {noise}");
        let mut checked = 0;
        for q in 0..3 {
            // Queries on a training point, next to one, and anywhere.
            let x: Vec<f64> = match q {
                0 => xs[rng.gen_range(0..n)].clone(),
                1 => xs[rng.gen_range(0..n)].iter().map(|v| v + rng.gen_range(-0.02..0.02)).collect(),
                _ => (0..dim).map(|_| rng.gen_range(0.05..1.0)).collect(),
            };
            checked += check_query(&gp, &mut rng, &x, jobs, &label);
        }
        prop_assert!(checked > 0);
    }
}

/// The anchored bound is the point of the exercise: at a query's own
/// neighbours it must beat the anchor-free bound most of the time.
#[test]
fn anchored_bound_is_tighter_near_the_anchor() {
    let mut rng = StdRng::seed_from_u64(7);
    let jobs = 4;
    let xs = training_set(&mut rng, 30, jobs * 6, 1e-3);
    let ys: Vec<f64> = xs.iter().map(|x| (x.iter().sum::<f64>() * 1.7).sin()).collect();
    let gp = GaussianProcess::fit(Kernel::matern52(0.3, 0.5), GpConfig::default(), xs.clone(), ys)
        .unwrap();
    let (mut scaled, mut base, mut shifted, mut kstar) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut tighter, mut total) = (0, 0);
    for x in xs.iter().take(10) {
        gp.scaled_sq_dists_into(x, &mut scaled, &mut base);
        let mut anchor = VarianceAnchor::default();
        gp.anchor_at(&base, &mut anchor);
        for changes in transfers(gp.kernel(), x, jobs, 0.1) {
            gp.shift_sq_dists(&base, changes, &mut shifted);
            let g = gp.gate_append(&shifted, &anchor, &mut kstar);
            total += 1;
            tighter += usize::from(g.std_upper_anchored < g.std_upper);
        }
    }
    assert!(tighter * 2 > total, "anchored bound tighter on only {tighter} of {total}");
}
