//! Exact Gaussian-process regression.
//!
//! Given training pairs `(X, y)`, a kernel `k`, and observation-noise
//! variance `σ_n²`, the GP posterior at a query `x*` is
//!
//! ```text
//! μ(x*) = k(x*,X) · (K + σ_n²·I)⁻¹ · (y − m)        + m
//! σ²(x*) = k(x*,x*) − k(x*,X) · (K + σ_n²·I)⁻¹ · k(X,x*)
//! ```
//!
//! with `m` the empirical mean of `y` (a constant-mean GP). The fit keeps
//! the Cholesky factor of `K + σ_n²·I` so each prediction costs one
//! triangular solve — CLITE keeps sample counts small (tens of points)
//! specifically so this exact inference stays cheap (paper Sec. 4,
//! "mitigates this overhead by carefully limiting the number of sampled
//! data points").

use std::sync::Arc;

use crate::kernel::Kernel;
use crate::linalg::{dot, Cholesky, Matrix};
use crate::GpError;

/// Non-kernel GP configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpConfig {
    /// Observation-noise variance `σ_n²` added to the Gram diagonal.
    pub noise_variance: f64,
}

impl Default for GpConfig {
    fn default() -> Self {
        Self { noise_variance: 1e-4 }
    }
}

/// Telemetry-friendly summary of one GP fit: what was fitted, with which
/// hyper-parameters, and how well.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitSummary {
    /// Number of training points.
    pub observations: usize,
    /// Input dimensionality.
    pub dim: usize,
    /// Kernel family name.
    pub family: &'static str,
    /// Kernel signal variance `σ²`.
    pub signal_variance: f64,
    /// Representative kernel lengthscale (geometric mean under ARD).
    pub lengthscale: f64,
    /// Log marginal likelihood of the fit.
    pub log_marginal: f64,
}

/// Reusable scratch buffers for [`GaussianProcess::predict_into`].
///
/// Acquisition maximization performs tens of thousands of predictions per
/// `suggest()`; routing them through one scratch value makes the hot path
/// allocation-free after the first call.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    k_star: Vec<f64>,
    v: Vec<f64>,
    scaled: Vec<f64>,
    r2: Vec<f64>,
}

/// Column-major (structure-of-arrays) storage of the lengthscale-scaled
/// training inputs: dimension `d` occupies the contiguous slice
/// `data[d·n .. (d+1)·n]`.
///
/// ```text
///            point:   0     1     2   …   n-1
/// data:  [ x₀/ℓ₀  x₁/ℓ₀  x₂/ℓ₀  …            ]  column 0 (dim 0)
///        [ x₀/ℓ₁  x₁/ℓ₁  x₂/ℓ₁  …            ]  column 1 (dim 1)
///        [   ⋮                                ]      ⋮
/// ```
///
/// The prediction hot paths accumulate squared distances dimension-by-
/// dimension over these flat columns, so every inner loop streams one
/// contiguous slice (auto-vectorizing) instead of chasing `n` separate
/// per-point `Vec`s. Per element, the accumulation order (dimensions
/// ascending) is exactly the old point-major loop's, so results are
/// bit-identical to the array-of-structs layout this replaced.
#[derive(Debug, Clone)]
struct ScaledColumns {
    n: usize,
    dim: usize,
    data: Vec<f64>,
}

impl ScaledColumns {
    /// Scales every training point through the kernel and scatters the
    /// results into column-major storage.
    fn build(kernel: &Kernel, xs: &[Vec<f64>]) -> Self {
        let n = xs.len();
        let dim = xs.first().map_or(0, Vec::len);
        let mut data = vec![0.0; n * dim];
        let mut scaled = Vec::new();
        for (i, x) in xs.iter().enumerate() {
            kernel.scale_into(x, &mut scaled);
            for (d, &v) in scaled.iter().enumerate() {
                data[d * n + i] = v;
            }
        }
        Self { n, dim, data }
    }

    /// The contiguous column for dimension `d`.
    fn column(&self, d: usize) -> &[f64] {
        &self.data[d * self.n..(d + 1) * self.n]
    }

    /// A copy extended by one already-scaled point.
    fn extended(&self, scaled: &[f64]) -> Self {
        debug_assert_eq!(scaled.len(), self.dim);
        let n = self.n + 1;
        let mut data = Vec::with_capacity(n * self.dim);
        for (d, &v) in scaled.iter().enumerate() {
            data.extend_from_slice(self.column(d));
            data.push(v);
        }
        Self { n, dim: self.dim, data }
    }

    /// Writes the squared distance from the scaled query `q` to every
    /// training point into `r2`, one streaming pass per dimension.
    fn sq_dists_into(&self, q: &[f64], r2: &mut Vec<f64>) {
        debug_assert_eq!(q.len(), self.dim);
        r2.clear();
        r2.resize(self.n, 0.0);
        for (d, &qd) in q.iter().enumerate() {
            for (acc, &t) in r2.iter_mut().zip(self.column(d)) {
                let diff = qd - t;
                *acc += diff * diff;
            }
        }
    }
}

/// Posterior mean plus cheap *upper bounds* on the posterior standard
/// deviation, produced by [`GaussianProcess::gate_append`] without
/// the O(n²) triangular solve. Acquisition climbs use the bounds to skip
/// the solve for candidates that provably cannot beat the incumbent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatedPrediction {
    /// Exact posterior mean.
    pub mean: f64,
    /// Upper bound on the posterior standard deviation from the two
    /// anchor-free eigenvalue bounds (`std <= std_upper` in exact
    /// arithmetic; near its tight case rounding can undercut the computed
    /// std by an ulp).
    pub std_upper: f64,
    /// The tighter bound that also uses the anchored term, with slack so
    /// it holds against the computed std too (`std <= std_upper_anchored`,
    /// and below `std_upper` but for the slack); nearly tight for queries
    /// whose cross-covariance row points the anchor's way.
    pub std_upper_anchored: f64,
}

/// Slack added to the anchored variance bound, in units of the prior
/// variance `σ²`. The bounds are exact in real arithmetic, but they and
/// the exact variance they are compared against are computed along
/// different paths, and near a bound's tight case (e.g. a query close to a
/// single isolated training point) rounding alone can put the bound an
/// ulp below the computed variance. Randomized fits needed up to ~1e-14;
/// 1e-9 widens a std bound by a negligible amount (5e-6 relative even at
/// a variance of 1e-4·σ²).
const BOUND_SLACK: f64 = 1e-9;

/// A fixed direction for the anchored variance bound of
/// [`GaussianProcess::gate_append`]: `w = L⁻ᵀv` and `1/(v·v)` for the
/// forward solve `v = L⁻¹k_a` of some anchor query `a`. Build one with
/// [`GaussianProcess::anchor_at`] or
/// [`GaussianProcess::anchor_from_solve`]; an anchor is only valid for
/// the fit that built it. Reusable: rebuilding keeps the buffers.
#[derive(Debug, Clone, Default)]
pub struct VarianceAnchor {
    /// Forward-solve scratch for [`GaussianProcess::anchor_at`].
    v: Vec<f64>,
    w: Vec<f64>,
    /// `1 / (v·v)`, or 0 when `v` vanishes.
    scale: f64,
}

/// Reusable buffers for [`GaussianProcess::batch_stds`]: the forward
/// solves of the last batch plus the blocked solver's interleaved scratch.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    v: Vec<f64>,
    blk: Vec<f64>,
}

impl BatchScratch {
    /// The forward solves `vᵢ = L⁻¹k*ᵢ` of the last
    /// [`GaussianProcess::batch_stds`] call, concatenated in batch order
    /// (`n` entries each) — the input [`GaussianProcess::anchor_from_solve`]
    /// takes.
    #[must_use]
    pub fn solutions(&self) -> &[f64] {
        &self.v
    }
}

/// A fitted Gaussian process.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: Kernel,
    config: GpConfig,
    xs: Arc<Vec<Vec<f64>>>,
    ys: Arc<Vec<f64>>,
    /// Training inputs pre-divided by the kernel lengthscales, stored
    /// column-major ([`ScaledColumns`]) so each prediction scales its query
    /// once and streams every cross-covariance over flat per-dimension
    /// slices with multiply/adds only.
    scaled_xs: ScaledColumns,
    /// Row sums of `K + σₙ²I` (all entries of a stationary kernel matrix
    /// are positive, so these are also the absolute row sums). Their max
    /// bounds `λ_max`, which powers the variance bound in
    /// [`GaussianProcess::gate_append`]; kept as a vector so
    /// [`GaussianProcess::extended`] can update them in O(n).
    row_sums: Vec<f64>,
    /// `max(row_sums)`, precomputed so the gate pays zero per-candidate
    /// reduction cost.
    inf_norm: f64,
    mean_y: f64,
    alpha: Vec<f64>,
    chol: Cholesky,
    log_marginal: f64,
}

fn validate(xs: &[Vec<f64>], ys: &[f64]) -> Result<usize, GpError> {
    if xs.is_empty() {
        return Err(GpError::EmptyTrainingSet);
    }
    if xs.len() != ys.len() {
        return Err(GpError::LengthMismatch { inputs: xs.len(), targets: ys.len() });
    }
    let dim = xs[0].len();
    for x in xs {
        if x.len() != dim {
            return Err(GpError::DimensionMismatch { expected: dim, actual: x.len() });
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFiniteValue);
        }
    }
    if ys.iter().any(|v| !v.is_finite()) {
        return Err(GpError::NonFiniteValue);
    }
    Ok(dim)
}

impl GaussianProcess {
    /// Fits an exact GP to `(xs, ys)`.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::EmptyTrainingSet`], [`GpError::LengthMismatch`],
    /// [`GpError::DimensionMismatch`], or [`GpError::NonFiniteValue`] for
    /// malformed data, and [`GpError::NotPositiveDefinite`] if the kernel
    /// matrix cannot be factorized even with jitter.
    pub fn fit(
        kernel: Kernel,
        config: GpConfig,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
    ) -> Result<Self, GpError> {
        Self::fit_shared(kernel, config, Arc::new(xs), Arc::new(ys))
    }

    /// Like [`GaussianProcess::fit`] but shares the training data instead
    /// of owning a private copy — hyper-parameter grid search fits the same
    /// `(X, y)` under many kernels and should not clone it per candidate.
    ///
    /// # Errors
    ///
    /// Same contract as [`GaussianProcess::fit`].
    pub fn fit_shared(
        kernel: Kernel,
        config: GpConfig,
        xs: Arc<Vec<Vec<f64>>>,
        ys: Arc<Vec<f64>>,
    ) -> Result<Self, GpError> {
        validate(&xs, &ys)?;
        let gram = kernel.gram(&xs);
        Self::fit_with_gram(kernel, config, xs, ys, gram)
    }

    /// Fits from a precomputed noise-free Gram matrix `K = k(X, X)`. This
    /// is the shared-distance grid-search entry point: the caller builds
    /// `K` per grid point from one pairwise-distance matrix
    /// ([`Kernel::gram_from_distances`]) and this constructor only pays for
    /// the factorization.
    ///
    /// # Errors
    ///
    /// Same contract as [`GaussianProcess::fit`], plus
    /// [`GpError::ShapeMismatch`] if `gram` is not `n × n`.
    pub fn fit_with_gram(
        kernel: Kernel,
        config: GpConfig,
        xs: Arc<Vec<Vec<f64>>>,
        ys: Arc<Vec<f64>>,
        mut gram: Matrix,
    ) -> Result<Self, GpError> {
        validate(&xs, &ys)?;
        let n = xs.len();
        if gram.rows() != n || gram.cols() != n {
            return Err(GpError::ShapeMismatch { op: "fit_with_gram" });
        }

        let mean_y = ys.iter().sum::<f64>() / n as f64;
        let centered: Vec<f64> = ys.iter().map(|y| y - mean_y).collect();

        gram.add_diagonal(config.noise_variance.max(0.0));
        let row_sums: Vec<f64> =
            (0..n).map(|i| (0..n).map(|j| gram[(i, j)]).sum::<f64>()).collect();
        let inf_norm = row_sums.iter().fold(0.0_f64, |m, &s| m.max(s));
        let chol = Cholesky::decompose(&gram)?;
        let alpha = chol.solve(&centered)?;
        let log_marginal = log_marginal(&centered, &alpha, &chol);
        let scaled_xs = ScaledColumns::build(&kernel, &xs);

        Ok(Self {
            kernel,
            config,
            xs,
            ys,
            scaled_xs,
            row_sums,
            inf_norm,
            mean_y,
            alpha,
            chol,
            log_marginal,
        })
    }

    /// Returns a new GP with one extra observation `(x, y)`, reusing this
    /// fit's Cholesky factor via a rank-1 border extension — O(n²) instead
    /// of the O(n³) from-scratch refactorization, which is what makes
    /// recording between hyper refreshes cheap. Falls back to a full refit
    /// (same kernel) if the extended factor is numerically not positive
    /// definite, so the result matches a from-scratch fit to working
    /// precision either way.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] / [`GpError::NonFiniteValue`]
    /// for malformed input and [`GpError::NotPositiveDefinite`] if even the
    /// fallback refit fails.
    pub fn extended(&self, x: Vec<f64>, y: f64) -> Result<Self, GpError> {
        if x.len() != self.dim() {
            return Err(GpError::DimensionMismatch { expected: self.dim(), actual: x.len() });
        }
        if x.iter().any(|v| !v.is_finite()) || !y.is_finite() {
            return Err(GpError::NonFiniteValue);
        }

        let k = self.kernel.cross(&x, &self.xs);
        let diag = self.kernel.variance() + self.config.noise_variance.max(0.0);

        let mut xs: Vec<Vec<f64>> = Vec::clone(&self.xs);
        let mut ys: Vec<f64> = Vec::clone(&self.ys);
        xs.push(x);
        ys.push(y);
        let (xs, ys) = (Arc::new(xs), Arc::new(ys));

        let chol = match self.chol.extend(&k, diag) {
            Ok(c) => c,
            // The jitter ladder in `decompose` can rescue borderline cases
            // a fixed-jitter border extension cannot.
            Err(GpError::NotPositiveDefinite) => {
                return Self::fit_shared(self.kernel.clone(), self.config, xs, ys);
            }
            Err(e) => return Err(e),
        };

        // The empirical mean shifts with the new target, so α must be
        // re-solved against the extended factor — still O(n²).
        let n = ys.len();
        let mean_y = ys.iter().sum::<f64>() / n as f64;
        let centered: Vec<f64> = ys.iter().map(|v| v - mean_y).collect();
        let alpha = chol.solve(&centered)?;
        let log_marginal = log_marginal(&centered, &alpha, &chol);

        let mut scaled = Vec::new();
        self.kernel.scale_into(xs.last().expect("just pushed"), &mut scaled);
        let scaled_xs = self.scaled_xs.extended(&scaled);

        // Bordering `K + σₙ²I` with the cross-covariance row updates every
        // row sum by one entry and appends the new row's own sum.
        let mut row_sums: Vec<f64> = self.row_sums.iter().zip(&k).map(|(s, ki)| s + ki).collect();
        row_sums.push(k.iter().sum::<f64>() + diag);
        let inf_norm = row_sums.iter().fold(0.0_f64, |m, &s| m.max(s));

        Ok(Self {
            kernel: self.kernel.clone(),
            config: self.config,
            xs,
            ys,
            scaled_xs,
            row_sums,
            inf_norm,
            mean_y,
            alpha,
            chol,
            log_marginal,
        })
    }

    /// Number of training points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the training set is empty (never true for a fitted GP).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Input dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.xs[0].len()
    }

    /// The kernel used by this fit.
    #[must_use]
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The configuration used by this fit.
    #[must_use]
    pub fn config(&self) -> GpConfig {
        self.config
    }

    /// The log marginal likelihood `log p(y | X, θ)` of this fit.
    #[must_use]
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.log_marginal
    }

    /// One-line summary of this fit for telemetry sinks.
    #[must_use]
    pub fn fit_summary(&self) -> FitSummary {
        FitSummary {
            observations: self.len(),
            dim: self.dim(),
            family: self.kernel.family().name(),
            signal_variance: self.kernel.variance(),
            lengthscale: self.kernel.mean_lengthscale(),
            log_marginal: self.log_marginal,
        }
    }

    /// Posterior predictive mean and variance at `x`.
    ///
    /// The variance is clamped at zero to absorb round-off. Allocates
    /// per call — hot paths should hold a [`PredictScratch`] and use
    /// [`GaussianProcess::predict_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        self.predict_into(x, &mut PredictScratch::default())
    }

    /// [`predict`](GaussianProcess::predict) through caller-owned scratch
    /// buffers: zero allocations once the scratch has warmed up, and the
    /// query is divided by the lengthscales once instead of once per
    /// training point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn predict_into(&self, x: &[f64], scratch: &mut PredictScratch) -> (f64, f64) {
        assert_eq!(x.len(), self.dim(), "query dimension mismatch");
        self.kernel.scale_into(x, &mut scratch.scaled);
        self.scaled_xs.sq_dists_into(&scratch.scaled, &mut scratch.r2);
        scratch.k_star.clear();
        self.kernel.eval_scaled_sq_append(&scratch.r2, &mut scratch.k_star);
        let mean = self.mean_y + dot(&scratch.k_star, &self.alpha);
        // v = L⁻¹ k*; σ² = k(x,x) − vᵀv, and k(x,x) is exactly σ² for a
        // stationary kernel (corr(0) = 1).
        self.chol
            .solve_lower_into(&scratch.k_star, &mut scratch.v)
            .expect("cross-covariance length matches training size");
        let var = self.kernel.variance() - dot(&scratch.v, &scratch.v);
        (mean, var.max(0.0))
    }

    /// Posterior mean and *standard deviation* at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    #[must_use]
    pub fn predict_std(&self, x: &[f64]) -> (f64, f64) {
        let (m, v) = self.predict(x);
        (m, v.sqrt())
    }

    /// [`predict_std`](GaussianProcess::predict_std) through caller-owned
    /// scratch buffers.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn predict_std_into(&self, x: &[f64], scratch: &mut PredictScratch) -> (f64, f64) {
        let (m, v) = self.predict_into(x, scratch);
        (m, v.sqrt())
    }

    /// Writes the squared scaled distance from `x` to every training point
    /// into `r2_out`, scaling `x` once through `scaled_out`. These are the
    /// inputs [`GaussianProcess::gate_append`] and
    /// [`GaussianProcess::shift_sq_dists`] operate on: a hill-climb
    /// computes them once per step for the current partition and derives
    /// each neighbor's vector with two-coordinate shifts.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn scaled_sq_dists_into(
        &self,
        x: &[f64],
        scaled_out: &mut Vec<f64>,
        r2_out: &mut Vec<f64>,
    ) {
        assert_eq!(x.len(), self.dim(), "query dimension mismatch");
        self.kernel.scale_into(x, scaled_out);
        self.scaled_xs.sq_dists_into(scaled_out, r2_out);
    }

    /// Derives a neighbor's squared-distance vector from `base` when the
    /// neighbor differs from the base query in exactly two scaled
    /// coordinates: each `(dim, old, new)` change replaces the `(old −
    /// xᵢ[dim])²` term with `(new − xᵢ[dim])²`. O(n) per neighbor instead
    /// of the O(n·d) of [`GaussianProcess::scaled_sq_dists_into`]. The
    /// result is clamped at zero to absorb cancellation round-off; the
    /// base is recomputed fresh each climb step, so error never
    /// accumulates across steps.
    pub fn shift_sq_dists(
        &self,
        base: &[f64],
        changes: [(usize, f64, f64); 2],
        out: &mut Vec<f64>,
    ) {
        // Two streaming column passes; per element this applies the first
        // change, then the second, then the clamp — the same operation
        // order as the old per-point loop, so the bits match.
        out.clear();
        out.extend_from_slice(base);
        let [(dim0, old0, new0), (dim1, old1, new1)] = changes;
        for (acc, &t) in out.iter_mut().zip(self.scaled_xs.column(dim0)) {
            let (d_old, d_new) = (old0 - t, new0 - t);
            *acc += d_new * d_new - d_old * d_old;
        }
        for (acc, &t) in out.iter_mut().zip(self.scaled_xs.column(dim1)) {
            let (d_old, d_new) = (old1 - t, new1 - t);
            *acc += d_new * d_new - d_old * d_old;
            *acc = acc.max(0.0);
        }
    }

    /// Points `anchor` at the query whose squared distances to the
    /// training points are `r2`: computes its cross-covariance row and
    /// forward solve, then proceeds as
    /// [`anchor_from_solve`](GaussianProcess::anchor_from_solve). Two
    /// O(n²) triangular solves.
    ///
    /// # Panics
    ///
    /// Panics if `r2.len()` differs from the number of training points.
    pub fn anchor_at(&self, r2: &[f64], anchor: &mut VarianceAnchor) {
        assert_eq!(r2.len(), self.len(), "distance vector length mismatch");
        anchor.w.clear();
        self.kernel.eval_scaled_sq_append(r2, &mut anchor.w);
        self.chol
            .solve_lower_into(&anchor.w, &mut anchor.v)
            .expect("cross-covariance length matches training size");
        anchor.scale = self.anchor_direction(&anchor.v, &mut anchor.w);
    }

    /// Points `anchor` along an already computed forward solve `v = L⁻¹k_a`
    /// (e.g. a row of [`BatchScratch::solutions`]): one O(n²) row-oriented
    /// back-substitution for `w = L⁻ᵀv` plus `v·v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from the number of training points.
    pub fn anchor_from_solve(&self, v: &[f64], anchor: &mut VarianceAnchor) {
        anchor.scale = self.anchor_direction(v, &mut anchor.w);
    }

    /// Writes `w = L⁻ᵀv` and returns the anchor's scale `1/(v·v)` (0 when
    /// `v` vanishes).
    fn anchor_direction(&self, v: &[f64], w: &mut Vec<f64>) -> f64 {
        self.chol.solve_upper_into(v, w).expect("solve length matches training size");
        let vv = dot(v, v);
        if vv > 0.0 && vv.is_finite() {
            1.0 / vv
        } else {
            0.0
        }
    }

    /// Exact posterior mean plus an upper bound on the posterior standard
    /// deviation, from a squared-distance vector — O(n), no triangular
    /// solve. The cross-covariance row `k*` computed along the way is
    /// **appended** to `k_star_all` (callers batch surviving candidates
    /// and resolve their exact variances together with
    /// [`GaussianProcess::batch_stds`]; a caller that discards this
    /// candidate truncates `k_star_all` back).
    ///
    /// The bound: `σ²(x) = σ² − vᵀv` with `v = L⁻¹k*`, and `vᵀv =
    /// k*ᵀ(K+σₙ²I)⁻¹k*` admits three cheap lower bounds:
    ///
    /// * `‖k*‖² / λ_max` with `λ_max ≤ max_i Σ_j |K+σₙ²I|_ij` (row-sum
    ///   bound; every entry of a stationary-kernel Gram matrix is
    ///   positive);
    /// * `max_i k*ᵢ² / (σ²+σₙ²)` from Cauchy–Schwarz in the `(K+σₙ²I)⁻¹`
    ///   inner product;
    /// * the **anchored** bound `(k*·w)² / (v_a·v_a)` with `w = L⁻ᵀv_a`:
    ///   `k*·w = (L⁻¹k*)·v_a`, so Cauchy–Schwarz gives
    ///   `(k*·w)² ≤ ‖L⁻¹k*‖²·‖v_a‖²`. It is exact when `k*` is parallel to
    ///   the anchor's row, so anchoring at a climb step's base makes it
    ///   nearly tight for the base's one-transfer neighbours.
    ///
    /// Subtracting the larger of the first two from `σ²` upper-bounds the
    /// variance as [`GatedPrediction::std_upper`], whose bits do not
    /// depend on the anchor. The largest of all three, less a
    /// `1e-9·σ²` slack against rounding, gives
    /// [`GatedPrediction::std_upper_anchored`], which also holds against
    /// the *computed* exact std (`crates/gp/tests/anchored_bound.rs`
    /// checks it over randomized ill-conditioned fits). Any factorization
    /// jitter is added to the first two denominators so they
    /// stay sound for rescued borderline fits (the anchored bound is
    /// stated in terms of the jittered factor itself). The mean's dot
    /// product is kept separate from the fused bound loop, so its bits are
    /// those of every other mean path.
    ///
    /// # Panics
    ///
    /// Panics if `r2.len()` differs from the number of training points or
    /// `anchor` was not built by this fit.
    pub fn gate_append(
        &self,
        r2: &[f64],
        anchor: &VarianceAnchor,
        k_star_all: &mut Vec<f64>,
    ) -> GatedPrediction {
        assert_eq!(r2.len(), self.len(), "distance vector length mismatch");
        assert_eq!(anchor.w.len(), self.len(), "anchor built for another fit");
        let start = k_star_all.len();
        self.kernel.eval_scaled_sq_append(r2, k_star_all);
        let k_star = &k_star_all[start..];
        let mean = self.mean_y + dot(k_star, &self.alpha);

        let (norm_sq, max_sq, proj) = gate_sums(k_star, &anchor.w);
        let jitter = self.chol.jitter();
        let inf_norm = self.inf_norm + jitter;
        let diag = self.kernel.variance() + self.config.noise_variance.max(0.0) + jitter;
        let vtv_lb = (norm_sq / inf_norm).max(max_sq / diag);
        let variance = self.kernel.variance();
        let std_from = |lb: f64| (variance - lb).max(0.0).sqrt();
        let vtv_lb_anchored = vtv_lb.max(proj * proj * anchor.scale) - BOUND_SLACK * variance;
        GatedPrediction {
            mean,
            std_upper: std_from(vtv_lb),
            std_upper_anchored: std_from(vtv_lb_anchored),
        }
    }

    /// Exact posterior standard deviations for a batch of cross-covariance
    /// rows (`m` consecutive length-`n` rows in `k_star_all`, as built by
    /// [`GaussianProcess::gate_append`]), written to `stds` in order; the
    /// forward solves stay readable in [`BatchScratch::solutions`].
    ///
    /// The rows are resolved in one blocked multi-RHS forward substitution
    /// ([`Cholesky::solve_lower_batch`]) — the per-candidate solve is
    /// latency-bound on its own dependency chain, while four-wide blocking
    /// runs four independent chains per pass. A row's std is bit-identical
    /// whichever batch it is solved in.
    ///
    /// # Panics
    ///
    /// Panics if `k_star_all.len()` is not a multiple of the training size.
    pub fn batch_stds(&self, k_star_all: &[f64], scratch: &mut BatchScratch, stds: &mut Vec<f64>) {
        self.chol
            .solve_lower_batch(k_star_all, &mut scratch.v, &mut scratch.blk)
            .expect("cross-covariance batch length matches training size");
        let variance = self.kernel.variance();
        stds.clear();
        stds.extend(
            scratch.v.chunks_exact(self.len()).map(|v| (variance - dot(v, v)).max(0.0).sqrt()),
        );
    }
}

/// `(‖k‖², maxᵢ kᵢ², k·w)` in one pass. `‖k‖²` accumulates sequentially,
/// in index order, so [`GatedPrediction::std_upper`] — which defines the
/// climb's candidate set — stays bit-stable; the max and the projection
/// run in four independent lanes so they vectorize off that dependency
/// chain.
fn gate_sums(k: &[f64], w: &[f64]) -> (f64, f64, f64) {
    debug_assert_eq!(k.len(), w.len());
    let mut norm = 0.0_f64;
    let (mut max, mut proj) = ([0.0_f64; 4], [0.0_f64; 4]);
    let (kc, wc) = (k.chunks_exact(4), w.chunks_exact(4));
    let (k_tail, w_tail) = (kc.remainder(), wc.remainder());
    for (k4, w4) in kc.zip(wc) {
        for lane in 0..4 {
            let k2 = k4[lane] * k4[lane];
            norm += k2;
            max[lane] = max[lane].max(k2);
            proj[lane] += k4[lane] * w4[lane];
        }
    }
    for (&ki, &wi) in k_tail.iter().zip(w_tail) {
        let k2 = ki * ki;
        norm += k2;
        max[0] = max[0].max(k2);
        proj[0] += ki * wi;
    }
    (norm, max[0].max(max[1]).max(max[2].max(max[3])), (proj[0] + proj[1]) + (proj[2] + proj[3]))
}

/// `log p(y|X) = −½ yᵀα − ½ log|K| − (n/2) log 2π`.
fn log_marginal(centered: &[f64], alpha: &[f64], chol: &Cholesky) -> f64 {
    -0.5 * dot(centered, alpha)
        - 0.5 * chol.log_determinant()
        - 0.5 * centered.len() as f64 * (2.0 * std::f64::consts::PI).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i) / 9.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 4.0).sin() + 0.5 * x[0]).collect();
        (xs, ys)
    }

    fn fit_toy() -> GaussianProcess {
        let (xs, ys) = toy_data();
        GaussianProcess::fit(Kernel::matern52(1.0, 0.3), GpConfig::default(), xs, ys).unwrap()
    }

    #[test]
    fn interpolates_training_points() {
        let gp = fit_toy();
        let (xs, ys) = toy_data();
        for (x, y) in xs.iter().zip(&ys) {
            let (m, v) = gp.predict(x);
            assert!((m - y).abs() < 0.05, "mean {m} vs target {y}");
            assert!(v < 0.01, "variance should be tiny at training points, got {v}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let gp = fit_toy();
        let (_, v_in) = gp.predict(&[0.5]);
        let (_, v_out) = gp.predict(&[3.0]);
        assert!(v_out > 10.0 * v_in.max(1e-9));
        // Far from data the posterior reverts to the prior variance.
        assert!((v_out - 1.0).abs() < 0.1);
    }

    #[test]
    fn predictions_are_finite_and_variance_nonnegative() {
        let gp = fit_toy();
        for i in 0..50 {
            let x = [f64::from(i) / 10.0 - 2.0];
            let (m, v) = gp.predict(&x);
            assert!(m.is_finite());
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn errors_on_malformed_input() {
        let k = Kernel::matern52(1.0, 1.0);
        let cfg = GpConfig::default();
        assert_eq!(
            GaussianProcess::fit(k.clone(), cfg, vec![], vec![]).unwrap_err(),
            GpError::EmptyTrainingSet
        );
        assert!(matches!(
            GaussianProcess::fit(k.clone(), cfg, vec![vec![0.0]], vec![1.0, 2.0]).unwrap_err(),
            GpError::LengthMismatch { .. }
        ));
        assert!(matches!(
            GaussianProcess::fit(k.clone(), cfg, vec![vec![0.0], vec![0.0, 1.0]], vec![1.0, 2.0])
                .unwrap_err(),
            GpError::DimensionMismatch { .. }
        ));
        assert_eq!(
            GaussianProcess::fit(k, cfg, vec![vec![f64::NAN]], vec![1.0]).unwrap_err(),
            GpError::NonFiniteValue
        );
    }

    #[test]
    fn duplicate_points_survive_via_noise() {
        // Two identical inputs with different targets: the noise term keeps
        // the Gram matrix invertible.
        let xs = vec![vec![0.5], vec![0.5], vec![0.9]];
        let ys = vec![1.0, 1.2, 0.0];
        let gp = GaussianProcess::fit(
            Kernel::matern52(1.0, 0.2),
            GpConfig { noise_variance: 1e-2 },
            xs,
            ys,
        )
        .unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!(m > 0.8 && m < 1.3, "mean near the duplicate targets, got {m}");
    }

    #[test]
    fn log_marginal_prefers_good_lengthscale() {
        let (xs, ys) = toy_data();
        let good = GaussianProcess::fit(
            Kernel::matern52(1.0, 0.3),
            GpConfig::default(),
            xs.clone(),
            ys.clone(),
        )
        .unwrap();
        let bad =
            GaussianProcess::fit(Kernel::matern52(1.0, 1e4), GpConfig::default(), xs, ys).unwrap();
        assert!(good.log_marginal_likelihood() > bad.log_marginal_likelihood());
    }

    #[test]
    fn predict_into_matches_predict_and_reuses_buffers() {
        let gp = fit_toy();
        let mut scratch = PredictScratch::default();
        for i in 0..20 {
            let x = [f64::from(i) / 10.0 - 0.5];
            let (m0, v0) = gp.predict(&x);
            let (m1, v1) = gp.predict_into(&x, &mut scratch);
            assert_eq!(m0.to_bits(), m1.to_bits());
            assert_eq!(v0.to_bits(), v1.to_bits());
        }
    }

    #[test]
    fn extended_matches_from_scratch_fit() {
        let (xs, ys) = toy_data();
        let base = GaussianProcess::fit(
            Kernel::matern52(1.0, 0.3),
            GpConfig::default(),
            xs[..9].to_vec(),
            ys[..9].to_vec(),
        )
        .unwrap();
        let inc = base.extended(xs[9].clone(), ys[9]).unwrap();
        let full =
            GaussianProcess::fit(Kernel::matern52(1.0, 0.3), GpConfig::default(), xs, ys).unwrap();
        assert_eq!(inc.len(), full.len());
        assert!(
            (inc.log_marginal_likelihood() - full.log_marginal_likelihood()).abs() < 1e-9,
            "log-marginal drift: {} vs {}",
            inc.log_marginal_likelihood(),
            full.log_marginal_likelihood()
        );
        for i in 0..30 {
            let x = [f64::from(i) / 29.0 * 2.0 - 0.5];
            let (mi, vi) = inc.predict(&x);
            let (mf, vf) = full.predict(&x);
            assert!((mi - mf).abs() < 1e-9, "mean drift at {x:?}: {mi} vs {mf}");
            assert!((vi - vf).abs() < 1e-9, "variance drift at {x:?}: {vi} vs {vf}");
        }
    }

    #[test]
    fn extended_rejects_malformed_points() {
        let gp = fit_toy();
        assert!(matches!(
            gp.extended(vec![0.1, 0.2], 0.5).unwrap_err(),
            GpError::DimensionMismatch { .. }
        ));
        assert_eq!(gp.extended(vec![f64::NAN], 0.5).unwrap_err(), GpError::NonFiniteValue);
        assert_eq!(gp.extended(vec![0.1], f64::INFINITY).unwrap_err(), GpError::NonFiniteValue);
    }

    #[test]
    fn extended_duplicate_point_falls_back_to_refit() {
        // An exact duplicate of a training point makes the bordered matrix
        // singular at the base fit's (zero) jitter, so `extended` must fall
        // back to the full decompose-with-jitter path and still succeed.
        let xs = vec![vec![0.1], vec![0.5], vec![0.9]];
        let ys = vec![0.3, 0.7, 0.2];
        let gp = GaussianProcess::fit(
            Kernel::matern52(1.0, 0.4),
            GpConfig { noise_variance: 0.0 },
            xs,
            ys,
        )
        .unwrap();
        let inc = gp.extended(vec![0.5], 0.7).unwrap();
        assert_eq!(inc.len(), 4);
        let (m, _) = inc.predict(&[0.5]);
        assert!(m.is_finite());
    }

    #[test]
    fn higher_dimensional_inputs() {
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let t = f64::from(i) / 19.0;
                vec![t, 1.0 - t, (t * 7.0).fract()]
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[1] + 0.3 * x[2]).collect();
        let gp =
            GaussianProcess::fit(Kernel::matern52(1.0, 0.5), GpConfig::default(), xs, ys).unwrap();
        assert_eq!(gp.dim(), 3);
        let (m, _) = gp.predict(&[0.5, 0.5, 0.5]);
        assert!((m - 0.4).abs() < 0.15);
    }
}
