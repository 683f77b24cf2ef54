//! Linear tensor CCA (paper §4.2–4.3).
//!
//! Pipeline implemented by [`Tcca::fit`]:
//!
//! 1. center every view `X_p` and form the regularized covariances `C̃_pp = C_pp + εI`,
//! 2. compute the whiteners `W_p = C̃_pp^{-1/2}`,
//! 3. build the **whitened covariance tensor**
//!    `M = (1/N) Σ_n (W₁x₁ₙ) ∘ (W₂x₂ₙ) ∘ … ∘ (Wₘxₘₙ)`, which equals
//!    `C₁₂…ₘ ×₁ W₁ ×₂ W₂ … ×ₘ Wₘ` (Theorem 2) but costs one pass over the data,
//! 4. find its rank-`r` CP approximation `M ≈ Σ_k ρ_k u₁⁽ᵏ⁾ ∘ … ∘ uₘ⁽ᵏ⁾` (Eq. 4.10),
//! 5. map back: the canonical vectors are `h_p⁽ᵏ⁾ = W_p u_p⁽ᵏ⁾` and each view is
//!    projected as `Z_p = X_pᵀ W_p U_p` (Eq. 4.11); the final representation is the
//!    concatenation `[Z₁ … Z_m] ∈ R^{N × m·r}`.

use crate::{Result, TccaError, TccaOptions};
use linalg::{center_rows, covariance, Matrix};
use tensor::DenseTensor;

/// Samples per block of the chunked moment-tensor accumulation: each block is one
/// GEMM with a reduction depth of 64, whose partial sums are added onto the tensor
/// block by block. The block size fixes every element's summation order, so it is
/// part of the result's bits — never derived from the thread count, never changed
/// without regenerating the checksum baselines.
const MOMENT_CHUNK: usize = 64;

/// Accumulate the `m`-th-order moment tensor `(1/N) Σ_n y₁ₙ ∘ y₂ₙ ∘ … ∘ yₘₙ` of
/// already-centered (or whitened) `d_p × N` views.
///
/// With the first-index-fastest layout, the flat storage *is* the row-major
/// `(Π_{p≥2} d_p) × d₁` matrix `unfold₁(M)ᵀ`, and for each block of samples
/// `unfold₁(M)ᵀ += Kᵀ B`, where row `j` of `K` is the Khatri–Rao column
/// `y_mⱼ ⊗ … ⊗ y₂ⱼ` and row `j` of `B` is `y₁ⱼᵀ` — for order 3 this is exactly
/// `unfold₁(M) = Y₁ (Y₃ ⊙ Y₂)ᵀ / N` built block by block.
/// [`Matrix::khatri_rao_t_matmul_acc`] computes each block's Khatri–Rao entries
/// inside the GEMM's packer, in parallel, so no `64 × Π_{p≥2} d_p` staging matrix
/// is built. `threads: None` sizes each block's GEMM by its work; an explicit count
/// is for the determinism tests (the bits never depend on it).
fn moment_tensor(views: &[Matrix], threads: Option<usize>) -> Result<DenseTensor> {
    let n = views[0].cols();
    let shape: Vec<usize> = views.iter().map(|v| v.rows()).collect();
    let rest: usize = shape[1..].iter().product();
    // Flat accumulator: row-major (rest × d₁) == the tensor's first-index-fastest data.
    let mut acc = Matrix::zeros(rest, shape[0]);
    for start in (0..n).step_by(MOMENT_CHUNK) {
        let block = start..n.min(start + MOMENT_CHUNK);
        match threads {
            Some(t) => Matrix::khatri_rao_t_matmul_acc_with_threads(
                &views[1..],
                &views[0],
                block,
                &mut acc,
                t,
            ),
            None => Matrix::khatri_rao_t_matmul_acc(&views[1..], &views[0], block, &mut acc),
        }
        .map_err(tensor_shape_bug)?;
    }
    let weight = 1.0 / n.max(1) as f64;
    let mut data = acc.into_vec();
    for v in &mut data {
        *v *= weight;
    }
    DenseTensor::from_vec(&shape, data).map_err(|e| TccaError::InvalidInput(e.to_string()))
}

fn tensor_shape_bug(e: linalg::LinalgError) -> TccaError {
    TccaError::InvalidInput(format!("internal moment-tensor shape error: {e}"))
}

/// Build the (centered) covariance tensor `C₁₂…ₘ = (1/N) Σ_n x₁ₙ ∘ x₂ₙ ∘ … ∘ xₘₙ` of a
/// set of `d_p × N` views. Exposed mainly for tests and the benchmark harness; `Tcca`
/// itself accumulates the whitened tensor directly.
pub fn covariance_tensor(views: &[Matrix]) -> Result<DenseTensor> {
    check_views(views)?;
    let centered: Vec<Matrix> = views.iter().map(|v| center_rows(v).0).collect();
    moment_tensor(&centered, None)
}

/// Build the whitened covariance tensor `M = C₁₂…ₘ ×₁ W₁ … ×ₘ Wₘ` given per-view
/// whiteners, in a single pass over the data.
pub fn whitened_covariance_tensor(
    centered_views: &[Matrix],
    whiteners: &[Matrix],
) -> Result<DenseTensor> {
    if centered_views.len() != whiteners.len() {
        return Err(TccaError::InvalidInput(format!(
            "{} views but {} whiteners",
            centered_views.len(),
            whiteners.len()
        )));
    }
    // Whitened data Y_p = W_p X_p (d_p × N).
    let mut whitened = Vec::with_capacity(centered_views.len());
    for (x, w) in centered_views.iter().zip(whiteners.iter()) {
        whitened.push(w.matmul(x)?);
    }
    moment_tensor(&whitened, None)
}

/// A fitted linear TCCA model.
#[derive(Debug, Clone)]
pub struct Tcca {
    means: Vec<Vec<f64>>,
    /// Per-view projections `H_p = W_p U_p` (`d_p × r`).
    projections: Vec<Matrix>,
    /// Canonical correlations `ρ_k` (the CP weights), in decreasing magnitude.
    correlations: Vec<f64>,
    /// CP factors `U_p` of the whitened covariance tensor (`d_p × r`), kept to
    /// warm-start streaming refits. Empty on models loaded from files persisted
    /// before factors were recorded.
    factors: Vec<Matrix>,
    options: TccaOptions,
}

impl Tcca {
    /// Fit TCCA on `m ≥ 2` views (`d_p × N` matrices sharing the instance axis).
    pub fn fit(views: &[Matrix], options: &TccaOptions) -> Result<Self> {
        check_views(views)?;
        if options.rank == 0 {
            return Err(TccaError::InvalidInput("rank must be positive".into()));
        }

        // 1–2: center, regularize, whiten.
        let mut means = Vec::with_capacity(views.len());
        let mut centered = Vec::with_capacity(views.len());
        let mut whiteners = Vec::with_capacity(views.len());
        for v in views {
            let (x, mean) = center_rows(v);
            let mut c = covariance(&x);
            c.add_diagonal(options.epsilon);
            whiteners.push(c.inverse_sqrt_spd(1e-12)?);
            centered.push(x);
            means.push(mean);
        }

        // 3: whitened covariance tensor M.
        let m = whitened_covariance_tensor(&centered, &whiteners)?;

        // 4: rank-r decomposition M ≈ Σ ρ_k u₁ ∘ … ∘ u_m.
        let cp = options.decompose(&m, options.rank)?;

        // 5: back-map the factors through the whiteners.
        let mut projections = Vec::with_capacity(views.len());
        for (p, w) in whiteners.iter().enumerate() {
            projections.push(w.matmul(&cp.factors[p])?);
        }

        Ok(Self {
            means,
            projections,
            correlations: cp.weights,
            factors: cp.factors,
            options: options.clone(),
        })
    }

    /// Fit TCCA from accumulated sufficient statistics instead of raw samples: the
    /// per-view `means`, the per-view covariance blocks `C_pp`, and the centered
    /// covariance tensor `C₁₂…ₘ` — all derivable from mergeable streaming moments.
    ///
    /// The whitened tensor is formed as `M = C₁₂…ₘ ×₁ W₁ … ×ₘ Wₘ` (Theorem 2's
    /// mode-product identity, the path [`whitened_covariance_tensor`] avoids when raw
    /// data is at hand). When `warm_start` carries a previous model's
    /// [`Tcca::factors`], the decomposition is seeded from them and typically
    /// converges in a few sweeps. Returns the model and the sweep count.
    pub fn fit_from_moments(
        means: Vec<Vec<f64>>,
        view_covariances: &[Matrix],
        covariance_tensor: &DenseTensor,
        options: &TccaOptions,
        warm_start: Option<&[Matrix]>,
    ) -> Result<(Self, usize)> {
        if options.rank == 0 {
            return Err(TccaError::InvalidInput("rank must be positive".into()));
        }
        let m = means.len();
        if m < 2 {
            return Err(TccaError::InvalidInput(
                "TCCA needs at least two views".into(),
            ));
        }
        if view_covariances.len() != m || covariance_tensor.order() != m {
            return Err(TccaError::InvalidInput(format!(
                "inconsistent moment arity: {m} means, {} covariances, order-{} tensor",
                view_covariances.len(),
                covariance_tensor.order()
            )));
        }
        for (p, (mean, c)) in means.iter().zip(view_covariances.iter()).enumerate() {
            let d = mean.len();
            if c.rows() != d || c.cols() != d || covariance_tensor.shape()[p] != d {
                return Err(TccaError::InvalidInput(format!(
                    "view {p}: mean has {d} entries but covariance is {}x{} and tensor \
                     dimension is {}",
                    c.rows(),
                    c.cols(),
                    covariance_tensor.shape()[p]
                )));
            }
        }

        let mut whiteners = Vec::with_capacity(m);
        for c in view_covariances {
            let mut c = c.clone();
            c.add_diagonal(options.epsilon);
            whiteners.push(c.inverse_sqrt_spd(1e-12)?);
        }

        let mut whitened = covariance_tensor.clone();
        for (p, w) in whiteners.iter().enumerate() {
            whitened = whitened
                .mode_product(p, w)
                .map_err(|e| TccaError::InvalidInput(e.to_string()))?;
        }

        let (cp, sweeps) = options.decompose_sweeps(&whitened, options.rank, warm_start)?;

        let mut projections = Vec::with_capacity(m);
        for (p, w) in whiteners.iter().enumerate() {
            projections.push(w.matmul(&cp.factors[p])?);
        }

        Ok((
            Self {
                means,
                projections,
                correlations: cp.weights,
                factors: cp.factors,
                options: options.clone(),
            },
            sweeps,
        ))
    }

    /// Rebuild a fitted model from its parts (the persistence path).
    pub fn from_parts(
        means: Vec<Vec<f64>>,
        projections: Vec<Matrix>,
        correlations: Vec<f64>,
        options: TccaOptions,
    ) -> Result<Self> {
        if means.len() != projections.len() {
            return Err(TccaError::InvalidInput(format!(
                "{} means but {} projections",
                means.len(),
                projections.len()
            )));
        }
        for (p, (mean, proj)) in means.iter().zip(projections.iter()).enumerate() {
            if mean.len() != proj.rows() {
                return Err(TccaError::InvalidInput(format!(
                    "view {p}: mean has {} entries but projection has {} rows",
                    mean.len(),
                    proj.rows()
                )));
            }
        }
        Ok(Self {
            means,
            projections,
            correlations,
            factors: Vec::new(),
            options,
        })
    }

    /// Attach the CP factors `U_p` of the whitened tensor to a rebuilt model (the
    /// persistence path for files that recorded them). Each factor must have the same
    /// row count as the corresponding projection.
    pub fn with_factors(mut self, factors: Vec<Matrix>) -> Result<Self> {
        if !factors.is_empty() {
            if factors.len() != self.projections.len() {
                return Err(TccaError::InvalidInput(format!(
                    "{} factor matrices for {} views",
                    factors.len(),
                    self.projections.len()
                )));
            }
            for (p, (f, proj)) in factors.iter().zip(self.projections.iter()).enumerate() {
                if f.rows() != proj.rows() {
                    return Err(TccaError::InvalidInput(format!(
                        "view {p}: factor has {} rows but projection has {}",
                        f.rows(),
                        proj.rows()
                    )));
                }
            }
        }
        self.factors = factors;
        Ok(self)
    }

    /// The per-view training means subtracted before projecting.
    pub fn means(&self) -> &[Vec<f64>] {
        &self.means
    }

    /// The canonical correlations `ρ_k` discovered by the decomposition (one per
    /// component, sorted by decreasing magnitude).
    pub fn correlations(&self) -> &[f64] {
        &self.correlations
    }

    /// The per-view projection matrices `H_p = C̃_pp^{-1/2} U_p` (`d_p × r`).
    pub fn projections(&self) -> &[Matrix] {
        &self.projections
    }

    /// The CP factors `U_p` of the whitened covariance tensor (`d_p × r`), the seed
    /// for warm-started refits. Empty on models loaded from files persisted before
    /// factors were recorded.
    pub fn factors(&self) -> &[Matrix] {
        &self.factors
    }

    /// Number of views the model was fitted on.
    pub fn num_views(&self) -> usize {
        self.projections.len()
    }

    /// The options the model was fitted with.
    pub fn options(&self) -> &TccaOptions {
        &self.options
    }

    /// Project a single view (`d_p × M` matrix of new or training instances) into the
    /// common subspace, producing an `M × r` embedding `Z_p = X_pᵀ H_p`.
    pub fn transform_view(&self, which: usize, view: &Matrix) -> Result<Matrix> {
        if which >= self.projections.len() {
            return Err(TccaError::InvalidInput(format!(
                "view index {which} out of range for {} views",
                self.projections.len()
            )));
        }
        // One-part view through the shifted GEMM: centering happens while the
        // kernel packs, so no centered copy of the input is ever allocated. The
        // result is bit-identical to clone-center-then-`t_matmul` (property-tested).
        self.transform_view_cols(which, &linalg::ColsView::from_matrices([view])?)
    }

    /// Zero-copy variant of [`Tcca::transform_view`]: project the horizontal
    /// concatenation of borrowed column blocks (a coalesced serving batch) without
    /// materializing it — the training means are subtracted while the blocked GEMM
    /// packs its panels, so the result is **bit-identical** to stitching the blocks
    /// and calling [`Tcca::transform_view`].
    pub fn transform_view_cols(&self, which: usize, cols: &linalg::ColsView<'_>) -> Result<Matrix> {
        if which >= self.projections.len() {
            return Err(TccaError::InvalidInput(format!(
                "view index {which} out of range for {} views",
                self.projections.len()
            )));
        }
        let proj = &self.projections[which];
        if cols.rows() != proj.rows() {
            return Err(TccaError::InvalidInput(format!(
                "view {which} has {} features but the model expects {}",
                cols.rows(),
                proj.rows()
            )));
        }
        Ok(cols.shifted_t_matmul(Some(&self.means[which]), proj)?)
    }

    /// Project every view and concatenate the per-view embeddings into the final
    /// `M × (m · r)` representation (paper §4.3, following Foster et al.).
    pub fn transform(&self, views: &[Matrix]) -> Result<Matrix> {
        if views.len() != self.projections.len() {
            return Err(TccaError::InvalidInput(format!(
                "expected {} views, got {}",
                self.projections.len(),
                views.len()
            )));
        }
        let mut out = self.transform_view(0, &views[0])?;
        for (p, v) in views.iter().enumerate().skip(1) {
            out = out.hstack(&self.transform_view(p, v)?)?;
        }
        Ok(out)
    }

    /// Evaluate the high-order canonical correlation (Theorem 1) of the fitted model's
    /// `k`-th component on held-out views: `ρ = (z₁ ⊙ … ⊙ z_m)ᵀ e / M` with each `z_p`
    /// normalized to unit variance. Useful for diagnostics and tests.
    pub fn component_correlation(&self, views: &[Matrix], component: usize) -> Result<f64> {
        if component >= self.correlations.len() {
            return Err(TccaError::InvalidInput(format!(
                "component {component} out of range for rank {}",
                self.correlations.len()
            )));
        }
        let m = views.len();
        let n = views[0].cols();
        let mut zs = Vec::with_capacity(m);
        for (p, v) in views.iter().enumerate() {
            let z = self.transform_view(p, v)?;
            let mut col = z.column(component);
            // Normalize to unit norm (the constraint z_pᵀ z_p = 1 of Eq. 4.5).
            let norm = col.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-300 {
                for x in &mut col {
                    *x /= norm;
                }
            }
            zs.push(col);
        }
        let mut rho = 0.0;
        for j in 0..n {
            let mut prod = 1.0;
            for z in &zs {
                prod *= z[j];
            }
            rho += prod;
        }
        Ok(rho)
    }
}

fn check_views(views: &[Matrix]) -> Result<()> {
    if views.len() < 2 {
        return Err(TccaError::InvalidInput(
            "TCCA needs at least two views".into(),
        ));
    }
    let n = views[0].cols();
    if n == 0 {
        return Err(TccaError::InvalidInput("views hold no instances".into()));
    }
    for (p, v) in views.iter().enumerate() {
        if v.cols() != n {
            return Err(TccaError::InvalidInput(format!(
                "view {p} has {} instances, expected {n}",
                v.cols()
            )));
        }
        if v.rows() == 0 {
            return Err(TccaError::InvalidInput(format!("view {p} has no features")));
        }
        if v.as_slice().iter().any(|x| !x.is_finite()) {
            return Err(TccaError::InvalidInput(format!(
                "view {p} holds a NaN or infinite value"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecompositionMethod;
    use datasets::GaussianRng;

    /// Views sharing a strong 1-D latent signal observable in all three views.
    ///
    /// The latent is deliberately **skewed** (a two-point mixture with unequal masses):
    /// the order-3 canonical correlation TCCA maximizes is a third cross-moment, which
    /// vanishes for symmetric latents — exactly why the paper's datasets (binary
    /// indicators, histograms) are the natural habitat of the method.
    fn shared_signal_views(n: usize, seed: u64, noise: f64) -> Vec<Matrix> {
        let mut rng = GaussianRng::new(seed);
        let dims = [5usize, 4, 3];
        let mut views: Vec<Matrix> = dims.iter().map(|&d| Matrix::zeros(d, n)).collect();
        for j in 0..n {
            let t = if rng.bernoulli(0.25) { 1.6 } else { -0.4 } + 0.05 * rng.standard_normal();
            for v in views.iter_mut() {
                for i in 0..v.rows() {
                    v[(i, j)] = t * (i as f64 + 1.0) + noise * rng.standard_normal();
                }
            }
        }
        views
    }

    /// The tensor build as it stood before the Khatri–Rao packer: each chunk's
    /// Khatri–Rao block is materialized row by row and handed to `t_matmul_acc`.
    /// Kept only as the bit-identity reference for [`moment_tensor`].
    fn moment_tensor_reference(views: &[Matrix]) -> DenseTensor {
        let n = views[0].cols();
        let shape: Vec<usize> = views.iter().map(|v| v.rows()).collect();
        let d0 = shape[0];
        let rest: usize = shape[1..].iter().product::<usize>().max(1);
        let chunk = MOMENT_CHUNK.min(n.max(1));
        let mut acc = Matrix::zeros(rest, d0);
        let mut col_bufs: Vec<Vec<f64>> = shape[1..].iter().map(|&d| vec![0.0; d]).collect();
        let mut kr_block = Matrix::zeros(chunk, rest);
        let mut b_block = Matrix::zeros(chunk, d0);
        for start in (0..n).step_by(chunk) {
            let c = chunk.min(n - start);
            for j in 0..c {
                let sample = start + j;
                for (i, b) in b_block.row_mut(j).iter_mut().enumerate() {
                    *b = views[0][(i, sample)];
                }
                for (buf, v) in col_bufs.iter_mut().zip(views[1..].iter()) {
                    for (i, x) in buf.iter_mut().enumerate() {
                        *x = v[(i, sample)];
                    }
                }
                kr_expand_row(kr_block.row_mut(j), &col_bufs);
            }
            for j in c..chunk {
                kr_block.row_mut(j).fill(0.0);
            }
            kr_block.t_matmul_acc(&b_block, &mut acc).unwrap();
        }
        let weight = 1.0 / n.max(1) as f64;
        let mut data = acc.into_vec();
        for v in &mut data {
            *v *= weight;
        }
        DenseTensor::from_vec(&shape, data).unwrap()
    }

    /// Fill `row` with the Khatri–Rao column `v_L ⊗ … ⊗ v_1`, first view's index
    /// fastest, expanding in place from the back (reference helper).
    fn kr_expand_row(row: &mut [f64], columns: &[Vec<f64>]) {
        if columns.is_empty() {
            if let Some(first) = row.first_mut() {
                *first = 1.0;
            }
            return;
        }
        let mut len = columns[0].len();
        row[..len].copy_from_slice(&columns[0]);
        for col in &columns[1..] {
            for j in (1..col.len()).rev() {
                let cj = col[j];
                let (head, tail) = row.split_at_mut(j * len);
                for (t, &h) in tail[..len].iter_mut().zip(head[..len].iter()) {
                    *t = h * cj;
                }
            }
            let c0 = col[0];
            for x in row[..len].iter_mut() {
                *x *= c0;
            }
            len *= col.len();
        }
    }

    fn gaussian_views(dims: &[usize], n: usize, seed: u64) -> Vec<Matrix> {
        let mut rng = GaussianRng::new(seed);
        dims.iter()
            .map(|&d| {
                let data = (0..d * n).map(|_| rng.standard_normal()).collect();
                Matrix::from_vec(d, n, data).unwrap()
            })
            .collect()
    }

    #[test]
    fn moment_tensor_is_bit_identical_to_the_materialized_reference() {
        // Orders 2–4; dimensions below MR, odd, one above NR (two B panels) and
        // Khatri–Rao heights above MC; N straddling the 64-sample block.
        let shapes: [&[usize]; 6] = [
            &[3, 2],
            &[9, 7],
            &[3, 5, 7],
            &[9, 11, 13],
            &[1, 3, 2, 5],
            &[5, 3, 4, 7],
        ];
        for (s, dims) in shapes.iter().enumerate() {
            for n in [1, 63, 64, 65, 300] {
                let views = gaussian_views(dims, n, 40 + s as u64);
                let want = moment_tensor_reference(&views);
                for threads in [1, 4] {
                    let got = moment_tensor(&views, Some(threads)).unwrap();
                    assert_eq!(got.shape(), want.shape());
                    for (e, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "dims {dims:?}, N = {n}, {threads} threads, element {e}: {g} vs {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn covariance_tensor_matches_manual_small_case() {
        // Two instances, tiny dims: verify a couple of entries by hand.
        let v1 = Matrix::from_rows(&[vec![1.0, -1.0]]).unwrap(); // 1 x 2, mean 0
        let v2 = Matrix::from_rows(&[vec![2.0, -2.0], vec![0.0, 0.0]]).unwrap(); // 2 x 2
        let v3 = Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap(); // constant => centered to 0
        let t = covariance_tensor(&[v1, v2, v3]).unwrap();
        assert_eq!(t.shape(), &[1, 2, 1]);
        // Third view centers to zero, so every entry must be zero.
        assert_eq!(t.get(&[0, 0, 0]), 0.0);
        assert_eq!(t.get(&[0, 1, 0]), 0.0);

        let v1 = Matrix::from_rows(&[vec![1.0, -1.0]]).unwrap();
        let v2 = Matrix::from_rows(&[vec![2.0, -2.0]]).unwrap();
        let v3 = Matrix::from_rows(&[vec![3.0, -3.0]]).unwrap();
        let t = covariance_tensor(&[v1, v2, v3]).unwrap();
        // (1/2) [1*2*3 + (-1)(-2)(-3)] = (1/2)(6 - 6) = 0 — odd moments cancel.
        assert!((t.get(&[0, 0, 0])).abs() < 1e-12);
    }

    #[test]
    fn whitened_tensor_equals_mode_products_of_covariance_tensor() {
        let views = shared_signal_views(60, 5, 0.3);
        let centered: Vec<Matrix> = views.iter().map(|v| center_rows(v).0).collect();
        let mut whiteners = Vec::new();
        for x in &centered {
            let mut c = covariance(x);
            c.add_diagonal(1e-2);
            whiteners.push(c.inverse_sqrt_spd(1e-12).unwrap());
        }
        let direct = whitened_covariance_tensor(&centered, &whiteners).unwrap();
        let mut via_modes = covariance_tensor(&views).unwrap();
        for (p, w) in whiteners.iter().enumerate() {
            via_modes = via_modes.mode_product(p, w).unwrap();
        }
        assert!(direct.sub(&via_modes).unwrap().frobenius_norm() < 1e-9);
    }

    #[test]
    fn recovers_strong_shared_correlation() {
        let views = shared_signal_views(400, 6, 0.15);
        let model = Tcca::fit(&views, &TccaOptions::with_rank(2)).unwrap();
        assert!(
            model.correlations()[0] > 0.8,
            "leading canonical correlation {:?}",
            model.correlations()
        );
        // The empirical high-order correlation of the first component dominates the
        // second. (Its absolute value scales like 1/√N because the z_p are normalized
        // to unit norm, so we compare components rather than testing a magnitude.)
        let rho0 = model.component_correlation(&views, 0).unwrap();
        let rho1 = model.component_correlation(&views, 1).unwrap();
        assert!(
            rho0.abs() > rho1.abs(),
            "component 0 ({rho0}) should dominate component 1 ({rho1})"
        );
    }

    #[test]
    fn transform_shapes_and_concatenation() {
        let views = shared_signal_views(80, 7, 0.3);
        let model = Tcca::fit(&views, &TccaOptions::with_rank(3)).unwrap();
        assert_eq!(model.num_views(), 3);
        let z = model.transform(&views).unwrap();
        assert_eq!(z.shape(), (80, 9));
        let z0 = model.transform_view(0, &views[0]).unwrap();
        assert_eq!(z0.shape(), (80, 3));
        // Out-of-sample projection works on fewer instances.
        let subset = views[0].select_columns(&[0, 1, 2, 3]);
        assert_eq!(model.transform_view(0, &subset).unwrap().shape(), (4, 3));
    }

    #[test]
    fn all_decomposition_methods_agree_on_dominant_component() {
        let views = shared_signal_views(250, 8, 0.2);
        let mut leading = Vec::new();
        for method in [
            DecompositionMethod::Als,
            DecompositionMethod::Hopm,
            DecompositionMethod::PowerMethod,
        ] {
            let opts = TccaOptions::with_rank(1).method(method);
            let model = Tcca::fit(&views, &opts).unwrap();
            leading.push(model.correlations()[0].abs());
        }
        for pair in leading.windows(2) {
            assert!(
                (pair[0] - pair[1]).abs() < 0.05,
                "methods disagree: {leading:?}"
            );
        }
    }

    #[test]
    fn regularization_shrinks_correlations() {
        let views = shared_signal_views(150, 9, 0.3);
        let light = Tcca::fit(&views, &TccaOptions::with_rank(1).epsilon(1e-4)).unwrap();
        let heavy = Tcca::fit(&views, &TccaOptions::with_rank(1).epsilon(10.0)).unwrap();
        assert!(heavy.correlations()[0].abs() < light.correlations()[0].abs());
    }

    #[test]
    fn two_view_tcca_behaves_like_cca() {
        // With m = 2 the covariance tensor is the cross-covariance matrix and TCCA's
        // leading correlation should match two-view CCA closely.
        let views = shared_signal_views(300, 10, 0.2);
        let two = vec![views[0].clone(), views[1].clone()];
        let model = Tcca::fit(&two, &TccaOptions::with_rank(1).epsilon(1e-3)).unwrap();
        assert!(model.correlations()[0] > 0.9);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let views = shared_signal_views(20, 11, 0.3);
        assert!(Tcca::fit(&views[..1], &TccaOptions::default()).is_err());
        assert!(Tcca::fit(&views, &TccaOptions::with_rank(0)).is_err());
        let mut bad = views.clone();
        bad[1] = Matrix::zeros(4, 19);
        assert!(Tcca::fit(&bad, &TccaOptions::default()).is_err());
        let empty = vec![Matrix::zeros(3, 0), Matrix::zeros(2, 0)];
        assert!(Tcca::fit(&empty, &TccaOptions::default()).is_err());

        let model = Tcca::fit(&views, &TccaOptions::with_rank(1)).unwrap();
        assert!(model.transform(&views[..2]).is_err());
        assert!(model.transform_view(5, &views[0]).is_err());
        assert!(model.transform_view(0, &Matrix::zeros(99, 5)).is_err());
        assert!(model.component_correlation(&views, 7).is_err());
    }

    #[test]
    fn non_finite_views_are_an_error_not_a_panic() {
        let views = shared_signal_views(40, 13, 0.3);
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            let mut poisoned = views.clone();
            poisoned[2][(1, 7)] = bad;
            assert!(Tcca::fit(&poisoned, &TccaOptions::with_rank(2)).is_err());
            assert!(covariance_tensor(&poisoned).is_err());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let views = shared_signal_views(60, 12, 0.3);
        let a = Tcca::fit(&views, &TccaOptions::with_rank(2).seed(5)).unwrap();
        let b = Tcca::fit(&views, &TccaOptions::with_rank(2).seed(5)).unwrap();
        assert_eq!(a.projections()[0], b.projections()[0]);
        assert_eq!(a.correlations(), b.correlations());
    }
}
