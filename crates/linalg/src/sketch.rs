//! Randomized sketching primitives: the seeded Gaussian sketch, the randomized
//! range-finder for covariance eigenproblems, and the Nyström low-rank
//! eigendecomposition for kernel matrices.
//!
//! The exact whitening preamble of TCCA forms the `d × d` covariance and takes its
//! inverse square root — `O(d²)` memory and an `O(d³)` dense eigensolve, which is
//! infeasible at `d ≈ 100k`. The primitives here never materialize the covariance:
//! [`randomized_covariance_eig`] touches `C = XXᵀ/N` only through the two-GEMM
//! product `C·Ω = X(XᵀΩ)/N`, riding the existing blocked engine ([`crate::gemm`]),
//! plus a thin QR ([`crate::thin_qr`]) of the `d × ℓ` range and one `ℓ × ℓ`
//! eigensolve. [`nystrom_eig`] is the kernel-matrix analogue: a seeded landmark
//! subset replaces the Gaussian sketch, so `N × N` Gram matrices factor through
//! `N × m` blocks.
//!
//! ## Determinism
//!
//! Everything here is bit-deterministic in the seed and independent of
//! `TCCA_NUM_THREADS`: the sketch is generated sequentially by a [`SketchRng`]
//! (SplitMix64 + Box–Muller, no shared state), the QR and small eigensolves are
//! sequential, and every large product runs through the blocked GEMM engine whose
//! accumulation schedule is already pinned across thread counts (CI diffs a
//! `randomized_whiten` kernel checksum under 1 vs 4 threads).

use crate::{LinalgError, Matrix, Result, SymmetricEigen};

/// A tiny, self-contained, sequentially deterministic Gaussian generator
/// (SplitMix64 bit stream, Box–Muller transform). Two instances with the same seed
/// produce the same stream on every platform and thread count.
#[derive(Debug, Clone)]
pub struct SketchRng {
    state: u64,
    spare: Option<f64>,
}

impl SketchRng {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed,
            spare: None,
        }
    }

    /// Next raw 64-bit value of the SplitMix64 stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in the open interval `(0, 1)`.
    fn uniform_open(&mut self) -> f64 {
        // 53 mantissa bits, then shift off zero so ln() below is always finite.
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u + f64::EPSILON
    }

    /// Standard normal draw via Box–Muller (caches the second value of each pair).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(v) = self.spare.take() {
            return v;
        }
        let u1 = self.uniform_open();
        let u2 = self.uniform_open();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }
}

/// A `rows × cols` matrix of i.i.d. standard normal entries, filled row-major from
/// one sequential [`SketchRng`] stream — the seeded Gaussian sketch `Ω`.
pub fn gaussian_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SketchRng::new(seed);
    let data: Vec<f64> = (0..rows * cols).map(|_| rng.standard_normal()).collect();
    Matrix::from_vec(rows, cols, data).expect("shape matches data")
}

/// A truncated symmetric eigendecomposition `A ≈ U diag(λ) Uᵀ` with orthonormal
/// columns in `U` and eigenvalues in decreasing order — the common return type of
/// the randomized low-rank factorizations in this module.
#[derive(Debug, Clone)]
pub struct LowRankEig {
    /// Approximate leading eigenvalues, decreasing.
    pub eigenvalues: Vec<f64>,
    /// The matching eigenvectors as orthonormal columns (`d × k`).
    pub eigenvectors: Matrix,
}

/// `C·Q` for the implicit covariance `C = XXᵀ/N` of a centered `d × N` view,
/// computed as two GEMMs without ever forming `C`.
fn covariance_times(x: &Matrix, q: &Matrix) -> Result<Matrix> {
    let inv_n = 1.0 / x.cols().max(1) as f64;
    Ok(x.matmul(&x.t_matmul(q)?)?.scale(inv_n))
}

/// Approximate the top-`rank` eigenpairs of the covariance `C = XXᵀ/N` of a
/// **centered** `d × N` view via a randomized range-finder with subspace iteration
/// (Halko, Martinsson & Tropp 2011), without ever materializing `C`:
///
/// 1. sketch `Y = C·Ω` with a seeded `d × ℓ` Gaussian `Ω`, `ℓ = rank + oversample`,
///    each application of `C` costing two `d × N` GEMMs,
/// 2. `power_iters` rounds of `Y ← C·orth(Y)` (thin QR between multiplies keeps the
///    basis from collapsing onto the dominant eigenvector),
/// 3. project: `T = QᵀCQ = BᵀB/N` with `B = XᵀQ` — an `ℓ × ℓ` symmetric
///    eigenproblem — and rotate the small eigenvectors back up through `Q`.
///
/// The returned basis spans the dominant eigenspace up to the usual randomized
/// error bound; with 1–2 power iterations and a modest oversample the principal
/// angles against the exact leading eigenvectors are small whenever the spectrum
/// decays (property-tested against the dense eigensolver at small `d`).
pub fn randomized_covariance_eig(
    x: &Matrix,
    rank: usize,
    oversample: usize,
    power_iters: usize,
    seed: u64,
) -> Result<LowRankEig> {
    let (d, n) = x.shape();
    if rank == 0 {
        return Err(LinalgError::InvalidArgument(
            "randomized eig rank must be positive".into(),
        ));
    }
    if d == 0 || n == 0 {
        return Err(LinalgError::InvalidArgument(
            "cannot sketch an empty view".into(),
        ));
    }
    let k = rank.min(d).min(n);
    let l = (k + oversample).min(d);

    let omega = gaussian_matrix(d, l, seed);
    let mut y = covariance_times(x, &omega)?;
    for _ in 0..power_iters {
        let (q, _) = crate::thin_qr(&y)?;
        y = covariance_times(x, &q)?;
    }
    let (q, _) = crate::thin_qr(&y)?;

    // T = QᵀCQ = (XᵀQ)ᵀ(XᵀQ)/N: the ℓ × ℓ shadow of C in the recovered range.
    let b = x.t_matmul(&q)?;
    let t = b.gram_t().scale(1.0 / n as f64);
    let eig = SymmetricEigen::new(&t)?;
    let eigenvectors = q.matmul(&eig.eigenvectors.leading_columns(k))?;
    Ok(LowRankEig {
        eigenvalues: eig.eigenvalues[..k].to_vec(),
        eigenvectors,
    })
}

/// Approximate the top eigenpairs of a symmetric PSD `N × N` kernel matrix from
/// `landmarks` seeded landmark columns (the Nyström method): with `J` the landmark
/// set, `C = K[:, J]` and `W = K[J, J]`,
///
/// ```text
/// K ≈ C W⁺ Cᵀ = M Mᵀ,   M = C W^{-1/2}
/// ```
///
/// so the eigenpairs of the rank-`m` approximation come from the `m × m`
/// eigenproblem of `MᵀM`. Only `N × m` blocks are ever multiplied — the kernel
/// methods' whitening stops scaling with `N²·N` and kernel TCCA becomes tractable
/// beyond toy `N`. Directions whose landmark-block eigenvalue falls below
/// `1e-10 · λ₁` are dropped (pseudo-inverse), so the returned width can be below
/// `landmarks` for rank-deficient kernels.
pub fn nystrom_eig(kernel: &Matrix, landmarks: usize, seed: u64) -> Result<LowRankEig> {
    let n = kernel.rows();
    if !kernel.is_square() {
        return Err(LinalgError::NotSquare {
            rows: kernel.rows(),
            cols: kernel.cols(),
        });
    }
    if n == 0 || landmarks == 0 {
        return Err(LinalgError::InvalidArgument(
            "Nyström needs a non-empty kernel and at least one landmark".into(),
        ));
    }
    let m = landmarks.min(n);

    // Seeded landmark subset: partial Fisher–Yates over 0..n, then sorted so the
    // landmark order (and therefore every downstream bit) is canonical.
    let mut indices: Vec<usize> = (0..n).collect();
    let mut rng = SketchRng::new(seed);
    for i in 0..m {
        let j = i + (rng.next_u64() as usize) % (n - i);
        indices.swap(i, j);
    }
    let mut picked = indices[..m].to_vec();
    picked.sort_unstable();

    let c = kernel.select_columns(&picked);
    let w = c.select_rows(&picked);

    // Pseudo inverse square root of the landmark block: drop the null space instead
    // of clamping it, so a singular centered kernel cannot inject spurious
    // directions into the recovered range.
    let eig = SymmetricEigen::new(&w)?;
    let lambda_max = eig.eigenvalues.first().copied().unwrap_or(0.0).max(0.0);
    let cutoff = 1e-10 * lambda_max.max(f64::MIN_POSITIVE);
    let w_inv_sqrt = eig.spectral_map(|l| if l > cutoff { 1.0 / l.sqrt() } else { 0.0 });

    let factor = c.matmul(&w_inv_sqrt)?; // M: N × m, K ≈ M Mᵀ
    let small = factor.gram_t(); // MᵀM: m × m
    let eig = SymmetricEigen::new(&small)?;

    // Eigenvectors of M Mᵀ: u_i = M v_i / √λ_i, for the λ_i that survived.
    let keep: usize = eig
        .eigenvalues
        .iter()
        .take_while(|&&l| l > cutoff)
        .count()
        .max(1);
    let mut scaled = eig.eigenvectors.leading_columns(keep);
    for j in 0..keep {
        let inv = 1.0 / eig.eigenvalues[j].max(f64::MIN_POSITIVE).sqrt();
        for i in 0..scaled.rows() {
            scaled[(i, j)] *= inv;
        }
    }
    Ok(LowRankEig {
        eigenvalues: eig.eigenvalues[..keep].to_vec(),
        eigenvectors: factor.matmul(&scaled)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::center_rows;

    fn decaying_view(d: usize, n: usize, seed: u64) -> Matrix {
        // Planted spectrum: feature i carries variance ~ (i+1)^-2 plus a shared
        // strong direction, so the covariance has a clear dominant eigenspace.
        let mut rng = SketchRng::new(seed);
        let mut x = Matrix::zeros(d, n);
        for j in 0..n {
            let shared = rng.standard_normal();
            for i in 0..d {
                let scale = 1.0 / ((i + 1) as f64);
                x[(i, j)] = 3.0 * shared * scale + 0.2 * scale * rng.standard_normal();
            }
        }
        x
    }

    #[test]
    fn sketch_is_seed_deterministic_and_seed_sensitive() {
        let a = gaussian_matrix(7, 5, 42);
        let b = gaussian_matrix(7, 5, 42);
        assert_eq!(a, b);
        let c = gaussian_matrix(7, 5, 43);
        assert_ne!(a, c);
        // Sanity: roughly standard normal.
        let mean: f64 = a.as_slice().iter().sum::<f64>() / 35.0;
        assert!(mean.abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn randomized_eig_matches_the_dense_eigensolver_on_small_problem() {
        let (x, _) = center_rows(&decaying_view(20, 300, 1));
        let approx = randomized_covariance_eig(&x, 4, 6, 2, 9).unwrap();
        let exact = SymmetricEigen::new(&crate::covariance(&x)).unwrap();
        for k in 0..4 {
            let rel = (approx.eigenvalues[k] - exact.eigenvalues[k]).abs()
                / exact.eigenvalues[0].max(1e-12);
            assert!(rel < 1e-6, "eigenvalue {k}: rel error {rel}");
        }
        // Orthonormal columns.
        let g = approx.eigenvectors.gram_t();
        for i in 0..4 {
            for j in 0..4 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((g[(i, j)] - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn randomized_eig_is_bit_deterministic_in_the_seed() {
        let (x, _) = center_rows(&decaying_view(16, 120, 2));
        let a = randomized_covariance_eig(&x, 3, 4, 1, 5).unwrap();
        let b = randomized_covariance_eig(&x, 3, 4, 1, 5).unwrap();
        assert_eq!(a.eigenvectors, b.eigenvectors);
        assert_eq!(a.eigenvalues, b.eigenvalues);
    }

    #[test]
    fn nystrom_recovers_low_rank_kernel() {
        // A rank-3 PSD kernel: K = V Vᵀ with V n×3.
        let n = 40;
        let v = gaussian_matrix(n, 3, 11);
        let k = v.matmul_t(&v).unwrap();
        let approx = nystrom_eig(&k, 10, 4).unwrap();
        // Reconstruction error of U diag(λ) Uᵀ against K is tiny.
        let mut recon = approx.eigenvectors.clone();
        for j in 0..approx.eigenvalues.len() {
            for i in 0..n {
                recon[(i, j)] *= approx.eigenvalues[j];
            }
        }
        let recon = recon.matmul_t(&approx.eigenvectors).unwrap();
        let err = k.sub(&recon).unwrap().frobenius_norm() / k.frobenius_norm();
        assert!(err < 1e-8, "relative reconstruction error {err}");
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let x = decaying_view(5, 10, 3);
        assert!(randomized_covariance_eig(&x, 0, 2, 1, 1).is_err());
        assert!(nystrom_eig(&Matrix::zeros(3, 4), 2, 1).is_err());
        assert!(nystrom_eig(&Matrix::zeros(3, 3), 0, 1).is_err());
    }
}
