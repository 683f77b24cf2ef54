//! CP decomposition by alternating least squares (CP-ALS).
//!
//! This is the optimizer the paper adopts for TCCA (§4.3): the rank-`r` decomposition of
//! the whitened covariance tensor `M` is computed by cycling over the modes, each time
//! solving a linear least squares problem for one factor matrix while the others are
//! held fixed (Kroonenberg & De Leeuw 1980; Comon et al. 2009).
//!
//! A practical detail the paper leans on (§5.1.1, observation 5): ALS fits all `r`
//! components *simultaneously*, so the explained correlation tends to spread across the
//! factors rather than concentrating greedily in the first ones — which is why TCCA's
//! accuracy degrades less at large subspace dimensions than the greedy baselines.
//!
//! ## Kernel structure
//!
//! Each mode update needs the matricized-tensor-times-Khatri–Rao product
//! `T₍ₙ₎ · KR(..)`, which [`DenseTensor::mttkrp`] computes on the blocked GEMM
//! engine without materializing the unfolding or the Khatri–Rao matrix. A sweep
//! runs two GEMMs, not one per mode:
//!
//! * mode 0 is the single GEMM `T₍₀₎ · KR(A_m, …, A₁)`;
//! * right after the mode-0 update the sweep forms the partial product
//!   `P = T₍₀₎ᵀ · A₀` (one row per mode-0 fibre) and every later mode reads its
//!   MTTKRP off `P` with one streaming pass — `A₀` does not change again in the
//!   sweep, so `P` is exact for all of them.
//!
//! Both GEMMs run the engine's sequential reduction, so every sweep has the bits
//! of the scalar per-fibre MTTKRP at any thread count. The convergence check uses
//! the standard Gram-based fit `‖T − T̂‖² = ‖T‖² − 2⟨T, T̂⟩ + ‖T̂‖²`, where
//! `⟨T, T̂⟩` is read off the last MTTKRP and `‖T̂‖²` from the cached `r × r`
//! factor Grams — no per-sweep reconstruction.

use crate::{CpDecomposition, DenseTensor, RankRDecomposition, Result, TensorError};
use linalg::{Matrix, SymmetricEigen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

/// Options controlling the ALS iterations.
#[derive(Debug, Clone)]
pub struct CpOptions {
    /// Maximum number of ALS sweeps over all modes.
    pub max_iterations: usize,
    /// Convergence tolerance on the relative change of the fit.
    pub tolerance: f64,
    /// Seed for the random factor initialization.
    pub seed: u64,
    /// When true, initialize factors from the leading eigenvectors of the mode-n
    /// unfolding Gram matrices (HOSVD-style) instead of random entries.
    pub hosvd_init: bool,
}

impl Default for CpOptions {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            tolerance: 1e-8,
            seed: 7,
            hosvd_init: true,
        }
    }
}

/// CP decomposition via alternating least squares.
#[derive(Debug, Clone, Default)]
pub struct CpAls {
    /// Iteration options.
    pub options: CpOptions,
}

impl CpAls {
    /// Create a solver with the given options.
    pub fn new(options: CpOptions) -> Self {
        Self { options }
    }

    /// Create a solver with default options and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            options: CpOptions {
                seed,
                ..CpOptions::default()
            },
        }
    }

    /// Run CP-ALS and additionally report the number of iterations executed and the
    /// final relative reconstruction error.
    pub fn decompose_detailed(
        &self,
        tensor: &DenseTensor,
        rank: usize,
    ) -> Result<(CpDecomposition, usize, f64)> {
        self.check_arguments(tensor, rank)?;
        let shape = tensor.shape().to_vec();
        if let Some(zero) = Self::zero_tensor_shortcut(tensor, &shape, rank) {
            return Ok(zero);
        }
        let factors = self.initialize(tensor, &shape, rank)?;
        self.run_sweeps(tensor, rank, factors)
    }

    /// Run CP-ALS seeded from a previous decomposition's factors instead of a fresh
    /// HOSVD/random initialization — the streaming-refit warm start.
    ///
    /// `init` must have one matrix per tensor mode with matching row dimensions; its
    /// columns are truncated to `rank` or padded with seeded random columns when the
    /// requested rank differs from the previous model's. When the seed is close to
    /// the solution (a drifted covariance tensor), ALS converges in a few sweeps
    /// instead of a full cold run (Chen, Kolar & Tsay, arXiv 1906.05358).
    pub fn decompose_warm(
        &self,
        tensor: &DenseTensor,
        rank: usize,
        init: &[Matrix],
    ) -> Result<(CpDecomposition, usize, f64)> {
        self.check_arguments(tensor, rank)?;
        let shape = tensor.shape().to_vec();
        if init.len() != shape.len() {
            return Err(TensorError::InvalidArgument(format!(
                "warm start has {} factor matrices but the tensor has {} modes",
                init.len(),
                shape.len()
            )));
        }
        for (mode, (f, &dim)) in init.iter().zip(shape.iter()).enumerate() {
            if f.rows() != dim {
                return Err(TensorError::InvalidArgument(format!(
                    "warm-start factor for mode {mode} has {} rows, tensor dimension is {dim}",
                    f.rows()
                )));
            }
        }
        if let Some(zero) = Self::zero_tensor_shortcut(tensor, &shape, rank) {
            return Ok(zero);
        }
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        let factors: Vec<Matrix> = init
            .iter()
            .map(|f| {
                if f.cols() == rank {
                    f.clone()
                } else {
                    // Rank changed since the previous fit: keep the leading columns,
                    // pad any extra ones with random entries.
                    let mut out = Matrix::zeros(f.rows(), rank);
                    for i in 0..f.rows() {
                        for j in 0..rank {
                            out[(i, j)] = if j < f.cols() {
                                f[(i, j)]
                            } else {
                                rng.gen_range(-1.0..1.0)
                            };
                        }
                    }
                    out
                }
            })
            .collect();
        self.run_sweeps(tensor, rank, factors)
    }

    fn check_arguments(&self, tensor: &DenseTensor, rank: usize) -> Result<()> {
        if rank == 0 {
            return Err(TensorError::InvalidArgument(
                "CP rank must be at least 1".into(),
            ));
        }
        let order = tensor.order();
        if order < 2 {
            return Err(TensorError::InvalidArgument(format!(
                "CP decomposition needs an order >= 2 tensor, got order {order}"
            )));
        }
        if tensor.as_slice().iter().any(|x| !x.is_finite()) {
            return Err(TensorError::NonFinite(
                "CP-ALS input tensor has a NaN or infinite entry".into(),
            ));
        }
        Ok(())
    }

    fn zero_tensor_shortcut(
        tensor: &DenseTensor,
        shape: &[usize],
        rank: usize,
    ) -> Option<(CpDecomposition, usize, f64)> {
        if tensor.frobenius_norm() != 0.0 {
            return None;
        }
        // Zero tensor: return zero factors with zero weights.
        let factors = shape.iter().map(|&d| Matrix::zeros(d, rank)).collect();
        Some((
            CpDecomposition {
                weights: vec![0.0; rank],
                factors,
            },
            0,
            0.0,
        ))
    }

    fn run_sweeps(
        &self,
        tensor: &DenseTensor,
        rank: usize,
        mut factors: Vec<Matrix>,
    ) -> Result<(CpDecomposition, usize, f64)> {
        let order = tensor.order();
        let norm = tensor.frobenius_norm();
        // Cached r × r Grams A_kᵀ A_k, refreshed whenever a factor is updated.
        let mut grams: Vec<Matrix> = factors.iter().map(|f| f.gram_t()).collect();
        let mut weights = vec![1.0; rank];
        let norm_sq = norm * norm;
        let mut previous_fit = f64::INFINITY;
        let mut iterations = 0;
        let threads = tensor.mttkrp_threads(rank);

        for iter in 0..self.options.max_iterations {
            iterations = iter + 1;
            // ⟨T, T̂⟩ via the final mode's MTTKRP and updated factor (valid because by
            // then every factor in the sweep is current).
            let mut inner = 0.0;
            // P = T₍₀₎ᵀ·A₀, formed after the mode-0 update and shared by the
            // MTTKRPs of every later mode in the sweep (A₀ no longer changes).
            let mut partial = None;
            for mode in 0..order {
                // V = hadamard product over other modes of (A_kᵀ A_k)  (r × r)
                let mut v = Matrix::filled(rank, rank, 1.0);
                for (k, g) in grams.iter().enumerate() {
                    if k == mode {
                        continue;
                    }
                    v = v.hadamard(g)?;
                }
                // MTTKRP: T_(mode) · KR(other factors) with no materialization.
                let factor_refs: Vec<&Matrix> = factors.iter().collect();
                let mttkrp = match &partial {
                    Some(p) => tensor.mttkrp_from_partial(mode, p, &factor_refs),
                    None => tensor.mttkrp(mode, &factor_refs)?,
                };
                // Unnormalized update: A_mode = MTTKRP * pinv(V)
                let vinv = pseudo_inverse_symmetric(&v)?;
                let mut updated = mttkrp.matmul(&vinv)?;
                // Normalize columns and store the norms as weights.
                for k in 0..rank {
                    let mut col = updated.column(k);
                    let n = linalg::normalize(&mut col);
                    weights[k] = if n > 1e-300 { n } else { 0.0 };
                    updated.set_column(k, &col);
                }
                if mode == order - 1 {
                    inner = weighted_inner(&updated, &mttkrp, &weights);
                }
                grams[mode] = updated.gram_t();
                if mode == 0 {
                    partial = Some(tensor.mode0_partial(&updated, threads)?);
                }
                factors[mode] = updated;
            }

            // ‖T̂‖² = Σ_{k,l} w_k w_l Π_p Gram_p[k,l], all cached r × r matrices.
            let mut had = Matrix::filled(rank, rank, 1.0);
            for g in &grams {
                had = had.hadamard(g)?;
            }
            let mut model_sq = 0.0;
            for k in 0..rank {
                for l in 0..rank {
                    model_sq += weights[k] * weights[l] * had[(k, l)];
                }
            }
            let fit = (norm_sq - 2.0 * inner + model_sq).max(0.0).sqrt() / norm;
            if (previous_fit - fit).abs() < self.options.tolerance {
                previous_fit = fit;
                break;
            }
            previous_fit = fit;
        }

        if weights.iter().any(|w| !w.is_finite()) {
            return Err(TensorError::NonFinite(format!(
                "CP-ALS weights after {iterations} sweeps"
            )));
        }
        // Sort components by decreasing |weight| so truncation keeps the strongest.
        let mut order_idx: Vec<usize> = (0..rank).collect();
        order_idx.sort_by(|&a, &b| {
            weights[b]
                .abs()
                .partial_cmp(&weights[a].abs())
                .unwrap_or(Ordering::Equal)
        });
        let sorted_weights: Vec<f64> = order_idx.iter().map(|&k| weights[k]).collect();
        let sorted_factors: Vec<Matrix> = factors
            .iter()
            .map(|f| f.select_columns(&order_idx))
            .collect();

        let cp = CpDecomposition {
            weights: sorted_weights,
            factors: sorted_factors,
        };
        // Reordering components leaves the reconstruction unchanged, so the last
        // sweep's Gram-based fit is the final relative error (the reconstruction
        // fallback only fires when max_iterations == 0).
        let err = if previous_fit.is_finite() {
            previous_fit
        } else {
            cp.relative_error(tensor)
        };
        Ok((cp, iterations, err))
    }

    fn initialize(
        &self,
        tensor: &DenseTensor,
        shape: &[usize],
        rank: usize,
    ) -> Result<Vec<Matrix>> {
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        let mut factors = Vec::with_capacity(shape.len());
        for (mode, &dim) in shape.iter().enumerate() {
            let factor = if self.options.hosvd_init && dim >= 2 {
                // Leading eigenvectors of T_(n) T_(n)ᵀ (HOSVD initialization), padded
                // with random columns when rank exceeds the mode dimension. The Gram
                // is streamed off the flat storage; no unfolding is materialized.
                let gram = tensor.mode_gram(mode)?;
                let eig = SymmetricEigen::new(&gram)?;
                let k = rank.min(dim);
                let mut f = eig.eigenvectors.leading_columns(k);
                if k < rank {
                    let mut padded = Matrix::zeros(dim, rank);
                    for i in 0..dim {
                        for j in 0..k {
                            padded[(i, j)] = f[(i, j)];
                        }
                        for j in k..rank {
                            padded[(i, j)] = rng.gen_range(-1.0..1.0);
                        }
                    }
                    f = padded;
                }
                f
            } else {
                let mut f = Matrix::zeros(dim, rank);
                for i in 0..dim {
                    for j in 0..rank {
                        f[(i, j)] = rng.gen_range(-1.0..1.0);
                    }
                }
                f
            };
            factors.push(factor);
        }
        Ok(factors)
    }
}

impl RankRDecomposition for CpAls {
    fn decompose(&self, tensor: &DenseTensor, rank: usize) -> Result<CpDecomposition> {
        self.decompose_detailed(tensor, rank).map(|(cp, _, _)| cp)
    }
}

/// Weighted Frobenius inner product `Σ_k w_k Σ_i A[i,k] M[i,k]` — evaluates `⟨T, T̂⟩`
/// from the final mode's (normalized) factor `A` and its MTTKRP `M`.
fn weighted_inner(a: &Matrix, m: &Matrix, weights: &[f64]) -> f64 {
    let mut total = 0.0;
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let m_row = m.row(i);
        for (k, w) in weights.iter().enumerate() {
            total += w * a_row[k] * m_row[k];
        }
    }
    total
}

/// Pseudo-inverse of a small symmetric (Gram/Hadamard) matrix via its eigendecomposition,
/// flooring tiny eigenvalues for stability.
fn pseudo_inverse_symmetric(v: &Matrix) -> Result<Matrix> {
    let eig = SymmetricEigen::new(v)?;
    let max = eig
        .eigenvalues
        .first()
        .copied()
        .unwrap_or(0.0)
        .abs()
        .max(1e-300);
    let cutoff = max * 1e-12;
    Ok(eig.spectral_map(|l| if l.abs() > cutoff { 1.0 / l } else { 0.0 }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted_rank2() -> (DenseTensor, CpDecomposition) {
        // Build an exactly rank-2 tensor from orthogonal factors.
        let a1 = [1.0, 0.0, 0.0];
        let a2 = [0.0, 1.0, 0.0];
        let b1 = [0.6, 0.8];
        let b2 = [0.8, -0.6];
        let c1 = [1.0, 0.0, 0.0, 0.0];
        let c2 = [0.0, 1.0, 0.0, 0.0];
        let mut t = DenseTensor::zeros(&[3, 2, 4]);
        t.add_rank_one(5.0, &[&a1, &b1, &c1]);
        t.add_rank_one(2.0, &[&a2, &b2, &c2]);
        let truth = CpDecomposition {
            weights: vec![5.0, 2.0],
            factors: vec![
                Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.0, 0.0]]).unwrap(),
                Matrix::from_rows(&[vec![0.6, 0.8], vec![0.8, -0.6]]).unwrap(),
                Matrix::from_rows(&[
                    vec![1.0, 0.0],
                    vec![0.0, 1.0],
                    vec![0.0, 0.0],
                    vec![0.0, 0.0],
                ])
                .unwrap(),
            ],
        };
        (t, truth)
    }

    #[test]
    fn non_finite_tensors_are_an_error_not_a_panic() {
        let mut t = DenseTensor::from_vec(&[2, 3, 2], (1..=12).map(f64::from).collect()).unwrap();
        t.set(&[1, 2, 0], f64::NAN);
        for hosvd_init in [true, false] {
            let als = CpAls::new(CpOptions {
                hosvd_init,
                ..CpOptions::default()
            });
            assert!(matches!(
                als.decompose_detailed(&t, 2),
                Err(TensorError::NonFinite(_))
            ));
            let init: Vec<Matrix> = [2, 3, 2]
                .iter()
                .map(|&d| Matrix::filled(d, 2, 0.5))
                .collect();
            assert!(als.decompose_warm(&t, 2, &init).is_err());
        }
    }

    #[test]
    fn recovers_planted_rank2_tensor() {
        let (t, _) = planted_rank2();
        let als = CpAls::default();
        let (cp, iters, err) = als.decompose_detailed(&t, 2).unwrap();
        assert!(
            err < 1e-6,
            "relative error {err} too large after {iters} iterations"
        );
        assert_eq!(cp.rank(), 2);
        // The dominant weight should be close to 5, the second close to 2.
        assert!(
            (cp.weights[0] - 5.0).abs() < 1e-4,
            "weights: {:?}",
            cp.weights
        );
        assert!((cp.weights[1] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn rank1_of_rank1_tensor_is_exact() {
        let a = [2.0, -1.0];
        let b = [1.0, 3.0, 0.5];
        let c = [0.2, 0.9];
        let mut t = DenseTensor::zeros(&[2, 3, 2]);
        t.add_rank_one(1.0, &[&a, &b, &c]);
        let cp = CpAls::default().decompose(&t, 1).unwrap();
        assert!(cp.relative_error(&t) < 1e-8);
    }

    #[test]
    fn error_never_increases_much_with_rank() {
        let (t, _) = planted_rank2();
        let als = CpAls::default();
        let e1 = als.decompose(&t, 1).unwrap().relative_error(&t);
        let e2 = als.decompose(&t, 2).unwrap().relative_error(&t);
        assert!(e2 <= e1 + 1e-9);
    }

    #[test]
    fn rejects_bad_arguments() {
        let t = DenseTensor::zeros(&[2, 2, 2]);
        let als = CpAls::default();
        assert!(als.decompose(&t, 0).is_err());
        let vector = DenseTensor::zeros(&[4]);
        assert!(als.decompose(&vector, 1).is_err());
    }

    #[test]
    fn zero_tensor_returns_zero_weights() {
        let t = DenseTensor::zeros(&[2, 3, 2]);
        let cp = CpAls::default().decompose(&t, 2).unwrap();
        assert_eq!(cp.weights, vec![0.0, 0.0]);
    }

    #[test]
    fn random_init_also_converges() {
        let (t, _) = planted_rank2();
        let als = CpAls::new(CpOptions {
            hosvd_init: false,
            max_iterations: 500,
            seed: 3,
            ..CpOptions::default()
        });
        let cp = als.decompose(&t, 2).unwrap();
        assert!(cp.relative_error(&t) < 1e-4);
    }

    /// A planted rank-2 tensor plus deterministic low-amplitude noise, so ALS needs a
    /// nontrivial number of sweeps to converge.
    fn noisy_rank2() -> DenseTensor {
        let (mut t, _) = planted_rank2();
        let shape = t.shape().to_vec();
        let mut idx = 0usize;
        for i in 0..shape[0] {
            for j in 0..shape[1] {
                for k in 0..shape[2] {
                    let noise = 0.05 * ((idx as f64 * 0.91).sin() + (idx as f64 * 0.37).cos());
                    let v = t.get(&[i, j, k]) + noise;
                    t.set(&[i, j, k], v);
                    idx += 1;
                }
            }
        }
        t
    }

    #[test]
    fn warm_start_from_perturbed_solution_halves_sweeps() {
        let t = noisy_rank2();
        let als = CpAls::new(CpOptions {
            hosvd_init: false,
            max_iterations: 500,
            seed: 11,
            ..CpOptions::default()
        });
        let (cold, cold_iters, cold_err) = als.decompose_detailed(&t, 2).unwrap();
        // Perturb the converged factors and restart warm: it must reach the cold
        // objective in at most half the sweeps.
        let mut init = cold.factors.clone();
        for f in init.iter_mut() {
            for i in 0..f.rows() {
                for j in 0..f.cols() {
                    f[(i, j)] += 1e-3 * ((i * 7 + j * 3) as f64).sin();
                }
            }
        }
        let (_, warm_iters, warm_err) = als.decompose_warm(&t, 2, &init).unwrap();
        assert!(
            warm_iters * 2 <= cold_iters,
            "warm start took {warm_iters} sweeps, cold fit took {cold_iters}"
        );
        assert!(
            warm_err <= cold_err * (1.0 + 1e-6) + 1e-9,
            "warm error {warm_err} vs cold {cold_err}"
        );
    }

    #[test]
    fn warm_start_adapts_rank_and_validates_shapes() {
        let (t, truth) = planted_rank2();
        let als = CpAls::default();
        // Rank grows: previous rank-1 factors are padded with random columns.
        let rank1: Vec<Matrix> = truth.factors.iter().map(|f| f.leading_columns(1)).collect();
        let (cp, _, err) = als.decompose_warm(&t, 2, &rank1).unwrap();
        assert_eq!(cp.rank(), 2);
        assert!(err < 1e-4, "relative error {err}");
        // Wrong mode count or row dimension is rejected.
        assert!(als.decompose_warm(&t, 2, &rank1[..2]).is_err());
        let mut bad = rank1.clone();
        bad[0] = Matrix::zeros(7, 1);
        assert!(als.decompose_warm(&t, 2, &bad).is_err());
    }

    #[test]
    fn matrix_case_matches_svd_energy() {
        // For an order-2 tensor, rank-r CP ≈ truncated SVD.
        let m = Matrix::from_rows(&[
            vec![3.0, 1.0, 0.5],
            vec![1.0, 2.0, 0.0],
            vec![0.5, 0.0, 1.0],
        ])
        .unwrap();
        let t = DenseTensor::from_vec(&[3, 3], m.transpose().into_vec()).unwrap();
        let cp = CpAls::default().decompose(&t, 3).unwrap();
        assert!(cp.relative_error(&t) < 1e-6);
    }
}
