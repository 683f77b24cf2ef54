//! Dense tensor algebra and low-rank tensor decompositions.
//!
//! Tensor CCA (Luo et al., ICDE 2016) reduces multi-view canonical correlation
//! maximization to the best rank-1 (and, for an `r`-dimensional subspace, rank-`r` CP)
//! approximation of the whitened covariance tensor
//! `M = C₁₂…ₘ ×₁ C̃₁₁^{-1/2} ×₂ … ×ₘ C̃ₘₘ^{-1/2}` (paper Eq. 4.9–4.10).
//!
//! This crate provides the tensor substrate needed for that reduction:
//!
//! * [`DenseTensor`] — an arbitrary-order dense tensor with mode-n matricization,
//!   mode-n (tensor × matrix) products, rank-1 accumulation, Frobenius geometry and
//!   the [`DenseTensor::mttkrp`] kernel (matricized tensor times Khatri–Rao, run on
//!   the blocked GEMM engine straight from the flat storage — no unfolding, no
//!   materialized Khatri–Rao matrix, and the bits of the scalar per-fibre loop)
//!   that CP-ALS's inner loop runs on,
//! * [`khatri_rao`] / [`khatri_rao_list`] — the column-wise Kronecker products; the
//!   reference definition of the operand `mttkrp` never builds,
//! * [`CpAls`] — the alternating least squares CP decomposition (Kroonenberg & De Leeuw
//!   1980; Comon et al. 2009), the optimizer the paper adopts,
//! * [`Hopm`] — the higher-order power method of De Lathauwer et al. (2000b) for the
//!   best rank-1 approximation,
//! * [`TensorPowerMethod`] — greedy rank-1 deflation (Allen 2012), the third
//!   alternative the paper mentions.
//!
//! All decompositions return a [`CpDecomposition`] (weights + per-mode factor matrices)
//! so downstream code can treat them interchangeably.

#![warn(missing_docs)]
#![warn(clippy::all)]
// Multi-index tensor kernels use explicit index loops over several arrays at once;
// iterator rewrites of these obscure the math.
#![allow(clippy::needless_range_loop)]

mod cp;
mod dense;
mod error;
mod hopm;
mod kr;
mod power;

pub use cp::{CpAls, CpOptions};
pub use dense::DenseTensor;
pub use error::TensorError;
pub use hopm::Hopm;
pub use kr::{khatri_rao, khatri_rao_list};
pub use power::TensorPowerMethod;

use linalg::Matrix;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, TensorError>;

/// A CP (CANDECOMP/PARAFAC) decomposition: `T ≈ Σ_k λ_k · a₁⁽ᵏ⁾ ∘ a₂⁽ᵏ⁾ ∘ … ∘ a_m⁽ᵏ⁾`.
///
/// `factors[p]` is an `I_p × r` matrix whose `k`-th column is the mode-`p` vector of the
/// `k`-th rank-1 component; `weights[k]` is the component's scale `λ_k`. Factor columns
/// are unit-norm.
#[derive(Debug, Clone)]
pub struct CpDecomposition {
    /// Component scales `λ_k`, one per rank-1 term.
    pub weights: Vec<f64>,
    /// Per-mode factor matrices (`I_p × r`, unit-norm columns).
    pub factors: Vec<Matrix>,
}

impl CpDecomposition {
    /// The decomposition rank (number of rank-1 components).
    pub fn rank(&self) -> usize {
        self.weights.len()
    }

    /// The tensor order (number of modes).
    pub fn order(&self) -> usize {
        self.factors.len()
    }

    /// Reconstruct the dense tensor `Σ_k λ_k · a₁⁽ᵏ⁾ ∘ … ∘ a_m⁽ᵏ⁾`.
    pub fn reconstruct(&self) -> DenseTensor {
        let shape: Vec<usize> = self.factors.iter().map(|f| f.rows()).collect();
        let mut out = DenseTensor::zeros(&shape);
        for k in 0..self.rank() {
            let vectors: Vec<Vec<f64>> = self.factors.iter().map(|f| f.column(k)).collect();
            let refs: Vec<&[f64]> = vectors.iter().map(|v| v.as_slice()).collect();
            out.add_rank_one(self.weights[k], &refs);
        }
        out
    }

    /// Relative Frobenius reconstruction error `‖T − T̂‖ / ‖T‖`.
    pub fn relative_error(&self, tensor: &DenseTensor) -> f64 {
        let norm = tensor.frobenius_norm();
        if norm == 0.0 {
            return 0.0;
        }
        let rec = self.reconstruct();
        tensor.sub(&rec).expect("shapes agree").frobenius_norm() / norm
    }

    /// Keep only the leading `r` components (the solvers store components sorted by
    /// decreasing `|λ|`).
    pub fn truncate(&self, r: usize) -> CpDecomposition {
        let r = r.min(self.rank());
        CpDecomposition {
            weights: self.weights[..r].to_vec(),
            factors: self.factors.iter().map(|f| f.leading_columns(r)).collect(),
        }
    }
}

/// Trait implemented by every rank-`r` tensor decomposition algorithm in this crate.
///
/// TCCA is agnostic to which solver produces the factors; the paper uses ALS but notes
/// HOPM and the tensor power method as alternatives, and the ablation benchmarks compare
/// all three.
pub trait RankRDecomposition {
    /// Compute a rank-`rank` CP-style decomposition of `tensor`.
    fn decompose(&self, tensor: &DenseTensor, rank: usize) -> Result<CpDecomposition>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cp_decomposition_reconstruct_rank_one() {
        let u = Matrix::column_vector(&[1.0, 0.0]);
        let v = Matrix::column_vector(&[0.0, 1.0, 0.0]);
        let w = Matrix::column_vector(&[1.0, 1.0]);
        let cp = CpDecomposition {
            weights: vec![2.0],
            factors: vec![u, v, w],
        };
        assert_eq!(cp.rank(), 1);
        assert_eq!(cp.order(), 3);
        let t = cp.reconstruct();
        assert_eq!(t.shape(), &[2, 3, 2]);
        assert_eq!(t.get(&[0, 1, 0]), 2.0);
        assert_eq!(t.get(&[0, 1, 1]), 2.0);
        assert_eq!(t.get(&[1, 1, 0]), 0.0);
        assert_eq!(t.get(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn truncate_keeps_leading_components() {
        let cp = CpDecomposition {
            weights: vec![3.0, 1.0],
            factors: vec![
                Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap(),
                Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap(),
            ],
        };
        let t = cp.truncate(1);
        assert_eq!(t.rank(), 1);
        assert_eq!(t.weights, vec![3.0]);
        // Truncating beyond the rank is a no-op.
        assert_eq!(cp.truncate(10).rank(), 2);
    }

    #[test]
    fn relative_error_zero_for_exact() {
        let cp = CpDecomposition {
            weights: vec![1.5],
            factors: vec![
                Matrix::column_vector(&[1.0, 2.0]),
                Matrix::column_vector(&[0.5, -1.0]),
            ],
        };
        let t = cp.reconstruct();
        assert!(cp.relative_error(&t) < 1e-12);
    }
}
