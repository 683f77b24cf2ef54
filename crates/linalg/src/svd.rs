//! Thin singular value decomposition.
//!
//! Two-view CCA reduces to the SVD of the whitened cross-covariance
//! `T = C̃₁₁^{-1/2} C₁₂ C̃₂₂^{-1/2}` (Hardoon et al. 2004), CCA-MAXVAR needs the SVD of
//! the stacked canonical variables, and PCA is the SVD of the centered data matrix.
//!
//! The implementation computes the eigendecomposition of the smaller Gram matrix
//! (`AᵀA` or `AAᵀ`) with the symmetric eigensolver and recovers the other side's
//! singular vectors by projection, which is accurate for the well-conditioned,
//! moderately sized matrices that appear in these experiments.

use crate::{Matrix, Result, SymmetricEigen};

/// Thin SVD `A = U diag(σ) Vᵀ` with singular values sorted in descending order.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, one per column (`rows × k`).
    pub u: Matrix,
    /// Singular values in descending order (`k` entries, `k = min(rows, cols)`).
    pub singular_values: Vec<f64>,
    /// Right singular vectors, one per column (`cols × k`).
    pub v: Matrix,
}

impl Svd {
    /// Compute the thin SVD of an arbitrary rectangular matrix.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        let k = m.min(n);
        if k == 0 {
            return Ok(Self {
                u: Matrix::zeros(m, 0),
                singular_values: Vec::new(),
                v: Matrix::zeros(n, 0),
            });
        }
        if n <= m {
            // Eigen-decompose AᵀA (n × n), recover U = A V Σ⁻¹.
            let gram = a.gram_t();
            let eig = SymmetricEigen::new(&gram)?;
            let singular_values: Vec<f64> = eig
                .eigenvalues
                .iter()
                .take(k)
                .map(|&l| l.max(0.0).sqrt())
                .collect();
            let v = eig.eigenvectors.leading_columns(k);
            let av = a.matmul(&v)?;
            let mut u = Matrix::zeros(m, k);
            for j in 0..k {
                let s = singular_values[j];
                let col = av.column(j);
                if s > 1e-300 {
                    let scaled: Vec<f64> = col.iter().map(|x| x / s).collect();
                    u.set_column(j, &scaled);
                } else {
                    u.set_column(j, &vec![0.0; m]);
                }
            }
            Ok(Self {
                u,
                singular_values,
                v,
            })
        } else {
            // Wide matrix: decompose Aᵀ and swap factors.
            let svd_t = Svd::new(&a.transpose())?;
            Ok(Self {
                u: svd_t.v,
                singular_values: svd_t.singular_values,
                v: svd_t.u,
            })
        }
    }

    /// Number of singular values.
    pub fn len(&self) -> usize {
        self.singular_values.len()
    }

    /// True when the decomposition is empty.
    pub fn is_empty(&self) -> bool {
        self.singular_values.is_empty()
    }

    /// Reconstruct the (thin) matrix `U diag(σ) Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let k = self.len();
        let mut us = self.u.clone();
        for j in 0..k {
            for i in 0..us.rows() {
                us[(i, j)] *= self.singular_values[j];
            }
        }
        us.matmul_t(&self.v).expect("reconstruct: shapes agree")
    }

    /// Best rank-`r` approximation of the original matrix.
    pub fn truncate(&self, r: usize) -> Matrix {
        let r = r.min(self.len());
        let mut us = self.u.leading_columns(r);
        for j in 0..r {
            for i in 0..us.rows() {
                us[(i, j)] *= self.singular_values[j];
            }
        }
        us.matmul_t(&self.v.leading_columns(r))
            .expect("truncate: shapes agree")
    }

    /// Numerical rank: the number of singular values above `tol * σ_max`.
    pub fn rank(&self, tol: f64) -> usize {
        let max = self.singular_values.first().copied().unwrap_or(0.0);
        self.singular_values
            .iter()
            .filter(|&&s| s > tol * max)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svd_of_diagonal() {
        let a = Matrix::from_diagonal(&[3.0, 1.0, 2.0]);
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.len(), 3);
        assert!((svd.singular_values[0] - 3.0).abs() < 1e-10);
        assert!((svd.singular_values[1] - 2.0).abs() < 1e-10);
        assert!((svd.singular_values[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_tall() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![-1.0, 0.5],
        ])
        .unwrap();
        let svd = Svd::new(&a).unwrap();
        assert!(svd.reconstruct().sub(&a).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn reconstruction_wide() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![0.0, -1.0, 1.0, 2.0]]).unwrap();
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.u.shape(), (2, 2));
        assert_eq!(svd.v.shape(), (4, 2));
        assert!(svd.reconstruct().sub(&a).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn singular_vectors_are_orthonormal() {
        let a = Matrix::from_rows(&[
            vec![2.0, 0.0, 1.0],
            vec![-1.0, 1.0, 0.0],
            vec![0.0, 3.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ])
        .unwrap();
        let svd = Svd::new(&a).unwrap();
        let utu = svd.u.t_matmul(&svd.u).unwrap();
        let vtv = svd.v.t_matmul(&svd.v).unwrap();
        assert!(utu.sub(&Matrix::identity(3)).unwrap().max_abs() < 1e-8);
        assert!(vtv.sub(&Matrix::identity(3)).unwrap().max_abs() < 1e-8);
    }

    #[test]
    fn truncation_error_bounded_by_dropped_singular_value() {
        let a = Matrix::from_rows(&[
            vec![10.0, 0.0, 0.0],
            vec![0.0, 5.0, 0.0],
            vec![0.0, 0.0, 0.1],
        ])
        .unwrap();
        let svd = Svd::new(&a).unwrap();
        let approx = svd.truncate(2);
        let err = approx.sub(&a).unwrap().frobenius_norm();
        assert!((err - 0.1).abs() < 1e-10);
    }

    #[test]
    fn rank_detection() {
        // Rank-1 matrix.
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.rank(1e-9), 1);
    }

    #[test]
    fn empty_matrix() {
        let svd = Svd::new(&Matrix::zeros(0, 3)).unwrap();
        assert!(svd.is_empty());
    }
}
