//! Symmetric eigendecomposition via the cyclic Jacobi rotation method.
//!
//! The paper's whitening step needs `C̃pp^{-1/2}` for every view, PCA needs the top
//! eigenvectors of a covariance matrix, and DSE needs the bottom eigenvectors of a graph
//! Laplacian. All of these are symmetric (semi-)definite problems of moderate size
//! (a few hundred rows), for which the cyclic Jacobi method is simple, numerically
//! robust and accurate to machine precision.

use crate::{LinalgError, Matrix, Result};
use std::cmp::Ordering;

/// Eigendecomposition `A = V diag(λ) Vᵀ` of a symmetric matrix.
///
/// Eigenvalues are sorted in **descending** order and `eigenvectors.column(k)` is the
/// unit-norm eigenvector paired with `eigenvalues[k]`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in descending order.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors stored as columns.
    pub eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Compute the eigendecomposition of a symmetric matrix.
    ///
    /// The input is symmetrized internally (numerical asymmetry from accumulated
    /// covariance sums is tolerated); an error is returned if the matrix is not square,
    /// holds a NaN or infinite entry, or the sweep budget is exhausted before
    /// off-diagonal mass vanishes.
    pub fn new(matrix: &Matrix) -> Result<Self> {
        Self::with_max_sweeps(matrix, 100)
    }

    /// Same as [`SymmetricEigen::new`] with an explicit bound on Jacobi sweeps.
    pub fn with_max_sweeps(matrix: &Matrix, max_sweeps: usize) -> Result<Self> {
        if !matrix.is_square() {
            return Err(LinalgError::NotSquare {
                rows: matrix.rows(),
                cols: matrix.cols(),
            });
        }
        let n = matrix.rows();
        if n == 0 {
            return Ok(Self {
                eigenvalues: Vec::new(),
                eigenvectors: Matrix::zeros(0, 0),
            });
        }
        if matrix.as_slice().iter().any(|x| !x.is_finite()) {
            return Err(LinalgError::NonFinite {
                routine: "jacobi eigendecomposition",
            });
        }
        let mut a = matrix.clone();
        a.symmetrize();
        // The eigenvector accumulator, kept transposed: row k is eigenvector k, so
        // each rotation updates two contiguous rows.
        let mut vt = Matrix::identity(n);

        let tol = 1e-14 * a.frobenius_norm().max(1e-300);
        let mut converged = false;
        for _ in 0..max_sweeps {
            let off = off_diagonal_norm(&a);
            if off <= tol {
                converged = true;
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[(p, q)];
                    if apq.abs() <= tol / (n as f64) {
                        continue;
                    }
                    let (c, s) = jacobi_rotation(a[(p, p)], a[(q, q)], apq);
                    apply_rotation(&mut a, p, q, c, s);
                    rotate_rows(&mut vt, p, q, c, s);
                }
            }
        }
        if !converged && off_diagonal_norm(&a) > tol * 10.0 {
            return Err(LinalgError::DidNotConverge {
                routine: "jacobi eigendecomposition",
                iterations: max_sweeps,
            });
        }

        let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        if diag.iter().any(|l| !l.is_finite()) {
            return Err(LinalgError::NonFinite {
                routine: "jacobi eigendecomposition",
            });
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).unwrap_or(Ordering::Equal));

        let eigenvalues: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
        let eigenvectors = vt.select_rows(&order).transpose();
        Ok(Self {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Reconstruct `V diag(f(λ)) Vᵀ` for an arbitrary spectral function `f`.
    ///
    /// This is how the crate computes matrix powers: `f = sqrt` gives the square root,
    /// `f = 1/sqrt(max(λ, floor))` the inverse square root, etc.
    pub fn spectral_map<F: Fn(f64) -> f64>(&self, f: F) -> Matrix {
        let n = self.eigenvalues.len();
        let mut scaled = self.eigenvectors.clone();
        for j in 0..n {
            let fj = f(self.eigenvalues[j]);
            for i in 0..n {
                scaled[(i, j)] *= fj;
            }
        }
        scaled
            .matmul_t(&self.eigenvectors)
            .expect("spectral_map: shapes agree")
    }

    /// Reconstruct the original matrix `V diag(λ) Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        self.spectral_map(|l| l)
    }

    /// Number of eigenvalues.
    pub fn len(&self) -> usize {
        self.eigenvalues.len()
    }

    /// True when the decomposition is empty.
    pub fn is_empty(&self) -> bool {
        self.eigenvalues.is_empty()
    }
}

impl Matrix {
    /// Symmetric positive semi-definite inverse square root `A^{-1/2}`.
    ///
    /// Eigenvalues below `floor` are clamped to `floor` before inversion, which is the
    /// numerically safe way to whiten a regularized covariance `C + εI` whose smallest
    /// eigenvalues can underflow to slightly negative values.
    pub fn inverse_sqrt_spd(&self, floor: f64) -> Result<Matrix> {
        let eig = SymmetricEigen::new(self)?;
        Ok(eig.spectral_map(|l| 1.0 / l.max(floor).sqrt()))
    }

    /// Symmetric positive semi-definite square root `A^{1/2}` with eigenvalue flooring.
    pub fn sqrt_spd(&self, floor: f64) -> Result<Matrix> {
        let eig = SymmetricEigen::new(self)?;
        Ok(eig.spectral_map(|l| l.max(floor).sqrt()))
    }

    /// Inverse of a symmetric positive definite matrix via its eigendecomposition.
    pub fn inverse_spd(&self, floor: f64) -> Result<Matrix> {
        let eig = SymmetricEigen::new(self)?;
        Ok(eig.spectral_map(|l| 1.0 / l.max(floor)))
    }
}

fn off_diagonal_norm(a: &Matrix) -> f64 {
    let n = a.rows();
    let mut sum = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            sum += 2.0 * a[(i, j)] * a[(i, j)];
        }
    }
    sum.sqrt()
}

/// The cosine and sine of the Jacobi rotation that zeroes `a[(p, q)]`.
fn jacobi_rotation(app: f64, aqq: f64, apq: f64) -> (f64, f64) {
    let theta = (aqq - app) / (2.0 * apq);
    let t = if theta >= 0.0 {
        1.0 / (theta + (1.0 + theta * theta).sqrt())
    } else {
        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    (c, t * c)
}

/// Apply the two-sided Jacobi rotation `JᵀAJ` where `J` rotates the (p, q) plane.
fn apply_rotation(a: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = a.rows();
    for k in 0..n {
        let akp = a[(k, p)];
        let akq = a[(k, q)];
        a[(k, p)] = c * akp - s * akq;
        a[(k, q)] = s * akp + c * akq;
    }
    for k in 0..n {
        let apk = a[(p, k)];
        let aqk = a[(q, k)];
        a[(p, k)] = c * apk - s * aqk;
        a[(q, k)] = s * apk + c * aqk;
    }
}

/// Apply the rotation to the transposed eigenvector accumulator (rows p and q):
/// the same two products and one add or subtract per element as rotating
/// columns p and q of `V`, over contiguous memory.
fn rotate_rows(vt: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = vt.cols();
    let (head, tail) = vt.as_mut_slice().split_at_mut(q * n);
    let row_p = &mut head[p * n..(p + 1) * n];
    let row_q = &mut tail[..n];
    for (vp, vq) in row_p.iter_mut().zip(row_q.iter_mut()) {
        let (vkp, vkq) = (*vp, *vq);
        *vp = c * vkp - s * vkq;
        *vq = s * vkp + c * vkq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    /// The Jacobi sweep loop as it stood before the accumulator was kept
    /// transposed: rotations update columns p and q of `V` with stride-n access.
    /// Kept only as the bit-identity reference for [`SymmetricEigen::new`].
    fn eigen_reference(matrix: &Matrix) -> (Vec<f64>, Matrix) {
        let n = matrix.rows();
        let mut a = matrix.clone();
        a.symmetrize();
        let mut v = Matrix::identity(n);
        let tol = 1e-14 * a.frobenius_norm().max(1e-300);
        for _ in 0..100 {
            if off_diagonal_norm(&a) <= tol {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[(p, q)];
                    if apq.abs() <= tol / (n as f64) {
                        continue;
                    }
                    let (c, s) = jacobi_rotation(a[(p, p)], a[(q, q)], apq);
                    apply_rotation(&mut a, p, q, c, s);
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).unwrap_or(Ordering::Equal));
        let values = order.iter().map(|&i| diag[i]).collect();
        (values, v.select_columns(&order))
    }

    #[test]
    fn transposed_accumulator_is_bit_identical_to_the_column_loop() {
        for n in [1usize, 2, 3, 17, 64, 147] {
            // A covariance-like SPD matrix with a spread spectrum.
            let x = Matrix::from_vec(
                n,
                2 * n + 3,
                (0..n * (2 * n + 3))
                    .map(|e| ((e * e % 1009) as f64 * 0.618 + n as f64).sin())
                    .collect(),
            )
            .unwrap();
            let mut m = x.syrk();
            m.add_diagonal(1e-3);
            let eig = SymmetricEigen::new(&m).unwrap();
            let (values, vectors) = eigen_reference(&m);
            assert_eq!(eig.eigenvectors.shape(), vectors.shape());
            for (got, want) in eig.eigenvalues.iter().zip(&values) {
                assert_eq!(got.to_bits(), want.to_bits(), "n = {n}: eigenvalue");
            }
            for (e, (got, want)) in eig
                .eigenvectors
                .as_slice()
                .iter()
                .zip(vectors.as_slice())
                .enumerate()
            {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "n = {n}: eigenvector entry {e}"
                );
            }
        }
    }

    #[test]
    fn non_finite_input_is_an_error_not_a_panic() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut m = Matrix::identity(3);
            m[(1, 2)] = bad;
            m[(2, 1)] = bad;
            assert_eq!(
                SymmetricEigen::new(&m).unwrap_err(),
                LinalgError::NonFinite {
                    routine: "jacobi eigendecomposition"
                }
            );
            assert!(m.inverse_sqrt_spd(1e-12).is_err());
        }
    }

    #[test]
    fn eigen_of_diagonal() {
        let m = Matrix::from_diagonal(&[3.0, 1.0, 2.0]);
        let eig = SymmetricEigen::new(&m).unwrap();
        assert!(approx(eig.eigenvalues[0], 3.0, 1e-12));
        assert!(approx(eig.eigenvalues[1], 2.0, 1e-12));
        assert!(approx(eig.eigenvalues[2], 1.0, 1e-12));
    }

    #[test]
    fn eigen_known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let eig = SymmetricEigen::new(&m).unwrap();
        assert!(approx(eig.eigenvalues[0], 3.0, 1e-12));
        assert!(approx(eig.eigenvalues[1], 1.0, 1e-12));
        // Eigenvector for λ=3 is (1, 1)/sqrt(2) up to sign.
        let v0 = eig.eigenvectors.column(0);
        assert!(approx(v0[0].abs(), std::f64::consts::FRAC_1_SQRT_2, 1e-10));
        assert!(approx(v0[0], v0[1], 1e-10));
    }

    #[test]
    fn reconstruction_matches_original() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, -2.0, 0.5],
            vec![1.0, 3.0, 0.0, 1.0],
            vec![-2.0, 0.0, 5.0, -1.0],
            vec![0.5, 1.0, -1.0, 2.0],
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&m).unwrap();
        let r = eig.reconstruct();
        assert!(r.sub(&m).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_rows(&[
            vec![2.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 2.0],
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&m).unwrap();
        let vtv = eig.eigenvectors.t_matmul(&eig.eigenvectors).unwrap();
        assert!(vtv.sub(&Matrix::identity(3)).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn inverse_sqrt_whitens() {
        let m = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let w = m.inverse_sqrt_spd(1e-12).unwrap();
        // W * M * W should be the identity.
        let prod = w.matmul(&m).unwrap().matmul(&w).unwrap();
        assert!(prod.sub(&Matrix::identity(2)).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn sqrt_and_inverse_consistency() {
        let m = Matrix::from_rows(&[vec![5.0, 2.0], vec![2.0, 3.0]]).unwrap();
        let s = m.sqrt_spd(0.0).unwrap();
        assert!(s.matmul(&s).unwrap().sub(&m).unwrap().max_abs() < 1e-10);
        let inv = m.inverse_spd(1e-15).unwrap();
        assert!(
            inv.matmul(&m)
                .unwrap()
                .sub(&Matrix::identity(2))
                .unwrap()
                .max_abs()
                < 1e-10
        );
    }

    #[test]
    fn rejects_non_square() {
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn empty_matrix() {
        let eig = SymmetricEigen::new(&Matrix::zeros(0, 0)).unwrap();
        assert!(eig.is_empty());
        assert_eq!(eig.len(), 0);
    }

    #[test]
    fn handles_psd_with_zero_eigenvalue() {
        // Rank-1 matrix: eigenvalues {2, 0}.
        let m = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let eig = SymmetricEigen::new(&m).unwrap();
        assert!(approx(eig.eigenvalues[0], 2.0, 1e-12));
        assert!(approx(eig.eigenvalues[1], 0.0, 1e-12));
    }
}
