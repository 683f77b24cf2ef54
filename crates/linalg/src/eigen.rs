//! Symmetric eigendecomposition by Householder tridiagonalization and the
//! implicit-shift QL method.
//!
//! The paper's whitening step needs `C̃pp^{-1/2}` for every view, PCA needs the top
//! eigenvectors of a covariance matrix, DSE needs the bottom eigenvectors of a graph
//! Laplacian and the CP-ALS initialisation needs the leading eigenvectors of each
//! mode Gram. All of these are dense symmetric problems of moderate size (a few
//! hundred rows). The solver is the textbook pair `tred2`/`tql2` (Bowdler, Martin,
//! Reinsch and Wilkinson, in the form of the public-domain JAMA package): Householder
//! reflections reduce `A` to a tridiagonal `T = QᵀAQ` while accumulating `Q`, and
//! implicitly shifted QL steps diagonalize `T`, rotating `Q` along.
//!
//! Every `O(n³)` loop runs over contiguous memory: the working matrix holds `Vᵀ`
//! rather than `V` (row `k` is the `k`-th column of the textbook algorithm), so the
//! reduction and accumulation walk rows, and each QL rotation updates two adjacent
//! rows.

use crate::{LinalgError, Matrix, Result};
use std::cmp::Ordering;

/// The `routine` named in this module's errors.
const ROUTINE: &str = "symmetric eigendecomposition";

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
    /// holds a NaN or infinite entry, or the QL iteration exceeds its budget of `30·n`
    /// steps (the bound LAPACK's `dsteqr` uses).
    pub fn new(matrix: &Matrix) -> Result<Self> {
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
            return Err(LinalgError::NonFinite { routine: ROUTINE });
        }
        let mut vt = matrix.clone();
        vt.symmetrize();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tridiagonalize(vt.as_mut_slice(), n, &mut d, &mut e);
        diagonalize(vt.as_mut_slice(), n, &mut d, &mut e)?;
        if d.iter().any(|l| !l.is_finite()) {
            return Err(LinalgError::NonFinite { routine: ROUTINE });
        }

        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).unwrap_or(Ordering::Equal));
        let eigenvalues: Vec<f64> = order.iter().map(|&i| d[i]).collect();
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

/// Householder reduction of the symmetric `n × n` matrix in `vt` to tridiagonal
/// form (`tred2`). On return `d` holds the diagonal, `e[1..]` the subdiagonal
/// (`e[0] = 0`), and row `k` of `vt` the `k`-th column of the orthogonal `Q` with
/// `A = Q T Qᵀ`.
///
/// The textbook routine reads the lower triangle of `V`; `vt[j·n + k]` is its
/// `V[k][j]`, so every inner loop below runs along a row.
fn tridiagonalize(vt: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    for j in 0..n {
        d[j] = vt[j * n + n - 1];
    }
    for i in (1..n).rev() {
        // Scale the row to avoid under- or overflow in the reflector.
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = vt[j * n + i - 1];
                vt[j * n + i] = 0.0;
                vt[i * n + j] = 0.0;
            }
        } else {
            // Generate the Householder vector.
            for x in &mut d[..i] {
                *x /= scale;
                h += *x * *x;
            }
            let mut f = d[i - 1];
            let mut g = h.sqrt();
            if f > 0.0 {
                g = -g;
            }
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);

            // Apply the similarity transformation to the remaining columns.
            for j in 0..i {
                f = d[j];
                vt[i * n + j] = f;
                let row = &vt[j * n..j * n + i];
                g = e[j] + row[j] * f;
                for k in j + 1..i {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                f = d[j];
                g = e[j];
                let row = &mut vt[j * n..j * n + i];
                for k in j..i {
                    row[k] -= f * e[k] + g * d[k];
                }
                d[j] = vt[j * n + i - 1];
                vt[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate the transformations.
    for i in 0..n - 1 {
        vt[i * n + n - 1] = vt[i * n + i];
        vt[i * n + i] = 1.0;
        let h = d[i + 1];
        let (head, tail) = vt.split_at_mut((i + 1) * n);
        let reflector = &mut tail[..=i];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = reflector[k] / h;
            }
            for j in 0..=i {
                let row = &mut head[j * n..j * n + i + 1];
                let mut g = 0.0;
                for k in 0..=i {
                    g += reflector[k] * row[k];
                }
                for k in 0..=i {
                    row[k] -= g * d[k];
                }
            }
        }
        reflector.fill(0.0);
    }
    for j in 0..n {
        d[j] = vt[j * n + n - 1];
        vt[j * n + n - 1] = 0.0;
    }
    vt[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Diagonalize the tridiagonal matrix `(d, e)` left by [`tridiagonalize`] with
/// implicitly shifted QL steps (`tql2`), rotating the rows of `vt` along. On
/// return `d` holds the eigenvalues (unsorted) and row `k` of `vt` the eigenvector
/// of `d[k]`.
///
/// The published routine has no iteration cap; this one stops after `30·n` QL
/// steps in total, the budget LAPACK's `dsteqr` uses, and reports
/// [`LinalgError::DidNotConverge`].
fn diagonalize(vt: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) -> Result<()> {
    let max_iterations = 30 * n;
    let mut iterations = 0;
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut f = 0.0;
    let mut tst1: f64 = 0.0;
    let eps = f64::EPSILON;
    for l in 0..n {
        // Find the first negligible subdiagonal element e[m] (e[n - 1] is zero).
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m + 1 < n && e[m].abs() > eps * tst1 {
            m += 1;
        }
        // If m == l, d[l] is already an eigenvalue; otherwise iterate.
        if m > l {
            loop {
                if iterations == max_iterations {
                    return Err(LinalgError::DidNotConverge {
                        routine: ROUTINE,
                        iterations,
                    });
                }
                iterations += 1;

                // Compute the implicit shift.
                let mut g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for x in &mut d[l + 2..] {
                    *x -= h;
                }
                f += h;

                // Implicit QL transformation.
                p = d[m];
                let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0, 0.0);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);

                    // Accumulate the rotation on rows i and i + 1.
                    let (row_i, row_next) = vt[i * n..(i + 2) * n].split_at_mut(n);
                    for (vi, vn) in row_i.iter_mut().zip(row_next.iter_mut()) {
                        let (a, b) = (*vi, *vn);
                        *vn = s * a + c * b;
                        *vi = c * a - s * b;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;

                // Converged when the subdiagonal is negligible; a NaN never is.
                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dot;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    /// The cyclic Jacobi method this module used before the QL solver, with the
    /// eigenvector accumulator in column form. Kept only as the reference the
    /// production solver is checked against.
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

    /// A covariance-like SPD matrix with a spread spectrum.
    fn spd_input(n: usize) -> Matrix {
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
        m
    }

    /// A deterministic pseudo-random `rows × cols` matrix with entries in [-1, 1].
    fn wavy(rows: usize, cols: usize, phase: f64) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|e| ((e * 7919 % 4099) as f64 * 0.377 + phase).sin())
                .collect(),
        )
        .unwrap()
    }

    /// `‖AV − V·diag(λ)‖_F`.
    fn residual(a: &Matrix, values: &[f64], v: &Matrix) -> f64 {
        let av = a.matmul(v).unwrap();
        let vl = v.matmul(&Matrix::from_diagonal(values)).unwrap();
        av.sub(&vl).unwrap().frobenius_norm()
    }

    /// Check `SymmetricEigen::new(a)` against the Jacobi reference: eigenvalues
    /// within `1e-12·‖A‖_F`, residual `‖AV − VΛ‖_F ≤ 64·n·ε·‖A‖_F`, orthogonality
    /// `max|VᵀV − I| ≤ 64·n·ε`, and, for each eigenvalue separated from its
    /// neighbours by more than `1e-6·‖A‖_F`, the reference's eigenvector up to sign
    /// within `1e-10`.
    fn check_against_reference(label: &str, a: &Matrix) {
        let n = a.rows();
        let eig = SymmetricEigen::new(a).unwrap();
        let (values, vectors) = eigen_reference(a);
        assert_eq!(eig.eigenvalues.len(), n, "{label}");
        assert_eq!(eig.eigenvectors.shape(), (n, n), "{label}");
        let norm = a.frobenius_norm();
        let eps = f64::EPSILON;
        for (k, (got, want)) in eig.eigenvalues.iter().zip(&values).enumerate() {
            assert!(
                (got - want).abs() <= 1e-12 * norm,
                "{label}: eigenvalue {k} is {got}, reference {want}"
            );
        }
        assert!(
            eig.eigenvalues.windows(2).all(|w| w[0] >= w[1]),
            "{label}: eigenvalues not descending"
        );

        let v = &eig.eigenvectors;
        let residual = residual(a, &eig.eigenvalues, v);
        let bound = 64.0 * n as f64 * eps * norm;
        assert!(residual <= bound, "{label}: residual {residual} > {bound}");
        let orth = v
            .t_matmul(v)
            .unwrap()
            .sub(&Matrix::identity(n))
            .unwrap()
            .max_abs();
        let bound = 64.0 * n as f64 * eps;
        assert!(
            orth <= bound,
            "{label}: orthogonality error {orth} > {bound}"
        );

        let gap = 1e-6 * norm;
        for k in 0..n {
            let isolated = (k == 0 || values[k - 1] - values[k] > gap)
                && (k + 1 == n || values[k] - values[k + 1] > gap);
            if !isolated {
                continue;
            }
            let got = v.column(k);
            let want = vectors.column(k);
            let sign = if dot(&got, &want) < 0.0 { -1.0 } else { 1.0 };
            let err = got
                .iter()
                .zip(&want)
                .map(|(g, w)| (sign * g - w).abs())
                .fold(0.0, f64::max);
            assert!(err <= 1e-10, "{label}: eigenvector {k} differs by {err}");
        }
    }

    #[test]
    fn ql_solver_matches_the_jacobi_reference() {
        for n in [1usize, 2, 3, 17, 64, 147] {
            check_against_reference(&format!("spd n = {n}"), &spd_input(n));
        }
        check_against_reference("n = 0", &Matrix::zeros(0, 0));
        check_against_reference(
            "diagonal",
            &Matrix::from_diagonal(&[3.0, -1.0, 0.0, 7.5, 2.0, 2.0, 1e-9]),
        );
        check_against_reference("identity (all eigenvalues tied)", &Matrix::identity(20));
        check_against_reference("zero", &Matrix::zeros(9, 9));
        // Rank-deficient PSD: the covariance of N = 5 samples in d = 30 dimensions.
        let x = wavy(30, 5, 0.3);
        check_against_reference("rank-deficient psd", &x.syrk());
        // Indefinite: a symmetric matrix with eigenvalues of both signs.
        for n in [4usize, 33] {
            let w = wavy(n, n, 1.1);
            let mut s = w.add(&w.transpose()).unwrap();
            s.add_diagonal(-0.5);
            check_against_reference(&format!("indefinite n = {n}"), &s);
        }
    }

    #[test]
    fn extreme_magnitudes_give_finite_results_or_a_typed_error() {
        for scale in [1e150, 1e-150] {
            for n in [2usize, 17, 64] {
                let w = wavy(n, n, 0.7);
                let a = w.add(&w.transpose()).unwrap().scale(scale);
                match SymmetricEigen::new(&a) {
                    Ok(eig) => {
                        assert!(eig.eigenvalues.iter().all(|l| l.is_finite()));
                        assert!(eig.eigenvectors.all_finite());
                        // Residual of the rescaled problem, which cannot overflow.
                        let unit = a.scale(1.0 / scale);
                        let lambda: Vec<f64> = eig.eigenvalues.iter().map(|l| l / scale).collect();
                        let residual = residual(&unit, &lambda, &eig.eigenvectors);
                        let bound = 64.0 * n as f64 * f64::EPSILON * unit.frobenius_norm();
                        assert!(residual <= bound, "scale {scale}, n = {n}: {residual}");
                    }
                    Err(err) => assert!(
                        matches!(
                            err,
                            LinalgError::NonFinite { .. } | LinalgError::DidNotConverge { .. }
                        ),
                        "scale {scale}, n = {n}: {err}"
                    ),
                }
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
                    routine: "symmetric eigendecomposition"
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
