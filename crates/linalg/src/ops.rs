//! Matrix arithmetic: products, transposes, element-wise operations.
//!
//! Every dense product routes through the blocked, packed GEMM engine in
//! [`crate::gemm`]: operand panels are packed into cache-resident tiles and an
//! `MR×NR` register-tiled microkernel does the arithmetic with no bounds checks in
//! the tile body. The symmetric rank-k kernels (`syrk`/`syrk_t`) run the same engine
//! restricted to the upper triangle and mirror.
//!
//! Products are parallelized over **row blocks of the output**: each band of output
//! rows is an independent sub-problem with a fixed per-element accumulation order
//! (the reduction index always ascends, k-blocks are visited in ascending order), so
//! results are bit-identical across thread counts — including the serial fallback
//! that [`parallel::threads_for_work`] selects for small operands. The
//! `*_with_threads` variants expose the thread count explicitly for the determinism
//! property tests and for tuning; the plain methods pick it from the flop count and
//! the `TCCA_NUM_THREADS` override.

use crate::{gemm, LinalgError, Matrix, MatrixView, Result};
use std::ops::Range;

/// Edge length of the tiles used by the blocked transpose: 32×32 f64 tiles (8 KiB for
/// source + destination) sit comfortably in L1 while amortizing the column-strided
/// writes of a naive transpose.
const TRANSPOSE_TILE: usize = 32;

impl Matrix {
    /// Matrix transpose (blocked/tiled so both source reads and destination writes stay
    /// within cache-resident tiles).
    pub fn transpose(&self) -> Matrix {
        let (rows, cols) = self.shape();
        let mut out = Matrix::zeros(cols, rows);
        let b = TRANSPOSE_TILE;
        for ib in (0..rows).step_by(b) {
            let i_end = (ib + b).min(rows);
            for jb in (0..cols).step_by(b) {
                let j_end = (jb + b).min(cols);
                for i in ib..i_end {
                    let row = &self.row(i)[jb..j_end];
                    for (j, &v) in row.iter().enumerate() {
                        out[(jb + j, i)] = v;
                    }
                }
            }
        }
        out
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        let flops = self.rows() * self.cols() * other.cols();
        self.matmul_with_threads(other, parallel::threads_for_work(flops))
    }

    /// [`Matrix::matmul`] with an explicit thread count. The result is bit-identical
    /// for every `threads >= 1`.
    pub fn matmul_with_threads(&self, other: &Matrix, threads: usize) -> Result<Matrix> {
        if self.cols() != other.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (k, n) = (self.cols(), other.cols());
        let mut out = Matrix::zeros(self.rows(), n);
        gemm::gemm(
            self.rows(),
            n,
            k,
            &mut out,
            threads,
            false,
            &gemm::pack_rows(self),
            &gemm::pack_panel_rows(other),
        );
        Ok(out)
    }

    /// Product `selfᵀ * other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Result<Matrix> {
        let flops = self.rows() * self.cols() * other.cols();
        self.t_matmul_with_threads(other, parallel::threads_for_work(flops))
    }

    /// [`Matrix::t_matmul`] with an explicit thread count. The result is bit-identical
    /// for every `threads >= 1`: each output row accumulates over the shared dimension
    /// in ascending order exactly as the serial kernel does.
    pub fn t_matmul_with_threads(&self, other: &Matrix, threads: usize) -> Result<Matrix> {
        if self.rows() != other.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "t_matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.cols(), other.cols());
        // The left operand is already lane-fastest in memory (MR contiguous
        // output rows per reduction step), so skinny products can stream it in
        // place instead of packing.
        gemm::gemm_a(
            self.cols(),
            other.cols(),
            self.rows(),
            &mut out,
            threads,
            false,
            gemm::ASource::Strided {
                data: self.as_slice(),
                stride: self.cols(),
                pack: &gemm::pack_cols(self),
            },
            &gemm::pack_panel_rows(other),
        );
        Ok(out)
    }

    /// Accumulating product `out += selfᵀ * other`, without a temporary for the
    /// product. Keeps the same ascending reduction order as [`Matrix::t_matmul`].
    pub fn t_matmul_acc(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.rows() != other.rows() || out.rows() != self.cols() || out.cols() != other.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "t_matmul_acc",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let flops = self.rows() * self.cols() * other.cols();
        gemm::gemm_a(
            self.cols(),
            other.cols(),
            self.rows(),
            out,
            parallel::threads_for_work(flops),
            false,
            gemm::ASource::Strided {
                data: self.as_slice(),
                stride: self.cols(),
                pack: &gemm::pack_cols(self),
            },
            &gemm::pack_panel_rows(other),
        );
        Ok(())
    }

    /// Accumulating Khatri–Rao product `out += Kᵀ · B` over the sample columns
    /// `samples` shared by `y` (`d × N`) and every matrix in `factors` (`d_q × N`).
    /// Row `s` of `K` is the Khatri–Rao column `f_L[:, s] ⊗ … ⊗ f_1[:, s]` (first
    /// factor's index varying fastest; no factors means the single entry 1) and
    /// row `s` of `B` is `y[:, s]ᵀ`, so `out` is `(Π d_q) × d`.
    ///
    /// This is one sample block of a moment tensor's flat storage: the GEMM's A
    /// packer forms the Khatri–Rao entries straight into its micro-panels, so the
    /// `|samples| × Π d_q` matrix `K` is never built. The entries are multiplied
    /// left to right (`(f_1·f_2)·f_3…`) and reduced in ascending sample order, so
    /// for finite inputs the result is bit-identical to materializing `K` and `B`
    /// and calling [`Matrix::t_matmul_acc`].
    pub fn khatri_rao_t_matmul_acc(
        factors: &[Matrix],
        y: &Matrix,
        samples: Range<usize>,
        out: &mut Matrix,
    ) -> Result<()> {
        let rows: usize = factors.iter().map(Matrix::rows).product();
        let flops = samples.len() * rows * y.rows();
        Self::khatri_rao_t_matmul_acc_with_threads(
            factors,
            y,
            samples,
            out,
            parallel::threads_for_work(flops),
        )
    }

    /// [`Matrix::khatri_rao_t_matmul_acc`] with an explicit thread count. The
    /// result is bit-identical for every `threads >= 1`.
    pub fn khatri_rao_t_matmul_acc_with_threads(
        factors: &[Matrix],
        y: &Matrix,
        samples: Range<usize>,
        out: &mut Matrix,
        threads: usize,
    ) -> Result<()> {
        let rows: usize = factors.iter().map(Matrix::rows).product();
        if let Some(f) = factors.iter().find(|f| f.cols() != y.cols()) {
            return Err(LinalgError::ShapeMismatch {
                op: "khatri_rao_t_matmul_acc",
                lhs: f.shape(),
                rhs: y.shape(),
            });
        }
        if samples.start > samples.end || samples.end > y.cols() || out.shape() != (rows, y.rows())
        {
            return Err(LinalgError::ShapeMismatch {
                op: "khatri_rao_t_matmul_acc",
                lhs: out.shape(),
                rhs: (y.rows(), samples.len()),
            });
        }
        let s0 = samples.start;
        let pack_y = gemm::pack_panel_cols(y);
        gemm::gemm(
            rows,
            y.rows(),
            samples.len(),
            out,
            threads,
            false,
            &gemm::pack_khatri_rao(factors, s0),
            &move |dst: &mut [f64], j0, valid, p0, kc| pack_y(dst, j0, valid, s0 + p0, kc),
        );
        Ok(())
    }

    /// Product `self * otherᵀ` without materializing the transpose.
    pub fn matmul_t(&self, other: &Matrix) -> Result<Matrix> {
        let flops = self.rows() * self.cols() * other.rows();
        self.matmul_t_with_threads(other, parallel::threads_for_work(flops))
    }

    /// [`Matrix::matmul_t`] with an explicit thread count. The result is bit-identical
    /// for every `threads >= 1`.
    pub fn matmul_t_with_threads(&self, other: &Matrix, threads: usize) -> Result<Matrix> {
        if self.cols() != other.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_t",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let n = other.rows();
        let mut out = Matrix::zeros(self.rows(), n);
        gemm::gemm(
            self.rows(),
            n,
            self.cols(),
            &mut out,
            threads,
            false,
            &gemm::pack_rows(self),
            &gemm::pack_panel_cols(other),
        );
        Ok(out)
    }

    /// Gram matrix `self * selfᵀ` (rows treated as observations of a `rows`-dim object).
    ///
    /// Routed through the symmetric rank-k update [`Matrix::syrk`], which computes only
    /// the upper triangle and mirrors — the covariance / whitening paths pay half the
    /// flops of the general product.
    pub fn gram(&self) -> Matrix {
        let flops = self.rows() * self.rows() * self.cols() / 2;
        self.syrk_with_threads(parallel::threads_for_work(flops))
    }

    /// Gram matrix `selfᵀ * self`. Routed through [`Matrix::syrk_t`] (symmetric rank-k:
    /// upper triangle + mirror; see there for the non-finite-input caveat).
    pub fn gram_t(&self) -> Matrix {
        let flops = self.cols() * self.cols() * self.rows() / 2;
        self.syrk_t_with_threads(parallel::threads_for_work(flops))
    }

    /// Symmetric rank-k update `self * selfᵀ` (`m × m`): only the upper triangle is
    /// computed, the lower is mirrored. Bit-identical to `self.matmul_t(self)` — each
    /// entry is the dot product of two rows accumulated in ascending index order, and
    /// multiplication is commutative, so the mirrored entry carries the exact bits the
    /// general kernel would produce.
    pub fn syrk(&self) -> Matrix {
        let flops = self.rows() * self.rows() * self.cols() / 2;
        self.syrk_with_threads(parallel::threads_for_work(flops))
    }

    /// [`Matrix::syrk`] with an explicit thread count (bit-identical for every
    /// `threads >= 1`).
    pub fn syrk_with_threads(&self, threads: usize) -> Matrix {
        let m = self.rows();
        let mut out = Matrix::zeros(m, m);
        gemm::gemm(
            m,
            m,
            self.cols(),
            &mut out,
            threads,
            true,
            &gemm::pack_rows(self),
            &gemm::pack_panel_cols(self),
        );
        mirror_upper(&mut out);
        out
    }

    /// Symmetric rank-k update `selfᵀ * self` (`n × n`): only the upper triangle's
    /// micro-tiles run through the blocked engine, the lower is mirrored. For finite
    /// inputs this is bit-identical to `self.t_matmul(self)` — every computed entry
    /// follows the exact blocked schedule of the general kernel, and the mirrored
    /// entries equal their transposes because multiplication is commutative.
    pub fn syrk_t(&self) -> Matrix {
        let flops = self.cols() * self.cols() * self.rows() / 2;
        self.syrk_t_with_threads(parallel::threads_for_work(flops))
    }

    /// [`Matrix::syrk_t`] with an explicit thread count (bit-identical for every
    /// `threads >= 1`).
    pub fn syrk_t_with_threads(&self, threads: usize) -> Matrix {
        let (k, n) = self.shape();
        let mut out = Matrix::zeros(n, n);
        gemm::gemm(
            n,
            n,
            k,
            &mut out,
            threads,
            true,
            &gemm::pack_cols(self),
            &gemm::pack_panel_rows(self),
        );
        mirror_upper(&mut out);
        out
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols() != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows()];
        for i in 0..self.rows() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v.iter()) {
                acc += a * b;
            }
            out[i] = acc;
        }
        Ok(out)
    }

    /// Vector–matrix product `selfᵀ * v` (i.e. `vᵀ * self` transposed).
    pub fn t_matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.rows() != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "t_matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols()];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for (j, &a) in row.iter().enumerate() {
                out[j] += vi * a;
            }
        }
        Ok(out)
    }

    /// Element-wise sum `self + other`.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    /// Multiply every entry by a scalar, returning a new matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Add `value` to every diagonal entry in place (used for ridge/Tikhonov terms).
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.rows().min(self.cols());
        for i in 0..n {
            self[(i, i)] += value;
        }
    }

    /// Frobenius inner product `⟨self, other⟩`.
    pub fn dot(&self, other: &Matrix) -> Result<f64> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "dot",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Symmetrize in place: `self ← (self + selfᵀ) / 2`. Useful to clean up numerical
    /// asymmetry of covariance matrices before eigendecomposition.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.rows() {
            for j in (i + 1)..self.cols() {
                let v = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = v;
                self[(j, i)] = v;
            }
        }
    }

    fn zip_with<F: Fn(f64, f64) -> f64>(
        &self,
        other: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| f(*a, *b))
            .collect();
        Matrix::from_vec(self.rows(), self.cols(), data)
    }
}

/// Products under the GEMM engine's *sequential* reduction (see
/// [`crate::gemm`]): every output element is the left fold
/// `((0 + x₀y₀) + x₁y₁) + …` over the whole reduction in ascending order, each
/// product rounded before it is added, so the result has the bits of the
/// textbook scalar loop for every thread count. They
/// exist for the CP-ALS MTTKRP, which views a tensor's flat storage in place as
/// the `F × d₀` row-major matrix of its mode-0 fibres.
impl MatrixView<'_> {
    /// `self · b` (`m×k` times `k×n`) under the sequential reduction.
    pub fn matmul_sequential(&self, b: &Matrix, threads: usize) -> Result<Matrix> {
        if self.cols() != b.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_sequential",
                lhs: self.shape(),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows(), b.cols());
        gemm::gemm_sequential(
            self.rows(),
            b.cols(),
            self.cols(),
            &mut out,
            threads,
            gemm::ASource::Packed(&gemm::pack_rows(*self)),
            &gemm::pack_panel_rows(b),
        );
        Ok(out)
    }

    /// `selfᵀ · K` under the sequential reduction, where `K` is the Khatri–Rao
    /// matrix of `factors` (all `r` columns wide, with `Π d_q == self.rows()`):
    /// row `f = i_1 + d_1·(i_2 + d_2·(…))` of `K` is
    /// `factors[0][i_1] ⊙ factors[1][i_2] ⊙ …`, multiplied left to right. The
    /// GEMM's B packer forms those rows straight into its panels, so `K` is
    /// never built. The result is `self.cols() × r`.
    pub fn t_matmul_khatri_rao_sequential(
        &self,
        factors: &[&Matrix],
        threads: usize,
    ) -> Result<Matrix> {
        let r = factors.first().map_or(0, |f| f.cols());
        let rows: usize = factors.iter().map(|f| f.rows()).product();
        if factors.is_empty() || rows != self.rows() || factors.iter().any(|f| f.cols() != r) {
            return Err(LinalgError::ShapeMismatch {
                op: "t_matmul_khatri_rao_sequential",
                lhs: self.shape(),
                rhs: (rows, r),
            });
        }
        let mut out = Matrix::zeros(self.cols(), r);
        gemm::gemm_sequential(
            self.cols(),
            r,
            self.rows(),
            &mut out,
            threads,
            gemm::ASource::Strided {
                data: self.as_slice(),
                stride: self.cols(),
                pack: &gemm::pack_cols(*self),
            },
            &gemm::pack_panel_khatri_rao(factors),
        );
        Ok(out)
    }
}

/// Copy the strict upper triangle of a square matrix onto the lower triangle.
fn mirror_upper(m: &mut Matrix) {
    for i in 1..m.rows() {
        for j in 0..i {
            m[(i, j)] = m[(j, i)];
        }
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Normalize a slice to unit Euclidean norm in place; returns the original norm.
///
/// Vectors with norm below `1e-300` are left untouched (and the tiny norm is returned)
/// so callers can detect degenerate directions in ALS/power iterations.
pub fn normalize(a: &mut [f64]) -> f64 {
    let n = norm2(a);
    if n > 1e-300 {
        for v in a.iter_mut() {
            *v /= n;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn khatri_rao_t_matmul_acc_matches_the_materialized_product() {
        let f1 = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-1.0, 0.5, 4.0]]).unwrap();
        let f2 = Matrix::from_rows(&[vec![2.0, -3.0, 1.0]]).unwrap();
        let y = Matrix::from_rows(&[vec![1.0, -2.0, 5.0], vec![0.0, 3.0, 1.0]]).unwrap();
        // Samples 1..3, rows e = i1 + 2·i2: out[e][j] = Σ_s f1[i1][s]·f2[i2][s]·y[j][s].
        let mut out = Matrix::filled(2, 2, 1.0);
        Matrix::khatri_rao_t_matmul_acc(&[f1.clone(), f2.clone()], &y, 1..3, &mut out).unwrap();
        let want = |e: usize, j: usize| -> f64 {
            1.0 + (1..3)
                .map(|s| f1[(e, s)] * f2[(0, s)] * y[(j, s)])
                .sum::<f64>()
        };
        for e in 0..2 {
            for j in 0..2 {
                assert_eq!(out[(e, j)], want(e, j));
            }
        }
        // No factors: the Khatri–Rao row is the single entry 1, so out sums y's rows.
        let mut sums = Matrix::zeros(1, 2);
        Matrix::khatri_rao_t_matmul_acc(&[], &y, 0..3, &mut sums).unwrap();
        assert_eq!(sums.row(0), &[4.0, 4.0]);
        // Shape errors: a factor with another sample count, a range past the end, a
        // wrongly shaped output.
        let short = Matrix::zeros(2, 2);
        assert!(Matrix::khatri_rao_t_matmul_acc(&[short], &y, 0..2, &mut out).is_err());
        assert!(
            Matrix::khatri_rao_t_matmul_acc(std::slice::from_ref(&f1), &y, 1..4, &mut out).is_err()
        );
        let mut wrong = Matrix::zeros(3, 2);
        assert!(Matrix::khatri_rao_t_matmul_acc(&[f1], &y, 0..3, &mut wrong).is_err());
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(approx(c[(0, 0)], 19.0));
        assert!(approx(c[(0, 1)], 22.0));
        assert!(approx(c[(1, 0)], 43.0));
        assert!(approx(c[(1, 1)], 50.0));
        assert!(a.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn transposed_products_agree_with_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, -1.0], vec![0.5, -3.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![2.0, 1.0], vec![0.0, -1.0], vec![1.0, 4.0]]).unwrap();
        // t_matmul: aᵀ (2x3)ᵀ=3x2 times b would mismatch; use same-row shapes instead.
        let c1 = a.t_matmul(&a).unwrap();
        let c2 = a.transpose().matmul(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!(approx(c1[(i, j)], c2[(i, j)]));
            }
        }
        let d1 = a.matmul_t(&b.transpose()).unwrap();
        let d2 = a.matmul(&b).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx(d1[(i, j)], d2[(i, j)]));
            }
        }
    }

    #[test]
    fn gram_is_symmetric_psd_diagonal() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, -1.0], vec![0.0, 1.0]]).unwrap();
        let g = a.gram_t();
        assert_eq!(g.shape(), (2, 2));
        assert!(approx(g[(0, 1)], g[(1, 0)]));
        assert!(g[(0, 0)] >= 0.0 && g[(1, 1)] >= 0.0);
        let g2 = a.gram();
        assert_eq!(g2.shape(), (3, 3));
    }

    #[test]
    fn matvec_products() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert_eq!(a.t_matvec(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.t_matvec(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::identity(2);
        assert_eq!(a.add(&b).unwrap()[(0, 0)], 2.0);
        assert_eq!(a.sub(&b).unwrap()[(1, 1)], 3.0);
        assert_eq!(a.hadamard(&b).unwrap()[(0, 1)], 0.0);
        assert_eq!(a.scale(2.0)[(1, 0)], 6.0);
        assert!(approx(a.dot(&b).unwrap(), 5.0));
        let mut c = a.clone();
        c.axpy(-1.0, &a).unwrap();
        assert_eq!(c.frobenius_norm(), 0.0);
        let mut d = a.clone();
        d.add_diagonal(10.0);
        assert_eq!(d[(0, 0)], 11.0);
        assert_eq!(d[(1, 1)], 14.0);
        assert!(a.add(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn symmetrize_cleans_asymmetry() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![4.0, 3.0]]).unwrap();
        m.symmetrize();
        assert!(approx(m[(0, 1)], 3.0));
        assert!(approx(m[(1, 0)], 3.0));
    }

    #[test]
    fn slice_helpers() {
        assert!(approx(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0));
        assert!(approx(norm2(&[3.0, 4.0]), 5.0));
    }
}
