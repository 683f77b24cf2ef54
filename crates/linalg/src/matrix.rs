//! The dense row-major [`Matrix`] type and its fundamental operations.

use crate::{LinalgError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// This is the workhorse container of the whole reproduction: data matrices
/// (`d × N` views, `N × d` embeddings), covariance matrices, whiteners, kernel matrices
/// and factor matrices are all `Matrix` values.
///
/// The storage is a single contiguous `Vec<f64>` with `rows * cols` entries where the
/// element at row `i`, column `j` lives at `data[i * cols + j]`.
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    /// Deep-copies the buffer and bumps the process-wide clone counter
    /// ([`crate::matrix_clones`]) so zero-copy code paths can *assert* they never
    /// duplicate input matrices instead of merely claiming it.
    fn clone(&self) -> Self {
        crate::view::note_matrix_clone();
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }
}

impl Matrix {
    /// Create a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix of the given shape where every entry equals `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument(format!(
                "data length {} does not match shape {}x{}",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Build a matrix from a slice of rows; every row must have the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::InvalidArgument(format!(
                    "row {i} has length {} but expected {cols}",
                    r.len()
                )));
            }
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Build a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Build a column vector (an `n × 1` matrix) from a slice.
    pub fn column_vector(values: &[f64]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Build a row vector (a `1 × n` matrix) from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and return its row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrite column `j` with the provided values.
    pub fn set_column(&mut self, j: usize, values: &[f64]) {
        debug_assert_eq!(values.len(), self.rows);
        for (i, &v) in values.iter().enumerate() {
            self[(i, j)] = v;
        }
    }

    /// Overwrite row `i` with the provided values.
    pub fn set_row(&mut self, i: usize, values: &[f64]) {
        debug_assert_eq!(values.len(), self.cols);
        self.row_mut(i).copy_from_slice(values);
    }

    /// Return a new matrix containing only the listed columns, in the given order.
    pub fn select_columns(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for i in 0..self.rows {
            for (k, &j) in indices.iter().enumerate() {
                out[(i, k)] = self[(i, j)];
            }
        }
        out
    }

    /// Return a new matrix containing only the listed rows, in the given order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (k, &i) in indices.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Return the leading `k` columns as a new matrix.
    pub fn leading_columns(&self, k: usize) -> Matrix {
        let k = k.min(self.cols);
        let mut out = Matrix::zeros(self.rows, k);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[..k]);
        }
        out
    }

    /// Stack two matrices horizontally (`[self | other]`).
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        Ok(out)
    }

    /// Stack two matrices vertically.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()))
    }

    /// Sum of the diagonal entries. The matrix does not need to be square; the sum runs
    /// over `min(rows, cols)` entries.
    pub fn trace(&self) -> f64 {
        (0..self.rows.min(self.cols)).map(|i| self[(i, i)]).sum()
    }

    /// Apply a function to every entry, returning a new matrix.
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Apply a function to every entry in place.
    pub fn map_inplace<F: Fn(f64) -> f64>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// True when every entry is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for i in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for j in 0..max_cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            if self.cols > max_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert!(!m.is_empty());
        assert!(!m.is_square());
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
        assert!(m.is_square());
        assert_eq!(m.trace(), 3.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn from_rows_checks_lengths() {
        let ok = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(ok[(0, 1)], 2.0);
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        let empty = Matrix::from_rows(&[]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn indexing_and_rows() {
        let mut m = Matrix::zeros(2, 3);
        m[(0, 1)] = 5.0;
        m[(1, 2)] = -2.0;
        assert_eq!(m.row(0), &[0.0, 5.0, 0.0]);
        assert_eq!(m.row(1), &[0.0, 0.0, -2.0]);
        assert_eq!(m.column(2), vec![0.0, -2.0]);
    }

    #[test]
    fn set_row_and_column() {
        let mut m = Matrix::zeros(2, 2);
        m.set_row(0, &[1.0, 2.0]);
        m.set_column(1, &[7.0, 8.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 7.0);
        assert_eq!(m[(1, 1)], 8.0);
    }

    #[test]
    fn select_columns_and_rows() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let c = m.select_columns(&[2, 0]);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 3.0);
        assert_eq!(c[(1, 1)], 4.0);
        let r = m.select_rows(&[1]);
        assert_eq!(r.shape(), (1, 3));
        assert_eq!(r[(0, 0)], 4.0);
        let lead = m.leading_columns(2);
        assert_eq!(lead.shape(), (2, 2));
        assert_eq!(lead[(1, 1)], 5.0);
    }

    #[test]
    fn hstack_vstack() {
        let a = Matrix::identity(2);
        let b = Matrix::filled(2, 1, 3.0);
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h[(0, 2)], 3.0);
        let v = a.vstack(&a).unwrap();
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v[(3, 1)], 1.0);
        assert!(a.hstack(&Matrix::zeros(3, 1)).is_err());
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn norms_and_map() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
        let doubled = m.map(|v| 2.0 * v);
        assert_eq!(doubled[(1, 1)], 8.0);
        let mut m2 = m.clone();
        m2.map_inplace(|v| v + 1.0);
        assert_eq!(m2[(0, 1)], 1.0);
        assert!(m.all_finite());
        let mut bad = m;
        bad[(0, 0)] = f64::NAN;
        assert!(!bad.all_finite());
    }

    #[test]
    fn vectors() {
        let c = Matrix::column_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(c.shape(), (3, 1));
        let r = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(r.shape(), (1, 3));
        let d = Matrix::from_diagonal(&[2.0, 5.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(1, 1)], 5.0);
        assert_eq!(d[(0, 1)], 0.0);
    }
}
