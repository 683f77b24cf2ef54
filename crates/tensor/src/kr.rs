//! Khatri–Rao (column-wise Kronecker) products.
//!
//! The ALS update for mode `n` solves
//! `A_n ← T₍ₙ₎ · KR(A_N, …, A_{n+1}, A_{n−1}, …, A_1) · V⁻¹` where `KR` is the
//! Khatri–Rao product taken in **descending** mode order so that its row ordering
//! matches the mode-`n` unfolding used by [`crate::DenseTensor::unfold`] (smallest mode
//! index varying fastest).
//!
//! The solvers themselves never materialize this product — the
//! [`crate::DenseTensor::mttkrp`] kernel computes `T₍ₙ₎ · KR(..)` on the GEMM
//! engine straight from the tensor's flat storage, its packers forming the
//! Khatri–Rao rows as they are consumed. These helpers remain as the reference
//! definition the property tests check that kernel against, and for callers that
//! need the explicit matrix.

use crate::{Result, TensorError};
use linalg::Matrix;

/// Khatri–Rao product of two matrices with the same number of columns.
///
/// The result has `a.rows() * b.rows()` rows; the row indexed by `(i_a, i_b)` is placed
/// at `i_a * b.rows() + i_b`, i.e. **`b`'s row index varies fastest**.
pub fn khatri_rao(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "khatri_rao",
            detail: format!("column counts differ: {} vs {}", a.cols(), b.cols()),
        });
    }
    let r = a.cols();
    let mut out = Matrix::zeros(a.rows() * b.rows(), r);
    for ia in 0..a.rows() {
        for ib in 0..b.rows() {
            let row = ia * b.rows() + ib;
            for k in 0..r {
                out[(row, k)] = a[(ia, k)] * b[(ib, k)];
            }
        }
    }
    Ok(out)
}

/// Khatri–Rao product of a list of matrices, left-associated:
/// `KR(M₁, M₂, …, M_L) = ((M₁ ⊙ M₂) ⊙ …) ⊙ M_L`.
///
/// With the pair convention above, the **last** matrix in the list has the
/// fastest-varying row index. To match the mode-`n` unfolding, pass the factor matrices
/// in *descending* mode order (`A_N, …, A_{n+1}, A_{n−1}, …, A_1`).
pub fn khatri_rao_list(matrices: &[&Matrix]) -> Result<Matrix> {
    match matrices.len() {
        0 => Err(TensorError::InvalidArgument(
            "khatri_rao_list needs at least one matrix".into(),
        )),
        1 => Ok(matrices[0].clone()),
        _ => {
            let mut acc = matrices[0].clone();
            for m in &matrices[1..] {
                acc = khatri_rao(&acc, m)?;
            }
            Ok(acc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseTensor;

    #[test]
    fn khatri_rao_small() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0], vec![9.0, 10.0]]).unwrap();
        let kr = khatri_rao(&a, &b).unwrap();
        assert_eq!(kr.shape(), (6, 2));
        // Row (ia=0, ib=0) -> 0
        assert_eq!(kr[(0, 0)], 5.0);
        assert_eq!(kr[(0, 1)], 12.0);
        // Row (ia=1, ib=2) -> 1*3+2 = 5
        assert_eq!(kr[(5, 0)], 27.0);
        assert_eq!(kr[(5, 1)], 40.0);
    }

    #[test]
    fn mismatched_columns_error() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(khatri_rao(&a, &b).is_err());
        assert!(khatri_rao_list(&[]).is_err());
    }

    #[test]
    fn single_matrix_list_is_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert_eq!(khatri_rao_list(&[&a]).unwrap(), a);
    }

    #[test]
    fn unfolding_identity_for_rank_one_tensor() {
        // For T = a ∘ b ∘ c the identity T₍ₙ₎ = A_n · KR(descending other factors)ᵀ
        // must hold exactly. This pins the ordering conventions together.
        let a = vec![1.0, -2.0];
        let b = vec![0.5, 1.0, 2.0];
        let c = vec![3.0, -1.0];
        let mut t = DenseTensor::zeros(&[2, 3, 2]);
        t.add_rank_one(1.0, &[&a, &b, &c]);

        let fa = Matrix::column_vector(&a);
        let fb = Matrix::column_vector(&b);
        let fc = Matrix::column_vector(&c);
        let factors = [&fa, &fb, &fc];

        for mode in 0..3 {
            // Descending order, skipping `mode`.
            let others: Vec<&Matrix> = (0..3)
                .rev()
                .filter(|&k| k != mode)
                .map(|k| factors[k])
                .collect();
            let kr = khatri_rao_list(&others).unwrap();
            let expected = factors[mode].matmul_t(&kr).unwrap();
            let unfolded = t.unfold(mode).unwrap();
            assert!(
                unfolded.sub(&expected).unwrap().max_abs() < 1e-12,
                "mode {mode}"
            );
        }
    }
}
