//! Property-based tests for the linear-algebra substrate.
//!
//! These exercise the algebraic identities that the rest of the reproduction relies on:
//! associativity/consistency of the product kernels, eigendecomposition reconstruction,
//! Cholesky round-trips, SVD orthogonality, and whitening.

use linalg::gemm::{KC, MC, MR, NR};
use linalg::{center_rows, covariance, Cholesky, ColsView, Matrix, Svd, SymmetricEigen};
use proptest::prelude::*;

/// Seeded pseudo-random matrix for the deterministic tile-boundary tests.
fn seeded_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| ((i as f64) * 0.618 + seed as f64 * 0.347).sin() * 3.0)
        .collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

/// Textbook triple-loop reference: `a · b` with each element a single ascending
/// accumulation chain. The blocked engine must agree to rounding error at every
/// shape, and bit-for-bit whenever the reduction fits in one k-block.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[(i, p)] * b[(p, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// Dimensions one below, at, and one above a tile parameter.
fn straddle(t: usize) -> [usize; 3] {
    [t - 1, t, t + 1]
}

/// The blocked kernels at dimensions straddling every tile boundary (MR, NR, MC,
/// KC), against the naive reference and across thread counts. An off-by-one in
/// packing, edge-tile write-back or the band partition shows up here, not in the
/// random-shape proptests below (which rarely hit exact multiples).
#[test]
fn blocked_kernels_survive_tile_boundaries() {
    let mut cases: Vec<(usize, usize, usize)> = Vec::new();
    for m in straddle(MR).into_iter().chain(straddle(MC)) {
        cases.push((m, 10, 11));
    }
    for n in straddle(NR) {
        cases.push((9, 10, n));
    }
    for k in straddle(KC) {
        cases.push((9, k, 11));
    }
    // A boundary-everything worst case.
    cases.push((MC + 1, KC + 1, 2 * NR + 1));

    for (m, k, n) in cases {
        let a = seeded_matrix(m, k, 1);
        let b = seeded_matrix(k, n, 2);
        let fast = a.matmul(&b).unwrap();
        let slow = naive_matmul(&a, &b);
        let scale = 1.0 + slow.max_abs();
        assert!(
            fast.sub(&slow).unwrap().max_abs() < 1e-12 * scale,
            "matmul diverged from naive at {m}x{k}x{n}"
        );
        if k <= KC {
            // Single k-block: the accumulation chain is literally the naive one.
            assert_eq!(fast, slow, "matmul not bit-exact at {m}x{k}x{n}");
        }

        let at = seeded_matrix(k, m, 3);
        let t_fast = at.t_matmul(&b).unwrap();
        let t_slow = naive_matmul(&at.transpose(), &b);
        assert!(
            t_fast.sub(&t_slow).unwrap().max_abs() < 1e-12 * (1.0 + t_slow.max_abs()),
            "t_matmul diverged from naive at {m}x{k}x{n}"
        );

        let bt = seeded_matrix(n, k, 4);
        let mt_fast = a.matmul_t(&bt).unwrap();
        let mt_slow = naive_matmul(&a, &bt.transpose());
        assert!(
            mt_fast.sub(&mt_slow).unwrap().max_abs() < 1e-12 * (1.0 + mt_slow.max_abs()),
            "matmul_t diverged from naive at {m}x{k}x{n}"
        );

        // Bit-identical across thread counts at every boundary shape, including
        // thread counts that exceed the number of MR bands.
        for threads in [2usize, 3, 5, 64] {
            assert_eq!(a.matmul_with_threads(&b, threads).unwrap(), fast);
            assert_eq!(at.t_matmul_with_threads(&b, threads).unwrap(), t_fast);
            assert_eq!(a.matmul_t_with_threads(&bt, threads).unwrap(), mt_fast);
        }
    }
}

/// The skinny-tile dispatch boundary: `n ≤ NR/2` instantiates the narrow
/// microkernel (and, for `t_matmul`, the direct-A strided path that skips
/// packing A entirely). Sweeping `n` one below, at, and one above the boundary
/// pins two things: the narrow instantiation computes the same bits as the
/// naive reference (so the dispatch can never change results), and wide/narrow
/// agree with each other across thread counts at every `m` straddling the band
/// partition.
#[test]
fn skinny_tile_dispatch_survives_the_boundary() {
    let half = NR / 2;
    for n in [half - 1, half, half + 1, NR, NR + 1] {
        for m in straddle(MR).into_iter().chain(straddle(MC)) {
            let a = seeded_matrix(m, KC - 3, 7);
            let b = seeded_matrix(KC - 3, n, 8);
            let fast = a.matmul(&b).unwrap();
            // k < KC: single k-block, so the naive chain is the exact chain.
            assert_eq!(fast, naive_matmul(&a, &b), "matmul bits at {m}x{n}");

            let at = seeded_matrix(KC - 3, m, 9);
            let t_fast = at.t_matmul(&b).unwrap();
            assert_eq!(
                t_fast,
                naive_matmul(&at.transpose(), &b),
                "t_matmul bits at {m}x{n}"
            );
            for threads in [2usize, 3, 64] {
                assert_eq!(a.matmul_with_threads(&b, threads).unwrap(), fast);
                assert_eq!(at.t_matmul_with_threads(&b, threads).unwrap(), t_fast);
            }
        }
    }
}

/// `syrk`/`syrk_t` upper-triangle computation + mirroring at tile-straddling
/// sizes: exactly symmetric (bitwise) and bit-identical to the general product.
#[test]
fn syrk_mirroring_survives_tile_boundaries() {
    for d in straddle(MR)
        .into_iter()
        .chain(straddle(NR))
        .chain(straddle(MC))
    {
        let a = seeded_matrix(d, 13, 5);
        let s = a.syrk();
        let g = a.matmul_t(&a).unwrap();
        assert_eq!(s, g, "syrk != matmul_t at dim {d}");
        let at = seeded_matrix(13, d, 6);
        let st = at.syrk_t();
        let gt = at.t_matmul(&at).unwrap();
        assert_eq!(st, gt, "syrk_t != t_matmul at dim {d}");
        for i in 0..d {
            for j in 0..d {
                assert_eq!(s[(i, j)].to_bits(), s[(j, i)].to_bits());
                assert_eq!(st[(i, j)].to_bits(), st[(j, i)].to_bits());
            }
        }
        for threads in [2usize, 7] {
            assert_eq!(a.syrk_with_threads(threads), s);
            assert_eq!(at.syrk_t_with_threads(threads), st);
        }
    }
}

/// Strategy: a matrix with entries in [-5, 5] and the given shape bounds.
fn matrix_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-5.0..5.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

/// Strategy: a random symmetric positive definite matrix A = BᵀB + I.
fn spd_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim).prop_flat_map(|n| {
        proptest::collection::vec(-2.0..2.0f64, n * n).prop_map(move |data| {
            let b = Matrix::from_vec(n, n, data).unwrap();
            let mut a = b.gram_t();
            a.add_diagonal(1.0);
            a
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(m in matrix_strategy(8, 8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associativity(
        adata in proptest::collection::vec(-3.0..3.0f64, 5 * 4),
        bdata in proptest::collection::vec(-3.0..3.0f64, 4 * 3),
        cdata in proptest::collection::vec(-3.0..3.0f64, 3 * 2),
    ) {
        let a = Matrix::from_vec(5, 4, adata).unwrap();
        let b = Matrix::from_vec(4, 3, bdata).unwrap();
        let c = Matrix::from_vec(3, 2, cdata).unwrap();
        let ab_c = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let a_bc = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(ab_c.sub(&a_bc).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn transposed_kernels_match_naive(
        adata in proptest::collection::vec(-3.0..3.0f64, 6 * 5),
        bdata in proptest::collection::vec(-3.0..3.0f64, 6 * 4),
    ) {
        // aᵀ b computed two ways.
        let a = Matrix::from_vec(6, 5, adata).unwrap();
        let b = Matrix::from_vec(6, 4, bdata).unwrap();
        let fast = a.t_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        prop_assert!(fast.sub(&slow).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn eigen_reconstructs_symmetric(a in spd_strategy(7)) {
        let eig = SymmetricEigen::new(&a).unwrap();
        let rec = eig.reconstruct();
        prop_assert!(rec.sub(&a).unwrap().max_abs() < 1e-7 * (1.0 + a.max_abs()));
    }

    #[test]
    fn eigenvalues_of_spd_are_positive(a in spd_strategy(6)) {
        let eig = SymmetricEigen::new(&a).unwrap();
        for &l in &eig.eigenvalues {
            prop_assert!(l > 0.0);
        }
        // Sorted descending.
        for w in eig.eigenvalues.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn cholesky_roundtrip(a in spd_strategy(7)) {
        let chol = Cholesky::new(&a).unwrap();
        let rec = chol.lower().matmul_t(chol.lower()).unwrap();
        prop_assert!(rec.sub(&a).unwrap().max_abs() < 1e-8 * (1.0 + a.max_abs()));
    }

    #[test]
    fn cholesky_solve_gives_residual_zero(a in spd_strategy(6)) {
        let n = a.rows();
        let b = Matrix::filled(n, 1, 1.0);
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let residual = a.matmul(&x).unwrap().sub(&b).unwrap();
        prop_assert!(residual.max_abs() < 1e-7);
    }

    #[test]
    fn svd_reconstructs(m in matrix_strategy(7, 5)) {
        let svd = Svd::new(&m).unwrap();
        prop_assert!(svd.reconstruct().sub(&m).unwrap().max_abs() < 1e-7 * (1.0 + m.max_abs()));
        // Singular values non-negative and sorted.
        for w in svd.singular_values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        for &s in &svd.singular_values {
            prop_assert!(s >= -1e-12);
        }
    }

    #[test]
    fn inverse_sqrt_whitens_spd(a in spd_strategy(6)) {
        let w = a.inverse_sqrt_spd(1e-12).unwrap();
        let prod = w.matmul(&a).unwrap().matmul(&w).unwrap();
        let eye = Matrix::identity(a.rows());
        prop_assert!(prod.sub(&eye).unwrap().max_abs() < 1e-6);
    }

    #[test]
    fn parallel_products_are_bit_identical_to_serial(
        adata in proptest::collection::vec(-3.0..3.0f64, 9 * 7),
        bdata in proptest::collection::vec(-3.0..3.0f64, 7 * 5),
    ) {
        // Determinism across thread counts: the row-blocked parallel kernels keep the
        // per-element accumulation order of the serial path, so results must be
        // *exactly* equal, not merely close.
        let a = Matrix::from_vec(9, 7, adata).unwrap();
        let b = Matrix::from_vec(7, 5, bdata).unwrap();
        let serial = a.matmul_with_threads(&b, 1).unwrap();
        let serial_t = a.t_matmul_with_threads(&a, 1).unwrap();
        let serial_mt = a.matmul_t_with_threads(&a, 1).unwrap();
        for threads in [2usize, 3, 4, 16] {
            prop_assert_eq!(&a.matmul_with_threads(&b, threads).unwrap(), &serial);
            prop_assert_eq!(&a.t_matmul_with_threads(&a, threads).unwrap(), &serial_t);
            prop_assert_eq!(&a.matmul_t_with_threads(&a, threads).unwrap(), &serial_mt);
        }
        // And the auto-threaded entry points agree too.
        prop_assert_eq!(&a.matmul(&b).unwrap(), &serial);
        prop_assert_eq!(&a.t_matmul(&a).unwrap(), &serial_t);
        prop_assert_eq!(&a.matmul_t(&a).unwrap(), &serial_mt);
    }

    #[test]
    fn syrk_matches_general_product_bit_for_bit(m in matrix_strategy(9, 7)) {
        // The symmetric rank-k kernels compute only the upper triangle and mirror.
        // Every entry keeps the ascending reduction order of the general kernels and
        // multiplication is commutative, so for the finite inputs generated here the
        // results must be *exactly* equal — gram/gram_t switching to syrk must not
        // perturb a single bit downstream. (Non-finite inputs are the documented
        // exception for syrk_t: its mirrored triangle symmetrizes where t_matmul's
        // zero-skip could produce an asymmetric NaN pattern.)
        prop_assert_eq!(&m.syrk(), &m.matmul_t(&m).unwrap());
        prop_assert_eq!(&m.syrk_t(), &m.t_matmul(&m).unwrap());
        prop_assert_eq!(&m.gram(), &m.matmul_t(&m).unwrap());
        prop_assert_eq!(&m.gram_t(), &m.t_matmul(&m).unwrap());
        // Bit-identical across thread counts, including the serial fallback.
        let serial = m.syrk_with_threads(1);
        let serial_t = m.syrk_t_with_threads(1);
        for threads in [2usize, 3, 16] {
            prop_assert_eq!(&m.syrk_with_threads(threads), &serial);
            prop_assert_eq!(&m.syrk_t_with_threads(threads), &serial_t);
        }
    }

    #[test]
    fn t_matmul_acc_accumulates(
        adata in proptest::collection::vec(-3.0..3.0f64, 6 * 4),
        bdata in proptest::collection::vec(-3.0..3.0f64, 6 * 3),
    ) {
        let a = Matrix::from_vec(6, 4, adata).unwrap();
        let b = Matrix::from_vec(6, 3, bdata).unwrap();
        let mut acc = Matrix::filled(4, 3, 1.0);
        a.t_matmul_acc(&b, &mut acc).unwrap();
        let expected = Matrix::filled(4, 3, 1.0).add(&a.t_matmul(&b).unwrap()).unwrap();
        prop_assert!(acc.sub(&expected).unwrap().max_abs() < 1e-12);
        // Shape mismatches are rejected.
        let mut wrong = Matrix::zeros(2, 2);
        prop_assert!(a.t_matmul_acc(&b, &mut wrong).is_err());
    }

    #[test]
    fn cols_view_projection_matches_stitched_bit_for_bit(
        data in proptest::collection::vec(-3.0..3.0f64, 7 * 24),
        pdata in proptest::collection::vec(-3.0..3.0f64, 7 * 3),
        splits in proptest::collection::vec(1usize..6, 5),
    ) {
        // The zero-copy serving path: a projection over arbitrarily-split column
        // blocks, with centering applied during packing, must equal centering a
        // stitched copy and multiplying — exactly, not approximately.
        let x = Matrix::from_vec(7, 24, data).unwrap();
        let proj = Matrix::from_vec(7, 3, pdata).unwrap();
        let mut parts = Vec::new();
        let mut start = 0usize;
        for w in splits {
            if start >= 24 { break; }
            let end = (start + w).min(24);
            parts.push(x.select_columns(&(start..end).collect::<Vec<_>>()));
            start = end;
        }
        if start < 24 {
            parts.push(x.select_columns(&(start..24).collect::<Vec<_>>()));
        }
        let view = ColsView::from_matrices(parts.iter()).unwrap();
        let shift: Vec<f64> = (0..7).map(|i| 0.1 * i as f64 - 0.2).collect();
        let zero_copy = view.shifted_t_matmul(Some(&shift), &proj).unwrap();
        let mut centered = x.clone();
        for (i, &s) in shift.iter().enumerate() {
            for v in centered.row_mut(i) {
                *v -= s;
            }
        }
        prop_assert_eq!(zero_copy, centered.t_matmul(&proj).unwrap());
    }

    #[test]
    fn centering_then_covariance_is_psd(m in matrix_strategy(5, 12)) {
        let (c, _) = center_rows(&m);
        let cov = covariance(&c);
        let eig = SymmetricEigen::new(&cov).unwrap();
        for &l in &eig.eigenvalues {
            prop_assert!(l > -1e-9);
        }
    }

    #[test]
    fn randomized_range_finder_recovers_the_exact_subspace(
        data_seed in 0u64..500,
        sketch_seed in 0u64..500,
    ) {
        // A d × N view with a planted rank-3 signal well above the noise floor:
        // the randomized range-finder's top-3 eigenvectors must span the same
        // subspace as the dense symmetric eigensolver's, measured by principal
        // angles (the singular values of UₑᵀUᵣ are the angle cosines — all ≈ 1
        // iff the subspaces coincide; this is basis- and sign-independent).
        let (d, n, k) = (12usize, 80usize, 3usize);
        let mut rng = linalg::SketchRng::new(data_seed.wrapping_mul(2) + 1);
        let mut x = Matrix::zeros(d, n);
        for j in 0..n {
            let latents = [3.0 * rng.standard_normal(), 2.0 * rng.standard_normal(), rng.standard_normal()];
            for i in 0..d {
                let basis = [
                    ((i + 1) as f64 * 0.7).sin(),
                    ((i + 1) as f64 * 1.9).cos(),
                    if i % 2 == 0 { 1.0 } else { -1.0 },
                ];
                x[(i, j)] = latents.iter().zip(basis).map(|(l, b)| l * b).sum::<f64>()
                    + 0.01 * rng.standard_normal();
            }
        }
        let (centered, _) = center_rows(&x);
        let exact = SymmetricEigen::new(&covariance(&centered)).unwrap();
        let ue = exact.eigenvectors.leading_columns(k);
        let rand = linalg::randomized_covariance_eig(&centered, k, 8, 2, sketch_seed).unwrap();
        let ur = rand.eigenvectors;
        prop_assert_eq!(ur.shape(), (d, k));
        let overlap = ue.t_matmul(&ur).unwrap();
        let angles = Svd::new(&overlap).unwrap();
        for (i, &cosine) in angles.singular_values.iter().enumerate() {
            prop_assert!(
                cosine > 1.0 - 1e-6,
                "principal angle {i} too wide: cos = {cosine}"
            );
        }
        // The recovered eigenvalues agree with the exact ones too.
        for i in 0..k {
            let rel = (rand.eigenvalues[i] - exact.eigenvalues[i]).abs()
                / exact.eigenvalues[i].max(1e-12);
            prop_assert!(rel < 1e-6, "eigenvalue {i} off by {rel}");
        }
    }
}
