//! The arbitrary-order [`DenseTensor`] type: storage, indexing, mode-n matricization,
//! mode-n products and rank-1 accumulation.
//!
//! ## Layout and matricization convention
//!
//! Elements are stored with the **first index varying fastest** (generalized
//! column-major, the convention of Kolda & Bader, *Tensor Decompositions and
//! Applications*, SIAM Review 2009). The mode-`n` unfolding `T₍ₙ₎` maps element
//! `(i₁, …, i_N)` to row `i_n` and column `Σ_{k≠n} i_k · J_k` with
//! `J_k = Π_{m<k, m≠n} I_m`, i.e. the smallest remaining mode varies fastest. The
//! Khatri–Rao helpers in [`crate::kr`] use the matching ordering so that
//! `T₍ₙ₎ ≈ A_n (A_N ⊙ … ⊙ A_{n+1} ⊙ A_{n-1} ⊙ … ⊙ A_1)ᵀ` holds exactly.

use crate::{Result, TensorError};
use linalg::{Matrix, MatrixView};

/// A dense tensor of arbitrary order with `f64` entries.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTensor {
    shape: Vec<usize>,
    /// Strides matching the "first index fastest" layout: `strides[k] = Π_{m<k} I_m`.
    strides: Vec<usize>,
    data: Vec<f64>,
}

impl DenseTensor {
    /// Create a zero tensor with the given shape.
    ///
    /// An empty shape (`&[]`) denotes a scalar tensor holding a single value.
    pub fn zeros(shape: &[usize]) -> Self {
        let strides = compute_strides(shape);
        let len = shape.iter().product::<usize>().max(1);
        Self {
            shape: shape.to_vec(),
            strides,
            data: vec![0.0; len],
        }
    }

    /// Build a tensor from a flat data vector laid out with the first index fastest.
    pub fn from_vec(shape: &[usize], data: Vec<f64>) -> Result<Self> {
        let expected = shape.iter().product::<usize>().max(1);
        if data.len() != expected {
            return Err(TensorError::InvalidArgument(format!(
                "data length {} does not match shape {:?} (expected {})",
                data.len(),
                shape,
                expected
            )));
        }
        Ok(Self {
            shape: shape.to_vec(),
            strides: compute_strides(shape),
            data,
        })
    }

    /// The tensor shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The tensor order (number of modes).
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Total number of stored elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no dimensions (scalar) — never true otherwise since
    /// even a zero tensor stores its zeros.
    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }

    /// Borrow the flat storage (first index fastest).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the flat storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Linear offset of a multi-index.
    #[inline]
    fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.shape.len());
        let mut off = 0;
        for (k, &i) in index.iter().enumerate() {
            debug_assert!(i < self.shape[k]);
            off += i * self.strides[k];
        }
        off
    }

    /// Read the element at a multi-index.
    #[inline]
    pub fn get(&self, index: &[usize]) -> f64 {
        self.data[self.offset(index)]
    }

    /// Write the element at a multi-index.
    #[inline]
    pub fn set(&mut self, index: &[usize], value: f64) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    /// Frobenius norm `‖T‖_F` (Eq. 4.4 in the paper).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Frobenius inner product `⟨self, other⟩`.
    pub fn inner(&self, other: &DenseTensor) -> Result<f64> {
        self.check_same_shape(other, "inner")?;
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Element-wise difference `self − other`.
    pub fn sub(&self, other: &DenseTensor) -> Result<DenseTensor> {
        self.check_same_shape(other, "sub")?;
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        DenseTensor::from_vec(&self.shape, data)
    }

    /// Element-wise sum `self + other`.
    pub fn add(&self, other: &DenseTensor) -> Result<DenseTensor> {
        self.check_same_shape(other, "add")?;
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        DenseTensor::from_vec(&self.shape, data)
    }

    /// Scale every entry by `s`.
    pub fn scale(&self, s: f64) -> DenseTensor {
        DenseTensor {
            shape: self.shape.clone(),
            strides: self.strides.clone(),
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// In-place scaling.
    pub fn scale_inplace(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Accumulate a weighted rank-1 tensor: `self += weight · v₁ ∘ v₂ ∘ … ∘ v_m`.
    ///
    /// This is how the covariance tensor `C = (1/N) Σ_n x₁ₙ ∘ … ∘ x_mₙ` is built without
    /// materializing intermediate outer products.
    pub fn add_rank_one(&mut self, weight: f64, vectors: &[&[f64]]) {
        assert_eq!(
            vectors.len(),
            self.shape.len(),
            "add_rank_one: expected {} vectors, got {}",
            self.shape.len(),
            vectors.len()
        );
        for (p, v) in vectors.iter().enumerate() {
            assert_eq!(
                v.len(),
                self.shape[p],
                "add_rank_one: vector {p} has length {} but mode has size {}",
                v.len(),
                self.shape[p]
            );
        }
        if weight == 0.0 {
            return;
        }
        // Recursive accumulation over modes from last (slowest) to first (fastest):
        // at the innermost level the first-mode vector is streamed contiguously.
        fn recurse(
            data: &mut [f64],
            strides: &[usize],
            vectors: &[&[f64]],
            mode: usize,
            base: usize,
            acc: f64,
        ) {
            if mode == 0 {
                let v0 = vectors[0];
                let out = &mut data[base..base + v0.len()];
                for (o, x) in out.iter_mut().zip(v0.iter()) {
                    *o += acc * x;
                }
                return;
            }
            let stride = strides[mode];
            for (i, &vi) in vectors[mode].iter().enumerate() {
                if vi == 0.0 {
                    continue;
                }
                recurse(
                    data,
                    strides,
                    vectors,
                    mode - 1,
                    base + i * stride,
                    acc * vi,
                );
            }
        }
        let last = self.shape.len() - 1;
        recurse(&mut self.data, &self.strides, vectors, last, 0, weight);
    }

    /// Mode-`n` matricization `T₍ₙ₎` (an `I_n × Π_{k≠n} I_k` matrix).
    pub fn unfold(&self, mode: usize) -> Result<Matrix> {
        if mode >= self.order() {
            return Err(TensorError::InvalidMode {
                mode,
                order: self.order(),
            });
        }
        let i_n = self.shape[mode];
        let cols: usize = self
            .shape
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != mode)
            .map(|(_, &s)| s)
            .product::<usize>()
            .max(1);
        let mut out = Matrix::zeros(i_n, cols);

        // Iterate over all elements once; compute (row, col) from the multi-index.
        let order = self.order();
        let mut index = vec![0usize; order];
        for (flat, &value) in self.data.iter().enumerate() {
            // Decode flat -> multi-index (first index fastest).
            let mut rem = flat;
            for k in 0..order {
                index[k] = rem % self.shape[k];
                rem /= self.shape[k];
            }
            let row = index[mode];
            let mut col = 0usize;
            let mut stride = 1usize;
            for k in 0..order {
                if k == mode {
                    continue;
                }
                col += index[k] * stride;
                stride *= self.shape[k];
            }
            out[(row, col)] = value;
        }
        Ok(out)
    }

    /// Inverse of [`DenseTensor::unfold`]: fold an `I_n × Π_{k≠n} I_k` matrix back into a
    /// tensor with the given full shape.
    pub fn fold(matrix: &Matrix, mode: usize, shape: &[usize]) -> Result<DenseTensor> {
        if mode >= shape.len() {
            return Err(TensorError::InvalidMode {
                mode,
                order: shape.len(),
            });
        }
        let expected_cols: usize = shape
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != mode)
            .map(|(_, &s)| s)
            .product::<usize>()
            .max(1);
        if matrix.rows() != shape[mode] || matrix.cols() != expected_cols {
            return Err(TensorError::ShapeMismatch {
                op: "fold",
                detail: format!(
                    "matrix is {}x{} but mode-{mode} folding of {:?} needs {}x{}",
                    matrix.rows(),
                    matrix.cols(),
                    shape,
                    shape[mode],
                    expected_cols
                ),
            });
        }
        let mut out = DenseTensor::zeros(shape);
        let order = shape.len();
        let mut index = vec![0usize; order];
        for flat in 0..out.data.len() {
            let mut rem = flat;
            for k in 0..order {
                index[k] = rem % shape[k];
                rem /= shape[k];
            }
            let row = index[mode];
            let mut col = 0usize;
            let mut stride = 1usize;
            for k in 0..order {
                if k == mode {
                    continue;
                }
                col += index[k] * stride;
                stride *= shape[k];
            }
            out.data[flat] = matrix[(row, col)];
        }
        Ok(out)
    }

    /// Mode-`n` product `B = T ×ₙ U` with a `J × I_n` matrix `U` (paper Eq. 4.1):
    /// every mode-`n` fiber of `T` is multiplied by `U`.
    ///
    /// Fibers are written directly into the output's flat storage (no unfold → matmul →
    /// fold round-trip), streaming contiguous `inner`-sized runs. For mode 0 the
    /// independent output slabs are parallelized; for higher modes every contiguous
    /// output run (one `(o, j)` pair) is an independent chunk, so even the highest
    /// mode — whose single slab spans the whole tensor — parallelizes.
    pub fn mode_product(&self, mode: usize, u: &Matrix) -> Result<DenseTensor> {
        if mode >= self.order() {
            return Err(TensorError::InvalidMode {
                mode,
                order: self.order(),
            });
        }
        if u.cols() != self.shape[mode] {
            return Err(TensorError::ShapeMismatch {
                op: "mode_product",
                detail: format!(
                    "matrix has {} columns but mode {mode} has size {}",
                    u.cols(),
                    self.shape[mode]
                ),
            });
        }
        let d = self.shape[mode];
        let j_new = u.rows();
        let inner = self.strides[mode];
        let slab_in = inner * d;
        let slab_out = inner * j_new;
        let outer = self.data.len().checked_div(slab_in).unwrap_or(0);
        let mut new_shape = self.shape.clone();
        new_shape[mode] = j_new;
        let mut out = DenseTensor::zeros(&new_shape);
        if out.data.is_empty() || outer == 0 {
            return Ok(out);
        }
        let data = &self.data;
        let threads = parallel::threads_for_work(2 * outer * d * j_new * inner);
        if mode == 0 {
            // Each output entry is a dot of a row of `u` with a contiguous fiber;
            // chunk by output slab (one per fiber of the input).
            parallel::for_each_chunk_mut(&mut out.data, slab_out, threads, |o, out_slab| {
                let in_slab = &data[o * slab_in..(o + 1) * slab_in];
                for (j, ov) in out_slab.iter_mut().enumerate() {
                    let u_row = u.row(j);
                    let mut acc = 0.0;
                    for (a, b) in u_row.iter().zip(in_slab.iter()) {
                        acc += a * b;
                    }
                    *ov = acc;
                }
            });
        } else {
            // Higher modes: each contiguous `inner`-run of the output (an `(o, j)`
            // pair) accumulates scaled input runs independently, with `i` ascending so
            // the per-element addition order is fixed and deterministic. Chunking per
            // run (not per slab) keeps the highest mode — one slab spanning the whole
            // tensor — parallelizable.
            parallel::for_each_chunk_mut(&mut out.data, inner, threads, |c, out_run| {
                let (o, j) = (c / j_new, c % j_new);
                let in_slab = &data[o * slab_in..(o + 1) * slab_in];
                for i in 0..d {
                    let coeff = u[(j, i)];
                    if coeff == 0.0 {
                        continue;
                    }
                    let in_run = &in_slab[i * inner..(i + 1) * inner];
                    for (o_val, x) in out_run.iter_mut().zip(in_run.iter()) {
                        *o_val += coeff * x;
                    }
                }
            });
        }
        Ok(out)
    }

    /// Matricized-tensor times Khatri–Rao product (MTTKRP), the workhorse of CP-ALS:
    /// `T₍ₙ₎ · (A_N ⊙ … ⊙ A_{n+1} ⊙ A_{n−1} ⊙ … ⊙ A_1)` — the mode-`mode` unfolding
    /// times the Khatri–Rao product of the other factors in descending mode order —
    /// computed on the blocked GEMM engine straight from the tensor's flat storage,
    /// materializing neither the unfolding nor the Khatri–Rao matrix.
    ///
    /// The storage is read in place as `X`, the `F × d₀` row-major matrix whose
    /// row `f` is the `f`-th mode-0 fibre (`F = Π_{k≥1} d_k`), and fibre `f` has
    /// the Khatri–Rao weight `w_f = A₁[i₁] ⊙ A₂[i₂] ⊙ …`:
    ///
    /// * mode 0 is one GEMM, `Xᵀ · W`, whose B packer forms the rows `w_f`;
    /// * mode `n ≥ 1` first forms the partial product `P = X · A₀` (`F × r`), then
    ///   streams `out[iₙ] += P[f] ⊙ w_f` over the fibres in storage order, with
    ///   `w_f` taken over the modes other than 0 and `n`.
    ///
    /// Both GEMMs run the engine's sequential reduction, so every output element
    /// is the same left fold, in storage order, as the textbook per-fibre loop:
    /// the result is bit-identical to it for finite input, for every thread count
    /// and in both kernel modes.
    ///
    /// `factors` must hold one matrix per mode with `factors[k].rows() == shape[k]` and
    /// a common column count `r`; `factors[mode]` is ignored (CP-ALS passes the full
    /// factor list). The result is `shape[mode] × r`.
    pub fn mttkrp(&self, mode: usize, factors: &[&Matrix]) -> Result<Matrix> {
        let r = factors.first().map_or(0, |f| f.cols());
        self.mttkrp_with_threads(mode, factors, self.mttkrp_threads(r))
    }

    /// [`DenseTensor::mttkrp`] with an explicit thread count. The result is
    /// bit-identical for every `threads >= 1`.
    pub fn mttkrp_with_threads(
        &self,
        mode: usize,
        factors: &[&Matrix],
        threads: usize,
    ) -> Result<Matrix> {
        let order = self.order();
        if order < 2 {
            return Err(TensorError::InvalidArgument(format!(
                "mttkrp needs an order >= 2 tensor, got order {order}"
            )));
        }
        if mode >= order {
            return Err(TensorError::InvalidMode { mode, order });
        }
        if factors.len() != order {
            return Err(TensorError::ShapeMismatch {
                op: "mttkrp",
                detail: format!("expected {} factor matrices, got {}", order, factors.len()),
            });
        }
        let r = factors[if mode == 0 { 1 } else { 0 }].cols();
        for (k, f) in factors.iter().enumerate() {
            if k == mode {
                continue;
            }
            if f.rows() != self.shape[k] || f.cols() != r {
                return Err(TensorError::ShapeMismatch {
                    op: "mttkrp",
                    detail: format!(
                        "factor {k} is {}x{} but mode {k} needs {}x{r}",
                        f.rows(),
                        f.cols(),
                        self.shape[k]
                    ),
                });
            }
        }
        if r == 0 || self.data.is_empty() {
            return Ok(Matrix::zeros(self.shape[mode], r));
        }
        if mode == 0 {
            return Ok(self
                .fibres()
                .t_matmul_khatri_rao_sequential(&factors[1..], threads)?);
        }
        let partial = self.mode0_partial(factors[0], threads)?;
        Ok(self.mttkrp_from_partial(mode, &partial, factors))
    }

    /// The flat storage viewed as `X`, the `F × d₀` row-major matrix of mode-0
    /// fibres. Only called on non-empty tensors of order ≥ 2.
    fn fibres(&self) -> MatrixView<'_> {
        let d0 = self.shape[0];
        MatrixView::new(self.data.len() / d0, d0, &self.data).expect("F·d₀ = len")
    }

    /// Thread count for the MTTKRP GEMMs at rank `r`.
    pub(crate) fn mttkrp_threads(&self, r: usize) -> usize {
        parallel::threads_for_work(2 * self.data.len() * r.max(1))
    }

    /// The mode-0 partial product `P = X · A₀` (`F × r`) shared by the MTTKRPs of
    /// every mode `n ≥ 1` (see [`DenseTensor::mttkrp`]); it depends on `A₀` alone,
    /// so CP-ALS forms it once per sweep. The tensor must be non-empty, of order
    /// ≥ 2, with `a0.rows() == shape[0]`.
    pub(crate) fn mode0_partial(&self, a0: &Matrix, threads: usize) -> Result<Matrix> {
        Ok(self.fibres().matmul_sequential(a0, threads)?)
    }

    /// The mode-`mode` (≥ 1) MTTKRP from the partial product `P`: streams
    /// `out[iₙ] += P[f] ⊙ w_f` over the fibres in storage order, where `w_f`
    /// multiplies, left to right, the `factors` rows of every mode other than 0
    /// and `mode`. Arguments are as validated by [`DenseTensor::mttkrp`].
    pub(crate) fn mttkrp_from_partial(
        &self,
        mode: usize,
        partial: &Matrix,
        factors: &[&Matrix],
    ) -> Matrix {
        let order = self.order();
        let r = partial.cols();
        let mut out = Matrix::zeros(self.shape[mode], r);
        let mut idx = vec![0usize; order];
        let mut w = vec![1.0f64; r];
        for p in partial.as_slice().chunks_exact(r) {
            w.fill(1.0);
            for k in 1..order {
                if k != mode {
                    for (wv, &fv) in w.iter_mut().zip(factors[k].row(idx[k])) {
                        *wv *= fv;
                    }
                }
            }
            for ((o, &pv), &wv) in out.row_mut(idx[mode]).iter_mut().zip(p).zip(&w) {
                *o += pv * wv;
            }
            for k in 1..order {
                idx[k] += 1;
                if idx[k] < self.shape[k] {
                    break;
                }
                idx[k] = 0;
            }
        }
        out
    }

    /// Gram matrix of the mode-`n` unfolding, `G = T₍ₙ₎ T₍ₙ₎ᵀ` (`I_n × I_n`), computed
    /// by streaming the flat storage — the unfolding itself is never materialized.
    /// Used by the HOSVD-style initializations of CP-ALS and HOPM.
    ///
    /// The storage splits into slabs of `I_n` contiguous mode-`n` fibers (each
    /// `Π_{k<n} I_k` long), and `G[i][j]` sums, slab by slab, the dot product of
    /// fibers `i` and `j`, each dot summed in ascending index order. For mode 0 the
    /// fibers are single values, so each slab adds `x_i · x[i..]` along row `i` of
    /// `G` as one vectorizable axpy; for the other modes each row computes
    /// eight independent dot products at a time. Rows of the upper
    /// triangle are split across threads; neither the loop order nor the split
    /// changes any element's summation order, so the result is bit-identical for
    /// every thread count.
    pub fn mode_gram(&self, mode: usize) -> Result<Matrix> {
        let d = self.shape.get(mode).copied().unwrap_or(0);
        let flops = self.data.len().saturating_mul(d);
        self.mode_gram_with_threads(mode, parallel::threads_for_work(flops))
    }

    /// [`DenseTensor::mode_gram`] with an explicit thread count. The result is
    /// bit-identical for every `threads >= 1`.
    pub fn mode_gram_with_threads(&self, mode: usize, threads: usize) -> Result<Matrix> {
        if mode >= self.order() {
            return Err(TensorError::InvalidMode {
                mode,
                order: self.order(),
            });
        }
        let d = self.shape[mode];
        let inner = self.strides[mode];
        let mut g = Matrix::zeros(d, d);
        if self.data.is_empty() {
            return Ok(g);
        }
        // One band of rows per thread, cut so each holds an equal share of the
        // upper triangle (row i has d − i entries).
        let threads = threads.clamp(1, d);
        let total = d * (d + 1) / 2;
        let mut bands: Vec<(usize, &mut [f64])> = Vec::with_capacity(threads);
        let mut rest = g.as_mut_slice();
        let (mut row, mut done) = (0, 0);
        for t in 1..=threads {
            let target = total * t / threads;
            let start = row;
            while row < d && done < target {
                done += d - row;
                row += 1;
            }
            let (band, tail) = std::mem::take(&mut rest).split_at_mut((row - start) * d);
            rest = tail;
            if !band.is_empty() {
                bands.push((start, band));
            }
        }
        parallel::for_each_chunk_mut(&mut bands, 1, threads, |_, band| {
            let (row0, rows) = &mut band[0];
            mode_gram_rows(&self.data, d, inner, *row0, rows);
        });
        for i in 0..d {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        Ok(g)
    }

    /// Mode-`n` contraction with a vector: `T ×ₙ vᵀ`, which drops mode `n` and returns a
    /// tensor of order `m − 1` (the order-0 case is returned as a 1-element tensor).
    pub fn mode_contract(&self, mode: usize, v: &[f64]) -> Result<DenseTensor> {
        if mode >= self.order() {
            return Err(TensorError::InvalidMode {
                mode,
                order: self.order(),
            });
        }
        if v.len() != self.shape[mode] {
            return Err(TensorError::ShapeMismatch {
                op: "mode_contract",
                detail: format!(
                    "vector has length {} but mode {mode} has size {}",
                    v.len(),
                    self.shape[mode]
                ),
            });
        }
        let unfolded = self.unfold(mode)?;
        let contracted = unfolded.t_matvec(v)?;
        let new_shape: Vec<usize> = self
            .shape
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != mode)
            .map(|(_, &s)| s)
            .collect();
        DenseTensor::from_vec(&new_shape, contracted)
    }

    /// The multilinear form `T ×₁ v₁ᵀ ×₂ v₂ᵀ … ×ₘ vₘᵀ` (a scalar).
    ///
    /// By Theorem 1 of the paper this equals the canonical correlation
    /// `ρ = (z₁ ⊙ z₂ ⊙ … ⊙ zₘ)ᵀ e` when `T` is the covariance tensor and the `v_p` are
    /// the canonical vectors.
    pub fn multilinear_form(&self, vectors: &[&[f64]]) -> Result<f64> {
        if vectors.len() != self.order() {
            return Err(TensorError::ShapeMismatch {
                op: "multilinear_form",
                detail: format!("expected {} vectors, got {}", self.order(), vectors.len()),
            });
        }
        if !vectors.is_empty() && vectors[0].len() != self.shape[0] {
            return Err(TensorError::ShapeMismatch {
                op: "multilinear_form",
                detail: format!(
                    "vector 0 has length {} but mode 0 has size {}",
                    vectors[0].len(),
                    self.shape[0]
                ),
            });
        }
        if self.order() == 0 {
            return Ok(self.data[0]);
        }
        let fiber = self.contract_all_but(0, vectors)?;
        let mut acc = 0.0;
        for (a, b) in vectors[0].iter().zip(fiber.iter()) {
            acc += a * b;
        }
        Ok(acc)
    }

    /// Contract every mode **except** `keep` with the corresponding vector, returning the
    /// resulting mode-`keep` fiber of length `I_keep`.
    ///
    /// This is the inner step of both the HOPM and ALS rank-1 updates:
    /// `u_p ← T ×₁ u₁ᵀ … ×_{p−1} u_{p−1}ᵀ ×_{p+1} u_{p+1}ᵀ … ×ₘ uₘᵀ`.
    ///
    /// This is the rank-1 case of [`DenseTensor::mttkrp`] as one scalar pass: the
    /// tensor's flat storage is streamed exactly once, with no intermediate tensors
    /// (the entry of `vectors` at position `keep` is ignored).
    pub fn contract_all_but(&self, keep: usize, vectors: &[&[f64]]) -> Result<Vec<f64>> {
        let order = self.order();
        if vectors.len() != order {
            return Err(TensorError::ShapeMismatch {
                op: "contract_all_but",
                detail: format!("expected {} vectors, got {}", order, vectors.len()),
            });
        }
        if keep >= order {
            return Err(TensorError::InvalidMode { mode: keep, order });
        }
        for (k, v) in vectors.iter().enumerate() {
            if k != keep && v.len() != self.shape[k] {
                return Err(TensorError::ShapeMismatch {
                    op: "contract_all_but",
                    detail: format!(
                        "vector {k} has length {} but mode {k} has size {}",
                        v.len(),
                        self.shape[k]
                    ),
                });
            }
        }
        let d0 = self.shape[0];
        let mut out = vec![0.0; self.shape[keep]];
        if self.data.is_empty() || d0 == 0 {
            return Ok(out);
        }
        let mut idx = vec![0usize; order];
        for fiber in self.data.chunks_exact(d0) {
            // Scalar weight from every mode above 0 except `keep`.
            let mut w = 1.0;
            for k in 1..order {
                if k != keep {
                    w *= vectors[k][idx[k]];
                }
            }
            if w != 0.0 {
                if keep == 0 {
                    for (o, &t) in out.iter_mut().zip(fiber.iter()) {
                        *o += t * w;
                    }
                } else {
                    let v0 = vectors[0];
                    let mut acc = 0.0;
                    for (&t, &v) in fiber.iter().zip(v0.iter()) {
                        acc += t * v;
                    }
                    out[idx[keep]] += acc * w;
                }
            }
            for k in 1..order {
                idx[k] += 1;
                if idx[k] < self.shape[k] {
                    break;
                }
                idx[k] = 0;
            }
        }
        Ok(out)
    }

    fn check_same_shape(&self, other: &DenseTensor, op: &'static str) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                detail: format!("{:?} vs {:?}", self.shape, other.shape),
            });
        }
        Ok(())
    }
}

/// Independent running dot products per row step of the mode-`n` Gram kernel:
/// enough separate add chains to hide the floating-point add latency.
const GRAM_LANES: usize = 8;

/// Upper-triangle entries of Gram rows `row0..row0 + rows.len() / d` (see
/// [`DenseTensor::mode_gram`]): every slab of `d` fibers of length `inner` adds
/// each fiber pair's dot product onto `G[i][j]`, `j ≥ i`.
fn mode_gram_rows(data: &[f64], d: usize, inner: usize, row0: usize, rows: &mut [f64]) {
    let row1 = row0 + rows.len() / d;
    for slab in data.chunks_exact(d * inner) {
        for (i, g) in (row0..row1).zip(rows.chunks_exact_mut(d)) {
            if inner == 1 {
                // Single-value fibers: one axpy of x_i · x[i..] along the row.
                let xi = slab[i];
                for (gv, &xj) in g[i..].iter_mut().zip(&slab[i..]) {
                    *gv += xi * xj;
                }
                continue;
            }
            let a = &slab[i * inner..(i + 1) * inner];
            let mut j = i;
            while j + GRAM_LANES <= d {
                let dots = fiber_dots::<GRAM_LANES>(a, &slab[j * inner..(j + GRAM_LANES) * inner]);
                for (gv, dot) in g[j..j + GRAM_LANES].iter_mut().zip(dots) {
                    *gv += dot;
                }
                j += GRAM_LANES;
            }
            for j in j..d {
                g[j] += fiber_dots::<1>(a, &slab[j * inner..(j + 1) * inner])[0];
            }
        }
    }
}

/// Dot products of `a` with each of the `L` consecutive fibers in `b` (each
/// `a.len()` long), every one summed in ascending index order from zero.
#[inline(always)]
fn fiber_dots<const L: usize>(a: &[f64], b: &[f64]) -> [f64; L] {
    let n = a.len();
    let fibers: [&[f64]; L] = std::array::from_fn(|l| &b[l * n..(l + 1) * n]);
    let mut acc = [0.0; L];
    for (t, &x) in a.iter().enumerate() {
        for (s, f) in acc.iter_mut().zip(&fibers) {
            *s += x * f[t];
        }
    }
    acc
}

fn compute_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for k in 1..shape.len() {
        strides[k] = strides[k - 1] * shape[k - 1];
    }
    strides
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar per-fibre MTTKRP loop as it stood before the GEMM kernels, for
    /// output rows `[row0, row0 + out_rows.len()/r)`. Kept only as the
    /// bit-identity reference for [`DenseTensor::mttkrp`].
    fn mttkrp_rows(
        data: &[f64],
        shape: &[usize],
        mode: usize,
        factors: &[&Matrix],
        r: usize,
        row0: usize,
        out_rows: &mut [f64],
    ) {
        let order = shape.len();
        let d0 = shape[0];
        let row1 = row0 + out_rows.len() / r;
        let mut idx = vec![0usize; order];
        let mut w = vec![1.0f64; r];
        let mut acc = vec![0.0f64; r];
        for fiber in data.chunks_exact(d0) {
            if mode == 0 || (idx[mode] >= row0 && idx[mode] < row1) {
                w.fill(1.0);
                for k in 1..order {
                    if k == mode {
                        continue;
                    }
                    let f_row = factors[k].row(idx[k]);
                    for (wv, &fv) in w.iter_mut().zip(f_row.iter()) {
                        *wv *= fv;
                    }
                }
                if mode == 0 {
                    for i0 in row0..row1 {
                        let t = fiber[i0];
                        if t == 0.0 {
                            continue;
                        }
                        let o = &mut out_rows[(i0 - row0) * r..(i0 - row0 + 1) * r];
                        for (ov, &wv) in o.iter_mut().zip(w.iter()) {
                            *ov += t * wv;
                        }
                    }
                } else {
                    acc.fill(0.0);
                    for (i0, &t) in fiber.iter().enumerate() {
                        if t == 0.0 {
                            continue;
                        }
                        let a_row = factors[0].row(i0);
                        for (av, &fv) in acc.iter_mut().zip(a_row.iter()) {
                            *av += t * fv;
                        }
                    }
                    let local = idx[mode] - row0;
                    let o = &mut out_rows[local * r..(local + 1) * r];
                    for ((ov, &av), &wv) in o.iter_mut().zip(acc.iter()).zip(w.iter()) {
                        *ov += av * wv;
                    }
                }
            }
            for k in 1..order {
                idx[k] += 1;
                if idx[k] < shape[k] {
                    break;
                }
                idx[k] = 0;
            }
        }
    }

    fn example_3d() -> DenseTensor {
        // Shape 2x3x2, filled with 1..=12 in storage order (first index fastest).
        DenseTensor::from_vec(&[2, 3, 2], (1..=12).map(|v| v as f64).collect()).unwrap()
    }

    /// The scalar mode-`n` Gram as it stood before the lane/axpy kernels: one
    /// running dot per `(i, j)` pair, slab by slab. Kept only as the bit-identity
    /// reference for [`DenseTensor::mode_gram`].
    fn mode_gram_reference(t: &DenseTensor, mode: usize) -> Matrix {
        let d = t.shape[mode];
        let inner = t.strides[mode];
        let slab = inner * d;
        let outer = t.data.len().checked_div(slab).unwrap_or(0);
        let mut g = Matrix::zeros(d, d);
        for o in 0..outer {
            let base = o * slab;
            for i in 0..d {
                let a = &t.data[base + i * inner..base + (i + 1) * inner];
                for j in i..d {
                    let b = &t.data[base + j * inner..base + (j + 1) * inner];
                    let mut acc = 0.0;
                    for (x, y) in a.iter().zip(b.iter()) {
                        acc += x * y;
                    }
                    g[(i, j)] += acc;
                }
            }
        }
        for i in 0..d {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    #[test]
    fn mttkrp_is_bit_identical_to_the_scalar_reference() {
        // Orders 2–4; d₀ and the fibre count F each beyond one GEMM k-block.
        let kc = linalg::gemm::KC;
        let shapes: [&[usize]; 6] = [
            &[kc + 44, 3],
            &[5, kc + 7],
            &[kc + 9, 3, 2],
            &[4, 20, 15],
            &[kc + 1, 17, 16],
            &[3, 4, 5, 15],
        ];
        for (s, shape) in shapes.iter().enumerate() {
            let len: usize = shape.iter().product();
            // Exact zeros of both signs, as the reference loop skips them.
            let data = (0..len)
                .map(|e| match e % 7 {
                    0 => 0.0,
                    3 => -0.0,
                    _ => ((e as f64) * 0.731 + s as f64).sin(),
                })
                .collect();
            let t = DenseTensor::from_vec(shape, data).unwrap();
            for r in [1, 3, 8, 20] {
                let factors: Vec<Matrix> = shape
                    .iter()
                    .enumerate()
                    .map(|(k, &d)| {
                        let vals = (0..d * r)
                            .map(|e| {
                                if e % 5 == 1 {
                                    0.0
                                } else {
                                    ((e * 3 + k) as f64 * 0.377).cos()
                                }
                            })
                            .collect();
                        Matrix::from_vec(d, r, vals).unwrap()
                    })
                    .collect();
                let refs: Vec<&Matrix> = factors.iter().collect();
                for mode in 0..shape.len() {
                    let mut want = Matrix::zeros(shape[mode], r);
                    mttkrp_rows(&t.data, shape, mode, &refs, r, 0, want.as_mut_slice());
                    for threads in [1, 4] {
                        let got = t.mttkrp_with_threads(mode, &refs, threads).unwrap();
                        assert_eq!(got.shape(), want.shape());
                        for (e, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "shape {shape:?}, r {r}, mode {mode}, {threads} threads, entry {e}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mode_gram_is_bit_identical_to_the_scalar_reference() {
        // Orders 2–4, dimensions below and around the 8 dot lanes, odd sizes and a
        // unit mode (whose neighbour then has single-value fibers).
        let shapes: [&[usize]; 6] = [
            &[7, 5],
            &[3, 17],
            &[9, 8, 11],
            &[1, 13, 3],
            &[17, 3, 9],
            &[5, 2, 3, 10],
        ];
        for (s, shape) in shapes.iter().enumerate() {
            let len: usize = shape.iter().product();
            let data = (0..len)
                .map(|e| ((e as f64) * 0.731 + s as f64).sin() * (1.0 + (e % 7) as f64))
                .collect();
            let t = DenseTensor::from_vec(shape, data).unwrap();
            for mode in 0..shape.len() {
                let want = mode_gram_reference(&t, mode);
                for threads in [1, 4] {
                    let got = t.mode_gram_with_threads(mode, threads).unwrap();
                    assert_eq!(got.shape(), want.shape());
                    for (e, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "shape {shape:?}, mode {mode}, {threads} threads, entry {e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn indexing_follows_first_index_fastest() {
        let t = example_3d();
        assert_eq!(t.get(&[0, 0, 0]), 1.0);
        assert_eq!(t.get(&[1, 0, 0]), 2.0);
        assert_eq!(t.get(&[0, 1, 0]), 3.0);
        assert_eq!(t.get(&[1, 2, 0]), 6.0);
        assert_eq!(t.get(&[0, 0, 1]), 7.0);
        assert_eq!(t.get(&[1, 2, 1]), 12.0);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut t = DenseTensor::zeros(&[3, 4, 2]);
        t.set(&[2, 3, 1], 42.0);
        assert_eq!(t.get(&[2, 3, 1]), 42.0);
        assert_eq!(t.len(), 24);
        assert_eq!(t.order(), 3);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseTensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn unfold_mode0_matches_known_layout() {
        let t = example_3d();
        let m0 = t.unfold(0).unwrap();
        assert_eq!(m0.shape(), (2, 6));
        // Column j corresponds to (i2, i3) with i2 fastest: columns are
        // (0,0),(1,0),(2,0),(0,1),(1,1),(2,1).
        assert_eq!(m0.row(0), &[1.0, 3.0, 5.0, 7.0, 9.0, 11.0]);
        assert_eq!(m0.row(1), &[2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn unfold_mode1_and_mode2() {
        let t = example_3d();
        let m1 = t.unfold(1).unwrap();
        assert_eq!(m1.shape(), (3, 4));
        // Columns ordered by (i1, i3) with i1 fastest: (0,0),(1,0),(0,1),(1,1).
        assert_eq!(m1.row(0), &[1.0, 2.0, 7.0, 8.0]);
        assert_eq!(m1.row(2), &[5.0, 6.0, 11.0, 12.0]);
        let m2 = t.unfold(2).unwrap();
        assert_eq!(m2.shape(), (2, 6));
        assert_eq!(m2.row(0), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m2.row(1), &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn fold_is_inverse_of_unfold() {
        let t = example_3d();
        for mode in 0..3 {
            let unfolded = t.unfold(mode).unwrap();
            let folded = DenseTensor::fold(&unfolded, mode, t.shape()).unwrap();
            assert_eq!(folded, t);
        }
    }

    #[test]
    fn fold_validates_shape() {
        let m = Matrix::zeros(2, 5);
        assert!(DenseTensor::fold(&m, 0, &[2, 3, 2]).is_err());
        assert!(DenseTensor::fold(&m, 7, &[2, 5]).is_err());
    }

    #[test]
    fn mode_product_against_manual() {
        let t = example_3d();
        // U is 1x2 summing the first mode.
        let u = Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap();
        let b = t.mode_product(0, &u).unwrap();
        assert_eq!(b.shape(), &[1, 3, 2]);
        assert_eq!(b.get(&[0, 0, 0]), 3.0); // 1 + 2
        assert_eq!(b.get(&[0, 2, 1]), 23.0); // 11 + 12
        assert!(t.mode_product(0, &Matrix::zeros(2, 3)).is_err());
        assert!(t.mode_product(9, &u).is_err());
    }

    #[test]
    fn mode_product_identity_is_noop() {
        let t = example_3d();
        for mode in 0..3 {
            let eye = Matrix::identity(t.shape()[mode]);
            assert_eq!(t.mode_product(mode, &eye).unwrap(), t);
        }
    }

    #[test]
    fn mode_contract_drops_mode() {
        let t = example_3d();
        let c = t.mode_contract(1, &[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.get(&[0, 0]), 1.0 + 3.0 + 5.0);
        assert_eq!(c.get(&[1, 1]), 8.0 + 10.0 + 12.0);
        assert!(t.mode_contract(1, &[1.0]).is_err());
    }

    #[test]
    fn multilinear_form_matches_elementwise_sum() {
        let t = example_3d();
        let ones2 = vec![1.0, 1.0];
        let ones3 = vec![1.0, 1.0, 1.0];
        let total = t.multilinear_form(&[&ones2, &ones3, &ones2]).unwrap();
        assert_eq!(total, (1..=12).sum::<i32>() as f64);
        // Selecting a single element via indicator vectors.
        let e1 = vec![0.0, 1.0];
        let e2 = vec![0.0, 0.0, 1.0];
        let picked = t.multilinear_form(&[&e1, &e2, &e1]).unwrap();
        assert_eq!(picked, t.get(&[1, 2, 1]));
    }

    #[test]
    fn contract_all_but_returns_fiber() {
        let t = example_3d();
        let ones2 = vec![1.0, 1.0];
        let ones3 = vec![1.0, 1.0, 1.0];
        let fiber = t.contract_all_but(1, &[&ones2, &ones3, &ones2]).unwrap();
        assert_eq!(fiber.len(), 3);
        assert_eq!(fiber[0], 1.0 + 2.0 + 7.0 + 8.0);
        assert_eq!(fiber[2], 5.0 + 6.0 + 11.0 + 12.0);
    }

    #[test]
    fn add_rank_one_matches_outer_product() {
        let mut t = DenseTensor::zeros(&[2, 3, 2]);
        let a = [1.0, 2.0];
        let b = [3.0, 0.0, -1.0];
        let c = [1.0, -2.0];
        t.add_rank_one(2.0, &[&a, &b, &c]);
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..2 {
                    let expected = 2.0 * a[i] * b[j] * c[k];
                    assert!((t.get(&[i, j, k]) - expected).abs() < 1e-12);
                }
            }
        }
        // Zero weight is a no-op.
        let before = t.clone();
        t.add_rank_one(0.0, &[&a, &b, &c]);
        assert_eq!(t, before);
    }

    #[test]
    fn arithmetic_and_norms() {
        let t = example_3d();
        let sum = t.add(&t).unwrap();
        assert_eq!(sum.get(&[1, 2, 1]), 24.0);
        let diff = sum.sub(&t).unwrap();
        assert_eq!(diff, t);
        let scaled = t.scale(0.5);
        assert_eq!(scaled.get(&[1, 2, 1]), 6.0);
        let mut t2 = t.clone();
        t2.scale_inplace(2.0);
        assert_eq!(t2, sum);
        let expected_norm = (1..=12).map(|v| (v * v) as f64).sum::<f64>().sqrt();
        assert!((t.frobenius_norm() - expected_norm).abs() < 1e-12);
        assert!((t.inner(&t).unwrap() - expected_norm * expected_norm).abs() < 1e-9);
        assert!(t.inner(&DenseTensor::zeros(&[2, 2])).is_err());
        assert!(t.add(&DenseTensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn order_two_tensor_behaves_like_matrix() {
        let t = DenseTensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        // Storage is column-major: element (0,1) = 3.
        assert_eq!(t.get(&[0, 1]), 3.0);
        let unfolded = t.unfold(0).unwrap();
        assert_eq!(unfolded[(0, 1)], 3.0);
        assert_eq!(unfolded[(1, 0)], 2.0);
    }
}
