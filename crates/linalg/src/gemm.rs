//! The blocked, packed GEMM engine behind every dense product kernel.
//!
//! All of `matmul`, `t_matmul`, `matmul_t`, `t_matmul_acc`,
//! `khatri_rao_t_matmul_acc`, `syrk`/`syrk_t` (and through them `gram`,
//! covariance/whitening, the covariance-tensor build, PCA and the CP-ALS solvers),
//! plus the sequential-reduction tensor products behind the MTTKRP, funnel into
//! one BLIS-style driver:
//!
//! * the reduction dimension is split into blocks of [`KC`] values;
//! * panels of `B` ([`KC`]`×NRV`) are **packed once per k-block** into a shared
//!   arena, and micro-panels of `A` ([`KC`]`×`[`MR`]) into per-band scratch, laid
//!   out exactly as the inner loop consumes them (one `MR`-lane and one `NRV`-lane
//!   row per reduction step);
//! * the `microkernel` computes an `MR×NRV` output tile with all `MR·NRV`
//!   accumulators live in registers, reading each packed value once. Its body indexes
//!   fixed-size arrays only (`&[f64; MR]` / `&[f64; NRV]` obtained via `chunks_exact`),
//!   so there are **no bounds checks inside the tile loop** and the `NRV`-wide lane
//!   arithmetic autovectorizes.
//!
//! `NRV` is the *instantiated* tile width: the driver is const-generic over it and
//! the dispatcher picks [`NR`]` = 8` for general shapes or the skinny
//! specialization `NR/2 = 4` when the whole output is at most `NR/2` columns wide
//! (the `t_matmul_proj`-shaped serving projections), so narrow projections stop
//! padding half the register file. The packed B-panel of one k-block is
//! `KC·NRV·8` bytes — 16 KiB for the `NR=8` tile and half that for the skinny
//! one — always L1-resident while each A micro-panel streams against it. The
//! tile-width choice **never changes results**: each output element's reduction
//! order depends only on `k`, not on which tile column the element lands in.
//!
//! Edge tiles are handled by zero-padding the packed panels to full `MR`/`NRV` width
//! and copying back only the valid lanes, so the hot loop never branches on tile
//! validity.
//!
//! Each tile prefetches the output lines it will add onto before its microkernel
//! runs, so the read-modify-write at the end of a shallow reduction (`k` of a few
//! dozen steps against an output larger than the cache, as in the tensor build)
//! finds them in L1 instead of stalling.
//!
//! ## Shared B packing
//!
//! The k-block loop sits *outside* the row-band parallelism: the driver walks the
//! reduction dimension in super-blocks of k-blocks sized to a fixed arena budget
//! (`B_ARENA_BUDGET`), packs every B panel of the super-block **once** (itself
//! fanned out over the worker threads), then lets all row bands consume the
//! read-only arena. Thread bands therefore no longer duplicate the O(k·n) packing
//! work — bit-identical by construction, since the packed bytes and every band's
//! consumption schedule (k-blocks ascending) are unchanged. [`shared_pack_hits`]
//! counts the panel reuses for observability.
//!
//! ## Skinny direct-A
//!
//! When the output is a single panel wide (`n ≤ NRV`), each packed A value is
//! read back exactly once — and for the `Aᵀ` operand of `t_matmul` the source
//! already *is* in microkernel order (`MR` contiguous lanes per reduction step,
//! stride = the row length). Packing would be a pure copy tax on a
//! bandwidth-bound shape, so `ASource::Strided` lets the band loop stream those
//! operands straight from the caller's buffer (edge tiles still go through the
//! packer). Same values in the same order — bit-identical to the packed path.
//!
//! ## The determinism contract
//!
//! Every output element accumulates its reduction in **ascending index order**: the
//! k-blocks are visited in ascending order, each micro-tile accumulates ascending
//! within a block, and the per-element partial sums are added onto the output in
//! k-block order. That schedule depends only on the problem shape — never on the
//! thread count, which partitions output *rows* exclusively — so results are
//! bit-identical for every `threads >= 1` (the invariant `crates/parallel` documents
//! and `crates/linalg/tests/properties.rs` pins down). The packing source is
//! abstracted over closures, which is what lets the zero-copy
//! [`ColsView`](crate::ColsView) serving path reuse the exact same schedule — and
//! therefore produce the exact same bits — as a materialized matrix would.
//!
//! Multiply and add always stay separate f64 instructions (no fused
//! multiply-add), so SIMD and scalar builds produce the same bits on every host.
//! The band loop is compiled for scalar, AVX2 and AVX-512F and dispatches to the
//! widest the host has; vector lanes are independent output elements, so the
//! choice changes no bit.
//!
//! ## Reduction schedules
//!
//! The driver splits each output element's reduction in one of two ways:
//!
//! * **Blocked** (every public product: `matmul`, `t_matmul`, `syrk`, the
//!   covariance-tensor build, the serving projections): each k-block's tile
//!   starts from zero accumulators and its partial sum is *added* onto C, so an
//!   element is `c + (Σ block₀) + (Σ block₁) + …`. Its bits depend on [`KC`],
//!   never on the thread count or tile width.
//! * **Sequential** (the tensor kernels that must reproduce a scalar loop's
//!   bits: [`MatrixView::matmul_sequential`](crate::MatrixView::matmul_sequential)
//!   and [`MatrixView::t_matmul_khatri_rao_sequential`](crate::MatrixView::t_matmul_khatri_rao_sequential),
//!   which carry the CP-ALS MTTKRP): each k-block's tile *loads* its
//!   accumulators from C and stores them back, so an element is the single left
//!   fold `((c + a₀b₀) + a₁b₁) + …` over all of `k`, for any `KC`, thread count
//!   or tile width.

use crate::{Matrix, MatrixView};
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// Micro-tile rows: output rows whose accumulators stay live in registers.
pub const MR: usize = 4;
/// Widest micro-tile column count: the autovectorized lane width of the inner loop
/// for general shapes. The dispatcher instantiates `NR/2`-wide tiles for outputs
/// that are at most `NR/2` columns wide.
pub const NR: usize = 8;
/// Reduction block depth: one packed `KC×NRV` B-panel (`KC·NRV·8` bytes — at
/// most 16 KiB for the widest tile) stays L1-resident while each A
/// micro-panel streams against it.
pub const KC: usize = 256;
/// Rows of `A` packed per block: `MC×KC` doubles (128 KiB) sit in L2 while the
/// packed micro-panels are re-read once per B panel.
pub const MC: usize = 64;

/// The skinny tile width the dispatcher picks when `n <= NR/2`.
const NR_SKINNY: usize = NR / 2;

/// Byte budget for the shared packed-B arena: k-blocks are grouped into
/// super-blocks whose packed panels fit this budget, so one pack fan-out and one
/// band fan-out cover many k-blocks without the arena outgrowing the cache
/// hierarchy (or, for tall operands, the heap).
const B_ARENA_BUDGET: usize = 4 << 20;

static SHARED_PACK_HITS: AtomicU64 = AtomicU64::new(0);

/// Lifetime count of packed B-panels a row band consumed without having packed
/// them itself — the duplicated O(k·n) packing work the shared arena eliminated.
/// Surfaced as the `engine/shared_pack_hits` serving counter.
pub fn shared_pack_hits() -> u64 {
    SHARED_PACK_HITS.load(Ordering::Relaxed)
}

/// Packing callback: `pack(dst, first, valid, p0, kc)` fills `dst` (length
/// `kc * MR` for A sources, `kc * NRV` for B sources — B packers derive the lane
/// width from `dst.len() / kc` so one packer serves every tile instantiation)
/// with the operand values for lanes `first..first + valid` over reduction
/// indices `p0..p0 + kc`, laid out lane-fastest (`dst[step * LANES + lane]`).
/// Lanes `>= valid` must be zeroed.
pub(crate) type Pack<'a> = &'a (dyn Fn(&mut [f64], usize, usize, usize, usize) + Sync);

/// How the band loop obtains the left operand's micro-panels.
#[derive(Clone, Copy)]
pub(crate) enum ASource<'a> {
    /// Copy micro-panels through the packer — the general case.
    Packed(Pack<'a>),
    /// The operand is already lane-fastest in memory: lanes `first..first + MR`
    /// at reduction step `p` live at `data[p * stride + first..][..MR]` (the
    /// `Aᵀ` operand of `t_matmul`, where `stride` is the row length ≥ `m`).
    /// Single-panel outputs stream it directly and skip the pack copy; `pack`
    /// still serves edge tiles and the multi-panel shapes where packed reuse
    /// wins.
    Strided {
        /// The operand's backing storage in step-major, lane-fastest layout.
        data: &'a [f64],
        /// Elements between consecutive reduction steps.
        stride: usize,
        /// Fallback packer describing the same operand.
        pack: Pack<'a>,
    },
}

/// How the driver splits each output element's reduction (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Schedule {
    /// One partial sum per k-block added onto C.
    Blocked,
    /// Accumulators loaded from C at each k-block and stored back: one left fold
    /// over the whole reduction.
    Sequential,
}

/// One reduction step of an `MR×NRV` tile: `acc[i][j] += a[i] · b[j]`, a
/// separate multiply and add. Fixed-size array inputs keep the body free of
/// bounds checks; the `j` loop vectorizes over the element lanes.
#[inline(always)]
fn tile_step<const NRV: usize>(a: &[f64; MR], b: &[f64; NRV], acc: &mut [[f64; NRV]; MR]) {
    for i in 0..MR {
        let ai = a[i];
        for j in 0..NRV {
            acc[i][j] += ai * b[j];
        }
    }
}

/// Compute one `MR×NRV` tile from packed panels: `kc` ascending reduction steps
/// of [`tile_step`]. `inline(always)` so the caller's target features (the AVX
/// bands below) apply to the body — that is what turns the `NRV` lanes into
/// `vmulpd`/`vaddpd` vector arithmetic.
#[inline(always)]
fn microkernel<const NRV: usize>(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NRV]; MR]) {
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NRV)).take(kc) {
        let a: &[f64; MR] = a.try_into().expect("packed A lane width");
        let b: &[f64; NRV] = b.try_into().expect("packed B lane width");
        tile_step::<NRV>(a, b, acc);
    }
}

/// [`microkernel`] reading the A operand in place at `a[p * stride..][..MR]`
/// instead of from a packed micro-panel — the direct path for
/// `ASource::Strided` operands. Identical values in identical order, so the
/// bits match the packed variant exactly.
#[inline(always)]
fn microkernel_strided<const NRV: usize>(
    kc: usize,
    a: &[f64],
    stride: usize,
    bp: &[f64],
    acc: &mut [[f64; NRV]; MR],
) {
    for (p, b) in bp.chunks_exact(NRV).take(kc).enumerate() {
        let a: &[f64; MR] = a[p * stride..p * stride + MR]
            .try_into()
            .expect("strided A lane width");
        let b: &[f64; NRV] = b.try_into().expect("packed B lane width");
        tile_step::<NRV>(a, b, acc);
    }
}

/// Blocked GEMM driver: `out[m×n] += Aᵒᵖ[m×k] · Bᵒᵖ[k×n]`, with the operands
/// supplied as packing closures (see [`Pack`]) so normal, transposed and
/// multi-part zero-copy sources all share one engine.
///
/// With `upper_only` set, micro-tiles strictly below the main diagonal are
/// skipped — the symmetric rank-k callers mirror the upper triangle afterwards.
/// Rows are partitioned over `threads` in multiples of [`MR`]; the accumulation
/// schedule is independent of the partition (see module docs).
// The argument list mirrors the BLAS gemm surface (shape triple, output, threading,
// triangle restriction, two operand sources); a param struct would only rename it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    m: usize,
    n: usize,
    k: usize,
    out: &mut Matrix,
    threads: usize,
    upper_only: bool,
    pack_a: Pack<'_>,
    pack_b: Pack<'_>,
) {
    gemm_a(
        m,
        n,
        k,
        out,
        threads,
        upper_only,
        ASource::Packed(pack_a),
        pack_b,
    );
}

/// [`gemm`] with an explicit [`ASource`], letting `t_matmul`-shaped callers hand
/// over the operand's in-place layout for the skinny direct path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_a(
    m: usize,
    n: usize,
    k: usize,
    out: &mut Matrix,
    threads: usize,
    upper_only: bool,
    a: ASource<'_>,
    pack_b: Pack<'_>,
) {
    dispatch_width(
        m,
        n,
        k,
        out,
        threads,
        upper_only,
        Schedule::Blocked,
        a,
        pack_b,
    );
}

/// `out[m×n] += Aᵒᵖ[m×k] · Bᵒᵖ[k×n]` under the [`Schedule::Sequential`]
/// reduction: every output element is the left fold `((c + a₀b₀) + a₁b₁) + …`
/// over the whole of `k`, whatever the thread count or tile width. The entry
/// point for callers that must reproduce a scalar loop's bits (the MTTKRP
/// kernels).
pub(crate) fn gemm_sequential(
    m: usize,
    n: usize,
    k: usize,
    out: &mut Matrix,
    threads: usize,
    a: ASource<'_>,
    pack_b: Pack<'_>,
) {
    dispatch_width(
        m,
        n,
        k,
        out,
        threads,
        false,
        Schedule::Sequential,
        a,
        pack_b,
    );
}

/// Skinny-tile dispatch: when the whole output fits in half the widest tile,
/// instantiate NR/2-wide tiles instead of padding. Never affects bits — each
/// element's reduction order is a function of k alone.
#[allow(clippy::too_many_arguments)]
fn dispatch_width(
    m: usize,
    n: usize,
    k: usize,
    out: &mut Matrix,
    threads: usize,
    upper_only: bool,
    schedule: Schedule,
    a: ASource<'_>,
    pack_b: Pack<'_>,
) {
    debug_assert_eq!(out.shape(), (m, n));
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let out = out.as_mut_slice();
    if n <= NR_SKINNY {
        gemm_driver::<NR_SKINNY>(m, n, k, out, threads, upper_only, schedule, a, pack_b);
    } else {
        gemm_driver::<NR>(m, n, k, out, threads, upper_only, schedule, a, pack_b);
    }
}

/// One tile-width instantiation of the driver. The reduction loop is the
/// outermost: k-blocks are grouped into arena-budget super-blocks, each
/// super-block's B panels are packed once into the shared arena (fanned out over
/// the worker threads), then the row bands consume it in parallel, walking the
/// super-block's k-blocks in ascending order.
#[allow(clippy::too_many_arguments)]
fn gemm_driver<const NRV: usize>(
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f64],
    threads: usize,
    upper_only: bool,
    schedule: Schedule,
    a: ASource<'_>,
    pack_b: Pack<'_>,
) {
    // Whole MR-blocks per thread band (a couple per thread for load balance); the
    // band boundary never splits a micro-tile, so each band is an independent
    // sub-problem of the same schedule.
    let mr_blocks = m.div_ceil(MR);
    let blocks_per_band = mr_blocks.div_ceil(threads.max(1) * 2).max(1);
    let band_rows = blocks_per_band * MR;
    let n_bands = m.div_ceil(band_rows);
    let n_panels = n.div_ceil(NRV);
    let kc_max = KC.min(k);
    let total_blocks = k.div_ceil(KC);

    // Packed A reuse only pays off when several panels re-read each micro-panel;
    // single-panel outputs stream a lane-fastest operand in place instead.
    let a = match a {
        ASource::Strided { pack, .. } if n_panels > 1 => ASource::Packed(pack),
        src => src,
    };

    // Arena geometry: every k-block slot is stride-allocated at full KC depth so
    // panel offsets are uniform; the last (shorter) block just leaves its tail
    // unread.
    let block_stride = n_panels * NRV * kc_max;
    let sb_blocks = (B_ARENA_BUDGET / (block_stride * std::mem::size_of::<f64>()).max(1))
        .clamp(1, total_blocks);
    let mut bp = vec![0.0; sb_blocks * block_stride];

    let mut b0 = 0;
    while b0 < total_blocks {
        let nb = sb_blocks.min(total_blocks - b0);
        let sb_p0 = b0 * KC;
        // Pack every B panel of this super-block exactly once, splitting the
        // panels over the same worker budget the bands get.
        let fill = &mut bp[..nb * block_stride];
        parallel::for_each_chunk_mut(fill, NRV * kc_max, threads, |c, panel| {
            let (bi, jp) = (c / n_panels, c % n_panels);
            let p0 = sb_p0 + bi * KC;
            let kc = KC.min(k - p0);
            let j0 = jp * NRV;
            pack_b(&mut panel[..NRV * kc], j0, NRV.min(n - j0), p0, kc);
        });
        if n_bands > 1 {
            // Every band beyond the first consumes panels it did not pack.
            SHARED_PACK_HITS.fetch_add((nb * n_panels * (n_bands - 1)) as u64, Ordering::Relaxed);
        }
        let arena: &[f64] = &bp[..nb * block_stride];
        parallel::for_each_chunk_mut(out, band_rows * n, threads, |band, chunk| {
            let mut ap = vec![0.0; MC * kc_max];
            for bi in 0..nb {
                let p0 = sb_p0 + bi * KC;
                let kc = KC.min(k - p0);
                band_kblock::<NRV>(
                    schedule,
                    band * band_rows,
                    chunk,
                    n,
                    p0,
                    kc,
                    upper_only,
                    a,
                    &arena[bi * block_stride..(bi + 1) * block_stride],
                    &mut ap,
                );
            }
        });
        b0 += nb;
    }
}

/// One thread band's share of one k-block: rows `band_i0..band_i0 + c.len() / n`
/// against the shared packed B arena (`bp`, panel `jp` at offset
/// `jp * NRV * KC.min(k)`). Dispatches once to the widest SIMD build of the loop
/// the host supports; every build runs the identical accumulation schedule
/// (vector lanes are independent output elements), so the dispatch never affects
/// a single bit.
#[allow(clippy::too_many_arguments)]
fn band_kblock<const NRV: usize>(
    schedule: Schedule,
    band_i0: usize,
    c: &mut [f64],
    n: usize,
    p0: usize,
    kc: usize,
    upper_only: bool,
    a: ASource<'_>,
    bp: &[f64],
    ap: &mut [f64],
) {
    let seq = schedule == Schedule::Sequential;
    #[cfg(target_arch = "x86_64")]
    {
        static HAS_AVX512: OnceLock<bool> = OnceLock::new();
        static HAS_AVX2: OnceLock<bool> = OnceLock::new();
        if *HAS_AVX512.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f")) {
            // SAFETY: AVX-512F support was verified at runtime just above.
            unsafe {
                band_kblock_avx512::<NRV>(band_i0, c, n, p0, kc, upper_only, seq, a, bp, ap);
            }
            return;
        }
        if *HAS_AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2")) {
            // SAFETY: AVX2 support was verified at runtime just above.
            unsafe {
                band_kblock_avx2::<NRV>(band_i0, c, n, p0, kc, upper_only, seq, a, bp, ap);
            }
            return;
        }
    }
    // Hosts without AVX2 run the scalar build.
    band_kblock_impl::<NRV>(band_i0, c, n, p0, kc, upper_only, seq, a, bp, ap);
}

/// The band loop recompiled with 256-bit vectors enabled: the `inline(always)`
/// body below (microkernels included) picks up the target feature, so the `NRV`
/// lanes become ymm arithmetic. Multiply and add stay separate, so the results
/// are bit-identical to the scalar build.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn band_kblock_avx2<const NRV: usize>(
    band_i0: usize,
    c: &mut [f64],
    n: usize,
    p0: usize,
    kc: usize,
    upper_only: bool,
    sequential: bool,
    a: ASource<'_>,
    bp: &[f64],
    ap: &mut [f64],
) {
    band_kblock_impl::<NRV>(band_i0, c, n, p0, kc, upper_only, sequential, a, bp, ap);
}

/// The band loop recompiled with 512-bit vectors enabled: an `NR = 8` f64 tile
/// row becomes one zmm register, so a reduction step issues half the multiply and
/// add instructions of the ymm build. Multiply and add stay separate, so the
/// results are bit-identical to the scalar and AVX2 builds.
///
/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn band_kblock_avx512<const NRV: usize>(
    band_i0: usize,
    c: &mut [f64],
    n: usize,
    p0: usize,
    kc: usize,
    upper_only: bool,
    sequential: bool,
    a: ASource<'_>,
    bp: &[f64],
    ap: &mut [f64],
) {
    band_kblock_impl::<NRV>(band_i0, c, n, p0, kc, upper_only, sequential, a, bp, ap);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn band_kblock_impl<const NRV: usize>(
    band_i0: usize,
    c: &mut [f64],
    n: usize,
    p0: usize,
    kc: usize,
    upper_only: bool,
    sequential: bool,
    a: ASource<'_>,
    bp: &[f64],
    ap: &mut [f64],
) {
    let band_m = c.len() / n;
    let n_panels = n.div_ceil(NRV);
    // Panels sit at a fixed kc_max stride in the arena slot even when this
    // (trailing) k-block is shorter; only the first NRV*kc values of each are
    // live.
    let panel_stride = bp.len() / n_panels;
    let mut i0 = 0;
    while i0 < band_m {
        let mc = MC.min(band_m - i0);
        let a_blocks = mc.div_ceil(MR);
        match a {
            ASource::Packed(pack_a) => {
                for ib in 0..a_blocks {
                    let i = i0 + ib * MR;
                    pack_a(
                        &mut ap[ib * MR * kc..(ib + 1) * MR * kc],
                        band_i0 + i,
                        MR.min(mc - ib * MR),
                        p0,
                        kc,
                    );
                }
            }
            ASource::Strided { pack, .. } => {
                // Full tiles stream straight from the source; only a trailing
                // edge tile (fewer than MR valid lanes) needs the zero-padded
                // packed form.
                let last = a_blocks - 1;
                let mv = mc - last * MR;
                if mv < MR {
                    pack(
                        &mut ap[last * MR * kc..(last + 1) * MR * kc],
                        band_i0 + i0 + last * MR,
                        mv,
                        p0,
                        kc,
                    );
                }
            }
        }
        for jp in 0..n_panels {
            let j0 = jp * NRV;
            let nv = NRV.min(n - j0);
            let bp_panel = &bp[jp * panel_stride..jp * panel_stride + NRV * kc];
            for ib in 0..a_blocks {
                let row0 = i0 + ib * MR;
                // Tiles whose every column lies strictly below the diagonal
                // contribute nothing to the upper triangle; the caller's mirror
                // pass fills those entries.
                if upper_only && j0 + nv <= band_i0 + row0 {
                    continue;
                }
                let mv = MR.min(mc - ib * MR);
                for ii in 0..mv {
                    let base = (row0 + ii) * n + j0;
                    prefetch(&c[base..base + nv]);
                }
                let mut acc = [[0.0; NRV]; MR];
                if sequential {
                    // Carry each element's running sum in from C, so the tile
                    // continues the fold where the previous k-block left it.
                    for (ii, acc_row) in acc.iter_mut().enumerate().take(mv) {
                        let base = (row0 + ii) * n + j0;
                        acc_row[..nv].copy_from_slice(&c[base..base + nv]);
                    }
                }
                match a {
                    ASource::Strided { data, stride, .. } if mv == MR => {
                        let first = band_i0 + row0;
                        microkernel_strided::<NRV>(
                            kc,
                            &data[p0 * stride + first..],
                            stride,
                            bp_panel,
                            &mut acc,
                        );
                    }
                    _ => microkernel::<NRV>(
                        kc,
                        &ap[ib * MR * kc..(ib + 1) * MR * kc],
                        bp_panel,
                        &mut acc,
                    ),
                }
                for (ii, acc_row) in acc.iter().enumerate().take(mv) {
                    let base = (row0 + ii) * n + j0;
                    let row = &mut c[base..base + nv];
                    if sequential {
                        row.copy_from_slice(&acc_row[..nv]);
                    } else {
                        for (o, v) in row.iter_mut().zip(acc_row[..nv].iter()) {
                            *o += *v;
                        }
                    }
                }
            }
        }
        i0 += mc;
    }
}

/// Ask the cache to fetch the first and last line of `row` — the output
/// segment a tile adds its sums onto once its reduction finishes. Issued before
/// the tile's microkernel runs, the loads overlap its arithmetic; shallow
/// reductions (the 64-sample tensor-build blocks) otherwise stall on every
/// tile's read-modify-write of an output larger than the cache. A hint only:
/// it changes no value.
#[inline(always)]
fn prefetch(row: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    for e in [row.first(), row.last()].into_iter().flatten() {
        // SAFETY: `_mm_prefetch` never faults and reads nothing the program can
        // observe; the pointer comes from a live reference.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                (e as *const f64).cast(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// Pack lanes of `A` itself (`lane i`, `step p` → `a[i][p]`): the `C = A·B` and
/// `C = A·Bᵀ` left operand.
pub(crate) fn pack_rows<'a>(
    a: impl Into<MatrixView<'a>>,
) -> impl Fn(&mut [f64], usize, usize, usize, usize) + Sync + 'a {
    let a = a.into();
    move |dst, i0, valid, p0, kc| {
        if valid < MR {
            dst.fill(0.0);
        }
        for ii in 0..valid {
            let row = &a.row(i0 + ii)[p0..p0 + kc];
            for (p, &v) in row.iter().enumerate() {
                dst[p * MR + ii] = v;
            }
        }
    }
}

/// Pack lanes of `Aᵀ` (`lane i`, `step p` → `a[p][i]`): the `C = Aᵀ·B` left
/// operand. Reads stream along the rows of `a`.
pub(crate) fn pack_cols<'a>(
    a: impl Into<MatrixView<'a>>,
) -> impl Fn(&mut [f64], usize, usize, usize, usize) + Sync + 'a {
    let a = a.into();
    move |dst, i0, valid, p0, kc| {
        if valid < MR {
            dst.fill(0.0);
        }
        for p in 0..kc {
            let seg = &a.row(p0 + p)[i0..i0 + valid];
            let lane = &mut dst[p * MR..p * MR + valid];
            lane.copy_from_slice(seg);
        }
    }
}

/// Pack lanes of a Khatri–Rao operand whose reduction steps are the sample
/// columns `s0..` of `factors` (`d_q × N` each): lane `e = i_1 + d_1·(i_2 + d_2·(…))`
/// at step `p` is `f_1[i_1][s0 + p] · f_2[i_2][s0 + p] · …`, multiplied left to
/// right so every entry has the bits of the materialized Khatri–Rao row. An empty
/// factor list is the single all-ones lane. The `C = Kᵀ·B` left operand of
/// [`Matrix::khatri_rao_t_matmul_acc`]; the Khatri–Rao matrix itself never exists.
pub(crate) fn pack_khatri_rao(
    factors: &[Matrix],
    s0: usize,
) -> impl Fn(&mut [f64], usize, usize, usize, usize) + Sync + '_ {
    move |dst, i0, valid, p0, kc| {
        if valid < MR {
            dst.fill(0.0);
        }
        let steps = s0 + p0..s0 + p0 + kc;
        for lane in 0..valid {
            let Some((first, others)) = factors.split_first() else {
                for p in 0..kc {
                    dst[p * MR + lane] = 1.0;
                }
                continue;
            };
            let mut e = i0 + lane;
            let row = &first.row(e % first.rows())[steps.clone()];
            e /= first.rows();
            for (p, &v) in row.iter().enumerate() {
                dst[p * MR + lane] = v;
            }
            for f in others {
                let row = &f.row(e % f.rows())[steps.clone()];
                e /= f.rows();
                for (p, &v) in row.iter().enumerate() {
                    dst[p * MR + lane] *= v;
                }
            }
        }
    }
}

/// Pack row panels of `B` (`step p`, `lane j` → `b[p][j]`): the `C = A·B` and
/// `C = Aᵀ·B` right operand. Copies are contiguous row segments. The lane width
/// comes from the destination slice, so the same packer serves the wide and
/// skinny tile instantiations.
pub(crate) fn pack_panel_rows(
    b: &Matrix,
) -> impl Fn(&mut [f64], usize, usize, usize, usize) + Sync + '_ {
    move |dst, j0, valid, p0, kc| {
        let w = dst.len() / kc;
        if valid < w {
            dst.fill(0.0);
        }
        for p in 0..kc {
            let seg = &b.row(p0 + p)[j0..j0 + valid];
            dst[p * w..p * w + valid].copy_from_slice(seg);
        }
    }
}

/// Pack row panels of a Khatri–Rao operand whose reduction steps are its rows:
/// step `f = i_1 + d_1·(i_2 + d_2·(…))`, lane `j` is `f_1[i_1][j] · f_2[i_2][j] · …`,
/// multiplied left to right (the CP-ALS weight of storage fibre `f`). The
/// `C = Aᵀ·K` right operand of
/// [`MatrixView::t_matmul_khatri_rao_sequential`](crate::MatrixView::t_matmul_khatri_rao_sequential);
/// lane width from the destination. `factors` must be non-empty.
pub(crate) fn pack_panel_khatri_rao<'a>(
    factors: &'a [&'a Matrix],
) -> impl Fn(&mut [f64], usize, usize, usize, usize) + Sync + 'a {
    move |dst, j0, valid, p0, kc| {
        let w = dst.len() / kc;
        if valid < w {
            dst.fill(0.0);
        }
        let (first, others) = factors.split_first().expect("at least one factor");
        // Multi-index of step p0, then advanced odometer-style per step.
        let mut idx: Vec<usize> = factors
            .iter()
            .scan(p0, |rest, f| {
                let i = *rest % f.rows();
                *rest /= f.rows();
                Some(i)
            })
            .collect();
        for lane in dst.chunks_exact_mut(w).take(kc) {
            let lane = &mut lane[..valid];
            lane.copy_from_slice(&first.row(idx[0])[j0..j0 + valid]);
            for (f, &i) in others.iter().zip(&idx[1..]) {
                for (v, &x) in lane.iter_mut().zip(&f.row(i)[j0..j0 + valid]) {
                    *v *= x;
                }
            }
            for (i, f) in idx.iter_mut().zip(factors) {
                *i += 1;
                if *i < f.rows() {
                    break;
                }
                *i = 0;
            }
        }
    }
}

/// Pack panels of `Bᵀ` (`step p`, `lane j` → `b[j][p]`): the `C = A·Bᵀ` right
/// operand. Reads stream along the rows of `b`; lane width from the destination.
pub(crate) fn pack_panel_cols(
    b: &Matrix,
) -> impl Fn(&mut [f64], usize, usize, usize, usize) + Sync + '_ {
    move |dst, j0, valid, p0, kc| {
        let w = dst.len() / kc;
        if valid < w {
            dst.fill(0.0);
        }
        for jj in 0..valid {
            let row = &b.row(j0 + jj)[p0..p0 + kc];
            for (p, &v) in row.iter().enumerate() {
                dst[p * w + jj] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize, seed: f64) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| ((i as f64) * 0.37 + seed).sin())
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.row(i)[p] * b.row(p)[j];
                }
                out.row_mut(i)[j] = acc;
            }
        }
        out
    }

    fn run(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(m, n);
        gemm(
            m,
            n,
            k,
            &mut out,
            threads,
            false,
            &pack_rows(a),
            &pack_panel_rows(b),
        );
        out
    }

    /// `aᵀ·b` through the strided direct-A path (the `t_matmul` layout).
    fn run_t_strided(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
        let (m, k, n) = (a.cols(), a.rows(), b.cols());
        let mut out = Matrix::zeros(m, n);
        gemm_a(
            m,
            n,
            k,
            &mut out,
            threads,
            false,
            ASource::Strided {
                data: a.as_slice(),
                stride: a.cols(),
                pack: &pack_cols(a),
            },
            &pack_panel_rows(b),
        );
        out
    }

    #[test]
    fn skinny_tile_dispatch_is_bit_identical_to_wide() {
        // n <= NR/2 takes the skinny driver; padding the same operand out to a
        // wide shape and slicing back must give the exact same bits, because the
        // per-element reduction order is independent of the tile width.
        let a = sample(3 * MR + 2, KC + 3, 0.1);
        let b_narrow = sample(KC + 3, NR_SKINNY, 0.2);
        let narrow = run(&a, &b_narrow, 2);
        // Same columns through the wide tile: append extra columns, then compare
        // only the original ones.
        let mut wide_data = Vec::new();
        for p in 0..b_narrow.rows() {
            wide_data.extend_from_slice(b_narrow.row(p));
            for j in 0..NR {
                wide_data.push(((p * NR + j) as f64).cos());
            }
        }
        let b_wide = Matrix::from_vec(b_narrow.rows(), NR_SKINNY + NR, wide_data).unwrap();
        let wide = run(&a, &b_wide, 2);
        for i in 0..narrow.rows() {
            assert_eq!(
                narrow.row(i),
                &wide.row(i)[..NR_SKINNY],
                "row {i} differs between tile widths"
            );
        }
        // Within a single k-block the blocked schedule degenerates to the naive
        // ascending loop, so the engine matches the triple loop bit for bit.
        let a1 = sample(3 * MR + 2, KC - 5, 0.1);
        let b1 = sample(KC - 5, NR_SKINNY, 0.2);
        assert_eq!(run(&a1, &b1, 2), naive(&a1, &b1));
    }

    #[test]
    fn dispatched_simd_build_matches_the_scalar_triple_loop() {
        // Within one k-block each element is a plain ascending sum, so whichever
        // SIMD build the host dispatches to (scalar, AVX2, AVX-512F) must
        // reproduce the naive loop bit for bit, wide and skinny tiles alike.
        for n in [2 * NR + 3, NR, NR_SKINNY - 1] {
            let a = sample(2 * MC + 5, KC - 3, 0.6);
            let b = sample(KC - 3, n, 0.9);
            assert_eq!(run(&a, &b, 2), naive(&a, &b), "n = {n}");
        }
    }

    #[test]
    fn strided_direct_a_is_bit_identical_to_packed() {
        // Shapes straddling the MR/skinny edges, plus a k spanning two k-blocks.
        for (k, m, n) in [
            (64, 4 * MR, NR_SKINNY),
            (KC + 9, 3 * MR + 2, NR_SKINNY - 1),
            (33, 2 * MC + 1, 2),
        ] {
            let a = sample(k, m, 0.4); // k×m: the t_matmul left operand
            let b = sample(k, n, 0.8);
            let direct = run_t_strided(&a, &b, 2);
            // Packed reference through the same packer the fallback uses.
            let mut packed = Matrix::zeros(m, n);
            gemm(
                m,
                n,
                k,
                &mut packed,
                2,
                false,
                &pack_cols(&a),
                &pack_panel_rows(&b),
            );
            assert_eq!(direct, packed, "direct vs packed at {k}x{m}x{n}");
        }
    }

    #[test]
    fn shared_pack_hits_advance_with_multiple_bands() {
        let before = shared_pack_hits();
        let a = sample(8 * MR * 4, 64, 0.5);
        let b = sample(64, 2 * NR, 0.9);
        let multi = run(&a, &b, 4);
        assert!(
            shared_pack_hits() > before,
            "multi-band run must reuse shared panels"
        );
        // And sharing the arena never changes bits vs a single band.
        assert_eq!(multi, run(&a, &b, 1));
    }

    #[test]
    fn sequential_schedule_is_the_left_fold_for_any_depth_width_and_thread_count() {
        // m is not a multiple of MR and spans several bands and MC blocks; k runs
        // from one step to several k-blocks; n covers the skinny and wide tiles.
        let m = 2 * MC + 3;
        for k in [1, KC - 1, KC, KC + 1, 3 * KC + 5] {
            let a = sample(m, k, 0.3);
            let at = a.transpose();
            for n in [1, 4, 8, 20] {
                let b = sample(k, n, 0.7);
                let c0 = sample(m, n, 0.1);
                let mut want = c0.clone();
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = c0[(i, j)];
                        for p in 0..k {
                            acc += a[(i, p)] * b[(p, j)];
                        }
                        want[(i, j)] = acc;
                    }
                }
                for threads in [1, 4] {
                    let mut packed = c0.clone();
                    gemm_sequential(
                        m,
                        n,
                        k,
                        &mut packed,
                        threads,
                        ASource::Packed(&pack_rows(&a)),
                        &pack_panel_rows(&b),
                    );
                    let mut strided = c0.clone();
                    gemm_sequential(
                        m,
                        n,
                        k,
                        &mut strided,
                        threads,
                        ASource::Strided {
                            data: at.as_slice(),
                            stride: m,
                            pack: &pack_cols(&at),
                        },
                        &pack_panel_rows(&b),
                    );
                    for (path, got) in [("packed", &packed), ("strided", &strided)] {
                        for (e, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "{path} k={k} n={n} threads={threads} entry {e}"
                            );
                        }
                    }
                }
            }
        }
    }
}
