//! Machine-readable kernel timings *and determinism checksums* for the perf
//! trajectory and the CI `perf-determinism` harness.
//!
//! ```text
//! cargo run --release -p tcca-bench --bin kernel_bench [-- --samples N] [--out FILE] [--whiten]
//! cargo run --release -p tcca-bench --bin kernel_bench -- --checksums [--out FILE]
//! ```
//!
//! The default mode times the hot kernels of the TCCA pipeline — MTTKRP, the dense
//! matrix products (including a tile-sweep straddling the blocked GEMM's
//! `MR`/`KC`/`MC` boundaries, the skinny serving-projection shapes, and a large
//! square product sized for peak-throughput comparison), the covariance /
//! whitened-covariance tensor build, the symmetric eigensolver at the fit-path
//! view widths, and the three decomposition solvers — and emits one JSON object
//! per run. GEMM-shaped entries carry a `gflops` field computed from the fastest
//! sample:
//!
//! ```json
//! {"schema": "tcca-kernel-bench/v2", "threads": 1, "mode": "strict", "kernels": [
//!    {"name": "matmul/512x512x512", "mean_ns": 123, "min_ns": 100, "samples": 10,
//!     "gflops": 12.3}, …
//! ]}
//! ```
//!
//! `--whiten` appends the whitening-fit comparison — exact `(C + εI)^{-1/2}` at
//! `d = 512` against the randomized range-finder at `d ∈ {512, 8192, 100000}` —
//! which takes a few extra seconds, so it is opt-in. The `"mode"` field is always
//! `"strict"` (the engine's only arithmetic); it stays in the schema so the
//! committed checksum baseline keeps its bytes.
//!
//! `--checksums` instead runs every kernel **once** on fixed seeded inputs at sizes
//! large enough to engage multithreading, and emits an FNV-1a hash of each output's
//! exact f64 bit patterns — deliberately *excluding* the thread count, timings or
//! anything else machine-dependent from the JSON:
//!
//! ```json
//! {"schema": "tcca-kernel-checksums/v2", "mode": "strict", "kernels": [
//!    {"name": "matmul/131x163x127", "checksum": "a1b2c3…"}, …
//! ]}
//! ```
//!
//! CI runs the checksum mode under `TCCA_NUM_THREADS=1` and `=4` and diffs each
//! file byte for byte against the committed baseline
//! (`ci/kernel-checksums-strict.json`): any divergence means a kernel's
//! accumulation schedule leaked a thread-count dependence or its bits changed.
//! Timings are logged as artifacts, never asserted — shared runners lie about
//! speed, but bits are bits.

use datasets::GaussianRng;
use linalg::{gemm, ColsView, Matrix, SymmetricEigen};
use std::fmt::Write as _;
use std::time::Instant;
use tcca::{covariance_tensor, whitened_covariance_tensor};
use tensor::{CpAls, DenseTensor, Hopm, RankRDecomposition, TensorPowerMethod};

struct Record {
    name: String,
    mean_ns: u128,
    min_ns: u128,
    samples: usize,
    /// Floating-point operations one invocation performs (`2·m·k·n` for a GEMM);
    /// 0 for kernels without a clean flop count. Non-zero counts turn into a
    /// `gflops` field computed from the *fastest* sample — the least
    /// noise-contaminated estimate a shared machine gives.
    flops: u128,
}

fn time<F: FnMut()>(name: &str, samples: usize, f: F) -> Record {
    time_flops(name, samples, 0, f)
}

fn time_flops<F: FnMut()>(name: &str, samples: usize, flops: u128, mut f: F) -> Record {
    // One warm-up run keeps first-touch page faults out of the measurement.
    f();
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_nanos());
    }
    Record {
        name: name.to_string(),
        mean_ns: times.iter().sum::<u128>() / times.len().max(1) as u128,
        min_ns: times.iter().min().copied().unwrap_or(0),
        samples,
        flops,
    }
}

fn random_tensor(shape: &[usize], seed: u64) -> DenseTensor {
    let mut rng = GaussianRng::new(seed);
    let len: usize = shape.iter().product();
    let data: Vec<f64> = (0..len).map(|_| rng.standard_normal()).collect();
    DenseTensor::from_vec(shape, data).expect("shape matches data")
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = GaussianRng::new(seed);
    let data: Vec<f64> = (0..rows * cols).map(|_| rng.standard_normal()).collect();
    Matrix::from_vec(rows, cols, data).expect("shape matches data")
}

/// The regularized covariance `XXᵀ/400 + 10⁻²·I` of a seeded `d × 400` sample,
/// shaped like one whitening input.
fn spd_covariance(d: usize, seed: u64) -> Matrix {
    let x = random_matrix(d, 400, seed);
    let mut cov = x.syrk().scale(1.0 / 400.0);
    cov.add_diagonal(1e-2);
    cov
}

fn random_views(dims: &[usize], n: usize, seed: u64) -> Vec<Matrix> {
    dims.iter()
        .enumerate()
        .map(|(p, &d)| random_matrix(d, n, seed + p as u64))
        .collect()
}

/// FNV-1a over the exact bit patterns of a slice of f64 values.
fn checksum(data: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The determinism suite: every blocked kernel once, on seeded inputs at sizes that
/// straddle the GEMM tile boundaries *and* clear the multithreading threshold (so a
/// `TCCA_NUM_THREADS=4` run really does partition the work differently from `=1`).
/// Returns `(name, checksum-of-output-bits)` pairs in a fixed order.
fn checksum_suite() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    let mut push = |name: String, data: &[f64]| out.push((name, checksum(data)));

    // General products at mutually-prime sizes straddling MR/NR/KC multiples.
    let (m, k, n) = (2 * gemm::MC + 3, gemm::KC + 7, 16 * gemm::NR - 1);
    let a = random_matrix(m, k, 11);
    let b = random_matrix(k, n, 12);
    push(
        format!("matmul/{m}x{k}x{n}"),
        a.matmul(&b).unwrap().as_slice(),
    );
    let at = random_matrix(k, m, 13);
    push(
        format!("t_matmul/{m}x{k}x{n}"),
        at.t_matmul(&b).unwrap().as_slice(),
    );
    let bt = random_matrix(n, k, 14);
    push(
        format!("matmul_t/{m}x{k}x{n}"),
        a.matmul_t(&bt).unwrap().as_slice(),
    );
    let mut acc = Matrix::filled(m, n, 0.25);
    at.t_matmul_acc(&b, &mut acc).unwrap();
    push(format!("t_matmul_acc/{m}x{k}x{n}"), acc.as_slice());

    // The skinny serving-projection dispatch (`n ≤ NR/2` instantiates the
    // narrow-tile kernel and the direct-A strided path): its bits must match
    // the wide instantiation, so it gets its own checksum entry.
    let skinny = random_matrix(k, gemm::NR / 2, 31);
    push(
        format!("t_matmul_skinny/{m}x{k}x{}", gemm::NR / 2),
        at.t_matmul(&skinny).unwrap().as_slice(),
    );

    // Symmetric rank-k (upper triangle + mirror) at a non-multiple size.
    let s = random_matrix(gemm::KC / 2 + 5, 2 * gemm::MC + 1, 15);
    push(
        format!("syrk/{}x{}", s.rows(), s.cols()),
        s.syrk().as_slice(),
    );
    push(
        format!("syrk_t/{}x{}", s.rows(), s.cols()),
        s.syrk_t().as_slice(),
    );

    // The zero-copy serving projection: column blocks of uneven widths, with a
    // centering shift applied during packing.
    let wide = random_matrix(131, 1024, 16);
    let parts: Vec<Matrix> = {
        let widths = [3usize, 64, 1, 421, 535];
        let mut start = 0;
        widths
            .iter()
            .map(|&w| {
                let cols: Vec<usize> = (start..start + w).collect();
                start += w;
                wide.select_columns(&cols)
            })
            .collect()
    };
    let cols_view = ColsView::from_matrices(parts.iter()).unwrap();
    let proj = random_matrix(131, 8, 17);
    let shift: Vec<f64> = (0..131).map(|i| (i as f64) * 0.01 - 0.5).collect();
    push(
        "cols_shifted_t_matmul/131x1024x8".to_string(),
        cols_view
            .shifted_t_matmul(Some(&shift), &proj)
            .unwrap()
            .as_slice(),
    );

    // Fused tensor kernels.
    let t = random_tensor(&[32, 32, 32], 18);
    let factors: Vec<Matrix> = (0..3)
        .map(|p| random_matrix(32, 8, 19 + p as u64))
        .collect();
    let refs: Vec<&Matrix> = factors.iter().collect();
    for mode in 0..3 {
        push(
            format!("mttkrp/32x32x32/r8/mode{mode}"),
            t.mttkrp(mode, &refs).unwrap().as_slice(),
        );
    }
    // MTTKRP through the GEMM engine: d₀ and the 480 fibres both exceed one
    // k-block, and r is not a multiple of the tile width.
    let t_deep = random_tensor(&[300, 24, 20], 25);
    let factors_deep: Vec<Matrix> = [300, 24, 20]
        .iter()
        .enumerate()
        .map(|(p, &d)| random_matrix(d, 20, 26 + p as u64))
        .collect();
    let refs_deep: Vec<&Matrix> = factors_deep.iter().collect();
    for mode in 0..3 {
        push(
            format!("mttkrp/300x24x20/r20/mode{mode}"),
            t_deep.mttkrp(mode, &refs_deep).unwrap().as_slice(),
        );
    }
    // A full CP-ALS run (HOSVD init and every sweep), which pins the mode-0
    // partial product that the later modes of a sweep share.
    let t_cp = random_tensor(&[24, 20, 18], 29);
    let (cp, sweeps, rel_err) = CpAls::default().decompose_detailed(&t_cp, 5).unwrap();
    let mut cp_bits = cp.weights.clone();
    for f in &cp.factors {
        cp_bits.extend_from_slice(f.as_slice());
    }
    cp_bits.extend([sweeps as f64, rel_err]);
    push("cp_als/24x20x18/r5".to_string(), &cp_bits);
    let u = random_matrix(16, 32, 22);
    push(
        "mode_product/32x32x32/mode1".to_string(),
        t.mode_product(1, &u).unwrap().as_slice(),
    );
    for mode in 0..3 {
        push(
            format!("mode_gram/32x32x32/mode{mode}"),
            t.mode_gram(mode).unwrap().as_slice(),
        );
    }

    // Covariance tensor build (one Khatri–Rao-packed GEMM per 64-sample block).
    let views = random_views(&[24, 24, 20], 300, 23);
    push(
        "covariance_tensor/24x24x20/n300".to_string(),
        covariance_tensor(&views).unwrap().as_slice(),
    );

    // Randomized whitening end to end: sequential Gaussian sketch, blocked sketch
    // GEMMs, subspace iteration, thin QR and the small eigensolve. The CI harness
    // diffs this entry across `TCCA_NUM_THREADS=1` and `=4`, pinning the seeded
    // range-finder (and therefore every randomized-whitening fit) to one bit
    // pattern regardless of thread count.
    let view = random_matrix(600, 512, 24);
    let (centered, _) = linalg::center_rows(&view);
    let eig = linalg::randomized_covariance_eig(&centered, 32, 8, 2, 77).unwrap();
    let mut combined = eig.eigenvalues.clone();
    combined.extend_from_slice(eig.eigenvectors.as_slice());
    push("randomized_whiten/600x512/k32".to_string(), &combined);

    // Exact whitening at the ads view width: the symmetric eigensolver and the
    // spectral reconstruction.
    let cov = spd_covariance(147, 30);
    push(
        "inverse_sqrt_spd/147".to_string(),
        cov.inverse_sqrt_spd(1e-12).unwrap().as_slice(),
    );
    // The eigensolver's own output, so that a change of eigenvalue order or
    // eigenvector sign shows even where the spectral map would hide it.
    let eig = SymmetricEigen::new(&cov).unwrap();
    let mut eig_bits = eig.eigenvalues.clone();
    eig_bits.extend_from_slice(eig.eigenvectors.as_slice());
    push("symmetric_eigen/147".to_string(), &eig_bits);

    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut samples = 10usize;
    let mut out_path: Option<String> = None;
    let mut checksums = false;
    let mut whiten = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--samples" | "--out" => {
                i += 1;
                let value = args
                    .get(i)
                    .unwrap_or_else(|| panic!("{flag} requires a value"));
                match flag {
                    "--samples" => samples = value.parse().expect("--samples takes an integer"),
                    "--out" => out_path = Some(value.clone()),
                    _ => unreachable!(),
                }
            }
            "--checksums" => checksums = true,
            "--whiten" => whiten = true,
            other => panic!(
                "unknown argument {other}; use --samples N / --out FILE / --checksums / --whiten"
            ),
        }
        i += 1;
    }

    if checksums {
        let mut json = String::new();
        json.push_str("{\n  \"schema\": \"tcca-kernel-checksums/v2\",\n");
        json.push_str("  \"mode\": \"strict\",\n");
        json.push_str("  \"kernels\": [\n");
        let records = checksum_suite();
        for (i, (name, sum)) in records.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"name\": \"{name}\", \"checksum\": \"{sum:016x}\"}}"
            );
            json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ]\n}\n");
        match out_path {
            Some(path) => std::fs::write(&path, &json).expect("write --out file"),
            None => print!("{json}"),
        }
        return;
    }

    let mut records = Vec::new();

    // MTTKRP across modes and ranks (the CP-ALS inner kernel).
    for dim in [16usize, 32] {
        let t = random_tensor(&[dim, dim, dim], 1);
        for rank in [1usize, 8] {
            let factors: Vec<Matrix> = (0..3)
                .map(|p| random_matrix(dim, rank, 100 + p as u64))
                .collect();
            let refs: Vec<&Matrix> = factors.iter().collect();
            records.push(time(
                &format!("mttkrp/{dim}x{dim}x{dim}/r{rank}"),
                samples,
                || {
                    for mode in 0..3 {
                        std::hint::black_box(t.mttkrp(mode, &refs).unwrap());
                    }
                },
            ));
        }
    }

    // Dense products at covariance-build-like sizes.
    let a = random_matrix(200, 400, 2);
    let b = random_matrix(400, 200, 3);
    records.push(time_flops(
        "matmul/200x400x200",
        samples,
        2 * 200 * 400 * 200,
        || {
            std::hint::black_box(a.matmul(&b).unwrap());
        },
    ));
    records.push(time_flops(
        "t_matmul/400x200x200",
        samples,
        2 * 400 * 200 * 400,
        || {
            std::hint::black_box(a.t_matmul(&a).unwrap());
        },
    ));
    records.push(time("transpose/200x400", samples, || {
        std::hint::black_box(a.transpose());
    }));

    // A large square product sized for peak throughput, far enough from the
    // tile edges that the microkernel dominates over packing.
    let sq_a = random_matrix(512, 512, 26);
    let sq_b = random_matrix(512, 512, 27);
    records.push(time_flops(
        "matmul/512x512x512",
        samples,
        2 * 512 * 512 * 512,
        || {
            std::hint::black_box(sq_a.matmul(&sq_b).unwrap());
        },
    ));

    // Tile sweep: square-ish products one element below, at, and above the blocked
    // engine's MC/KC boundaries, so a packing or edge-tile regression shows up as a
    // step between adjacent entries rather than hiding in round sizes.
    for delta in [-1i64, 0, 1] {
        let m = (2 * gemm::MC as i64 + delta) as usize;
        let k = (gemm::KC as i64 + delta) as usize;
        let n = (16 * gemm::NR as i64 + delta) as usize;
        let ta = random_matrix(m, k, 40 + delta as u64);
        let tb = random_matrix(k, n, 43 + delta as u64);
        records.push(time_flops(
            &format!("matmul_tile/{m}x{k}x{n}"),
            samples,
            2 * (m * k * n) as u128,
            || {
                std::hint::black_box(ta.matmul(&tb).unwrap());
            },
        ));
    }
    // The serving-projection shape: many instances, few features, skinny output.
    // `n = 4 ≤ NR/2` takes the narrow-tile kernel plus the direct-A strided path.
    let inst = random_matrix(64, 4096, 7);
    let proj = random_matrix(64, 4, 8);
    records.push(time_flops(
        "t_matmul_proj/4096x64x4",
        samples,
        2 * 4096 * 64 * 4,
        || {
            std::hint::black_box(inst.t_matmul(&proj).unwrap());
        },
    ));

    // Self-products (the covariance / whitening symmetric rank-k path).
    records.push(time("gram/200x400", samples, || {
        std::hint::black_box(a.gram());
    }));
    records.push(time("gram_t/200x400", samples, || {
        std::hint::black_box(a.gram_t());
    }));
    let tall = random_matrix(2000, 100, 6);
    records.push(time("gram_t/2000x100", samples, || {
        std::hint::black_box(tall.gram_t());
    }));

    // Covariance / whitened-covariance tensor build (3 views, paper-scale dims).
    let views = random_views(&[40, 40, 30], 300, 4);
    records.push(time("covariance_tensor/40x40x30/n300", samples, || {
        std::hint::black_box(covariance_tensor(&views).unwrap());
    }));
    let centered: Vec<Matrix> = views.iter().map(|v| linalg::center_rows(v).0).collect();
    let whiteners: Vec<Matrix> = centered
        .iter()
        .map(|x| {
            let mut c = linalg::covariance(x);
            c.add_diagonal(1e-2);
            c.inverse_sqrt_spd(1e-12).unwrap()
        })
        .collect();
    records.push(time(
        "whitened_covariance_tensor/40x40x30/n300",
        samples,
        || {
            std::hint::black_box(whitened_covariance_tensor(&centered, &whiteners).unwrap());
        },
    ));

    if whiten {
        // Whitening-fit comparison: the dense exact path ((C + εI)^{-1/2} via a
        // d×d symmetric eigensolve) against the randomized range-finder at growing
        // view dimensions. Exact is O(d³) and only feasible at d = 512; the
        // randomized path never materializes the d×d covariance, so it scales to
        // the d ≈ 100k views the stage API targets. Sample counts shrink with d
        // to keep the largest entry in single-digit seconds.
        let n = 256;
        let (rank, oversample, power_iters) = (100usize, 8usize, 2usize);
        let exact_view = random_matrix(512, n, 50);
        let (exact_centered, _) = linalg::center_rows(&exact_view);
        records.push(time("whiten_exact/d512/n256", samples.min(3), || {
            let mut c = linalg::covariance(&exact_centered);
            c.add_diagonal(1e-2);
            std::hint::black_box(c.inverse_sqrt_spd(1e-12).unwrap());
        }));
        for d in [512usize, 8192, 100_000] {
            let view = random_matrix(d, n, 51 + d as u64);
            let (centered, _) = linalg::center_rows(&view);
            let s = if d > 4096 { samples.min(2) } else { samples };
            records.push(time(
                &format!("whiten_randomized/d{d}/n{n}/k{rank}"),
                s,
                || {
                    std::hint::black_box(
                        linalg::randomized_covariance_eig(
                            &centered,
                            rank.min(d).min(n),
                            oversample,
                            power_iters,
                            7,
                        )
                        .unwrap(),
                    );
                },
            ));
        }
    }

    // The dense symmetric eigensolver at the fit-path sizes: the SecStr view
    // width and the widest Ads view (each whitener and HOSVD mode Gram is one
    // such solve).
    for d in [105usize, 147] {
        let cov = spd_covariance(d, 60 + d as u64);
        records.push(time(&format!("symmetric_eigen/{d}"), samples, || {
            std::hint::black_box(SymmetricEigen::new(&cov).unwrap());
        }));
    }

    // Decomposition solvers end to end.
    let t = random_tensor(&[24, 24, 24], 5);
    records.push(time("cp_als/24x24x24/r8", samples, || {
        std::hint::black_box(CpAls::default().decompose(&t, 8).unwrap());
    }));
    records.push(time("hopm/24x24x24/r1", samples, || {
        std::hint::black_box(Hopm::default().decompose(&t, 1).unwrap());
    }));
    records.push(time("power/24x24x24/r1", samples, || {
        std::hint::black_box(TensorPowerMethod::default().decompose(&t, 1).unwrap());
    }));

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"tcca-kernel-bench/v2\",\n");
    let _ = writeln!(json, "  \"threads\": {},", parallel::max_threads());
    json.push_str("  \"mode\": \"strict\",\n");
    json.push_str("  \"kernels\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"mean_ns\": {}, \"min_ns\": {}, \"samples\": {}",
            r.name, r.mean_ns, r.min_ns, r.samples
        );
        if r.flops > 0 && r.min_ns > 0 {
            let gflops = r.flops as f64 / r.min_ns as f64;
            let _ = write!(json, ", \"gflops\": {gflops:.3}");
        }
        json.push('}');
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    match out_path {
        Some(path) => std::fs::write(&path, &json).expect("write --out file"),
        None => print!("{json}"),
    }
}
