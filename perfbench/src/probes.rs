//! Measurements shared by the workloads: the fit path split into its public
//! steps, the request path's codec and model calls, the store, and the
//! streaming refit path.

use crate::layers::Layers;
use crate::trace::Tracer;
use crate::util::{fingerprint, median, sub_seed, timed};
use linalg::{center_rows, covariance, Matrix};
use mvcore::{EstimatorRegistry, FitSpec, MultiViewModel};
use serve::wire::{Request, Response};
use serve::{
    BatchConfig, BatchEngine, ModelStore, TrainerConfig, TrainerService, TransformService,
};
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;
use stream::StreamingRegistry;
use tcca::{whitened_covariance_tensor, Tcca, TccaOptions};
use tensor::{CpAls, CpOptions};

/// One TCCA fit run step by step through the public calls `Tcca::fit` makes,
/// each step in its own span under `parent`.
pub struct StepFit {
    pub whiten_s: f64,
    pub build_s: f64,
    pub als_s: f64,
    pub backmap_s: f64,
    pub sweeps: usize,
    pub rel_error: f64,
    pub total_s: f64,
    pub model: Tcca,
}

pub fn fit_steps(tracer: &Tracer, views: &[Matrix], opts: &TccaOptions) -> StepFit {
    let ((whiten_s, build_s, als_s, backmap_s, sweeps, rel_error, model), total_s) =
        tracer.span("fit", None, None, |root| {
            let ((centered, means, whiteners), whiten_s) =
                tracer.span("linalg.whiten", root, None, |_| {
                    let mut centered = Vec::new();
                    let mut means = Vec::new();
                    let mut whiteners = Vec::new();
                    for v in views {
                        let (x, mean) = center_rows(v);
                        let mut c = covariance(&x);
                        c.add_diagonal(opts.epsilon);
                        whiteners.push(
                            c.inverse_sqrt_spd(1e-12)
                                .expect("regularized covariance is SPD"),
                        );
                        centered.push(x);
                        means.push(mean);
                    }
                    (centered, means, whiteners)
                });
            let (m, build_s) = tracer.span("tcca.tensor_build", root, None, |_| {
                whitened_covariance_tensor(&centered, &whiteners).expect("whitened tensor")
            });
            drop(centered);
            let ((cp, sweeps, rel_error), als_s) = tracer.span("tensor.als", root, None, |_| {
                CpAls::new(CpOptions {
                    max_iterations: opts.max_iterations,
                    tolerance: opts.tolerance,
                    seed: opts.seed,
                    hosvd_init: true,
                })
                .decompose_detailed(&m, opts.rank)
                .expect("CP-ALS")
            });
            let (projections, backmap_s) = tracer.span("tcca.backmap", root, None, |_| {
                whiteners
                    .iter()
                    .zip(&cp.factors)
                    .map(|(w, f)| w.matmul(f).expect("whitener and factor agree"))
                    .collect::<Vec<_>>()
            });
            let model = Tcca::from_parts(means, projections, cp.weights, opts.clone())
                .expect("step-fit parts agree");
            (
                whiten_s, build_s, als_s, backmap_s, sweeps, rel_error, model,
            )
        });
    StepFit {
        whiten_s,
        build_s,
        als_s,
        backmap_s,
        sweeps,
        rel_error,
        total_s,
        model,
    }
}

/// Fill the fit-path layer metrics from step fits (medians) against the
/// untraced registry fit time `fit_s`.
pub fn fit_layers(
    layers: &mut Layers,
    steps: &[StepFit],
    views: &[Matrix],
    max_sweeps: usize,
    fit_s: f64,
) {
    let med = |f: fn(&StepFit) -> f64| median(&steps.iter().map(f).collect::<Vec<_>>());
    let whiten = med(|s| s.whiten_s);
    let build = med(|s| s.build_s);
    let als = med(|s| s.als_s);
    let backmap = med(|s| s.backmap_s);
    let sweeps = med(|s| s.sweeps as f64);
    let n = views[0].cols() as f64;
    let cells: f64 = views.iter().map(|v| v.rows() as f64).product();
    layers.set("linalg.whiten_s", whiten);
    layers.set("tcca.tensor_build_s", build);
    layers.set("tcca.tensor_build_gflops", 2.0 * n * cells / 1e9);
    layers.set("tcca.tensor_bytes", 8.0 * cells);
    layers.set("tcca.backmap_s", backmap);
    layers.set("tensor.als_s", als);
    layers.set("tensor.als_sweeps", sweeps);
    layers.set("tensor.als_s_per_sweep", als / sweeps.max(1.0));
    layers.set("tensor.als_rel_error", med(|s| s.rel_error));
    layers.set(
        "tensor.als_converged",
        if sweeps < max_sweeps as f64 { 1.0 } else { 0.0 },
    );
    layers.set(
        "mvcore.fit_overhead_s",
        fit_s - (whiten + build + als + backmap),
    );
}

/// TCCA objective `Σ_k |mean_n Π_p z_{p,n}^{(k)}|` of an `N × (m·r)` embedding
/// made of `m` per-view blocks of `r` columns.
pub fn objective(z: &Matrix, m: usize) -> f64 {
    let r = z.cols() / m;
    let n = z.rows();
    (0..r)
        .map(|k| {
            let mean = (0..n)
                .map(|i| (0..m).map(|p| z[(i, p * r + k)]).product::<f64>())
                .sum::<f64>()
                / n as f64;
            mean.abs()
        })
        .sum()
}

/// Labeled draws averaged into `accuracy`, as the paper averages random splits.
const LABELED_DRAWS: u64 = 10;

/// RLS (γ = 1e-2) test accuracy of an `N × k` embedding: trained on 100
/// labeled rows drawn from `seed`, tested on the rest, averaged over
/// [`LABELED_DRAWS`] draws. Returns (mean accuracy, median seconds per RLS fit
/// and prediction).
pub fn rls_accuracy(z: &Matrix, labels: &[usize], n_classes: usize, seed: u64) -> (f64, f64) {
    let all: Vec<usize> = (0..z.rows()).collect();
    let pick = |idx: &[usize]| idx.iter().map(|&i| labels[i]).collect::<Vec<_>>();
    let mut accuracy = 0.0;
    let mut secs = Vec::new();
    for draw in 0..LABELED_DRAWS {
        let split = datasets::labeled_subset(&all, 100, sub_seed(seed, 100 + draw));
        let (a, s) = timed(|| {
            let clf = learners::RlsClassifier::fit(
                &z.select_rows(&split.first),
                &pick(&split.first),
                n_classes,
                1e-2,
            );
            learners::accuracy(
                &clf.predict(&z.select_rows(&split.second)),
                &pick(&split.second),
            )
        });
        accuracy += a / LABELED_DRAWS as f64;
        secs.push(s);
    }
    (accuracy, median(&secs))
}

/// Save `model` as `<dir>/<name>.mvm`.
pub fn save_model(dir: &Path, name: &str, model: &dyn MultiViewModel) {
    let path = dir.join(format!("{name}.{}", serve::MODEL_EXTENSION));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path).expect("create model file"));
    model.save(&mut w).expect("save model");
    std::io::Write::flush(&mut w).expect("flush model file");
}

/// Open a model directory as a store; returns the store and the open time.
pub fn open_store(dir: &Path) -> (Arc<ModelStore>, f64) {
    let (store, s) = timed(|| {
        ModelStore::open(EstimatorRegistry::with_builtin(), dir).expect("open model store")
    });
    (Arc::new(store), s)
}

/// Median `ModelStore::get` (loaded payload) and no-change `rescan` times.
pub fn store_layers(layers: &mut Layers, store: &ModelStore, name: &str, open_s: f64) {
    let _ = store.get(name).expect("stored model");
    let gets: Vec<f64> = (0..200)
        .map(|_| timed(|| store.get(name).expect("stored model")).1 * 1e6)
        .collect();
    let rescans: Vec<f64> = (0..5)
        .map(|_| timed(|| store.rescan().expect("rescan")).1 * 1e3)
        .collect();
    layers.set("store.open_s", open_s);
    layers.set("store.get_us", median(&gets));
    layers.set("store.rescan_ms", median(&rescans));
}

/// Request-path codec and model timings over a sample of requests: median
/// direct model call, median encode (request + reply) and decode (request +
/// reply), and frame sizes. Returns whether every frame decoded bit-identical.
pub fn request_layers(
    tracer: &Tracer,
    layers: &mut Layers,
    model: &dyn MultiViewModel,
    name: &str,
    sample: &[Arc<Vec<Matrix>>],
) -> bool {
    let mut transform_us = Vec::new();
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    let mut req_bytes = Vec::new();
    let mut reply_bytes = Vec::new();
    let mut exact = true;
    for (id, inputs) in sample.iter().enumerate() {
        let id = id as u64;
        let (z, t_model) = tracer.span("mvcore.transform", None, Some(id), |_| {
            model.transform(inputs).expect("transform")
        });
        let request = Request::Transform {
            model: name.to_string(),
            inputs: inputs.to_vec(),
        }
        .tagged(id);
        let (req_frame, t_req_enc) =
            tracer.span("wire.encode", None, Some(id), |_| request.encode());
        let (req_back, t_req_dec) = tracer.span("wire.decode", None, Some(id), |_| {
            Request::decode(&req_frame).expect("decode request")
        });
        let reply = Response::Embedding(z.clone()).tagged(id);
        let (reply_frame, t_rep_enc) =
            tracer.span("wire.encode", None, Some(id), |_| reply.encode());
        let (reply_back, t_rep_dec) = tracer.span("wire.decode", None, Some(id), |_| {
            Response::decode(&reply_frame).expect("decode reply")
        });
        exact &= req_back == request;
        exact &= matches!(&reply_back, Response::Tagged { inner, .. }
            if matches!(inner.as_ref(), Response::Embedding(back) if fingerprint(back) == fingerprint(&z)));
        transform_us.push(t_model * 1e6);
        encode_us.push((t_req_enc + t_rep_enc) * 1e6);
        decode_us.push((t_req_dec + t_rep_dec) * 1e6);
        req_bytes.push(req_frame.len() as f64 + 4.0);
        reply_bytes.push(reply_frame.len() as f64 + 4.0);
    }
    layers.set("mvcore.transform_us", median(&transform_us));
    layers.set("wire.encode_us", median(&encode_us));
    layers.set("wire.decode_us", median(&decode_us));
    layers.set("wire.request_bytes", median(&req_bytes));
    layers.set("wire.reply_bytes", median(&reply_bytes));
    exact
}

/// Engine-level counters over a phase, from before/after snapshots.
pub fn batch_layers(layers: &mut Layers, before: &serve::EngineStats, after: &serve::EngineStats) {
    let requests = (after.requests - before.requests).max(1) as f64;
    let batches = (after.batches - before.batches).max(1) as f64;
    layers.set("batch.requests_per_batch", requests / batches);
    layers.set(
        "batch.coalesced_frac",
        (after.coalesced_requests - before.coalesced_requests) as f64 / requests,
    );
    layers.set(
        "batch.singleton_frac",
        (after.singleton_batches - before.singleton_batches) as f64 / batches,
    );
    layers.set(
        "batch.shed",
        ((after.shed_queue_full + after.shed_model_limit)
            - (before.shed_queue_full + before.shed_model_limit)) as f64,
    );
}

/// The `linalg` copy counters, read together.
#[derive(Clone, Copy)]
pub struct CopyCounters {
    clones: usize,
    stitches: usize,
    pack_hits: u64,
}

impl CopyCounters {
    pub fn now() -> Self {
        Self {
            clones: linalg::matrix_clones(),
            stitches: linalg::input_stitches(),
            pack_hits: linalg::gemm::shared_pack_hits(),
        }
    }

    /// Per-request copies between two readings.
    pub fn layers_between(before: Self, after: Self, layers: &mut Layers, requests: usize) {
        let per = |x: usize| x as f64 / requests.max(1) as f64;
        layers.set(
            "linalg.matrix_clones_per_req",
            per(after.clones - before.clones),
        );
        layers.set(
            "linalg.input_stitches_per_req",
            per(after.stitches - before.stitches),
        );
        layers.set(
            "linalg.shared_pack_hits",
            (after.pack_hits - before.pack_hits) as f64,
        );
    }
}

/// Replay `chunks` through the streaming path a refit takes: accumulate
/// sufficient statistics, then solve warm-started from `prev`. Returns
/// (accumulate seconds, solve seconds, sweeps, refitted model).
pub fn stream_replay(
    tracer: &Tracer,
    prev: &dyn MultiViewModel,
    chunks: &[Arc<Vec<Matrix>>],
    spec: &FitSpec,
) -> (f64, f64, usize, Box<dyn MultiViewModel>) {
    let streaming = StreamingRegistry::with_builtin();
    let dims: Vec<usize> = chunks[0].iter().map(Matrix::rows).collect();
    let (stats, accumulate_s) = tracer.span("stream.accumulate", None, None, |_| {
        let mut stats = streaming
            .new_stats("TCCA", &dims, spec)
            .expect("TCCA streams");
        for chunk in chunks {
            stats.partial_fit(chunk).expect("partial fit");
        }
        stats
    });
    let ((model, sweeps), solve_s) = tracer.span("stream.solve", None, None, |_| {
        streaming
            .refit("TCCA", Some(prev), stats.as_ref())
            .expect("streaming refit")
    });
    (accumulate_s, solve_s, sweeps, model)
}

/// Read a named counter from a counter list.
pub fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Trainer-layer numbers from a live trainer: refit times observed by the
/// caller plus the trainer's own counters.
pub fn trainer_layers(layers: &mut Layers, trainer: &TrainerService, refit_s: &[f64]) {
    let c = trainer.stats();
    layers.set("trainer.refit_s", median(refit_s));
    layers.set(
        "trainer.swap_ms",
        counter(&c, "trainer/last_swap_micros") as f64 / 1e3,
    );
    layers.set("trainer.refits", counter(&c, "trainer/refits") as f64);
    layers.set("trainer.errors", counter(&c, "trainer/errors") as f64);
}

/// The refit path measured off a workload's own timed path: a small TCCA
/// model over a slice of the workload's data behind a default engine and a
/// `TrainerService`, fed `chunks` in process, refitted three times. Fills the
/// `stream.*`, `trainer.*` layers; returns whether every refit succeeded and
/// the trainer reported no errors.
pub fn refit_probe(
    tracer: &Tracer,
    layers: &mut Layers,
    dir: &Path,
    fixture: &[Matrix],
    chunks: &[Arc<Vec<Matrix>>],
    spec: &FitSpec,
) -> bool {
    let registry = EstimatorRegistry::with_builtin();
    let model = registry
        .fit("TCCA", fixture, spec)
        .expect("probe fixture fit");
    save_model(dir, "probe", model.as_ref());
    let (store, _) = open_store(dir);
    let engine = Arc::new(BatchEngine::start(
        Arc::clone(&store),
        BatchConfig::default(),
    ));
    let trainer = TrainerService::start(
        Arc::clone(&engine),
        dir,
        TrainerConfig {
            reservoir_chunks: chunks.len(),
            ..TrainerConfig::watching("probe", spec.clone())
        },
    );
    let (tx, rx) = mpsc::channel();
    for chunk in chunks {
        let tx = tx.clone();
        trainer.submit_transform(
            "probe",
            Arc::clone(chunk),
            None,
            Box::new(move |r| {
                let _ = tx.send(r.is_ok());
            }),
        );
    }
    let mut ok =
        (0..chunks.len()).all(|_| rx.recv_timeout(Duration::from_secs(30)).unwrap_or(false));
    let mut refit_s = Vec::new();
    for _ in 0..3 {
        let (r, s) = tracer.span("trainer.refit", None, None, |_| trainer.refit_now());
        ok &= r.is_ok();
        refit_s.push(s);
    }
    trainer_layers(layers, &trainer, &refit_s);
    let prev = store.get("probe").expect("probe model");
    let (accumulate_s, solve_s, sweeps, _) = stream_replay(tracer, prev.as_ref(), chunks, spec);
    layers.set("stream.accumulate_s", accumulate_s);
    layers.set("stream.solve_s", solve_s);
    layers.set("stream.solve_sweeps", sweeps as f64);
    drop(trainer);
    engine.stop();
    ok && layers.get("trainer.errors") == 0.0
}

/// Cut `views` (`d × N`) into `count` request chunks of `rows` instances each,
/// cycling through the instances.
pub fn chunks_of(views: &[Matrix], count: usize, rows: usize) -> Vec<Arc<Vec<Matrix>>> {
    let n = views[0].cols();
    (0..count)
        .map(|c| {
            let idx: Vec<usize> = (0..rows).map(|i| (c * rows + i) % n).collect();
            Arc::new(crate::util::select_instances(views, &idx))
        })
        .collect()
}
