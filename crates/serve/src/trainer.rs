//! [`TrainerService`] — zero-downtime model refresh from live serving traffic.
//!
//! The trainer wraps a [`BatchEngine`] behind the same [`TransformService`]
//! surface the TCP front speaks, and *taps* the transform stream: every request
//! for the watched model clones the request's `Arc`'d input handle (never the
//! matrices) into a bounded reservoir of recent chunks. A background worker —
//! woken by a wire-level `Refit` trigger or a periodic timer, never the event
//! loop — then:
//!
//! 1. folds the reservoir into mergeable sufficient statistics
//!    ([`stream::StreamingRegistry`]), so refit cost is independent of how much
//!    traffic was observed;
//! 2. refits the method, warm-starting iterative solvers (TCCA's CP-ALS) from
//!    the currently served factors;
//! 3. writes the new generation to `<name>.mvm.tmp` with bumped lineage
//!    (`model_version + 1`, `parent_crc` = serving model's payload CRC),
//!    atomically renames it over `<name>.mvm`, and swaps it in through
//!    [`ModelStore::rescan`].
//!
//! The swap is the only serving-visible moment, and it blocks nothing: requests
//! in flight hold the old model's `Arc` and finish on it, requests arriving
//! after the rescan load the new generation. The measured rename+rescan window
//! is exported as `trainer/last_swap_micros`.

use crate::batch::{OutputsCallback, ReplyCallback};
use crate::service::TransformService;
use crate::wire::{ModelInfo, RescanReport};
use crate::{BatchEngine, Result, ServeError, MODEL_EXTENSION};
use linalg::Matrix;
use mvcore::FitSpec;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use stream::StreamingRegistry;

/// Trainer knobs.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// The model (store name) to watch and refresh.
    pub model: String,
    /// Fit parameters for refits (rank and epsilon should match the serving
    /// model; the iterative knobs may differ — e.g. a tighter tolerance).
    pub spec: FitSpec,
    /// Refit on this cadence even without an explicit trigger (`None`: refit
    /// only on wire-level `Refit` requests).
    pub interval: Option<Duration>,
    /// Bounded memory: at most this many recent input chunks are retained;
    /// older chunks fall off the front. One chunk is one request's views.
    pub reservoir_chunks: usize,
    /// Keep each superseded generation as `<name>@v<N>.mvm` beside the live
    /// file instead of overwriting it — the history stays servable by name.
    pub keep_history: bool,
}

impl TrainerConfig {
    /// Sensible defaults for watching `model`: trigger-only refits over a
    /// 256-chunk reservoir, no history.
    pub fn watching(model: impl Into<String>, spec: FitSpec) -> Self {
        Self {
            model: model.into(),
            spec,
            interval: None,
            reservoir_chunks: 256,
            keep_history: false,
        }
    }
}

#[derive(Debug, Default, Clone)]
struct TrainerCounters {
    refits: u64,
    skipped: u64,
    errors: u64,
    model_version: u64,
    last_sweeps: u64,
    last_refit_micros: u64,
    last_swap_micros: u64,
    observed_chunks: u64,
}

struct TrainerState {
    reservoir: VecDeque<Arc<Vec<Matrix>>>,
    pending: bool,
    shutdown: bool,
    counters: TrainerCounters,
}

struct Shared {
    engine: Arc<BatchEngine>,
    dir: PathBuf,
    config: TrainerConfig,
    streaming: StreamingRegistry,
    state: Mutex<TrainerState>,
    wake: Condvar,
}

/// A [`TransformService`] that serves through a wrapped [`BatchEngine`] while a
/// background worker refreshes one model from the traffic it observes. Drop
/// (the last handle) to stop the worker.
pub struct TrainerService {
    shared: Arc<Shared>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl TrainerService {
    /// Wrap `engine` (serving models out of `dir`) with a refresh worker for
    /// `config.model`. The directory must be the one backing the engine's
    /// store — refreshed generations are written there and picked up by
    /// rescan.
    pub fn start(engine: Arc<BatchEngine>, dir: impl Into<PathBuf>, config: TrainerConfig) -> Self {
        let shared = Arc::new(Shared {
            engine,
            dir: dir.into(),
            config,
            streaming: StreamingRegistry::with_builtin(),
            state: Mutex::new(TrainerState {
                reservoir: VecDeque::new(),
                pending: false,
                shutdown: false,
                counters: TrainerCounters::default(),
            }),
            wake: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("tcca-trainer".into())
            .spawn(move || worker_loop(worker_shared))
            .expect("spawn trainer worker");
        Self {
            shared,
            worker: Mutex::new(Some(handle)),
        }
    }

    /// The wrapped engine (e.g. for direct in-process transforms in tests).
    pub fn engine(&self) -> &Arc<BatchEngine> {
        &self.shared.engine
    }

    /// Run one refit synchronously on the calling thread (tests, CLI). The
    /// serving path never calls this — wire triggers go through the worker.
    pub fn refit_now(&self) -> Result<()> {
        do_refit(&self.shared).map(|_| ())
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let st = self.shared.state.lock().expect("trainer state lock");
        let c = &st.counters;
        vec![
            ("trainer/refits".into(), c.refits),
            ("trainer/skipped".into(), c.skipped),
            ("trainer/errors".into(), c.errors),
            ("trainer/model_version".into(), c.model_version),
            ("trainer/last_sweeps".into(), c.last_sweeps),
            ("trainer/last_refit_micros".into(), c.last_refit_micros),
            ("trainer/last_swap_micros".into(), c.last_swap_micros),
            ("trainer/observed_chunks".into(), c.observed_chunks),
            ("trainer/reservoir_chunks".into(), st.reservoir.len() as u64),
        ]
    }
}

impl Drop for TrainerService {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("trainer state lock");
            st.shutdown = true;
        }
        self.shared.wake.notify_all();
        if let Some(handle) = self.worker.lock().expect("trainer worker lock").take() {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        {
            let mut st = shared.state.lock().expect("trainer state lock");
            while !st.shutdown && !st.pending {
                match shared.config.interval {
                    Some(interval) => {
                        let (guard, timeout) = shared
                            .wake
                            .wait_timeout(st, interval)
                            .expect("trainer state lock");
                        st = guard;
                        if timeout.timed_out() {
                            break; // periodic tick: refit without a trigger
                        }
                    }
                    None => st = shared.wake.wait(st).expect("trainer state lock"),
                }
            }
            if st.shutdown {
                return;
            }
            st.pending = false;
        }
        if do_refit(&shared).is_err() {
            let mut st = shared.state.lock().expect("trainer state lock");
            st.counters.errors += 1;
        }
    }
}

/// One full accumulate → refit → swap cycle. Returns `false` when there was
/// nothing to do (empty reservoir). The reservoir is *not* drained: it is a
/// sliding window over recent traffic, so consecutive refits see overlapping
/// (progressively fresher) samples.
fn do_refit(shared: &Shared) -> Result<bool> {
    let chunks: Vec<Arc<Vec<Matrix>>> = {
        let st = shared.state.lock().expect("trainer state lock");
        st.reservoir.iter().cloned().collect()
    };
    if chunks.is_empty() {
        let mut st = shared.state.lock().expect("trainer state lock");
        st.counters.skipped += 1;
        return Ok(false);
    }

    let name = &shared.config.model;
    let store = shared.engine.store();
    let meta = store.entry(name)?.meta().clone();
    if !shared.streaming.supports(&meta.method) {
        return Err(ServeError::Remote(format!(
            "model {name:?} uses {}, which has no streaming refit",
            meta.method
        )));
    }

    let t_refit = Instant::now();
    let dims: Vec<usize> = chunks[0].iter().map(|m| m.rows()).collect();
    let mut stats = shared
        .streaming
        .new_stats(&meta.method, &dims, &shared.config.spec)?;
    for chunk in &chunks {
        let chunk_dims: Vec<usize> = chunk.iter().map(|m| m.rows()).collect();
        if chunk_dims == dims {
            stats.partial_fit(chunk)?;
        }
        // Mismatched chunks (the model was already swapped for different view
        // dims mid-window) are silently skipped — they belong to a dead shape.
    }
    let prev = store.get(name)?;
    let (model, sweeps) =
        shared
            .streaming
            .refit(&meta.method, Some(prev.as_ref()), stats.as_ref())?;
    let refit_micros = t_refit.elapsed().as_micros() as u64;

    // New generation: bumped version, parented on the serving payload's CRC.
    let version = meta.model_version + 1;
    let final_path = shared.dir.join(format!("{name}.{MODEL_EXTENSION}"));
    let tmp_path = shared.dir.join(format!("{name}.{MODEL_EXTENSION}.tmp"));
    {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp_path)?);
        mvcore::persist::write_model_versioned(
            &mut w,
            &meta.method,
            model.dim(),
            model.num_views(),
            model.input_kind(),
            version,
            meta.checksum,
            &model.save_state()?,
        )?;
        std::io::Write::flush(&mut w)?;
    }
    if shared.config.keep_history {
        let kept = shared
            .dir
            .join(format!("{name}@v{}.{MODEL_EXTENSION}", meta.model_version));
        let _ = std::fs::copy(&final_path, kept);
    }

    // The swap: an atomic rename, then the store's CRC-aware rescan picks the
    // changed file up. In-flight requests keep their `Arc` on the old model.
    let t_swap = Instant::now();
    std::fs::rename(&tmp_path, &final_path)?;
    store.rescan()?;
    let swap_micros = t_swap.elapsed().as_micros() as u64;

    let mut st = shared.state.lock().expect("trainer state lock");
    st.counters.refits += 1;
    st.counters.model_version = version;
    st.counters.last_sweeps = sweeps as u64;
    st.counters.last_refit_micros = refit_micros;
    st.counters.last_swap_micros = swap_micros;
    Ok(true)
}

impl TransformService for TrainerService {
    fn submit_transform(
        &self,
        model: &str,
        inputs: Arc<Vec<Matrix>>,
        deadline: Option<Instant>,
        reply: ReplyCallback,
    ) {
        if model == shared_model(&self.shared) {
            let mut st = self.shared.state.lock().expect("trainer state lock");
            st.counters.observed_chunks += 1;
            st.reservoir.push_back(Arc::clone(&inputs));
            while st.reservoir.len() > self.shared.config.reservoir_chunks.max(1) {
                st.reservoir.pop_front();
            }
        }
        self.shared
            .engine
            .submit_transform(model, inputs, deadline, reply);
    }

    fn submit_transform_view(
        &self,
        model: &str,
        which: usize,
        input: Arc<Matrix>,
        deadline: Option<Instant>,
        reply: ReplyCallback,
    ) {
        // Single-view requests are not recorded: a sufficient-statistics update
        // needs every view of an instance.
        self.shared
            .engine
            .submit_transform_view(model, which, input, deadline, reply);
    }

    fn submit_outputs(
        &self,
        model: &str,
        inputs: Arc<Vec<Matrix>>,
        deadline: Option<Instant>,
        reply: OutputsCallback,
    ) {
        self.shared
            .engine
            .submit_outputs(model, inputs, deadline, reply);
    }

    fn catalog(&self) -> Result<Vec<ModelInfo>> {
        TransformService::catalog(self.shared.engine.as_ref())
    }

    fn rescan(&self) -> Result<RescanReport> {
        TransformService::rescan(self.shared.engine.as_ref())
    }

    fn stats(&self) -> Vec<(String, u64)> {
        let mut counters = self.shared.engine.stats().counters();
        counters.extend(self.counters());
        counters
    }

    /// Signal the worker and return the counter snapshot at trigger time — the
    /// refit itself runs off the caller's thread. Poll [`TransformService::stats`]
    /// for `trainer/refits` advancing to watch it land.
    fn trigger_refit(&self) -> Result<Vec<(String, u64)>> {
        {
            let mut st = self.shared.state.lock().expect("trainer state lock");
            st.pending = true;
        }
        self.shared.wake.notify_all();
        Ok(TransformService::stats(self))
    }
}

fn shared_model(shared: &Shared) -> &str {
    &shared.config.model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchConfig;
    use datasets::{secstr_dataset, SecStrConfig};
    use mvcore::EstimatorRegistry;
    use std::path::Path;

    fn fixture_views(n: usize, seed: u64) -> Vec<Matrix> {
        let data = secstr_dataset(&SecStrConfig {
            n_instances: n,
            seed,
            difficulty: 0.8,
        });
        data.views().to_vec()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tcca-trainer-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn save_pca(dir: &Path, name: &str, views: &[Matrix], spec: &FitSpec) {
        let registry = EstimatorRegistry::with_builtin();
        let model = registry.fit("PCA", views, spec).unwrap();
        ModelStore::new(EstimatorRegistry::with_builtin())
            .save(dir, name, model.as_ref())
            .unwrap();
    }

    use crate::ModelStore;

    fn trainer_over(dir: &Path, config: TrainerConfig) -> TrainerService {
        let store = Arc::new(ModelStore::open(EstimatorRegistry::with_builtin(), dir).unwrap());
        let engine = Arc::new(BatchEngine::start(
            store,
            BatchConfig {
                max_batch: 32,
                max_wait: Duration::from_millis(1),
                ..BatchConfig::default()
            },
        ));
        TrainerService::start(engine, dir, config)
    }

    fn transform(svc: &TrainerService, model: &str, inputs: Vec<Matrix>) -> Result<Matrix> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        svc.submit_transform(
            model,
            Arc::new(inputs),
            None,
            Box::new(move |r| drop(tx.send(r))),
        );
        rx.recv().expect("trainer reply")
    }

    fn counter(svc: &TrainerService, name: &str) -> u64 {
        TransformService::stats(svc)
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    }

    #[test]
    fn refit_swaps_in_a_new_generation_with_lineage() {
        let spec = FitSpec::with_rank(2).epsilon(1e-2).seed(3);
        let views = fixture_views(40, 11);
        let dir = tmp_dir("swap");
        save_pca(&dir, "m", &views, &spec);
        let svc = trainer_over(&dir, TrainerConfig::watching("m", spec));

        // Traffic lands in the reservoir and is served normally.
        let before = transform(&svc, "m", views.clone()).unwrap();
        assert_eq!(counter(&svc, "trainer/reservoir_chunks"), 1);

        // Synchronous refit: version bumps, parent CRC links to the old payload.
        let old_meta = svc.engine().store().entry("m").unwrap().meta().clone();
        assert_eq!(old_meta.model_version, 0);
        svc.refit_now().unwrap();
        let meta = svc.engine().store().entry("m").unwrap().meta().clone();
        assert_eq!(meta.model_version, 1);
        assert_eq!(meta.parent_crc, old_meta.checksum);
        assert_eq!(counter(&svc, "trainer/refits"), 1);
        assert!(counter(&svc, "trainer/last_swap_micros") > 0);

        // The reservoir held exactly the fit sample, so the exact-moment
        // streaming PCA must reproduce the one-shot model bit-for-bit: replies
        // across the swap are identical.
        let after = transform(&svc, "m", views.clone()).unwrap();
        assert_eq!(after.as_slice(), before.as_slice(), "swap changed replies");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trigger_is_asynchronous_and_lands_via_the_worker() {
        let spec = FitSpec::with_rank(2).epsilon(1e-2).seed(3);
        let views = fixture_views(40, 12);
        let dir = tmp_dir("async");
        save_pca(&dir, "m", &views, &spec);
        let svc = trainer_over(&dir, TrainerConfig::watching("m", spec));
        let _ = transform(&svc, "m", views.clone()).unwrap();

        let snapshot = svc.trigger_refit().unwrap();
        assert!(snapshot.iter().any(|(n, _)| n == "trainer/refits"));
        let deadline = Instant::now() + Duration::from_secs(10);
        while counter(&svc, "trainer/refits") == 0 {
            assert!(
                Instant::now() < deadline,
                "worker never completed the refit"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(counter(&svc, "trainer/model_version"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_reservoir_skips_and_history_keeps_generations() {
        let spec = FitSpec::with_rank(2).epsilon(1e-2).seed(3);
        let views = fixture_views(40, 13);
        let dir = tmp_dir("history");
        save_pca(&dir, "m", &views, &spec);
        let mut config = TrainerConfig::watching("m", spec);
        config.keep_history = true;
        let svc = trainer_over(&dir, config);

        // No traffic yet: the refit is a counted no-op, the file is untouched.
        svc.refit_now().unwrap();
        assert_eq!(counter(&svc, "trainer/skipped"), 1);
        assert_eq!(counter(&svc, "trainer/refits"), 0);

        let _ = transform(&svc, "m", views.clone()).unwrap();
        svc.refit_now().unwrap();
        assert!(dir.join("m@v0.mvm").exists(), "history generation missing");
        // The preserved generation is indexed by rescan and stays servable.
        svc.rescan().unwrap();
        assert!(transform(&svc, "m@v0", views.clone()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
