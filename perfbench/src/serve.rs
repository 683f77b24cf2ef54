//! `serve-tenants` and `serve-refit`: the request path through a default
//! `Server` over loopback, plus the load generators both workloads share.

use crate::layers::Layers;
use crate::probes::{self, counter, CopyCounters};
use crate::trace::Tracer;
use crate::util::{
    self, fingerprint, median, metric, percentile, secs, sleep_until, sub_seed, timed, Rng,
};
use crate::{Ctx, Outcome};
use datasets::{secstr_dataset, SecStrConfig};
use linalg::Matrix;
use mvcore::{EstimatorRegistry, FitSpec, MultiViewModel};
use serve::wire::{read_frame, write_frame, Request, Response};
use serve::{
    BatchConfig, BatchEngine, Client, EngineStats, ModelStore, Server, ShutdownHandle,
    TrainerConfig, TrainerService, TransformService,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;
/// How long a run waits for outstanding replies after its last send.
const DRAIN: Duration = Duration::from_secs(10);
/// A generator whose p99 send lag exceeds this fell behind its schedule.
const LAG_LIMIT_MS: f64 = 1.0;
/// The `serve-tenants` latency limit on p99.
const LATENCY_LIMIT_MS: f64 = 25.0;

/// A server bound on loopback with its event loop on its own thread.
pub struct Served {
    pub addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: Option<std::thread::JoinHandle<serve::Result<()>>>,
    engine: Arc<BatchEngine>,
}

impl Served {
    pub fn engine(&self) -> &Arc<BatchEngine> {
        &self.engine
    }

    /// `Server` counters (`server/*`) as the wire `Stats` op reports them.
    pub fn stats(&self) -> Vec<(String, u64)> {
        Client::connect(self.addr)
            .and_then(|mut c| c.stats())
            .unwrap_or_default()
    }

    pub fn stop(mut self) {
        self.shutdown.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.engine.stop();
    }
}

fn spawn_server(server: Server, engine: Arc<BatchEngine>) -> Served {
    let addr = server.local_addr().expect("bound address");
    let shutdown = server.shutdown_handle();
    let thread = std::thread::Builder::new()
        .name("perfbench-server".into())
        .spawn(move || server.run())
        .expect("spawn server thread");
    Served {
        addr,
        shutdown,
        thread: Some(thread),
        engine,
    }
}

/// A default `Server` (default `BatchConfig` and `ServerTuning`) over `store`.
pub fn start_server(store: Arc<ModelStore>) -> Served {
    let server = Server::bind("127.0.0.1:0", store, BatchConfig::default()).expect("bind server");
    let engine = Arc::clone(server.engine().expect("engine-backed server"));
    spawn_server(server, engine)
}

/// Requests of a run, each pre-encoded once as a tagged frame so the load
/// generators copy bytes rather than matrices (the `linalg` copy counters then
/// see only the server's copies).
pub struct FramePool {
    pub entries: Vec<(String, Arc<Vec<Matrix>>)>,
    frames: Vec<Vec<u8>>,
}

impl FramePool {
    pub fn new(entries: Vec<(String, Arc<Vec<Matrix>>)>) -> Self {
        let frames: Vec<Vec<u8>> = entries
            .iter()
            .map(|(model, inputs)| {
                Request::Transform {
                    model: model.clone(),
                    inputs: inputs.to_vec(),
                }
                .tagged(0)
                .encode()
            })
            .collect();
        // The v2 envelope is the opcode followed by the little-endian id; the
        // frame for another id differs only there. Checked once per pool.
        let probe = Self::patch(&frames[0], 0x0102_0304_0506_0708);
        let decoded = Request::decode(&probe).expect("patched frame decodes");
        assert!(
            matches!(
                decoded,
                Request::Tagged {
                    id: 0x0102_0304_0506_0708,
                    ..
                }
            ),
            "tagged envelope layout changed"
        );
        Self { entries, frames }
    }

    fn patch(frame: &[u8], id: u64) -> Vec<u8> {
        let mut f = frame.to_vec();
        f[1..9].copy_from_slice(&id.to_le_bytes());
        f
    }

    pub fn frame(&self, id: u64) -> Vec<u8> {
        Self::patch(&self.frames[id as usize % self.frames.len()], id)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Sent / succeeded / failed counts of one phase of a load generator.
#[derive(Default, Debug, Clone, Copy)]
pub struct Phase {
    pub sent: usize,
    pub succeeded: usize,
    pub failed: usize,
}

/// What a load generator measured. Latencies are of the timed phase's
/// successful requests; failures count every phase.
#[derive(Default)]
pub struct LoopResult {
    pub latency_ms: Vec<f64>,
    pub warmup: Phase,
    pub timed: Phase,
    pub lag_ms: Vec<f64>,
    pub timed_s: f64,
    pub ok: usize,
    pub failed: usize,
}

impl LoopResult {
    fn tally(&mut self, warm: bool, ok: bool) {
        let phase = if warm {
            &mut self.warmup
        } else {
            &mut self.timed
        };
        phase.sent += 1;
        if ok {
            phase.succeeded += 1;
            self.ok += 1;
        } else {
            phase.failed += 1;
            self.failed += 1;
        }
    }

    pub fn report(&self, out: &mut Outcome, label: &str) {
        let n = self.latency_ms.len();
        out.line(format!(
            "{label} latency over {n} timed samples: p50 {:.4} ms, p90 {:.4} ms ({} beyond), p99 {:.4} ms ({} beyond)",
            percentile(&self.latency_ms, 50.0),
            percentile(&self.latency_ms, 90.0),
            n / 10,
            percentile(&self.latency_ms, 99.0),
            n / 100
        ));
        for (name, p) in [("warm-up", self.warmup), ("timed", self.timed)] {
            out.line(format!(
                "{label} {name} phase: sent {} succeeded {} failed {}",
                p.sent, p.succeeded, p.failed
            ));
        }
    }
}

fn decode_reply(payload: &[u8]) -> Option<(u64, Option<Matrix>)> {
    match Response::decode(payload).ok()? {
        Response::Tagged { id, inner } => match *inner {
            Response::Embedding(z) => Some((id, Some(z))),
            _ => Some((id, None)),
        },
        _ => None,
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect to server");
    s.set_nodelay(true).expect("TCP_NODELAY");
    s
}

/// Closed loop over one connection: each request is sent when the previous
/// reply arrived. Runs every pool entry once (`duration` `None`) or cycles
/// the pool for `warmup_s + duration` seconds.
pub fn closed_loop_tcp(
    tracer: &Tracer,
    addr: SocketAddr,
    pool: &FramePool,
    warmup_s: f64,
    duration: Option<f64>,
    check: impl Fn(usize, &Matrix) -> bool,
) -> LoopResult {
    let mut stream = connect(addr);
    stream
        .set_read_timeout(Some(DRAIN))
        .expect("socket read timeout");
    let mut reader = stream.try_clone().expect("clone socket");
    closed_loop(tracer, pool.len(), warmup_s, duration, |id| {
        if write_frame(&mut stream, &pool.frame(id)).is_err() {
            return false;
        }
        match read_frame(&mut reader) {
            Ok(Some(p)) => matches!(decode_reply(&p),
                Some((rid, Some(z))) if rid == id && check(id as usize % pool.len(), &z)),
            _ => false,
        }
    })
}

/// Closed loop straight into an in-process service (no server, no codec).
pub fn closed_loop_service(
    tracer: &Tracer,
    service: &dyn TransformService,
    pool: &FramePool,
    warmup_s: f64,
    duration: Option<f64>,
    check: impl Fn(usize, &Matrix) -> bool,
) -> LoopResult {
    closed_loop(tracer, pool.len(), warmup_s, duration, |id| {
        let idx = id as usize % pool.len();
        let (model, inputs) = &pool.entries[idx];
        let (tx, rx) = mpsc::channel();
        service.submit_transform(
            model,
            Arc::clone(inputs),
            None,
            Box::new(move |r| {
                let _ = tx.send(r);
            }),
        );
        matches!(rx.recv_timeout(DRAIN), Ok(Ok(z)) if check(idx, &z))
    })
}

fn closed_loop(
    tracer: &Tracer,
    pool_len: usize,
    warmup_s: f64,
    duration: Option<f64>,
    mut call: impl FnMut(u64) -> bool,
) -> LoopResult {
    let mut res = LoopResult::default();
    let t0 = Instant::now();
    let mut timed_start = None;
    let mut id = 0u64;
    loop {
        let warm = secs(t0) < warmup_s;
        if !warm && timed_start.is_none() {
            timed_start = Some(Instant::now());
        }
        match (duration, timed_start) {
            (None, _) if id as usize >= pool_len => break,
            (Some(d), Some(ts)) if secs(ts) >= d => break,
            _ => {}
        }
        let start = Instant::now();
        let ok = call(id);
        let end = Instant::now();
        tracer.record("request", start, end, None, Some(id));
        if ok && !warm {
            res.latency_ms.push((end - start).as_secs_f64() * 1e3);
        }
        res.tally(warm, ok);
        id += 1;
    }
    res.timed_s = timed_start.map_or(0.0, secs);
    res
}

/// Open loop at a fixed `rate`: request `i` is due at `start + i / rate`
/// whether or not earlier replies arrived; latency counts from the due time.
/// `send(id)` must arrange for `(id, completion instant, ok)` to arrive on
/// `done`.
fn open_loop(
    tracer: &Tracer,
    rate: f64,
    warmup_s: f64,
    timed_s: f64,
    send: impl FnMut(u64) + Send,
    done: mpsc::Receiver<(u64, Instant, bool)>,
) -> LoopResult {
    let total = ((warmup_s + timed_s) * rate).round() as usize;
    let warm_n = (warmup_s * rate).round() as usize;
    let start = Instant::now() + Duration::from_millis(5);
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut send = send;
    let (lag_ms, completions) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut lag = Vec::with_capacity(total);
            for i in 0..total {
                sleep_until(due(i));
                lag.push(due(i).elapsed().as_secs_f64() * 1e3);
                send(i as u64);
            }
            lag
        });
        let mut completions: Vec<Option<(Instant, bool)>> = vec![None; total];
        let deadline = due(total) + DRAIN;
        let mut received = 0;
        while received < total {
            let left = deadline.saturating_duration_since(Instant::now());
            match done.recv_timeout(left) {
                Ok((id, at, ok)) => {
                    if let Some(slot) = completions.get_mut(id as usize) {
                        if slot.is_none() {
                            *slot = Some((at, ok));
                            received += 1;
                        }
                    }
                }
                Err(_) => break,
            }
        }
        (sender.join().expect("load generator thread"), completions)
    });
    // The timed phase lasts from its first due time to its last completion.
    let last = completions[warm_n.min(total)..]
        .iter()
        .filter_map(|c| c.map(|(at, _)| at))
        .max()
        .unwrap_or_else(|| due(total));
    let mut res = LoopResult {
        lag_ms,
        timed_s: (last - due(warm_n)).as_secs_f64().max(timed_s / 2.0),
        ..LoopResult::default()
    };
    for (i, c) in completions.into_iter().enumerate() {
        let warm = i < warm_n;
        let ok = matches!(c, Some((_, true)));
        if let Some((at, _)) = c {
            tracer.record("request", due(i), at, None, Some(i as u64));
            if ok && !warm {
                res.latency_ms.push((at - due(i)).as_secs_f64() * 1e3);
            }
        }
        res.tally(warm, ok);
    }
    res
}

/// Open loop over one loopback connection: one sender thread writes the
/// scheduled frames, one receiver thread reads and checks the replies.
pub fn open_loop_tcp(
    tracer: &Tracer,
    addr: SocketAddr,
    pool: &FramePool,
    rate: f64,
    warmup_s: f64,
    timed_s: f64,
    check: impl Fn(usize, &Matrix) -> bool + Send + Sync,
) -> LoopResult {
    let stream = connect(addr);
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = stream;
    reader
        .set_read_timeout(Some(DRAIN))
        .expect("socket read timeout");
    let (tx, rx) = mpsc::channel();
    let pool_len = pool.len();
    let total = ((warmup_s + timed_s) * rate).round() as usize;
    std::thread::scope(|s| {
        let check = &check;
        s.spawn(move || {
            for _ in 0..total {
                let Ok(Some(p)) = read_frame(&mut reader) else {
                    break;
                };
                let at = Instant::now();
                if let Some((id, z)) = decode_reply(&p) {
                    let ok = z.is_some_and(|z| check(id as usize % pool_len, &z));
                    let _ = tx.send((id, at, ok));
                }
            }
        });
        open_loop(
            tracer,
            rate,
            warmup_s,
            timed_s,
            |id| {
                let _ = write_frame(&mut writer, &pool.frame(id));
            },
            rx,
        )
    })
}

/// The same open-loop schedule submitted straight into an in-process service.
pub fn open_loop_service(
    tracer: &Tracer,
    service: &dyn TransformService,
    pool: &FramePool,
    rate: f64,
    warmup_s: f64,
    timed_s: f64,
    check: impl Fn(usize, &Matrix) -> bool + Send + Sync + 'static,
) -> LoopResult {
    let (tx, rx) = mpsc::channel();
    let tx = Mutex::new(tx);
    let check = Arc::new(check);
    open_loop(
        tracer,
        rate,
        warmup_s,
        timed_s,
        |id| {
            let idx = id as usize % pool.len();
            let (model, inputs) = &pool.entries[idx];
            let tx = tx.lock().expect("completion sender").clone();
            let check = Arc::clone(&check);
            service.submit_transform(
                model,
                Arc::clone(inputs),
                None,
                Box::new(move |r| {
                    let at = Instant::now();
                    let ok = matches!(&r, Ok(z) if check(idx, z));
                    let _ = tx.send((id, at, ok));
                }),
            );
        },
        rx,
    )
}

/// The program's own counters, read together around a timed phase: engine
/// statistics, the server's `Stats` reply and the `linalg` copy counters.
pub struct Snapshot {
    engine: EngineStats,
    server: Vec<(String, u64)>,
    copies: CopyCounters,
}

impl Snapshot {
    pub fn take(served: &Served) -> Self {
        Self {
            engine: served.engine().stats(),
            server: served.stats(),
            copies: CopyCounters::now(),
        }
    }
}

/// Request-path attribution by nested differences: engine latency minus
/// model time is batching wait; end-to-end minus engine minus codec is the
/// server's own time. `mvcore.transform_us` and the `wire.*` layers must be
/// set already. Counters are the differences between `before` and `after`
/// over `requests` requests.
pub fn request_path_layers(
    layers: &mut Layers,
    e2e_ms: &[f64],
    engine_ms: &[f64],
    before: &Snapshot,
    after: &Snapshot,
    requests: usize,
) {
    let model_ms = layers.get("mvcore.transform_us") / 1e3;
    let codec_us = layers.get("wire.encode_us") + layers.get("wire.decode_us");
    layers.set("batch.wait_ms_p50", median(engine_ms) - model_ms);
    layers.set("batch.wait_ms_p99", percentile(engine_ms, 99.0) - model_ms);
    layers.set(
        "server.overhead_us",
        (median(e2e_ms) - median(engine_ms)) * 1e3 - codec_us,
    );
    let wakeups =
        counter(&after.server, "server/wakeups") - counter(&before.server, "server/wakeups");
    layers.set(
        "server.wakeups_per_req",
        wakeups as f64 / requests.max(1) as f64,
    );
    layers.set(
        "server.events_per_wakeup",
        counter(&after.server, "server/events_per_wakeup") as f64,
    );
    probes::batch_layers(layers, &before.engine, &after.engine);
    CopyCounters::layers_between(before.copies, after.copies, layers, requests);
}

/// Print the request-path attribution of `p50_ms` and record it in the trace
/// summary.
fn p50_attribution(out: &mut Outcome, layers: &Layers, p50_ms: f64) {
    let parts = [
        ("batch.wait", layers.get("batch.wait_ms_p50")),
        ("mvcore.transform", layers.get("mvcore.transform_us") / 1e3),
        (
            "wire.codec",
            (layers.get("wire.encode_us") + layers.get("wire.decode_us")) / 1e3,
        ),
        ("server.overhead", layers.get("server.overhead_us") / 1e3),
    ];
    for (name, ms) in parts {
        out.line(format!(
            "share of p50_ms: {name} = {:.3} ({ms:.4} ms)",
            ms / p50_ms
        ));
        out.summary(&format!("share.{name}"), ms / p50_ms);
    }
    out.summary("p50_ms", p50_ms);
}

fn lag_report(out: &mut Outcome, res: &LoopResult) {
    let lag = percentile(&res.lag_ms, 99.0);
    out.line(format!("gen.lag_ms_p99 = {lag:.4} ms"));
    out.summary("gen.lag_ms_p99", lag);
    if lag > LAG_LIMIT_MS {
        out.line(format!(
            "WARNING: the generator fell behind its schedule (p99 lag {lag:.3} ms > {LAG_LIMIT_MS} ms); open-loop latencies understate the load"
        ));
    }
}

fn spec(rank: usize) -> FitSpec {
    FitSpec::with_rank(rank)
        .epsilon(1e-2)
        .decomposition_iterations(15)
}

/// Mean objective and RLS accuracy of `models` over their own data, plus the
/// median RLS time.
fn quality(
    models: &[(&dyn MultiViewModel, &[Matrix])],
    labels: &[usize],
    seed: u64,
) -> (f64, f64, f64) {
    let mut obj = Vec::new();
    let mut acc = Vec::new();
    let mut rls = Vec::new();
    for (model, views) in models {
        let z = model.transform(views).expect("transform");
        obj.push(probes::objective(&z, views.len()));
        let (a, s) = probes::rls_accuracy(&z, labels, 2, seed);
        acc.push(a);
        rls.push(s);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (mean(&obj), mean(&acc), median(&rls))
}

struct TenantSetup {
    tenants: Vec<Vec<Matrix>>,
    models: Vec<Box<dyn MultiViewModel>>,
    labels: Vec<usize>,
    store: Arc<ModelStore>,
    open_s: f64,
    fit0_s: f64,
    served: Served,
    pool: FramePool,
    expected: Vec<u64>,
    dir: std::path::PathBuf,
}

/// `serve-tenants`: open loop at a fixed rate, round-robin over 8 small TCCA
/// models, 4 instances per full `transform`, one loopback connection.
pub fn tenants(ctx: &Ctx) -> Outcome {
    const TENANTS: usize = 8;
    const FEATURES: usize = 8;
    const ROWS: usize = 4;
    const POOL: usize = 512;
    let n = if ctx.toy { 400 } else { 2000 };
    let rate = if ctx.toy { 500.0 } else { 2000.0 };
    let warmup_s = if ctx.toy { 0.2 } else { 1.0 };
    let mut out = Outcome::default();
    let registry = EstimatorRegistry::with_builtin();

    let mut setup_s = Vec::new();
    let mut setup: Option<TenantSetup> = None;
    for rep in 0..SETUPS {
        let dir = ctx.scratch_dir(&format!("tenants-{}-{rep}", ctx.seed));
        let (s, secs_taken) = timed(|| {
            let data = secstr_dataset(&SecStrConfig {
                n_instances: n,
                seed: sub_seed(ctx.seed, 11),
                difficulty: 0.8,
            });
            let mut tenants = Vec::new();
            let mut models = Vec::new();
            let mut fit0_s = 0.0;
            for t in 0..TENANTS {
                let rows: Vec<usize> = (t * FEATURES..(t + 1) * FEATURES).collect();
                let views: Vec<Matrix> =
                    data.views().iter().map(|v| v.select_rows(&rows)).collect();
                let (model, s) =
                    timed(|| registry.fit("TCCA", &views, &spec(2)).expect("tenant fit"));
                if t == 0 {
                    fit0_s = s;
                }
                probes::save_model(&dir, &format!("tenant-{t}"), model.as_ref());
                tenants.push(views);
                models.push(model);
            }
            let (store, open_s) = probes::open_store(&dir);
            let served = start_server(Arc::clone(&store));
            let mut rng = Rng::new(ctx.seed, 12);
            let entries: Vec<(String, Arc<Vec<Matrix>>)> = (0..POOL)
                .map(|i| {
                    let t = i % TENANTS;
                    let idx: Vec<usize> = (0..ROWS).map(|_| rng.below(n)).collect();
                    (
                        format!("tenant-{t}"),
                        Arc::new(util::select_instances(&tenants[t], &idx)),
                    )
                })
                .collect();
            let expected: Vec<u64> = entries
                .iter()
                .enumerate()
                .map(|(i, (_, inputs))| {
                    fingerprint(&models[i % TENANTS].transform(inputs).expect("transform"))
                })
                .collect();
            let pool = FramePool::new(entries);
            TenantSetup {
                tenants,
                models,
                labels: data.labels().to_vec(),
                store,
                open_s,
                fit0_s,
                served,
                pool,
                expected,
                dir: dir.clone(),
            }
        });
        setup_s.push(secs_taken);
        if let Some(old) = setup.replace(s) {
            old.served.stop();
            let _ = std::fs::remove_dir_all(&old.dir);
        }
    }
    let st = setup.expect("at least one set-up");
    out.line(format!(
        "{TENANTS} tenants x 3 views x {FEATURES} features, rank 2; open loop {rate} req/s, {ROWS} instances per request"
    ));

    let expected = Arc::new(st.expected.clone());
    let exp = Arc::clone(&expected);
    let check = move |i: usize, z: &Matrix| fingerprint(z) == exp[i];
    let before = Snapshot::take(&st.served);
    let tcp = open_loop_tcp(
        &Tracer::new(false),
        st.served.addr,
        &st.pool,
        rate,
        warmup_s,
        ctx.seconds,
        &check,
    );
    let after = Snapshot::take(&st.served);
    tcp.report(&mut out, "tcp");
    lag_report(&mut out, &tcp);
    let p99 = percentile(&tcp.latency_ms, 99.0);
    out.line(format!(
        "latency limit p99 <= {LATENCY_LIMIT_MS} ms at {rate} req/s: {}",
        if p99 <= LATENCY_LIMIT_MS && tcp.failed == 0 {
            "met"
        } else {
            "MISSED"
        }
    ));
    out.attempted += tcp.warmup.sent as u64 + tcp.timed.sent as u64;
    out.failed += tcp.failed as u64;
    out.check(
        "replies bit-identical to in-process transform",
        tcp.failed == 0,
    );

    let pairs: Vec<(&dyn MultiViewModel, &[Matrix])> = st
        .models
        .iter()
        .zip(&st.tenants)
        .map(|(m, v)| (m.as_ref(), v.as_slice()))
        .collect();
    let (objective, accuracy, rls_s) = quality(&pairs, &st.labels, sub_seed(ctx.seed, 13));

    let p50 = median(&tcp.latency_ms);
    out.e2e = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("p50_ms", p50, "ms"),
        metric("p90_ms", percentile(&tcp.latency_ms, 90.0), "ms"),
        metric("ops_per_s", tcp.timed.succeeded as f64 / tcp.timed_s, "1/s"),
        metric("peak_rss_mb", util::peak_rss_mb(), "MB"),
        metric("objective", objective, "1"),
        metric("accuracy", accuracy, "fraction"),
    ];

    if ctx.trace {
        let mut layers = Layers::default();
        let half = (ctx.seconds / 2.0).max(0.2);
        let traced = open_loop_tcp(
            &ctx.tracer,
            st.served.addr,
            &st.pool,
            rate,
            warmup_s,
            half,
            &check,
        );
        layers.set(
            "trace.overhead_frac",
            median(&traced.latency_ms) / p50 - 1.0,
        );
        let exp = Arc::clone(&expected);
        let engine_run = open_loop_service(
            &ctx.tracer,
            st.served.engine().as_ref(),
            &st.pool,
            rate,
            warmup_s,
            half,
            move |i, z| fingerprint(z) == exp[i],
        );
        out.check(
            "in-process engine replies bit-identical",
            engine_run.failed == 0,
        );
        let sample: Vec<Arc<Vec<Matrix>>> = st
            .pool
            .entries
            .iter()
            .take(200)
            .map(|e| Arc::clone(&e.1))
            .collect();
        let mut exact = true;
        // Per-tenant model calls: each sample request goes to its own tenant.
        let mut per_tenant = Vec::new();
        for t in 0..TENANTS {
            let model = st.store.get(&format!("tenant-{t}")).expect("tenant model");
            let mine: Vec<Arc<Vec<Matrix>>> =
                sample.iter().skip(t).step_by(TENANTS).cloned().collect();
            let mut l = Layers::default();
            exact &= probes::request_layers(
                &ctx.tracer,
                &mut l,
                model.as_ref(),
                &format!("tenant-{t}"),
                &mine,
            );
            per_tenant.push(l);
        }
        for name in [
            "mvcore.transform_us",
            "wire.encode_us",
            "wire.decode_us",
            "wire.request_bytes",
            "wire.reply_bytes",
        ] {
            layers.set(
                name,
                median(&per_tenant.iter().map(|l| l.get(name)).collect::<Vec<_>>()),
            );
        }
        out.check("wire frames round-trip bit-identical", exact);
        request_path_layers(
            &mut layers,
            &tcp.latency_ms,
            &engine_run.latency_ms,
            &before,
            &after,
            tcp.warmup.sent + tcp.timed.sent,
        );
        let steps = vec![probes::fit_steps(
            &ctx.tracer,
            &st.tenants[0],
            &spec(2).tcca_options(),
        )];
        probes::fit_layers(&mut layers, &steps, &st.tenants[0], 15, st.fit0_s);
        layers.set("learners.rls_s", rls_s);
        probes::store_layers(&mut layers, &st.store, "tenant-0", st.open_s);
        let probe_dir = ctx.scratch_dir(&format!("tenants-probe-{}", ctx.seed));
        let ok = probes::refit_probe(
            &ctx.tracer,
            &mut layers,
            &probe_dir,
            &st.tenants[0],
            &probes::chunks_of(&st.tenants[0], 32, (n / 32).min(256)),
            &spec(2),
        );
        let _ = std::fs::remove_dir_all(&probe_dir);
        out.check("refit probe succeeded with no trainer errors", ok);
        p50_attribution(&mut out, &layers, p50);
        out.layers = layers.metrics();
    }
    st.served.stop();
    let _ = std::fs::remove_dir_all(&st.dir);
    out
}

/// `serve-refit`: a closed loop of full 256-instance transforms against a
/// model wrapped by a `TrainerService`, while a second thread refits it on a
/// fixed cadence.
pub fn refit(ctx: &Ctx) -> Outcome {
    let features = if ctx.toy { 12 } else { 32 };
    let rows = if ctx.toy { 32 } else { 256 };
    let chunks_n = if ctx.toy { 8 } else { 32 };
    let fixture_n = if ctx.toy { 256 } else { 8192 };
    let rank = 4;
    let refit_every = if ctx.toy { 0.2 } else { 2.0 };
    let warmup_s = if ctx.toy { 0.2 } else { 1.0 };
    let mut out = Outcome::default();
    let registry = EstimatorRegistry::with_builtin();

    struct RefitSetup {
        views: Vec<Matrix>,
        fixture: Vec<Matrix>,
        labels: Vec<usize>,
        store: Arc<ModelStore>,
        open_s: f64,
        fit_s: f64,
        trainer: Arc<TrainerService>,
        served: Served,
        pool: FramePool,
        dir: std::path::PathBuf,
    }
    let mut setup_s = Vec::new();
    let mut setup: Option<RefitSetup> = None;
    for rep in 0..SETUPS {
        let dir = ctx.scratch_dir(&format!("refit-{}-{rep}", ctx.seed));
        let (s, taken) = timed(|| {
            let data = secstr_dataset(&SecStrConfig {
                n_instances: fixture_n + chunks_n * rows,
                seed: sub_seed(ctx.seed, 21),
                difficulty: 0.8,
            });
            let views = util::leading_features(data.views(), &[features; 3]);
            let fixture = util::select_instances(&views, &(0..fixture_n).collect::<Vec<_>>());
            let (model, fit_s) = timed(|| {
                registry
                    .fit("TCCA", &fixture, &spec(rank))
                    .expect("fixture fit")
            });
            probes::save_model(&dir, "live", model.as_ref());
            let (store, open_s) = probes::open_store(&dir);
            let engine = Arc::new(BatchEngine::start(
                Arc::clone(&store),
                BatchConfig::default(),
            ));
            let trainer = Arc::new(TrainerService::start(
                Arc::clone(&engine),
                &dir,
                TrainerConfig {
                    reservoir_chunks: chunks_n,
                    ..TrainerConfig::watching("live", spec(rank))
                },
            ));
            let server = Server::bind_service(
                "127.0.0.1:0",
                Arc::clone(&trainer) as Arc<dyn TransformService>,
            )
            .expect("bind server");
            let served = spawn_server(server, engine);
            let rest: Vec<Matrix> = util::select_instances(
                &views,
                &(fixture_n..fixture_n + chunks_n * rows).collect::<Vec<_>>(),
            );
            let pool = FramePool::new(
                probes::chunks_of(&rest, chunks_n, rows)
                    .into_iter()
                    .map(|c| ("live".to_string(), c))
                    .collect(),
            );
            RefitSetup {
                views,
                fixture,
                labels: data.labels().to_vec(),
                store,
                open_s,
                fit_s,
                trainer,
                served,
                pool,
                dir: dir.clone(),
            }
        });
        setup_s.push(taken);
        if let Some(old) = setup.replace(s) {
            old.served.stop();
            drop(old.trainer);
            let _ = std::fs::remove_dir_all(&old.dir);
        }
    }
    let st = setup.expect("at least one set-up");
    out.line(format!(
        "3 views x {features} features, rank {rank}; closed loop of {rows}-instance transforms; refit_now every {refit_every} s over {chunks_n} reservoir chunks"
    ));
    let dim = 3 * rank;
    let check = move |_: usize, z: &Matrix| z.rows() == rows && z.cols() == dim && z.all_finite();

    // Reads beside refits: the refit thread fires at a fixed cadence until the
    // reader stops.
    let with_refits = |f: &mut dyn FnMut() -> LoopResult| -> (LoopResult, Vec<f64>, usize) {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let refits = s.spawn(|| {
                let t0 = Instant::now();
                let mut times = Vec::new();
                let mut errors = 0;
                let mut k = 0;
                while !stop.load(Ordering::SeqCst) {
                    let due = t0 + Duration::from_secs_f64(refit_every * (k as f64 + 0.5));
                    while Instant::now() < due && !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let (r, s) = timed(|| st.trainer.refit_now());
                    if r.is_ok() {
                        times.push(s);
                    } else {
                        errors += 1;
                    }
                    k += 1;
                }
                (times, errors)
            });
            let res = f();
            stop.store(true, Ordering::SeqCst);
            let (times, errors) = refits.join().expect("refit thread");
            (res, times, errors)
        })
    };

    let before = Snapshot::take(&st.served);
    let off = Tracer::new(false);
    let (tcp, refit_s, refit_errors) = with_refits(&mut || {
        closed_loop_tcp(
            &off,
            st.served.addr,
            &st.pool,
            warmup_s,
            Some(ctx.seconds),
            check,
        )
    });
    let after = Snapshot::take(&st.served);
    tcp.report(&mut out, "tcp");
    out.attempted += (tcp.warmup.sent + tcp.timed.sent + refit_s.len() + refit_errors) as u64;
    out.failed += (tcp.failed + refit_errors) as u64;
    out.check("replies finite and shaped", tcp.failed == 0);
    let trainer_errors = counter(&st.trainer.stats(), "trainer/errors");
    out.check(
        "trainer reported no errors",
        trainer_errors == 0 && refit_errors == 0,
    );
    out.line(format!(
        "refit_s = {:.4} s (median of {} refit_now calls beside reads)",
        median(&refit_s),
        refit_s.len()
    ));

    let live = st.store.get("live").expect("live model");
    let (objective, accuracy, rls_s) = quality(
        &[(live.as_ref(), st.views.as_slice())],
        &st.labels,
        sub_seed(ctx.seed, 23),
    );

    let p50 = median(&tcp.latency_ms);
    out.e2e = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("p50_ms", p50, "ms"),
        metric("p90_ms", percentile(&tcp.latency_ms, 90.0), "ms"),
        metric("ops_per_s", tcp.timed.succeeded as f64 / tcp.timed_s, "1/s"),
        metric("peak_rss_mb", util::peak_rss_mb(), "MB"),
        metric("objective", objective, "1"),
        metric("accuracy", accuracy, "fraction"),
    ];

    if ctx.trace {
        let mut layers = Layers::default();
        let half = (ctx.seconds / 2.0).max(0.2);
        let (traced, _, _) = with_refits(&mut || {
            closed_loop_tcp(
                &ctx.tracer,
                st.served.addr,
                &st.pool,
                warmup_s,
                Some(half),
                check,
            )
        });
        layers.set(
            "trace.overhead_frac",
            median(&traced.latency_ms) / p50 - 1.0,
        );
        let (engine_run, _, _) = with_refits(&mut || {
            closed_loop_service(
                &ctx.tracer,
                st.trainer.as_ref(),
                &st.pool,
                warmup_s,
                Some(half),
                check,
            )
        });
        out.check(
            "in-process replies finite and shaped",
            engine_run.failed == 0,
        );
        let live = st.store.get("live").expect("live model");
        let sample: Vec<Arc<Vec<Matrix>>> =
            st.pool.entries.iter().map(|e| Arc::clone(&e.1)).collect();
        let exact =
            probes::request_layers(&ctx.tracer, &mut layers, live.as_ref(), "live", &sample);
        out.check("wire frames round-trip bit-identical", exact);
        request_path_layers(
            &mut layers,
            &tcp.latency_ms,
            &engine_run.latency_ms,
            &before,
            &after,
            tcp.warmup.sent + tcp.timed.sent,
        );
        let steps = vec![probes::fit_steps(
            &ctx.tracer,
            &st.fixture,
            &spec(rank).tcca_options(),
        )];
        probes::fit_layers(&mut layers, &steps, &st.fixture, 15, st.fit_s);
        layers.set("learners.rls_s", rls_s);
        probes::store_layers(&mut layers, &st.store, "live", st.open_s);
        probes::trainer_layers(&mut layers, &st.trainer, &refit_s);
        let (accumulate_s, solve_s, sweeps, _) =
            probes::stream_replay(&ctx.tracer, live.as_ref(), &sample, &spec(rank));
        layers.set("stream.accumulate_s", accumulate_s);
        layers.set("stream.solve_s", solve_s);
        layers.set("stream.solve_sweeps", sweeps as f64);
        p50_attribution(&mut out, &layers, p50);
        let refit_med = median(&refit_s);
        for (name, v) in [
            ("stream.accumulate", accumulate_s),
            ("stream.solve", solve_s),
            ("trainer.swap", layers.get("trainer.swap_ms") / 1e3),
        ] {
            out.line(format!("share of refit_s: {name} = {:.3}", v / refit_med));
            out.summary(&format!("refit_share.{name}"), v / refit_med);
        }
        out.summary("refit_s", refit_med);
        out.layers = layers.metrics();
    }
    st.served.stop();
    drop(st.trainer);
    let _ = std::fs::remove_dir_all(&st.dir);
    out
}
