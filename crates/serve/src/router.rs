//! [`Router`] — shard requests by model name across N serving workers.
//!
//! The router owns a set of **shards**, each one a worker that can answer the full
//! transform surface:
//!
//! * **local** shards — an in-process [`BatchEngine`] over its own [`ModelStore`]
//!   and its own execution [`Pool`], so one shard's heavy batch never starves a
//!   sibling's workers;
//! * **remote** shards — a child process (or any host) speaking the existing frame
//!   protocol, reached through a small pooled-connection [`Client`] set.
//!
//! ## Placement: rendezvous hashing with replication
//!
//! Each request's model name is scored against every shard with rendezvous
//! (highest-random-weight) hashing; the `replication` highest-scoring live shards
//! form the model's **replica set**. Requests rotate round-robin inside the replica
//! set, so a hot model's payload ends up resident on several shards and its traffic
//! spreads — while cold models stay resident on few shards (payload budgets evict
//! what a shard stops seeing). Adding or removing a shard only remaps the models
//! whose top-scoring shard changed — no global reshuffle.
//!
//! ## Failover, retry budgets and deadlines
//!
//! Failover policy is driven by the error taxonomy ([`crate::ErrorClass`]): a
//! **transport** failure (dead socket, stopped engine, protocol corruption)
//! marks the shard dead and re-submits the request to the next candidate; an
//! **overload** verdict fails over *without* marking the shard dead (it is
//! healthy, just full); **terminal** errors (unknown model, shape mismatch,
//! deadline exceeded) are never retried — they would fail identically
//! everywhere. Retries pay from a per-shard **retry budget** (a token bucket
//! refilled by successes), so a stack-wide outage degrades into fast failures
//! instead of a retry storm, and each retry waits out an exponential backoff
//! with seeded deterministic jitter. A request carrying a deadline is dropped
//! the moment it expires, and the *remaining* budget is re-encoded onto the
//! wire for remote shards.
//!
//! ## The live control plane (protocol v5)
//!
//! The shard table is **dynamic**: [`Router::add_shard`] validates a new remote
//! shard (fresh connect + ping) and admits it under a fresh stable id —
//! rendezvous hashing then remaps only the models whose top-scoring shard
//! changed, so admission is an incremental rebalance, not a reshuffle.
//! [`Router::remove_shard`] **drains before removing**: the shard stops
//! receiving new requests (it leaves every candidate list) while in-flight
//! work on it runs to completion; only then does it leave the table (and a
//! local shard's engine stops). Requests never drop across the transition —
//! anything still racing the removal fails over through the normal transport
//! path. The health probe walks the *current* table each pass, so shards added
//! at runtime are probed and removed ones are forgotten.

use crate::batch::{OutputsCallback, ReplyCallback};
use crate::faults::splitmix64;
use crate::service::{store_catalog, TransformService};
use crate::wire::{ModelInfo, NamedOutput, RescanReport, ShardInfo};
use crate::{BatchConfig, BatchEngine, Client, ErrorClass, ModelStore, Result, ServeError};
use linalg::Matrix;
use mvcore::EstimatorRegistry;
use parallel::Pool;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Router knobs.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Size of each model's replica set (clamped to the live shard count).
    pub replication: usize,
    /// Pooled connections kept per remote shard.
    pub connections_per_shard: usize,
    /// Deadline on remote-shard connects, reads and writes. A shard that hangs
    /// (rather than erroring) surfaces as an I/O failure after this long and
    /// fails over, instead of wedging an I/O worker forever. Generous by default:
    /// it must exceed the slowest legitimate batched transform. A request-level
    /// deadline shortens individual attempts below this.
    pub remote_timeout: std::time::Duration,
    /// How often a background probe re-dials shards marked dead. A remote shard
    /// that answers a fresh connect + ping (a restarted child process), or a local
    /// shard whose engine is still running (a failover false positive), returns to
    /// rotation. `Duration::ZERO` disables the probe thread.
    pub probe_interval: std::time::Duration,
    /// Base delay before the first retry; attempt `k` waits up to
    /// `retry_base * 2^k` (capped by [`RouterConfig::retry_max`]), jittered
    /// down to at least half. `Duration::ZERO` retries immediately.
    pub retry_base: std::time::Duration,
    /// Cap on any single retry backoff.
    pub retry_max: std::time::Duration,
    /// Seed for the deterministic backoff jitter — a seeded run replays the
    /// same jitter sequence.
    pub retry_seed: u64,
    /// Per-shard retry budget: a bucket that starts with this many retries and
    /// earns back one retry per eight successes, so retries stay a bounded
    /// fraction of real traffic under sustained failure. `0` disables the
    /// budget (every failover may retry).
    pub retry_budget: u32,
    /// How long [`Router::remove_shard`] waits for in-flight work on the
    /// draining shard to complete before removing it anyway. Work still racing
    /// past the timeout fails over through the normal transport path.
    pub drain_timeout: std::time::Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            replication: 2,
            connections_per_shard: 4,
            remote_timeout: std::time::Duration::from_secs(30),
            probe_interval: std::time::Duration::from_secs(1),
            retry_base: std::time::Duration::from_millis(10),
            retry_max: std::time::Duration::from_millis(500),
            retry_seed: 0,
            retry_budget: 16,
            drain_timeout: std::time::Duration::from_secs(5),
        }
    }
}

/// Counters for observability and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Requests routed to each shard (by shard id).
    pub routed: Vec<usize>,
    /// Requests re-submitted to another shard after a shard failure.
    pub failovers: usize,
    /// Dead shards returned to rotation by the health probe.
    pub revivals: usize,
    /// Failovers denied because the next shard's retry budget was exhausted.
    pub retries_denied: usize,
    /// Requests dropped because their deadline expired before (or between)
    /// attempts.
    pub deadline_drops: usize,
    /// Control-plane operations served (cluster info, shard add, shard remove).
    pub control_ops: usize,
}

/// A per-shard retry token bucket, scaled so a success refills a *fraction* of
/// a retry: starting balance `budget` retries, each retry spends one, each
/// success earns back an eighth — under sustained failure, retries converge to
/// at most one per eight successful requests instead of amplifying the outage.
struct RetryBudget {
    /// Balance in eighths of a retry.
    balance: AtomicI64,
    /// Cap in eighths; `0` disables accounting entirely.
    max: i64,
}

impl RetryBudget {
    const RETRY_COST: i64 = 8;

    fn new(budget: u32) -> Self {
        let max = i64::from(budget) * Self::RETRY_COST;
        Self {
            balance: AtomicI64::new(max),
            max,
        }
    }

    /// Spend one retry; `false` (and no state change) when the bucket is dry.
    fn try_spend(&self) -> bool {
        if self.max == 0 {
            return true;
        }
        let prev = self.balance.fetch_sub(Self::RETRY_COST, Ordering::Relaxed);
        if prev < Self::RETRY_COST {
            self.balance.fetch_add(Self::RETRY_COST, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// A success earns back an eighth of a retry, up to the cap.
    fn refill(&self) {
        if self.max == 0 {
            return;
        }
        let prev = self.balance.fetch_add(1, Ordering::Relaxed);
        if prev >= self.max {
            self.balance.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

enum Backend {
    Local {
        engine: Arc<BatchEngine>,
    },
    Remote {
        addr: String,
        conns: Mutex<Vec<Client>>,
    },
}

/// One serving worker owned by the router.
pub struct Shard {
    id: usize,
    label: String,
    backend: Backend,
    alive: AtomicBool,
    /// Draining shards take no new work (they leave every candidate list) but
    /// finish what they hold — the first half of drain-before-remove.
    draining: AtomicBool,
    /// Requests currently executing on this shard; a drain completes when it
    /// reaches zero.
    inflight: AtomicU64,
    retry: RetryBudget,
}

impl Shard {
    /// Stable shard id (never reused within one router's lifetime).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Human-readable identity: `local-N` or the remote address.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Whether the shard is still considered servable.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Whether the shard is draining ahead of removal.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Requests currently executing on this shard.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Whether this shard takes new work.
    fn accepts_work(&self) -> bool {
        self.is_alive() && !self.is_draining()
    }
}

struct Inner {
    /// The dynamic shard table. Reads (routing, probing, stats) take the read
    /// lock for a snapshot; only control-plane add/remove take the write lock.
    shards: RwLock<Vec<Arc<Shard>>>,
    /// Next id handed to an admitted shard — ids are stable and never reused.
    next_shard_id: AtomicUsize,
    replication: usize,
    connections_per_shard: usize,
    remote_timeout: std::time::Duration,
    drain_timeout: Duration,
    retry_base: Duration,
    retry_max: Duration,
    retry_seed: u64,
    /// Sequence counter feeding the deterministic backoff jitter.
    backoff_seq: AtomicU64,
    /// Executes blocking remote-shard I/O so callers (the event loop!) never wait
    /// on a socket. Sized by the shard count, independent of the kernel pools.
    io_pool: Pool,
    /// Round-robin cursor rotating requests inside a replica set.
    rr: AtomicUsize,
    stats: Mutex<RouterStats>,
}

impl Inner {
    /// A point-in-time copy of the shard table (cheap: clones the `Arc`s).
    fn snapshot(&self) -> Vec<Arc<Shard>> {
        self.shards.read().expect("shard table lock").clone()
    }

    /// Look up a shard by stable id, if it is still in the table.
    fn shard(&self, id: usize) -> Option<Arc<Shard>> {
        self.shards
            .read()
            .expect("shard table lock")
            .iter()
            .find(|s| s.id == id)
            .cloned()
    }

    /// Count a request routed to shard `sid` (the stats vector grows with the
    /// id space — ids of removed shards keep their history).
    fn note_routed(&self, sid: usize) {
        let mut stats = self.stats.lock().expect("router stats lock");
        if stats.routed.len() <= sid {
            stats.routed.resize(sid + 1, 0);
        }
        stats.routed[sid] += 1;
    }
    /// The backoff before retry attempt `k` (0-based): exponential in `k`,
    /// capped, then jittered into `[1/2, 1)` of the cap by a seeded hash —
    /// deterministic for a given `retry_seed` and retry sequence, but spread
    /// enough that synchronized failures don't retry in lockstep.
    fn backoff(&self, k: usize) -> Duration {
        if self.retry_base.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .retry_base
            .saturating_mul(1u32 << k.min(16) as u32)
            .min(self.retry_max);
        let n = self.backoff_seq.fetch_add(1, Ordering::Relaxed);
        let roll = splitmix64(self.retry_seed ^ n) % 500;
        exp.mul_f64(0.5 + roll as f64 / 1000.0)
    }
}

/// A sharded serving tier implementing [`TransformService`] — drop it behind a
/// [`crate::Server`] and the wire protocol fans out over all shards.
pub struct Router {
    inner: Arc<Inner>,
}

/// 64-bit FNV-1a over the model name and shard id — the rendezvous score.
fn rendezvous_score(model: &str, shard_id: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in model.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for b in (shard_id as u64).to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Errors that implicate the *shard* (not the request): worth marking it dead.
/// Defined by the crate-wide taxonomy, not ad-hoc matching.
fn is_shard_failure(e: &ServeError) -> bool {
    e.class() == ErrorClass::Transport
}

/// One shard description held until [`RouterBuilder::build`] (local engines are
/// created at build time, when the shard count — and so each shard's fair slice
/// of the thread budget — is known).
enum PendingShard {
    Local {
        store: Arc<ModelStore>,
        batch: BatchConfig,
    },
    Remote {
        addr: String,
    },
}

/// Builder for a router: add shards, then [`RouterBuilder::build`].
pub struct RouterBuilder {
    config: RouterConfig,
    pending: Vec<PendingShard>,
}

impl RouterBuilder {
    /// Start an empty router description.
    pub fn new(config: RouterConfig) -> Self {
        Self {
            config,
            pending: Vec::new(),
        }
    }

    /// Add an in-process shard serving `store` with its own batch engine and its
    /// own execution pool (one pool per shard — the "pool handle per shard" that
    /// keeps shards from contending for execution slots). The machine's thread
    /// budget ([`parallel::max_threads`]) is divided across the local shards at
    /// build time, so an N-shard router does not oversubscribe the CPU N-fold.
    pub fn local_shard(mut self, store: Arc<ModelStore>, batch: BatchConfig) -> Self {
        self.pending.push(PendingShard::Local { store, batch });
        self
    }

    /// Add a remote shard reached over TCP at `addr` (a `tcca_serve serve` child
    /// process or any wire-protocol speaker).
    pub fn remote_shard(mut self, addr: impl Into<String>) -> Self {
        self.pending
            .push(PendingShard::Remote { addr: addr.into() });
        self
    }

    /// Finish: the shard set is fixed from here on.
    pub fn build(self) -> Router {
        let n = self.pending.len();
        let locals = self
            .pending
            .iter()
            .filter(|p| matches!(p, PendingShard::Local { .. }))
            .count();
        let workers_per_shard = (parallel::max_threads() / locals.max(1)).max(1);
        let retry_budget = self.config.retry_budget;
        let shards: Vec<Arc<Shard>> = self
            .pending
            .into_iter()
            .enumerate()
            .map(|(id, pending)| {
                Arc::new(match pending {
                    PendingShard::Local { store, batch } => {
                        let pool = Arc::new(Pool::new(workers_per_shard));
                        let engine = Arc::new(BatchEngine::start_with_pool(store, batch, pool));
                        Shard {
                            id,
                            label: format!("local-{id}"),
                            backend: Backend::Local { engine },
                            alive: AtomicBool::new(true),
                            draining: AtomicBool::new(false),
                            inflight: AtomicU64::new(0),
                            retry: RetryBudget::new(retry_budget),
                        }
                    }
                    PendingShard::Remote { addr } => Shard {
                        id,
                        label: addr.clone(),
                        backend: Backend::Remote {
                            addr,
                            conns: Mutex::new(Vec::new()),
                        },
                        alive: AtomicBool::new(true),
                        draining: AtomicBool::new(false),
                        inflight: AtomicU64::new(0),
                        retry: RetryBudget::new(retry_budget),
                    },
                })
            })
            .collect();
        let inner = Arc::new(Inner {
            shards: RwLock::new(shards),
            next_shard_id: AtomicUsize::new(n),
            replication: self.config.replication.max(1),
            connections_per_shard: self.config.connections_per_shard.max(1),
            remote_timeout: self.config.remote_timeout,
            drain_timeout: self.config.drain_timeout,
            retry_base: self.config.retry_base,
            retry_max: self.config.retry_max.max(self.config.retry_base),
            retry_seed: self.config.retry_seed,
            backoff_seq: AtomicU64::new(0),
            // Remote calls block a worker each; size for every shard making
            // progress concurrently plus failover headroom.
            io_pool: Pool::new((2 * n).max(4)),
            rr: AtomicUsize::new(0),
            stats: Mutex::new(RouterStats {
                routed: vec![0; n],
                ..RouterStats::default()
            }),
        });
        if !self.config.probe_interval.is_zero() {
            spawn_probe(Arc::downgrade(&inner), self.config.probe_interval);
        }
        Router { inner }
    }
}

/// Background health probe: holds only a `Weak` on the router internals (so a
/// dropped router is not kept alive by its own probe) and wakes every `interval`
/// to re-check dead shards. Sleeps in short steps so the thread notices the
/// router's death within ~50ms rather than a full interval.
fn spawn_probe(weak: std::sync::Weak<Inner>, interval: std::time::Duration) {
    let step = std::time::Duration::from_millis(50).min(interval);
    let spawned = std::thread::Builder::new()
        .name("tcca-router-probe".into())
        .spawn(move || {
            let mut elapsed = std::time::Duration::ZERO;
            loop {
                std::thread::sleep(step);
                let Some(inner) = weak.upgrade() else { return };
                elapsed += step;
                if elapsed >= interval {
                    elapsed = std::time::Duration::ZERO;
                    probe_dead_shards(&inner);
                }
            }
        });
    // A spawn failure only costs revival, not serving — degrade silently.
    drop(spawned);
}

/// One probe pass: every dead shard gets a liveness re-check, and recovered
/// shards return to rotation. A remote shard proves itself with a fresh connect
/// and ping (its old pooled sockets are stale after a restart, so the probe
/// connection seeds the pool). A local shard recovers only from a failover
/// false positive: its engine runs in-process, so a *stopped* engine is gone
/// for good and the shard stays dead.
///
/// The probe walks a snapshot of the *current* table each pass: shards admitted
/// at runtime are probed from their first dead moment, and removed shards are
/// never dialled again.
fn probe_dead_shards(inner: &Inner) {
    for shard in inner.snapshot() {
        if shard.is_alive() || shard.is_draining() {
            continue;
        }
        let recovered = match &shard.backend {
            Backend::Local { engine } => !engine.is_stopped(),
            Backend::Remote { addr, conns } => {
                match Client::connect_timeout(addr, inner.remote_timeout) {
                    Ok(mut client) => {
                        if client.ping().is_ok() {
                            let mut pool = conns.lock().expect("shard connection pool lock");
                            pool.clear(); // pre-restart sockets are all stale
                            pool.push(client);
                            true
                        } else {
                            false
                        }
                    }
                    Err(_) => false,
                }
            }
        };
        if recovered {
            shard.alive.store(true, Ordering::SeqCst);
            inner.stats.lock().expect("router stats lock").revivals += 1;
        }
    }
}

impl Router {
    /// A router over `n` in-process shards, each indexing `dir` with its own store
    /// (independent lazy payload caches — replicas warm up only what they serve).
    pub fn open_local(
        dir: impl AsRef<Path>,
        n: usize,
        batch: BatchConfig,
        config: RouterConfig,
    ) -> Result<Self> {
        let mut builder = RouterBuilder::new(config);
        for _ in 0..n.max(1) {
            let store = Arc::new(ModelStore::open(EstimatorRegistry::with_builtin(), &dir)?);
            builder = builder.local_shard(store, batch);
        }
        Ok(builder.build())
    }

    /// A snapshot of the shard table, in admission order.
    pub fn shards(&self) -> Vec<Arc<Shard>> {
        self.inner.snapshot()
    }

    /// Ids of shards still considered live.
    pub fn live_shards(&self) -> Vec<usize> {
        self.inner
            .snapshot()
            .iter()
            .filter(|s| s.is_alive())
            .map(|s| s.id)
            .collect()
    }

    /// Kill a shard administratively: mark it dead and stop its engine (local
    /// shards). New requests never route to it.
    pub fn kill_shard(&self, id: usize) {
        if let Some(shard) = self.inner.shard(id) {
            shard.alive.store(false, Ordering::SeqCst);
            if let Backend::Local { engine } = &shard.backend {
                engine.stop();
            }
        }
    }

    /// Crash a local shard *without telling the router* — the engine stops but the
    /// shard stays in the routing table, exactly like a child process dying under
    /// a remote shard. The next request routed to it fails, gets failed over, and
    /// only then is the shard marked dead. Tests and the failover smoke use this.
    pub fn crash_shard(&self, id: usize) {
        if let Some(shard) = self.inner.shard(id) {
            if let Backend::Local { engine } = &shard.backend {
                engine.stop();
            }
        }
    }

    /// Mark a shard dead *without* touching its backend — what failover does when
    /// a request-level transport error implicates a shard. Unlike
    /// [`Router::kill_shard`] the backend keeps running, so the health probe (or
    /// [`Router::probe_now`]) can prove it healthy and return it to rotation.
    pub fn mark_dead(&self, id: usize) {
        if let Some(shard) = self.inner.shard(id) {
            shard.alive.store(false, Ordering::SeqCst);
        }
    }

    /// The cluster membership table (what the v5 `ClusterInfo` op returns).
    pub fn cluster_snapshot(&self) -> Vec<ShardInfo> {
        let routed = {
            let stats = self.inner.stats.lock().expect("router stats lock");
            stats.routed.clone()
        };
        self.inner
            .snapshot()
            .iter()
            .map(|s| ShardInfo {
                id: s.id as u64,
                label: s.label.clone(),
                alive: s.is_alive(),
                draining: s.is_draining(),
                inflight: s.inflight(),
                routed: routed.get(s.id).copied().unwrap_or(0) as u64,
            })
            .collect()
    }

    /// Run one health-probe pass synchronously (the background thread does the
    /// same on its own clock). Deterministic revival for tests and operators.
    pub fn probe_now(&self) {
        probe_dead_shards(&self.inner);
    }

    /// Counters since start.
    pub fn stats(&self) -> RouterStats {
        self.inner.stats.lock().expect("router stats lock").clone()
    }

    /// The failover candidate order for a model: the replica set (top-`replication`
    /// live shards by rendezvous score, rotated round-robin), then every other live
    /// shard as a last resort.
    fn candidates(&self, model: &str) -> Vec<usize> {
        let inner = &self.inner;
        let mut scored: Vec<(u64, usize)> = inner
            .snapshot()
            .iter()
            .filter(|s| s.accepts_work())
            .map(|s| (rendezvous_score(model, s.id), s.id))
            .collect();
        scored.sort_unstable_by(|a, b| b.cmp(a));
        let ids: Vec<usize> = scored.into_iter().map(|(_, id)| id).collect();
        if ids.is_empty() {
            return ids;
        }
        let r = inner.replication.min(ids.len());
        let start = inner.rr.fetch_add(1, Ordering::Relaxed) % r;
        let mut out = Vec::with_capacity(ids.len());
        for k in 0..ids.len() {
            if k < r {
                out.push(ids[(start + k) % r]);
            } else {
                out.push(ids[k]);
            }
        }
        out
    }
}

/// How one attempt of an op executes on one shard. `Fn` (not `FnOnce`) because a
/// failover re-runs it against the next candidate.
type Attempt<T> =
    Arc<dyn Fn(&Arc<Inner>, &Arc<Shard>, Box<dyn FnOnce(Result<T>) + Send>) + Send + Sync>;

/// Try candidates in order, failing over per the error taxonomy: transport
/// failures mark the shard dead and move on, overload verdicts move on without
/// an accusation, terminal errors stop immediately. A failover must win a
/// token from the *next* shard's retry budget and wait out a jittered
/// exponential backoff (scheduled on the I/O pool — nothing here blocks the
/// submitting thread). An expired deadline fails the request in-band before a
/// dead answer is computed. Each attempt's continuation recurses from whatever
/// thread completed it (pool worker or the submitting thread on fast-fail
/// paths).
///
/// Candidates are *stable ids*, resolved against the live table at attempt
/// time — a shard removed since the candidate list was computed is skipped,
/// not routed to. Each attempt holds the shard's in-flight count for its whole
/// duration, which is what drain-before-remove waits on.
fn try_shards<T: Send + 'static>(
    inner: Arc<Inner>,
    candidates: Vec<usize>,
    idx: usize,
    deadline: Option<Instant>,
    attempt: Attempt<T>,
    reply: Box<dyn FnOnce(Result<T>) + Send>,
) {
    let Some(&sid) = candidates.get(idx) else {
        return reply(Err(ServeError::NoLiveShards));
    };
    // Resolve the stable id against the *current* table: a shard the control
    // plane removed mid-request is skipped without spending a retry token.
    let Some(shard) = inner.shard(sid) else {
        return try_shards(inner, candidates, idx + 1, deadline, attempt, reply);
    };
    if deadline.is_some_and(|d| Instant::now() >= d) {
        inner
            .stats
            .lock()
            .expect("router stats lock")
            .deadline_drops += 1;
        return reply(Err(ServeError::DeadlineExceeded(
            "deadline passed before the request reached a shard".into(),
        )));
    }
    inner.note_routed(sid);
    shard.inflight.fetch_add(1, Ordering::SeqCst);
    let inner2 = Arc::clone(&inner);
    let attempt2 = Arc::clone(&attempt);
    let shard2 = Arc::clone(&shard);
    let cont: Box<dyn FnOnce(Result<T>) + Send> = Box::new(move |result| {
        // The attempt is over either way: release the drain gate before
        // anything else (a failover must not hold the dying shard's drain).
        shard2.inflight.fetch_sub(1, Ordering::SeqCst);
        match result {
            Ok(value) => {
                shard2.retry.refill();
                reply(Ok(value));
            }
            Err(e) => match e.class() {
                ErrorClass::Terminal => reply(Err(e)),
                class => {
                    if class == ErrorClass::Transport {
                        shard2.alive.store(false, Ordering::SeqCst);
                    }
                    let Some(&next) = candidates.get(idx + 1) else {
                        return reply(Err(e));
                    };
                    // A removed next candidate is a skip, not a retry: recurse
                    // without charging anyone's budget.
                    let Some(next_shard) = inner2.shard(next) else {
                        return try_shards(inner2, candidates, idx + 1, deadline, attempt2, reply);
                    };
                    if !next_shard.retry.try_spend() {
                        inner2
                            .stats
                            .lock()
                            .expect("router stats lock")
                            .retries_denied += 1;
                        return reply(Err(e));
                    }
                    inner2.stats.lock().expect("router stats lock").failovers += 1;
                    // Never sleep past the deadline: an expired request should get
                    // its in-band verdict promptly, not after a full backoff.
                    let mut delay = inner2.backoff(idx);
                    if let Some(d) = deadline {
                        delay = delay.min(d.saturating_duration_since(Instant::now()));
                    }
                    let inner3 = Arc::clone(&inner2);
                    inner2.io_pool.spawn(move || {
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                        try_shards(inner3, candidates, idx + 1, deadline, attempt2, reply);
                    });
                }
            },
        }
    });
    attempt(&inner, &shard, cont);
}

/// Run a blocking remote call through the shard's connection pool. Connections
/// return to the pool after a success *or* a clean in-band error reply (the frame
/// boundary held, so the stream is still synchronized); they are dropped only on
/// transport-level failures, where the stream state is unknown. A transport
/// failure on a *pooled* connection is retried once on a fresh connection before
/// it counts against the shard — a restarted shard at the same address (whose old
/// sockets are all stale) must not be declared dead by its own redeploy. Fresh
/// connections carry the router's remote timeout so a hung shard fails over
/// instead of wedging an I/O worker.
fn with_remote_conn<T>(
    inner: &Inner,
    shard: &Shard,
    f: impl Fn(&mut Client) -> Result<T>,
) -> Result<T> {
    let Backend::Remote { addr, conns } = &shard.backend else {
        return Err(ServeError::Protocol("not a remote shard".into()));
    };
    // A clean in-band reply (the frame boundary held, so the stream is still
    // synchronized) returns the connection to the pool — including overload and
    // deadline verdicts, which say nothing about the socket's health.
    let clean = |r: &Result<T>| {
        matches!(
            r,
            Ok(_)
                | Err(ServeError::Remote(_))
                | Err(ServeError::Overloaded(_))
                | Err(ServeError::DeadlineExceeded(_))
        )
    };
    let pool_back = |mut client: Client| {
        // Undo any per-request deadline shortening before the next borrower.
        client.set_op_timeout(Some(inner.remote_timeout));
        let mut pool = conns.lock().expect("shard connection pool lock");
        if pool.len() < inner.connections_per_shard {
            pool.push(client);
        }
    };
    // Bind the pop outside the `if let` so the pool guard (a scrutinee temporary,
    // which would otherwise live for the whole body) is released before `f` runs —
    // `pool_back` re-locks the same mutex.
    let pooled = conns.lock().expect("shard connection pool lock").pop();
    if let Some(mut client) = pooled {
        let result = f(&mut client);
        match result {
            Err(ref e) if is_shard_failure(e) => {} // stale socket? try fresh below
            other => {
                if clean(&other) {
                    pool_back(client);
                }
                return other;
            }
        }
    }
    let mut client = Client::connect_timeout(addr, inner.remote_timeout)?;
    let result = f(&mut client);
    if clean(&result) {
        pool_back(client);
    }
    result
}

/// Arm a remote attempt against the request deadline: the socket timeout drops
/// to the time remaining (never above the router's remote timeout), and the
/// remaining budget in milliseconds is returned for in-band propagation — the
/// shard sheds the work itself if it can't finish in time.
fn arm_deadline(
    c: &mut Client,
    deadline: Option<Instant>,
    remote_timeout: Duration,
) -> Option<u32> {
    let d = deadline?;
    let left = d
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1));
    c.set_op_timeout(Some(left.min(remote_timeout)));
    Some(left.as_millis().min(u128::from(u32::MAX)) as u32)
}

impl TransformService for Router {
    fn submit_transform(
        &self,
        model: &str,
        inputs: Arc<Vec<Matrix>>,
        deadline: Option<Instant>,
        reply: ReplyCallback,
    ) {
        let candidates = self.candidates(model);
        let model = model.to_string();
        // Each retryable attempt clones the `Arc` handle, never the matrices: on
        // the zero-failover happy path the request buffers the server decoded are
        // the very ones the winning shard's engine reads.
        let attempt: Attempt<Matrix> = Arc::new(move |inner, shard, cb| match &shard.backend {
            Backend::Local { engine } => {
                engine.submit_transform(&model, Arc::clone(&inputs), deadline, cb)
            }
            Backend::Remote { .. } => {
                let inner = Arc::clone(inner);
                let shard = Arc::clone(shard);
                let model = model.clone();
                let inputs = Arc::clone(&inputs);
                inner.clone().io_pool.spawn(move || {
                    cb(with_remote_conn(&inner, &shard, |c| {
                        match arm_deadline(c, deadline, inner.remote_timeout) {
                            Some(ms) => c.transform_deadline(&model, &inputs, ms),
                            None => c.transform(&model, &inputs),
                        }
                    }));
                });
            }
        });
        try_shards(
            Arc::clone(&self.inner),
            candidates,
            0,
            deadline,
            attempt,
            reply,
        );
    }

    fn submit_transform_view(
        &self,
        model: &str,
        which: usize,
        input: Arc<Matrix>,
        deadline: Option<Instant>,
        reply: ReplyCallback,
    ) {
        let candidates = self.candidates(model);
        let model = model.to_string();
        let attempt: Attempt<Matrix> = Arc::new(move |inner, shard, cb| match &shard.backend {
            Backend::Local { engine } => {
                engine.submit_transform_view(&model, which, Arc::clone(&input), deadline, cb)
            }
            Backend::Remote { .. } => {
                let inner = Arc::clone(inner);
                let shard = Arc::clone(shard);
                let model = model.clone();
                let input = Arc::clone(&input);
                inner.clone().io_pool.spawn(move || {
                    cb(with_remote_conn(&inner, &shard, |c| {
                        match arm_deadline(c, deadline, inner.remote_timeout) {
                            Some(ms) => c.transform_view_deadline(&model, which, &input, ms),
                            None => c.transform_view(&model, which, &input),
                        }
                    }));
                });
            }
        });
        try_shards(
            Arc::clone(&self.inner),
            candidates,
            0,
            deadline,
            attempt,
            reply,
        );
    }

    fn submit_outputs(
        &self,
        model: &str,
        inputs: Arc<Vec<Matrix>>,
        deadline: Option<Instant>,
        reply: OutputsCallback,
    ) {
        let candidates = self.candidates(model);
        let model = model.to_string();
        let attempt: Attempt<Vec<NamedOutput>> =
            Arc::new(move |inner, shard, cb| match &shard.backend {
                Backend::Local { engine } => {
                    engine.submit_outputs(&model, Arc::clone(&inputs), deadline, cb)
                }
                Backend::Remote { .. } => {
                    let inner = Arc::clone(inner);
                    let shard = Arc::clone(shard);
                    let model = model.clone();
                    let inputs = Arc::clone(&inputs);
                    inner.clone().io_pool.spawn(move || {
                        cb(with_remote_conn(&inner, &shard, |c| {
                            match arm_deadline(c, deadline, inner.remote_timeout) {
                                Some(ms) => c.outputs_deadline(&model, &inputs, ms),
                                None => c.outputs(&model, &inputs),
                            }
                        }));
                    });
                }
            });
        try_shards(
            Arc::clone(&self.inner),
            candidates,
            0,
            deadline,
            attempt,
            reply,
        );
    }

    /// The union of every live shard's catalog (first shard wins on name clashes).
    fn catalog(&self) -> Result<Vec<ModelInfo>> {
        let mut merged: BTreeMap<String, ModelInfo> = BTreeMap::new();
        let mut last_err = None;
        let mut reached = 0usize;
        for shard in self.inner.snapshot().iter().filter(|s| s.is_alive()) {
            let listed = match &shard.backend {
                Backend::Local { engine } => Ok(store_catalog(engine.store())),
                Backend::Remote { .. } => with_remote_conn(&self.inner, shard, |c| c.list_models()),
            };
            match listed {
                Ok(models) => {
                    reached += 1;
                    for info in models {
                        merged.entry(info.name.clone()).or_insert(info);
                    }
                }
                Err(e) => {
                    if is_shard_failure(&e) {
                        shard.alive.store(false, Ordering::SeqCst);
                    }
                    last_err = Some(e);
                }
            }
        }
        match (reached, last_err) {
            (0, Some(e)) => Err(e),
            (0, None) => Err(ServeError::NoLiveShards),
            _ => Ok(merged.into_values().collect()),
        }
    }

    /// Shard-aware registration: forward the rescan to every live shard so new
    /// `.mvm` files become servable everywhere without a restart.
    fn rescan(&self) -> Result<RescanReport> {
        let mut total = RescanReport::default();
        let mut reached = 0usize;
        let mut last_err = None;
        for shard in self.inner.snapshot().iter().filter(|s| s.is_alive()) {
            let report = match &shard.backend {
                Backend::Local { engine } => engine.store().rescan(),
                Backend::Remote { .. } => with_remote_conn(&self.inner, shard, |c| c.rescan()),
            };
            match report {
                Ok(r) => {
                    reached += 1;
                    total.merge(r);
                }
                Err(e) => {
                    if is_shard_failure(&e) {
                        shard.alive.store(false, Ordering::SeqCst);
                    }
                    last_err = Some(e);
                }
            }
        }
        match (reached, last_err) {
            (0, Some(e)) => Err(e),
            (0, None) => Err(ServeError::NoLiveShards),
            _ => Ok(total),
        }
    }

    /// Counters summed by name across every live shard, plus the router's own
    /// (`router/failovers`, `router/revivals`, `router/routed`).
    fn stats(&self) -> Vec<(String, u64)> {
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        for shard in self.inner.snapshot().iter().filter(|s| s.is_alive()) {
            let counters = match &shard.backend {
                Backend::Local { engine } => Ok(engine.stats().counters()),
                Backend::Remote { .. } => with_remote_conn(&self.inner, shard, |c| c.stats()),
            };
            if let Ok(counters) = counters {
                for (name, value) in counters {
                    *merged.entry(name).or_insert(0) += value;
                }
            }
        }
        {
            let own = self.inner.stats.lock().expect("router stats lock");
            merged.insert("router/failovers".into(), own.failovers as u64);
            merged.insert("router/revivals".into(), own.revivals as u64);
            merged.insert(
                "router/routed".into(),
                own.routed.iter().sum::<usize>() as u64,
            );
            merged.insert("router/retries_denied".into(), own.retries_denied as u64);
            merged.insert("router/deadline_drops".into(), own.deadline_drops as u64);
            merged.insert("router/control_ops".into(), own.control_ops as u64);
        }
        merged.into_iter().collect()
    }

    /// The live membership table (v5 `ClusterInfo`).
    fn cluster(&self) -> Result<Vec<ShardInfo>> {
        self.inner
            .stats
            .lock()
            .expect("router stats lock")
            .control_ops += 1;
        Ok(self.cluster_snapshot())
    }

    /// Validate and admit a remote shard (v5 `AddShard`): a fresh connect and
    /// ping must succeed before the shard enters the table (the probe
    /// connection seeds its pool), so a typo'd address is an in-band error,
    /// never a dead shard in rotation. Rendezvous hashing remaps only the
    /// models whose top-scoring shard changed.
    fn add_shard(&self, addr: &str) -> Result<Vec<ShardInfo>> {
        self.inner
            .stats
            .lock()
            .expect("router stats lock")
            .control_ops += 1;
        let mut client = Client::connect_timeout(addr, self.inner.remote_timeout)?;
        client.ping()?;
        let id = self.inner.next_shard_id.fetch_add(1, Ordering::SeqCst);
        let shard = Arc::new(Shard {
            id,
            label: addr.to_string(),
            backend: Backend::Remote {
                addr: addr.to_string(),
                conns: Mutex::new(vec![client]),
            },
            alive: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            retry: RetryBudget::new({
                // Match the budget the built shards got: reconstruct from any
                // existing shard's cap, falling back to the config default.
                let snapshot = self.inner.snapshot();
                snapshot
                    .first()
                    .map(|s| (s.retry.max / RetryBudget::RETRY_COST) as u32)
                    .unwrap_or(RouterConfig::default().retry_budget)
            }),
        });
        self.inner
            .shards
            .write()
            .expect("shard table lock")
            .push(shard);
        Ok(self.cluster_snapshot())
    }

    /// Drain and remove a shard (v5 `RemoveShard`): mark it draining (new
    /// requests stop routing to it immediately), wait for its in-flight count
    /// to reach zero (bounded by [`RouterConfig::drain_timeout`]), then take it
    /// out of the table — stopping a local shard's engine only after the
    /// drain, so completed work is never thrown away. Runs on the server's
    /// control thread, never the event loop.
    fn remove_shard(&self, shard_id: u64) -> Result<Vec<ShardInfo>> {
        self.inner
            .stats
            .lock()
            .expect("router stats lock")
            .control_ops += 1;
        let id = usize::try_from(shard_id)
            .map_err(|_| ServeError::Remote(format!("no shard with id {shard_id}")))?;
        let Some(shard) = self.inner.shard(id) else {
            return Err(ServeError::Remote(format!("no shard with id {shard_id}")));
        };
        shard.draining.store(true, Ordering::SeqCst);
        // Wait out the in-flight work this shard still holds. Requests that
        // raced the draining flag hold the count too, so they finish (or fail
        // over) before the shard disappears.
        let deadline = Instant::now() + self.inner.drain_timeout;
        while shard.inflight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            let mut table = self.inner.shards.write().expect("shard table lock");
            table.retain(|s| s.id != id);
        }
        if let Backend::Local { engine } = &shard.backend {
            engine.stop();
        }
        Ok(self.cluster_snapshot())
    }

    /// Forward the refit trigger to every live *remote* shard (a local engine has
    /// no trainer — the trainer wraps the engine, and a trainer-wrapped backend is
    /// served directly, not through a router's local shard). Counter snapshots are
    /// summed by name; an error only surfaces when no shard accepted the trigger.
    fn trigger_refit(&self) -> Result<Vec<(String, u64)>> {
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        let mut reached = 0usize;
        let mut last_err = None;
        for shard in self.inner.snapshot().iter().filter(|s| s.is_alive()) {
            if let Backend::Remote { .. } = &shard.backend {
                match with_remote_conn(&self.inner, shard, |c| c.refit()) {
                    Ok(counters) => {
                        reached += 1;
                        for (name, value) in counters {
                            *merged.entry(name).or_insert(0) += value;
                        }
                    }
                    Err(e) => {
                        if is_shard_failure(&e) {
                            shard.alive.store(false, Ordering::SeqCst);
                        }
                        last_err = Some(e);
                    }
                }
            }
        }
        match (reached, last_err) {
            (0, Some(e)) => Err(e),
            (0, None) => Err(ServeError::Remote(
                "no live shard has a trainer attached".into(),
            )),
            _ => Ok(merged.into_iter().collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::{secstr_dataset, SecStrConfig};
    use mvcore::FitSpec;
    use std::time::Duration;

    fn fixture_views() -> Vec<Matrix> {
        let data = secstr_dataset(&SecStrConfig {
            n_instances: 24,
            seed: 21,
            difficulty: 0.8,
        });
        data.views()
            .iter()
            .map(|v| v.select_rows(&(0..6.min(v.rows())).collect::<Vec<_>>()))
            .collect()
    }

    fn tmp_models_dir(tag: &str, views: &[Matrix], names: &[&str]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tcca-router-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let registry = EstimatorRegistry::with_builtin();
        let writer = ModelStore::new(EstimatorRegistry::with_builtin());
        for name in names {
            let model = registry
                .fit("PCA", views, &FitSpec::with_rank(2).epsilon(1e-2).seed(2))
                .unwrap();
            writer.save(&dir, name, model.as_ref()).unwrap();
        }
        dir
    }

    fn router_over(dir: &std::path::Path, n: usize) -> Router {
        Router::open_local(
            dir,
            n,
            BatchConfig {
                max_batch: 64,
                max_wait: Duration::from_millis(1),
                ..BatchConfig::default()
            },
            RouterConfig {
                replication: 2,
                connections_per_shard: 2,
                // Retry instantly: these tests provoke failover on purpose and
                // assert on outcomes, not pacing.
                retry_base: Duration::ZERO,
                ..RouterConfig::default()
            },
        )
        .unwrap()
    }

    /// Blocking helper mirroring `BatchEngine::transform`.
    fn transform(router: &Router, model: &str, inputs: Vec<Matrix>) -> Result<Matrix> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        router.submit_transform(
            model,
            Arc::new(inputs),
            None,
            Box::new(move |r| drop(tx.send(r))),
        );
        rx.recv().expect("router reply")
    }

    #[test]
    fn routes_by_model_name_within_the_replica_set() {
        let views = fixture_views();
        let dir = tmp_models_dir("route", &views, &["a", "b", "c", "d"]);
        let router = router_over(&dir, 4);
        let expected = router.shards()[0].id;
        assert_eq!(expected, 0);

        for _ in 0..3 {
            for name in ["a", "b", "c", "d"] {
                let z = transform(&router, name, views.clone()).unwrap();
                assert_eq!(z.rows(), views[0].cols());
            }
        }
        let stats = router.stats();
        assert_eq!(stats.failovers, 0);
        assert_eq!(stats.routed.iter().sum::<usize>(), 12);
        // Replication 2 of 4 shards: every model's traffic stays inside a 2-shard
        // replica set, so with 4 models at least 2 shards must have seen traffic,
        // and round-robin inside the set spreads it.
        let active = stats.routed.iter().filter(|&&n| n > 0).count();
        assert!(active >= 2, "routed: {:?}", stats.routed);

        // The same model always lands in the same replica set: candidate lists for
        // one name only ever rotate within their first `replication` entries.
        let c1 = router.candidates("a");
        let c2 = router.candidates("a");
        let mut head1 = c1[..2].to_vec();
        let mut head2 = c2[..2].to_vec();
        head1.sort_unstable();
        head2.sort_unstable();
        assert_eq!(head1, head2);
        assert_eq!(c1[2..], c2[2..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killing_a_shard_fails_over_mid_stream() {
        let views = fixture_views();
        let dir = tmp_models_dir("failover", &views, &["m0", "m1"]);
        let router = router_over(&dir, 3);
        let direct = transform(&router, "m0", views.clone()).unwrap();

        // Crash two of the three shards *without telling the router*: the routing
        // table still lists them, so requests keep landing on dead shards, fail
        // over mid-request, and succeed bit-identically on the survivor. (The
        // replica set rotates round-robin, so within two requests at least one
        // must hit a crashed primary.)
        router.crash_shard(0);
        router.crash_shard(1);
        for _ in 0..4 {
            let z = transform(&router, "m0", views.clone()).unwrap();
            assert_eq!(z, direct, "failover changed the embedding");
        }
        assert!(router.stats().failovers >= 1);
        assert!(
            router.shards()[2].is_alive(),
            "the survivor must stay alive"
        );
        assert!(
            router.live_shards().len() < 3,
            "crashed shards must be discovered and marked dead"
        );

        // Killing every shard exhausts the candidates.
        for id in router.live_shards() {
            router.kill_shard(id);
        }
        assert!(matches!(
            transform(&router, "m0", views.clone()),
            Err(ServeError::NoLiveShards)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catalog_and_rescan_merge_across_shards() {
        let views = fixture_views();
        let dir = tmp_models_dir("merge", &views, &["x"]);
        let router = router_over(&dir, 2);
        let catalog = router.catalog().unwrap();
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog[0].name, "x");

        // A new model dropped into the directory reaches every shard via rescan.
        let registry = EstimatorRegistry::with_builtin();
        let model = registry
            .fit("PCA", &views, &FitSpec::with_rank(2).epsilon(1e-2).seed(8))
            .unwrap();
        ModelStore::new(EstimatorRegistry::with_builtin())
            .save(&dir, "y", model.as_ref())
            .unwrap();
        let report = router.rescan().unwrap();
        assert_eq!(report.added, 2, "both shards must index the new file");
        assert!(transform(&router, "y", views.clone()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_revives_a_falsely_accused_shard_but_not_a_stopped_one() {
        let views = fixture_views();
        let dir = tmp_models_dir("revive", &views, &["m"]);
        let router = router_over(&dir, 2);

        // Failover false positive: the shard is marked dead but its engine still
        // runs, so one probe pass proves it healthy and restores it to rotation.
        router.mark_dead(0);
        assert_eq!(router.live_shards(), vec![1]);
        router.probe_now();
        assert_eq!(router.live_shards(), vec![0, 1]);
        assert_eq!(router.stats().revivals, 1);

        // A stopped in-process engine is gone for good: the probe must not lie.
        router.kill_shard(0);
        router.probe_now();
        assert_eq!(router.live_shards(), vec![1]);
        assert_eq!(router.stats().revivals, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_probe_restores_rotation_without_an_explicit_pass() {
        let views = fixture_views();
        let dir = tmp_models_dir("bg-revive", &views, &["m"]);
        let router = Router::open_local(
            &dir,
            2,
            BatchConfig {
                max_batch: 64,
                max_wait: Duration::from_millis(1),
                ..BatchConfig::default()
            },
            RouterConfig {
                probe_interval: Duration::from_millis(100),
                ..RouterConfig::default()
            },
        )
        .unwrap();

        router.mark_dead(1);
        assert_eq!(router.live_shards(), vec![0]);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while router.live_shards().len() < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "background probe never revived the shard"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(router.stats().revivals >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_sum_across_shards_and_include_router_counters() {
        let views = fixture_views();
        let dir = tmp_models_dir("stats", &views, &["m"]);
        let router = router_over(&dir, 2);
        let _ = transform(&router, "m", views.clone()).unwrap();
        let stats = TransformService::stats(&router);
        let get = |name: &str| {
            stats
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing counter {name}: {stats:?}"))
        };
        assert_eq!(get("requests"), 1, "engine counters must be summed in");
        assert_eq!(get("router/routed"), 1);
        assert_eq!(get("router/failovers"), 0);
        // No shard carries a trainer, so the trigger must report that cleanly.
        assert!(router.trigger_refit().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_budget_spends_and_refills_at_the_documented_ratio() {
        let budget = RetryBudget::new(2); // 2 retries banked
        assert!(budget.try_spend());
        assert!(budget.try_spend());
        assert!(!budget.try_spend(), "bucket must run dry after its balance");
        // Eight successes earn back exactly one retry.
        for _ in 0..7 {
            budget.refill();
            assert!(!budget.try_spend());
        }
        budget.refill();
        assert!(budget.try_spend());
        assert!(!budget.try_spend());
        // Refills cap at the starting balance.
        for _ in 0..1000 {
            budget.refill();
        }
        assert!(budget.try_spend());
        assert!(budget.try_spend());
        assert!(!budget.try_spend());
        // Budget 0 disables accounting.
        let unlimited = RetryBudget::new(0);
        for _ in 0..100 {
            assert!(unlimited.try_spend());
        }
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered_in_band() {
        let views = fixture_views();
        let dir = tmp_models_dir("backoff", &views, &["m"]);
        let seq = |seed: u64| -> Vec<Duration> {
            let router = Router::open_local(
                &dir,
                1,
                BatchConfig::default(),
                RouterConfig {
                    retry_base: Duration::from_millis(10),
                    retry_max: Duration::from_millis(100),
                    retry_seed: seed,
                    probe_interval: Duration::ZERO,
                    ..RouterConfig::default()
                },
            )
            .unwrap();
            (0..8).map(|k| router.inner.backoff(k)).collect()
        };
        let a = seq(1);
        let b = seq(1);
        assert_eq!(a, b, "same seed must replay the same jitter sequence");
        assert_ne!(a, seq(2), "different seeds must diverge");
        for (k, &d) in a.iter().enumerate() {
            let cap = Duration::from_millis(10)
                .saturating_mul(1 << k as u32)
                .min(Duration::from_millis(100));
            assert!(
                d >= cap / 2 && d < cap,
                "attempt {k}: backoff {d:?} outside [{:?}, {cap:?})",
                cap / 2
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_deadline_is_dropped_in_band_before_any_shard_runs() {
        let views = fixture_views();
        let dir = tmp_models_dir("deadline", &views, &["m"]);
        let router = router_over(&dir, 2);
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        router.submit_transform(
            "m",
            Arc::new(views.clone()),
            Some(Instant::now() - Duration::from_millis(1)),
            Box::new(move |r| drop(tx.send(r))),
        );
        match rx.recv().expect("router reply") {
            Err(ServeError::DeadlineExceeded(_)) => {}
            other => panic!("expected an in-band deadline verdict, got {other:?}"),
        }
        let stats = router.stats();
        assert_eq!(stats.deadline_drops, 1);
        assert_eq!(
            stats.routed.iter().sum::<usize>(),
            0,
            "a dead request must never be routed"
        );
        // A generous deadline sails through.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        router.submit_transform(
            "m",
            Arc::new(views.clone()),
            Some(Instant::now() + Duration::from_secs(30)),
            Box::new(move |r| drop(tx.send(r))),
        );
        assert!(rx.recv().expect("router reply").is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_retry_budget_denies_failover_in_band() {
        let views = fixture_views();
        let dir = tmp_models_dir("retry-deny", &views, &["m"]);
        let router = Router::open_local(
            &dir,
            2,
            BatchConfig::default(),
            RouterConfig {
                retry_base: Duration::ZERO,
                probe_interval: Duration::ZERO,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        // Drain every shard's bucket, then crash a shard: failover has no
        // tokens left, so the transport error surfaces instead of a retry.
        for shard in router.shards() {
            while shard.retry.try_spend() {}
        }
        router.crash_shard(0);
        router.crash_shard(1);
        let err = transform(&router, "m", views.clone()).unwrap_err();
        assert!(is_shard_failure(&err), "expected the raw failure: {err}");
        assert!(router.stats().retries_denied >= 1);
        assert_eq!(router.stats().failovers, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rendezvous_scores_are_stable_and_spread() {
        // Stability: same inputs, same score.
        assert_eq!(rendezvous_score("m", 3), rendezvous_score("m", 3));
        // Different shards get different scores for the same model.
        let scores: std::collections::BTreeSet<u64> =
            (0..8).map(|s| rendezvous_score("model", s)).collect();
        assert_eq!(scores.len(), 8);
    }
}
