//! [`ModelStore`]: name → fitted model, backed by a directory of `.mvm` files.
//!
//! The store indexes a directory by reading only the `MVTC` *headers* (method,
//! embedding width, view count, input kind, payload checksum) — cheap even for large
//! factor matrices — and deserializes a model's payload lazily on first use. Models
//! may also be inserted directly (a freshly fitted model being promoted to serving
//! without a disk round-trip).
//!
//! ## Live lifecycle
//!
//! A store opened over a directory remembers it, and [`ModelStore::rescan`] makes
//! new `.mvm` files servable **without a restart**: new files are indexed, files
//! whose mtime/size/checksum changed get their header re-read and their cached
//! payload dropped (the next request deserializes the new bytes), and entries whose
//! backing file vanished are removed. Corrupt files encountered during a rescan are skipped
//! — a live server must not die because someone half-copied a model in.
//!
//! [`ModelStore::set_payload_budget`] bounds resident deserialized payload bytes:
//! after every lazy load the least-recently-used disk-backed payloads are evicted
//! until the budget holds again (header metadata always stays resident; in-memory
//! [`ModelStore::insert`] entries have no file to reload from and are never
//! evicted). The most recently loaded payload is always kept, even when it alone
//! exceeds the budget — eviction must not thrash the model being served.

use crate::wire::RescanReport;
use crate::{Result, ServeError};
use mvcore::{persist, EstimatorRegistry, ModelMeta, MultiViewModel};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::SystemTime;

/// File extension of serialized models recognized by [`ModelStore::open`].
pub const MODEL_EXTENSION: &str = "mvm";

/// One store entry: header metadata plus the lazily-loaded model.
pub struct StoredModel {
    name: String,
    meta: ModelMeta,
    path: Option<PathBuf>,
    /// mtime and byte length of the backing file at index time — the change
    /// fingerprint [`ModelStore::rescan`] compares against.
    mtime: Option<SystemTime>,
    file_len: u64,
    /// Logical timestamp of the last [`ModelStore::get`], for LRU eviction.
    last_used: AtomicU64,
    model: Mutex<Option<Arc<dyn MultiViewModel>>>,
}

impl StoredModel {
    /// Store name (the file stem for disk-backed entries).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Header metadata (method, dim, views, input kind, checksum).
    pub fn meta(&self) -> &ModelMeta {
        &self.meta
    }

    /// Backing file, if the entry came from disk.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Whether the payload has been deserialized yet.
    pub fn is_loaded(&self) -> bool {
        self.model.lock().expect("store entry lock").is_some()
    }
}

/// A registry-driven model store with lazy loading, directory rescanning and an
/// optional LRU payload budget.
pub struct ModelStore {
    registry: EstimatorRegistry,
    entries: RwLock<BTreeMap<String, Arc<StoredModel>>>,
    /// The directory [`ModelStore::open`] indexed, remembered for rescans.
    dir: RwLock<Option<PathBuf>>,
    /// Resident payload byte budget; 0 means unlimited.
    budget: AtomicU64,
    /// Monotonic logical clock stamping [`StoredModel::last_used`].
    clock: AtomicU64,
    /// Lifetime count of files a rescan skipped because their header failed to
    /// parse — silent serving degradation unless surfaced.
    rescan_corrupt: AtomicU64,
    /// Lifetime count of entries dropped because their backing file vanished.
    rescan_vanished: AtomicU64,
}

impl ModelStore {
    /// An empty store dispatching loads through the given registry.
    pub fn new(registry: EstimatorRegistry) -> Self {
        Self {
            registry,
            entries: RwLock::new(BTreeMap::new()),
            dir: RwLock::new(None),
            budget: AtomicU64::new(0),
            clock: AtomicU64::new(1),
            rescan_corrupt: AtomicU64::new(0),
            rescan_vanished: AtomicU64::new(0),
        }
    }

    /// Lifetime health counters, exported through the `Stats` wire op so
    /// operators can see degradation (corrupt or vanished model files) that a
    /// single [`ModelStore::rescan`] reply would only show once.
    pub fn counters(&self) -> Vec<(String, u64)> {
        vec![
            (
                "store/rescan_corrupt_skipped".into(),
                self.rescan_corrupt.load(Ordering::Relaxed),
            ),
            (
                "store/rescan_vanished".into(),
                self.rescan_vanished.load(Ordering::Relaxed),
            ),
        ]
    }

    /// Create a store and index every `*.mvm` file in `dir` (header-only; payloads
    /// load lazily). The file stem becomes the model name. The directory is
    /// remembered: [`ModelStore::rescan`] picks up later additions/changes/removals.
    pub fn open(registry: EstimatorRegistry, dir: impl AsRef<Path>) -> Result<Self> {
        let store = Self::new(registry);
        store.index_dir(&dir)?;
        *store.dir.write().expect("store dir lock") = Some(dir.as_ref().to_path_buf());
        Ok(store)
    }

    /// Index (or re-index) every `*.mvm` file in a directory into the store.
    /// Existing entries with the same name are replaced.
    pub fn index_dir(&self, dir: impl AsRef<Path>) -> Result<usize> {
        let dir = dir.as_ref();
        let mut added = 0;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(MODEL_EXTENSION) {
                continue;
            }
            self.index_file(&path)?;
            added += 1;
        }
        Ok(added)
    }

    /// Index one model file under its file stem.
    pub fn index_file(&self, path: &Path) -> Result<Arc<StoredModel>> {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| {
                ServeError::Protocol(format!("model file {} has no UTF-8 stem", path.display()))
            })?
            .to_string();
        let file_meta = std::fs::metadata(path)?;
        let mut reader = BufReader::new(std::fs::File::open(path)?);
        let meta = persist::read_meta(&mut reader)?;
        if !self.registry.contains(&meta.method) {
            return Err(ServeError::Core(mvcore::CoreError::UnknownEstimator {
                name: meta.method,
                known: self
                    .registry
                    .names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            }));
        }
        let entry = Arc::new(StoredModel {
            name: name.clone(),
            meta,
            path: Some(path.to_path_buf()),
            mtime: file_meta.modified().ok(),
            file_len: file_meta.len(),
            last_used: AtomicU64::new(0),
            model: Mutex::new(None),
        });
        self.entries
            .write()
            .expect("store lock")
            .insert(name, Arc::clone(&entry));
        Ok(entry)
    }

    /// Insert an already-fitted model under a name (no disk backing).
    pub fn insert(&self, name: impl Into<String>, model: Box<dyn MultiViewModel>) {
        let name = name.into();
        let meta = ModelMeta {
            method: model.name().to_string(),
            dim: model.dim(),
            num_views: model.num_views(),
            input_kind: model.input_kind(),
            model_version: 0,
            parent_crc: 0,
            payload_len: 0,
            checksum: 0,
        };
        let entry = Arc::new(StoredModel {
            name: name.clone(),
            meta,
            path: None,
            mtime: None,
            file_len: 0,
            last_used: AtomicU64::new(0),
            model: Mutex::new(Some(Arc::from(model))),
        });
        self.entries
            .write()
            .expect("store lock")
            .insert(name, entry);
    }

    /// Serialize a model into `dir/name.mvm` and index it. Returns the entry.
    pub fn save(
        &self,
        dir: impl AsRef<Path>,
        name: &str,
        model: &dyn MultiViewModel,
    ) -> Result<Arc<StoredModel>> {
        let path = dir.as_ref().join(format!("{name}.{MODEL_EXTENSION}"));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        model.save(&mut file)?;
        std::io::Write::flush(&mut file)?;
        self.index_file(&path)
    }

    /// All model names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries
            .read()
            .expect("store lock")
            .keys()
            .cloned()
            .collect()
    }

    /// The entry for a name (metadata without forcing a load).
    pub fn entry(&self, name: &str) -> Result<Arc<StoredModel>> {
        self.entries
            .read()
            .expect("store lock")
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel {
                name: name.to_string(),
                known: self.names(),
            })
    }

    /// The loaded model for a name, deserializing the file payload on first use.
    /// Stamps the entry's LRU clock and, when a payload budget is set, evicts
    /// least-recently-used payloads afterwards.
    pub fn get(&self, name: &str) -> Result<Arc<dyn MultiViewModel>> {
        let entry = self.entry(name)?;
        entry.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        let mut freshly_loaded = false;
        let model = {
            let mut slot = entry.model.lock().expect("store entry lock");
            match slot.as_ref() {
                Some(model) => Arc::clone(model),
                None => {
                    let path = entry.path.as_ref().ok_or_else(|| {
                        ServeError::Protocol(format!("model {name:?} has neither payload nor path"))
                    })?;
                    let mut reader = BufReader::new(std::fs::File::open(path)?);
                    let model: Arc<dyn MultiViewModel> =
                        Arc::from(self.registry.load_model(&mut reader)?);
                    *slot = Some(Arc::clone(&model));
                    freshly_loaded = true;
                    model
                }
            }
        };
        if freshly_loaded {
            self.enforce_budget(name);
        }
        Ok(model)
    }

    /// Bound the resident deserialized payload bytes (0 = unlimited). Applied after
    /// every lazy load; the just-loaded payload itself is never evicted.
    pub fn set_payload_budget(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::Relaxed);
        if bytes > 0 {
            self.enforce_budget("");
        }
    }

    /// Total `payload_len` bytes of currently loaded disk-backed payloads. An
    /// entry whose payload is being deserialized right now (mutex held) counts as
    /// resident — it is about to be — without blocking behind the load.
    pub fn loaded_payload_bytes(&self) -> u64 {
        let entries = self.entries.read().expect("store lock");
        entries
            .values()
            .filter(|e| e.path.is_some() && is_resident(e))
            .map(|e| e.meta.payload_len)
            .sum()
    }

    /// Drop least-recently-used disk-backed payloads until the budget holds,
    /// keeping `keep` resident. Entries whose payload is being loaded right now
    /// (mutex held) are skipped — they are in use by definition.
    fn enforce_budget(&self, keep: &str) {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == 0 {
            return;
        }
        let entries: Vec<Arc<StoredModel>> = {
            let map = self.entries.read().expect("store lock");
            map.values().cloned().collect()
        };
        let mut resident: Vec<&Arc<StoredModel>> = entries
            .iter()
            .filter(|e| e.path.is_some() && e.name != keep && is_resident(e))
            .collect();
        // Oldest stamp first = least recently used first.
        resident.sort_by_key(|e| e.last_used.load(Ordering::Relaxed));
        let mut total = self.loaded_payload_bytes();
        for victim in resident {
            if total <= budget {
                break;
            }
            if let Ok(mut slot) = victim.model.try_lock() {
                if slot.take().is_some() {
                    total = total.saturating_sub(victim.meta.payload_len);
                }
            }
        }
    }

    /// Re-scan the directory this store was opened over: index new `.mvm` files,
    /// re-read the header (and drop the cached payload) of files whose mtime, size
    /// or persisted checksum changed, and remove entries whose backing file
    /// vanished. In-memory
    /// [`ModelStore::insert`] entries are untouched; corrupt files are skipped so a
    /// half-written model cannot take down a live server. Returns what changed.
    pub fn rescan(&self) -> Result<RescanReport> {
        let dir = match self.dir.read().expect("store dir lock").clone() {
            Some(dir) => dir,
            None => return Ok(RescanReport::default()),
        };
        let mut report = RescanReport::default();
        let mut on_disk = std::collections::BTreeSet::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(MODEL_EXTENSION) {
                continue;
            }
            let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            on_disk.insert(name.to_string());
            let existing = self.entries.read().expect("store lock").get(name).cloned();
            match existing {
                // A name claimed by an in-memory insert keeps serving the inserted
                // model; the file only takes over once the entry is removed.
                Some(e) if e.path.is_none() => {}
                Some(e) => {
                    // mtime + size alone miss an in-place same-size rewrite that
                    // lands within the filesystem's timestamp granularity (exactly
                    // what an atomic model swap produces), so when they look
                    // unchanged the persisted CRC breaks the tie via a cheap
                    // header-only read.
                    let changed = match std::fs::metadata(&path) {
                        Ok(m) => {
                            m.len() != e.file_len
                                || m.modified().ok() != e.mtime
                                || header_checksum(&path).is_some_and(|crc| crc != e.meta.checksum)
                        }
                        Err(_) => false,
                    };
                    if changed {
                        if self.index_file(&path).is_ok() {
                            report.reloaded += 1;
                        } else {
                            report.corrupt_skipped += 1;
                            self.rescan_corrupt.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                None => {
                    if self.index_file(&path).is_ok() {
                        report.added += 1;
                    } else {
                        report.corrupt_skipped += 1;
                        self.rescan_corrupt.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        // Drop disk-backed entries whose file is gone.
        let stale: Vec<String> = {
            let map = self.entries.read().expect("store lock");
            map.values()
                .filter(|e| {
                    e.path.as_deref().and_then(Path::parent) == Some(dir.as_path())
                        && !on_disk.contains(&e.name)
                })
                .map(|e| e.name.clone())
                .collect()
        };
        let mut map = self.entries.write().expect("store lock");
        for name in stale {
            if map.remove(&name).is_some() {
                report.removed += 1;
                self.rescan_vanished.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(report)
    }

    /// The registry used to load models.
    pub fn registry(&self) -> &EstimatorRegistry {
        &self.registry
    }
}

/// Payload checksum from a header-only read; `None` when the file is unreadable
/// or mid-write (rescan treats that as "unchanged" rather than fatal).
fn header_checksum(path: &Path) -> Option<u32> {
    let mut reader = BufReader::new(std::fs::File::open(path).ok()?);
    persist::read_meta(&mut reader).ok().map(|m| m.checksum)
}

/// Non-blocking residency probe for budget accounting: a held mutex means the
/// payload is mid-load (or in use) — treat it as resident rather than waiting
/// behind a potentially multi-second deserialization.
fn is_resident(entry: &StoredModel) -> bool {
    match entry.model.try_lock() {
        Ok(slot) => slot.is_some(),
        Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::{secstr_dataset, SecStrConfig};
    use linalg::Matrix;
    use mvcore::FitSpec;

    fn fixture_views() -> Vec<Matrix> {
        let data = secstr_dataset(&SecStrConfig {
            n_instances: 30,
            seed: 9,
            difficulty: 0.8,
        });
        data.views()
            .iter()
            .map(|v| v.select_rows(&(0..8.min(v.rows())).collect::<Vec<_>>()))
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tcca-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_index_and_lazy_load() {
        let dir = tmp_dir("roundtrip");
        let views = fixture_views();
        let registry = EstimatorRegistry::with_builtin();
        let spec = FitSpec::with_rank(2).epsilon(1e-2).seed(4);
        let model = registry.fit("PCA", &views, &spec).unwrap();
        let expected = model.transform(&views).unwrap();

        let store = ModelStore::new(EstimatorRegistry::with_builtin());
        store.save(&dir, "pca-demo", model.as_ref()).unwrap();

        // A second store discovers the file by scanning the directory.
        let store2 = ModelStore::open(EstimatorRegistry::with_builtin(), &dir).unwrap();
        assert_eq!(store2.names(), vec!["pca-demo".to_string()]);
        let entry = store2.entry("pca-demo").unwrap();
        assert_eq!(entry.meta().method, "PCA");
        assert_ne!(entry.meta().checksum, 0);
        assert!(
            !entry.is_loaded(),
            "metadata read must not load the payload"
        );

        let loaded = store2.get("pca-demo").unwrap();
        assert!(entry.is_loaded());
        let z = loaded.transform(&views).unwrap();
        assert_eq!(z, expected);

        // Unknown names list what is available.
        let err = store2.get("nope").map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("pca-demo"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn insert_serves_in_memory_models() {
        let views = fixture_views();
        let registry = EstimatorRegistry::with_builtin();
        let model = registry.fit("CAT", &views, &FitSpec::with_rank(2)).unwrap();
        let store = ModelStore::new(EstimatorRegistry::with_builtin());
        store.insert("cat", model);
        let entry = store.entry("cat").unwrap();
        assert_eq!(entry.meta().method, "CAT");
        assert!(entry.is_loaded());
        assert!(store.get("cat").unwrap().transform(&views).is_ok());
    }

    #[test]
    fn rescan_picks_up_new_changed_and_removed_files() {
        let dir = tmp_dir("rescan");
        let views = fixture_views();
        let registry = EstimatorRegistry::with_builtin();
        let spec = FitSpec::with_rank(2).epsilon(1e-2).seed(11);
        let pca = registry.fit("PCA", &views, &spec).unwrap();
        let cat = registry.fit("CAT", &views, &spec).unwrap();

        let store = ModelStore::open(EstimatorRegistry::with_builtin(), &dir).unwrap();
        assert!(store.names().is_empty());

        // New file appears → rescan makes it servable without a restart.
        let writer = ModelStore::new(EstimatorRegistry::with_builtin());
        writer.save(&dir, "pca", pca.as_ref()).unwrap();
        let report = store.rescan().unwrap();
        assert_eq!((report.added, report.removed, report.reloaded), (1, 0, 0));
        let first = store.get("pca").unwrap().transform(&views).unwrap();
        assert_eq!(first, pca.transform(&views).unwrap());

        // File replaced by a different model → header re-read, payload reloaded.
        // (Force a different mtime fingerprint: some filesystems have coarse
        // timestamps, but the byte length differs between PCA and CAT states.)
        writer.save(&dir, "pca", cat.as_ref()).unwrap();
        let report = store.rescan().unwrap();
        assert_eq!((report.added, report.removed, report.reloaded), (0, 0, 1));
        let entry = store.entry("pca").unwrap();
        assert_eq!(entry.meta().method, "CAT");
        assert!(!entry.is_loaded(), "stale payload must be dropped");
        let swapped = store.get("pca").unwrap().transform(&views).unwrap();
        assert_eq!(swapped, cat.transform(&views).unwrap());

        // Unchanged files are not touched.
        let report = store.rescan().unwrap();
        assert_eq!(report, crate::wire::RescanReport::default());
        assert!(store.entry("pca").unwrap().is_loaded());

        // File removed → entry dropped.
        std::fs::remove_file(dir.join("pca.mvm")).unwrap();
        let report = store.rescan().unwrap();
        assert_eq!((report.added, report.removed, report.reloaded), (0, 1, 0));
        assert!(store.entry("pca").is_err());

        // Corrupt files are skipped, not fatal — and the skip is counted, both
        // in the report and in the store's lifetime health counters.
        std::fs::write(dir.join("junk.mvm"), b"garbage").unwrap();
        let report = store.rescan().unwrap();
        assert_eq!(
            (report.added, report.removed, report.reloaded),
            (0, 0, 0),
            "corrupt file must not index"
        );
        assert_eq!(report.corrupt_skipped, 1);
        let counter = |name: &str| {
            store
                .counters()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .unwrap()
        };
        assert_eq!(counter("store/rescan_corrupt_skipped"), 1);
        // "pca" vanished earlier in this test; the lifetime counter saw it.
        assert_eq!(counter("store/rescan_vanished"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rescan_detects_same_size_rewrite_within_mtime_granularity() {
        let dir = tmp_dir("crc");
        let registry = EstimatorRegistry::with_builtin();
        let spec = FitSpec::with_rank(2).epsilon(1e-2).seed(3);
        let views_a = fixture_views();
        // Same shapes, different values → same payload length, different CRC.
        let data_b = secstr_dataset(&SecStrConfig {
            n_instances: 30,
            seed: 10,
            difficulty: 0.8,
        });
        let views_b: Vec<Matrix> = data_b
            .views()
            .iter()
            .map(|v| v.select_rows(&(0..8.min(v.rows())).collect::<Vec<_>>()))
            .collect();
        let a = registry.fit("PCA", &views_a, &spec).unwrap();
        let b = registry.fit("PCA", &views_b, &spec).unwrap();

        let writer = ModelStore::new(EstimatorRegistry::with_builtin());
        writer.save(&dir, "m", a.as_ref()).unwrap();
        let store = ModelStore::open(EstimatorRegistry::with_builtin(), &dir).unwrap();
        store.get("m").unwrap();
        let path = dir.join("m.mvm");
        let before = std::fs::metadata(&path).unwrap();
        let old_mtime = before.modified().unwrap();

        writer.save(&dir, "m", b.as_ref()).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            before.len(),
            "fixture models must serialize to the same byte length"
        );
        // Pin the mtime back so size + mtime alone cannot reveal the rewrite.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_times(std::fs::FileTimes::new().set_modified(old_mtime))
            .unwrap();
        drop(f);

        let report = store.rescan().unwrap();
        assert_eq!((report.added, report.removed, report.reloaded), (0, 0, 1));
        assert_eq!(
            store.get("m").unwrap().transform(&views_b).unwrap(),
            b.transform(&views_b).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_budget_evicts_least_recently_used() {
        let dir = tmp_dir("evict");
        let views = fixture_views();
        let registry = EstimatorRegistry::with_builtin();
        let spec = FitSpec::with_rank(2).epsilon(1e-2).seed(3);
        let writer = ModelStore::new(EstimatorRegistry::with_builtin());
        for name in ["a", "b", "c"] {
            let model = registry.fit("PCA", &views, &spec).unwrap();
            writer.save(&dir, name, model.as_ref()).unwrap();
        }
        let store = ModelStore::open(EstimatorRegistry::with_builtin(), &dir).unwrap();
        let per_payload = store.entry("a").unwrap().meta().payload_len;
        assert!(per_payload > 0);

        // Budget for two payloads: loading a third evicts the least recently used.
        store.set_payload_budget(2 * per_payload);
        store.get("a").unwrap();
        store.get("b").unwrap();
        assert_eq!(store.loaded_payload_bytes(), 2 * per_payload);
        store.get("a").unwrap(); // refresh a → b is now the LRU
        store.get("c").unwrap();
        assert!(store.entry("a").unwrap().is_loaded());
        assert!(
            !store.entry("b").unwrap().is_loaded(),
            "LRU must be evicted"
        );
        assert!(store.entry("c").unwrap().is_loaded());
        assert_eq!(store.loaded_payload_bytes(), 2 * per_payload);

        // An evicted payload transparently reloads on the next request.
        assert!(store.get("b").unwrap().transform(&views).is_ok());

        // In-memory inserts are never evicted (there is no file to reload from).
        let model = registry.fit("CAT", &views, &spec).unwrap();
        store.insert("mem", model);
        store.set_payload_budget(1);
        store.get("a").unwrap();
        assert!(store.entry("mem").unwrap().is_loaded());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_model_files_are_skipped_and_corrupt_headers_error() {
        let dir = tmp_dir("corrupt");
        std::fs::write(dir.join("notes.txt"), b"hello").unwrap();
        let store = ModelStore::open(EstimatorRegistry::with_builtin(), &dir).unwrap();
        assert!(store.names().is_empty());

        std::fs::write(dir.join("bad.mvm"), b"not a model at all").unwrap();
        let err = ModelStore::open(EstimatorRegistry::with_builtin(), &dir)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
