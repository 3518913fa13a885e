//! The multi-tenant model fleet: named, `Arc`-swapped inference plans with
//! validated ingestion, atomic hot-swap, and budgeted residency.
//!
//! A [`ModelRegistry`] keys frozen [`InferenceSession`]s by model id.
//! Publishing is **atomic**: the registry swaps the `Arc`-shared plan under
//! a short mutex hold, so requests resolved after the swap run the new
//! plan while requests already in flight finish on the old one — the old
//! network is freed only when the last in-flight batch drops its clone
//! (drain by reference count, no barrier, no lost or corrupted responses).
//!
//! Ingestion is a **validation ladder**; a checkpoint serves traffic only
//! after every rung passes:
//!
//! 1. [`apt_nn::checkpoint::verify`] — structural walk of the blob
//!    (framing, version, CRC, section bounds) with nothing materialised.
//! 2. [`apt_nn::checkpoint::load`] via [`InferenceSession::from_checkpoint`]
//!    — full decode with CRC/bounds/packed-word validation, compilation
//!    into the [`apt_nn::FrozenPlan`] that will serve (a network that
//!    cannot freeze is refused here), and one probe run of that plan.
//!
//! Serving never reads the network once the plan is compiled
//! ([`apt_nn::FrozenPlan::execute`] takes `&self`), so no inference can
//! change it. The per-layer integrity digests
//! ([`apt_nn::Network::integrity_digests`]) captured at publish identify
//! what was loaded: each absorbs resident state a 64-bit word per bijective
//! step ([`apt_nn::Param::integrity_digest`]), within this build only, and
//! is carried by no file or frame.
//!
//! A file failing the ladder is moved to a **quarantine directory** with a
//! `.reason` sidecar and counted; the previously published plan (if any)
//! keeps serving untouched.
//!
//! Residency is bounded: under a resident-bytes budget
//! ([`RegistryConfig::budget_bytes`]), publishing a model evicts the
//! least-recently-used *other* models until the fleet fits. Evicted and
//! unknown models answer with a typed [`ServeError::ModelUnavailable`]
//! (wire status `STATUS_MODEL_UNAVAILABLE`) — degradation, never OOM. A
//! single model larger than the whole budget is rejected at publish time.

use crate::protocol::MAX_MODEL_ID;
use crate::{InferenceSession, ModelSpec, ServeError, ServeStats, StatsSnapshot};
use apt_nn::checkpoint;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// Fleet configuration.
#[derive(Debug, Clone, Default)]
pub struct RegistryConfig {
    /// Resident-bytes budget across all models; `0` means unbounded.
    pub budget_bytes: u64,
    /// Directory scanned by [`ModelRegistry::rescan`] for `*.aptc` files
    /// (model id = file stem). `None` disables file ingestion.
    pub model_dir: Option<PathBuf>,
    /// Where rejected checkpoint files are moved. Defaults to a
    /// `quarantine/` directory next to the rejected file.
    pub quarantine_dir: Option<PathBuf>,
    /// Architecture used to load checkpoints ingested from files. Blob
    /// ingestion ([`ModelRegistry::ingest_blob`]) carries its own spec.
    pub spec: Option<ModelSpec>,
}

/// One registered model's bookkeeping.
#[derive(Debug)]
struct ModelEntry {
    /// The resident plan; `None` once evicted under the budget.
    session: Option<InferenceSession>,
    /// Publish generation for this id (1 on first publish).
    version: u64,
    /// Registry tick of the last `get`/publish (LRU clock).
    last_used: u64,
    /// Resident bytes of the published plan (kept for reporting even
    /// while evicted).
    resident_bytes: u64,
    /// Per-layer integrity digests captured at ingestion.
    digests: Vec<(String, u64)>,
    /// Source file identity (`path`, mtime, len) for rescan change
    /// detection; `None` for blob publishes.
    source: Option<(PathBuf, SystemTime, u64)>,
}

#[derive(Debug, Default)]
struct Inner {
    models: HashMap<String, ModelEntry>,
    tick: u64,
}

/// Public snapshot of one registered model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// The model id.
    pub id: String,
    /// `true` while the plan is resident (false = evicted).
    pub resident: bool,
    /// Publish generation (1 on first publish).
    pub version: u64,
    /// Resident bytes of the (last) published plan.
    pub resident_bytes: u64,
    /// Per-layer integrity digests captured at ingestion.
    pub digests: Vec<(String, u64)>,
}

/// What a successful publish did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishOutcome {
    /// The published model id.
    pub model: String,
    /// Publish generation for this id (1 = first publish).
    pub version: u64,
    /// Resident bytes of the new plan.
    pub resident_bytes: u64,
    /// `true` when this publish hot-swapped an existing entry.
    pub replaced: bool,
    /// Models evicted to fit the new plan under the budget.
    pub evicted: Vec<String>,
}

/// Result of one [`ModelRegistry::rescan`] pass over the model directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RescanReport {
    /// Model ids ingested or re-ingested this pass.
    pub ingested: Vec<String>,
    /// `(file name, reason)` for every rejected (and quarantined) file.
    pub rejected: Vec<(String, String)>,
    /// Files skipped because they were unchanged and still resident.
    pub unchanged: usize,
}

impl RescanReport {
    /// Renders the report as a JSON object (hand-rolled; no serde in the
    /// workspace) — the `OP_RELOAD` response body.
    pub fn to_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let ingested: Vec<String> = self
            .ingested
            .iter()
            .map(|m| format!("\"{}\"", esc(m)))
            .collect();
        let rejected: Vec<String> = self
            .rejected
            .iter()
            .map(|(f, r)| format!("{{\"file\":\"{}\",\"reason\":\"{}\"}}", esc(f), esc(r)))
            .collect();
        format!(
            "{{\"ingested\":[{}],\"rejected\":[{}],\"unchanged\":{}}}",
            ingested.join(","),
            rejected.join(","),
            self.unchanged
        )
    }
}

/// The fleet registry. Cheap to share behind an `Arc`; every method takes
/// `&self`.
#[derive(Debug)]
pub struct ModelRegistry {
    config: RegistryConfig,
    inner: Mutex<Inner>,
    stats: Arc<ServeStats>,
}

impl ModelRegistry {
    /// Creates an empty registry with its own stats collector, which a
    /// server started on it records into too.
    pub fn new(config: RegistryConfig) -> ModelRegistry {
        ModelRegistry {
            config,
            inner: Mutex::new(Inner::default()),
            stats: Arc::new(ServeStats::default()),
        }
    }

    /// The registry's configuration.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// The shared stats collector (fleet gauges live here).
    pub fn stats_handle(&self) -> Arc<ServeStats> {
        Arc::clone(&self.stats)
    }

    /// Snapshot of the shared serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Resolves a model id to its resident plan, bumping its LRU clock.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelUnavailable`] (and counts it) for an
    /// unknown id or an evicted model.
    pub fn get(&self, id: &str) -> Result<InferenceSession, ServeError> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.models.get_mut(id) {
            Some(entry) => match &entry.session {
                Some(session) => {
                    entry.last_used = tick;
                    Ok(session.clone())
                }
                None => {
                    self.stats.record_model_unavailable();
                    Err(ServeError::ModelUnavailable {
                        model: id.to_string(),
                        reason: "evicted under the resident-bytes budget".to_string(),
                    })
                }
            },
            None => {
                self.stats.record_model_unavailable();
                Err(ServeError::ModelUnavailable {
                    model: id.to_string(),
                    reason: "no such model published".to_string(),
                })
            }
        }
    }

    /// Resolves a model without bumping the LRU clock or counting a miss
    /// (monitoring paths: health output, tests).
    pub fn peek(&self, id: &str) -> Option<InferenceSession> {
        self.lock().models.get(id).and_then(|e| e.session.clone())
    }

    /// Snapshot of every registered model, sorted by id.
    pub fn models(&self) -> Vec<ModelInfo> {
        let inner = self.lock();
        let mut out: Vec<ModelInfo> = inner
            .models
            .iter()
            .map(|(id, e)| ModelInfo {
                id: id.clone(),
                resident: e.session.is_some(),
                version: e.version,
                resident_bytes: e.resident_bytes,
                digests: e.digests.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.id.cmp(&b.id));
        out
    }

    /// Summed resident bytes across resident models.
    pub fn resident_bytes(&self) -> u64 {
        resident_total(&self.lock())
    }

    /// Runs the full ingestion ladder on a checkpoint blob, then publishes
    /// it atomically under `id`.
    ///
    /// # Errors
    ///
    /// Typed rejection from any rung: [`ServeError::Nn`] for structural,
    /// decode or freeze failures, [`ServeError::BadRequest`] for
    /// probe/shape failures, and
    /// [`ServeError::ModelUnavailable`] when the plan alone exceeds the
    /// budget. On error the registry is untouched — a previously published
    /// plan under `id` keeps serving.
    pub fn ingest_blob(
        &self,
        id: &str,
        spec: &ModelSpec,
        blob: &[u8],
    ) -> Result<PublishOutcome, ServeError> {
        let session = self.validate(spec, blob)?;
        self.publish_inner(id, session, None)
    }

    /// Publishes an already-validated session (e.g. straight out of a
    /// trainer) atomically under `id`.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for an invalid id,
    /// [`ServeError::ModelUnavailable`] when the plan alone exceeds the
    /// budget.
    pub fn publish(
        &self,
        id: &str,
        session: InferenceSession,
    ) -> Result<PublishOutcome, ServeError> {
        self.publish_inner(id, session, None)
    }

    /// Reads one `.aptc` file through the ingestion ladder; a rejected
    /// file is moved to the quarantine directory with a `.reason` sidecar.
    ///
    /// # Errors
    ///
    /// As [`ingest_blob`](Self::ingest_blob), plus [`ServeError::Io`] for
    /// an unreadable file and [`ServeError::BadRequest`] when the registry
    /// has no [`RegistryConfig::spec`].
    pub fn ingest_file(&self, id: &str, path: &Path) -> Result<PublishOutcome, ServeError> {
        let spec = self
            .config
            .spec
            .clone()
            .ok_or_else(|| ServeError::BadRequest {
                reason: "registry has no model spec configured for file ingestion".to_string(),
            })?;
        let meta = std::fs::metadata(path)?;
        let source = (
            path.to_path_buf(),
            meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            meta.len(),
        );
        let blob = std::fs::read(path)?;
        let session = match self.validate(&spec, &blob) {
            Ok(session) => session,
            Err(e) => {
                self.quarantine(path, &e);
                return Err(e);
            }
        };
        match self.publish_inner(id, session, Some(source)) {
            Ok(outcome) => Ok(outcome),
            // Budget rejection is not the file's fault; leave it in place.
            Err(e) => Err(e),
        }
    }

    /// Scans [`RegistryConfig::model_dir`] for `*.aptc` files (model id =
    /// file stem), ingesting new or changed ones. Unchanged files whose
    /// model is still resident are skipped; rejected files are quarantined
    /// and reported, never fatal to the scan.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when no model directory is configured;
    /// [`ServeError::Io`] when the directory cannot be listed.
    pub fn rescan(&self) -> Result<RescanReport, ServeError> {
        let dir = self
            .config
            .model_dir
            .clone()
            .ok_or_else(|| ServeError::BadRequest {
                reason: "registry has no model directory configured".to_string(),
            })?;
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file() && p.extension().and_then(|x| x.to_str()) == Some("aptc"))
            .collect();
        files.sort();
        let mut report = RescanReport::default();
        for path in files {
            let Some(id) = path.file_stem().and_then(|s| s.to_str()).map(String::from) else {
                continue;
            };
            if self.source_unchanged(&id, &path) {
                report.unchanged += 1;
                continue;
            }
            let file_name = path
                .file_name()
                .and_then(|s| s.to_str())
                .unwrap_or("?")
                .to_string();
            match self.ingest_file(&id, &path) {
                Ok(_) => report.ingested.push(id),
                Err(e) => report.rejected.push((file_name, e.to_string())),
            }
        }
        Ok(report)
    }

    /// `true` when `id` is resident and its recorded source file identity
    /// (path, mtime, length) matches the file on disk.
    fn source_unchanged(&self, id: &str, path: &Path) -> bool {
        let inner = self.lock();
        let Some(entry) = inner.models.get(id) else {
            return false;
        };
        if entry.session.is_none() {
            return false;
        }
        let Some((src_path, mtime, len)) = &entry.source else {
            return false;
        };
        if src_path != path {
            return false;
        }
        match std::fs::metadata(path) {
            Ok(meta) => {
                meta.len() == *len && meta.modified().unwrap_or(SystemTime::UNIX_EPOCH) == *mtime
            }
            Err(_) => false,
        }
    }

    /// Rungs 1–2 of the ingestion ladder, run **outside** the registry
    /// lock (compiling and probing a large plan is not cheap).
    fn validate(&self, spec: &ModelSpec, blob: &[u8]) -> Result<InferenceSession, ServeError> {
        // Rung 1: structural walk — framing, version, CRC, section bounds.
        checkpoint::verify(blob)?;
        // Rung 2: full decode, compiling the frozen plan, and a probe run
        // of the program that will serve.
        InferenceSession::from_checkpoint(spec, blob)
    }

    /// The atomic publish: validate id and budget, swap the entry under
    /// the lock, evict LRU models until the fleet fits, refresh gauges.
    fn publish_inner(
        &self,
        id: &str,
        session: InferenceSession,
        source: Option<(PathBuf, SystemTime, u64)>,
    ) -> Result<PublishOutcome, ServeError> {
        validate_id(id)?;
        // Session-level residency: parameter stores plus the compiled
        // plan's cached or packed weights.
        let bytes = session.resident_bytes();
        let budget = self.config.budget_bytes;
        if budget > 0 && bytes > budget {
            self.stats.record_model_unavailable();
            return Err(ServeError::ModelUnavailable {
                model: id.to_string(),
                reason: format!(
                    "plan needs {bytes} resident bytes, budget is {budget}; \
                     rejected rather than evicting the whole fleet"
                ),
            });
        }
        let digests = session.network().integrity_digests();
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let (replaced, version) = match inner.models.get_mut(id) {
            Some(entry) => {
                entry.version += 1;
                // The swap: the old Arc leaves the registry here. In-flight
                // batches still hold clones and finish on the old plan; its
                // memory is freed when the last clone drops.
                entry.session = Some(session);
                entry.resident_bytes = bytes;
                entry.digests = digests;
                entry.last_used = tick;
                entry.source = source;
                (true, entry.version)
            }
            None => {
                inner.models.insert(
                    id.to_string(),
                    ModelEntry {
                        session: Some(session),
                        version: 1,
                        last_used: tick,
                        resident_bytes: bytes,
                        digests,
                        source,
                    },
                );
                (false, 1)
            }
        };
        if replaced {
            self.stats.record_swap();
        }
        self.stats.record_plan_frozen();
        let evicted = self.evict_to_budget(&mut inner, id);
        self.refresh_gauges(&inner);
        Ok(PublishOutcome {
            model: id.to_string(),
            version,
            resident_bytes: bytes,
            replaced,
            evicted,
        })
    }

    /// Evicts least-recently-used models (never `keep`) until the resident
    /// total fits the budget. Entries stay registered so lookups answer
    /// "evicted", not "unknown".
    fn evict_to_budget(&self, inner: &mut Inner, keep: &str) -> Vec<String> {
        let budget = self.config.budget_bytes;
        let mut evicted = Vec::new();
        if budget == 0 {
            return evicted;
        }
        while resident_total(inner) > budget {
            let victim = inner
                .models
                .iter()
                .filter(|(vid, e)| e.session.is_some() && vid.as_str() != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(vid, _)| vid.clone());
            let Some(vid) = victim else {
                break; // only `keep` is resident and it fits by itself
            };
            if let Some(entry) = inner.models.get_mut(&vid) {
                entry.session = None;
                self.stats.record_eviction();
                evicted.push(vid);
            }
        }
        evicted
    }

    /// Pushes the fleet gauges into the shared stats.
    fn refresh_gauges(&self, inner: &Inner) {
        let resident = inner
            .models
            .values()
            .filter(|e| e.session.is_some())
            .count() as u64;
        self.stats.set_fleet(resident, resident_total(inner));
    }

    /// Moves a rejected file into the quarantine directory (best effort)
    /// and writes a `.reason` sidecar; always counts the quarantine.
    fn quarantine(&self, path: &Path, err: &ServeError) {
        self.stats.record_quarantine();
        let dir = match &self.config.quarantine_dir {
            Some(d) => d.clone(),
            None => path
                .parent()
                .unwrap_or_else(|| Path::new("."))
                .join("quarantine"),
        };
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let name = path
            .file_name()
            .and_then(|s| s.to_str())
            .unwrap_or("unnamed.aptc")
            .to_string();
        let mut dest = dir.join(&name);
        let mut n = 1;
        while dest.exists() {
            dest = dir.join(format!("{name}.{n}"));
            n += 1;
        }
        if std::fs::rename(path, &dest).is_err() {
            // Cross-device fallback: copy then remove.
            if std::fs::copy(path, &dest).is_err() {
                return;
            }
            let _ = std::fs::remove_file(path);
        }
        let mut reason_path = dest.clone().into_os_string();
        reason_path.push(".reason");
        let _ = std::fs::write(reason_path, format!("{err}\n"));
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned registry lock means a panic mid-publish; the map
        // itself is always in a consistent state (every mutation is a
        // single insert/assign), so serving on is strictly better than
        // taking the whole fleet down.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Summed resident bytes of every resident entry.
fn resident_total(inner: &Inner) -> u64 {
    inner
        .models
        .values()
        .filter(|e| e.session.is_some())
        .map(|e| e.resident_bytes)
        .sum()
}

/// Model ids travel on the wire and become quarantine-sidecar content, so
/// they are bounded and path-safe.
fn validate_id(id: &str) -> Result<(), ServeError> {
    if id.is_empty()
        || id.len() > MAX_MODEL_ID
        || id == "."
        || id == ".."
        || id.contains(['/', '\\', '\0'])
    {
        return Err(ServeError::BadRequest {
            reason: format!(
                "invalid model id {id:?} (1..={MAX_MODEL_ID} bytes, no path separators)"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelArch;

    fn spec(dims: &[usize]) -> ModelSpec {
        ModelSpec {
            arch: ModelArch::Mlp(dims.to_vec()),
            classes: *dims.last().unwrap(),
            img_size: 0,
            width_mult: 1.0,
        }
    }

    fn blob(dims: &[usize], seed: u64) -> Vec<u8> {
        let s = spec(dims);
        let mut net = match &s.arch {
            ModelArch::Mlp(d) => apt_nn::models::mlp(
                "mlp",
                d,
                &apt_nn::QuantScheme::paper_apt(),
                &mut apt_tensor::rng::seeded(seed),
            )
            .unwrap(),
            _ => unreachable!(),
        };
        checkpoint::save_full(&mut net)
    }

    #[test]
    fn ingest_get_and_versioning() {
        let reg = ModelRegistry::new(RegistryConfig::default());
        let s = spec(&[4, 6, 2]);
        let out = reg.ingest_blob("m1", &s, &blob(&[4, 6, 2], 1)).unwrap();
        assert_eq!((out.version, out.replaced), (1, false));
        let session = reg.get("m1").unwrap();
        assert_eq!(session.sample_len(), 4);
        // Republish = hot-swap: version bumps, swap counted.
        let out = reg.ingest_blob("m1", &s, &blob(&[4, 6, 2], 2)).unwrap();
        assert_eq!((out.version, out.replaced), (2, true));
        assert_eq!(reg.stats().swaps, 1);
        assert_eq!(reg.stats().models_resident, 1);
        assert!(reg.stats().resident_bytes > 0);
    }

    #[test]
    fn unknown_and_invalid_ids_are_typed() {
        let reg = ModelRegistry::new(RegistryConfig::default());
        match reg.get("ghost") {
            Err(ServeError::ModelUnavailable { model, .. }) => assert_eq!(model, "ghost"),
            other => panic!("expected ModelUnavailable, got {other:?}"),
        }
        assert_eq!(reg.stats().model_unavailable, 1);
        let s = spec(&[3, 2]);
        let b = blob(&[3, 2], 1);
        for bad in ["", "a/b", "..", &"x".repeat(300)] {
            assert!(
                matches!(
                    reg.ingest_blob(bad, &s, &b),
                    Err(ServeError::BadRequest { .. })
                ),
                "id {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn corrupt_blobs_never_publish() {
        let reg = ModelRegistry::new(RegistryConfig::default());
        let s = spec(&[4, 6, 2]);
        let good = blob(&[4, 6, 2], 1);
        reg.ingest_blob("m", &s, &good).unwrap();
        let baseline = reg.get("m").unwrap();
        let expect = baseline.infer_one(&[0.5; 4]).unwrap();
        // Flip one payload byte: rejected, old plan untouched.
        let mut hurt = good.clone();
        let last = hurt.len() - 1;
        hurt[last] ^= 0x40;
        assert!(reg.ingest_blob("m", &s, &hurt).is_err());
        let mut cut = good.clone();
        cut.truncate(cut.len() / 2);
        assert!(reg.ingest_blob("m", &s, &cut).is_err());
        // Wrong architecture for the spec: typed, not published.
        assert!(reg.ingest_blob("m", &s, &blob(&[9, 9, 3], 1)).is_err());
        let after = reg.get("m").unwrap();
        assert_eq!(
            after.infer_one(&[0.5; 4]).unwrap(),
            expect,
            "failed ingest must not disturb the serving plan"
        );
        assert_eq!(reg.models()[0].version, 1);
    }

    #[test]
    fn lru_eviction_under_budget() {
        // Budget sized for roughly two of the three identical models.
        let s = spec(&[6, 8, 3]);
        let probe = ModelRegistry::new(RegistryConfig::default());
        probe.ingest_blob("p", &s, &blob(&[6, 8, 3], 0)).unwrap();
        let one = probe.resident_bytes();
        let reg = ModelRegistry::new(RegistryConfig {
            budget_bytes: one * 2 + one / 2,
            ..RegistryConfig::default()
        });
        reg.ingest_blob("a", &s, &blob(&[6, 8, 3], 1)).unwrap();
        reg.ingest_blob("b", &s, &blob(&[6, 8, 3], 2)).unwrap();
        // Touch `a` so `b` is the LRU victim.
        reg.get("a").unwrap();
        let out = reg.ingest_blob("c", &s, &blob(&[6, 8, 3], 3)).unwrap();
        assert_eq!(out.evicted, vec!["b".to_string()]);
        assert!(reg.get("a").is_ok());
        assert!(reg.get("c").is_ok());
        match reg.get("b") {
            Err(ServeError::ModelUnavailable { reason, .. }) => {
                assert!(reason.contains("evicted"), "{reason}")
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        let snap = reg.stats();
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.models_resident, 2);
        assert!(snap.resident_bytes <= reg.config().budget_bytes);
        // Republishing `b` resurrects it (and evicts the new LRU).
        reg.ingest_blob("b", &s, &blob(&[6, 8, 3], 2)).unwrap();
        assert!(reg.get("b").is_ok());
    }

    #[test]
    fn oversized_plan_rejected_not_fleet_evicting() {
        let s = spec(&[6, 8, 3]);
        let reg = ModelRegistry::new(RegistryConfig {
            budget_bytes: 8, // absurdly tight: nothing fits
            ..RegistryConfig::default()
        });
        match reg.ingest_blob("big", &s, &blob(&[6, 8, 3], 1)) {
            Err(ServeError::ModelUnavailable { model, .. }) => assert_eq!(model, "big"),
            other => panic!("expected budget rejection, got {other:?}"),
        }
        assert!(reg.models().is_empty(), "rejected plan must not register");
    }

    #[test]
    fn file_ingestion_quarantines_bad_files() {
        let dir = std::env::temp_dir().join(format!(
            "apt-registry-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let qdir = dir.join("bad");
        let s = spec(&[4, 6, 2]);
        let reg = ModelRegistry::new(RegistryConfig {
            model_dir: Some(dir.clone()),
            quarantine_dir: Some(qdir.clone()),
            spec: Some(s.clone()),
            ..RegistryConfig::default()
        });
        let good = blob(&[4, 6, 2], 1);
        std::fs::write(dir.join("good.aptc"), &good).unwrap();
        let mut hurt = good.clone();
        let mid = hurt.len() / 2;
        hurt[mid] ^= 0x01;
        std::fs::write(dir.join("hurt.aptc"), &hurt).unwrap();
        std::fs::write(dir.join("noise.txt"), b"not a checkpoint").unwrap();

        let report = reg.rescan().unwrap();
        assert_eq!(report.ingested, vec!["good".to_string()]);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].0, "hurt.aptc");
        assert!(reg.get("good").is_ok());
        assert!(reg.get("hurt").is_err());
        // The bad file moved into quarantine with a reason sidecar.
        assert!(!dir.join("hurt.aptc").exists());
        assert!(qdir.join("hurt.aptc").exists());
        let reason = std::fs::read_to_string(qdir.join("hurt.aptc.reason")).unwrap();
        assert!(!reason.trim().is_empty());
        assert_eq!(reg.stats().quarantines, 1);
        // JSON report names both outcomes.
        let json = report.to_json();
        assert!(
            json.contains("\"good\"") && json.contains("hurt.aptc"),
            "{json}"
        );

        // Second scan: the good file is unchanged, nothing re-ingests.
        let report2 = reg.rescan().unwrap();
        assert_eq!(report2.ingested.len(), 0);
        assert_eq!(report2.unchanged, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
