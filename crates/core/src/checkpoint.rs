//! Crash-safe on-disk checkpoint store for [`TrainState`] blobs.
//!
//! Write path (power-cut safe): the encoded state is written to a hidden
//! `.tmp` file, `sync_all`'d, then atomically renamed to its final
//! `state-{global_step:012}.apts` name, and the directory is `sync_all`'d
//! so the new entry is as durable as the bytes it names. A cut during the
//! write leaves either the previous good file untouched or a stray `.tmp`
//! that is never read; a cut during the rename leaves one of the two valid
//! states — never a half-written visible checkpoint; a cut after
//! [`write_state`] returns cannot lose the file.
//!
//! Inside [`crate::Trainer::run`] the work is split across two threads.
//! When a checkpoint falls due, the step thread encodes the state straight
//! into its `.tmp` file, checksumming as the bytes stream out — no copy of
//! the state and no file-sized buffer is built; a writer thread then does
//! the sync, rename, directory sync and prune, the same function
//! [`write_state`] ends with, while training continues. A checkpoint that
//! falls due while the previous one is still being made durable waits for
//! it, and `run` returns — on success, interruption, divergence or error —
//! only once the last one is durable, so the files on disk at each return
//! are those a synchronous writer would have left. A failed write is the
//! run's [`CoreError::Io`].
//!
//! Read path (corruption safe): [`latest_valid`] scans the directory
//! newest-first and returns the first blob whose CRC and structure check
//! out, silently skipping corrupt files — a flipped byte in the newest
//! checkpoint falls back to the previous good one.

use crate::state::TrainState;
use crate::CoreError;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc;

/// Extension of visible checkpoint files.
const EXT: &str = "apts";

/// Where, how often, and how many checkpoints to keep.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Directory for `state-*.apts` files (created on first write).
    pub dir: PathBuf,
    /// Write a checkpoint every this many optimiser steps.
    pub every: usize,
    /// Retain this many most-recent checkpoints (older ones are pruned;
    /// keeping ≥ 2 is what makes CRC fallback possible).
    pub keep: usize,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> CoreError {
    CoreError::Io {
        reason: format!("{what} {}: {e}", path.display()),
    }
}

fn file_name(global_step: u64) -> String {
    // Zero-padded so lexicographic directory order == chronological order.
    format!("state-{global_step:012}.{EXT}")
}

/// Visible checkpoint files in `dir`, sorted oldest → newest.
fn list_states(dir: &Path) -> crate::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("reading", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("reading", dir, e))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("state-") && name.ends_with(&format!(".{EXT}")) {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Atomically writes `state` into `cfg.dir` and prunes old files down to
/// `cfg.keep`. Returns the path of the new checkpoint.
///
/// # Errors
///
/// Returns [`CoreError::Io`] if the directory cannot be created or any
/// write/sync/rename fails.
pub fn write_state(cfg: &CheckpointConfig, state: &TrainState) -> crate::Result<PathBuf> {
    let staged = stage(cfg, state.global_step, |f| f.write_all(&state.encode()))?;
    commit(cfg, staged)
}

/// A state file written to its hidden `.tmp` name but not yet durable.
pub(crate) struct Staged {
    file: fs::File,
    tmp_path: PathBuf,
    final_path: PathBuf,
}

/// Creates `cfg.dir` if needed and `write`s the state after `global_step`
/// steps into a fresh `.tmp` file there; [`commit`] makes it durable.
fn stage(
    cfg: &CheckpointConfig,
    global_step: u64,
    write: impl FnOnce(&mut fs::File) -> std::io::Result<()>,
) -> crate::Result<Staged> {
    let is_missing = |p: &&Path| !p.as_os_str().is_empty() && !p.is_dir();
    let created = cfg.dir.ancestors().take_while(is_missing).count();
    fs::create_dir_all(&cfg.dir).map_err(|e| io_err("creating", &cfg.dir, e))?;
    // A new directory's own entry lives in its parent.
    for parent in cfg.dir.ancestors().skip(1).take(created) {
        sync_dir(parent)?;
    }
    let final_path = cfg.dir.join(file_name(global_step));
    let tmp_path = cfg.dir.join(format!(".{}.tmp", file_name(global_step)));
    let mut file = fs::File::create(&tmp_path).map_err(|e| io_err("creating", &tmp_path, e))?;
    write(&mut file).map_err(|e| io_err("writing", &tmp_path, e))?;
    Ok(Staged {
        file,
        tmp_path,
        final_path,
    })
}

/// Syncs a staged file, renames it to its visible name, syncs the
/// directory and prunes old files down to `cfg.keep`. Returns the path of
/// the new checkpoint.
fn commit(cfg: &CheckpointConfig, staged: Staged) -> crate::Result<PathBuf> {
    let Staged {
        file,
        tmp_path,
        final_path,
    } = staged;
    file.sync_all()
        .map_err(|e| io_err("syncing", &tmp_path, e))?;
    drop(file);
    fs::rename(&tmp_path, &final_path).map_err(|e| io_err("renaming", &tmp_path, e))?;
    // Until the directory itself is synced the rename is only in the page
    // cache: a power cut could lose the file this call reports written.
    sync_dir(&cfg.dir)?;
    prune(cfg)?;
    Ok(final_path)
}

/// The thread a training run hands its due checkpoints to. The step thread
/// [`stage`]s each state — its file created and written — and the writer
/// thread [`commit`]s it: sync, rename, directory sync and prune, the
/// steps [`write_state`] ends with. At most one commit is in flight; the
/// next checkpoint that falls due waits for it before it writes anything.
pub(crate) struct Writer<'a> {
    cfg: &'a CheckpointConfig,
    jobs: mpsc::Sender<Staged>,
    done: mpsc::Receiver<crate::Result<PathBuf>>,
    in_flight: bool,
}

impl<'a> Writer<'a> {
    /// Starts the writer thread in `scope`; it ends once the `Writer` is
    /// dropped.
    pub(crate) fn spawn(scope: &'a std::thread::Scope<'a, '_>, cfg: &'a CheckpointConfig) -> Self {
        let (jobs, inbox) = mpsc::channel::<Staged>();
        let (outbox, done) = mpsc::channel();
        scope.spawn(move || {
            for staged in inbox {
                if outbox.send(commit(cfg, staged)).is_err() {
                    break;
                }
            }
        });
        Writer {
            cfg,
            jobs,
            done,
            in_flight: false,
        }
    }

    /// Whether a checkpoint falls due once `global_step` steps are done.
    pub(crate) fn is_due(&self, global_step: u64) -> bool {
        global_step.is_multiple_of(self.cfg.every as u64)
    }

    /// Once the previous checkpoint is durable, `write`s the state after
    /// `global_step` steps to its file and hands it to the thread.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] from the previous commit or from this write.
    pub(crate) fn write(
        &mut self,
        global_step: u64,
        write: impl FnOnce(&mut fs::File) -> std::io::Result<()>,
    ) -> crate::Result<()> {
        self.wait()?;
        let staged = stage(self.cfg, global_step, write)?;
        // Fails only if the thread is gone, which the next wait reports.
        let _ = self.jobs.send(staged);
        self.in_flight = true;
        Ok(())
    }

    /// Waits for the commit in flight, if any.
    ///
    /// # Errors
    ///
    /// That commit's [`CoreError::Io`].
    pub(crate) fn wait(&mut self) -> crate::Result<()> {
        if !std::mem::take(&mut self.in_flight) {
            return Ok(());
        }
        let committed = self.done.recv().map_err(|_| CoreError::Io {
            reason: "the checkpoint writer thread stopped".into(),
        })?;
        committed.map(drop)
    }
}

/// Flushes `dir`'s entries (a create or rename inside it) to stable
/// storage; the empty path is the current directory. Only Unix can open a
/// directory as a file — elsewhere the rename is as durable as it gets.
fn sync_dir(dir: &Path) -> crate::Result<()> {
    if cfg!(not(unix)) {
        return Ok(());
    }
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("syncing", dir, e))
}

/// Removes all but the `cfg.keep` newest checkpoints (and any stale `.tmp`
/// files left by an interrupted write).
fn prune(cfg: &CheckpointConfig) -> crate::Result<()> {
    let states = list_states(&cfg.dir)?;
    let keep = cfg.keep.max(1);
    if states.len() > keep {
        for old in &states[..states.len() - keep] {
            fs::remove_file(old).map_err(|e| io_err("removing", old, e))?;
        }
    }
    if let Ok(entries) = fs::read_dir(&cfg.dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            if name.to_string_lossy().ends_with(".tmp") {
                // Best-effort: a stray tmp is harmless, never fatal.
                let _ = fs::remove_file(entry.path());
            }
        }
    }
    Ok(())
}

/// Finds the most recent checkpoint in `dir` that decodes cleanly.
///
/// Scans newest → oldest; files that fail the CRC or structural checks are
/// skipped (that is the fallback path for a corrupted latest checkpoint).
/// Returns `Ok(None)` if the directory does not exist or holds no valid
/// checkpoint at all.
///
/// # Errors
///
/// Returns [`CoreError::Io`] only for directory-listing failures — a
/// corrupt or unreadable individual file is skipped, not fatal.
pub fn latest_valid(dir: &Path) -> crate::Result<Option<(PathBuf, TrainState)>> {
    if !dir.is_dir() {
        return Ok(None);
    }
    let mut states = list_states(dir)?;
    states.reverse();
    for path in states {
        let Ok(blob) = fs::read(&path) else { continue };
        if let Ok(state) = TrainState::decode(&blob) {
            return Ok(Some((path, state)));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::OptimizerState;
    use apt_optim::SgdState;

    fn tiny_state(global_step: u64) -> TrainState {
        TrainState {
            seed: 1,
            total_epochs: 2,
            epoch: 0,
            iter: global_step,
            global_step,
            loss_sum: 0.0,
            loss_count: 0,
            underflowed: 0,
            quantized_total: 0,
            last_acc: 0.0,
            best_seen: f64::NEG_INFINITY,
            evals_since_best: 0,
            lr_scale: 1.0,
            loss_ema: None,
            peak_memory_bits: 0,
            peak_resident_bytes: 0,
            epochs: vec![],
            energy: Default::default(),
            profiler: vec![],
            optimizer: OptimizerState::Sgd(SgdState { steps: global_step }),
            velocities: vec![],
            net_blob: vec![7; 16],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apt-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn every_25(dir: &Path) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.to_path_buf(),
            every: 25,
            keep: 2,
        }
    }

    #[test]
    fn write_then_latest_roundtrips() {
        let dir = temp_dir("roundtrip");
        let cfg = every_25(&dir);
        let s = tiny_state(25);
        let path = write_state(&cfg, &s).unwrap();
        assert!(path.ends_with("state-000000000025.apts"));
        let (found, loaded) = latest_valid(&dir).unwrap().unwrap();
        assert_eq!(found, path);
        assert_eq!(loaded, s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_keeps_only_newest() {
        let dir = temp_dir("rotate");
        let cfg = CheckpointConfig {
            keep: 2,
            ..every_25(&dir)
        };
        for step in [10, 20, 30, 40] {
            write_state(&cfg, &tiny_state(step)).unwrap();
        }
        let files = list_states(&dir).unwrap();
        assert_eq!(files.len(), 2);
        let (_, latest) = latest_valid(&dir).unwrap().unwrap();
        assert_eq!(latest.global_step, 40);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = temp_dir("fallback");
        let cfg = every_25(&dir);
        write_state(&cfg, &tiny_state(25)).unwrap();
        let newest = write_state(&cfg, &tiny_state(50)).unwrap();
        // Flip one payload byte of the newest checkpoint.
        let mut blob = fs::read(&newest).unwrap();
        let last = blob.len() - 1;
        blob[last] ^= 0xFF;
        fs::write(&newest, &blob).unwrap();
        let (path, state) = latest_valid(&dir).unwrap().unwrap();
        assert!(path.ends_with("state-000000000025.apts"));
        assert_eq!(state.global_step, 25);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_missing_dir_is_none() {
        let dir = temp_dir("missing");
        assert_eq!(latest_valid(&dir).unwrap(), None);
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(latest_valid(&dir).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
