//! The persistent schedule store behind `qpilotd --store <dir>`.
//!
//! The cache already holds the *canonical* `qpilot.schedule/v1` JSON, so
//! persistence is a byte-for-byte spill: each entry becomes one blob file
//! named by its request fingerprint (`<32 hex>.schedule.json`) whose
//! content is exactly the cached `Arc<str>`. The directory of blobs is
//! the whole store. The routers are deterministic, so a blob holds
//! everything a compile produced except its original compile time, which
//! a recovered entry reports as 0.
//!
//! Recovery ([`ScheduleStore::open`]) replays the blobs oldest-first by
//! file modification time, so an LRU cache refilled from them keeps the
//! pre-restart write order. Modification times are only as fine as the
//! filesystem keeps them: blobs written within one clock tick replay in
//! fingerprint order.
//!
//! The store is the cache's disk mirror, not a second cache: the pool
//! writes a blob before it caches the entry and unlinks the blob when
//! the cache evicts it, so `--cache` bounds the directory as it bounds
//! memory. The store keeps no count of its own; [`ScheduleStore::usage`]
//! lists the directory when asked.
//!
//! Crash safety is rename-based: a blob is written to a `.tmp` sibling
//! and atomically renamed into place, so a `SIGKILL` mid-write leaves
//! either the old bytes, the new bytes, or a stray `.tmp` file — never a
//! half-visible blob. Recovery is correspondingly tolerant:
//!
//! * stray `*.tmp` files are deleted;
//! * blobs are re-parsed with [`schedule_from_json`] before being trusted
//!   — a corrupt or truncated blob is deleted and skipped, never fatal;
//! * any other file (such as the `index.{json,journal}` index snapshot
//!   and journal an older version kept beside its blobs) is left alone.
//!
//! Schedule statistics are recomputed from the parsed schedule during
//! recovery, so the blob alone is sufficient to rebuild a full
//! [`CacheEntry`].
//!
//! Recovery reads each blob once and decodes it once, in one pass with
//! no JSON tree, so a restart costs about one decode per blob (a
//! 100-qubit random schedule of ~0.5 MB takes a few milliseconds). The
//! pass times itself: [`RecoveryReport::elapsed`] feeds `"recover_ms"`
//! in `store-stats`, the `qpilot_store_recovery_seconds` gauge and the
//! daemon's `recovered N schedule(s) in X ms` line.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use qpilot_circuit::Fingerprint;
use qpilot_core::wire::schedule_from_json;
use qpilot_core::ScheduleStats;

use crate::cache::CacheEntry;
use crate::faults::Faults;

/// File-name suffix of schedule blobs.
const BLOB_SUFFIX: &str = ".schedule.json";

/// Tuning and dependencies for [`ScheduleStore::open_with`].
#[derive(Debug, Clone, Default)]
pub struct StoreOptions {
    /// Armed fault-injection sites (disarmed by default).
    pub faults: Arc<Faults>,
}

/// One recovered entry, oldest blob first.
#[derive(Debug)]
pub struct RecoveredEntry {
    /// The request fingerprint (blob name).
    pub fingerprint: Fingerprint,
    /// The rebuilt cache entry; `schedule_json` is the blob's exact bytes.
    pub entry: Arc<CacheEntry>,
}

/// Counters describing one [`ScheduleStore::open`] recovery pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Blobs successfully recovered.
    pub loaded: u64,
    /// Corrupt/truncated blobs (and stray `.tmp` files) removed.
    pub discarded: u64,
    /// Wall time of the pass: listing the directory and reading and
    /// decoding every blob.
    pub elapsed: Duration,
}

/// A fingerprint-addressed on-disk mirror of the schedule cache.
#[derive(Debug)]
pub struct ScheduleStore {
    dir: PathBuf,
    faults: Arc<Faults>,
    persisted: AtomicU64,
    removed: AtomicU64,
    recovery: RecoveryReport,
}

impl ScheduleStore {
    /// Opens (creating if needed) the store directory and runs recovery.
    /// The recovered entries are returned oldest-first so replaying them
    /// into an LRU cache reproduces the pre-restart write order.
    ///
    /// # Errors
    ///
    /// Only directory creation/listing failures are errors; damaged
    /// content is deleted and reported via [`ScheduleStore::recovery`].
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<(ScheduleStore, Vec<RecoveredEntry>)> {
        ScheduleStore::open_with(dir, StoreOptions::default())
    }

    /// [`ScheduleStore::open`] with armed fault sites.
    ///
    /// # Errors
    ///
    /// See [`ScheduleStore::open`].
    pub fn open_with(
        dir: impl Into<PathBuf>,
        options: StoreOptions,
    ) -> std::io::Result<(ScheduleStore, Vec<RecoveredEntry>)> {
        let started = Instant::now();
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut report = RecoveryReport::default();

        let mut blobs: Vec<(SystemTime, Fingerprint, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".tmp") {
                // A write the crash interrupted before its rename.
                let _ = std::fs::remove_file(&path);
                report.discarded += 1;
                continue;
            }
            // Anything that is not one of our blobs is left alone.
            let Some(fingerprint) = blob_fingerprint(name) else {
                continue;
            };
            let modified = entry
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            blobs.push((modified, fingerprint, path));
        }
        // Oldest first; ties (one filesystem clock tick) by fingerprint.
        blobs.sort_unstable_by_key(|(modified, fingerprint, _)| (*modified, *fingerprint));

        let mut recovered = Vec::new();
        for (_, fingerprint, path) in blobs {
            let Some((schedule_json, stats)) = load_blob(&path) else {
                // Truncated/corrupt blob: a cache can always recompile.
                let _ = std::fs::remove_file(&path);
                report.discarded += 1;
                continue;
            };
            report.loaded += 1;
            recovered.push(RecoveredEntry {
                fingerprint,
                entry: Arc::new(CacheEntry {
                    schedule_json,
                    stats,
                    compile_s: 0.0,
                }),
            });
        }

        report.elapsed = started.elapsed();
        let store = ScheduleStore {
            dir,
            faults: options.faults,
            persisted: AtomicU64::new(0),
            removed: AtomicU64::new(0),
            recovery: report,
        };
        Ok((store, recovered))
    }

    /// What the opening recovery pass found.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The blobs on disk now and their total bytes, read from the
    /// directory: it is the whole store, so a write that failed or an
    /// unlink that found nothing cannot skew the answer. An unreadable
    /// directory reads as empty.
    pub fn usage(&self) -> (u64, u64) {
        std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.file_name().to_str().and_then(blob_fingerprint).is_some())
            .filter_map(|e| e.metadata().ok())
            .fold((0, 0), |(n, bytes), meta| (n + 1, bytes + meta.len()))
    }

    /// Blobs written since opening.
    pub fn persisted(&self) -> u64 {
        self.persisted.load(Ordering::Relaxed)
    }

    /// Blobs unlinked on cache eviction since opening.
    pub fn removed(&self) -> u64 {
        self.removed.load(Ordering::Relaxed)
    }

    fn blob_path(&self, fingerprint: &Fingerprint) -> PathBuf {
        self.dir.join(format!("{fingerprint}{BLOB_SUFFIX}"))
    }

    /// Spills one cache entry with one atomic blob write. Failures are
    /// reported to stderr and swallowed — persistence is an availability
    /// feature, never a reason to fail a compile.
    pub fn persist(&self, fingerprint: Fingerprint, entry: &CacheEntry) {
        self.faults.store_write_delay();
        let path = self.blob_path(&fingerprint);
        if self.faults.store_write_fail() {
            eprintln!(
                "qpilot-service: store write {} failed: injected fault",
                path.display()
            );
            return;
        }
        if let Err(e) = write_atomic(&path, entry.schedule_json.as_bytes()) {
            eprintln!("qpilot-service: store write {} failed: {e}", path.display());
            return;
        }
        self.persisted.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops an evicted entry's blob.
    pub fn remove(&self, fingerprint: &Fingerprint) {
        if std::fs::remove_file(self.blob_path(fingerprint)).is_ok() {
            self.removed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The fingerprint a blob's file name carries; `None` for any other
/// file.
fn blob_fingerprint(name: &str) -> Option<Fingerprint> {
    name.strip_suffix(BLOB_SUFFIX)?.parse().ok()
}

/// tmp-and-rename write: readers only ever observe complete files.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Reads a blob and verifies it parses as a schedule; `None` on any
/// damage. Returns the exact bytes plus the stats recomputed from the
/// one validating parse (the blob is the only durable artefact; stats
/// are derivable).
fn load_blob(path: &Path) -> Option<(Arc<str>, ScheduleStats)> {
    let text = std::fs::read_to_string(path).ok()?;
    let schedule = schedule_from_json(&text).ok()?;
    Some((text.into(), schedule.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpilot_circuit::Circuit;
    use qpilot_core::wire::schedule_to_json;
    use qpilot_core::{FpqaConfig, Workload};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qpilot_store_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_entry(seed: u32) -> (Fingerprint, CacheEntry) {
        let mut c = Circuit::new(4);
        c.h(seed % 4);
        c.cz(0, 1).cz(2, 3);
        let program =
            qpilot_core::compile(&Workload::circuit(c), &FpqaConfig::square_for(4)).unwrap();
        let json: Arc<str> = schedule_to_json(program.schedule()).into();
        let mut key = [0u8; 16];
        key[0] = seed as u8;
        (
            Fingerprint(key),
            CacheEntry {
                schedule_json: json,
                stats: *program.stats(),
                compile_s: 0.002,
            },
        )
    }

    /// Sets a blob's modification time to `secs` after the epoch.
    fn set_modified(store: &ScheduleStore, fingerprint: &Fingerprint, secs: u64) {
        std::fs::File::options()
            .write(true)
            .open(store.blob_path(fingerprint))
            .unwrap()
            .set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(secs))
            .unwrap();
    }

    #[test]
    fn persist_then_reopen_recovers_bytes_stats_and_order() {
        let dir = temp_dir("roundtrip");
        let (store, empty) = ScheduleStore::open(&dir).unwrap();
        assert!(empty.is_empty());
        let (fp1, e1) = sample_entry(1);
        let (fp2, e2) = sample_entry(2);
        let (fp3, e3) = sample_entry(3);
        // Written highest fingerprint first; the modification times name
        // a third order, which the replay must follow.
        store.persist(fp3, &e3);
        store.persist(fp2, &e2);
        store.persist(fp1, &e1);
        set_modified(&store, &fp2, 1_000);
        set_modified(&store, &fp1, 2_000);
        set_modified(&store, &fp3, 3_000);
        drop(store);

        let (store, recovered) = ScheduleStore::open(&dir).unwrap();
        assert_eq!(store.recovery().loaded, 3);
        assert_eq!(store.recovery().discarded, 0);
        let order: Vec<Fingerprint> = recovered.iter().map(|r| r.fingerprint).collect();
        assert_eq!(order, [fp2, fp1, fp3], "oldest modification time first");
        // Bytes exact, stats recomputed; the compile time is not stored.
        assert_eq!(recovered[1].entry.schedule_json, e1.schedule_json);
        assert_eq!(recovered[1].entry.stats, e1.stats);
        assert_eq!(recovered[1].entry.compile_s, 0.0);

        // Equal times replay in fingerprint order.
        for fp in [fp1, fp2, fp3] {
            set_modified(&store, &fp, 5_000);
        }
        drop(store);
        let (_, recovered) = ScheduleStore::open(&dir).unwrap();
        let order: Vec<Fingerprint> = recovered.iter().map(|r| r.fingerprint).collect();
        assert_eq!(order, [fp1, fp2, fp3], "ties broken by fingerprint");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_times_itself() {
        let dir = temp_dir("timed");
        let (store, _) = ScheduleStore::open(&dir).unwrap();
        let (fp1, e1) = sample_entry(1);
        store.persist(fp1, &e1);
        drop(store);
        let (store, recovered) = ScheduleStore::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert!(store.recovery().elapsed > Duration::ZERO);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_blob_is_skipped_and_deleted() {
        let dir = temp_dir("corrupt");
        let (store, _) = ScheduleStore::open(&dir).unwrap();
        let (fp1, e1) = sample_entry(1);
        store.persist(fp1, &e1);
        // Truncate the blob mid-document, like a torn write without the
        // tmp+rename discipline.
        let blob = store.blob_path(&fp1);
        let bytes = std::fs::read(&blob).unwrap();
        std::fs::write(&blob, &bytes[..bytes.len() / 2]).unwrap();
        drop(store);

        let (store, recovered) = ScheduleStore::open(&dir).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(store.recovery().discarded, 1);
        assert!(!blob.exists(), "corrupt blob removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A blob whose Move coordinate is `1e999` is a schedule the
    /// canonical writer cannot re-serialise, so recovery discards it
    /// like any other damaged blob instead of serving it.
    #[test]
    fn blob_with_a_non_finite_coordinate_is_discarded() {
        let dir = temp_dir("nonfinite");
        let (store, _) = ScheduleStore::open(&dir).unwrap();
        let (fp1, e1) = sample_entry(1);
        store.persist(fp1, &e1);
        let blob = store.blob_path(&fp1);
        let text = std::fs::read_to_string(&blob).unwrap();
        let at = text.find("\"row_y\":[").expect("a move stage") + "\"row_y\":[".len();
        std::fs::write(&blob, format!("{}1e999,{}", &text[..at], &text[at..])).unwrap();
        drop(store);

        let (store, recovered) = ScheduleStore::open(&dir).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(store.recovery().loaded, 0);
        assert_eq!(store.recovery().discarded, 1);
        assert!(!blob.exists(), "the blob is removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_tmp_files_are_cleaned_up() {
        let dir = temp_dir("tmp");
        std::fs::create_dir_all(&dir).unwrap();
        let stray = dir.join("deadbeef.schedule.json.tmp");
        std::fs::write(&stray, "{half a docu").unwrap();
        let (store, recovered) = ScheduleStore::open(&dir).unwrap();
        assert!(recovered.is_empty());
        assert!(!stray.exists());
        assert_eq!(store.recovery().discarded, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_deletes_blob_and_index_row() {
        let dir = temp_dir("remove");
        let (store, _) = ScheduleStore::open(&dir).unwrap();
        let (fp1, e1) = sample_entry(1);
        let (fp2, e2) = sample_entry(2);
        store.persist(fp1, &e1);
        store.persist(fp2, &e2);
        store.remove(&fp1);
        assert_eq!(store.removed(), 1);
        assert_eq!(store.usage(), (1, e2.schedule_json.len() as u64));
        assert!(!store.blob_path(&fp1).exists());
        store.remove(&fp1);
        assert_eq!(store.removed(), 1, "an unlink that finds no blob");
        drop(store);
        let (_, recovered) = ScheduleStore::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].fingerprint, fp2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_failure_leaves_entry_unindexed() {
        let dir = temp_dir("failwrite");
        let (store, _) = ScheduleStore::open_with(
            &dir,
            StoreOptions {
                faults: Arc::new(Faults::from_spec(
                    &crate::faults::FaultSpec::parse("store-write-fail:1").unwrap(),
                )),
            },
        )
        .unwrap();
        let (fp1, e1) = sample_entry(1);
        let (fp2, e2) = sample_entry(2);
        store.persist(fp1, &e1); // injected failure
        assert_eq!(store.usage(), (0, 0));
        assert_eq!(store.persisted(), 0);
        assert!(!store.blob_path(&fp1).exists());
        store.persist(fp2, &e2); // fault budget exhausted → succeeds
        assert_eq!(store.usage().0, 1);
        drop(store);
        let (_, recovered) = ScheduleStore::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].fingerprint, fp2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
