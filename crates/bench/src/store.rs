//! Content-addressed simulation result store (DESIGN.md §13).
//!
//! The paper's evaluation is a dense grid of `(app, scheme, config)` cells,
//! and whole rows of that grid are shared: every figure normalizes against
//! the same execution-driven baselines, and `run_benches.sh` re-simulates
//! them for each of the 19 harnesses. This module turns each finished cell
//! into a durable, content-addressed on-disk entry so any later sweep —
//! same harness, a different figure, or a different process — serves it in
//! one file read instead of minutes of simulation.
//!
//! * **Key** — [`Store::cell_key`] folds the
//!   [`SimBuilder::cell_digest`](lazydram_workloads::SimBuilder::cell_digest)
//!   (app × scheme label × scale bits × machine config × policy × limits)
//!   with the [`Fidelity`] discriminator (always [`Fidelity::Execute`],
//!   which folds to 0), the [`lazydram_common::SEMANTICS_VERSION`] (bumped
//!   by any behavior-changing PR, invalidating every stale entry at once),
//!   and the [`STORE_VERSION`] wire-format version.
//! * **Value** — the cell's exact [`Measurement`] bytes in a versioned
//!   `snap` frame with a trailing integrity digest. A served hit is
//!   byte-identical to re-running the simulation: stdout tables and
//!   `LAZYDRAM_RESULTS` JSONL do not change (the in-memory
//!   [`Measurement::cached`] provenance flag is deliberately excluded from
//!   the JSON schema).
//! * **Atomic multi-process publish** — entries are written to a unique
//!   temporary name and `rename`d into place, so the same cache directory is
//!   safely shared by concurrent runner threads *and* separate racing
//!   processes with **no locks**: both racers compute identical bytes
//!   (simulations are deterministic), both renames land a complete entry,
//!   and readers never observe a torn file. Anything short of a fully valid
//!   entry — truncated, bit-flipped, foreign snap/store version, stale
//!   semantics, key/identity mismatch — is **rejected and re-simulated,
//!   never trusted** (see [`EntryError`]).
//! * **Hot tier** — an in-memory `Arc` map serves intra-process repeats
//!   (the same cell submitted twice in one sweep) without touching disk;
//!   it subsumes the measurement half of the PR 1 baseline cache.
//! * **Accounting** — hit/miss/publish/reject/byte counters
//!   ([`Store::stats`], [`CacheStats`]) feed the end-of-sweep summary line
//!   and the `lazydram cache stats` subcommand.
//! * **Garbage collection** — [`Store::gc`] evicts least-recently-used
//!   entries (by access time, which [`Store::lookup`] refreshes on every
//!   hit so LRU works even on `relatime`/`noatime` mounts) until the store
//!   fits a byte budget.
//!
//! The profiler attribution (`SimStats::prof`) is wall-clock and therefore
//! not part of the stored bytes — a cache hit reports an empty profile,
//! exactly as `SimStats` equality and the state dump already treat it.

use crate::Measurement;
use lazydram_common::snap::{digest, fold, Loader, Saver};
use lazydram_common::{SimStats, SEMANTICS_VERSION};
use lazydram_workloads::CacheMode;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Wire-format version of a store entry. Bump on any layout change; readers
/// reject entries from a different version (and `auto` mode re-simulates and
/// overwrites them). v2: the embedded `SimStats` frame gained the
/// `compute_cycles_skipped` counter (PR 9 skip-accounting split). v3: cell
/// keys started covering the memory-backend kind (PR 10 backend matrix) —
/// the layout is unchanged, but v2 entries predate backend-keyed configs,
/// so they are retired wholesale rather than trusted to collide correctly.
pub const STORE_VERSION: u16 = 3;

/// Version in an entry's snap header. An entry holds a measurement, never
/// simulator state, so a dump- or trace-layout bump of
/// [`lazydram_common::snap::SNAP_VERSION`] leaves entries (and every store
/// written before it) valid; the entry layout is versioned by
/// [`STORE_VERSION`].
const ENTRY_HEADER_VERSION: u16 = 1;

/// Filename extension of a store entry.
pub const ENTRY_EXT: &str = "meas";

/// How a cell's measurement is produced. Only execution-driven simulation
/// remains; the enum is a vestige of the removed sweep trace-replay route,
/// kept because the benchmark names [`Fidelity::Execute`]. It folds into
/// [`Store::cell_key`] as 0, exactly as before, so every existing store
/// entry keeps its key. The next benchmark change removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Full execution-driven simulation.
    Execute,
}

/// Why a store entry was rejected (and the cell re-simulated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryError {
    /// The file could not be read.
    Io(String),
    /// The file is too short to carry the trailing integrity digest.
    TooShort,
    /// The trailing digest does not match the content — torn copy or
    /// bit rot.
    Corrupt,
    /// The snap stream is malformed (truncated frame, bad tag, foreign snap
    /// version, …).
    Snap(String),
    /// The entry was written against a different store wire format.
    StoreVersion(u16),
    /// The entry was published under a different simulation-semantics
    /// version — its results may no longer be what the simulator computes.
    StaleSemantics(u64),
    /// The embedded cell key does not match the requested one (hash-renamed
    /// file or key collision; never trusted).
    KeyMismatch(u64),
    /// The embedded app/scheme identity does not match the requesting cell.
    Identity(String),
}

impl std::fmt::Display for EntryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntryError::Io(e) => write!(f, "unreadable entry: {e}"),
            EntryError::TooShort => f.write_str("entry too short for integrity digest"),
            EntryError::Corrupt => f.write_str("integrity digest mismatch (torn or corrupt entry)"),
            EntryError::Snap(e) => write!(f, "malformed entry: {e}"),
            EntryError::StoreVersion(v) => {
                write!(f, "entry store version {v} != supported {STORE_VERSION}")
            }
            EntryError::StaleSemantics(v) => write!(
                f,
                "entry semantics version {v} != current {SEMANTICS_VERSION} (stale entry)"
            ),
            EntryError::KeyMismatch(k) => write!(f, "entry key {k:#018x} does not match request"),
            EntryError::Identity(s) => write!(f, "entry identity mismatch: {s}"),
        }
    }
}

impl std::error::Error for EntryError {}

/// Counter snapshot of one [`Store`]'s activity (monotonic since creation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an on-disk entry.
    pub disk_hits: u64,
    /// Lookups served from the in-memory hot tier.
    pub hot_hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Entries published (including `refresh` overwrites).
    pub published: u64,
    /// On-disk entries rejected as torn/corrupt/stale/foreign.
    pub rejected: u64,
    /// Bytes read from served disk entries.
    pub bytes_read: u64,
    /// Bytes written by published entries.
    pub bytes_written: u64,
}

impl CacheStats {
    /// Total lookups served from either tier.
    pub fn hits(&self) -> u64 {
        self.disk_hits + self.hot_hits
    }
}

#[derive(Default)]
struct Counters {
    disk_hits: AtomicU64,
    hot_hits: AtomicU64,
    misses: AtomicU64,
    published: AtomicU64,
    rejected: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// One entry as seen by `ls`/`gc`/`stats`: location, size, recency, and the
/// embedded identity when the entry decodes cleanly.
#[derive(Debug, Clone)]
pub struct EntryInfo {
    /// Absolute path of the entry file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Best-effort last-use time (access time, falling back to mtime).
    pub used: Option<std::time::SystemTime>,
    /// Decoded `(app, scheme)` identity, or the rejection reason.
    pub identity: Result<(String, String), EntryError>,
}

/// The content-addressed on-disk result store. See the [module docs](self).
pub struct Store {
    dir: PathBuf,
    mode: CacheMode,
    hot: Mutex<HashMap<u64, Arc<Measurement>>>,
    counters: Counters,
    tmp_seq: AtomicU64,
}

impl Store {
    /// Opens (creating on demand) a store over `dir` in the given mode.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, mode: CacheMode) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create LAZYDRAM_CACHE_DIR {}: {e}", dir.display()))?;
        Ok(Self {
            dir,
            mode,
            hot: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The lookup/publish mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// A counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            hot_hits: self.counters.hot_hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            published: self.counters.published.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            bytes_read: self.counters.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// The full cache key of one cell: the builder's content digest folded
    /// with the fidelity discriminator, the simulation-semantics version,
    /// and the store wire-format version.
    pub fn cell_key(cell_digest: u64, fidelity: Fidelity) -> u64 {
        let f = match fidelity {
            Fidelity::Execute => 0u64,
        };
        fold(
            fold(fold(cell_digest, f), SEMANTICS_VERSION),
            u64::from(STORE_VERSION),
        )
    }

    /// The entry file for a key (human-greppable app/scheme prefix, content
    /// address suffix).
    pub fn entry_path(&self, key: u64, app: &str, scheme: &str) -> PathBuf {
        let clean: String = format!("{app}-{scheme}")
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.dir.join(format!("{clean}-{key:016x}.{ENTRY_EXT}"))
    }

    /// Looks `key` up in the hot tier, then on disk. A disk hit is verified
    /// end to end (integrity digest, versions, key, identity) before being
    /// served — and its access time refreshed for LRU gc — while any defect
    /// rejects the entry (counted, never trusted). Returns the measurement
    /// with [`Measurement::cached`] set.
    pub fn lookup(&self, key: u64, app: &str, scheme: &str) -> Option<Measurement> {
        if let Some(m) = self.hot.lock().expect("hot tier lock").get(&key) {
            self.counters.hot_hits.fetch_add(1, Ordering::Relaxed);
            let mut m = (**m).clone();
            m.cached = true;
            return Some(m);
        }
        let path = self.entry_path(key, app, scheme);
        match load_entry(&path, Some((key, app, scheme))) {
            Ok(m) => {
                self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.counters.bytes_read.fetch_add(
                    std::fs::metadata(&path).map_or(0, |md| md.len()),
                    Ordering::Relaxed,
                );
                touch(&path);
                self.hot
                    .lock()
                    .expect("hot tier lock")
                    .insert(key, Arc::new(m.clone()));
                let mut m = m;
                m.cached = true;
                Some(m)
            }
            Err(EntryError::Io(_)) => {
                // Missing entry: the ordinary miss.
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(_) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publishes a finished measurement under `key`: serialized to a unique
    /// temporary file, then atomically renamed into place (the lock-free
    /// multi-process convergence point — racing publishers of the same cell
    /// write identical bytes, and the last complete rename wins).
    ///
    /// # Errors
    ///
    /// Returns the IO error message; callers treat it as a warning (the
    /// simulation already succeeded — only its caching is lost).
    pub fn publish(&self, key: u64, m: &Measurement) -> Result<(), String> {
        let bytes = encode_entry(key, m);
        let path = self.entry_path(key, &m.app, &m.scheme);
        let tmp = self.dir.join(format!(
            ".{:016x}.{}.{}.tmp",
            key,
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &bytes)
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| {
                let _ = std::fs::remove_file(&tmp);
                format!("cannot publish cache entry {}: {e}", path.display())
            })?;
        self.counters.published.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let mut clean = m.clone();
        clean.cached = false;
        self.hot
            .lock()
            .expect("hot tier lock")
            .insert(key, Arc::new(clean));
        Ok(())
    }

    /// Every `.meas` entry in the store directory, decoded best-effort.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be listed.
    pub fn entries(&self) -> Result<Vec<EntryInfo>, String> {
        let mut out = Vec::new();
        let rd = std::fs::read_dir(&self.dir)
            .map_err(|e| format!("cannot list cache dir {}: {e}", self.dir.display()))?;
        for ent in rd {
            let ent = ent.map_err(|e| format!("cannot list cache dir: {e}"))?;
            let path = ent.path();
            if path.extension().and_then(|e| e.to_str()) != Some(ENTRY_EXT) {
                continue;
            }
            let md = ent
                .metadata()
                .map_err(|e| format!("cannot stat {}: {e}", path.display()))?;
            let used = md.accessed().or_else(|_| md.modified()).ok();
            let identity = load_entry(&path, None).map(|m| (m.app, m.scheme));
            out.push(EntryInfo {
                path,
                bytes: md.len(),
                used,
                identity,
            });
        }
        out.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(out)
    }

    /// Deletes least-recently-used entries until the store's total size fits
    /// `max_bytes`. Invalid (corrupt/stale/foreign) entries are evicted
    /// first regardless of recency — they can never be served. Returns the
    /// evicted entries.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be listed or a victim
    /// cannot be removed.
    pub fn gc(&self, max_bytes: u64) -> Result<Vec<EntryInfo>, String> {
        let mut entries = self.entries()?;
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        // Victim order: invalid first, then oldest access time.
        entries.sort_by_key(|e| (e.identity.is_ok(), e.used));
        let mut evicted = Vec::new();
        for e in entries {
            if total <= max_bytes && e.identity.is_ok() {
                continue;
            }
            std::fs::remove_file(&e.path)
                .map_err(|err| format!("cannot remove {}: {err}", e.path.display()))?;
            total -= e.bytes;
            evicted.push(e);
        }
        Ok(evicted)
    }

    /// Removes every entry (and stray publish temporaries). Returns the
    /// number of files removed.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be listed or a file cannot
    /// be removed.
    pub fn clear(&self) -> Result<usize, String> {
        let mut n = 0;
        let rd = std::fs::read_dir(&self.dir)
            .map_err(|e| format!("cannot list cache dir {}: {e}", self.dir.display()))?;
        for ent in rd {
            let ent = ent.map_err(|e| format!("cannot list cache dir: {e}"))?;
            let path = ent.path();
            let name = ent.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(&format!(".{ENTRY_EXT}")) || name.ends_with(".tmp") {
                std::fs::remove_file(&path)
                    .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
                n += 1;
            }
        }
        self.hot.lock().expect("hot tier lock").clear();
        Ok(n)
    }
}

/// Refreshes an entry's access time so LRU gc sees the hit even on
/// `relatime`/`noatime` mounts. Best-effort: failures are ignored (an LRU
/// hint, not a correctness input).
fn touch(path: &Path) {
    if let Ok(f) = std::fs::File::options().write(true).open(path) {
        let now = std::time::SystemTime::now();
        let _ = f.set_times(
            std::fs::FileTimes::new()
                .set_accessed(now)
                .set_modified(now),
        );
    }
}

/// Serializes one entry: snap header, a `cell` frame carrying the store
/// version, semantics version, key and the `meas` measurement frame, then a
/// trailing integrity digest over everything before it.
pub fn encode_entry(key: u64, m: &Measurement) -> Vec<u8> {
    let mut s = Saver::new();
    s.header_version(ENTRY_HEADER_VERSION);
    s.frame("cell", 0, |s| {
        s.u16("store_version", STORE_VERSION);
        s.u64("semantics", SEMANTICS_VERSION);
        s.u64("key", key);
        s.frame("meas", 0, |s| save_measurement(s, m));
    });
    let mut bytes = s.finish();
    let d = digest(&bytes);
    bytes.extend_from_slice(&d.to_le_bytes());
    bytes
}

/// Decodes one entry file, verifying — in order — the trailing integrity
/// digest, the snap header, the store and semantics versions, and (when
/// `expect` is given) the cell key and app/scheme identity. Every defect is
/// a typed [`EntryError`]; the caller re-simulates instead of trusting the
/// entry. The returned measurement has [`Measurement::cached`] **unset**
/// (provenance is the caller's call).
pub fn load_entry(
    path: &Path,
    expect: Option<(u64, &str, &str)>,
) -> Result<Measurement, EntryError> {
    let bytes = std::fs::read(path).map_err(|e| EntryError::Io(e.to_string()))?;
    decode_entry(&bytes, expect)
}

/// [`load_entry`] over in-memory bytes (unit-test seam).
pub fn decode_entry(
    bytes: &[u8],
    expect: Option<(u64, &str, &str)>,
) -> Result<Measurement, EntryError> {
    if bytes.len() < 8 {
        return Err(EntryError::TooShort);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let declared = u64::from_le_bytes(tail.try_into().expect("8 tail bytes"));
    if digest(body) != declared {
        return Err(EntryError::Corrupt);
    }
    let mut l = Loader::new(body);
    l.expect_header_version(ENTRY_HEADER_VERSION)
        .map_err(|e| EntryError::Snap(e.to_string()))?;
    let m = l
        .frame("cell", 0, |l| {
            let store_version = l.u16("store_version")?;
            let semantics = l.u64("semantics")?;
            let key = l.u64("key")?;
            let m = l.frame("meas", 0, load_measurement)?;
            Ok((store_version, semantics, key, m))
        })
        .map_err(|e| EntryError::Snap(e.to_string()))
        .and_then(|(store_version, semantics, key, m)| {
            if store_version != STORE_VERSION {
                return Err(EntryError::StoreVersion(store_version));
            }
            if semantics != SEMANTICS_VERSION {
                return Err(EntryError::StaleSemantics(semantics));
            }
            if let Some((want_key, app, scheme)) = expect {
                if key != want_key {
                    return Err(EntryError::KeyMismatch(key));
                }
                if m.app != app || m.scheme != scheme {
                    return Err(EntryError::Identity(format!(
                        "entry is {}/{}, request is {app}/{scheme}",
                        m.app, m.scheme
                    )));
                }
            }
            Ok(m)
        })?;
    if !l.is_done() {
        return Err(EntryError::Snap("trailing bytes after cell frame".into()));
    }
    Ok(m)
}

fn save_measurement(s: &mut Saver, m: &Measurement) {
    // Exhaustive destructure: adding a Measurement field without deciding
    // whether the store carries it fails to compile. `cached` is in-process
    // provenance, never serialized; `stats.prof` is wall-clock and excluded
    // by SimStats::save_state.
    let Measurement {
        app,
        scheme,
        stats,
        ipc,
        activations,
        avg_rbl,
        coverage,
        app_error,
        row_energy_pj,
        truncated,
        replayed,
        cached: _,
    } = m;
    s.str("app", app);
    s.str("scheme", scheme);
    s.f64("ipc", *ipc);
    s.u64("activations", *activations);
    s.f64("avg_rbl", *avg_rbl);
    s.f64("coverage", *coverage);
    s.f64("app_error", *app_error);
    s.f64("row_energy_pj", *row_energy_pj);
    s.bool("truncated", *truncated);
    s.bool("replayed", *replayed);
    stats.save_state(s);
}

fn load_measurement(l: &mut Loader<'_>) -> lazydram_common::SnapResult<Measurement> {
    let app = l.str("app")?;
    let scheme = l.str("scheme")?;
    let ipc = l.f64("ipc")?;
    let activations = l.u64("activations")?;
    let avg_rbl = l.f64("avg_rbl")?;
    let coverage = l.f64("coverage")?;
    let app_error = l.f64("app_error")?;
    let row_energy_pj = l.f64("row_energy_pj")?;
    let truncated = l.bool("truncated")?;
    let replayed = l.bool("replayed")?;
    let mut stats = SimStats::new();
    stats.load_state(l)?;
    Ok(Measurement {
        app,
        scheme,
        stats,
        ipc,
        activations,
        avg_rbl,
        coverage,
        app_error,
        row_energy_pj,
        truncated,
        replayed,
        cached: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(app: &str, scheme: &str) -> Measurement {
        let mut stats = SimStats::new();
        stats.core_cycles = 1234;
        stats.instructions = 5678;
        stats.dram.activations = 42;
        stats.dram.reads = 99;
        Measurement {
            app: app.into(),
            scheme: scheme.into(),
            stats,
            ipc: 4.6,
            activations: 42,
            avg_rbl: 2.5,
            coverage: 0.25,
            app_error: 0.01,
            row_energy_pj: 1.5e6,
            truncated: false,
            replayed: false,
            cached: false,
        }
    }

    #[test]
    fn entry_round_trips_exactly() {
        let m = sample("SCP", "DMS(128)");
        let key = Store::cell_key(0xDEAD_BEEF, Fidelity::Execute);
        let bytes = encode_entry(key, &m);
        let back = decode_entry(&bytes, Some((key, "SCP", "DMS(128)"))).unwrap();
        assert_eq!(back.app, m.app);
        assert_eq!(back.scheme, m.scheme);
        assert_eq!(back.stats, m.stats);
        assert_eq!(back.ipc.to_bits(), m.ipc.to_bits());
        assert_eq!(back.row_energy_pj.to_bits(), m.row_energy_pj.to_bits());
        assert!(!back.cached);
        // The JSONL record — the byte-identity surface — is unchanged.
        assert_eq!(back.to_json(), m.to_json());
    }

    #[test]
    fn execute_key_is_pinned() {
        // Stores written by earlier versions stay valid only while the
        // execute key keeps this value. Re-pinned on purpose for
        // SEMANTICS_VERSION 2 (sweep row energy priced per preset), which
        // re-keys every store.
        let d = 0x1234_5678_9ABC_DEF0u64;
        assert_eq!(Store::cell_key(d, Fidelity::Execute), 0x2bda_69b4_9b9b_ffe1);
        assert_ne!(Store::cell_key(d, Fidelity::Execute), d);
    }

    #[test]
    fn truncated_and_corrupt_entries_rejected() {
        let m = sample("SCP", "baseline");
        let key = Store::cell_key(1, Fidelity::Execute);
        let bytes = encode_entry(key, &m);
        // Too short for even the digest tail.
        assert_eq!(decode_entry(&bytes[..4], None), Err(EntryError::TooShort));
        // Truncation anywhere invalidates the trailing digest.
        for cut in [bytes.len() - 1, bytes.len() / 2, 9] {
            assert_eq!(
                decode_entry(&bytes[..cut], None),
                Err(EntryError::Corrupt),
                "cut at {cut}"
            );
        }
        // A single flipped bit anywhere is caught.
        for at in [6, bytes.len() / 3, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert_eq!(
                decode_entry(&bad, None),
                Err(EntryError::Corrupt),
                "flip at {at}"
            );
        }
    }

    #[test]
    fn stale_semantics_and_foreign_versions_rejected() {
        let m = sample("SCP", "baseline");
        let key = Store::cell_key(1, Fidelity::Execute);

        // Hand-build an entry claiming a different semantics version (a
        // stale store left over from before a behavior-changing PR).
        let forge = |semantics: u64, store_version: u16| {
            let mut s = Saver::new();
            s.header_version(ENTRY_HEADER_VERSION);
            s.frame("cell", 0, |s| {
                s.u16("store_version", store_version);
                s.u64("semantics", semantics);
                s.u64("key", key);
                s.frame("meas", 0, |s| save_measurement(s, &m));
            });
            let mut bytes = s.finish();
            let d = digest(&bytes);
            bytes.extend_from_slice(&d.to_le_bytes());
            bytes
        };
        assert_eq!(
            decode_entry(&forge(SEMANTICS_VERSION + 1, STORE_VERSION), None),
            Err(EntryError::StaleSemantics(SEMANTICS_VERSION + 1))
        );
        assert_eq!(
            decode_entry(&forge(SEMANTICS_VERSION, STORE_VERSION + 1), None),
            Err(EntryError::StoreVersion(STORE_VERSION + 1))
        );
        // Valid content under the wrong key or identity is never served.
        let good = forge(SEMANTICS_VERSION, STORE_VERSION);
        assert_eq!(
            decode_entry(&good, Some((key ^ 1, "SCP", "baseline"))),
            Err(EntryError::KeyMismatch(key))
        );
        assert!(matches!(
            decode_entry(&good, Some((key, "GEMM", "baseline"))),
            Err(EntryError::Identity(_))
        ));
    }
}
