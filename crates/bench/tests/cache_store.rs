//! The on-disk behavior of the content-addressed result store: publish →
//! lookup round-trips, defense against corrupt/truncated/stale files, LRU
//! garbage collection and `clear`.

use lazydram_bench::store::{encode_entry, Fidelity, Store, ENTRY_EXT, STORE_VERSION};
use lazydram_bench::{CacheMode, Measurement};
use lazydram_common::SimStats;
use std::path::PathBuf;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lazydram_cache_store_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample(app: &str, scheme: &str, activations: u64) -> Measurement {
    let mut stats = SimStats::new();
    stats.core_cycles = 1000 + activations;
    stats.dram.activations = activations;
    Measurement {
        app: app.into(),
        scheme: scheme.into(),
        stats,
        ipc: 3.25,
        activations,
        avg_rbl: 2.0,
        coverage: 0.5,
        app_error: 0.0,
        row_energy_pj: 2.5e6,
        truncated: false,
        replayed: false,
        cached: false,
    }
}

#[test]
fn publish_then_lookup_round_trips_with_provenance() {
    let dir = fresh_dir("roundtrip");
    let store = Store::open(&dir, CacheMode::Auto).unwrap();
    let m = sample("SCP", "DMS(128)", 42);
    let key = Store::cell_key(0xABCD, Fidelity::Execute);
    assert!(
        store.lookup(key, "SCP", "DMS(128)").is_none(),
        "empty store misses"
    );
    store.publish(key, &m).unwrap();

    // Fresh store = fresh process: no hot tier, pure disk path.
    let other = Store::open(&dir, CacheMode::Auto).unwrap();
    let hit = other
        .lookup(key, "SCP", "DMS(128)")
        .expect("published entry hits");
    assert!(hit.cached, "a served hit carries the provenance flag");
    assert_eq!(
        hit.to_json(),
        m.to_json(),
        "served bytes identical modulo provenance"
    );
    assert_eq!(hit.stats, m.stats);
    let s = other.stats();
    assert_eq!((s.disk_hits, s.hot_hits, s.misses), (1, 0, 0));
    assert_eq!(store.stats().misses, 1, "the pre-publish lookup was a miss");

    // Same-store second lookup is a hot-tier hit.
    let again = other.lookup(key, "SCP", "DMS(128)").expect("hot hit");
    assert!(again.cached);
    assert_eq!(other.stats().hot_hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_truncated_and_foreign_files_are_rejected_not_served() {
    let dir = fresh_dir("torn");
    let store = Store::open(&dir, CacheMode::Auto).unwrap();
    let m = sample("SCP", "baseline", 7);
    let key = Store::cell_key(1, Fidelity::Execute);
    store.publish(key, &m).unwrap();
    let path = store.entry_path(key, "SCP", "baseline");
    let good = std::fs::read(&path).unwrap();

    // Truncated mid-write (a torn copy that bypassed the atomic rename).
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    let fresh = Store::open(&dir, CacheMode::Auto).unwrap();
    assert!(
        fresh.lookup(key, "SCP", "baseline").is_none(),
        "torn entry must miss"
    );
    assert_eq!(fresh.stats().rejected, 1);

    // Bit rot in the middle of the payload.
    let mut rotted = good.clone();
    rotted[good.len() / 2] ^= 0x01;
    std::fs::write(&path, &rotted).unwrap();
    let fresh = Store::open(&dir, CacheMode::Auto).unwrap();
    assert!(
        fresh.lookup(key, "SCP", "baseline").is_none(),
        "corrupt entry must miss"
    );

    // A valid entry renamed to another cell's address must not be served.
    std::fs::write(&path, &good).unwrap();
    let other_key = Store::cell_key(2, Fidelity::Execute);
    std::fs::rename(&path, store.entry_path(other_key, "SCP", "baseline")).unwrap();
    let fresh = Store::open(&dir, CacheMode::Auto).unwrap();
    assert!(
        fresh.lookup(other_key, "SCP", "baseline").is_none(),
        "entry with a foreign embedded key must miss"
    );

    // After re-simulation (publish), the cell serves again.
    let fresh = Store::open(&dir, CacheMode::Auto).unwrap();
    fresh.publish(key, &m).unwrap();
    let served = Store::open(&dir, CacheMode::Auto).unwrap();
    assert!(served.lookup(key, "SCP", "baseline").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_evicts_invalid_then_least_recently_used() {
    let dir = fresh_dir("gc");
    let store = Store::open(&dir, CacheMode::Auto).unwrap();
    let keys: Vec<u64> = (0..3)
        .map(|i| Store::cell_key(i, Fidelity::Execute))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        store
            .publish(*key, &sample("SCP", &format!("DMS({i})"), i as u64))
            .unwrap();
        // Ensure distinct file times so LRU ordering is deterministic.
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    // Plant one invalid file: evicted first regardless of recency.
    let junk = dir.join(format!("junk.{ENTRY_EXT}"));
    std::fs::write(&junk, b"not a snap entry").unwrap();

    // Touch the oldest entry via a lookup: it becomes the most recent.
    let reader = Store::open(&dir, CacheMode::Auto).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(25));
    assert!(reader.lookup(keys[0], "SCP", "DMS(0)").is_some());

    let entry_bytes = std::fs::metadata(store.entry_path(keys[0], "SCP", "DMS(0)"))
        .unwrap()
        .len();
    // Budget for two entries: the junk file and the LRU entry (keys[1],
    // since keys[0] was just used) must go.
    let admin = Store::open(&dir, CacheMode::Auto).unwrap();
    let evicted = admin.gc(2 * entry_bytes).unwrap();
    let evicted_names: Vec<String> = evicted
        .iter()
        .map(|e| e.path.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert!(
        evicted_names.iter().any(|n| n.starts_with("junk")),
        "invalid entries evicted first: {evicted_names:?}"
    );
    assert!(
        store.entry_path(keys[0], "SCP", "DMS(0)").exists(),
        "recently used survives"
    );
    assert!(
        !store.entry_path(keys[1], "SCP", "DMS(1)").exists(),
        "LRU entry evicted"
    );
    assert!(store.entry_path(keys[2], "SCP", "DMS(2)").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clear_removes_entries_and_stray_temporaries() {
    let dir = fresh_dir("clear");
    let store = Store::open(&dir, CacheMode::Auto).unwrap();
    store
        .publish(
            Store::cell_key(9, Fidelity::Execute),
            &sample("SCP", "baseline", 9),
        )
        .unwrap();
    std::fs::write(dir.join(".deadbeef.123.0.tmp"), b"stray").unwrap();
    std::fs::write(dir.join("unrelated.txt"), b"keep me").unwrap();
    assert_eq!(
        store.clear().unwrap(),
        2,
        "one entry + one temporary removed"
    );
    assert!(
        dir.join("unrelated.txt").exists(),
        "non-store files untouched"
    );
    assert_eq!(store.entries().unwrap().len(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_version_is_embedded_in_fresh_entries() {
    // Belt-and-braces for the upgrade path: the constant the reader checks
    // is the one the writer embeds.
    let m = sample("SCP", "baseline", 1);
    let bytes = encode_entry(Store::cell_key(0, Fidelity::Execute), &m);
    // Header (6 bytes) + frame header (16) + u16 store version.
    let embedded = u16::from_le_bytes([bytes[22], bytes[23]]);
    assert_eq!(embedded, STORE_VERSION);
}
