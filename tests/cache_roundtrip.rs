//! Artifact-cache integration: cached artifacts must be bit-identical to
//! fresh builds, corruption and version bumps must invalidate cleanly,
//! and concurrent first builds must not duplicate work or corrupt state.
//!
//! Every test redirects the process-global cache root, so they all
//! funnel through one mutex — `cargo test` runs tests of one binary in
//! parallel, and two tests swapping the root under each other would
//! race.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use sprout_bench::{sweep_to_json, ScenarioMatrix, Scheme, SweepEngine};
use sprout_core::{ForecastTables, SproutConfig};
use sprout_trace::{Duration, NetProfile};

fn cache_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sprout-cache-it-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny but non-trivial sweep (2 schemes × 1 link, 20 virtual seconds).
fn tiny_matrix() -> ScenarioMatrix {
    ScenarioMatrix::builder("cache-it")
        .schemes([Scheme::SproutEwma, Scheme::Cubic])
        .links([NetProfile::TmobileUmtsDown])
        .timing(Duration::from_secs(20), Duration::from_secs(4))
        .build()
}

fn run_tiny_sweep(seed: u64) -> String {
    let m = tiny_matrix();
    let results = SweepEngine::new(seed).with_threads(2).run(&m);
    sweep_to_json(m.name(), seed, &results)
}

#[test]
fn sweep_json_is_bit_identical_cold_warm_and_disabled() {
    let _g = cache_lock().lock().unwrap();
    let dir = fresh_dir("sweep");

    // Every test holds `cache_lock`, so counter deltas taken here see only
    // this test's traffic.
    let disk = || {
        (
            sprout_trace::trace_cache_counters(),
            sprout_core::table_cache_counters(),
        )
    };
    sprout_cache::set_dir(&dir);
    let before_cold = disk();
    let cold = run_tiny_sweep(31);
    let before_warm = disk();
    let warm = run_tiny_sweep(31);
    let after_warm = disk();
    sprout_cache::disable();
    let disabled = run_tiny_sweep(31);
    sprout_cache::reset_override();

    assert_eq!(cold, warm, "warm cache changed the sweep output");
    let cold_traces = before_warm.0.since(before_cold.0);
    assert!(
        cold_traces.misses >= 1,
        "cold run missed no trace: {cold_traces:?}"
    );
    // A warm re-run is served entirely from the trace and table caches.
    let warm_traces = after_warm.0.since(before_warm.0);
    let warm_tables = after_warm.1.since(before_warm.1);
    assert_eq!(
        warm_traces.misses, 0,
        "warm run missed a trace: {warm_traces:?}"
    );
    assert_eq!(
        warm_tables.misses, 0,
        "warm run missed a table: {warm_tables:?}"
    );
    assert_eq!(cold, disabled, "disabling the cache changed the output");
    // The cold run populated the trace artifacts this matrix needs.
    assert!(
        std::fs::read_dir(&dir).unwrap().count() > 0,
        "cold run stored nothing"
    );
}

#[test]
fn cached_tables_are_bit_identical_to_fresh_build() {
    let _g = cache_lock().lock().unwrap();
    let dir = fresh_dir("tables");
    let cfg = SproutConfig {
        num_bins: 48,
        max_rate_pps: 300.0,
        sigma: 120.0,
        count_max: 192,
        ..SproutConfig::test_small()
    };

    sprout_cache::set_dir(&dir);
    let built = ForecastTables::load_or_build(&cfg); // cold: builds + stores
    let cached = ForecastTables::load_or_build(&cfg); // warm: decodes
    sprout_cache::reset_override();

    assert_eq!(
        built.to_bytes(),
        cached.to_bytes(),
        "cached tables must round-trip bit-exactly"
    );
    let c = sprout_core::table_cache_counters();
    assert!(c.hits >= 1, "second load_or_build must hit: {c:?}");
}

#[test]
fn cached_traces_are_bit_identical_to_fresh_synthesis() {
    let _g = cache_lock().lock().unwrap();
    let dir = fresh_dir("traces");
    let duration = Duration::from_secs(15);

    sprout_cache::disable();
    let fresh = NetProfile::AttLteUp.generate(duration, 77);
    sprout_cache::set_dir(&dir);
    let stored = NetProfile::AttLteUp.generate(duration, 77); // cold: stores
    let cached = NetProfile::AttLteUp.generate(duration, 77); // warm: decodes
    sprout_cache::reset_override();

    assert_eq!(fresh, stored);
    assert_eq!(fresh, cached);
}

#[test]
fn corrupt_cache_files_are_rebuilt_transparently() {
    let _g = cache_lock().lock().unwrap();
    let dir = fresh_dir("corrupt");
    let duration = Duration::from_secs(10);

    sprout_cache::set_dir(&dir);
    let original = NetProfile::Verizon3gDown.generate(duration, 5);
    // Vandalize every stored artifact.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        for b in bytes.iter_mut().skip(8) {
            *b ^= 0xa5;
        }
        std::fs::write(&path, bytes).unwrap();
    }
    let rebuilt = NetProfile::Verizon3gDown.generate(duration, 5);
    sprout_cache::reset_override();

    assert_eq!(original, rebuilt, "corruption must rebuild, not garble");
}

#[test]
fn truncated_table_artifact_is_rebuilt() {
    let _g = cache_lock().lock().unwrap();
    let dir = fresh_dir("truncate");
    let cfg = SproutConfig {
        num_bins: 32,
        count_max: 128,
        ..SproutConfig::test_small()
    };

    sprout_cache::set_dir(&dir);
    let original = ForecastTables::load_or_build(&cfg);
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    }
    let rebuilt = ForecastTables::load_or_build(&cfg);
    sprout_cache::reset_override();

    assert_eq!(original.to_bytes(), rebuilt.to_bytes());
}

#[test]
fn concurrent_first_builds_share_one_table() {
    let _g = cache_lock().lock().unwrap();
    let dir = fresh_dir("concurrent");
    // A geometry no other test uses, so this process has no in-memory
    // entry yet: the per-key OnceLock must hand every thread one Arc.
    let cfg = SproutConfig {
        num_bins: 56,
        max_rate_pps: 280.0,
        count_max: 160,
        ..SproutConfig::test_small()
    };

    sprout_cache::set_dir(&dir);
    let tables: Vec<Arc<ForecastTables>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| ForecastTables::get(&cfg)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    sprout_cache::reset_override();

    for t in &tables[1..] {
        assert!(
            Arc::ptr_eq(&tables[0], t),
            "concurrent first builds must share one instance"
        );
    }
}
