//! Cold set-up and the per-run cache directories.
//!
//! Set-up is what a fresh checkout pays before its first cell: link-trace
//! synthesis and the paper-scale forecast-table DP, each stored to the
//! artifact cache. It runs [`SETUP_REPS`] times, each into an empty cache
//! directory; the last directory becomes the workload's warm cache.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sprout_core::{ForecastTables, SproutConfig};
use sprout_trace::{Duration, NetProfile};

use crate::spans::SpanLog;

/// Cold set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The inputs a workload's cells need warm.
pub struct Needs {
    /// Link traces, as `(profile, duration)`.
    pub traces: Vec<(NetProfile, Duration)>,
    /// The forecast-table geometry.
    pub table: SproutConfig,
}

/// Result of the set-up phase.
pub struct Setup {
    /// Wall time of each cold set-up, seconds.
    pub secs: Vec<f64>,
    /// The warm cache directory the workload runs from.
    pub warm: PathBuf,
}

/// Run the cold set-ups under `run_dir`, recording `trace.synth` and
/// `core.table.build` spans (id = set-up index) into `log`.
pub fn cold_setups(
    run_dir: &Path,
    seed: u64,
    needs: &Needs,
    log: &mut SpanLog,
) -> std::io::Result<Setup> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut warm = PathBuf::new();
    for rep in 0..SETUP_REPS {
        if rep > 0 {
            std::fs::remove_dir_all(&warm)?;
        }
        warm = run_dir.join(format!("setup-{rep}"));
        std::fs::create_dir_all(&warm)?;
        sprout_cache::set_dir(&warm);
        let t0 = Instant::now();
        for &(profile, duration) in &needs.traces {
            log.time(rep as u64, "trace.synth", None, || {
                std::hint::black_box(profile.generate(duration, seed))
            });
        }
        log.time(rep as u64, "core.table.build", None, || {
            std::hint::black_box(ForecastTables::load_or_build(&needs.table))
        });
        secs.push(t0.elapsed().as_secs_f64());
    }
    // Load the table into the in-memory cache, as the first cell would.
    ForecastTables::get(&needs.table);
    Ok(Setup { secs, warm })
}

/// A fresh cache directory at `dst` holding a copy of the warm set-up
/// artifacts, so each timed sweep writes into an empty cell cache.
pub fn fresh_copy(warm: &Path, dst: &Path) -> std::io::Result<()> {
    if dst.exists() {
        std::fs::remove_dir_all(dst)?;
    }
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(warm)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Total size of the regular files in `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
