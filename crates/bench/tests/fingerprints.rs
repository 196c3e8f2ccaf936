//! Golden snapshot of every experiment matrix's cache identity.
//!
//! The cell-result cache keys on `Scenario::canonical_bytes` (via the
//! matrix fingerprint and the per-cell encoding), so *any* change to the
//! scenario schema — a new field, a reordered write, a renamed id —
//! silently retires every cached cell, or worse, collides two different
//! cells onto one key. This test pins, for the default configuration of
//! every experiment matrix: the cell count, the matrix fingerprint, the
//! first cell's fingerprint, and the first cell's full canonical byte
//! string (hex).
//!
//! If it fails, you changed cache identity. That is sometimes right —
//! new axes land exactly that way — but it must be deliberate:
//!
//! 1. bump `sprout_bench::ENGINE_VERSION` if execution semantics
//!    changed (see its doc comment),
//! 2. regenerate this snapshot:
//!    `UPDATE_GOLDEN=1 cargo test -p sprout-bench --test fingerprints`,
//! 3. say so in the PR: every warm cache in the world just went cold.

use std::fmt::Write as _;

use sprout_bench::experiments::{self, EXPERIMENTS};
use sprout_bench::figures::ExperimentConfig;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_fingerprints.tsv");

fn snapshot() -> String {
    let cfg = ExperimentConfig::default();
    let mut out = String::from(
        "# experiment\tcells\tmatrix_fp\tcell0_fp\tcell0_canonical_bytes_hex\n\
         # Regenerate deliberately with: UPDATE_GOLDEN=1 cargo test -p sprout-bench --test fingerprints\n",
    );
    // Every registry entry, in registry order (fig8 shares fig7's sweep
    // and is listed to document that identity).
    for exp in EXPERIMENTS {
        for matrix in (exp.matrices)(&cfg) {
            let cell0 = &matrix.cells()[0];
            let mut w = sprout_cache::ByteWriter::with_capacity(128);
            cell0.canonical_bytes(&mut w);
            let hex: String = w.finish().iter().fold(String::new(), |mut acc, b| {
                let _ = write!(acc, "{b:02x}");
                acc
            });
            let _ = writeln!(
                out,
                "{}\t{}\t{:016x}\t{:016x}\t{hex}",
                exp.name,
                matrix.len(),
                matrix.fingerprint(),
                cell0.fingerprint(),
            );
        }
    }
    out
}

#[test]
fn matrix_fingerprints_match_the_committed_snapshot() {
    let current = snapshot();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &current).expect("rewrite golden snapshot");
        eprintln!("golden fingerprint snapshot rewritten: {GOLDEN_PATH}");
        return;
    }
    let committed = include_str!("golden_fingerprints.tsv");
    assert_eq!(
        current, committed,
        "scenario cache identity changed: every cached cell is now cold (or colliding). \
         If intentional, bump ENGINE_VERSION as needed and regenerate with \
         UPDATE_GOLDEN=1 cargo test -p sprout-bench --test fingerprints"
    );
}

#[test]
fn fig8_shares_fig7s_matrix_identity() {
    let cfg = ExperimentConfig::default();
    assert_eq!(
        experiments::matrices(&cfg, "fig7")[0].fingerprint(),
        experiments::matrices(&cfg, "fig8")[0].fingerprint(),
        "fig8 derives from the fig7 sweep; their cache identity must agree"
    );
}
