//! The experiment registry: one declaration per `reproduce` experiment.
//!
//! Everything that speaks experiment names iterates [`EXPERIMENTS`]: the
//! `reproduce` binary's dispatch, usage text, shard runs and `--json`
//! artifact list; the shared worker-flag validation in [`crate::cli`];
//! the control daemon's submit check and live cell probe; and the golden
//! fingerprint snapshot. Adding an experiment is one entry here plus its
//! `figures` functions (matrix declaration and rendering).

use std::time::Instant;

use crate::figures::{self, ExperimentConfig, Fig7Results};
use crate::scenario::ScenarioMatrix;
use crate::schemes::Scheme;

/// One `reproduce` experiment.
pub struct Experiment {
    /// Its command-line name.
    pub name: &'static str,
    /// The matrices it sweeps, in run order. Each matrix name is also the
    /// basename of the `<name>_sweep.json` artifact a full run writes.
    pub matrices: fn(&ExperimentConfig) -> Vec<ScenarioMatrix>,
    /// Whether `reproduce all` runs it.
    pub in_all: bool,
    /// The experiment-specific worker flags it accepts (axis trims).
    pub axis_flags: &'static [&'static str],
    /// Its own run length when that is not `--secs` (soak, serve,
    /// replay default to theirs until `--secs`/`--quick` clear it).
    pub own_secs: fn(&ExperimentConfig) -> Option<u64>,
    /// Derives its warmup from the run length instead of `--warmup`, so
    /// its measurement window can never be empty.
    pub derives_warmup: bool,
    /// Sweep, render the artifacts, and print the console summary.
    pub run: fn(&ExperimentConfig) -> std::io::Result<()>,
}

/// The fields most experiments share: swept at `--secs`/`--warmup`, no
/// axis flags, not part of `all`.
const BASE: Experiment = Experiment {
    name: "",
    matrices: |_| Vec::new(),
    in_all: false,
    axis_flags: &[],
    own_secs: |_| None,
    derives_warmup: false,
    run: |_| Ok(()),
};

/// The name under which `reproduce` runs every `in_all` experiment.
pub const ALL: &str = "all";

/// Every experiment, in help-text (and golden-snapshot) order.
///
/// `all` leaves out soak (sized for sharded, resumable execution, not a
/// single sitting) and contention/impair/serve/replay (their matrices
/// are CLI-parameterized — axis flags would silently change what `all`
/// means). Its members' matrices are pairwise distinct, so `all` sweeps
/// each once: fig8 stands in for fig7, whose sweep it runs and renders.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig1",
        matrices: |cfg| vec![figures::fig1_matrix(cfg)],
        in_all: true,
        run: run_fig1,
        ..BASE
    },
    Experiment {
        name: "fig2",
        matrices: |cfg| vec![figures::fig2_matrix(cfg)],
        in_all: true,
        run: run_fig2,
        ..BASE
    },
    Experiment {
        name: "fig7",
        matrices: |cfg| vec![figures::fig7_matrix(cfg)],
        run: |cfg| fig7_and_tables(cfg).map(drop),
        ..BASE
    },
    Experiment {
        name: "fig8",
        matrices: |cfg| vec![figures::fig7_matrix(cfg)],
        in_all: true,
        run: run_fig8,
        ..BASE
    },
    Experiment {
        name: "fig9",
        matrices: |cfg| vec![figures::fig9_matrix(cfg)],
        in_all: true,
        run: run_fig9,
        ..BASE
    },
    Experiment {
        name: "loss",
        matrices: |cfg| vec![figures::loss_matrix(cfg)],
        in_all: true,
        run: run_loss,
        ..BASE
    },
    Experiment {
        name: "tunnel",
        matrices: |cfg| vec![figures::tunnel_matrix(cfg)],
        in_all: true,
        run: run_tunnel,
        ..BASE
    },
    Experiment {
        name: "contention",
        matrices: |cfg| vec![figures::contention_matrix(cfg)],
        axis_flags: &["--links", "--flows", "--contend"],
        run: run_contention,
        ..BASE
    },
    Experiment {
        name: "soak",
        matrices: |cfg| vec![figures::soak_matrix(cfg)],
        axis_flags: &["--links", "--prop-delays", "--queues", "--timeseries"],
        own_secs: |cfg| cfg.soak.secs,
        run: run_soak,
        ..BASE
    },
    Experiment {
        name: "impair",
        matrices: |cfg| vec![figures::impair_matrix(cfg)],
        axis_flags: &["--links", "--impairments", "--timeseries"],
        run: run_impair,
        ..BASE
    },
    Experiment {
        name: "serve",
        matrices: |cfg| vec![figures::serve_matrix(cfg)],
        axis_flags: &["--links", "--sessions"],
        own_secs: |cfg| cfg.serve.secs,
        derives_warmup: true,
        run: run_serve,
        ..BASE
    },
    Experiment {
        name: "replay",
        matrices: |cfg| vec![figures::replay_matrix(cfg)],
        axis_flags: &["--trace", "--schemes", "--timeseries"],
        own_secs: |cfg| cfg.replay.secs,
        derives_warmup: true,
        run: run_replay,
        ..BASE
    },
];

/// The experiments `name` runs: the one so named, or every `in_all`
/// member for [`ALL`]. `None` for an unknown name.
pub fn select(name: &str) -> Option<Vec<&'static Experiment>> {
    if name == ALL {
        return Some(EXPERIMENTS.iter().filter(|e| e.in_all).collect());
    }
    EXPERIMENTS.iter().find(|e| e.name == name).map(|e| vec![e])
}

/// The names of the experiments that accept axis flag `flag`, in
/// registry order (empty for any other flag).
pub fn owners(flag: &str) -> Vec<&'static str> {
    EXPERIMENTS
        .iter()
        .filter(|e| e.axis_flags.contains(&flag))
        .map(|e| e.name)
        .collect()
}

/// The matrices `name` sweeps, in run order (empty for an unknown name).
/// Shard workers and the control daemon's cell probe iterate this; the
/// matrix names are the experiment's `<name>_sweep.json` artifacts.
pub fn matrices(cfg: &ExperimentConfig, name: &str) -> Vec<ScenarioMatrix> {
    select(name)
        .unwrap_or_default()
        .into_iter()
        .flat_map(|e| (e.matrices)(cfg))
        .collect()
}

fn run_fig1(cfg: &ExperimentConfig) -> std::io::Result<()> {
    let r = figures::fig1(cfg)?;
    println!(
        "fig1: {} bins written to fig1_timeseries.tsv",
        r.throughput_rows.len()
    );
    let avg = |sel: fn(&(f64, f64, f64, f64)) -> f64, rows: &[(f64, f64, f64, f64)]| -> f64 {
        rows.iter().map(sel).sum::<f64>() / rows.len().max(1) as f64
    };
    println!(
        "  mean capacity {:.0} kbps | skype {:.0} kbps | sprout {:.0} kbps",
        avg(|r| r.1, &r.throughput_rows),
        avg(|r| r.2, &r.throughput_rows),
        avg(|r| r.3, &r.throughput_rows),
    );
    Ok(())
}

fn run_fig2(cfg: &ExperimentConfig) -> std::io::Result<()> {
    let r = figures::fig2(cfg)?;
    println!(
        "fig2: {} interarrivals; {:.3}% within 20 ms [paper: 99.99%]; tail slope {:?} [paper: -3.27]",
        r.samples,
        r.fraction_within_20ms * 100.0,
        r.tail_slope
    );
    Ok(())
}

fn fig7_and_tables(cfg: &ExperimentConfig) -> std::io::Result<Fig7Results> {
    let t0 = Instant::now();
    let results = figures::fig7(cfg)?;
    println!(
        "\n== Figure 7: throughput vs self-inflicted delay ({:.0?}) ==",
        t0.elapsed()
    );
    for link in sprout_trace::NetProfile::all() {
        println!("\n--- {} ---", link.name());
        for scheme in figures::fig7_schemes() {
            if let Some(r) = results.get(link, scheme) {
                println!("  {}", figures::fmt_result(scheme.name(), r));
            }
        }
    }

    // Intro table 1: vs Sprout.
    let t1_rows = figures::summary_table(
        &results,
        Scheme::Sprout,
        &[
            Scheme::Skype,
            Scheme::Hangout,
            Scheme::Facetime,
            Scheme::Compound,
            Scheme::Vegas,
            Scheme::Ledbat,
            Scheme::Cubic,
            Scheme::CubicCodel,
        ],
    );
    println!("\n== Intro table 1 (reference: Sprout; paper values in brackets) ==");
    let paper: &[(&str, &str, &str)] = &[
        ("Skype", "2.2x", "7.9x (2.52s)"),
        ("Google Hangout", "4.4x", "7.2x (2.28s)"),
        ("Facetime", "1.9x", "8.7x (2.75s)"),
        ("Compound TCP", "1.3x", "4.8x (1.53s)"),
        ("Vegas", "1.1x", "2.1x (0.67s)"),
        ("LEDBAT", "1.0x", "2.8x (0.89s)"),
        ("Cubic", "0.91x", "79x (25s)"),
        ("Cubic-CoDel", "0.70x", "1.6x (0.50s)"),
    ];
    for (row, (pn, ps, pd)) in t1_rows.iter().zip(paper) {
        assert_eq!(row.scheme.name(), *pn, "paper row order");
        println!(
            "  {:16} speedup {:>5.2}x [paper {:>5}]   delay {:>6.1}x ({:.2}s) [paper {}]",
            row.scheme.name(),
            row.avg_speedup,
            ps,
            row.delay_reduction,
            row.avg_delay_s,
            pd
        );
    }
    figures::write_summary(cfg, "table1_summary.tsv", &t1_rows)?;

    // Intro table 2: vs Sprout-EWMA.
    let t2_rows = figures::summary_table(
        &results,
        Scheme::SproutEwma,
        &[Scheme::Sprout, Scheme::Cubic, Scheme::CubicCodel],
    );
    println!("\n== Intro table 2 (reference: Sprout-EWMA) ==");
    for row in &t2_rows {
        println!(
            "  {:16} speedup {:>6.2}x  delay reduction {:>6.2}x (avg {:.2}s)",
            row.scheme.name(),
            row.avg_speedup,
            row.delay_reduction,
            row.avg_delay_s
        );
    }
    figures::write_summary(cfg, "table2_ewma.tsv", &t2_rows)?;
    Ok(results)
}

fn run_fig8(cfg: &ExperimentConfig) -> std::io::Result<()> {
    let results = fig7_and_tables(cfg)?;
    let rows = figures::fig8(cfg, &results)?;
    println!("\n== Figure 8: average utilization vs delay ==");
    for r in rows {
        println!(
            "  {:12} {:>5.1}% utilization at {:>7.0} ms self-inflicted delay",
            r.scheme.name(),
            r.avg_utilization_pct,
            r.avg_delay_ms
        );
    }
    Ok(())
}

fn run_fig9(cfg: &ExperimentConfig) -> std::io::Result<()> {
    let rows = figures::fig9(cfg)?;
    println!("\n== Figure 9: confidence sweep (T-Mobile 3G uplink) ==");
    for r in rows {
        println!(
            "  {:>3.0}% confidence: {:>6.0} kbps at {:>6.0} ms",
            r.confidence, r.result.throughput_kbps, r.result.self_inflicted_ms
        );
    }
    Ok(())
}

fn run_loss(cfg: &ExperimentConfig) -> std::io::Result<()> {
    let rows = figures::loss_table(cfg)?;
    println!("\n== s5.6 loss resilience (Sprout) ==");
    println!("  paper (downlink): 0% 4741kbps/73ms, 5% 3971/60, 10% 2768/58");
    println!("  paper (uplink):   0% 3703kbps/332ms, 5% 2598/378, 10% 1163/314");
    for r in rows {
        println!(
            "  {:12} {:>3.0}% loss: {:>6.0} kbps at {:>6.0} ms",
            r.link.id(),
            r.loss_rate * 100.0,
            r.result.throughput_kbps,
            r.result.self_inflicted_ms
        );
    }
    Ok(())
}

fn run_tunnel(cfg: &ExperimentConfig) -> std::io::Result<()> {
    let r = figures::tunnel_comparison(cfg)?;
    println!("\n== s5.7 SproutTunnel isolation (Verizon LTE downlink) ==");
    println!("  paper: cubic 8336->3776 kbps (-55%), skype 78->490 kbps (+528%), skype delay 6.0->0.17 s (-97%)");
    println!(
        "  cubic throughput {:>7.0} -> {:>7.0} kbps ({:+.0}%)",
        r.cubic_direct_kbps,
        r.cubic_tunnel_kbps,
        100.0 * (r.cubic_tunnel_kbps / r.cubic_direct_kbps - 1.0)
    );
    println!(
        "  skype throughput {:>7.0} -> {:>7.0} kbps ({:+.0}%)",
        r.skype_direct_kbps,
        r.skype_tunnel_kbps,
        100.0 * (r.skype_tunnel_kbps / r.skype_direct_kbps - 1.0)
    );
    println!(
        "  skype 95% delay  {:>7.2} -> {:>7.2} s ({:+.0}%)",
        r.skype_direct_delay_s,
        r.skype_tunnel_delay_s,
        100.0 * (r.skype_tunnel_delay_s / r.skype_direct_delay_s - 1.0)
    );
    Ok(())
}

fn run_contention(cfg: &ExperimentConfig) -> std::io::Result<()> {
    let t0 = Instant::now();
    let rows = figures::contention(cfg)?;
    println!(
        "\n== contention: {} cells, per-flow shares of one bottleneck queue ({:.0?}) ==",
        rows.len(),
        t0.elapsed()
    );
    for r in rows {
        println!(
            "  {} (util {:.2}, Jain {:.3})",
            r.label, r.utilization, r.fairness
        );
        for (spec, flow) in &r.flows {
            println!(
                "    flow {} {:20} {:>8.0} kbps  p95 {:>9.0} ms",
                flow.flow, spec, flow.throughput_kbps, flow.p95_delay_ms
            );
        }
    }
    Ok(())
}

fn run_soak(cfg: &ExperimentConfig) -> std::io::Result<()> {
    let t0 = Instant::now();
    let matrix_len = figures::soak_matrix(cfg).len();
    println!(
        "soak: {matrix_len} cells ({} links x {} delays x {} queues; kill/resume with --resume, farm out with --shard I/N)",
        cfg.soak.links.len(),
        cfg.soak.prop_delays_ms.len(),
        cfg.soak.queues.len()
    );
    let rows = figures::soak(cfg)?;
    println!(
        "\n== soak: per-workload means over {matrix_len} cells ({:.0?}) ==",
        t0.elapsed()
    );
    for r in rows {
        println!(
            "  {:24} {:>4} cells  {:>7.0} kbps  self-inflicted {:>8.0} ms",
            r.workload, r.cells, r.mean_throughput_kbps, r.mean_self_inflicted_ms
        );
    }
    Ok(())
}

fn run_impair(cfg: &ExperimentConfig) -> std::io::Result<()> {
    let t0 = Instant::now();
    let rows = figures::impair(cfg)?;
    println!(
        "\n== impair: graceful degradation under injected faults ({} schemes x {} links x {} presets, {:.0?}) ==",
        figures::IMPAIR_SCHEMES.len(),
        cfg.impair.links.len(),
        cfg.impair.impairments.len(),
        t0.elapsed()
    );
    for r in rows {
        let fmt_or_na = |v: f64, unit: &str| {
            if v.is_finite() {
                format!("{v:.0}{unit}")
            } else {
                "n/a".to_string()
            }
        };
        println!(
            "  {:44} {:>7.0} kbps  p95 {:>7.0} ms  outages {:>2}  recovery {:>8}  degraded-delivery {:>5}",
            r.label,
            r.result.throughput_kbps,
            r.result.p95_delay_ms,
            r.result.outages,
            fmt_or_na(r.result.recovery_ms, " ms"),
            if r.result.degraded_delivery.is_finite() {
                format!("{:.2}", r.result.degraded_delivery)
            } else {
                "n/a".to_string()
            }
        );
    }
    Ok(())
}

fn run_serve(cfg: &ExperimentConfig) -> std::io::Result<()> {
    let t0 = Instant::now();
    let rows = figures::serve(cfg)?;
    println!(
        "\n== serve: multi-session server capacity ({} session counts x {} links, {:.0?}) ==",
        cfg.serve.sessions.len(),
        cfg.serve.links.len(),
        t0.elapsed()
    );
    for r in rows {
        println!(
            "  {:28} {:>5} sessions  {:>12} bytes delivered  per-session {:>9}..{:>9}  Jain {:.4}",
            r.label,
            r.sessions,
            r.delivered_bytes,
            r.min_session_bytes,
            r.max_session_bytes,
            r.fairness
        );
    }
    Ok(())
}

fn run_replay(cfg: &ExperimentConfig) -> std::io::Result<()> {
    let t0 = Instant::now();
    let rows = figures::replay(cfg)?;
    println!(
        "\n== replay: schemes over measured captures ({} schemes x {} captures, {:.0?}) ==",
        cfg.replay.schemes.len(),
        cfg.replay.traces.len(),
        t0.elapsed()
    );
    for r in rows {
        println!("  {}", figures::fmt_result(&r.label, &r.result));
    }
    if cfg.timeseries {
        println!("per-cell time-series TSVs written next to replay_sweep.json");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_names(name: &str) -> Vec<String> {
        matrices(&ExperimentConfig::default(), name)
            .iter()
            .map(|m| m.name().to_string())
            .collect()
    }

    #[test]
    fn all_sweeps_each_matrix_once() {
        let names = matrix_names(ALL);
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "`all` sweeps {name} twice");
        }
    }

    #[test]
    fn artifacts_derive_from_the_matrices() {
        // The sweep JSON artifacts each name writes, as the hand-kept
        // per-experiment table listed them before the registry.
        let expected: &[(&str, &[&str])] = &[
            ("fig1", &["fig1"]),
            ("fig2", &["fig2"]),
            ("fig7", &["fig7"]),
            ("fig8", &["fig7"]),
            ("fig9", &["fig9"]),
            ("loss", &["loss"]),
            ("tunnel", &["tunnel"]),
            ("contention", &["contention"]),
            ("soak", &["soak"]),
            ("impair", &["impair"]),
            ("serve", &["serve"]),
            ("replay", &["replay"]),
            (ALL, &["fig1", "fig2", "fig7", "fig9", "loss", "tunnel"]),
        ];
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let listed: Vec<&str> = expected[..expected.len() - 1]
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(names, listed, "every registry entry is checked");
        for (name, artifacts) in expected {
            assert_eq!(matrix_names(name), *artifacts, "{name}");
        }
        assert!(select("nope").is_none());
        assert!(matrices(&ExperimentConfig::default(), "nope").is_empty());
    }
}
