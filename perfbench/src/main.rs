//! `perfbench`: the repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig7|serve|soak-resume --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, at most `min(nproc, 2)` worker threads. With `--trace 0`
//! it reports the end-to-end metrics of untraced runs; with `--trace 1`
//! it reports the per-layer metrics of a traced run. The last line of
//! standard output is one JSON object; the lines before it are the human
//! report. Scratch files live under `.bench_scratch/` in the working
//! directory.

mod layers;
mod serve;
mod setup;
mod spans;
mod stats;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use layers::{Counters, LayerReport};
use spans::SpanLog;
use stats::{percentile, summarize, Summary};

/// The seed the reference digests were recorded at: the repository's
/// default `ExperimentConfig` seed.
const DEFAULT_SEED: u64 = 20130401;

/// `fingerprint64` of the canonical `fig7` sweep JSON at [`DEFAULT_SEED`].
const FIG7_DIGEST: u64 = 0x7ca4_6f2c_13ae_8be5;
/// `fingerprint64` of the canonical `soak-resume` sweep JSON.
const SOAK_DIGEST: u64 = 0x43a5_466a_a057_79f5;
/// `fingerprint64` of the serve cell's per-session delivered bytes
/// (little-endian u64 per session, in session order).
const SERVE_DIGEST: u64 = 0x445a_267b_6ec9_7b25;

/// Worker threads of the sweep engine and of the traced sweep. One: on
/// hosts whose second CPU comes and goes, the wall time of two busy
/// threads swings by up to 2x with the neighbours' load, while one busy
/// thread runs at a steady speed.
const WORKERS: usize = 1;

const USAGE: &str =
    "usage: perfbench --workload fig7|serve|soak-resume [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Fig7,
    Serve,
    SoakResume,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "fig7" => Some(Workload::Fig7),
            "serve" => Some(Workload::Serve),
            "soak-resume" => Some(Workload::SoakResume),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Fig7 => "fig7",
            Workload::Serve => "serve",
            Workload::SoakResume => "soak-resume",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What every workload needs to know about the run.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Whether the recorded digests apply (the seed is [`DEFAULT_SEED`]).
    pub default_seed: bool,
    /// Seconds to measure.
    pub seconds: f64,
    /// Worker threads.
    pub threads: usize,
    /// This run's scratch directory.
    pub run_dir: PathBuf,
    /// Span clock origin.
    pub epoch: Instant,
    notes: std::sync::Mutex<Vec<String>>,
}

impl Ctx {
    /// Add a line to the human report.
    pub fn note(&self, line: Option<String>) {
        self.notes
            .lock()
            .expect("notes are only pushed")
            .extend(line);
    }
}

/// Operations attempted and failed; `failed / attempted` is the run's
/// error rate.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Count `n` operations, `failed` of which failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Count one check; a failing one is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok));
        if !ok {
            self.problems.push(what());
        }
    }

    /// Record why operations failed.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }
}

/// Samples of the end-to-end metrics, one per measured repetition (or
/// per tick or per cell, for `tick_ms`).
#[derive(Default)]
pub struct EndToEnd {
    /// Cold set-up times, s.
    pub setup_s: Vec<f64>,
    /// Cells executed per host second, per repetition.
    pub cells_per_s: Vec<f64>,
    /// Virtual session-seconds per host second, per repetition.
    pub sessions_per_s: Vec<f64>,
    /// Cells reassembled and rendered per host second, per merge.
    pub merge_cells_per_s: Vec<f64>,
    /// Host ms per 20 ms virtual tick: per tick in serve, per sweep
    /// repetition (its wall time over its cells' ticks) in the sweeps.
    pub tick_ms: Vec<f64>,
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    summary: Option<Summary>,
    /// The samples, when few enough to print.
    samples: Vec<f64>,
    /// Whether the metric is in the result line (and so gated); an
    /// ungated metric is printed in the report only.
    gated: bool,
}

impl Metric {
    /// A metric read once.
    pub fn value(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: None,
            samples: Vec::new(),
            gated: true,
        }
    }

    /// A metric whose value is the median of `samples`.
    fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = summarize(samples);
        Metric {
            name,
            unit,
            value: summary.median,
            summary: Some(summary),
            samples: if samples.len() <= PRINTED_SAMPLES {
                samples.to_vec()
            } else {
                Vec::new()
            },
            gated: true,
        }
    }
}

/// Sample sets up to this size are printed in full.
const PRINTED_SAMPLES: usize = 12;

fn end_to_end_metrics(e: &EndToEnd) -> Vec<Metric> {
    vec![
        Metric::median("setup_s", "s", &e.setup_s),
        Metric::median("cells_per_s", "1/s", &e.cells_per_s),
        Metric::median("sessions_per_s", "1/s", &e.sessions_per_s),
        // Reported but not gated: reading small cache files swings by up to
        // 50% between runs with the host's state (see README.md).
        Metric {
            gated: false,
            ..Metric::median("merge_cells_per_s", "1/s", &e.merge_cells_per_s)
        },
        Metric::median("tick_p50_ms", "ms", &e.tick_ms),
        // Reported but not gated: one stalled tick moves serve's p99, which
        // read 13-31 ms over ten runs of unchanged code (see README.md).
        Metric {
            value: percentile(&e.tick_ms, 9900),
            gated: false,
            ..Metric::median("tick_p99_ms", "ms", &e.tick_ms)
        },
        Metric::value("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

/// VmHWM of this process, MB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host and provenance of this run.
fn provenance(args: &Args, threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    // Only a repository rooted at the working directory names this
    // checkout's revision.
    let cwd = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let git = command_line("git", &["rev-parse", "--show-toplevel"])
        .filter(|top| Path::new(top).canonicalize().ok() == cwd)
        .and_then(|_| command_line("git", &["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    format!(
        "nproc={nproc} cpu={cpu:?} rustc={rustc:?} git={git} seed={} threads={threads} workload={} seconds={} trace={}",
        args.seed,
        args.workload.name(),
        args.seconds,
        u8::from(args.trace)
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Pin the process to the CPU it is running on, so that set-up's table
/// DP (which spreads over every CPU the process may use) runs on one CPU
/// like the rest of the benchmark. Returns that CPU.
fn pin_to_current_cpu() -> std::io::Result<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's state.
    let cpu =
        usize::try_from(unsafe { sched_getcpu() }).map_err(|_| std::io::Error::last_os_error())?;
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| std::io::Error::other("CPU index beyond 1023"))?;
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte cpu_set_t and the
    // size passed is exactly its size; pid 0 names the calling thread,
    // from which every later thread inherits the mask.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

fn run(args: &Args) -> std::io::Result<()> {
    let threads = WORKERS;
    let host = provenance(args, threads);
    let cpu = pin_to_current_cpu()?;
    let host = format!("{host} pinned_cpu={cpu}");
    let scratch = PathBuf::from(".bench_scratch");
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let run_dir = scratch.join(format!("{tag}-pid{}", std::process::id()));
    std::fs::create_dir_all(&run_dir)?;
    let ctx = Ctx {
        seed: args.seed,
        default_seed: args.seed == DEFAULT_SEED,
        seconds: args.seconds,
        threads,
        run_dir,
        epoch: Instant::now(),
        notes: std::sync::Mutex::new(Vec::new()),
    };
    let mut tally = Tally::default();
    let mut log = SpanLog::new(ctx.epoch, 0);
    let counters0 = Counters::now();

    let sweep_spec = match args.workload {
        Workload::Fig7 => Some(sweep::SweepSpec {
            matrix: sweep::fig7(args.seed),
            exec_share: 0.85,
            reference: FIG7_DIGEST,
        }),
        Workload::SoakResume => Some(sweep::SweepSpec {
            matrix: sweep::soak(args.seed),
            exec_share: 0.7,
            reference: SOAK_DIGEST,
        }),
        Workload::Serve => None,
    };
    let needs = match &sweep_spec {
        Some(spec) => sweep::needs(&spec.matrix),
        None => serve::needs(),
    };
    let setup = setup::cold_setups(&ctx.run_dir, args.seed, &needs, &mut log)?;

    let metrics = if args.trace {
        let mut report = LayerReport {
            setup_reps: setup::SETUP_REPS,
            ..LayerReport::default()
        };
        match &sweep_spec {
            Some(spec) => {
                sweep::run_traced(&ctx, spec, &setup.warm, &mut tally, &mut report, &mut log)
            }
            None => serve::run_traced(
                &ctx,
                SERVE_DIGEST,
                &setup.warm,
                &mut tally,
                &mut report,
                &mut log,
            ),
        }
        report.spans.append(&mut log.spans);
        report.counters = Some(Counters::now().since(counters0));
        let (metrics, a) = layers::per_layer_metrics(&report);
        tally.check(a.violations as f64 <= a.roots as f64 * spans::VIOLATING_ROOTS_SHARE, || {
            format!(
                "{} of {} cells or ticks have more unattributed time than {}% of their wall span (floor {} us)",
                a.violations,
                a.roots,
                spans::UNATTRIBUTED_SHARE * 100.0,
                spans::UNATTRIBUTED_FLOOR_NS / 1000
            )
        });
        spans::write_jsonl(&scratch.join(format!("{tag}.spans.jsonl")), &report.spans)?;
        metrics
    } else {
        let mut e2e = EndToEnd {
            setup_s: setup.secs.clone(),
            ..EndToEnd::default()
        };
        match &sweep_spec {
            Some(spec) => sweep::run(&ctx, spec, &setup.warm, &mut tally, &mut e2e),
            None => serve::run(&ctx, SERVE_DIGEST, &setup.warm, &mut tally, &mut e2e),
        }
        end_to_end_metrics(&e2e)
    };
    sprout_cache::reset_override();
    std::fs::remove_dir_all(&ctx.run_dir)?;

    for m in &metrics {
        if !m.value.is_finite() {
            tally.check(false, || format!("{} was not measured", m.name));
        }
    }
    let correct = tally.failed == 0 && tally.problems.is_empty();
    let mut report = vec![
        format!("# perfbench {}", args.workload.name()),
        format!("# host {host}"),
    ];
    report.extend(
        ctx.notes
            .lock()
            .expect("notes are only pushed")
            .iter()
            .map(|n| format!("# {n}")),
    );
    for m in &metrics {
        let mut line = format!("{:<32} {:>14} {:<6}", m.name, json_number(m.value), m.unit);
        if !m.gated {
            line += "  (ungated)";
        }
        if let Some(s) = &m.summary {
            line += &format!("  median={} n={}", json_number(s.median), s.n);
            match s.tail {
                Some((p, v)) => line += &format!(" p{p}={}", json_number(v)),
                None => line += " tail=n/a",
            }
        }
        if !m.samples.is_empty() {
            let s: Vec<String> = m.samples.iter().map(|v| format!("{v:.6}")).collect();
            line += &format!(" samples=[{}]", s.join(" "));
        }
        report.push(line);
    }
    report.push(format!(
        "{:<32} {:>14} {:<6}  ({} of {} operations failed)",
        "error_rate",
        json_number(tally.failed as f64 / tally.attempted.max(1) as f64),
        "ratio",
        tally.failed,
        tally.attempted
    ));
    report.extend(tally.problems.iter().map(|p| format!("! {p}")));
    let metrics_json: Vec<String> = metrics
        .iter()
        .filter(|m| m.gated)
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics_json.join(",")
    );
    std::fs::write(
        scratch.join(format!("{tag}.txt")),
        format!("{}\n{result}\n", report.join("\n")),
    )?;
    for line in &report {
        println!("{line}");
    }
    println!("{result}");
    Ok(())
}
