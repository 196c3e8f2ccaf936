//! Regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce <experiment> [--secs N] [--warmup N] [--seed N] [--out DIR]
//!                        [--threads N] [--quick] [--json]
//!                        [--cache-dir DIR] [--no-cache] [--cell-timeout SECS]
//!                        [--shard I/N] [--merge] [--resume] [--controlled]
//!
//! experiments:
//!   fig1       Skype vs Sprout time series (Verizon LTE downlink)
//!   fig2       saturated-link interarrival distribution
//!   fig7       full comparative sweep (9 schemes x 8 links) + intro tables
//!   fig8       average utilization vs delay (needs the fig7 sweep; runs it)
//!   fig9       forecast-confidence sweep (T-Mobile 3G uplink)
//!   loss       s5.6 loss-resilience table
//!   tunnel     s5.7 SproutTunnel isolation table
//!   contention N flows sharing one bottleneck queue: per-flow
//!              throughput/delay plus Jain's fairness index per cell
//!              (--flows N sizes the default workload set, --contend
//!              declares an explicit flow list; not part of `all`)
//!   soak       long-horizon matrix: all schemes + app workloads x links x
//!              queue depths x propagation delays at paper-length (17 min)
//!              runs; defaults to --secs 1020 and is sized for --shard
//!              workers sharing a cache directory (not part of `all`)
//!   impair     fault-injection matrix: schemes x impairment presets
//!              (Gilbert-Elliott burst loss, link outages/flaps, delay
//!              jitter, packet reordering) with graceful-degradation
//!              metrics — outage count, post-outage recovery time,
//!              delivered fraction while degraded (--impairments trims
//!              the preset axis; not part of `all`)
//!   serve      multi-session server capacity: one SproutServer drives N
//!              independent sessions over a shared forecast table and a
//!              shared event loop; reports per-cell delivered bytes,
//!              per-session min/max, and Jain fairness (--sessions sets
//!              the session-count axis, default 1,16,128,1024; defaults
//!              to --secs 60; not part of `all`)
//!   replay     measured-trace comparative sweep: the scheme roster over
//!              Saturator captures replayed as the link (--trace FILE
//!              per capture, default the committed corpus excerpts;
//!              --schemes trims the roster; cells key on the capture's
//!              content fingerprint, never its path; defaults to
//!              --secs 30; not part of `all`)
//!   all        everything above except contention, soak, impair,
//!              serve, and replay
//!
//! flags:
//!   --secs N     virtual seconds per run (default 300)
//!   --warmup N   warm-up skipped before measurement (default 60)
//!   --seed N     master seed; all randomness derives from it (default 20130401)
//!   --out DIR    artifact directory (default results/)
//!   --threads N  sweep worker threads (default: one per core)
//!   --quick      shorthand for --secs 90 --warmup 20 (explicit --secs /
//!                --warmup flags win regardless of order)
//!   --json       after running, print the sweep JSON artifact(s) to stdout
//!   --cache-dir DIR  artifact cache location (default .sprout-cache,
//!                    or the SPROUT_CACHE_DIR environment variable)
//!   --no-cache   disable the artifact cache for this run
//!   --cell-timeout SECS  per-cell watchdog budget (default 600): a cell
//!                still running after SECS wall-clock seconds is
//!                abandoned and reported as a named failure instead of
//!                wedging the sweep; --resume re-executes only the
//!                timed-out/failed cells
//!   --shard I/N  execute only cells with scenario id ≡ I (mod N),
//!                depositing results in the shared cell cache; no
//!                figures or sweep artifacts are rendered
//!   --merge      serve every cell from the cell cache (error naming any
//!                absent cell) and render the full figures/artifacts —
//!                byte-identical to a single-process run
//!   --resume     like --merge, but execute whatever the cache is
//!                missing instead of failing (restart a killed sweep)
//!   --controlled run as a sprout-control worker: print a flushed
//!                heartbeat line (`CONTROL hb <seq> abandoned=<n>`) to
//!                stdout every 500 ms so the daemon can distinguish a
//!                slow worker from a dead one
//!
//! axis flags (comma-separated lists):
//!   --links LIST        link ids, e.g. vz-lte-down,tmo-3g-up
//!                       (soak, contention, impair, and serve)
//!   --prop-delays LIST  one-way propagation delays in ms, e.g. 10,25,50
//!                       (soak only)
//!   --queues LIST       queue specs: auto, droptail, codel, bytes:N
//!                       (soak only)
//!   --flows N           contending flows per default contention cell,
//!                       2..=16 (contention only)
//!   --contend LIST      explicit contention flow list by scheme tag,
//!                       e.g. sprout,cubic,cubic; app flows as
//!                       skype-over-sprout ride their own tunnel
//!                       (contention only; replaces the default workloads)
//!   --impairments LIST  fault-injection presets, e.g. none,burst,storm
//!                       from none, burst, outage, flap, jitter,
//!                       reorder, storm (impair only; replaces the
//!                       default full preset axis)
//!   --sessions LIST     session counts for the serve matrix, e.g.
//!                       1,64,1024, each in 1..=4096 (serve only;
//!                       replaces the default 1,16,128,1024 axis)
//!   --trace FILE        a Saturator capture for the replay matrix; give
//!                       the flag once per capture (replay only;
//!                       replaces the committed default corpus)
//!   --schemes LIST      scheme tags for the replay roster, e.g.
//!                       sprout,cubic,skype (replay only; replaces the
//!                       nine-scheme Figure-7 roster)
//!   --timeseries        emit per-cell time-series TSVs next to the
//!                       sweep JSON: <matrix>_<id>_delay.tsv (delay vs
//!                       time) and <matrix>_<id>_series.tsv (binned
//!                       capacity/throughput/queue depth); changes cell
//!                       identity (replay, impair, and soak only)
//! ```
//!
//! Every experiment writes TSV artifacts plus a canonical
//! `<experiment>_sweep.json` record of the scenario matrix it ran; with
//! the same seed the JSON is bit-identical for any `--threads` value,
//! identical whether the artifact cache is cold, warm, or disabled, and
//! identical whether the sweep ran in one process or as `--shard` slices
//! merged afterwards.

use std::time::Instant;

use sprout_bench::experiments::{self, ALL, EXPERIMENTS};
use sprout_bench::figures::{self, ExperimentConfig};
use sprout_bench::{cli, CellCachePolicy, ShardSpec};

const USAGE_FLAGS: &str = "usage: reproduce <experiment> [--secs N] [--warmup N] [--seed N] [--out DIR] [--threads N] [--quick] [--json] [--cache-dir DIR] [--no-cache] [--cell-timeout SECS] [--shard I/N] [--merge] [--resume] [--controlled] [--links LIST] [--prop-delays LIST] [--queues LIST] [--flows N] [--contend LIST] [--impairments LIST] [--sessions LIST] [--trace FILE]... [--schemes LIST] [--timeseries]";
/// Each experiment-specific flag with an example value; the usage text
/// names the experiments that accept it from the registry.
const AXIS_EXAMPLES: &[(&str, &str)] = &[
    ("--links", " vz-lte-down,..."),
    ("--prop-delays", " 10,25,... one-way ms"),
    ("--queues", " auto|droptail|codel|bytes:N,..."),
    ("--flows", " N"),
    ("--contend", " sprout,cubic,..."),
    ("--impairments", " none,burst,storm,..."),
    ("--sessions", " 1,64,1024,..."),
    ("--trace", " capture.trace, once per capture"),
    ("--schemes", " sprout,cubic,..."),
    ("--timeseries", ""),
];

/// The usage text, with the experiment list and each axis flag's
/// experiments taken from the registry.
fn usage() -> String {
    let names = |in_all_only: bool| -> Vec<&str> {
        EXPERIMENTS
            .iter()
            .filter(|e| e.in_all || !in_all_only)
            .map(|e| e.name)
            .collect()
    };
    let axes: Vec<String> = AXIS_EXAMPLES
        .iter()
        .map(|(flag, example)| {
            let owners = experiments::owners(flag).join("+");
            format!("{flag}{example} ({owners})")
        })
        .collect();
    format!(
        "{USAGE_FLAGS}\nexperiments: {} {ALL} (= {})\naxis flags: {}",
        names(false).join(" "),
        names(true).join(" "),
        axes.join(" | ")
    )
}

struct Options {
    cmd: String,
    cfg: ExperimentConfig,
    json: bool,
    controlled: bool,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    eprintln!("{}", usage());
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut cfg = ExperimentConfig::default();
    let mut cmd: Option<String> = None;
    let mut json = false;
    let mut merge = false;
    let mut resume = false;
    let mut no_cache = false;
    let mut controlled = false;
    // Worker-safe flags (timing, seeding, axis trims) are collected in
    // argv order and applied by the shared parser in `sprout_bench::cli`
    // — the same code path the control daemon runs at submit time, so a
    // flag vector means the same matrix here and there.
    let mut worker_args: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(arity) = cli::worker_flag_arity(&arg) {
            let flag = arg;
            worker_args.push(flag.clone());
            for _ in 0..arity {
                match args.next() {
                    Some(v) => worker_args.push(v),
                    None => usage_error(&format!("{flag} expects a value")),
                }
            }
            continue;
        }
        match arg.as_str() {
            "--out" => match args.next() {
                Some(dir) => cfg.out_dir = dir.into(),
                None => usage_error("--out expects a directory"),
            },
            "--json" => json = true,
            "--cache-dir" => match args.next() {
                Some(dir) => sprout_cache::set_dir(dir),
                None => usage_error("--cache-dir expects a directory"),
            },
            "--no-cache" => {
                no_cache = true;
                sprout_cache::disable();
            }
            "--shard" => match args.next() {
                Some(spec) => match ShardSpec::parse(&spec) {
                    Some(shard) => cfg.shard = shard,
                    None => usage_error(&format!(
                        "--shard expects I/N with I < N (e.g. 0/2), got {spec:?}"
                    )),
                },
                None => usage_error("--shard expects a spec like 0/2"),
            },
            "--merge" => merge = true,
            "--resume" => resume = true,
            "--controlled" => controlled = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                usage_error(&format!("unknown flag {other:?}"));
            }
            other if cmd.is_none() => {
                if experiments::select(other).is_none() {
                    usage_error(&format!("unknown experiment {other:?}"));
                }
                cmd = Some(other.to_string());
            }
            other => usage_error(&format!("unexpected argument {other:?}")),
        }
    }
    let cmd = cmd.unwrap_or_else(|| ALL.to_string());
    if let Err(msg) = cli::apply_worker_args(&mut cfg, &cmd, &worker_args) {
        usage_error(&msg);
    }
    if merge && resume {
        usage_error("--merge and --resume are mutually exclusive");
    }
    if merge && !cfg.shard.is_full() {
        usage_error("--merge reassembles the whole matrix; drop --shard");
    }
    if no_cache && (merge || resume || !cfg.shard.is_full()) {
        usage_error("--shard/--merge/--resume need the artifact cache; drop --no-cache");
    }
    if json && !cfg.shard.is_full() {
        usage_error("--shard runs write no sweep artifacts; --json has nothing to print");
    }
    cfg.cell_policy = if merge {
        CellCachePolicy::Merge
    } else if resume {
        CellCachePolicy::Resume
    } else {
        CellCachePolicy::Execute
    };
    Options {
        cmd,
        cfg,
        json,
        controlled,
    }
}

/// `--controlled`: announce liveness to a supervising `sprout-control`
/// daemon. A detached thread prints one heartbeat line per interval to
/// stdout — explicitly flushed, because a piped stdout is block-buffered
/// and an unflushed heartbeat is indistinguishable from a wedged worker.
/// The line carries the abandoned-thread gauge so the daemon can alarm
/// on a worker whose watchdog is abandoning cells.
fn start_heartbeat() {
    std::thread::spawn(|| {
        use std::io::Write;
        let mut seq: u64 = 0;
        loop {
            {
                let mut out = std::io::stdout().lock();
                let _ = writeln!(
                    out,
                    "CONTROL hb {seq} abandoned={}",
                    sprout_bench::abandoned_cell_threads()
                );
                let _ = out.flush();
            }
            seq += 1;
            std::thread::sleep(std::time::Duration::from_millis(500));
        }
    });
}

fn print_json_artifacts(cfg: &ExperimentConfig, cmd: &str) -> std::io::Result<()> {
    for matrix in experiments::matrices(cfg, cmd) {
        let path = cfg.sweep_json_path(matrix.name());
        print!("{}", std::fs::read_to_string(path)?);
    }
    Ok(())
}

/// `--shard I/N`: execute this process's slice of each matrix the
/// experiment declares, depositing finished cells in the shared cell
/// cache. Renders no figures and writes no sweep artifacts — a later
/// `--merge` (or `--resume`) run assembles those from the cache.
fn run_shard(cfg: &ExperimentConfig, cmd: &str) -> std::io::Result<()> {
    let engine = cfg.engine();
    for matrix in experiments::matrices(cfg, cmd) {
        let t0 = Instant::now();
        let results = engine
            .try_run(&matrix)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        println!(
            "{}: shard {}/{} finished {} of {} cells in {:.0?}",
            matrix.name(),
            cfg.shard.index,
            cfg.shard.count,
            results.len(),
            matrix.len(),
            t0.elapsed()
        );
    }
    Ok(())
}

/// A snapshot of the process-global cell-cache and cell-failure
/// counters, taken together so `all` can attribute per-experiment deltas
/// of both.
type TrafficMark = (
    sprout_cache::CacheCounters,
    sprout_bench::CellFailureCounters,
);

fn traffic_now() -> TrafficMark {
    (
        sprout_bench::cell_cache_counters(),
        sprout_bench::cell_failure_counters(),
    )
}

/// The stable cell-cache summary line (CI greps it to assert a resumed
/// run executed nothing). Names the experiment; single-experiment runs
/// print it once with the process totals, and `all` prints one line per
/// experiment (the delta since `mark`) so the traffic of each sweep is
/// attributable, plus a final `[all]` total.
fn print_cell_cache_line(experiment: &str) {
    print_cell_cache_delta(experiment, TrafficMark::default());
}

/// Print the cell-cache traffic and cell failures since `mark` under
/// `experiment`'s name and return the current counters (the next
/// experiment's `mark`).
fn print_cell_cache_delta(experiment: &str, mark: TrafficMark) -> TrafficMark {
    let now = traffic_now();
    let c = now.0.since(mark.0);
    let f = now.1.since(mark.1);
    let (workers, _) = sprout_bench::last_batch_layout();
    println!(
        "cell cache [{experiment}]: {} hits, {} misses, {} stores, {} quarantined | cells: {} failed, {} timed out | layout: {} workers",
        c.hits, c.misses, c.stores, c.quarantined, f.failed, f.timed_out, workers
    );
    now
}

fn main() {
    if let Err(e) = run() {
        // One readable message (merge misses span several lines), not
        // the Debug dump `Termination` would produce.
        eprintln!("reproduce: {e}");
        std::process::exit(1);
    }
}

fn run() -> std::io::Result<()> {
    let Options {
        cmd,
        cfg,
        json,
        controlled,
    } = parse_args();
    figures::ensure_out_dir(&cfg.out_dir)?;
    if controlled {
        start_heartbeat();
    }
    if !cfg.shard.is_full() {
        let r = run_shard(&cfg, &cmd);
        print_cell_cache_line(&cmd);
        return r;
    }
    let effective_secs = cli::effective_secs(&cfg, &cmd);
    println!(
        "reproduce: {cmd} (runs {}s, warmup {}s, seed {}, threads {}, out {:?})",
        effective_secs,
        cfg.warmup_secs,
        cfg.seed,
        if cfg.threads == 0 {
            "auto".to_string()
        } else {
            cfg.threads.to_string()
        },
        cfg.out_dir
    );

    // `all` runs its members in turn and attributes each one's cell-cache
    // traffic to it, ahead of the `[all]` total.
    let t0 = Instant::now();
    let mut mark = traffic_now();
    for experiment in experiments::select(&cmd).expect("validated in parse_args") {
        (experiment.run)(&cfg)?;
        if cmd == ALL {
            mark = print_cell_cache_delta(experiment.name, mark);
        }
    }
    if cmd == ALL {
        println!("\nall experiments done in {:.0?}", t0.elapsed());
    }
    print_cell_cache_line(&cmd);
    if json {
        print_json_artifacts(&cfg, &cmd)?;
    }
    Ok(())
}
