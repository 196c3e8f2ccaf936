//! The `fig7` and `soak-resume` workloads: a scenario matrix executed by
//! the sweep engine into an empty cell cache (the write path), then
//! reassembled from that cache and rendered (the read path).

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sprout_baselines::{VideoAppReceiver, VideoAppSender};
use sprout_bench::cellcache::{load_cell, store_cell};
use sprout_bench::figures::{fig7_matrix, paired, soak_matrix, SoakAxes};
use sprout_bench::sweep::{result_to_json, run_cell, CellOutcome, INTERACTIVE_FLOW};
use sprout_bench::{
    build_endpoints, sweep_to_json, CellCachePolicy, ExperimentConfig, FlowSummary, LinkSpec,
    ResolvedQueue, RunConfig, Scenario, ScenarioMatrix, Scheme, SchemeResult, SweepEngine,
    SweepResult, Workload,
};
use sprout_cache::fingerprint64;
use sprout_core::{SproutConfig, SproutEndpoint};
use sprout_sim::{
    direction_stats, CoDelConfig, Endpoint, PathConfig, QueueConfig, Simulation, DEEP_QUEUE_BYTES,
};
use sprout_trace::{derive_labeled_seed, Duration, Timestamp, Trace};
use sprout_tunnel::{TunnelEndpoint, TunnelHost};

use crate::layers::LayerReport;
use crate::setup::{dir_bytes, fresh_copy, Needs};
use crate::spans::{take_acc, Layer, SpanLog, Timed};
use crate::{Ctx, EndToEnd, Tally};

/// Virtual seconds per `soak-resume` cell: short, so per-cell harness
/// costs dominate.
pub const SOAK_CELL_SECS: u64 = 4;
/// Warm-up of a `soak-resume` cell, seconds.
pub const SOAK_WARMUP_SECS: u64 = 1;

/// One sweep workload.
pub struct SweepSpec {
    /// The matrix every run executes.
    pub matrix: ScenarioMatrix,
    /// Share of `--seconds` spent executing; the rest merges.
    pub exec_share: f64,
    /// `fingerprint64` of the canonical sweep JSON at the default seed.
    pub reference: u64,
}

/// `fig7_matrix` at paper-length cells (300 s, 60 s warm-up).
pub fn fig7(seed: u64) -> ScenarioMatrix {
    fig7_matrix(&ExperimentConfig {
        seed,
        ..ExperimentConfig::default()
    })
}

/// `soak_matrix` (1440 cells) at [`SOAK_CELL_SECS`] per cell.
pub fn soak(seed: u64) -> ScenarioMatrix {
    soak_matrix(&ExperimentConfig {
        seed,
        warmup_secs: SOAK_WARMUP_SECS,
        soak: SoakAxes {
            secs: Some(SOAK_CELL_SECS),
            ..SoakAxes::default()
        },
        ..ExperimentConfig::default()
    })
}

/// The traces and table a matrix's cells read.
pub fn needs(matrix: &ScenarioMatrix) -> Needs {
    let mut traces = Vec::new();
    for cell in matrix.cells() {
        for link in [cell.link, paired(cell.link)] {
            let key = (link.profile().expect("synthetic links"), cell.duration);
            if !traces.contains(&key) {
                traces.push(key);
            }
        }
    }
    Needs {
        traces,
        table: SproutConfig::paper(),
    }
}

/// One executed sweep.
struct Executed {
    results: Vec<SweepResult>,
    json: String,
    wall_s: f64,
}

/// Execute `matrix` with the sweep engine into a fresh copy of the warm
/// cache at `run_dir/exec-<rep>`. Every cell counts as one operation.
fn execute(
    ctx: &Ctx,
    matrix: &ScenarioMatrix,
    warm: &Path,
    rep: usize,
    tally: &mut Tally,
) -> Option<Executed> {
    let dir = ctx.run_dir.join(format!("exec-{rep}"));
    fresh_copy(warm, &dir).expect("the cache copy is writable");
    if rep > 0 {
        let _ = std::fs::remove_dir_all(ctx.run_dir.join(format!("exec-{}", rep - 1)));
    }
    sprout_cache::set_dir(&dir);
    let engine = SweepEngine::new(ctx.seed).with_threads(ctx.threads);
    let t0 = Instant::now();
    let outcome = engine.try_run(matrix);
    let wall_s = t0.elapsed().as_secs_f64();
    let cells = matrix.len() as u64;
    match outcome {
        Ok(results) => {
            tally.ops(cells, 0);
            let json = sweep_to_json(matrix.name(), ctx.seed, &results);
            Some(Executed {
                results,
                json,
                wall_s,
            })
        }
        Err(e) => {
            let failed = match &e {
                sprout_bench::SweepError::CellsPanicked { failures, .. } => failures.len() as u64,
                sprout_bench::SweepError::MissingCells { labels, .. } => labels.len() as u64,
            };
            tally.ops(cells, failed);
            tally.problem(format!("sweep {}: {e}", matrix.name()));
            None
        }
    }
}

/// Reassemble `matrix`, swept at master seed `seed`, from the current
/// cell cache and render it. Every cell counts as one operation.
pub fn merge(
    ctx: &Ctx,
    seed: u64,
    matrix: &ScenarioMatrix,
    tally: &mut Tally,
) -> Option<(String, f64)> {
    let engine = SweepEngine::new(seed)
        .with_threads(ctx.threads)
        .with_policy(CellCachePolicy::Merge);
    let t0 = Instant::now();
    let out = engine
        .try_run(matrix)
        .map(|results| sweep_to_json(matrix.name(), seed, &results));
    let wall_s = t0.elapsed().as_secs_f64();
    match out {
        Ok(json) => {
            tally.ops(matrix.len() as u64, 0);
            Some((json, wall_s))
        }
        Err(e) => {
            tally.ops(matrix.len() as u64, matrix.len() as u64);
            tally.problem(format!("merge {}: {e}", matrix.name()));
            None
        }
    }
}

/// Check one executed sweep's JSON: equal to the run's first sweep, and
/// at the default seed equal to the recorded digest.
fn check_executed(
    ctx: &Ctx,
    spec: &SweepSpec,
    json: &str,
    first: &mut Option<String>,
    tally: &mut Tally,
) {
    let name = spec.matrix.name();
    if ctx.default_seed {
        let digest = fingerprint64(json.as_bytes());
        tally.check(digest == spec.reference, || {
            format!(
                "{name}: sweep digest {digest:016x} differs from the recorded {:016x}",
                spec.reference
            )
        });
    }
    match first {
        None => *first = Some(json.to_string()),
        Some(f) => tally.check(f == json, || {
            format!("{name}: a repeated sweep rendered different JSON")
        }),
    }
}

/// Sprout's mean throughput and self-inflicted delay over a fig7 sweep.
fn sprout_note(results: &[SweepResult]) -> Option<String> {
    let sprout: Vec<SchemeResult> = results
        .iter()
        .filter(|r| r.scenario.workload == Workload::Scheme(Scheme::Sprout))
        .filter_map(|r| r.metrics)
        .collect();
    if sprout.is_empty() {
        return None;
    }
    let n = sprout.len() as f64;
    Some(format!(
        "sprout over {} cells: mean throughput {:.1} kbps, mean self-inflicted delay {:.1} ms",
        sprout.len(),
        sprout.iter().map(|m| m.throughput_kbps).sum::<f64>() / n,
        sprout.iter().map(|m| m.self_inflicted_ms).sum::<f64>() / n,
    ))
}

/// The untraced run: repeated sweeps, then repeated merges.
pub fn run(ctx: &Ctx, spec: &SweepSpec, warm: &Path, tally: &mut Tally, e2e: &mut EndToEnd) {
    let matrix = &spec.matrix;
    let cells = matrix.len() as f64;
    let cell_secs = matrix
        .cells()
        .iter()
        .map(|c| c.duration.as_secs_f64())
        .sum::<f64>();
    let budget = ctx.seconds * spec.exec_share;
    let mut first = None;
    let t0 = Instant::now();
    let mut rep = 0;
    while rep < 2 || t0.elapsed().as_secs_f64() < budget {
        if let Some(x) = execute(ctx, matrix, warm, rep, tally) {
            check_executed(ctx, spec, &x.json, &mut first, tally);
            e2e.cells_per_s.push(cells / x.wall_s);
            e2e.sessions_per_s.push(cell_secs / x.wall_s);
            e2e.tick_ms.push(x.wall_s * 1e3 / (cell_secs / 0.020));
            if rep == 0 {
                let digest = fingerprint64(x.json.as_bytes());
                ctx.note(Some(format!(
                    "{} sweep digest {digest:016x}",
                    matrix.name()
                )));
                ctx.note(sprout_note(&x.results));
            }
        }
        rep += 1;
    }
    let Some(executed) = first else { return };
    let t0 = Instant::now();
    let budget = ctx.seconds - budget;
    while e2e.merge_cells_per_s.len() < 3 || t0.elapsed().as_secs_f64() < budget {
        let Some((json, wall_s)) = merge(ctx, ctx.seed, matrix, tally) else {
            return;
        };
        tally.check(json == executed, || {
            format!(
                "{}: merged JSON differs from the executed JSON",
                matrix.name()
            )
        });
        e2e.merge_cells_per_s.push(cells / wall_s);
    }
}

/// The traced run: one untraced sweep and merge, then the same cells
/// re-executed through public per-cell functions with spans, then a
/// traced merge.
pub fn run_traced(
    ctx: &Ctx,
    spec: &SweepSpec,
    warm: &Path,
    tally: &mut Tally,
    report: &mut LayerReport,
    log: &mut SpanLog,
) {
    let matrix = &spec.matrix;
    let failures0 = sprout_bench::cell_failure_counters();
    let Some(untraced) = execute(ctx, matrix, warm, 0, tally) else {
        return;
    };
    let (workers, _) = sprout_bench::last_batch_layout();
    let failures = sprout_bench::cell_failure_counters().since(failures0);
    check_executed(ctx, spec, &untraced.json, &mut None, tally);
    report.sweep_cell_ms = untraced.results.iter().map(|r| r.wall_ms).collect();
    report.busy_ratio =
        report.sweep_cell_ms.iter().sum::<f64>() / 1e3 / (workers.max(1) as f64 * untraced.wall_s);
    report.sweep_failed = failures.failed;
    report.sweep_timed_out = failures.timed_out;
    let Some((merged, merge_wall_s)) = merge(ctx, ctx.seed, matrix, tally) else {
        return;
    };
    tally.check(merged == untraced.json, || {
        format!(
            "{}: merged JSON differs from the executed JSON",
            matrix.name()
        )
    });

    let dir = ctx.run_dir.join("traced");
    fresh_copy(warm, &dir).expect("the cache copy is writable");
    sprout_cache::set_dir(&dir);
    let bytes0 = dir_bytes(&dir).expect("the cache directory is readable");
    let t0 = Instant::now();
    let traced = traced_sweep(ctx, matrix, log);
    let traced_wall_s = t0.elapsed().as_secs_f64();
    report.cell_bytes_written = dir_bytes(&dir)
        .expect("the cache directory is readable")
        .saturating_sub(bytes0);
    report.packets += traced.packets;
    report.queue_drops += traced.drops;
    report.spans.extend(traced.spans);
    for (u, t) in untraced.results.iter().zip(&traced.results) {
        let (hu, ht) = (
            fingerprint64(result_to_json(u).as_bytes()),
            fingerprint64(result_to_json(t).as_bytes()),
        );
        tally.check(hu == ht, || {
            format!(
                "{}: the traced cell's result hash {ht:016x} differs from the sweep's {hu:016x}",
                u.scenario.label
            )
        });
    }

    let t0 = Instant::now();
    let fp = matrix.fingerprint();
    let mut loaded = Vec::with_capacity(matrix.len());
    for cell in matrix.cells() {
        match log.time(cell.id, "cache.cell.load", None, || {
            load_cell(matrix.name(), fp, cell, ctx.seed)
        }) {
            Some(r) => loaded.push(r),
            None => tally.problem(format!("{}: missing from the cell cache", cell.label)),
        }
    }
    tally.ops(matrix.len() as u64, (matrix.len() - loaded.len()) as u64);
    let json = log.time(0, "bench.render", None, || {
        sweep_to_json(matrix.name(), ctx.seed, &loaded)
    });
    let traced_merge_s = t0.elapsed().as_secs_f64();
    report.render_bytes = json.len() as u64;
    tally.check(json == untraced.json, || {
        format!(
            "{}: the traced merge rendered different JSON",
            matrix.name()
        )
    });
    report.overhead_ms = (traced_wall_s + traced_merge_s - untraced.wall_s - merge_wall_s) * 1e3;
}

/// Output of [`traced_sweep`].
struct Traced {
    results: Vec<SweepResult>,
    spans: Vec<crate::spans::Span>,
    packets: u64,
    drops: u64,
}

/// Re-execute every cell of `matrix` on `ctx.threads` workers, dealing
/// cells grouped by `(link, duration)` as the engine's batches do, and
/// storing each result as the engine does.
fn traced_sweep(ctx: &Ctx, matrix: &ScenarioMatrix, log: &mut SpanLog) -> Traced {
    let cells = matrix.cells();
    let traces = log.time(0, "trace.load", None, || {
        let mut traces: HashMap<(LinkSpec, Duration), Trace> = HashMap::new();
        for (profile, duration) in needs(matrix).traces {
            traces.insert(
                (profile.into(), duration),
                profile.generate(duration, ctx.seed),
            );
        }
        traces
    });
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: HashMap<(LinkSpec, Duration), usize> = HashMap::new();
    for (k, cell) in cells.iter().enumerate() {
        let g = *group_of
            .entry((cell.link, cell.duration))
            .or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
        groups[g].push(k);
    }
    let slots: Vec<Mutex<Option<SweepResult>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let fp = matrix.fingerprint();
    let workers: Vec<(SpanLog, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.threads)
            .map(|w| {
                let (groups, slots, next, traces) = (&groups, &slots, &next, &traces);
                scope.spawn(move || {
                    let mut log = SpanLog::new(ctx.epoch, w as u64 + 1);
                    let (mut packets, mut drops) = (0, 0);
                    loop {
                        let g = next.fetch_add(1, Ordering::Relaxed);
                        let Some(group) = groups.get(g) else { break };
                        for &k in group {
                            let (r, p, d) = traced_cell(
                                &mut log,
                                matrix.name(),
                                fp,
                                &cells[k],
                                ctx.seed,
                                traces,
                            );
                            packets += p;
                            drops += d;
                            *slots[k].lock().expect("no worker panics holding a slot") = Some(r);
                        }
                    }
                    (log, packets, drops)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    let mut out = Traced {
        results: slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("no worker panics holding a slot")
                    .expect("every cell ran")
            })
            .collect(),
        spans: Vec::new(),
        packets: 0,
        drops: 0,
    };
    for (log, p, d) in workers {
        out.spans.extend(log.spans);
        out.packets += p;
        out.drops += d;
    }
    out
}

/// The cell's run configuration, derived exactly as the sweep engine
/// derives it.
fn run_config(cell: &Scenario, cell_seed: u64, data: Trace, feedback: Trace) -> RunConfig {
    let seed = |label| derive_labeled_seed(cell_seed, label, 0);
    RunConfig {
        duration: cell.duration,
        warmup: cell.warmup,
        prop_delay: cell.prop_delay,
        loss_rate: cell.loss_rate,
        sprout: match cell.confidence_pct {
            Some(pct) => SproutConfig::with_confidence_percent(pct),
            None => SproutConfig::paper(),
        },
        loss_seed_data: seed("loss-data"),
        loss_seed_feedback: seed("loss-feedback"),
        impairment: cell.impairment,
        impair_seed_data: seed("impair-data"),
        impair_seed_feedback: seed("impair-feedback"),
        outage_seed: seed("impair-outage"),
        serve_seed: cell_seed,
        ..RunConfig::new(data, feedback)
    }
}

/// Path pair of a loss-free, unimpaired cell behind `queue`.
pub fn paths(
    data: &Trace,
    feedback: &Trace,
    prop_delay: Duration,
    queue: ResolvedQueue,
) -> (PathConfig, PathConfig) {
    let path = |trace: &Trace| {
        let mut p = PathConfig::standard(trace.clone()).with_prop_delay(prop_delay);
        p.link.queue = match queue {
            ResolvedQueue::DropTail => QueueConfig::DropTailBytes(DEEP_QUEUE_BYTES),
            ResolvedQueue::DropTailBytes(cap) => QueueConfig::DropTailBytes(cap),
            ResolvedQueue::CoDel => QueueConfig::CoDel(CoDelConfig::default()),
        };
        p
    };
    (path(data), path(feedback))
}

/// Run `sim` to `end` under a `sim.run_until` span, with one aggregate
/// span for the calls charged to the `outer` layer and, nested in it, one
/// for the `inner` layer whose endpoints the outer ones call. Returns the
/// packets the links delivered and the packets the queues dropped.
fn run_timed<A: Endpoint, B: Endpoint>(
    log: &mut SpanLog,
    id: u64,
    root: u64,
    sim: &mut Simulation<A, B>,
    end: Timestamp,
    outer: (Layer, &'static str),
    inner: Option<(Layer, &'static str)>,
) -> (u64, u64) {
    take_acc();
    let run = log.open();
    let t = Instant::now();
    sim.run_until(end);
    let t_end = Instant::now();
    let acc = take_acc();
    let outer_sid = log.aggregate(id, outer.1, run, t, t_end, acc[outer.0 as usize]);
    if let (Some((layer, name)), Some(parent)) = (inner, outer_sid) {
        log.aggregate(id, name, parent, t, t_end, acc[layer as usize]);
    }
    log.close(run, id, "sim.run_until", Some(root), t, t_end);
    let packets = sim.ab_metrics().records().len() + sim.ba_metrics().records().len();
    let drops = sim.ab_path().link().queue_drops() + sim.ba_path().link().queue_drops();
    (packets as u64, drops)
}

/// Execute one cell with spans. Scheme cells and tunneled app cells on
/// clean links are split into their layers; any other cell kind runs
/// whole through `run_cell` as one `bench.cell.run` span. Returns the result, packets delivered
/// and queue drops.
fn traced_cell(
    log: &mut SpanLog,
    matrix: &str,
    matrix_fp: u64,
    cell: &Scenario,
    seed: u64,
    traces: &HashMap<(LinkSpec, Duration), Trace>,
) -> (SweepResult, u64, u64) {
    let id = cell.id;
    let root = log.open();
    let start = Instant::now();
    let cell_seed = derive_labeled_seed(seed, "cell", id);
    let queue = cell.queue.resolve(&cell.workload);
    let rc = log.time(id, "trace.fetch", Some(root), || {
        let data = traces[&(cell.link, cell.duration)].clone();
        let feedback = traces[&(paired(cell.link), cell.duration)].clone();
        run_config(cell, cell_seed, data, feedback)
    });
    let from = Timestamp::ZERO + rc.warmup;
    let end = Timestamp::ZERO + rc.duration;
    let (mut packets, mut drops) = (0, 0);
    let split = cell.loss_rate == 0.0
        && cell.impairment.is_none()
        && cell.series_bin.is_none()
        && cell.cell_series_bin.is_none();
    let outcome = match cell.workload {
        Workload::Scheme(scheme) if split => {
            let (layer, new, calls) = match scheme {
                Scheme::Sprout | Scheme::SproutEwma => {
                    (Layer::Core, "core.endpoint.new", "core.endpoint")
                }
                _ => (
                    Layer::Baselines,
                    "baselines.endpoint.new",
                    "baselines.endpoint",
                ),
            };
            let (a, b) = log.time(id, new, Some(root), || build_endpoints(scheme, &rc));
            let mut sim = log.time(id, "sim.new", Some(root), || {
                let (ab, ba) = paths(&rc.data_trace, &rc.feedback_trace, rc.prop_delay, queue);
                Simulation::new(Timed::new(a, layer), Timed::new(b, layer), ab, ba)
            });
            (packets, drops) = run_timed(log, id, root, &mut sim, end, (layer, calls), None);
            let metrics = log.time(id, "sim.metrics", Some(root), || {
                SchemeResult::from_stats(&direction_stats(sim.ab_path(), from, end))
            });
            log.time(id, "sim.drop", Some(root), || drop(sim));
            CellOutcome {
                metrics: Some(metrics),
                ..CellOutcome::default()
            }
        }
        // An app inside a SproutTunnel session (the engine's tunneled app
        // arm): the hosts are the tunnel layer, the app endpoints inside
        // them the baselines layer.
        Workload::App { app, over } if split && over.tunnels_apps() => {
            let (a, b) = log.time(id, "tunnel.host.new", Some(root), || {
                let host = |client: Box<dyn Endpoint>| {
                    let sprout = if over == Scheme::SproutEwma {
                        SproutEndpoint::new_ewma(rc.sprout.clone())
                    } else {
                        SproutEndpoint::new(rc.sprout.clone())
                    };
                    let mut host = TunnelHost::new(TunnelEndpoint::new(sprout));
                    host.add_client(INTERACTIVE_FLOW, client);
                    Timed::new(host, Layer::Tunnel)
                };
                let sender = Timed::new(VideoAppSender::new(app.profile()), Layer::Baselines);
                let receiver = Timed::new(VideoAppReceiver::new(), Layer::Baselines);
                (host(Box::new(sender)), host(Box::new(receiver)))
            });
            let mut sim = log.time(id, "sim.new", Some(root), || {
                let (ab, ba) = paths(&rc.data_trace, &rc.feedback_trace, rc.prop_delay, queue);
                Simulation::new(a, b, ab, ba)
            });
            let inner = Some((Layer::Baselines, "baselines.endpoint"));
            (packets, drops) = run_timed(
                log,
                id,
                root,
                &mut sim,
                end,
                (Layer::Tunnel, "tunnel.host"),
                inner,
            );
            let (metrics, flow) = log.time(id, "sim.metrics", Some(root), || {
                let m = sim.b.inner().deliveries();
                let flow = FlowSummary {
                    flow: INTERACTIVE_FLOW.0,
                    throughput_kbps: m.flow_throughput_kbps(INTERACTIVE_FLOW, from, end),
                    p95_delay_ms: m
                        .flow_p95_delay(INTERACTIVE_FLOW, from, end)
                        .map_or(f64::NAN, |d| d.as_micros() as f64 / 1e3),
                };
                (
                    SchemeResult::from_stats(&direction_stats(sim.ab_path(), from, end)),
                    flow,
                )
            });
            log.time(id, "sim.drop", Some(root), || drop(sim));
            CellOutcome {
                metrics: Some(metrics),
                flows: vec![flow],
                ..CellOutcome::default()
            }
        }
        _ => log.time(id, "bench.cell.run", Some(root), || {
            run_cell(
                &cell.workload,
                &rc,
                queue,
                cell.series_bin,
                cell.cell_series_bin,
            )
        }),
    };
    let mut result = SweepResult {
        scenario: cell.clone(),
        matrix: matrix.to_string(),
        queue,
        cell_seed,
        metrics: outcome.metrics,
        flows: outcome.flows,
        fairness: outcome.fairness,
        series: outcome.series,
        interarrival: None,
        serve: outcome.serve,
        cell_series: outcome.cell_series,
        wall_ms: 0.0,
    };
    result.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    log.time(id, "cache.cell.store", Some(root), || {
        store_cell(matrix_fp, seed, &result)
    });
    log.close(root, id, "bench.cell", None, start, Instant::now());
    (result, packets, drops)
}
