//! The `serve` workload: one `SproutServer` driving saturating sessions
//! on `tmo-3g-up` through `ServeSim`, stepped in 20 ms virtual ticks and
//! timed per tick. Each run of the loop is one serve cell of the
//! repository's `serve` experiment; its result is stored in the cell
//! cache and reassembled from it, as `reproduce serve --merge` would.

use std::path::Path;
use std::time::Instant;

use sprout_bench::cellcache::{load_cell, store_cell};
use sprout_bench::figures::paired_profile;
use sprout_bench::sweep::{execute_scenario, result_to_json};
use sprout_bench::{sweep_to_json, Scenario, ScenarioMatrix, ServeStats, SweepResult};
use sprout_cache::fingerprint64;
use sprout_core::{SproutConfig, SproutEndpoint};
use sprout_sim::{jain_fairness_index, Endpoint, FlowId, ServeSim};
use sprout_trace::{derive_labeled_seed, Duration, NetProfile, Timestamp, Trace};
use sprout_tunnel::SproutServer;

use crate::layers::LayerReport;
use crate::setup::Needs;
use crate::spans::{take_acc, Layer, SpanLog, Timed};
use crate::sweep::{merge, paths};
use crate::{Ctx, EndToEnd, Tally};

/// Concurrent sessions of the serve cell.
pub const SESSIONS: u32 = 256;
/// Virtual seconds of one serve cell.
pub const CELL_SECS: u64 = 4;
/// Warm-up excluded from the cell's delivered-byte window, seconds.
const WARMUP_SECS: u64 = 1;
/// The event-loop tick.
const TICK: Duration = Duration::from_millis(20);
/// The link every session runs on.
const LINK: NetProfile = NetProfile::TmobileUmtsUp;
/// Share of `--seconds` spent stepping serve cells; the rest merges.
const EXEC_SHARE: f64 = 0.85;

/// The one-cell serve matrix.
pub fn matrix() -> ScenarioMatrix {
    ScenarioMatrix::builder("serve")
        .timing(
            Duration::from_secs(CELL_SECS),
            Duration::from_secs(WARMUP_SECS),
        )
        .serve([SESSIONS])
        .links([LINK])
        .build()
}

/// The traces and table the serve cell reads.
pub fn needs() -> Needs {
    let d = Duration::from_secs(CELL_SECS);
    Needs {
        traces: vec![(LINK, d), (paired_profile(LINK), d)],
        table: SproutConfig::paper(),
    }
}

/// Build the cell's event loop: one shared server, `SESSIONS` saturating
/// EWMA Sprout clients, each on its own path pair over the same link.
fn build<C: Endpoint, S: Endpoint>(
    cell: &Scenario,
    seed: u64,
    up: &Trace,
    down: &Trace,
    client: impl Fn(SproutEndpoint) -> C,
    server: impl FnOnce(SproutServer) -> S,
) -> ServeSim<C, S> {
    let cfg = SproutConfig::paper();
    let mut srv = SproutServer::new(cfg.clone(), derive_labeled_seed(seed, "cell", cell.id));
    for sid in 1..=SESSIONS {
        srv.add_session(sid);
    }
    let mut sim = ServeSim::new(server(srv));
    let queue = cell.queue.resolve(&cell.workload);
    for sid in 1..=SESSIONS {
        let (up_path, down_path) = paths(up, down, cell.prop_delay, queue);
        let mut c = SproutEndpoint::new_ewma(cfg.clone());
        c.set_saturating();
        c.set_flow(FlowId(sid));
        sim.add_session(FlowId(sid), client(c), up_path, down_path);
    }
    sim
}

/// The cell's result as the sweep engine reports it, the digest of the
/// per-session delivered bytes, and whether bytes were conserved.
fn outcome<C: Endpoint, S: Endpoint>(
    sim: &ServeSim<C, S>,
    cell: &Scenario,
    seed: u64,
) -> (SweepResult, u64, bool) {
    let from = Timestamp::ZERO + cell.warmup;
    let end = Timestamp::ZERO + cell.duration;
    let mut window = Vec::with_capacity(SESSIONS as usize);
    let mut throughputs = Vec::with_capacity(SESSIONS as usize);
    let mut full_run: u64 = 0;
    for i in 0..SESSIONS as usize {
        let m = sim.up_path(i).metrics();
        window.push(m.delivered_bytes(from, end, None));
        throughputs.push(m.throughput_kbps(from, end));
        full_run += m.delivered_bytes(Timestamp::ZERO, Timestamp::FAR_FUTURE, None);
    }
    let bytes: Vec<u8> = window.iter().flat_map(|b| b.to_le_bytes()).collect();
    let result = SweepResult {
        scenario: cell.clone(),
        matrix: "serve".to_string(),
        queue: cell.queue.resolve(&cell.workload),
        cell_seed: derive_labeled_seed(seed, "cell", cell.id),
        metrics: None,
        flows: Vec::new(),
        fairness: jain_fairness_index(&throughputs),
        series: Vec::new(),
        interarrival: None,
        serve: Some(ServeStats {
            sessions: SESSIONS,
            delivered_bytes: window.iter().sum(),
            min_session_bytes: window.iter().copied().min().unwrap_or(0),
            max_session_bytes: window.iter().copied().max().unwrap_or(0),
            wire_delivered_bytes: sim.delivered_to_server_bytes(),
        }),
        cell_series: None,
        wall_ms: 0.0,
    };
    (
        result,
        fingerprint64(&bytes),
        full_run == sim.delivered_to_server_bytes(),
    )
}

/// Step `sim` to the end of the cell in 20 ms ticks; host time per tick.
fn step<C: Endpoint, S: Endpoint>(sim: &mut ServeSim<C, S>, cell: &Scenario) -> Vec<f64> {
    let end = Timestamp::ZERO + cell.duration;
    let mut ticks = Vec::new();
    let mut now = Timestamp::ZERO;
    while now < end {
        now = (now + TICK).min(end);
        let t = Instant::now();
        sim.run_until(now);
        ticks.push(t.elapsed().as_secs_f64() * 1e3);
    }
    ticks
}

/// Link realisations an untraced run cycles through: the workload seed,
/// then seeds derived from it. A 4 s trace samples the link's delivery
/// rate coarsely and serve's work follows that rate, so with one
/// realisation per run the run-to-run spread would mostly be the seed's.
const REALISATIONS: usize = 3;

/// Master seed of realisation `k`.
fn realisation_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        derive_labeled_seed(seed, "serve-realisation", k as u64)
    }
}

/// Per-run checks of serve cell outcomes.
struct Checks<'a> {
    ctx: &'a Ctx,
    reference: u64,
    /// Digest and result JSON of each realisation's first cell.
    first: Vec<Option<(u64, String)>>,
}

impl Checks<'_> {
    /// Conservation, the recorded digest (realisation 0 at the default
    /// seed), and equality with the realisation's first cell.
    fn check(
        &mut self,
        tally: &mut Tally,
        k: usize,
        (result, digest, conserved): &(SweepResult, u64, bool),
    ) {
        tally.check(*conserved, || {
            "serve: delivered_to_server_bytes differs from the sum of per-session deliveries"
                .to_string()
        });
        if k == 0 && self.ctx.default_seed {
            tally.check(*digest == self.reference, || {
                format!("serve: per-session bytes digest {digest:016x} differs from the recorded {:016x}", self.reference)
            });
        }
        let json = result_to_json(result);
        match &self.first[k] {
            None => self.first[k] = Some((*digest, json)),
            Some((d, j)) => tally.check(d == digest && *j == json, || {
                "serve: a repeated cell gave a different result".to_string()
            }),
        }
    }
}

fn traces(seed: u64) -> (Trace, Trace) {
    let d = Duration::from_secs(CELL_SECS);
    (
        LINK.generate(d, seed),
        paired_profile(LINK).generate(d, seed),
    )
}

/// The untraced run: serve cells cycling through the link realisations,
/// then merges of the stored cells.
pub fn run(ctx: &Ctx, reference: u64, warm: &Path, tally: &mut Tally, e2e: &mut EndToEnd) {
    sprout_cache::set_dir(warm);
    let matrix = matrix();
    let cell = &matrix.cells()[0];
    let seeds: Vec<u64> = (0..REALISATIONS)
        .map(|k| realisation_seed(ctx.seed, k))
        .collect();
    let links: Vec<(Trace, Trace)> = seeds.iter().map(|&s| traces(s)).collect();
    let mut checks = Checks {
        ctx,
        reference,
        first: vec![None; REALISATIONS],
    };
    let mut expected = vec![None; REALISATIONS];
    let budget = ctx.seconds * EXEC_SHARE;
    let t0 = Instant::now();
    let mut rep = 0;
    while rep < REALISATIONS || t0.elapsed().as_secs_f64() < budget {
        let k = rep % REALISATIONS;
        let (up, down) = &links[k];
        let mut sim = build(cell, seeds[k], up, down, |c| c, |s| s);
        let ticks = step(&mut sim, cell);
        let wall_s = ticks.iter().sum::<f64>() / 1e3;
        e2e.cells_per_s.push(1.0 / wall_s);
        e2e.sessions_per_s
            .push(f64::from(SESSIONS) * CELL_SECS as f64 / wall_s);
        e2e.tick_ms.extend(ticks);
        let out = outcome(&sim, cell, seeds[k]);
        if rep == 0 {
            ctx.note(Some(format!(
                "serve per-session bytes digest {:016x}",
                out.1
            )));
        }
        tally.ops(1, 0);
        checks.check(tally, k, &out);
        store_cell(matrix.fingerprint(), seeds[k], &out.0);
        expected[k]
            .get_or_insert_with(|| sweep_to_json("serve", seeds[k], std::slice::from_ref(&out.0)));
        rep += 1;
    }
    let t0 = Instant::now();
    let mut rep = 0;
    while rep < REALISATIONS || t0.elapsed().as_secs_f64() < ctx.seconds - budget {
        let k = rep % REALISATIONS;
        let Some((json, wall_s)) = merge(ctx, seeds[k], &matrix, tally) else {
            return;
        };
        tally.check(Some(&json) == expected[k].as_ref(), || {
            "serve: merged JSON differs from the stored cell".to_string()
        });
        e2e.merge_cells_per_s.push(1.0 / wall_s);
        rep += 1;
    }
}

/// The traced run: one untraced cell and merge, the same cell with timed
/// endpoints and per-tick spans, the engine's own execution of the cell
/// (whose result must hash equal), and a traced merge.
pub fn run_traced(
    ctx: &Ctx,
    reference: u64,
    warm: &Path,
    tally: &mut Tally,
    report: &mut LayerReport,
    log: &mut SpanLog,
) {
    sprout_cache::set_dir(warm);
    let matrix = matrix();
    let fp = matrix.fingerprint();
    let cell = &matrix.cells()[0];
    let (up, down) = traces(ctx.seed);
    let mut checks = Checks {
        ctx,
        reference,
        first: vec![None],
    };

    let mut sim = build(cell, ctx.seed, &up, &down, |c| c, |s| s);
    let untraced_s = step(&mut sim, cell).iter().sum::<f64>() / 1e3;
    let untraced = outcome(&sim, cell, ctx.seed);
    drop(sim);
    tally.ops(1, 0);
    checks.check(tally, 0, &untraced);
    store_cell(fp, ctx.seed, &untraced.0);
    let Some((_, merge_s)) = merge(ctx, ctx.seed, &matrix, tally) else {
        return;
    };

    let mut sim = build(
        cell,
        ctx.seed,
        &up,
        &down,
        |c| Timed::new(c, Layer::Core),
        |s| Timed::new(s, Layer::Tunnel),
    );
    let end = Timestamp::ZERO + cell.duration;
    let mut now = Timestamp::ZERO;
    let mut tick = 0u64;
    let t0 = Instant::now();
    take_acc();
    while now < end {
        now = (now + TICK).min(end);
        let root = log.open();
        let start = Instant::now();
        let run = log.open();
        let t = Instant::now();
        sim.run_until(now);
        let t_end = Instant::now();
        let acc = take_acc();
        log.aggregate(
            tick,
            "core.endpoint",
            run,
            t,
            t_end,
            acc[Layer::Core as usize],
        );
        log.aggregate(
            tick,
            "tunnel.server",
            run,
            t,
            t_end,
            acc[Layer::Tunnel as usize],
        );
        report.server_polls += acc[Layer::Tunnel as usize].polls;
        log.close(run, tick, "sim.run_until", Some(root), t, t_end);
        log.close(root, tick, "serve.tick", None, start, Instant::now());
        tick += 1;
    }
    let traced_s = t0.elapsed().as_secs_f64();
    report.ticks = tick;
    for i in 0..SESSIONS as usize {
        report.packets += (sim.up_path(i).metrics().records().len()
            + sim.down_path(i).metrics().records().len()) as u64;
        report.queue_drops +=
            sim.up_path(i).link().queue_drops() + sim.down_path(i).link().queue_drops();
    }
    let traced = log.time(cell.id, "sim.metrics", None, || {
        outcome(&sim, cell, ctx.seed)
    });
    checks.check(tally, 0, &traced);
    let store = |r: &SweepResult| store_cell(fp, ctx.seed, r);
    log.time(cell.id, "cache.cell.store", None, || store(&traced.0));

    let engine = execute_scenario("serve", cell, ctx.seed);
    let (he, ht) = (
        fingerprint64(result_to_json(&engine).as_bytes()),
        fingerprint64(result_to_json(&traced.0).as_bytes()),
    );
    tally.check(he == ht, || {
        format!(
            "serve: the stepped cell's result hash {ht:016x} differs from the engine's {he:016x}"
        )
    });

    let t0 = Instant::now();
    let loaded = log.time(cell.id, "cache.cell.load", None, || {
        load_cell("serve", fp, cell, ctx.seed)
    });
    tally.ops(1, u64::from(loaded.is_none()));
    let json = log.time(0, "bench.render", None, || {
        sweep_to_json("serve", ctx.seed, loaded.as_slice())
    });
    let traced_merge_s = t0.elapsed().as_secs_f64();
    report.render_bytes = json.len() as u64;
    tally.check(
        json == sweep_to_json("serve", ctx.seed, &[untraced.0]),
        || "serve: the traced merge rendered different JSON".to_string(),
    );
    report.overhead_ms = (traced_s + traced_merge_s - untraced_s - merge_s) * 1e3;
}
