//! Per-layer metrics of the traced run, named after the workspace
//! modules. Every workload reports every metric; a layer the workload
//! does not exercise reads 0.

use std::time::Instant;

use sprout_cache::CacheCounters;
use sprout_core::{ForecastScratch, ForecastTables, MemCounters, RateModel, SproutConfig};

use crate::spans::{attribute, Attribution, Span};
use crate::stats::{median, percentile};
use crate::Metric;

/// Process-global counters of the layers, read before and after a run.
#[derive(Clone, Copy)]
pub struct Counters {
    trace: CacheCounters,
    cell: CacheCounters,
    tables: MemCounters,
}

impl Counters {
    /// Read the counters now.
    pub fn now() -> Self {
        Counters {
            trace: sprout_trace::trace_cache_counters(),
            cell: sprout_bench::cell_cache_counters(),
            tables: sprout_core::table_memory_counters(),
        }
    }

    /// The traffic since `earlier`.
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            trace: self.trace.since(earlier.trace),
            cell: self.cell.since(earlier.cell),
            tables: self.tables.since(earlier.tables),
        }
    }
}

/// Everything a traced run measured, beyond its spans.
#[derive(Default)]
pub struct LayerReport {
    /// All spans of the run, set-up included.
    pub spans: Vec<Span>,
    /// Cold set-ups the set-up spans cover.
    pub setup_reps: usize,
    /// Serve ticks traced (0 for sweeps).
    pub ticks: u64,
    /// `poll_into` calls into the serve server.
    pub server_polls: u64,
    /// Packets the simulated links delivered, both directions.
    pub packets: u64,
    /// Packets the bottleneck queues dropped.
    pub queue_drops: u64,
    /// Per-cell wall times of the untraced sweep, ms.
    pub sweep_cell_ms: Vec<f64>,
    /// Σ cell wall / (workers × sweep wall) of the untraced sweep.
    pub busy_ratio: f64,
    /// Cells of the untraced sweep that panicked.
    pub sweep_failed: u64,
    /// Cells of the untraced sweep the watchdog killed.
    pub sweep_timed_out: u64,
    /// Bytes the traced cell stores added to the cache directory.
    pub cell_bytes_written: u64,
    /// Bytes of canonical JSON one render produced.
    pub render_bytes: u64,
    /// Traced minus untraced end-to-end time, ms.
    pub overhead_ms: f64,
    /// Layer counter traffic over the whole run.
    pub counters: Option<Counters>,
}

/// Time the forecast layer directly at paper scale: one percentile
/// forecast, and one model tick (`evolve` + `observe`). Medians of 15
/// batches of 200 calls, ns per call.
pub fn forecast_micro() -> (f64, f64) {
    let cfg = SproutConfig::paper();
    let tables = ForecastTables::get(&cfg);
    let mut model = RateModel::new(cfg);
    for _ in 0..50 {
        model.evolve();
        model.observe(8.0);
    }
    let mut scratch = ForecastScratch::default();
    let batch = |f: &mut dyn FnMut()| {
        let per_call: Vec<f64> = (0..15)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..200 {
                    f();
                }
                t.elapsed().as_nanos() as f64 / 200.0
            })
            .collect();
        median(&per_call)
    };
    let forecast_ns = batch(&mut || {
        std::hint::black_box(
            tables
                .forecast_into(model.distribution(), 5.0, &mut scratch)
                .cumulative_units
                .len(),
        );
    });
    let mut model2 = model.clone();
    let tick_ns = batch(&mut || {
        model2.evolve();
        model2.observe(std::hint::black_box(8.0));
    });
    (forecast_ns, tick_ns)
}

/// Assemble every per-layer metric, with the attribution check's result.
pub fn per_layer_metrics(r: &LayerReport) -> (Vec<Metric>, Attribution) {
    let a = attribute(&r.spans);
    let get = |name: &str| a.by_name.get(name).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;
    let mean = |name: &str, scale: f64| {
        let s = get(name);
        if s.spans == 0 {
            0.0
        } else {
            s.self_ns as f64 / s.spans as f64 / scale
        }
    };
    let per_setup = |name: &str| ms(get(name).self_ns) / r.setup_reps.max(1) as f64;
    let c = r.counters.expect("counters are read before reporting");
    let (forecast_ns, tick_ns) = forecast_micro();
    let sim_self = get("sim.run_until").self_ns;
    let per_tick = |v: f64| {
        if r.ticks == 0 {
            0.0
        } else {
            v / r.ticks as f64
        }
    };
    let cell_ms = &r.sweep_cell_ms;
    let pct = |p| {
        if cell_ms.is_empty() {
            0.0
        } else {
            percentile(cell_ms, p)
        }
    };
    let m = Metric::value;
    let metrics = vec![
        m("trace.synth_ms", "ms", per_setup("trace.synth")),
        m(
            "trace.fetch_ms",
            "ms",
            ms(get("trace.load").self_ns + get("trace.fetch").self_ns),
        ),
        m("trace.cache_hits", "count", c.trace.hits as f64),
        m("trace.cache_misses", "count", c.trace.misses as f64),
        m("core.table.build_ms", "ms", per_setup("core.table.build")),
        m("core.table.builds", "count", c.tables.built as f64),
        m("core.table.reuses", "count", c.tables.reused as f64),
        m("core.forecast.forecast_ns", "ns", forecast_ns),
        m("core.forecast.tick_ns", "ns", tick_ns),
        m(
            "core.endpoint.self_ms",
            "ms",
            ms(get("core.endpoint").self_ns + get("core.endpoint.new").self_ns),
        ),
        m(
            "core.endpoint.calls",
            "count",
            get("core.endpoint").calls as f64,
        ),
        m(
            "baselines.endpoint.self_ms",
            "ms",
            ms(get("baselines.endpoint").self_ns + get("baselines.endpoint.new").self_ns),
        ),
        m(
            "baselines.endpoint.calls",
            "count",
            get("baselines.endpoint").calls as f64,
        ),
        m(
            "tunnel.server.self_us_per_tick",
            "us",
            per_tick(get("tunnel.server").self_ns as f64 / 1e3),
        ),
        m(
            "tunnel.host.self_ms",
            "ms",
            ms(get("tunnel.host").self_ns + get("tunnel.host.new").self_ns),
        ),
        m(
            "tunnel.host.calls",
            "count",
            get("tunnel.host").calls as f64,
        ),
        m(
            "tunnel.server.polls_per_tick",
            "count",
            per_tick(r.server_polls as f64),
        ),
        m(
            "sim.lifecycle_ms",
            "ms",
            ms(get("sim.new").self_ns + get("sim.drop").self_ns),
        ),
        m("sim.loop.self_ms", "ms", ms(sim_self)),
        m("sim.packets_delivered", "count", r.packets as f64),
        m("sim.queue_drops", "count", r.queue_drops as f64),
        m(
            "sim.ns_per_packet",
            "ns",
            if r.packets == 0 {
                0.0
            } else {
                sim_self as f64 / r.packets as f64
            },
        ),
        m("sim.metrics.ms_per_cell", "ms", mean("sim.metrics", 1e6)),
        m("bench.cell.ms", "ms", ms(get("bench.cell.run").self_ns)),
        m("bench.sweep.cell_ms_p50", "ms", pct(5000)),
        m("bench.sweep.cell_ms_p90", "ms", pct(9000)),
        m("bench.sweep.busy_ratio", "ratio", r.busy_ratio),
        m("bench.sweep.failed", "count", r.sweep_failed as f64),
        m("bench.sweep.timed_out", "count", r.sweep_timed_out as f64),
        m("cache.cell.store_us", "us", mean("cache.cell.store", 1e3)),
        m(
            "cache.cell.bytes_written",
            "bytes",
            r.cell_bytes_written as f64,
        ),
        m("cache.cell.stores", "count", c.cell.stores as f64),
        m("cache.cell.load_us", "us", mean("cache.cell.load", 1e3)),
        m("cache.cell.hits", "count", c.cell.hits as f64),
        m("cache.cell.misses", "count", c.cell.misses as f64),
        m(
            "cache.quarantined",
            "count",
            (c.cell.quarantined + c.trace.quarantined) as f64,
        ),
        m("bench.render.ms", "ms", mean("bench.render", 1e6)),
        m("bench.render.bytes", "bytes", r.render_bytes as f64),
        m("tracing_overhead_ms", "ms", r.overhead_ms),
        m("unattributed_ms", "ms", ms(a.unattributed_ns)),
    ];
    (metrics, a)
}
