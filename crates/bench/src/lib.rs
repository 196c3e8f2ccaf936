//! The reproduction harness: a scheme zoo, the scenario-matrix sweep
//! engine, and regeneration functions for every table and figure in the
//! paper's evaluation (see ARCHITECTURE.md for the layering and the
//! scenario → sweep → cellcache → figures pipeline).
//!
//! Architecture: each figure **declares** its cross-product as a
//! [`ScenarioMatrix`] (schemes × links × loss rates × confidences), the
//! [`SweepEngine`] executes the cells in parallel with deterministic
//! per-cell seeding, and the figure functions only **render** the
//! resulting [`SweepResult`] rows into TSV/JSON artifacts.

#![warn(missing_docs)]

pub mod cellcache;
pub mod cli;
pub mod experiments;
pub mod figures;
pub mod scenario;
pub mod schemes;
pub mod sweep;

pub use cellcache::{cell_cache_counters, cell_series_cache_counters, ENGINE_VERSION};
pub use figures::{
    contention, contention_matrix, default_contention_workloads, default_corpus_fingerprints, fig1,
    fig2, fig7, fig8, fig9, impair, impair_matrix, loss_table, replay, replay_matrix, serve,
    serve_matrix, soak, soak_matrix, summary_table, tunnel_comparison, write_cell_series,
    ContentionAxes, ContentionRow, ExperimentConfig, Fig7Results, ImpairAxes, ImpairRow,
    ReplayAxes, ReplayRow, ServeAxes, ServeRow, SoakAxes, CELL_SERIES_BIN,
    DEFAULT_CONTENTION_FLOWS, REPLAY_SECS, SERVE_SECS, SERVE_SESSIONS, SHALLOW_QUEUE_BYTES,
    SOAK_SECS,
};
pub use scenario::{
    FlowSpec, LinkSpec, MatrixBuilder, QueueSpec, ResolvedQueue, Scenario, ScenarioMatrix,
    Workload, MAX_CONTENTION_FLOWS, MAX_SERVE_SESSIONS,
};
pub use schemes::{build_endpoints, run_scheme, RunConfig, Scheme, SchemeResult};
pub use sprout_baselines::VideoApp;
pub use sweep::{
    abandoned_cell_threads, cell_failure_counters, last_batch_layout, sweep_to_json,
    trace_memo_occupancy, trace_memory_counters, write_json, BatchStats, CellCachePolicy,
    CellFailure, CellFailureCounters, CellScratch, CellSeries, CellSeriesBin, FlowSummary,
    InterarrivalSummary, SeriesRow, ServeStats, ShardSpec, SweepEngine, SweepError, SweepResult,
    SweepStats, DEFAULT_CELL_TIMEOUT,
};
