//! Multi-session state for a Sprout server process.
//!
//! One server process terminating N independent Sprout sessions keeps the
//! per-session protocol state deliberately thin: the expensive, immutable
//! forecast-table dynamic program is shared behind one
//! [`Arc<ForecastTables>`] by every session on the same link
//! configuration (the [`table_memory_counters`] amortization counters
//! prove the sharing — one `built`, N−1 `reused` per link group), while
//! each session owns only what actually differs per user: its
//! [`SproutEndpoint`] state machine (whose forecaster carries its own
//! `ForecastScratch`), its RNG sub-stream seed derived from
//! `(cell_seed, session_id)` via [`sprout_trace::session_seed`], and its
//! [`EndpointStats`].
//!
//! The pool is laid out struct-of-arrays: parallel `ids` / `seeds` /
//! `endpoints` columns indexed by a dense session index, so the server's
//! event loop iterates hot columns (wakeups, stats) without striding over
//! cold protocol state.
//!
//! [`table_memory_counters`]: crate::forecast::table_memory_counters

use std::collections::HashMap;
use std::sync::Arc;

use crate::config::SproutConfig;
use crate::endpoint::{EndpointStats, SproutEndpoint};
use crate::forecast::ForecastTables;
use crate::forecaster::BayesianForecaster;
use sprout_sim::FlowId;
use sprout_trace::session_seed;

/// The per-session state of one Sprout session inside a pool, borrowed by
/// dense index. Everything here is *per user*; everything shared lives
/// once on the [`SessionPool`].
pub struct SessionRef<'a> {
    /// The wire-visible session id (also the packet [`FlowId`]).
    pub id: u32,
    /// This session's RNG sub-stream seed, `session_seed(cell_seed, id)`.
    pub seed: u64,
    /// The session's protocol state machine.
    pub endpoint: &'a mut SproutEndpoint,
}

/// A struct-of-arrays pool of independent Sprout sessions sharing one
/// forecast-table build.
///
/// A pool belongs to exactly one cell (one `cell_seed`): session identity
/// is `(cell_seed, session_id)`, and [`SessionPool::add_session`] asserts
/// a session id is never added twice, so two sessions with the same
/// identity — and therefore the same derived RNG sub-stream — cannot
/// coexist.
pub struct SessionPool {
    cfg: SproutConfig,
    cell_seed: u64,
    /// The shared immutable forecast tables, captured from the first
    /// session's forecaster; every later session must share this exact
    /// allocation (asserted in `add_session`).
    tables: Option<Arc<ForecastTables>>,
    /// SoA column: wire-visible session ids, by dense index.
    ids: Vec<u32>,
    /// SoA column: per-session RNG sub-stream seeds, by dense index.
    seeds: Vec<u64>,
    /// SoA column: per-session protocol state machines, by dense index.
    endpoints: Vec<SproutEndpoint>,
    /// Demux map: session id → dense index.
    index: HashMap<u32, usize>,
}

impl SessionPool {
    /// Empty pool for one cell's sessions. `cfg` is the shared link/model
    /// configuration; all sessions added later share its table build.
    pub fn new(cfg: SproutConfig, cell_seed: u64) -> Self {
        cfg.validate();
        SessionPool {
            cfg,
            cell_seed,
            tables: None,
            ids: Vec::new(),
            seeds: Vec::new(),
            endpoints: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Add the server half of session `session_id` and return its dense
    /// index. The endpoint's forecaster goes through the global table
    /// cache, so the first session in a fresh link group *builds* the
    /// tables and every subsequent one *reuses* them.
    ///
    /// # Panics
    ///
    /// Panics if `session_id` already exists in this pool: session
    /// identity is `(cell_seed, session_id)`, and duplicating it would
    /// alias one RNG sub-stream across two live sessions.
    pub fn add_session(&mut self, session_id: u32) -> usize {
        let idx = self.ids.len();
        assert!(
            self.index.insert(session_id, idx).is_none(),
            "duplicate session: (cell_seed={}, session_id={session_id}) already exists",
            self.cell_seed
        );
        let forecaster = BayesianForecaster::new(self.cfg.clone());
        match &self.tables {
            None => self.tables = Some(Arc::clone(forecaster.tables())),
            Some(shared) => assert!(
                Arc::ptr_eq(shared, forecaster.tables()),
                "session {session_id} built a second forecast table for one link group"
            ),
        }
        let mut endpoint = SproutEndpoint::with_forecaster(self.cfg.clone(), Box::new(forecaster));
        endpoint.set_flow(FlowId(session_id));
        self.ids.push(session_id);
        self.seeds.push(session_seed(self.cell_seed, session_id));
        self.endpoints.push(endpoint);
        idx
    }

    /// Number of sessions in the pool.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the pool holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The cell seed all session sub-streams derive from.
    pub fn cell_seed(&self) -> u64 {
        self.cell_seed
    }

    /// The shared table handle (`None` until the first session is added).
    pub fn tables(&self) -> Option<&Arc<ForecastTables>> {
        self.tables.as_ref()
    }

    /// Dense index of `session_id`, if present.
    pub fn index_of(&self, session_id: u32) -> Option<usize> {
        self.index.get(&session_id).copied()
    }

    /// The wire-visible session id at dense index `idx`.
    pub fn session_id(&self, idx: usize) -> u32 {
        self.ids[idx]
    }

    /// The RNG sub-stream seed of the session at dense index `idx`.
    pub fn session_seed(&self, idx: usize) -> u64 {
        self.seeds[idx]
    }

    /// Mutable access to the session endpoint at dense index `idx`.
    pub fn endpoint_mut(&mut self, idx: usize) -> &mut SproutEndpoint {
        &mut self.endpoints[idx]
    }

    /// Borrow session `idx` as one logical record across the SoA columns.
    pub fn session_mut(&mut self, idx: usize) -> SessionRef<'_> {
        SessionRef {
            id: self.ids[idx],
            seed: self.seeds[idx],
            endpoint: &mut self.endpoints[idx],
        }
    }

    /// Endpoint counters of the session at dense index `idx`.
    pub fn stats(&self, idx: usize) -> EndpointStats {
        self.endpoints[idx].stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_share_one_table_build() {
        let mut pool = SessionPool::new(SproutConfig::test_small(), 42);
        for sid in 0..8 {
            pool.add_session(sid);
        }
        assert_eq!(pool.len(), 8);
        // `add_session` asserts every forecaster's tables are the pool's
        // allocation; the pool plus all 8 forecasters hold that one `Arc`
        // (the global table cache may hold one more). Asserted without the
        // process-global build counters, which sibling tests move
        // concurrently.
        let tables = pool
            .tables()
            .expect("the first session captured the tables");
        assert!(Arc::strong_count(tables) >= 9);
    }

    #[test]
    fn pool_columns_align_and_seeds_derive_from_identity() {
        let mut pool = SessionPool::new(SproutConfig::test_small(), 7);
        pool.add_session(3);
        pool.add_session(11);
        assert_eq!(pool.index_of(11), Some(1));
        assert_eq!(pool.index_of(4), None);
        assert_eq!(pool.session_id(1), 11);
        assert_eq!(pool.session_seed(1), sprout_trace::session_seed(7, 11));
        assert_eq!(pool.session_mut(0).id, 3);
    }

    #[test]
    #[should_panic(expected = "duplicate session")]
    fn duplicate_session_identity_is_rejected() {
        let mut pool = SessionPool::new(SproutConfig::test_small(), 7);
        pool.add_session(5);
        pool.add_session(5);
    }
}
