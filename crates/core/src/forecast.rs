//! The packet delivery forecast (§3.3).
//!
//! Given the posterior over the current rate, Sprout predicts — at a
//! cautious percentile — the *cumulative* number of packets the link will
//! deliver over each of the next `horizon_ticks` ticks, evolving the model
//! forward **without** observations.
//!
//! Exactly as the paper hints ("most of these steps can be precalculated…
//! the only work at runtime is to take a weighted sum over each λ"), the
//! heavy lifting happens once per configuration: for every starting rate
//! bin `i`, horizon tick `t`, and cumulative count `c`, we precompute
//!
//! ```text
//! F[t][c][i] = P( C_{t} ≤ c | λ₀ = bin i )
//! ```
//!
//! by dynamic programming over the joint (rate bin × cumulative volume)
//! distribution: each tick applies the Brownian/outage transition to the
//! bin axis and advances the volume axis by the bin's expected per-tick
//! deliveries (in quarter-MTU units, split across adjacent cells to keep
//! the expectation exact). At runtime the forecast CDF is the
//! posterior-weighted mixture `Σᵢ P(λ₀=i)·F[t][c][i]`, binary-searched
//! for the configured percentile.
//!
//! **Implementation note (documented deviation).** The percentile is
//! taken over the *rate path* (the model's uncertainty about λ and
//! outages), not over the additional Poisson sampling noise of the
//! counts. §3.3's text suggests the full count distribution, but at 3G
//! rates (~1 packet per tick) the 5th percentile of a Poisson count is
//! zero, which would cap Sprout at ~150 kbps on links where the paper
//! measures ~400 kbps at 90% utilization — the published numbers are
//! only consistent with rate-uncertainty caution — a deliberate,
//! documented interpretation of the paper's text.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use sprout_cache::{ArtifactKind, ByteReader, ByteWriter, CacheCounters};

use crate::config::{SproutConfig, TableKey};
use crate::lru::LruCache;
use crate::model::{ScatterMatrix, TransitionKernel};

/// On-disk persistence of built tables. Version covers both the byte
/// layout of [`ForecastTables::to_bytes`] and the DP semantics — bump it
/// whenever either changes, or stale files would silently load.
static TABLE_ARTIFACT: ArtifactKind = ArtifactKind::new("forecast-table", 1);

/// Disk-cache traffic counters for forecast tables (hits mean a
/// `ForecastTables::get` skipped the DP entirely).
pub fn table_cache_counters() -> CacheCounters {
    TABLE_ARTIFACT.counters()
}

/// In-memory amortization counters: how many times a shared resource was
/// materialized in this process versus served from a live in-memory
/// handle. Distinct from [`CacheCounters`], which tracks the *disk*
/// artifact cache — a "built" here may still have been a disk hit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// First-time materializations (DP build or disk decode).
    pub built: u64,
    /// Requests served from an already-live in-memory instance.
    pub reused: u64,
}

impl MemCounters {
    /// Counter deltas since an earlier snapshot of the same counters.
    pub fn since(self, earlier: MemCounters) -> MemCounters {
        MemCounters {
            built: self.built - earlier.built,
            reused: self.reused - earlier.reused,
        }
    }
}

static TABLES_BUILT: AtomicU64 = AtomicU64::new(0);
static TABLES_REUSED: AtomicU64 = AtomicU64::new(0);
static TABLES_EVICTED: AtomicU64 = AtomicU64::new(0);
static TABLE_CACHE_LEN: AtomicU64 = AtomicU64::new(0);

/// How many link geometries the in-memory forecast-table cache keeps
/// live at once. Each entry is ≈4 MB at paper scale; eight covers every
/// matrix the `reproduce` experiments declare with headroom, while a
/// daemon cycling through arbitrary geometries stays bounded.
pub const FORECAST_TABLE_CACHE_CAP: usize = 8;

/// A per-key build slot: the first caller of a key initializes the
/// `OnceLock` (building the table) while others wait on it, without
/// holding the whole-cache lock.
type TableSlot = Arc<OnceLock<Arc<ForecastTables>>>;

/// Occupancy of the in-memory forecast-table cache: `(live_entries,
/// evictions_total)`. `live_entries` never exceeds
/// [`FORECAST_TABLE_CACHE_CAP`]; a growing `evictions_total` under a
/// geometry-heavy sweep is the cache recycling slots as designed.
pub fn table_cache_occupancy() -> (usize, u64) {
    (
        TABLE_CACHE_LEN.load(Ordering::Relaxed) as usize,
        TABLES_EVICTED.load(Ordering::Relaxed),
    )
}

/// Process-wide in-memory forecast-table amortization counters: `built`
/// counts [`ForecastTables::get`] calls that materialized a table (DP
/// build or disk load), `reused` counts calls served by the live
/// in-memory cache.
pub fn table_memory_counters() -> MemCounters {
    MemCounters {
        built: TABLES_BUILT.load(Ordering::Relaxed),
        reused: TABLES_REUSED.load(Ordering::Relaxed),
    }
}

/// Resolution of the cumulative-volume axis: quarter-MTU units. Finer
/// than whole packets so slow links (1–2 packets per tick) don't lose
/// their entire forecast to quantization.
pub const UNITS_PER_MTU: u64 = 4;

/// A delivery forecast: entry `t` is the cumulative volume (in
/// quarter-MTU [`UNITS_PER_MTU`] units) predicted at the configured
/// percentile to be delivered within the first `t+1` ticks from the
/// forecast's reference time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Forecast {
    /// Cumulative volume in quarter-MTU units, one entry per horizon
    /// tick; non-decreasing.
    pub cumulative_units: Vec<u32>,
}

impl Forecast {
    /// Cumulative *bytes* deliverable within the first `t+1` ticks.
    pub fn cumulative_bytes(&self, tick_index: usize, mtu: u32) -> u64 {
        let idx = tick_index.min(self.cumulative_units.len() - 1);
        self.cumulative_units[idx] as u64 * mtu as u64 / UNITS_PER_MTU
    }

    /// Number of horizon ticks covered.
    pub fn horizon(&self) -> usize {
        self.cumulative_units.len()
    }
}

/// Precomputed conditional CDF tables; build once, share via [`Arc`].
pub struct ForecastTables {
    num_bins: usize,
    horizon: usize,
    count_max: usize,
    /// Upper bound on the per-tick advance of the cumulative-volume axis:
    /// no rate bin delivers more than this many quarter-MTU units in one
    /// tick, so the percentile index grows by at most `max_step` per tick.
    /// Bounds the warm-started search in [`Self::forecast_into`]. Derived
    /// from the configuration, not serialized; tables decoded through the
    /// raw [`Self::from_bytes`] fall back to the unbounded `count_max`
    /// (identical results, more probes per search).
    max_step: usize,
    /// Layout: `cdf[(t * count_max + c) * num_bins + i]`, f32 to halve the
    /// footprint (≈4 MB at paper scale).
    cdf: Vec<f32>,
}

impl ForecastTables {
    /// Fetch (building on first use) the tables for `cfg` from the global
    /// cache. Tables depend only on the model geometry, not the percentile,
    /// so Fig-9 style confidence sweeps share one build. The cache is a
    /// bounded LRU ([`FORECAST_TABLE_CACHE_CAP`] geometries, ≈4 MB each at
    /// paper scale): a daemon sweeping many disjoint geometries recycles
    /// slots instead of growing without bound.
    pub fn get(cfg: &SproutConfig) -> Arc<ForecastTables> {
        // Per-key OnceLock slots: the first caller of a key builds while
        // holding only that key's slot, so concurrent sweep workers neither
        // duplicate a build (it costs seconds at paper scale) nor block
        // callers wanting a different geometry. Eviction drops the map's
        // Arc only — a builder mid-flight on an evicted slot still owns
        // it and finishes; the next `get` of that key simply rebuilds.
        static CACHE: OnceLock<Mutex<LruCache<TableKey, TableSlot>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(LruCache::new(FORECAST_TABLE_CACHE_CAP)));
        let key = cfg.table_key();
        let slot = {
            let mut map = cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let (slot, _) = map.get_or_insert_with(&key, TableSlot::default);
            let slot = Arc::clone(slot);
            TABLES_EVICTED.store(map.evictions(), Ordering::Relaxed);
            TABLE_CACHE_LEN.store(map.len() as u64, Ordering::Relaxed);
            slot
        };
        let mut built_now = false;
        let tables = Arc::clone(slot.get_or_init(|| {
            built_now = true;
            Arc::new(ForecastTables::load_or_build(cfg))
        }));
        if built_now {
            TABLES_BUILT.fetch_add(1, Ordering::Relaxed);
        } else {
            TABLES_REUSED.fetch_add(1, Ordering::Relaxed);
        }
        tables
    }

    /// Fetch the tables for `cfg` from the on-disk artifact cache, or
    /// build them (persisting the result for the next process). Bypasses
    /// the in-memory layer — [`ForecastTables::get`] is the usual entry
    /// point; this one exists for cache tooling and tests.
    pub fn load_or_build(cfg: &SproutConfig) -> ForecastTables {
        cfg.validate();
        let key = cfg.table_key().cache_key_bytes();
        if let Some(bytes) = TABLE_ARTIFACT.load(&key) {
            if let Some(mut t) = ForecastTables::from_bytes(&bytes) {
                // The decoded dims are part of the key, but stay defensive:
                // a mismatch means a corrupt entry that beat the checksum.
                if t.num_bins == cfg.num_bins
                    && t.horizon == cfg.horizon_ticks
                    && t.count_max == cfg.count_max
                {
                    // The search bound is config-derived, not serialized.
                    t.max_step = max_unit_step(cfg);
                    return t;
                }
            }
        }
        let kernel = TransitionKernel::new(cfg);
        let tables = ForecastTables::build(cfg, &kernel);
        TABLE_ARTIFACT.store(&key, &tables.to_bytes());
        tables
    }

    /// Serialize to the on-disk payload: three dimensions then the raw
    /// f32 bit patterns of the CDF strip. Bit-exact round trip, so cached
    /// and freshly built tables produce identical forecasts.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(24 + 4 * self.cdf.len());
        w.u64(self.num_bins as u64)
            .u64(self.horizon as u64)
            .u64(self.count_max as u64);
        for &v in &self.cdf {
            w.f32(v);
        }
        w.finish()
    }

    /// Decode a [`ForecastTables::to_bytes`] payload; `None` on any
    /// dimension/length mismatch (treated as a cache miss upstream).
    pub fn from_bytes(bytes: &[u8]) -> Option<ForecastTables> {
        let mut r = ByteReader::new(bytes);
        let num_bins = r.u64()? as usize;
        let horizon = r.u64()? as usize;
        let count_max = r.u64()? as usize;
        let cells = num_bins.checked_mul(horizon)?.checked_mul(count_max)?;
        if r.remaining() != 4 * cells {
            return None;
        }
        let mut cdf = Vec::with_capacity(cells);
        for _ in 0..cells {
            cdf.push(r.f32()?);
        }
        Some(ForecastTables {
            num_bins,
            horizon,
            count_max,
            max_step: count_max,
            cdf,
        })
    }

    /// Build the tables by per-start-bin dynamic programming.
    pub fn build(cfg: &SproutConfig, kernel: &TransitionKernel) -> ForecastTables {
        ForecastTables::build_impl(cfg, kernel, build_one_start)
    }

    /// [`Self::build`] driven by the pre-vectorization scalar DP, kept as
    /// the bit-exactness reference: the blocked/restructured inner loops
    /// of the production build must produce byte-identical tables
    /// (enforced by the `kernel_equivalence` proptest suite).
    pub fn build_reference(cfg: &SproutConfig, kernel: &TransitionKernel) -> ForecastTables {
        ForecastTables::build_impl(cfg, kernel, build_one_start_reference)
    }

    /// Shared build scaffolding (shift precomputation, worker threads,
    /// strip merge) parameterized over the per-start DP implementation.
    fn build_impl(
        cfg: &SproutConfig,
        kernel: &TransitionKernel,
        one_start: OneStart,
    ) -> ForecastTables {
        cfg.validate();
        let n = cfg.num_bins;
        let horizon = cfg.horizon_ticks;
        let cm = cfg.count_max;
        let tau = cfg.tick_secs();

        // Per-bin deterministic volume advance for one tick, in quarter-MTU
        // units: the expectation λ·τ·UNITS_PER_MTU, split between the two
        // adjacent integer cells so the expected advance is exact. (The
        // percentile covers rate-path uncertainty, not Poisson sampling
        // noise — see the module docs.)
        let shifts: Vec<(usize, f64)> = (0..n)
            .map(|i| {
                let units = cfg.bin_rate_pps(i) * tau * UNITS_PER_MTU as f64;
                let lo = units.floor();
                (lo as usize, units - lo)
            })
            .collect();

        // The CSR transition matrix and its transpose (for the
        // destination-major evolve), shared read-only by every worker.
        let scatter = kernel.scatter();
        let scatter_t = scatter.transposed();

        // The DP over start bins is embarrassingly parallel; chunk it over
        // the available cores with scoped threads (no extra dependencies).
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n);
        let chunk = n.div_ceil(threads);
        let mut per_start: Vec<Vec<f32>> = vec![Vec::new(); n];
        std::thread::scope(|scope| {
            let mut rest: &mut [Vec<f32>] = &mut per_start;
            let mut base = 0usize;
            let mut handles = Vec::new();
            while !rest.is_empty() {
                let take = chunk.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                rest = tail;
                let start0 = base;
                base += take;
                let shifts = &shifts;
                let scatter_t = &scatter_t;
                handles.push(scope.spawn(move || {
                    let mut joint = vec![0.0f64; n * cm];
                    let mut next = vec![0.0f64; n * cm];
                    let mut conv = vec![0.0f64; cm];
                    for (off, slot) in head.iter_mut().enumerate() {
                        let start = start0 + off;
                        *slot = one_start(
                            start, horizon, cm, shifts, scatter, scatter_t, &mut joint, &mut next,
                            &mut conv,
                        );
                    }
                }));
            }
            for h in handles {
                h.join().expect("forecast-table worker panicked");
            }
        });

        // Merge the per-start CDF strips into the runtime layout
        // `cdf[(t*cm + c)*n + start]` (contiguous in start for the
        // mixture's inner loop).
        let mut cdf = vec![0.0f32; horizon * cm * n];
        for (start, strip) in per_start.iter().enumerate() {
            debug_assert_eq!(strip.len(), horizon * cm);
            for t in 0..horizon {
                for c in 0..cm {
                    cdf[(t * cm + c) * n + start] = strip[t * cm + c];
                }
            }
        }

        let max_step = shifts.iter().map(|&(lo, _)| lo + 1).max().unwrap_or(cm);
        debug_assert_eq!(max_step, max_unit_step(cfg));
        ForecastTables {
            num_bins: n,
            horizon,
            count_max: cm,
            max_step,
            cdf,
        }
    }

    /// Conditional CDF `P(C_{t+1} ≤ c | λ₀ = bin)` (test/diagnostic hook).
    pub fn conditional_cdf(&self, tick: usize, count: usize, bin: usize) -> f64 {
        self.cdf[(tick * self.count_max + count) * self.num_bins + bin] as f64
    }

    /// The mixture CDF `P(C_{t+1} ≤ c)` under `posterior`.
    pub fn mixture_cdf(&self, posterior: &[f64], tick: usize, count: usize) -> f64 {
        assert_eq!(posterior.len(), self.num_bins);
        let row = &self.cdf[(tick * self.count_max + count) * self.num_bins..][..self.num_bins];
        posterior
            .iter()
            .zip(row.iter())
            .map(|(&p, &f)| p * f as f64)
            .sum()
    }

    /// Compute the cautious forecast for `posterior` at `percentile`
    /// (e.g. 5.0 for the paper's 95%-confidence forecast). Allocating
    /// convenience wrapper over [`ForecastTables::forecast_into`].
    pub fn forecast(&self, posterior: &[f64], percentile: f64) -> Forecast {
        let mut scratch = ForecastScratch::default();
        self.forecast_into(posterior, percentile, &mut scratch)
            .clone()
    }

    /// The allocation-free forecast hot path: every per-tick working set
    /// lives in `scratch`, which the caller keeps between ticks.
    ///
    /// Two structural properties make this fast:
    ///
    /// * **Live-bin masking.** Converged posteriors concentrate their
    ///   mass in a narrow band of rate bins; the rest sit at or near the
    ///   likelihood floor. Bins holding ≤ [`MASS_EPSILON`] are dropped
    ///   once up front — their combined contribution to any mixture CDF
    ///   value is below `num_bins × MASS_EPSILON ≈ 3e-10`, orders of
    ///   magnitude under any percentile of interest — so every probe of
    ///   the search sums only the live bins.
    /// * **Warm-started bounded search.** `C_t` is non-decreasing in
    ///   `t`, so `P(C_{t+1} ≤ c) ≤ P(C_t ≤ c)` holds per start bin and
    ///   therefore for (masked) mixtures; the percentile index can only
    ///   grow from one tick to the next — and by at most `max_step`
    ///   units, because no rate bin advances the volume axis faster than
    ///   the top bin. Each tick's search therefore binary-searches only
    ///   `(prev, prev + max_step]` — ~7 probes at paper scale instead of
    ///   a `log2(count_max)` search (or an unbounded gallop) from
    ///   scratch. The stored CDF is non-decreasing in the count, so the
    ///   bounded search provably returns the same index the gallop did.
    pub fn forecast_into<'a>(
        &self,
        posterior: &[f64],
        percentile: f64,
        scratch: &'a mut ForecastScratch,
    ) -> &'a Forecast {
        assert!(percentile > 0.0 && percentile < 100.0);
        assert_eq!(posterior.len(), self.num_bins);
        let want = percentile / 100.0;

        scratch.live_idx.clear();
        scratch.live_w.clear();
        for (i, &p) in posterior.iter().enumerate() {
            if p > MASS_EPSILON {
                scratch.live_idx.push(i as u32);
                scratch.live_w.push(p);
            }
        }

        // Last call's answers become this call's predictions: consecutive
        // forecasts from a slowly-evolving posterior land within a unit or
        // two of each other, so "previous answer (tick 0) / previous
        // increment (later ticks)" is usually exact and the search
        // verifies it in 2–3 probes.
        std::mem::swap(&mut scratch.prev_units, &mut scratch.out.cumulative_units);
        let prev_units = &scratch.prev_units;

        // Prefetch the rows the warm-started search probes first: when the
        // per-tick predictions hold (the common case), tick `t` touches
        // exactly rows `(t, g_t)` and `(t, g_t − 1)`, both known up front
        // from the previous call's answers. The 6 MB table does not stay
        // cache-resident between protocol ticks, so issuing these loads
        // early overlaps their DRAM latency with earlier ticks' compute.
        // Prefetching cannot affect results.
        #[cfg(target_arch = "x86_64")]
        if let (Some(&first), Some(&last)) = (scratch.live_idx.first(), scratch.live_idx.last()) {
            for (t, &g) in prev_units.iter().take(self.horizon).enumerate() {
                let g = (g as usize).min(self.count_max - 1);
                for row in [g.saturating_sub(1), g] {
                    let base = (t * self.count_max + row) * self.num_bins;
                    let mut p = base + first as usize;
                    let end = base + last as usize;
                    while p <= end {
                        // SAFETY: `p` indexes within `cdf`; prefetch reads
                        // nothing architecturally and has no side effects.
                        unsafe {
                            std::arch::x86_64::_mm_prefetch(
                                self.cdf.as_ptr().add(p) as *const i8,
                                std::arch::x86_64::_MM_HINT_T0,
                            );
                        }
                        p += 16; // one 64-byte line of f32s
                    }
                }
            }
        }

        let cum = &mut scratch.out.cumulative_units;
        cum.clear();
        cum.reserve(self.horizon);
        let mut prev = 0usize;
        for t in 0..self.horizon {
            let guess = match (t, prev_units.get(t), prev_units.get(t.wrapping_sub(1))) {
                (0, Some(&g0), _) => g0 as usize,
                (_, Some(&gt), Some(&gp)) => prev + (gt - gp) as usize,
                _ => prev,
            };
            let c = self.percentile_index(t, want, prev, guess, &scratch.live_idx, &scratch.live_w);
            cum.push(c as u32);
            prev = c;
        }
        &scratch.out
    }

    /// Mixture CDF over the pre-masked live bins only. Converged
    /// posteriors keep their live bins in one contiguous span; walking
    /// the CDF row as a slice then skips the per-element index load.
    /// Either path adds the same operands in the same ascending-bin
    /// order into one accumulator, so the sums are bit-identical.
    fn live_mixture_cdf(&self, tick: usize, count: usize, idx: &[u32], w: &[f64]) -> f64 {
        let row = &self.cdf[(tick * self.count_max + count) * self.num_bins..][..self.num_bins];
        match (idx.first(), idx.last()) {
            (Some(&first), Some(&last)) if (last - first) as usize + 1 == idx.len() => row
                [first as usize..=last as usize]
                .iter()
                .zip(w.iter())
                .map(|(&f, &p)| p * f as f64)
                .sum(),
            _ => idx
                .iter()
                .zip(w.iter())
                .map(|(&i, &p)| p * row[i as usize] as f64)
                .sum(),
        }
    }

    /// Smallest `c ≥ start` with masked mixture CDF ≥ `want` at `tick`
    /// (clamped to the count axis). `start` must be a valid warm start,
    /// i.e. a lower bound on the answer. `guess` is a prediction of the
    /// answer (any value — it only steers which indices get probed, never
    /// the result): when it is exact, the search confirms it with two
    /// probes (`cdf(guess) ≥ want`, `cdf(guess−1) < want`) instead of a
    /// full bisection.
    fn percentile_index(
        &self,
        tick: usize,
        want: f64,
        start: usize,
        guess: usize,
        idx: &[u32],
        w: &[f64],
    ) -> usize {
        let last = self.count_max - 1;
        // One tick advances every start bin's cumulative volume by at
        // most `max_step` units, so `F_{t+1}(c + max_step) ≥ F_t(c)`
        // holds per start bin and hence for any fixed nonnegative
        // mixture: a warm start that satisfied the previous tick's
        // percentile puts this tick's answer in `(start, start +
        // max_step]`. The CDF is non-decreasing in the count, so a
        // bracketed search over that range returns exactly the smallest
        // satisfying index — the same index an unbounded gallop-and-
        // bisect finds. Each CDF probe streams a whole table row through
        // the cache, so the probe order starts at the predicted answer:
        // `cdf(g) ≥ want` and `cdf(g−1) < want` prove `g` is the smallest
        // satisfying index using two (adjacent-row) probes, no start
        // probe needed.
        let cap = start.saturating_add(self.max_step).min(last);
        let g = guess.clamp(start + 1, cap);
        let (mut lo, mut hi);
        if self.live_mixture_cdf(tick, g, idx, w) >= want {
            if self.live_mixture_cdf(tick, g - 1, idx, w) < want {
                return g; // prediction confirmed exactly
            }
            if g - 1 == start {
                return start; // cdf(start) ≥ want
            }
            if self.live_mixture_cdf(tick, start, idx, w) >= want {
                return start;
            }
            lo = start;
            hi = g - 1;
        } else {
            lo = g;
            hi = cap;
            if hi == lo {
                // The guess hit the cap and still fell short: the bound
                // theorem's premise is void (degenerate mixture). Search
                // the rest of the axis exactly as the gallop did.
                if hi == last {
                    return last;
                }
                hi = last;
            } else if hi < last && self.live_mixture_cdf(tick, hi, idx, w) < want {
                // Defensive, same degenerate case: cap to the axis end.
                hi = last;
            }
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.live_mixture_cdf(tick, mid, idx, w) >= want {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

/// Posterior mass below which a bin is dropped from the forecast's
/// mixture sums. With 256 bins the total dropped mass is ≤ 2.6e-10 —
/// invisible next to the coarsest percentile the protocol uses.
pub const MASS_EPSILON: f64 = 1e-12;

/// Reusable working memory for [`ForecastTables::forecast_into`]: the
/// live-bin mask and the output forecast, kept allocated between ticks.
#[derive(Debug, Default)]
pub struct ForecastScratch {
    live_idx: Vec<u32>,
    live_w: Vec<f64>,
    out: Forecast,
    /// The previous call's answers, recycled as this call's search
    /// predictions (guesses only — they cannot affect results).
    prev_units: Vec<u32>,
}

/// Signature shared by the production per-start DP and its scalar
/// reference, so [`ForecastTables::build_impl`] can run either. The two
/// `ScatterMatrix` arguments are the transition operator and its
/// transpose (the reference ignores the transpose).
type OneStart = fn(
    usize,
    usize,
    usize,
    &[(usize, f64)],
    &ScatterMatrix,
    &ScatterMatrix,
    &mut Vec<f64>,
    &mut Vec<f64>,
    &mut [f64],
) -> Vec<f32>;

/// Largest per-tick advance of the cumulative-volume axis, in
/// quarter-MTU units: the top bin's expected per-tick deliveries,
/// rounded up for the fractional two-point split. Rates are monotone in
/// the bin index, so this equals `max(shifts[j].0 + 1)`.
fn max_unit_step(cfg: &SproutConfig) -> usize {
    let units = cfg.bin_rate_pps(cfg.num_bins - 1) * cfg.tick_secs() * UNITS_PER_MTU as f64;
    units.floor() as usize + 1
}

/// Count-axis cache block for [`evolve_rows`], in f64 lanes. The evolve
/// step re-reads every source row once per destination (~2·half_width+1
/// times); blocking the count axis keeps the active slab — the kernel
/// band's worth of source and destination row segments — resident in
/// cache across those passes instead of streaming the full
/// `window × count_max` panels (≈ 1.8 MB at paper scale) through memory
/// once per band offset.
const C_BLOCK: usize = 32;

/// The DP for a single starting bin: returns the conditional CDF strip
/// laid out as `strip[t * cm + c] = P(C_{t+1} ≤ c | λ₀ = start)`.
///
/// This is the production implementation: count-axis blocking in the
/// evolve step, per-tick zero-fill narrowed to the reachable count
/// range, and a bin-outer marginalization pass. Every floating-point
/// accumulation keeps the reference implementation's order (ascending
/// source bin per destination cell, ascending count for the cumulative
/// sum), so the strips are bit-identical to
/// [`build_one_start_reference`] — see that function and the
/// `kernel_equivalence` tests.
#[allow(clippy::too_many_arguments)]
fn build_one_start(
    start: usize,
    horizon: usize,
    cm: usize,
    shifts: &[(usize, f64)],
    scatter: &ScatterMatrix,
    scatter_t: &ScatterMatrix,
    joint: &mut Vec<f64>,
    next: &mut Vec<f64>,
    conv: &mut [f64],
) -> Vec<f32> {
    let n = scatter.num_bins();
    let hw = scatter.max_reach();
    let mut nz = vec![false; n];
    let mut terms: Vec<(u32, f64)> = Vec::new();
    joint.fill(0.0);
    next.fill(0.0);
    joint[start * cm] = 1.0;
    let mut strip = vec![0.0f32; horizon * cm];
    // Reachable bin window grows by the kernel half-width per tick (the
    // outage escape row is bounded the same way); the reachable count
    // ceiling grows by the widest kernel among reachable bins.
    let mut j_lo = start;
    let mut j_hi = start;
    let mut c_hi = 0usize;

    for t in 0..horizon {
        j_lo = j_lo.saturating_sub(hw);
        j_hi = (j_hi + hw).min(n - 1);
        let (jl, jh) = (j_lo, j_hi);

        // Count ceiling after this tick's volume advance. Nothing beyond
        // it is written or read before the next tick's fill re-zeroes the
        // range, so the scratch rows only need zeroing up to here —
        // window rows outside `[jl, jh]` stay all-zero from the initial
        // full fill by induction (writes never leave the window).
        let widest = shifts[jh].0 + 1;
        let new_c_hi = (c_hi + widest).min(cm - 1);

        // --- evolve the bin axis (count axis untouched) ---
        // The destination-major evolve overwrites counts `0..=c_hi` of
        // every window row; only the counts this tick's volume advance
        // will newly reach still need zeroing by hand.
        for j in jl..=jh {
            next[j * cm + c_hi + 1..j * cm + new_c_hi + 1].fill(0.0);
        }
        evolve_rows(
            scatter_t, joint, next, jl, jh, c_hi, cm, &mut nz, &mut terms,
        );
        std::mem::swap(joint, next);

        // --- advance the volume axis per bin (quarter-MTU units) ---
        // The reference walks counts in ascending order doing two
        // scattered adds per cell. Destination cells are independent, so
        // the same result is computed cell-centrically as a two-point
        // stencil: cell `k` receives the `frac` term from `c = k-lo-1`
        // *then* the `1-frac` term from `c = k-lo` (ascending-`c` order),
        // i.e. `row[k-lo-1]*frac + row[k-lo]*(1-frac)` — the reference's
        // exact operand sequence per cell. Reads beyond `c_hi` see the
        // zeros left by this tick's fill, contributing `+0.0` terms that
        // cannot change any bit (no value in the DP is negative zero).
        for j in jl..=jh {
            let row = &mut joint[j * cm..(j + 1) * cm];
            let (lo, frac) = shifts[j];
            if lo == 0 && frac == 0.0 {
                continue; // outage bin: volume unchanged
            }
            let inv = 1.0 - frac;
            conv[..lo.min(new_c_hi + 1)].fill(0.0); // below the shift: unreachable
            if lo <= new_c_hi {
                conv[lo] = row[0] * inv; // only c = 0's low half reaches k = lo
            }
            let top = new_c_hi.min(cm - 2);
            for k in lo + 1..=top {
                conv[k] = row[k - lo - 1] * frac + row[k - lo] * inv;
            }
            if new_c_hi == cm - 1 {
                // Clamped top cell: several counts collapse into `cm-1`,
                // so replay the reference's accumulation order exactly
                // (ascending `c`; low half before high half within one).
                // `lo` can exceed `cm-1` when one tick's volume advance
                // overshoots the whole count axis (tiny `count_max`
                // relative to the rate grid) — then every count collapses
                // into the top cell and the scan starts at `c = 0`.
                let mut acc = 0.0f64;
                for (c, &p) in row
                    .iter()
                    .enumerate()
                    .take(c_hi + 1)
                    .skip((cm - 1).saturating_sub(lo).saturating_sub(1))
                {
                    if p == 0.0 {
                        continue;
                    }
                    if c + lo >= cm - 1 {
                        acc += p * inv;
                    }
                    if c + lo + 1 >= cm - 1 {
                        acc += p * frac;
                    }
                }
                conv[cm - 1] = acc;
            }
            row[..=new_c_hi].copy_from_slice(&conv[..=new_c_hi]);
        }
        c_hi = new_c_hi;

        // --- marginalize over bins, cumulative-sum, store ---
        // Bin-outer accumulation into `conv` walks the joint array
        // contiguously (the count-outer form strides by `cm` on every
        // add); each count cell still sums its bins in ascending order
        // and the cumulative sum still adds per-count totals in
        // ascending count order, so `acc` sees the reference's exact
        // operand sequence.
        conv[..=c_hi].fill(0.0);
        for j in jl..=jh {
            let row = &joint[j * cm..j * cm + c_hi + 1];
            crate::simd::add_assign(&mut conv[..=c_hi], row);
        }
        let mut acc = 0.0f64;
        for (c, slot) in strip[t * cm..(t + 1) * cm].iter_mut().enumerate() {
            if c <= c_hi {
                acc += conv[c];
            } else {
                acc = 1.0; // everything reachable is ≤ c_hi
            }
            *slot = acc.min(1.0) as f32;
        }
    }
    strip
}

/// Apply the transition operator to bins `[j_lo, j_hi]` of the joint
/// distribution, overwriting counts `0..=c_hi` of every window row of
/// `next`. Only counts `0..=c_hi` of `joint` carry mass; the count axis
/// stays contiguous so the inner loop vectorizes.
///
/// The walk is destination-major over the transposed operator: each
/// destination block accumulates all of its source contributions in one
/// register-resident pass ([`crate::simd::weighted_sum_into`]) instead
/// of being re-read and re-written once per source row. Per destination
/// cell the contributions still arrive in ascending source-bin order —
/// the reference's exact accumulation order — so the results are
/// bit-identical (the per-block zero-source skip only elides `+0.0`
/// terms, which cannot change any bit: no value in the DP is negative
/// zero). The count axis is processed in [`C_BLOCK`]-wide blocks so the
/// active slab of source rows stays cache-resident across the
/// destination passes.
#[allow(clippy::too_many_arguments)]
fn evolve_rows(
    scatter_t: &ScatterMatrix,
    joint: &[f64],
    next: &mut [f64],
    j_lo: usize,
    j_hi: usize,
    c_hi: usize,
    cm: usize,
    nz: &mut [bool],
    terms: &mut Vec<(u32, f64)>,
) {
    let mut c0 = 0usize;
    while c0 <= c_hi {
        let c1 = (c0 + C_BLOCK).min(c_hi + 1); // exclusive block end
        for j in j_lo..=j_hi {
            nz[j] = joint[j * cm + c0..j * cm + c1].iter().any(|&p| p != 0.0);
        }
        for dst in j_lo..=j_hi {
            terms.clear();
            let (srcs, weights) = scatter_t.row(dst);
            for (&src, &w) in srcs.iter().zip(weights.iter()) {
                let s = src as usize;
                if s >= j_lo && s <= j_hi && nz[s] {
                    terms.push(((s * cm + c0) as u32, w));
                }
            }
            crate::simd::weighted_sum_into(&mut next[dst * cm + c0..dst * cm + c1], joint, terms);
        }
        c0 = c1;
    }
}

/// The pre-vectorization scalar DP for one starting bin, kept verbatim
/// as the bit-exactness reference for [`build_one_start`] (exercised by
/// [`ForecastTables::build_reference`] and the `kernel_equivalence`
/// proptest suite).
#[allow(clippy::too_many_arguments)]
fn build_one_start_reference(
    start: usize,
    horizon: usize,
    cm: usize,
    shifts: &[(usize, f64)],
    scatter: &ScatterMatrix,
    _scatter_t: &ScatterMatrix,
    joint: &mut Vec<f64>,
    next: &mut Vec<f64>,
    conv: &mut [f64],
) -> Vec<f32> {
    let n = scatter.num_bins();
    let hw = scatter.max_reach();
    joint.fill(0.0);
    next.fill(0.0);
    joint[start * cm] = 1.0;
    let mut strip = vec![0.0f32; horizon * cm];
    let mut j_lo = start;
    let mut j_hi = start;
    let mut c_hi = 0usize;

    for t in 0..horizon {
        j_lo = j_lo.saturating_sub(hw);
        j_hi = (j_hi + hw).min(n - 1);
        let (jl, jh) = (j_lo, j_hi);

        // --- evolve the bin axis (count axis untouched) ---
        for v in next[jl * cm..(jh + 1) * cm].iter_mut() {
            *v = 0.0;
        }
        evolve_rows_reference(scatter, joint, next, jl, jh, c_hi, cm);
        std::mem::swap(joint, next);

        // --- advance the volume axis per bin (quarter-MTU units) ---
        let widest = shifts[jh].0 + 1;
        let new_c_hi = (c_hi + widest).min(cm - 1);
        for j in jl..=jh {
            let row = &mut joint[j * cm..(j + 1) * cm];
            let (lo, frac) = shifts[j];
            if lo == 0 && frac == 0.0 {
                continue; // outage bin: volume unchanged
            }
            conv[..=new_c_hi].fill(0.0);
            for (c, &p) in row.iter().enumerate().take(c_hi + 1) {
                if p == 0.0 {
                    continue;
                }
                let a = (c + lo).min(cm - 1);
                let b = (c + lo + 1).min(cm - 1);
                conv[a] += p * (1.0 - frac);
                conv[b] += p * frac;
            }
            row[..=new_c_hi].copy_from_slice(&conv[..=new_c_hi]);
        }
        c_hi = new_c_hi;

        // --- marginalize over bins, cumulative-sum, store ---
        let mut acc = 0.0f64;
        for c in 0..cm {
            if c <= c_hi {
                let mut pc = 0.0;
                for j in jl..=jh {
                    pc += joint[j * cm + c];
                }
                acc += pc;
            } else {
                acc = 1.0; // everything reachable is ≤ c_hi
            }
            strip[t * cm + c] = acc.min(1.0) as f32;
        }
    }
    strip
}

/// The reference (unblocked) form of [`evolve_rows`].
fn evolve_rows_reference(
    scatter: &ScatterMatrix,
    joint: &[f64],
    next: &mut [f64],
    j_lo: usize,
    j_hi: usize,
    c_hi: usize,
    cm: usize,
) {
    for j in j_lo..=j_hi {
        let src = &joint[j * cm..j * cm + c_hi + 1];
        if src.iter().all(|&p| p == 0.0) {
            continue;
        }
        let (dests, weights) = scatter.row(j);
        for (&dst_bin, &w) in dests.iter().zip(weights.iter()) {
            let dst_bin = dst_bin as usize;
            let dst = &mut next[dst_bin * cm..dst_bin * cm + c_hi + 1];
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d += w * s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SproutConfig {
        SproutConfig::test_small()
    }

    fn tables(cfg: &SproutConfig) -> Arc<ForecastTables> {
        ForecastTables::get(cfg)
    }

    fn uniform(n: usize) -> Vec<f64> {
        vec![1.0 / n as f64; n]
    }

    fn point_mass(n: usize, at: usize) -> Vec<f64> {
        let mut v = vec![0.0; n];
        v[at] = 1.0;
        v
    }

    #[test]
    fn conditional_cdfs_are_valid() {
        let cfg = small_cfg();
        let t = tables(&cfg);
        for tick in 0..cfg.horizon_ticks {
            for bin in [0, 1, cfg.num_bins / 2, cfg.num_bins - 1] {
                let mut prev = 0.0;
                for c in 0..cfg.count_max {
                    let f = t.conditional_cdf(tick, c, bin);
                    assert!(
                        (0.0..=1.0 + 1e-6).contains(&f),
                        "cdf out of range: {f} at t={tick} c={c} bin={bin}"
                    );
                    assert!(f + 1e-6 >= prev, "cdf must be non-decreasing in c");
                    prev = f;
                }
                assert!(
                    (prev - 1.0).abs() < 1e-4,
                    "cdf must reach 1, got {prev} (tick {tick}, bin {bin})"
                );
            }
        }
    }

    #[test]
    fn outage_start_forecasts_nothing() {
        // Starting in a certain outage, the 5th-percentile forecast must
        // be 0 for every tick in the horizon (escape is unlikely and slow).
        let cfg = small_cfg();
        let t = tables(&cfg);
        let f = t.forecast(&point_mass(cfg.num_bins, 0), 5.0);
        assert!(f.cumulative_units.iter().all(|&c| c == 0), "{f:?}");
    }

    #[test]
    fn fast_start_forecasts_roughly_rate_times_time() {
        // Start certain at the top bin (250 pps in the test config → 5
        // packets = 20 quarter-units per 20 ms tick). The *median*
        // cumulative forecast should grow ≈20 units per tick; the 5th
        // percentile strictly less.
        let cfg = small_cfg();
        let t = tables(&cfg);
        let top = point_mass(cfg.num_bins, cfg.num_bins - 1);
        let median = t.forecast(&top, 50.0);
        let last = *median.cumulative_units.last().unwrap() as f64;
        let expect = 250.0 * 0.02 * cfg.horizon_ticks as f64 * UNITS_PER_MTU as f64;
        assert!(
            (last - expect).abs() < expect * 0.35,
            "median cumulative {last} units, expect ≈{expect}"
        );
        let cautious = t.forecast(&top, 5.0);
        for (c, m) in cautious
            .cumulative_units
            .iter()
            .zip(median.cumulative_units.iter())
        {
            assert!(c <= m, "cautious must not exceed median");
        }
    }

    #[test]
    fn table_cache_stays_bounded_across_disjoint_geometries() {
        // A daemon sweeping many distinct link geometries must not grow
        // the in-memory table cache without bound: push well past the cap
        // and pin that occupancy stays at or under it while the overflow
        // shows up as evictions.
        let span = FORECAST_TABLE_CACHE_CAP + 4;
        let (_, evicted_before) = table_cache_occupancy();
        for i in 0..span {
            let cfg = SproutConfig {
                num_bins: 16 + i, // distinct geometry ⇒ distinct table key
                max_rate_pps: 100.0,
                sigma: 100.0,
                count_max: 32,
                ..SproutConfig::default()
            };
            let _t = ForecastTables::get(&cfg);
            let (len, _) = table_cache_occupancy();
            assert!(
                len <= FORECAST_TABLE_CACHE_CAP,
                "cache grew to {len} entries past the cap after geometry {i}"
            );
        }
        let (_, evicted_after) = table_cache_occupancy();
        // Other tests in this binary share the cache, so evictions can
        // only exceed the floor this loop forces.
        assert!(
            evicted_after - evicted_before >= (span - FORECAST_TABLE_CACHE_CAP) as u64,
            "expected ≥{} evictions, saw {}",
            span - FORECAST_TABLE_CACHE_CAP,
            evicted_after - evicted_before
        );
    }

    #[test]
    fn forecast_is_monotone_in_tick() {
        let cfg = small_cfg();
        let t = tables(&cfg);
        for posterior in [
            uniform(cfg.num_bins),
            point_mass(cfg.num_bins, cfg.num_bins / 2),
        ] {
            for pct in [5.0, 50.0, 95.0] {
                let f = t.forecast(&posterior, pct);
                for w in f.cumulative_units.windows(2) {
                    assert!(w[0] <= w[1], "{f:?}");
                }
            }
        }
    }

    #[test]
    fn lower_percentile_is_more_cautious() {
        let cfg = small_cfg();
        let t = tables(&cfg);
        let posterior = point_mass(cfg.num_bins, cfg.num_bins / 2);
        let f5 = t.forecast(&posterior, 5.0);
        let f50 = t.forecast(&posterior, 50.0);
        let f95 = t.forecast(&posterior, 95.0);
        for i in 0..f5.horizon() {
            assert!(f5.cumulative_units[i] <= f50.cumulative_units[i]);
            assert!(f50.cumulative_units[i] <= f95.cumulative_units[i]);
        }
        // And strictly so somewhere, or the sweep of Fig. 9 would be flat.
        assert_ne!(f5.cumulative_units, f95.cumulative_units);
    }

    #[test]
    fn mixture_matches_conditional_for_point_mass() {
        let cfg = small_cfg();
        let t = tables(&cfg);
        let bin = cfg.num_bins / 3;
        let pm = point_mass(cfg.num_bins, bin);
        for c in [0, 5, 20] {
            let a = t.mixture_cdf(&pm, 2, c);
            let b = t.conditional_cdf(2, c, bin);
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn one_tick_cdf_matches_direct_computation() {
        // For one tick from a point mass, C₁'s distribution is the
        // one-step-evolved bin distribution pushed through the per-bin
        // volume advance (λ·τ in quarter-units, two-point split).
        let cfg = small_cfg();
        let kernel = TransitionKernel::new(&cfg);
        let t = ForecastTables::build(&cfg, &kernel);
        let bin = cfg.num_bins / 2;
        let mut evolved = vec![0.0; cfg.num_bins];
        let mut pm = vec![0.0; cfg.num_bins];
        pm[bin] = 1.0;
        kernel.evolve_into(&pm, &mut evolved);
        let tau = cfg.tick_secs();
        for c in [0usize, 2, 4, 8, 16] {
            let direct: f64 = evolved
                .iter()
                .enumerate()
                .map(|(j, &p)| {
                    let units = cfg.bin_rate_pps(j) * tau * UNITS_PER_MTU as f64;
                    let lo = units.floor() as usize;
                    let frac = units - units.floor();
                    // P(volume ≤ c | bin j): lands at lo w.p. 1−frac,
                    // lo+1 w.p. frac.
                    let cdf = if lo < c {
                        1.0
                    } else if lo <= c {
                        1.0 - frac
                    } else {
                        0.0
                    };
                    p * cdf
                })
                .sum();
            let table = t.conditional_cdf(0, c, bin);
            assert!(
                (direct - table).abs() < 1e-4,
                "c={c}: direct {direct} vs table {table}"
            );
        }
    }

    #[test]
    fn forecast_bytes_clamps_to_horizon() {
        // Units are quarter-MTU: 4 units = 1500 bytes.
        let f = Forecast {
            cumulative_units: vec![4, 8, 12],
        };
        assert_eq!(f.cumulative_bytes(0, 1500), 1_500);
        assert_eq!(f.cumulative_bytes(2, 1500), 4_500);
        assert_eq!(f.cumulative_bytes(99, 1500), 4_500); // clamped
    }

    #[test]
    fn blocked_build_is_byte_identical_to_reference() {
        let cfg = small_cfg();
        let kernel = TransitionKernel::new(&cfg);
        let fast = ForecastTables::build(&cfg, &kernel);
        let slow = ForecastTables::build_reference(&cfg, &kernel);
        assert_eq!(fast.to_bytes(), slow.to_bytes());
        assert_eq!(fast.max_step, slow.max_step);
    }

    #[test]
    fn bounded_search_matches_unbounded_gallop_domain() {
        // A table decoded through raw `from_bytes` has no config-derived
        // search bound (max_step == count_max). Forecasts must be
        // identical either way.
        let cfg = small_cfg();
        let kernel = TransitionKernel::new(&cfg);
        let bounded = ForecastTables::build(&cfg, &kernel);
        assert!(bounded.max_step < bounded.count_max);
        let unbounded = ForecastTables::from_bytes(&bounded.to_bytes()).unwrap();
        assert_eq!(unbounded.max_step, unbounded.count_max);
        for posterior in [
            uniform(cfg.num_bins),
            point_mass(cfg.num_bins, 0),
            point_mass(cfg.num_bins, cfg.num_bins - 1),
        ] {
            for pct in [5.0, 25.0, 50.0, 75.0, 95.0] {
                assert_eq!(
                    bounded.forecast(&posterior, pct),
                    unbounded.forecast(&posterior, pct)
                );
            }
        }
    }

    #[test]
    fn cache_returns_shared_instance() {
        let cfg = small_cfg();
        let a = ForecastTables::get(&cfg);
        let b = ForecastTables::get(&cfg);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
