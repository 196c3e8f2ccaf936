//! Synthetic cellular trace generation.
//!
//! The generator implements the paper's own model of a cellular link
//! (§3.1, Figure 3): packet delivery opportunities form a Poisson process
//! whose underlying rate λ performs Brownian motion with noise power σ
//! (packets per second per √second), with a *sticky* outage state at λ = 0
//! escaped at exponential rate λz. Two extensions make the synthetic links
//! track the paper's eight measured links rather than wander arbitrarily:
//!
//! * a configurable mean-reversion pull toward a per-network typical rate
//!   (set `mean_reversion = 0` to recover the paper's pure Brownian model);
//! * a configurable spontaneous outage-entry rate, standing in for the
//!   coverage holes a drive around Boston encounters (the paper's traces
//!   contain multi-second outages; pure reflected Brownian motion reaches
//!   λ=0 too rarely at LTE rates to reproduce them).
//!
//! Both extensions are deliberate, documented substitutions for the
//! paper's measured drive traces, which are not available offline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr_poisson::sample_poisson;
use sprout_cache::{ArtifactKind, ByteReader, ByteWriter, CacheCounters};

use crate::time::{Duration, Timestamp};
use crate::trace::Trace;

/// On-disk persistence of synthesized traces. The version covers the
/// payload encoding *and* the synthesis algorithm (model parameters, RNG
/// stream layout) — bump it if either changes, or stale traces would load
/// silently.
static TRACE_ARTIFACT: ArtifactKind = ArtifactKind::new("trace-synth", 1);

/// Disk-cache traffic counters for trace synthesis (hits mean a
/// [`NetProfile::generate`] call skipped the millisecond-step simulation).
pub fn trace_cache_counters() -> CacheCounters {
    TRACE_ARTIFACT.counters()
}

/// Encode a trace's delivery opportunities: count, first timestamp, then
/// `u32` deltas (microseconds). Deltas beyond `u32::MAX` (> 71 virtual
/// minutes of continuous outage — unreachable for these links) make the
/// trace uncacheable and return `None`.
fn encode_trace(trace: &Trace) -> Option<Vec<u8>> {
    let ops = trace.opportunities();
    let mut w = ByteWriter::with_capacity(16 + 4 * ops.len());
    w.u64(ops.len() as u64);
    let mut prev: Option<Timestamp> = None;
    for &t in ops {
        match prev {
            None => {
                w.u64(t.as_micros());
            }
            Some(p) => {
                let delta = t.as_micros() - p.as_micros();
                if delta > u32::MAX as u64 {
                    return None;
                }
                w.u32(delta as u32);
            }
        }
        prev = Some(t);
    }
    Some(w.finish())
}

/// Decode an [`encode_trace`] payload; `None` on any shape mismatch.
fn decode_trace(bytes: &[u8]) -> Option<Trace> {
    let mut r = ByteReader::new(bytes);
    let count = r.u64()? as usize;
    let mut ops = Vec::with_capacity(count);
    if count > 0 {
        let mut at = r.u64()?;
        ops.push(Timestamp::from_micros(at));
        for _ in 1..count {
            at += r.u32()? as u64;
            ops.push(Timestamp::from_micros(at));
        }
    }
    if r.remaining() != 0 {
        return None;
    }
    Some(Trace::new(ops))
}

/// Parameters of the doubly-stochastic link model.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkModelParams {
    /// Typical (long-run mean) rate, MTU-sized packets per second.
    pub mean_rate_pps: f64,
    /// Hard ceiling on λ, packets per second (the paper discretizes up to
    /// 1000 pps ≈ 11–12 Mbps).
    pub max_rate_pps: f64,
    /// Brownian noise power σ, packets per second per √second (§3.1; the
    /// paper's frozen value is 200).
    pub sigma: f64,
    /// Mean-reversion strength θ (1/s): drift θ·(mean − λ) per second.
    /// 0 disables reversion (paper's pure model).
    pub mean_reversion: f64,
    /// Rate (1/s) of spontaneous entries into the outage state.
    pub outage_entry_rate: f64,
    /// Outage escape rate λz (1/s); the paper freezes λz = 1.
    pub outage_escape_rate: f64,
}

impl LinkModelParams {
    /// The paper's frozen model constants (σ = 200, λz = 1) around a given
    /// typical rate.
    pub fn paper_frozen(mean_rate_pps: f64) -> Self {
        LinkModelParams {
            mean_rate_pps,
            max_rate_pps: 1000.0,
            sigma: 200.0,
            mean_reversion: 0.0,
            outage_entry_rate: 0.0,
            outage_escape_rate: 1.0,
        }
    }
}

/// The eight links of the paper's evaluation (§4.1): four commercial
/// networks, each measured on both directions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NetProfile {
    /// Verizon LTE, downlink. The fastest and most variable link (Fig. 1).
    VerizonLteDown,
    /// Verizon LTE, uplink.
    VerizonLteUp,
    /// Verizon 3G (1xEV-DO / eHRPD), downlink.
    Verizon3gDown,
    /// Verizon 3G (1xEV-DO / eHRPD), uplink.
    Verizon3gUp,
    /// AT&T LTE, downlink.
    AttLteDown,
    /// AT&T LTE, uplink.
    AttLteUp,
    /// T-Mobile 3G (UMTS), downlink.
    TmobileUmtsDown,
    /// T-Mobile 3G (UMTS), uplink.
    TmobileUmtsUp,
}

impl NetProfile {
    /// All eight links, in the paper's Figure 7 order.
    pub fn all() -> [NetProfile; 8] {
        [
            NetProfile::VerizonLteDown,
            NetProfile::VerizonLteUp,
            NetProfile::Verizon3gDown,
            NetProfile::Verizon3gUp,
            NetProfile::AttLteDown,
            NetProfile::AttLteUp,
            NetProfile::TmobileUmtsDown,
            NetProfile::TmobileUmtsUp,
        ]
    }

    /// Human-readable name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            NetProfile::VerizonLteDown => "Verizon LTE Downlink",
            NetProfile::VerizonLteUp => "Verizon LTE Uplink",
            NetProfile::Verizon3gDown => "Verizon 3G (1xEV-DO) Downlink",
            NetProfile::Verizon3gUp => "Verizon 3G (1xEV-DO) Uplink",
            NetProfile::AttLteDown => "AT&T LTE Downlink",
            NetProfile::AttLteUp => "AT&T LTE Uplink",
            NetProfile::TmobileUmtsDown => "T-Mobile 3G (UMTS) Downlink",
            NetProfile::TmobileUmtsUp => "T-Mobile 3G (UMTS) Uplink",
        }
    }

    /// Short machine-friendly identifier (file names, TSV columns).
    pub fn id(self) -> &'static str {
        match self {
            NetProfile::VerizonLteDown => "vz-lte-down",
            NetProfile::VerizonLteUp => "vz-lte-up",
            NetProfile::Verizon3gDown => "vz-3g-down",
            NetProfile::Verizon3gUp => "vz-3g-up",
            NetProfile::AttLteDown => "att-lte-down",
            NetProfile::AttLteUp => "att-lte-up",
            NetProfile::TmobileUmtsDown => "tmo-3g-down",
            NetProfile::TmobileUmtsUp => "tmo-3g-up",
        }
    }

    /// Model parameters calibrated so each synthetic link lands on the
    /// capacity scale visible on the corresponding Figure 7 axes. LTE links
    /// keep the paper's σ = 200; slower 3G links get proportionally smaller
    /// noise (rate swings in the measured 3G traces are smaller in absolute
    /// terms). Outage parameters give occasional one-to-several-second
    /// stalls, heaviest on the EV-DO link as in the paper's description.
    pub fn params(self) -> LinkModelParams {
        // Mean rates chosen from Fig. 7 axis scales (kbps / 12 = packets/s).
        // Outage entry/escape rates are kept mild: the OU rate process
        // already stalls naturally when it wanders to zero, and at low
        // means an escape that resumes near zero re-enters immediately
        // (flapping), so heavy forced outages compound into dead zones
        // far harsher than the measured links.
        // Weak mean reversion: the measured links "vary by two orders of
        // magnitude within seconds" (§2.2) — the rate must be allowed to
        // dive deep and climb high, not hug the mean.
        let (mean_pps, max_pps, sigma, theta, outage_in, outage_out) = match self {
            NetProfile::VerizonLteDown => (420.0, 1000.0, 200.0, 0.50, 0.012, 1.2),
            NetProfile::VerizonLteUp => (230.0, 800.0, 140.0, 0.50, 0.012, 1.2),
            NetProfile::Verizon3gDown => (37.0, 120.0, 18.0, 0.45, 0.030, 0.9),
            NetProfile::Verizon3gUp => (42.0, 120.0, 14.0, 0.45, 0.020, 1.0),
            NetProfile::AttLteDown => (230.0, 700.0, 150.0, 0.50, 0.015, 1.2),
            NetProfile::AttLteUp => (62.0, 200.0, 40.0, 0.45, 0.018, 1.1),
            NetProfile::TmobileUmtsDown => (95.0, 300.0, 55.0, 0.45, 0.018, 1.1),
            NetProfile::TmobileUmtsUp => (72.0, 220.0, 35.0, 0.45, 0.018, 1.1),
        };
        LinkModelParams {
            mean_rate_pps: mean_pps,
            max_rate_pps: max_pps,
            sigma,
            mean_reversion: theta,
            outage_entry_rate: outage_in,
            outage_escape_rate: outage_out,
        }
    }

    /// Generate this link's standard synthetic trace: `duration` long,
    /// deterministic in `seed`.
    ///
    /// Results are persisted in the content-addressed artifact cache
    /// keyed by `(profile, duration, seed)`: a second process asking for
    /// the same trace decodes the recorded event stream (bit-identical
    /// to a fresh synthesis) instead of re-running the millisecond-step
    /// simulation. Set `SPROUT_CACHE_DIR` / `sprout_cache::disable()` to
    /// redirect or turn this off.
    pub fn generate(self, duration: Duration, seed: u64) -> Trace {
        let key = {
            let mut w = ByteWriter::with_capacity(32);
            w.str(self.id()).u64(duration.as_micros()).u64(seed);
            w.finish()
        };
        if let Some(bytes) = TRACE_ARTIFACT.load(&key) {
            if let Some(trace) = decode_trace(&bytes) {
                return trace;
            }
        }
        // Derive a per-profile sub-stream so "seed 1" still gives the
        // eight links independent sample paths.
        let derived = crate::seed::derive_labeled_seed(seed, "trace-synth", self as u64);
        let trace = LinkSimulator::new(self.params(), derived).generate(duration);
        if let Some(encoded) = encode_trace(&trace) {
            TRACE_ARTIFACT.store(&key, &encoded);
        }
        trace
    }
}

/// Minimal Poisson sampler (Knuth's product method) — per-millisecond means
/// here never exceed `max_rate_pps / 1000 = 1`, where the method is exact
/// and fast. Kept in a private module to make the tiny dependency surface
/// obvious.
mod rand_distr_poisson {
    use rand::Rng;

    /// Draw from Poisson(mean). Only valid for small means (< ~30), which
    /// covers every call site in this crate (mean ≤ 1 per millisecond step).
    pub fn sample_poisson(rng: &mut impl Rng, mean: f64) -> u32 {
        debug_assert!((0.0..30.0).contains(&mean));
        if mean <= 0.0 {
            return 0;
        }
        let l = (-mean).exp();
        let mut k = 0u32;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
}

/// Stateful simulator of the doubly-stochastic link; advances in 1 ms steps
/// and emits delivery opportunities. Exposed so callers (e.g. the Saturator
/// reproduction) can co-simulate with other components.
#[derive(Clone, Debug)]
pub struct LinkSimulator {
    params: LinkModelParams,
    rng: StdRng,
    /// Current underlying rate λ, packets per second. 0 while in an outage.
    rate_pps: f64,
    /// Whether the link is in the sticky outage state.
    in_outage: bool,
    now_ms: u64,
}

impl LinkSimulator {
    /// Millisecond step size of the simulation.
    const DT: f64 = 1e-3;

    /// New simulator starting at the profile's mean rate.
    pub fn new(params: LinkModelParams, seed: u64) -> Self {
        assert!(params.max_rate_pps > 0.0, "max rate must be positive");
        let rate = params.mean_rate_pps.min(params.max_rate_pps);
        LinkSimulator {
            params,
            rng: StdRng::seed_from_u64(seed),
            rate_pps: rate,
            in_outage: false,
            now_ms: 0,
        }
    }

    /// Current underlying rate (0 during outages). Test/diagnostic hook.
    pub fn rate_pps(&self) -> f64 {
        if self.in_outage {
            0.0
        } else {
            self.rate_pps
        }
    }

    /// Whether the link is currently in the outage state.
    pub fn in_outage(&self) -> bool {
        self.in_outage
    }

    /// Advance one millisecond; returns the number of delivery
    /// opportunities generated in that millisecond.
    pub fn step_ms(&mut self) -> u32 {
        let p = &self.params;
        let dt = Self::DT;
        self.now_ms += 1;

        if self.in_outage {
            // Exponential escape at rate λz (§3.1 "outage escape rate").
            if self.rng.gen::<f64>() < p.outage_escape_rate * dt {
                self.in_outage = false;
                // Resume from a modest rate: an escaping link does not jump
                // straight back to its mean.
                self.rate_pps = 0.25 * p.mean_rate_pps;
            }
            return 0;
        }

        // Spontaneous outage entry (coverage hole).
        if self.rng.gen::<f64>() < p.outage_entry_rate * dt {
            self.in_outage = true;
            self.rate_pps = 0.0;
            return 0;
        }

        // Mean-reverting Brownian step; gaussian via Box-Muller on two
        // uniform draws (avoids depending on rand_distr).
        let z = gaussian(&mut self.rng);
        let drift = p.mean_reversion * (p.mean_rate_pps - self.rate_pps) * dt;
        self.rate_pps += drift + p.sigma * dt.sqrt() * z;

        // Reflect at the ceiling; entering λ≤0 means the link stalls, and
        // stalls are sticky (§3.1).
        if self.rate_pps >= p.max_rate_pps {
            self.rate_pps = 2.0 * p.max_rate_pps - self.rate_pps;
        }
        if self.rate_pps <= 0.0 {
            self.in_outage = true;
            self.rate_pps = 0.0;
            return 0;
        }

        sample_poisson(&mut self.rng, self.rate_pps * dt)
    }

    /// Run the simulator for `duration`, collecting a trace.
    pub fn generate(mut self, duration: Duration) -> Trace {
        let total_ms = duration.as_millis();
        let mut opportunities =
            Vec::with_capacity((self.params.mean_rate_pps * duration.as_secs_f64()) as usize + 16);
        for ms in 0..total_ms {
            // Synthesis runs minutes of virtual time at 1 ms steps; honor
            // a watchdog cancellation every ~4 virtual seconds.
            if ms.is_multiple_of(4096) {
                crate::cancel::checkpoint();
            }
            let n = self.step_ms();
            for _ in 0..n {
                opportunities.push(Timestamp::from_millis(ms));
            }
        }
        Trace::new(opportunities)
    }
}

fn gaussian(rng: &mut impl Rng) -> f64 {
    // Box–Muller; u1 is kept away from zero to avoid ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_encode_decode_round_trips_bit_exact() {
        let trace = NetProfile::TmobileUmtsDown.generate(Duration::from_secs(20), 99);
        let encoded = encode_trace(&trace).expect("per-ms traces always encode");
        let decoded = decode_trace(&encoded).expect("fresh encoding decodes");
        assert_eq!(trace, decoded);
        // Empty and single-event traces survive too.
        for t in [Trace::new(vec![]), Trace::from_millis([1234])] {
            let d = decode_trace(&encode_trace(&t).unwrap()).unwrap();
            assert_eq!(t, d);
        }
        // Truncated payloads degrade into misses, not panics.
        assert!(decode_trace(&encoded[..encoded.len() - 1]).is_none());
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let d = Duration::from_secs(30);
        let a = NetProfile::VerizonLteDown.generate(d, 7);
        let b = NetProfile::VerizonLteDown.generate(d, 7);
        let c = NetProfile::VerizonLteDown.generate(d, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn profiles_have_distinct_sample_paths_for_same_seed() {
        let d = Duration::from_secs(10);
        let a = NetProfile::VerizonLteDown.generate(d, 1);
        let b = NetProfile::AttLteDown.generate(d, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn mean_rate_is_near_profile_mean() {
        // Long-run average should land within a factor of ~2 of the profile
        // mean despite outages and reflection.
        for profile in NetProfile::all() {
            let tr = profile.generate(Duration::from_secs(120), 42);
            let kbps = tr.average_rate_kbps();
            let target = profile.params().mean_rate_pps * 12.0; // pps → kbps
            assert!(
                kbps > target * 0.4 && kbps < target * 2.0,
                "{}: got {kbps:.0} kbps, target {target:.0}",
                profile.name()
            );
        }
    }

    #[test]
    fn rates_never_exceed_ceiling() {
        let params = NetProfile::VerizonLteDown.params();
        let mut sim = LinkSimulator::new(params.clone(), 3);
        for _ in 0..60_000 {
            sim.step_ms();
            assert!(sim.rate_pps() <= params.max_rate_pps);
            assert!(sim.rate_pps() >= 0.0);
        }
    }

    #[test]
    fn outages_are_sticky_but_escape() {
        // With a high entry rate we must observe at least one outage, and
        // with λz=1 the link must always come back within the run.
        let params = LinkModelParams {
            outage_entry_rate: 2.0,
            ..NetProfile::VerizonLteDown.params()
        };
        let mut sim = LinkSimulator::new(params, 11);
        let mut saw_outage = false;
        let mut saw_recovery = false;
        for _ in 0..120_000 {
            sim.step_ms();
            if sim.in_outage() {
                saw_outage = true;
            } else if saw_outage {
                saw_recovery = true;
            }
        }
        assert!(saw_outage && saw_recovery);
    }

    #[test]
    fn paper_frozen_params_match_section_3_1() {
        let p = LinkModelParams::paper_frozen(137.0);
        assert_eq!(p.sigma, 200.0);
        assert_eq!(p.outage_escape_rate, 1.0);
        assert_eq!(p.max_rate_pps, 1000.0);
        assert_eq!(p.mean_reversion, 0.0);
    }

    #[test]
    fn poisson_sampler_matches_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200_000;
        let mean = 0.8;
        let total: u64 = (0..n)
            .map(|_| rand_distr_poisson::sample_poisson(&mut rng, mean) as u64)
            .sum();
        let empirical = total as f64 / n as f64;
        assert!((empirical - mean).abs() < 0.02, "empirical {empirical}");
    }
}
