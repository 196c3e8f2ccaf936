//! The virtual-time event loop: two endpoints bridged by a bidirectional
//! Cellsim path, advanced deterministically from event to event.

use crate::cellsim::{DirectedPath, PathConfig};
use crate::endpoint::Endpoint;
use crate::metrics::{
    self, degradation_stats, omniscient_p95_delay, self_inflicted_delay, utilization,
    DegradationStats, MetricsCollector,
};
use sprout_trace::{Duration, Timestamp};

/// A full experiment: endpoint `a`, endpoint `b`, and the two directed
/// paths between them (`ab` carries a→b traffic, `ba` the reverse).
pub struct Simulation<A: Endpoint, B: Endpoint> {
    /// The "a" endpoint (by convention: the sender/client side).
    pub a: A,
    /// The "b" endpoint (by convention: the receiver/server side).
    pub b: B,
    ab: DirectedPath,
    ba: DirectedPath,
    now: Timestamp,
    /// Recycled packet buffer for deliveries and endpoint polls: the
    /// event loop drains it every step, so one allocation serves the
    /// whole run instead of four fresh `Vec`s per step.
    scratch: Vec<crate::packet::Packet>,
}

impl<A: Endpoint, B: Endpoint> Simulation<A, B> {
    /// Assemble a simulation. `ab` is the path carrying a→b traffic.
    pub fn new(a: A, b: B, ab: PathConfig, ba: PathConfig) -> Self {
        Simulation {
            a,
            b,
            ab: DirectedPath::new(ab),
            ba: DirectedPath::new(ba),
            now: Timestamp::ZERO,
            scratch: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Metrics of the a→b direction.
    pub fn ab_metrics(&self) -> &MetricsCollector {
        self.ab.metrics()
    }

    /// Metrics of the b→a direction.
    pub fn ba_metrics(&self) -> &MetricsCollector {
        self.ba.metrics()
    }

    /// The a→b path (queue state, drop counters, trace).
    pub fn ab_path(&self) -> &DirectedPath {
        &self.ab
    }

    /// The b→a path.
    pub fn ba_path(&self) -> &DirectedPath {
        &self.ba
    }

    /// Run the event loop until virtual time `end`.
    pub fn run_until(&mut self, end: Timestamp) {
        let mut steps = 0u32;
        while self.now < end {
            // Honor watchdog cancellation between steps: a timed-out
            // sweep cell must release its thread instead of simulating
            // the remaining virtual hours at wall speed. ~1k steps keeps
            // the check off the per-event hot path.
            steps = steps.wrapping_add(1);
            if steps.is_multiple_of(1024) {
                sprout_trace::cancel::checkpoint();
            }
            self.step();
            let mut next = Timestamp::FAR_FUTURE;
            for cand in [
                self.a.next_wakeup(),
                self.b.next_wakeup(),
                self.ab.next_event(),
                self.ba.next_event(),
            ]
            .into_iter()
            .flatten()
            {
                next = next.min(cand);
            }
            // Guard against endpoints that request an immediate wakeup in
            // a loop: force minimal progress.
            if next <= self.now {
                next = self.now + Duration::from_micros(1);
            }
            self.now = next.min(end);
        }
        // Process events falling exactly at `end`.
        self.step();
    }

    /// Process all events due at the current instant: deliveries first,
    /// then endpoint transmissions (so feedback generated by an arrival is
    /// sent in the same instant, as a real event-driven process would).
    /// All four phases drain one recycled buffer — no per-step allocation.
    fn step(&mut self) {
        let buf = &mut self.scratch;
        debug_assert!(buf.is_empty());
        self.ab.advance_into(self.now, buf);
        for p in buf.drain(..) {
            self.b.on_packet(p, self.now);
        }
        self.ba.advance_into(self.now, buf);
        for p in buf.drain(..) {
            self.a.on_packet(p, self.now);
        }
        self.a.poll_into(self.now, buf);
        for p in buf.drain(..) {
            self.ab.send(p, self.now);
        }
        self.b.poll_into(self.now, buf);
        for p in buf.drain(..) {
            self.ba.send(p, self.now);
        }
    }
}

/// Summary statistics of one direction over a measurement window.
#[derive(Clone, Copy, Debug)]
pub struct DirectionStats {
    /// Bytes delivered in the window.
    pub delivered_bytes: u64,
    /// Average throughput, kbps.
    pub throughput_kbps: f64,
    /// 95% end-to-end delay (None if no deliveries).
    pub p95_delay: Option<Duration>,
    /// The omniscient protocol's 95% delay on the same trace window.
    pub omniscient_p95: Option<Duration>,
    /// Self-inflicted delay = p95 − omniscient p95.
    pub self_inflicted: Option<Duration>,
    /// Fraction of link capacity used.
    pub utilization: f64,
    /// Graceful-degradation metrics under injected outages (all-default
    /// when the link had none).
    pub degradation: DegradationStats,
}

/// Compute [`DirectionStats`] for a finished path over `[from, to)`.
pub fn direction_stats(path: &DirectedPath, from: Timestamp, to: Timestamp) -> DirectionStats {
    let m = path.metrics();
    let trace = path.link().trace();
    let delivered = m.delivered_bytes(from, to, None);
    let p95 = m.p95_delay(from, to);
    let omni = omniscient_p95_delay(trace, path.prop_delay(), from, to);
    DirectionStats {
        delivered_bytes: delivered,
        throughput_kbps: m.throughput_kbps(from, to),
        p95_delay: p95,
        omniscient_p95: omni,
        self_inflicted: match (p95, omni) {
            (Some(p), Some(o)) => Some(self_inflicted_delay(p, o)),
            _ => None,
        },
        utilization: utilization(delivered, trace, from, to),
        degradation: degradation_stats(m, trace, path.link().outage_windows(), from, to, p95),
    }
}

/// Convenience: stats for both directions with the paper's measurement
/// convention (skip the first `warmup` of the run; measure to `end`).
pub fn run_stats<A: Endpoint, B: Endpoint>(
    sim: &Simulation<A, B>,
    warmup: Duration,
    end: Timestamp,
) -> (DirectionStats, DirectionStats) {
    let from = Timestamp::ZERO + warmup;
    (
        direction_stats(&sim.ab, from, end),
        direction_stats(&sim.ba, from, end),
    )
}

/// Re-export hook used by harness code that wants raw metric helpers.
pub use metrics::omniscient_delay_percentile;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::SinkEndpoint;
    use crate::packet::{FlowId, Packet};
    use sprout_trace::{Trace, MTU_BYTES};

    /// Sends one MTU packet every `interval`, unconditionally.
    struct Blaster {
        interval: Duration,
        next_send: Timestamp,
        seq: u64,
    }

    impl Blaster {
        fn new(interval: Duration) -> Self {
            Blaster {
                interval,
                next_send: Timestamp::ZERO,
                seq: 0,
            }
        }
    }

    impl Endpoint for Blaster {
        fn on_packet(&mut self, _p: Packet, _now: Timestamp) {}
        fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
            while self.next_send <= now {
                out.push(Packet::opaque(FlowId::PRIMARY, self.seq, MTU_BYTES));
                self.seq += 1;
                self.next_send += self.interval;
            }
        }
        fn next_wakeup(&self) -> Option<Timestamp> {
            Some(self.next_send)
        }
    }

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn underloaded_link_delivers_everything_quickly() {
        // Link: 100 opportunities/s. Sender: 20 packets/s. No queueing.
        let trace = Trace::from_millis((0..3_000).map(|i| i * 10));
        let blaster = Blaster::new(Duration::from_millis(50));
        let mut sim = Simulation::new(
            blaster,
            SinkEndpoint::new(),
            PathConfig::standard(trace.clone()),
            PathConfig::standard(Trace::from_millis((0..3_000).map(|i| i * 10))),
        );
        sim.run_until(t(30_000));
        let m = sim.ab_metrics();
        // ~20 pps × 1500 B = 240 kbps.
        let tput = m.throughput_kbps(t(1_000), t(29_000));
        assert!((tput - 240.0).abs() < 25.0, "throughput {tput}");
        // Every packet: ≤ 20 ms prop + ≤ 10 ms wait.
        for (_, delay) in m.delay_series() {
            assert!(delay <= Duration::from_millis(31), "delay {delay}");
        }
    }

    #[test]
    fn overloaded_link_builds_standing_queue() {
        // Link: 50 opportunities/s. Sender: 100 packets/s. Queue grows
        // without bound and the p95 delay explodes — the Figure 1 Skype
        // pathology in miniature.
        let trace = Trace::from_millis((0..1_500).map(|i| i * 20));
        let mut sim = Simulation::new(
            Blaster::new(Duration::from_millis(10)),
            SinkEndpoint::new(),
            PathConfig::standard(trace),
            PathConfig::standard(Trace::from_millis((0..1_500).map(|i| i * 20))),
        );
        sim.run_until(t(30_000));
        let stats = direction_stats(sim.ab_path(), t(5_000), t(30_000));
        assert!(stats.p95_delay.unwrap() > Duration::from_secs(5));
        assert!(stats.utilization > 0.95, "bottleneck saturated");
        // The sink never talks back.
        assert_eq!(sim.ba_metrics().records().len(), 0);
    }

    #[test]
    fn saturating_sender_matches_link_capacity() {
        // Sender at exactly link rate: throughput ≈ capacity, utilization
        // ≈ 1.
        let trace = Trace::from_millis((0..3_000).map(|i| i * 10));
        let mut sim = Simulation::new(
            Blaster::new(Duration::from_millis(10)),
            SinkEndpoint::new(),
            PathConfig::standard(trace),
            PathConfig::standard(Trace::from_millis([0])),
        );
        sim.run_until(t(30_000));
        let stats = direction_stats(sim.ab_path(), t(1_000), t(29_000));
        assert!(
            stats.utilization > 0.98,
            "utilization {}",
            stats.utilization
        );
        assert!((stats.throughput_kbps - 1_200.0).abs() < 60.0);
    }

    #[test]
    fn omniscient_baseline_bounds_measured_delay() {
        let trace = Trace::from_millis((0..3_000).map(|i| i * 10));
        let mut sim = Simulation::new(
            Blaster::new(Duration::from_millis(100)),
            SinkEndpoint::new(),
            PathConfig::standard(trace),
            PathConfig::standard(Trace::from_millis([0])),
        );
        sim.run_until(t(30_000));
        let stats = direction_stats(sim.ab_path(), t(1_000), t(29_000));
        let (p95, omni) = (stats.p95_delay.unwrap(), stats.omniscient_p95.unwrap());
        assert!(p95 >= omni, "protocol can't beat omniscient");
        assert_eq!(stats.self_inflicted.unwrap(), p95.saturating_sub(omni));
    }

    #[test]
    fn run_until_is_idempotent_at_end() {
        let trace = Trace::from_millis((0..100).map(|i| i * 10));
        let mut sim = Simulation::new(
            Blaster::new(Duration::from_millis(10)),
            SinkEndpoint::new(),
            PathConfig::standard(trace),
            PathConfig::standard(Trace::from_millis([0])),
        );
        sim.run_until(t(2_000));
        let n = sim.ab_metrics().records().len();
        sim.run_until(t(2_000));
        assert_eq!(sim.ab_metrics().records().len(), n);
        assert_eq!(sim.now(), t(2_000));
    }
}
