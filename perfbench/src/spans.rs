//! Spans recorded by the traced run, and the timing endpoint wrapper.
//!
//! Spans are recorded only from this benchmark's own code, around its
//! calls into each layer. Protocol time comes from [`Timed`], an
//! [`Endpoint`] wrapper around the boxed endpoints and the server: it
//! sums the time of every call into a per-thread accumulator, and the
//! caller turns the sum into one *aggregate* span per `run_until` call
//! (its `busy_ns` is the summed call time, `calls` the number of calls).
//! A span's self time is its busy time minus its children's busy time.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

use sprout_sim::{Endpoint, Packet};
use sprout_trace::Timestamp;

/// One timed interval. `id` is shared by every span of one cell (the
/// scenario id) or one serve tick (the tick index).
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique span number.
    pub sid: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Cell or tick id.
    pub id: u64,
    /// Layer-qualified name, e.g. `sim.run_until`.
    pub name: &'static str,
    /// Start and end, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Time spent in the layer: `end - start`, or the summed call time of
    /// an aggregate span.
    pub busy_ns: u64,
    /// Calls the span covers (1 for a plain span).
    pub calls: u64,
}

/// A per-thread, in-memory span log.
pub struct SpanLog {
    epoch: Instant,
    next: u64,
    /// Recorded spans, in closing order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose span numbers start at `worker << 40`, so logs of
    /// different threads merge without clashes.
    pub fn new(epoch: Instant, worker: u64) -> Self {
        SpanLog {
            epoch,
            next: worker << 40,
            spans: Vec::new(),
        }
    }

    /// Reserve a span number, for a span whose children close first.
    pub fn open(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a plain span under a reserved number.
    pub fn close(
        &mut self,
        sid: u64,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            sid,
            parent,
            id,
            name,
            start_ns,
            end_ns,
            busy_ns: end_ns - start_ns,
            calls: 1,
        });
    }

    /// Time `f` as a plain span.
    pub fn time<R>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let sid = self.open();
        let start = Instant::now();
        let out = f();
        self.close(sid, id, name, parent, start, Instant::now());
        out
    }

    /// Record an aggregate span: calls into one layer made between
    /// `start` and `end`, summing to `acc.ns`. Returns its number, if it
    /// was recorded (a layer with no calls records nothing).
    pub fn aggregate(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
        acc: LayerAcc,
    ) -> Option<u64> {
        if acc.calls == 0 {
            return None;
        }
        let sid = self.open();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            sid,
            parent: Some(parent),
            id,
            name,
            start_ns,
            end_ns,
            busy_ns: acc.ns.saturating_sub(acc.calls * timer_floor_ns()),
            calls: acc.calls,
        });
        Some(sid)
    }
}

/// What timing an empty call reads, ns: the part of the clock's own cost
/// that falls inside a timed interval. Aggregate spans subtract it per
/// call, leaving it to the enclosing span (and to the tracing overhead).
pub fn timer_floor_ns() -> u64 {
    static FLOOR: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *FLOOR.get_or_init(|| {
        let samples: Vec<f64> = (0..101)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..1000 {
                    std::hint::black_box(Instant::now().elapsed());
                }
                t.elapsed().as_nanos() as f64 / 1000.0
            })
            .collect();
        // One loop iteration reads the clock twice; a timed call's
        // interval holds about one read.
        (crate::stats::median(&samples) / 2.0) as u64
    })
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"sid\":{},\"parent\":{parent},\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{}}}",
            s.sid, s.id, s.name, s.start_ns, s.end_ns, s.busy_ns, s.calls
        )?;
    }
    out.flush()
}

/// Per-name totals of span self time.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed calls.
    pub calls: u64,
    /// Number of spans.
    pub spans: u64,
}

/// Root span names whose self time is glue no layer claims: the
/// attribution check runs on these.
pub const ROOTS: [&str; 2] = ["bench.cell", "serve.tick"];

/// A root span is attributed when its unclaimed self time is at most
/// this share of its wall time …
pub const UNATTRIBUTED_SHARE: f64 = 0.05;
/// … or at most this many nanoseconds, whichever is larger (tiny spans
/// are dominated by the cost of timing them).
pub const UNATTRIBUTED_FLOOR_NS: u64 = 100_000;
/// The check passes when at most this share of roots exceed their
/// tolerance: a thread preempted between two layer calls leaves an
/// unclaimed gap no layer caused.
pub const VIOLATING_ROOTS_SHARE: f64 = 0.01;

/// Self time per span name, plus the attribution check over the roots.
pub struct Attribution {
    /// Self time per span name.
    pub by_name: BTreeMap<&'static str, SelfTime>,
    /// Summed unclaimed self time of every root, ns.
    pub unattributed_ns: u64,
    /// Roots checked.
    pub roots: u64,
    /// Roots whose unclaimed time exceeds the tolerance.
    pub violations: u64,
}

/// Compute self times: each span's busy time minus its children's.
pub fn attribute(spans: &[Span]) -> Attribution {
    let mut child_busy: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_busy.entry(p).or_default() += s.busy_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    let (mut unattributed_ns, mut roots, mut violations) = (0, 0, 0);
    for s in spans {
        let self_ns = s
            .busy_ns
            .saturating_sub(child_busy.get(&s.sid).copied().unwrap_or(0));
        let e = by_name.entry(s.name).or_default();
        e.self_ns += self_ns;
        e.calls += s.calls;
        e.spans += 1;
        if ROOTS.contains(&s.name) {
            roots += 1;
            unattributed_ns += self_ns;
            let tolerance =
                ((s.busy_ns as f64 * UNATTRIBUTED_SHARE) as u64).max(UNATTRIBUTED_FLOOR_NS);
            if self_ns > tolerance {
                violations += 1;
            }
        }
    }
    Attribution {
        by_name,
        unattributed_ns,
        roots,
        violations,
    }
}

/// The protocol layer an endpoint belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `sprout-core` endpoints.
    Core = 0,
    /// `sprout-baselines` endpoints (TCP, apps, omniscient).
    Baselines = 1,
    /// `sprout-tunnel`: the multi-session server and the tunnel host.
    Tunnel = 2,
}

/// Summed calls into one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerAcc {
    /// Time inside the calls, ns.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
    /// Of those, `poll_into` calls.
    pub polls: u64,
}

thread_local! {
    static ACC: [Cell<LayerAcc>; 3] = Default::default();
}

/// Take (and reset) this thread's per-layer accumulators.
pub fn take_acc() -> [LayerAcc; 3] {
    ACC.with(|a| [a[0].take(), a[1].take(), a[2].take()])
}

fn charge(layer: Layer, start: Instant, poll: bool) {
    let ns = start.elapsed().as_nanos() as u64;
    ACC.with(|a| {
        let c = &a[layer as usize];
        let mut v = c.get();
        v.ns += ns;
        v.calls += 1;
        v.polls += u64::from(poll);
        c.set(v);
    });
}

/// An endpoint whose every call is timed into its layer's accumulator.
pub struct Timed<E> {
    inner: E,
    layer: Layer,
}

impl<E> Timed<E> {
    /// Wrap `inner`, charging its calls to `layer`.
    pub fn new(inner: E, layer: Layer) -> Self {
        Timed { inner, layer }
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: Endpoint> Endpoint for Timed<E> {
    fn on_packet(&mut self, packet: Packet, now: Timestamp) {
        let t = Instant::now();
        self.inner.on_packet(packet, now);
        charge(self.layer, t, false);
    }

    fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        let t = Instant::now();
        self.inner.poll_into(now, out);
        charge(self.layer, t, true);
    }

    fn next_wakeup(&self) -> Option<Timestamp> {
        let t = Instant::now();
        let w = self.inner.next_wakeup();
        charge(self.layer, t, false);
        w
    }
}
