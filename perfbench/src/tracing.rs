//! The traced run's instruments, built only from the simulator's public
//! API: a [`Recorder`] that attributes wall time to event kinds and to the
//! recorder it wraps, and a standalone calendar-queue replay.

use std::time::Instant;

use socialtube_obs::{Counter, Dim, HistKind, Recorder, RecorderConfig, RunRecorder, Track};
use socialtube_sim::{EventQueue, SimDuration, SimTime};

/// The driver's event kinds, in the order the per-layer metrics name them.
pub const EV_KINDS: [(&str, Counter); 7] = [
    ("login", Counter::EvLogin),
    ("logout", Counter::EvLogout),
    ("next_video", Counter::EvNextVideo),
    ("watch_end", Counter::EvWatchEnd),
    ("peer_msg", Counter::EvPeerMsg),
    ("server_msg", Counter::EvServerMsg),
    ("peer_timer", Counter::EvPeerTimer),
];

/// Index of `peer_msg` in [`EV_KINDS`].
pub const PEER_MSG: usize = 4;
/// Index of `server_msg` in [`EV_KINDS`].
pub const SERVER_MSG: usize = 5;

fn ev_index(counter: Counter) -> Option<usize> {
    EV_KINDS.iter().position(|(_, c)| *c == counter)
}

/// Per-event-kind counts and wall time, summed over traced runs.
#[derive(Clone, Debug, Default)]
pub struct EvTotals {
    /// Events dispatched per kind.
    pub count: [u64; 7],
    /// Wall nanoseconds charged per kind.
    pub ns: [u64; 7],
}

impl EvTotals {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &EvTotals) {
        for k in 0..EV_KINDS.len() {
            self.count[k] += other.count[k];
            self.ns[k] += other.ns[k];
        }
    }

    /// Events over all kinds.
    pub fn events(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Wall nanoseconds over all kinds: the attributed part of the loop.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Wraps a [`RunRecorder`] and times the run from the outside.
///
/// The driver bumps one `Counter::Ev*` per dispatched event, right after
/// popping it. Each such callback closes the previous event's interval and
/// charges it to the previous event's kind, so a kind's time covers its
/// handling plus the next queue pop. Every call forwarded to the wrapped
/// recorder is timed separately as recorder (obs) time, which also lies
/// inside the event intervals.
#[derive(Debug)]
pub struct TracingRecorder {
    inner: RunRecorder,
    last: Option<(usize, Instant)>,
    /// Event-kind attribution. The last event's interval never closes: it
    /// and the time before the first event are the run's unattributed
    /// time.
    pub ev: EvTotals,
    /// Wall nanoseconds spent inside the wrapped recorder.
    pub obs_ns: u64,
}

impl TracingRecorder {
    /// A tracing recorder wrapping a metrics-only [`RunRecorder`], the
    /// recorder the `campaign` binary attaches.
    pub fn new() -> Self {
        Self {
            inner: RunRecorder::new(RecorderConfig::metrics_only()),
            last: None,
            ev: EvTotals::default(),
            obs_ns: 0,
        }
    }

    /// The wrapped recorder's value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.inner.counting().counter(counter)
    }

    #[inline]
    fn timed<F: FnOnce(&mut RunRecorder)>(&mut self, f: F) {
        let t0 = Instant::now();
        f(&mut self.inner);
        self.obs_ns += t0.elapsed().as_nanos() as u64;
    }
}

impl Recorder for TracingRecorder {
    fn add(&mut self, counter: Counter, n: u64) {
        let t0 = Instant::now();
        if let Some(k) = ev_index(counter) {
            if let Some((prev, since)) = self.last {
                self.ev.ns[prev] += t0.duration_since(since).as_nanos() as u64;
            }
            self.ev.count[k] += n;
            self.last = Some((k, t0));
        }
        self.inner.add(counter, n);
        self.obs_ns += t0.elapsed().as_nanos() as u64;
    }

    fn observe(&mut self, kind: HistKind, value: u64) {
        self.timed(|r| r.observe(kind, value));
    }

    fn add_dim(&mut self, dim: Dim, counter: Counter, n: u64) {
        self.timed(|r| r.add_dim(dim, counter, n));
    }

    fn observe_dim(&mut self, dim: Dim, kind: HistKind, value: u64) {
        self.timed(|r| r.observe_dim(dim, kind, value));
    }

    fn span_begin(&mut self, track: Track, name: &'static str, ts_us: u64) {
        self.timed(|r| r.span_begin(track, name, ts_us));
    }

    fn span_end(&mut self, track: Track, ts_us: u64) {
        self.timed(|r| r.span_end(track, ts_us));
    }

    fn instant(&mut self, track: Track, name: &'static str, ts_us: u64) {
        self.timed(|r| r.instant(track, name, ts_us));
    }

    fn sample(&mut self, track: Track, name: &'static str, ts_us: u64, value: u64) {
        self.timed(|r| r.sample(track, name, ts_us, value));
    }
}

/// A 56-byte payload, the size of the driver's event type, so the replay
/// moves as much memory per entry as a real run.
type Payload = [u64; 7];

/// Replays the classic hold model on a standalone [`EventQueue`]: fill it
/// with `pending` events, then repeat `holds` times "pop the earliest,
/// push one new event after a delay". Delays mix message latencies
/// (20–200 ms, four in five) with timer and watch lengths (1 s–5 min).
/// Returns the wall nanoseconds per hold.
pub fn queue_replay(pending: usize, holds: u64, seed: u64) -> f64 {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        // splitmix64: a fixed, dependency-free stream.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut delay = move || {
        let r = next();
        let us = if r % 5 == 0 {
            1_000_000 + (r >> 8) % 299_000_000
        } else {
            20_000 + (r >> 8) % 180_000
        };
        SimDuration::from_micros(us)
    };
    let mut queue: EventQueue<Payload> = EventQueue::new();
    for i in 0..pending.max(1) {
        queue.push(SimTime::ZERO + delay(), [i as u64; 7]);
    }
    let started = Instant::now();
    let mut checksum = 0u64;
    for _ in 0..holds {
        let (now, ev) = queue.pop().expect("the hold model keeps the queue full");
        checksum = checksum.wrapping_add(ev[0]);
        queue.push(now + delay(), ev);
    }
    let ns = started.elapsed().as_nanos() as f64;
    std::hint::black_box(checksum);
    ns / holds as f64
}
