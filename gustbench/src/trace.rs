//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and end (µs since the recorder was created),
//! its parent span, and a request id shared by every span of one served
//! request. Spans stay in memory and are written out once, at the end.
//! With tracing off every call is a no-op apart from the closure it runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub type SpanId = u64;

/// The root of every span tree.
pub const ROOT: SpanId = 0;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub request: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A counter snapshot taken at a span boundary.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub at_us: f64,
    pub label: String,
    pub counters: Vec<(&'static str, u64)>,
}

pub struct Tracer {
    pub enabled: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    snapshots: Mutex<Vec<Snapshot>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            snapshots: Mutex::new(Vec::new()),
        }
    }

    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Reserves a span id, so children can name a parent that is recorded
    /// when it ends.
    pub fn reserve(&self) -> SpanId {
        if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            ROOT
        }
    }

    /// Records a finished span with a reserved id.
    pub fn record_as(
        &self,
        id: SpanId,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            request,
            name,
            start_us: self.us(start),
            end_us: self.us(end),
        };
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.reserve();
        self.record_as(id, name, parent, request, start, end);
        id
    }

    /// Runs `f` inside a span; returns its result and wall time.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, 0, start, end);
        (out, end - start)
    }

    pub fn snapshot(&self, label: impl Into<String>, counters: Vec<(&'static str, u64)>) {
        if !self.enabled {
            return;
        }
        let snap = Snapshot {
            at_us: self.us(Instant::now()),
            label: label.into(),
            counters,
        };
        self.snapshots
            .lock()
            .expect("snapshot buffer lock")
            .push(snap);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.snapshots.lock().expect("snapshot buffer lock").clone()
    }
}

/// Per-name totals: (count, total µs, self µs). A span's self time is its
/// duration minus the part of it its children cover (children of one
/// parent are taken as non-overlapping, which holds for every span this
/// benchmark records: each parent's children run one after another).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_cover: BTreeMap<SpanId, f64> = BTreeMap::new();
    let by_id: BTreeMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            let lo = s.start_us.max(p.start_us);
            let hi = s.end_us.min(p.end_us);
            *child_cover.entry(p.id).or_default() += (hi - lo).max(0.0);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let cover = child_cover.get(&s.id).copied().unwrap_or(0.0);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_us();
        e.2 += (s.dur_us() - cover).max(0.0);
    }
    out
}

/// Durations (µs) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_us)
        .collect()
}
