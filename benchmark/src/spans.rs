//! In-memory spans recorded by the benchmark around its calls into each
//! layer (choosing-metrics guide §4). Spans inside the program are a later
//! change; these are taken from outside, at public function boundaries.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. `parent` is the index of the span that caused it;
/// all spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans for one traced run. Calls nest: a span opened while
/// another is open becomes its child. One thread drives a traced run, so
/// a single open-span stack is enough.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    enabled: bool,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { origin: Instant::now(), state: Mutex::new(State { enabled, ..State::default() }) }
    }

    /// Turns recording off or on; spans already open still close.
    pub fn set_enabled(&self, enabled: bool) {
        self.state.lock().expect("tracer lock").enabled = enabled;
    }

    /// Starts the next operation; its root span is opened by the caller.
    pub fn next_op(&self) {
        self.state.lock().expect("tracer lock").op += 1;
    }

    /// Runs `f` inside a span named `name` (a plain call when disabled).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(index) = self.open(name) else { return f() };
        let out = f();
        self.close(index);
        out
    }

    fn open(&self, name: &'static str) -> Option<usize> {
        let now = self.origin.elapsed().as_nanos() as u64;
        let mut state = self.state.lock().expect("tracer lock");
        if !state.enabled {
            return None;
        }
        let index = state.spans.len();
        let span = Span {
            op: state.op,
            name,
            parent: state.open.last().copied(),
            start_ns: now,
            end_ns: now,
        };
        state.spans.push(span);
        state.open.push(index);
        Some(index)
    }

    fn close(&self, index: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let mut state = self.state.lock().expect("tracer lock");
        state.spans[index].end_ns = now;
        state.open.retain(|&open| open != index);
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.state.lock().expect("tracer lock").spans.clone()
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (children may not overlap each other here — one
/// thread records them — so the covered part is the sum of their lengths).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        *totals.entry(span.name).or_insert(0) += own;
    }
    totals
}

/// Durations (ns) of every span called `name`.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
}

/// The trace file: the spans, plus the per-name self-time totals so a
/// reader need not redo the subtraction.
pub fn to_json(spans: &[Span]) -> Json {
    let rows = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj([
                ("id", Json::from(id as u64)),
                ("op", Json::from(s.op)),
                ("name", Json::from(s.name)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::from(p as u64))),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
            ])
        })
        .collect();
    let totals = self_time_by_name(spans)
        .into_iter()
        .map(|(name, ns)| (name.to_string(), Json::from(ns)))
        .collect();
    Json::Obj(vec![("self_time_ns".into(), Json::Obj(totals)), ("spans".into(), Json::Arr(rows))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { op: 1, name, parent, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100 { round_trip 0..60, replay 60..95 { parse 60..65, run 65..90 } }
        let spans = vec![
            span("op", None, 0, 100),
            span("server.round_trip", Some(0), 0, 60),
            span("replay", Some(0), 60, 95),
            span("core.parse", Some(2), 60, 65),
            span("engine.run_requests", Some(2), 65, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![5, 60, 5, 5, 25]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["op"], 5);
        assert_eq!(by_name["engine.run_requests"], 25);
        // Self times partition the root interval.
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_by_call_structure_and_can_be_disabled() {
        let tracer = Tracer::new(true);
        tracer.next_op();
        tracer.span("op", || {
            tracer.span("a", || ());
            tracer.span("b", || tracer.span("c", || ()));
        });
        let spans = tracer.spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            shape,
            vec![("op", None, 1), ("a", Some(0), 1), ("b", Some(0), 1), ("c", Some(2), 1)]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));

        let off = Tracer::new(false);
        assert_eq!(off.span("op", || 7), 7);
        assert!(off.spans().is_empty());
    }
}
