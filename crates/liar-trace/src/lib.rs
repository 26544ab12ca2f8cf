//! `liar-trace`: structured tracing for the LIAR pipeline.
//!
//! The pipeline (saturate → extract → lift → serve) is instrumented with
//! hierarchical **spans** recorded against a shared [`Recorder`]. The
//! design constraints, in order:
//!
//! 1. **Zero cost when disabled.** Every recording call first checks one
//!    relaxed atomic load and branches away; no allocation, no clock
//!    read, no lock. Call sites that would pay to *format* a span name
//!    gate on [`TraceSink::on`] first.
//! 2. **No perturbation of results.** The recorder only ever observes —
//!    it never feeds back into search, scheduling, or extraction. The
//!    repo's bit-identical determinism walls run with tracing on and off
//!    to enforce this.
//! 3. **Deterministic flush order.** Events are buffered in per-thread
//!    [`TraceSink`]s (lock-free appends) and merged at flush in *lane
//!    registration order*, preserving per-lane append order — never by
//!    wall-clock sort, which would be run-dependent.
//!
//! On top of the span stream sit three consumers:
//!
//! * [`chrome::trace_json`] — Chrome trace-event JSON (`chrome://tracing`
//!   / Perfetto) via [`Recorder::chrome_trace_json`];
//! * [`prom::PromWriter`] — Prometheus text exposition for counters,
//!   gauges and [`Histogram`]s;
//! * [`self_times`] — per-name self-time aggregation (span duration
//!   minus child spans) backing `liar profile` and the `--verbose`
//!   per-rule table.
//!
//! See `docs/OBSERVABILITY.md` for the span taxonomy and metric names.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod chrome;
pub mod flight;
pub mod hist;
pub mod prom;

pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use hist::{Histogram, HistogramSnapshot};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a recorded [`Event`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A duration span (`ph:"X"` in Chrome trace terms).
    Span,
    /// A point-in-time marker (`ph:"i"`).
    Instant,
    /// A sampled counter value (`ph:"C"`); the value lives in `args`.
    Counter,
}

/// One recorded event. Timestamps are microseconds since the recorder's
/// epoch (a [`Instant`] captured at construction), so they are monotonic
/// and process-local.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Span/marker/counter name (e.g. `"search/idiom-gemv"`).
    pub name: String,
    /// Lane index (maps to a Chrome `tid`); see [`Recorder::lane_names`].
    pub lane: usize,
    /// Microseconds from the recorder epoch to the event start.
    pub start_us: u64,
    /// Span duration in microseconds (0 for instants and counters).
    pub dur_us: u64,
    /// Duration minus time spent in child spans on the same lane.
    pub self_us: u64,
    /// Span, instant, or counter.
    pub kind: EventKind,
    /// Numeric annotations (match counts, node counts, …).
    pub args: Vec<(&'static str, f64)>,
}

struct Lane {
    name: String,
    events: Vec<Event>,
}

/// Thread-safe event collector shared by every instrumented layer.
///
/// The recorder itself is only touched at *flush* (and for the enabled
/// check); the hot path appends to a thread-local [`TraceSink`] buffer.
pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    lanes: Mutex<Vec<Lane>>,
}

impl Recorder {
    /// A new, enabled recorder.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            lanes: Mutex::new(Vec::new()),
        })
    }

    /// A new recorder that starts disabled (recording calls reduce to an
    /// atomic load and a branch until [`Recorder::set_enabled`] flips it).
    pub fn off() -> Arc<Recorder> {
        let r = Recorder::new();
        r.enabled.store(false, Ordering::Relaxed);
        r
    }

    /// Toggle recording. Spans already open keep their begin timestamps;
    /// disabling only stops *new* events.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording calls currently record (one relaxed load).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Register a named lane (a Chrome `tid`) and return its index.
    /// Callers assign lanes deterministically (by role, not OS thread
    /// id), which is what makes the flush order reproducible.
    pub fn lane(&self, name: &str) -> usize {
        let mut lanes = self.lanes.lock().unwrap();
        lanes.push(Lane {
            name: name.to_string(),
            events: Vec::new(),
        });
        lanes.len() - 1
    }

    fn absorb(&self, lane: usize, events: Vec<Event>) {
        let mut lanes = self.lanes.lock().unwrap();
        if let Some(l) = lanes.get_mut(lane) {
            l.events.extend(events);
        }
    }

    /// All flushed events, concatenated in lane-registration order with
    /// per-lane append order preserved (the deterministic merge).
    pub fn events(&self) -> Vec<Event> {
        let lanes = self.lanes.lock().unwrap();
        let mut out = Vec::new();
        for (i, l) in lanes.iter().enumerate() {
            out.extend(l.events.iter().cloned().map(|mut e| {
                e.lane = i;
                e
            }));
        }
        out
    }

    /// Lane names in registration order (indexable by [`Event::lane`]).
    pub fn lane_names(&self) -> Vec<String> {
        self.lanes.lock().unwrap().iter().map(|l| l.name.clone()).collect()
    }

    /// Drop all flushed events and lanes (the enabled flag is untouched).
    pub fn clear(&self) {
        self.lanes.lock().unwrap().clear();
    }

    /// Render every flushed event as Chrome trace-event JSON; see
    /// [`chrome::trace_json`].
    pub fn chrome_trace_json(&self) -> String {
        let names = self.lane_names();
        let names: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        chrome::trace_json(&self.events(), &names)
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("lanes", &self.lanes.lock().unwrap().len())
            .finish()
    }
}

/// Token returned by [`TraceSink::begin`]; pass it back to
/// [`TraceSink::end`]. A token from a disabled sink is inert.
#[derive(Clone, Copy, Debug)]
pub struct SpanToken(usize);

impl SpanToken {
    /// An inert token: [`TraceSink::end`] on it does nothing. Useful when
    /// a call site conditionally skips opening a span.
    pub const NOOP: SpanToken = SpanToken(usize::MAX);
}

struct Open {
    idx: usize,
    child_us: u64,
}

/// A per-thread (or per-role) event buffer. All hot-path recording goes
/// through a sink: appends are plain `Vec` pushes, and the shared
/// [`Recorder`] is only locked at [`TraceSink::flush`] (or drop).
///
/// A detached sink ([`TraceSink::off`]) makes every call a no-op branch,
/// so instrumented code holds a sink unconditionally.
pub struct TraceSink {
    shared: Option<Arc<Recorder>>,
    lane: usize,
    buf: Vec<Event>,
    open: Vec<Open>,
}

impl TraceSink {
    /// A detached sink: every recording call is a branch and nothing else.
    pub fn off() -> TraceSink {
        TraceSink {
            shared: None,
            lane: 0,
            buf: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A sink feeding `recorder` on a fresh lane named `lane_name`.
    pub fn attached(recorder: &Arc<Recorder>, lane_name: &str) -> TraceSink {
        TraceSink {
            lane: recorder.lane(lane_name),
            shared: Some(Arc::clone(recorder)),
            buf: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether recording is live right now: attached *and* the recorder
    /// is enabled (one atomic load). Use this to gate span-name
    /// formatting that would otherwise pay when disabled.
    #[inline]
    pub fn on(&self) -> bool {
        match &self.shared {
            Some(r) => r.enabled.load(Ordering::Relaxed),
            None => false,
        }
    }

    /// The recorder this sink feeds, if attached.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.shared.as_ref()
    }

    #[inline]
    fn now_us(&self) -> u64 {
        match &self.shared {
            Some(r) => r.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Open a span. Returns a token to pass to [`TraceSink::end`];
    /// spans must close in LIFO order (enforced: an out-of-order end
    /// closes the inner spans first).
    pub fn begin(&mut self, name: &str) -> SpanToken {
        if !self.on() {
            return SpanToken::NOOP;
        }
        self.begin_owned(name.to_string())
    }

    /// [`TraceSink::begin`] for formatted names: the formatting only
    /// happens when recording is live, so hot loops can write
    /// `sink.begin_args(format_args!("search/{}", rule))` without paying
    /// for the string when tracing is off.
    pub fn begin_args(&mut self, name: std::fmt::Arguments<'_>) -> SpanToken {
        if !self.on() {
            return SpanToken::NOOP;
        }
        self.begin_owned(name.to_string())
    }

    /// [`TraceSink::instant`] for formatted names; formats only when live.
    pub fn instant_args(&mut self, name: std::fmt::Arguments<'_>, args: &[(&'static str, f64)]) {
        if !self.on() {
            return;
        }
        let name = name.to_string();
        self.instant(&name, args);
    }

    fn begin_owned(&mut self, name: String) -> SpanToken {
        let idx = self.buf.len();
        self.buf.push(Event {
            name,
            lane: self.lane,
            start_us: self.now_us(),
            dur_us: 0,
            self_us: 0,
            kind: EventKind::Span,
            args: Vec::new(),
        });
        self.open.push(Open { idx, child_us: 0 });
        SpanToken(idx)
    }

    /// Close a span opened with [`TraceSink::begin`].
    pub fn end(&mut self, token: SpanToken) {
        self.end_with(token, &[]);
    }

    /// Close a span, attaching numeric annotations gathered during it.
    pub fn end_with(&mut self, token: SpanToken, args: &[(&'static str, f64)]) {
        if token.0 == usize::MAX {
            return;
        }
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            let dur = now.saturating_sub(self.buf[top.idx].start_us);
            self.buf[top.idx].dur_us = dur;
            self.buf[top.idx].self_us = dur.saturating_sub(top.child_us);
            if let Some(parent) = self.open.last_mut() {
                parent.child_us += dur;
            }
            if top.idx == token.0 {
                self.buf[top.idx].args.extend_from_slice(args);
                return;
            }
        }
    }

    /// Record a point-in-time marker (e.g. a scheduler ban).
    pub fn instant(&mut self, name: &str, args: &[(&'static str, f64)]) {
        if !self.on() {
            return;
        }
        self.buf.push(Event {
            name: name.to_string(),
            lane: self.lane,
            start_us: self.now_us(),
            dur_us: 0,
            self_us: 0,
            kind: EventKind::Instant,
            args: args.to_vec(),
        });
    }

    /// Sample a counter (e.g. e-graph node count after a rebuild).
    pub fn counter(&mut self, name: &str, value: f64) {
        if !self.on() {
            return;
        }
        self.buf.push(Event {
            name: name.to_string(),
            lane: self.lane,
            start_us: self.now_us(),
            dur_us: 0,
            self_us: 0,
            kind: EventKind::Counter,
            args: vec![("value", value)],
        });
    }

    /// Push this sink's buffered events into the shared recorder. Called
    /// automatically on drop; call it explicitly at phase boundaries to
    /// make events visible to concurrent scrapers.
    ///
    /// A flush while spans are still open is a no-op: open spans hold
    /// indices into the buffer, so absorbing it early would dangle them.
    /// (On an error path that unwinds past open spans, their buffered
    /// events are dropped rather than emitted half-formed.)
    pub fn flush(&mut self) {
        if !self.open.is_empty() {
            return;
        }
        if let Some(rec) = &self.shared {
            if !self.buf.is_empty() {
                rec.absorb(self.lane, std::mem::take(&mut self.buf));
            }
        }
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Per-name aggregate of span time, the data model behind `liar profile`.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Total wall time across those spans, microseconds.
    pub total_us: u64,
    /// Total time *not* attributed to child spans, microseconds.
    pub self_us: u64,
}

/// Aggregate spans by name, sorted by descending self-time (ties broken
/// by name, so the table is stable run to run up to timing noise).
pub fn self_times(events: &[Event]) -> Vec<SelfTime> {
    use std::collections::BTreeMap;
    let mut by_name: BTreeMap<&str, SelfTime> = BTreeMap::new();
    for e in events {
        if e.kind != EventKind::Span {
            continue;
        }
        let entry = by_name.entry(&e.name).or_insert_with(|| SelfTime {
            name: e.name.clone(),
            count: 0,
            total_us: 0,
            self_us: 0,
        });
        entry.count += 1;
        entry.total_us += e.dur_us;
        entry.self_us += e.self_us;
    }
    let mut out: Vec<SelfTime> = by_name.into_values().collect();
    out.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.name.cmp(&b.name)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let rec = Recorder::off();
        let mut sink = TraceSink::attached(&rec, "t");
        let t = sink.begin("outer");
        sink.counter("n", 1.0);
        sink.instant("mark", &[]);
        sink.end(t);
        sink.flush();
        assert!(rec.events().is_empty());
        assert!(!sink.on());
    }

    #[test]
    fn detached_sink_is_inert() {
        let mut sink = TraceSink::off();
        let t = sink.begin("x");
        sink.end(t);
        sink.flush();
        assert!(!sink.on());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let rec = Recorder::new();
        let mut sink = TraceSink::attached(&rec, "main");
        let outer = sink.begin("outer");
        let inner = sink.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.end(inner);
        let inner2 = sink.begin("inner");
        sink.end(inner2);
        sink.end_with(outer, &[("k", 3.0)]);
        sink.flush();

        let events = rec.events();
        assert_eq!(events.len(), 3);
        let outer = &events[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.args, vec![("k", 3.0)]);
        let child_total: u64 = events[1..].iter().map(|e| e.dur_us).sum();
        assert_eq!(outer.self_us, outer.dur_us - child_total);
        // Children start within and end within the parent.
        for c in &events[1..] {
            assert!(c.start_us >= outer.start_us);
            assert!(c.start_us + c.dur_us <= outer.start_us + outer.dur_us);
        }

        let agg = self_times(&events);
        assert_eq!(agg.len(), 2);
        let inner_agg = agg.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner_agg.count, 2);
        assert_eq!(inner_agg.total_us, inner_agg.self_us, "leaves keep all time");
    }

    #[test]
    fn out_of_order_end_closes_inner_spans_first() {
        let rec = Recorder::new();
        let mut sink = TraceSink::attached(&rec, "main");
        let outer = sink.begin("outer");
        let _leaked = sink.begin("leaked");
        sink.end(outer); // closes "leaked" too
        sink.flush();
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].dur_us >= events[1].dur_us, "outer spans its child");
        // The next span attaches at top level, not under a stale open.
        let mut sink2 = TraceSink::attached(&rec, "second");
        let t = sink2.begin("fresh");
        sink2.end(t);
        sink2.flush();
        assert_eq!(rec.events().len(), 3);
    }

    #[test]
    fn flush_merges_in_lane_registration_order() {
        let rec = Recorder::new();
        let mut a = TraceSink::attached(&rec, "lane-a");
        let mut b = TraceSink::attached(&rec, "lane-b");
        // b records and flushes *first*; merge order must still be a, b.
        let tb = b.begin("from-b");
        b.end(tb);
        b.flush();
        let ta = a.begin("from-a");
        a.end(ta);
        a.flush();
        let events = rec.events();
        assert_eq!(
            events.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            ["from-a", "from-b"],
            "lane order wins over wall-clock order"
        );
        assert_eq!(events[0].lane, 0);
        assert_eq!(events[1].lane, 1);
        assert_eq!(rec.lane_names(), ["lane-a", "lane-b"]);
    }

    #[test]
    fn toggling_enabled_gates_new_events_only() {
        let rec = Recorder::new();
        let mut sink = TraceSink::attached(&rec, "t");
        let t = sink.begin("kept");
        sink.end(t);
        rec.set_enabled(false);
        let t = sink.begin("dropped");
        sink.end(t);
        rec.set_enabled(true);
        let t = sink.begin("kept-again");
        sink.end(t);
        sink.flush();
        let names: Vec<_> = rec.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["kept", "kept-again"]);
    }

    #[test]
    fn sinks_flush_on_drop() {
        let rec = Recorder::new();
        {
            let mut sink = TraceSink::attached(&rec, "t");
            let t = sink.begin("x");
            sink.end(t);
        } // drop flushes
        assert_eq!(rec.events().len(), 1);
    }
}
