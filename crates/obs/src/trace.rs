//! Span tracing: RAII guards over a bounded process-global ring.
//!
//! A [`span`] guard measures a region of code; on drop it records the
//! span into a fixed-capacity ring buffer (overwriting the oldest entry
//! when full — tracing must never grow without bound in a long-lived
//! daemon). Each record carries the thread's current **trace ID**, an
//! opaque 64-bit value set with [`with_trace`], so one request can be
//! stitched together across the daemon's connection thread, the worker
//! pool, and the store's remote tier — the daemon generates a trace ID
//! per request (or adopts the caller's `X-Trace-Id` header) and the
//! remote-store client forwards it on the wire.
//!
//! The ring exports as chrome://tracing "trace event" JSON
//! ([`trace_json`]): load it in `chrome://tracing` or Perfetto to see
//! the request → stage → store-get tree on a timeline.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Spans kept before the ring starts overwriting the oldest.
const RING_CAPACITY: usize = 4096;

/// Fields kept per span; extra `.field()` calls are dropped.
const MAX_FIELDS: usize = 4;

/// An opaque 64-bit trace identifier, rendered as 16 lowercase hex
/// digits (the shape it travels in over the `X-Trace-Id` header).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Generates a fresh, practically-unique trace ID by mixing the
    /// wall clock, the process ID and a process-local counter through
    /// a 64-bit finalizer. No RNG dependency needed; collisions across
    /// a fleet would require the same nanosecond, pid and sequence.
    #[must_use]
    pub fn generate() -> TraceId {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut x = nanos ^ (u64::from(std::process::id()) << 32) ^ seq.rotate_left(17);
        // splitmix64 finalizer: spreads the low-entropy inputs over
        // all 64 bits so short prefixes still differ.
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        TraceId((x ^ (x >> 31)) | 1) // never 0: 0 means "no trace"
    }

    /// Parses the 16-hex-digit wire form. `None` on anything else.
    #[must_use]
    pub fn parse(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16)
            .ok()
            .filter(|&v| v != 0)
            .map(TraceId)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One finished span as stored in the ring.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    /// Unique (per process) span ID.
    pub id: u64,
    /// Parent span ID, 0 at the root.
    pub parent: u64,
    /// Trace this span belongs to, 0 if recorded outside any trace.
    pub trace: u64,
    /// Start, microseconds since process start.
    pub start_us: u64,
    pub dur_us: u64,
    /// Recording thread, for chrome-trace lane assignment.
    pub tid: u64,
    pub fields: Vec<(&'static str, String)>,
}

struct Ring {
    slots: Vec<Option<SpanRecord>>,
    /// Total spans ever recorded; `next % capacity` is the write slot.
    next: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    slots: Vec::new(),
    next: 0,
});

/// Monotonic base every span timestamp is measured from.
fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    static THREAD_ID: RefCell<u64> = RefCell::new(next_span_id());
}

/// The thread's current trace ID, if inside a [`with_trace`] scope.
#[must_use]
pub fn current_trace() -> Option<TraceId> {
    let v = CURRENT_TRACE.with(Cell::get);
    (v != 0).then_some(TraceId(v))
}

/// Runs `f` with `trace` as the thread's current trace ID; spans and
/// log lines inside pick it up automatically. Restores the previous
/// trace (if any) afterwards, so scopes nest.
pub fn with_trace<T>(trace: TraceId, f: impl FnOnce() -> T) -> T {
    let prev = CURRENT_TRACE.with(|c| c.replace(trace.0));
    let out = f();
    CURRENT_TRACE.with(|c| c.set(prev));
    out
}

/// Opens a span named `name`; the returned guard records it on drop.
/// The name must be `'static` (span names are a fixed vocabulary, not
/// data — put data in [`SpanGuard::field`]).
#[must_use = "a span measures until the guard drops; binding it to _ ends it immediately"]
pub fn span(name: &'static str) -> SpanGuard {
    let id = next_span_id();
    let parent = CURRENT_SPAN.with(|c| c.replace(id));
    SpanGuard {
        name,
        id,
        parent,
        started: Instant::now(),
        start_us: process_start().elapsed().as_micros() as u64,
        fields: Vec::new(),
    }
}

/// A live span; drop ends it and commits the record to the ring.
pub struct SpanGuard {
    name: &'static str,
    id: u64,
    parent: u64,
    started: Instant,
    start_us: u64,
    fields: Vec<(&'static str, String)>,
}

impl SpanGuard {
    /// Attaches a key=value field (up to [`MAX_FIELDS`]; extras are
    /// silently dropped to keep records bounded).
    pub fn field(&mut self, key: &'static str, value: impl fmt::Display) {
        if self.fields.len() < MAX_FIELDS {
            self.fields.push((key, value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        CURRENT_SPAN.with(|c| c.set(self.parent));
        let record = SpanRecord {
            name: self.name,
            id: self.id,
            parent: self.parent,
            trace: CURRENT_TRACE.with(Cell::get),
            start_us: self.start_us,
            dur_us: self.started.elapsed().as_micros() as u64,
            tid: THREAD_ID.with(|t| *t.borrow()),
            fields: std::mem::take(&mut self.fields),
        };
        let mut ring = RING.lock().expect("trace ring poisoned");
        if ring.slots.is_empty() {
            ring.slots = vec![None; RING_CAPACITY];
        }
        let slot = (ring.next % RING_CAPACITY as u64) as usize;
        ring.slots[slot] = Some(record);
        ring.next += 1;
    }
}

/// Snapshot of the ring, oldest first. Total recorded count comes
/// second so tests can tell "ring wrapped" from "ring empty".
#[must_use]
pub fn snapshot() -> (Vec<SpanRecord>, u64) {
    let ring = RING.lock().expect("trace ring poisoned");
    let total = ring.next;
    if ring.slots.is_empty() {
        return (Vec::new(), total);
    }
    let start = (total % RING_CAPACITY as u64) as usize;
    let mut out = Vec::with_capacity(RING_CAPACITY.min(total as usize));
    for i in 0..RING_CAPACITY {
        if let Some(r) = &ring.slots[(start + i) % RING_CAPACITY] {
            out.push(r.clone());
        }
    }
    (out, total)
}

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders the ring as chrome://tracing "trace event format" JSON:
/// an object with a `traceEvents` array of complete (`"ph":"X"`)
/// events, timestamps and durations in microseconds, spans laid out
/// per recording thread. Open in `chrome://tracing` or Perfetto.
#[must_use]
pub fn trace_json() -> String {
    let (records, _) = snapshot();
    let mut out = String::with_capacity(256 + records.len() * 160);
    out.push_str("{\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{",
            r.name, r.start_us, r.dur_us, r.tid
        );
        let _ = write!(out, "\"trace\":\"{:016x}\"", r.trace);
        let _ = write!(out, ",\"span\":{},\"parent\":{}", r.id, r.parent);
        for (k, v) in &r.fields {
            let _ = write!(out, ",\"{k}\":\"");
            json_escape(&mut out, v);
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_the_trace_id() {
        let trace = TraceId::generate();
        with_trace(trace, || {
            let mut outer = span("obs_test_outer");
            outer.field("k", "v1");
            {
                let _inner = span("obs_test_inner");
            }
        });
        let (records, _) = snapshot();
        let inner = records
            .iter()
            .rev()
            .find(|r| r.name == "obs_test_inner")
            .expect("inner span recorded");
        let outer = records
            .iter()
            .rev()
            .find(|r| r.name == "obs_test_outer")
            .expect("outer span recorded");
        assert_eq!(inner.trace, trace.0);
        assert_eq!(outer.trace, trace.0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.fields, vec![("k", "v1".to_string())]);
        assert!(outer.dur_us >= inner.dur_us);
        assert!(current_trace().is_none(), "trace scope restored");
    }

    #[test]
    fn trace_id_round_trips_through_the_wire_form() {
        let t = TraceId::generate();
        assert_eq!(TraceId::parse(&t.to_string()), Some(t));
        assert_eq!(TraceId::parse("nonsense"), None);
        assert_eq!(TraceId::parse("0000000000000000"), None);
        assert_ne!(TraceId::generate(), TraceId::generate());
    }

    #[test]
    fn ring_overflow_drops_oldest_without_corruption() {
        // Overfill the ring by half its capacity again; every slot must
        // hold a valid record and the retained window must be the most
        // recent RING_CAPACITY spans in order.
        for _ in 0..RING_CAPACITY + RING_CAPACITY / 2 {
            let _s = span("obs_test_fill");
        }
        let (records, total) = snapshot();
        assert!(total >= (RING_CAPACITY + RING_CAPACITY / 2) as u64);
        assert_eq!(records.len(), RING_CAPACITY);
        // Oldest-first: this thread's fill spans were opened and closed
        // one after another, so their IDs strictly increase across the
        // window. Spans of tests on other threads are left out: IDs are
        // taken when a span opens but recorded when it closes, so
        // concurrent or nested spans land out of ID order.
        let fills: Vec<u64> = records
            .iter()
            .filter(|r| r.name == "obs_test_fill")
            .map(|r| r.id)
            .collect();
        for pair in fills.windows(2) {
            assert!(pair[0] < pair[1], "ring window out of order");
        }
    }

    #[test]
    fn trace_json_is_wellformed() {
        with_trace(TraceId::generate(), || {
            let mut s = span("obs_test_json");
            s.field("path", "/characterize\"quoted\"");
        });
        let json = trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"obs_test_json\""));
        assert!(json.contains("\\\"quoted\\\""));
        // Balanced braces — cheap structural sanity without a parser.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}
