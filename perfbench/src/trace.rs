//! In-memory span recording for the traced run.
//!
//! The benchmark wraps its own calls into each layer in [`span`], and
//! [`StampedSink`] merges the events the program already emits (through
//! `Pipeline::fit_traced`, `FittedModel::impute_traced`,
//! `Pipeline::append_traced` and the sink handed to `Server::bind`) into
//! the same record. Every span carries its thread and its parent: the
//! innermost span open on the same thread when it began. Nothing is
//! recorded while the recorder is disabled, so untraced runs pay one
//! atomic load per call.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use grimp_obs::{names, Event, EventKind, EventSink};

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// Unique id within the run.
    pub id: u64,
    /// Span name: `layer.call` for the benchmark's own spans, the
    /// program's event name (`epoch`, `forward`, `request`, …) otherwise.
    pub name: String,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// End, in ns since the recorder's origin.
    pub end_ns: u64,
    /// The span that was open on the same thread when this one began.
    pub parent: Option<u64>,
    /// Recording thread (small integers in first-use order).
    pub thread: u64,
    /// Request id: the benchmark's operation index for its own serve
    /// spans, the server's accept index for its `request` spans.
    pub req: Option<u64>,
    /// Whether the program emitted it (as opposed to the benchmark).
    pub program: bool,
}

impl SpanRec {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A counter or metric event from the program.
#[derive(Clone, Debug, PartialEq)]
pub struct PointRec {
    /// Event name.
    pub name: &'static str,
    /// The event's index (epoch, request id, …).
    pub index: u64,
    /// The event's value.
    pub value: f64,
    /// When it was recorded, in ns since the origin.
    pub t_ns: u64,
    /// The span open on the recording thread at the time.
    pub parent: Option<u64>,
}

#[derive(Default)]
struct Store {
    spans: Vec<SpanRec>,
    points: Vec<PointRec>,
}

struct Open {
    id: u64,
    name: &'static str,
    index: u64,
    start_ns: u64,
    req: Option<u64>,
    program: bool,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static STORE: Mutex<Store> = Mutex::new(Store {
    spans: Vec::new(),
    points: Vec::new(),
});

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's origin.
pub fn now_ns() -> u64 {
    u64::try_from(origin().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn store() -> std::sync::MutexGuard<'static, Store> {
    STORE
        .lock()
        .expect("span store lock: a recording thread panicked")
}

/// Turn recording on or off (spans already open still close normally).
pub fn set_enabled(on: bool) {
    origin();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open a span on this thread's stack; `index` defaults to the new id.
fn push(name: &'static str, index: Option<u64>, req: Option<u64>, program: bool) -> u64 {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    STACK.with(|s| {
        s.borrow_mut().push(Open {
            id,
            name,
            index: index.unwrap_or(id),
            start_ns,
            req,
            program,
        })
    });
    id
}

/// Close the open span matching `(name, index)` on this thread, and any
/// span opened inside it that was never closed (the program drops a span
/// without exiting it on some early-exit paths). `renamed` replaces the
/// name (the program closes an `epoch` span as `epoch_rollback`);
/// `program_secs` is the duration the program measured itself, used when
/// its enter event was emitted at the end. Unmatched exits are ignored.
fn pop(name: &'static str, index: u64, renamed: &'static str, program_secs: Option<f64>) {
    let end_ns = now_ns();
    let thread = THREAD.with(|t| *t);
    let closed: Vec<(Open, Option<u64>)> = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let Some(at) = s.iter().rposition(|o| o.name == name && o.index == index) else {
            return Vec::new();
        };
        let parents: Vec<Option<u64>> = (at..s.len())
            .map(|i| i.checked_sub(1).map(|p| s[p].id))
            .collect();
        s.drain(at..).zip(parents).collect()
    });
    if closed.is_empty() {
        return;
    }
    let mut st = store();
    for (i, (open, parent)) in closed.into_iter().enumerate() {
        let mut start_ns = open.start_ns;
        let mut span_name = open.name;
        if i == 0 {
            span_name = renamed;
            if let Some(secs) = program_secs {
                let program_ns = (secs * 1e9) as u64;
                if program_ns > 2 * (end_ns - start_ns) {
                    start_ns = end_ns.saturating_sub(program_ns);
                }
            }
        }
        st.spans.push(SpanRec {
            id: open.id,
            name: span_name.to_string(),
            start_ns,
            end_ns,
            parent,
            thread,
            req: open.req,
            program: open.program,
        });
    }
}

/// Run `f` inside the benchmark span `name` (a `layer.call` name).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_req(name, None, f)
}

/// [`span`] tagged with a request id.
pub fn span_req<T>(name: &'static str, req: Option<u64>, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = push(name, None, req, false);
    let out = f();
    pop(name, id, name, None);
    out
}

/// An [`EventSink`] that stamps each program event with the recorder's
/// clock and thread, and nests its spans under the benchmark's.
#[derive(Clone, Copy, Debug, Default)]
pub struct StampedSink;

impl EventSink for StampedSink {
    fn enabled(&self) -> bool {
        enabled()
    }

    fn record(&mut self, event: Event) {
        // Exits still close spans opened before recording was turned off.
        if !enabled() && event.kind != EventKind::SpanExit {
            return;
        }
        match event.kind {
            EventKind::SpanEnter => {
                let req = (event.name == names::REQUEST).then_some(event.index);
                push(event.name, Some(event.index), req, true);
            }
            EventKind::SpanExit => {
                let opened_as = if event.name == names::EPOCH_ROLLBACK {
                    names::EPOCH
                } else {
                    event.name
                };
                pop(opened_as, event.index, event.name, Some(event.value));
            }
            EventKind::Counter | EventKind::Metric => {
                let t_ns = now_ns();
                let parent = STACK.with(|s| s.borrow().last().map(|o| o.id));
                store().points.push(PointRec {
                    name: event.name,
                    index: event.index,
                    value: event.value,
                    t_ns,
                    parent,
                });
            }
        }
    }
}

/// Id of the most recently closed span called `name`.
pub fn last_span_id(name: &str) -> Option<u64> {
    store()
        .spans
        .iter()
        .rev()
        .find(|s| s.name == name)
        .map(|s| s.id)
}

/// Everything recorded so far, leaving the store empty.
pub fn take() -> (Vec<SpanRec>, Vec<PointRec>) {
    let mut st = store();
    (
        std::mem::take(&mut st.spans),
        std::mem::take(&mut st.points),
    )
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children may overlap each other when they
/// ran on other threads, so their union is subtracted, not their sum).
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns - covered) as f64 * 1e-9
        })
        .collect()
}

/// One row of the self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfRow {
    /// Span name.
    pub name: String,
    /// Spans with that name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// Per-name totals, largest self time first.
pub fn self_table(spans: &[SpanRec]) -> Vec<SelfRow> {
    let selfs = self_times(spans);
    let mut rows: Vec<SelfRow> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => {
                r.count += 1;
                r.total_s += s.secs();
                r.self_s += own;
            }
            None => rows.push(SelfRow {
                name: s.name.clone(),
                count: 1,
                total_s: s.secs(),
                self_s: own,
            }),
        }
    }
    rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
    rows
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(workload: &str, spans: &[SpanRec]) -> String {
    let mut out = String::new();
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"thread\":{},\"req\":{},\"source\":\"{}\"}}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            s.thread,
            opt(s.req),
            if s.program { "program" } else { "bench" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            parent,
            thread: 0,
            req: None,
            program: false,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // 1 [0, 100) holds 2 [10, 40) and 3 [50, 90); 3 holds 4 [60, 70).
        let spans = [
            rec(1, None, 0, 100),
            rec(2, Some(1), 10, 40),
            rec(3, Some(1), 50, 90),
            rec(4, Some(3), 60, 70),
        ];
        let ns: Vec<u64> = self_times(&spans)
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        assert_eq!(ns, vec![30, 30, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Two children on other threads overlap in [30, 40).
        let spans = [
            rec(1, None, 0, 100),
            rec(2, Some(1), 20, 40),
            rec(3, Some(1), 30, 60),
            rec(4, Some(1), 90, 120), // overruns its parent: clipped
        ];
        let own = self_times(&spans)[0];
        assert_eq!((own * 1e9).round() as u64, 100 - 40 - 10);
    }

    #[test]
    fn table_sums_by_name() {
        let mut spans = vec![rec(1, None, 0, 100), rec(2, Some(1), 0, 50)];
        spans[1].name = "s1".into();
        let table = self_table(&spans);
        assert_eq!(table.len(), 1);
        assert_eq!(table[0].count, 2);
        assert!((table[0].total_s - 150e-9).abs() < 1e-15);
        assert!((table[0].self_s - 100e-9).abs() < 1e-15);
    }
}
