//! Spans recorded from outside the program: the benchmark times each
//! call it makes into a layer, keeps the spans in memory and writes them
//! out when the run ends. A layer's self time is its span minus the part
//! of that interval its children on the same thread cover.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that was open on this thread when this one began (0: none).
    pub parent: u32,
    /// Spans caused by one request or step share this id (0: none).
    pub request: u64,
    pub layer: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// (span id, request id) of the innermost open span on this thread.
    static CURRENT: Cell<(u32, u64)> = const { Cell::new((0, 0)) };
}

/// The in-memory span log. Disabled, [`span`](Self::span) only runs its
/// closure, so an untraced pass pays one atomic load per call.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Run `f` as a span of `layer`. `request` 0 inherits the request of
    /// the enclosing span on this thread.
    pub fn span<R>(&self, layer: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, outer_request) = CURRENT.get();
        let request = if request == 0 { outer_request } else { request };
        CURRENT.set((id, request));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        CURRENT.set((parent, outer_request));
        let span = Span {
            id,
            parent,
            request,
            layer,
            thread: THREAD.with(|t| *t),
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        };
        self.spans.lock().expect("a span recorder panicked").push(span);
        out
    }

    /// Whether the calling thread is inside a span right now.
    pub fn in_span() -> bool {
        CURRENT.get().0 != 0
    }

    /// Take every span recorded so far, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("a span recorder panicked"))
    }
}

/// Self time of each span, keyed by span id: its duration minus the
/// union of its children's intervals on the same thread, clipped to it.
/// Overlapping children count once; children on other threads ran
/// beside it, not inside it, and are not subtracted.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            if p.thread == s.thread {
                let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if lo < hi {
                    children.entry(p.id).or_default().push((lo, hi));
                }
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(iv) = children.get_mut(&s.id) {
                iv.sort_unstable();
                let (mut lo, mut hi) = iv[0];
                for &(a, b) in &iv[1..] {
                    if a > hi {
                        covered += hi - lo;
                        (lo, hi) = (a, b);
                    } else {
                        hi = hi.max(b);
                    }
                }
                covered += hi - lo;
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Write spans as tab-separated lines with a header.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tlayer\tthread\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.request, s.layer, s.thread, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 1, layer: "t", thread, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [span(1, 0, 1, 0, 100), span(2, 1, 1, 10, 20), span(3, 1, 1, 50, 80)];
        let st = self_times(&spans);
        assert_eq!(st[&1], 60);
        assert_eq!(st[&2], 10);
        assert_eq!(st[&3], 30);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span(1, 0, 1, 0, 100),
            span(2, 1, 1, 10, 40),
            span(3, 1, 1, 30, 60),
            span(4, 1, 1, 35, 45),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 50);
    }

    #[test]
    fn children_on_other_threads_are_not_subtracted() {
        let spans = [span(1, 0, 1, 0, 100), span(2, 1, 2, 10, 90), span(3, 1, 1, 20, 30)];
        assert_eq!(self_times(&spans)[&1], 90);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [span(1, 0, 1, 50, 100), span(2, 1, 1, 40, 60), span(3, 1, 1, 90, 130)];
        assert_eq!(self_times(&spans)[&1], 50 - 10 - 10);
    }

    #[test]
    fn recorded_spans_nest_by_thread() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.span("outer", 7, || {
            t.span("inner", 0, || {});
            std::thread::scope(|s| {
                s.spawn(|| t.span("other", 0, || {}));
            });
        });
        let spans = t.take();
        let get = |l: &str| *spans.iter().find(|s| s.layer == l).expect("span recorded");
        let (outer, inner, other) = (get("outer"), get("inner"), get("other"));
        assert_eq!((inner.parent, inner.request), (outer.id, 7));
        assert_eq!((other.parent, other.request), (0, 0));
        assert_ne!(other.thread, outer.thread);
        let st = self_times(&spans);
        assert_eq!(st[&outer.id], outer.duration_ns() - inner.duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.span("x", 1, || 5), 5);
        assert!(t.take().is_empty());
    }
}
