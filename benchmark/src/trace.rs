//! Outside-in layer tracing: spans recorded by the benchmark around the
//! calls it makes into each layer, never by the program itself.
//!
//! The wrappers in `sut.rs` sit on the three seams the engine is generic
//! over and call [`span`] around the real implementation. Spans are kept
//! in memory on the recording thread and written out only after the
//! traced pass ended. A layer's *self* time is its span minus the part
//! its child spans cover, so the per-layer shares of one pass sum to its
//! wall time by construction.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Where a span was recorded. The prefix of [`Layer::name`] is the crate
/// whose code runs inside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One whole query call into `fuzzy-query` (root span, in-process).
    Query,
    /// `ObjectStore::probe`: pread + record decode.
    Probe,
    /// `NodeAccess::read_node`: buffer-pool lookup, page read + decode on a miss.
    NodeRead,
    /// `Metric::alpha_distance_sq_bounded`: the bounded α-distance kernel.
    Kernel,
    /// `Metric::distance_profile`: the full α ↦ d_α staircase.
    Profile,
    /// One whole served request as the client sees it (root span).
    Request,
    /// `Request::encode` on the client.
    Encode,
    /// Socket write, server time, socket read up to a verified frame.
    RoundTrip,
    /// `Response::decode` on the client.
    Decode,
}

const LAYER_COUNT: usize = Layer::Decode as usize + 1;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Query => "query.call",
            Layer::Probe => "store.probe",
            Layer::NodeRead => "index.node_read",
            Layer::Kernel => "core.kernel",
            Layer::Profile => "core.profile",
            Layer::Request => "client.request",
            Layer::Encode => "server.encode",
            Layer::RoundTrip => "server.round_trip",
            Layer::Decode => "server.decode",
        }
    }
}

/// One recorded interval. Times are nanoseconds since the recorder was
/// started; `parent` indexes the span that was open when this one began.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub query_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Counts taken at the same boundaries as the spans, for the calls that
/// are cheaper than a clock read or whose outcome matters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Box-bound and point-distance hook calls on the metric.
    pub bound_calls: u64,
    /// Kernel calls that returned `None`: pruned by their seed, wasted work.
    pub kernel_pruned: u64,
    /// Bytes of the objects the store handed back.
    pub probe_bytes: u64,
    /// Node reads that reached the index file.
    pub node_misses: u64,
}

/// The live counters. They sit beside the recorder, not inside it: a
/// bound evaluation costs a few nanoseconds, and counting one must not
/// cost more.
pub struct CountCells {
    pub bound_calls: Cell<u64>,
    pub kernel_pruned: Cell<u64>,
    pub probe_bytes: Cell<u64>,
    pub node_misses: Cell<u64>,
}

/// The recording thread's state: the spans so far, the innermost open
/// span (the parent of the next one) and the query being executed.
struct Recorder {
    epoch: Cell<Option<Instant>>,
    spans: RefCell<Vec<Span>>,
    innermost: Cell<Option<u32>>,
    query_id: Cell<u32>,
}

thread_local! {
    static RECORDER: Recorder = const {
        Recorder {
            epoch: Cell::new(None),
            spans: RefCell::new(Vec::new()),
            innermost: Cell::new(None),
            query_id: Cell::new(0),
        }
    };
    static COUNTS: CountCells = const {
        CountCells {
            bound_calls: Cell::new(0),
            kernel_pruned: Cell::new(0),
            probe_bytes: Cell::new(0),
            node_misses: Cell::new(0),
        }
    };
}

/// Everything one traced pass recorded.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub counts: Counts,
}

/// Start recording on this thread, dropping whatever was recorded before.
pub fn start(capacity: usize) {
    RECORDER.with(|r| {
        *r.spans.borrow_mut() = Vec::with_capacity(capacity);
        r.innermost.set(None);
        r.query_id.set(0);
        r.epoch.set(Some(Instant::now()));
    });
    COUNTS.with(|c| {
        for cell in [&c.bound_calls, &c.kernel_pruned, &c.probe_bytes, &c.node_misses] {
            cell.set(0);
        }
    });
}

/// Stop recording and hand back the spans.
pub fn finish() -> Trace {
    RECORDER.with(|r| {
        assert!(r.epoch.take().is_some(), "trace::finish without trace::start");
        assert!(r.innermost.get().is_none(), "trace::finish inside an open span");
        let counts = COUNTS.with(|c| Counts {
            bound_calls: c.bound_calls.get(),
            kernel_pruned: c.kernel_pruned.get(),
            probe_bytes: c.probe_bytes.get(),
            node_misses: c.node_misses.get(),
        });
        Trace { spans: r.spans.take(), counts }
    })
}

/// Spans recorded from now on belong to query `id`.
pub fn set_query(id: u32) {
    RECORDER.with(|r| r.query_id.set(id));
}

/// Run `f` inside a span of `layer`. Without a started recorder this is a
/// plain call.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    // The span list is not borrowed while `f` runs: `f` opens child spans.
    let opened = RECORDER.with(|r| {
        let epoch = r.epoch.get()?;
        let mut spans = r.spans.borrow_mut();
        let idx = spans.len() as u32;
        let parent = r.innermost.replace(Some(idx));
        spans.push(Span {
            layer,
            start_ns: epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            query_id: r.query_id.get(),
        });
        Some((epoch, idx, parent))
    });
    let out = f();
    if let Some((epoch, idx, parent)) = opened {
        RECORDER.with(|r| {
            r.spans.borrow_mut()[idx as usize].end_ns = epoch.elapsed().as_nanos() as u64;
            r.innermost.set(parent);
        });
    }
    out
}

/// Add `n` to one of the counters kept beside the spans.
#[inline]
pub fn add(pick: impl FnOnce(&CountCells) -> &Cell<u64>, n: u64) {
    COUNTS.with(|c| {
        let cell = pick(c);
        cell.set(cell.get() + n);
    });
}

/// Calls, total time and self time of one layer over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the durations of its
/// direct children. One thread records one stack, so children neither
/// overlap each other nor outlive their parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// The span trees whose root satisfies `keep`, with `parent` re-indexed
/// into the returned vector.
pub fn retain_trees(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Vec<Span> {
    let mut new_index: Vec<Option<u32>> = Vec::with_capacity(spans.len());
    let mut out = Vec::new();
    for s in spans {
        // A parent is recorded before its children.
        let parent = s.parent.map(|p| new_index[p as usize]);
        let kept = match parent {
            None => keep(s),
            Some(p) => p.is_some(),
        };
        new_index.push(kept.then_some(out.len() as u32));
        if kept {
            out.push(Span { parent: parent.flatten(), ..*s });
        }
    }
    out
}

/// Per-layer totals over a set of spans.
pub struct Totals([LayerTotals; LAYER_COUNT]);

impl Totals {
    pub fn of(&self, layer: Layer) -> LayerTotals {
        self.0[layer as usize]
    }
}

pub fn totals(spans: &[Span]) -> Totals {
    let own = self_times(spans);
    let mut out = [LayerTotals::default(); LAYER_COUNT];
    for (s, own_ns) in spans.iter().zip(own) {
        let t = &mut out[s.layer as usize];
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own_ns;
    }
    Totals(out)
}

/// Write the spans of queries `< max_queries` as JSON lines
/// `{name, start, end, parent, query_id}`; `parent` is the line index of
/// the enclosing span, or null for a root.
pub fn write_jsonl(path: &Path, spans: &[Span], max_queries: u32) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter().filter(|s| s.query_id < max_queries) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"query_id\":{}}}",
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            parent,
            s.query_id
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(layer: Layer, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { layer, start_ns, end_ns, parent, query_id: 0 }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // query [0,100) { node_read [10,30), probe [40,70) { … }, kernel [70,95) }
        let spans = [
            sp(Layer::Query, 0, 100, None),
            sp(Layer::NodeRead, 10, 30, Some(0)),
            sp(Layer::Probe, 40, 70, Some(0)),
            sp(Layer::Kernel, 70, 95, Some(0)),
            sp(Layer::Query, 100, 150, None),
            sp(Layer::Probe, 110, 120, Some(4)),
        ];
        assert_eq!(self_times(&spans), vec![25, 20, 30, 25, 40, 10]);
        let t = totals(&spans);
        let q = t.of(Layer::Query);
        assert_eq!((q.calls, q.total_ns, q.self_ns), (2, 150, 65));
        let p = t.of(Layer::Probe);
        assert_eq!((p.calls, p.total_ns, p.self_ns), (2, 40, 40));
        // Self times of all layers sum to the root spans' wall time.
        let all_self: u64 = t.0.iter().map(|l| l.self_ns).sum();
        assert_eq!(all_self, q.total_ns);
    }

    #[test]
    fn retained_trees_keep_their_shape() {
        let spans = [
            sp(Layer::Query, 0, 100, None),
            sp(Layer::Probe, 10, 30, Some(0)),
            sp(Layer::Query, 100, 200, None),
            sp(Layer::NodeRead, 110, 120, Some(2)),
            sp(Layer::Probe, 130, 190, Some(2)),
        ];
        let kept = retain_trees(&spans, |root| root.start_ns == 100);
        assert_eq!(
            kept,
            vec![
                sp(Layer::Query, 100, 200, None),
                sp(Layer::NodeRead, 110, 120, Some(0)),
                sp(Layer::Probe, 130, 190, Some(0)),
            ]
        );
        assert_eq!(self_times(&kept), vec![30, 10, 60]);
    }

    #[test]
    fn grandchildren_are_charged_to_their_parent_only() {
        let spans = [
            sp(Layer::Request, 0, 100, None),
            sp(Layer::RoundTrip, 10, 90, Some(0)),
            sp(Layer::Decode, 20, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn recorder_nests_spans_and_tags_queries() {
        start(16);
        set_query(3);
        let v = span(Layer::Query, || {
            span(Layer::NodeRead, || ());
            add(|c| &c.bound_calls, 2);
            span(Layer::Probe, || 7)
        });
        set_query(4);
        span(Layer::Query, || ());
        let trace = finish();
        assert_eq!(v, 7);
        assert_eq!(trace.counts.bound_calls, 2);
        let shape: Vec<_> = trace.spans.iter().map(|s| (s.layer, s.parent, s.query_id)).collect();
        assert_eq!(
            shape,
            vec![
                (Layer::Query, None, 3),
                (Layer::NodeRead, Some(0), 3),
                (Layer::Probe, Some(0), 3),
                (Layer::Query, None, 4),
            ]
        );
        for s in &trace.spans {
            assert!(s.end_ns >= s.start_ns);
        }
        let root = trace.spans[0];
        assert!(trace.spans[1].start_ns >= root.start_ns && trace.spans[2].end_ns <= root.end_ns);
        // With no recorder running a span is a plain call.
        assert_eq!(span(Layer::Query, || 1), 1);
    }
}
