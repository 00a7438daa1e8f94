//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent and a request id; spans of
//! one request share the id. A *root* span is one unit of workload work
//! (a cold job); the layer calls it makes are its children. Spans stay in
//! memory until the run ends, when [`analyze`] derives each layer's self
//! time (its duration minus the part its children cover) and the share of
//! the roots' wall that no layer span covers — the unattributed gap, where
//! an unmeasured layer shows up.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

/// The id returned while tracing is off.
pub const NO_SPAN: SpanId = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<SpanId>,
    pub root: bool,
    pub start: f64,
    pub end: f64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: AtomicBool::new(enabled),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switches recording on or off; spans already open still close.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Opens a root span (one unit of workload work) now.
    pub fn root(&self, name: &'static str, request: u64) -> SpanId {
        let now = Instant::now();
        self.push(name, request, None, true, now, now)
    }

    /// Opens a layer span now; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.push(name, request, Some(parent), false, now, now)
    }

    pub fn end(&self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let end = self.at(Instant::now());
        self.spans.lock().expect("tracer lock poisoned")[id].end = end;
    }

    /// Records a finished layer span measured by the caller. `parent` may
    /// be [`NO_SPAN`] for a layer call made outside any root (warm
    /// traffic): such spans count toward their layer, never toward the
    /// unattributed gap.
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.push(name, request, Some(parent), false, start, end)
    }

    fn push(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        root: bool,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled.load(Ordering::SeqCst) {
            return NO_SPAN;
        }
        let span = Span {
            name,
            request,
            parent: parent.filter(|&p| p != NO_SPAN),
            root,
            start: self.at(start),
            end: self.at(end),
        };
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(span);
        spans.len() - 1
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }
}

/// Self time per span name, and the unattributed share of the roots.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Per span name, in first-seen order.
    pub layers: Vec<Layer>,
    /// Σ root self time ÷ Σ root duration; NaN without roots.
    pub unattributed_frac: f64,
}

/// One span name's totals.
#[derive(Debug, Default)]
pub struct Layer {
    pub name: &'static str,
    pub spans: usize,
    /// Distinct request ids among the spans.
    pub requests: Vec<u64>,
    pub total_s: f64,
    pub self_s: f64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

pub fn analyze(spans: &[Span]) -> Analysis {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    let mut out = Analysis::default();
    let (mut root_self, mut root_total) = (0.0, 0.0);
    for (span, kids) in spans.iter().zip(children) {
        let duration = (span.end - span.start).max(0.0);
        let own = duration - covered(kids, span.start, span.end);
        let at = match out.layers.iter().position(|l| l.name == span.name) {
            Some(at) => at,
            None => {
                out.layers.push(Layer {
                    name: span.name,
                    ..Layer::default()
                });
                out.layers.len() - 1
            }
        };
        let layer = &mut out.layers[at];
        layer.spans += 1;
        layer.total_s += duration;
        layer.self_s += own;
        if !layer.requests.contains(&span.request) {
            layer.requests.push(span.request);
        }
        if span.root {
            root_self += own;
            root_total += duration;
        }
    }
    out.unattributed_frac = if root_total > 0.0 {
        root_self / root_total
    } else {
        f64::NAN
    };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: f64, end: f64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            root: parent.is_none() && name == "root",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(0), 3.0, 6.0),
            span("c", Some(0), 9.0, 12.0),
        ];
        let a = analyze(&spans);
        let root = a.layers.iter().find(|l| l.name == "root").unwrap();
        // Children cover [1, 6] and [9, 10]: 6 of 10 seconds.
        assert!((root.self_s - 4.0).abs() < 1e-12, "{root:?}");
        assert!((a.unattributed_frac - 0.4).abs() < 1e-12);
    }

    #[test]
    fn a_root_without_layer_spans_is_wholly_unattributed() {
        // Warm traffic runs beside the root as parentless layer spans; it
        // must neither cover the root nor count as a root itself.
        let spans = vec![
            span("root", None, 0.0, 2.0),
            span("warm.stack", None, 0.0, 1.9),
        ];
        let a = analyze(&spans);
        assert!((a.unattributed_frac - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let root = tracer.root("root", 0);
        assert_eq!(root, NO_SPAN);
        tracer.end(root);
        assert!(tracer.spans().is_empty());
    }
}
