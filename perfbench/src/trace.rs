//! Spans recorded by the benchmark around its calls into each crate.
//!
//! The program itself is not instrumented: a span opens just before the
//! benchmark calls a crate's public function and closes when the call
//! returns. Span names are `<layer>.<call>`, where the layer is the crate
//! (`synth`, `store`, `deanon`, `analytics`, `consensus`, `ledger`,
//! `paths`, `query`) or `bench` for the benchmark's own code. A span's
//! self time is its duration minus the part its child spans cover; the
//! self time of a `bench` root span is the part of the timed wall time
//! that no layer call explains.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// A per-thread span recorder. When disabled, [`Tracer::enter`] and
/// [`Tracer::exit`] return at once without reading the clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span must be closed with Tracer::exit"]
pub struct SpanId(usize);

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop().expect("exit without an open span");
        assert_eq!(top, span.0, "spans must close innermost first");
        self.spans[top].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Self time and call count per span name over every closed span.
    pub fn summary(&self) -> SpanSummary {
        assert!(self.open.is_empty(), "summary with open spans");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = SpanSummary::default();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let entry = out.by_name.entry(s.name).or_default();
            entry.calls += 1;
            entry.self_ns += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        out
    }
}

/// Calls and self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans closed.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Per-name totals, mergeable across threads and passes.
#[derive(Debug, Clone, Default)]
pub struct SpanSummary {
    /// Totals keyed by span name.
    pub by_name: BTreeMap<&'static str, SpanTotals>,
}

impl SpanSummary {
    /// Adds `other`'s totals into `self`.
    pub fn merge(&mut self, other: &SpanSummary) {
        for (name, t) in &other.by_name {
            let entry = self.by_name.entry(name).or_default();
            entry.calls += t.calls;
            entry.self_ns += t.self_ns;
        }
    }

    /// Self seconds summed over every span of `layer`.
    pub fn layer_self_s(&self, layer: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(name, _)| layer_of(name) == layer)
            .fold(0.0, |sum, (_, t)| sum + t.self_ns as f64 / 1e9)
    }

    /// Self seconds summed over every span.
    pub fn total_self_s(&self) -> f64 {
        self.by_name
            .values()
            .fold(0.0, |sum, t| sum + t.self_ns as f64 / 1e9)
    }
}

/// The layer a span name belongs to: the text before its first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.enter("bench.pass");
        let child = t.enter("store.decode");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit(child);
        t.exit(root);
        let s = t.summary();
        let decode = s.by_name["store.decode"];
        let pass = s.by_name["bench.pass"];
        assert_eq!(decode.calls, 1);
        assert!(decode.self_ns >= 5_000_000);
        assert!(pass.self_ns < decode.self_ns, "{s:?}");
        assert_eq!(layer_of("store.decode"), "store");
        assert!(
            (s.total_self_s() - s.layer_self_s("store") - s.layer_self_s("bench")).abs() < 1e-12
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let span = t.enter("query.point");
        t.exit(span);
        assert!(t.summary().by_name.is_empty());
    }
}
