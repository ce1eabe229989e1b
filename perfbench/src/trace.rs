//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a crate's public functions can be
//! wrapped in a span: name, start, end, parent span and request id. Spans
//! are kept in memory and summarised when the run ends. A disabled tracer
//! records nothing and only runs the closure, so the untraced and traced
//! runs execute the same code.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<crate>.<function>` for layer calls, `op.<name>` for the
    /// benchmark's own operation spans.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (one id per benchmark operation).
    pub request: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed wall time in ns.
    pub total_ns: u64,
    /// Summed self time in ns (duration minus time covered by children).
    pub self_ns: u64,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Starts a new request: spans opened from now on carry its id.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name. Children of one span never overlap (the
    /// tracer is single-threaded and spans nest), so a span's self time
    /// is its duration minus the summed durations of its direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Summed duration of the root spans (those without a parent).
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.next_request();
        tr.span("op.outer", |tr| {
            spin(200_000);
            tr.span("core.inner", |_| spin(300_000));
            tr.span("core.inner", |_| spin(300_000));
        });
        let totals = tr.totals();
        let outer = totals["op.outer"];
        let inner = totals["core.inner"];
        assert_eq!(inner.calls, 2);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 200_000);
        assert_eq!(tr.root_ns(), outer.total_ns);
        assert!(tr.spans().iter().all(|s| s.request == 1));
        assert_eq!(tr.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("core.x", |_| 7);
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }
}
