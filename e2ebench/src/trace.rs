//! In-memory span recorder for the traced run.
//!
//! The harness opens one span around each call it makes into a layer's
//! public function: name, start, end, the span that caused it, and the
//! operation it belongs to. Spans stay in memory and are written out as
//! JSON lines when the run ends. A disabled recorder does nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::metrics::Samples;

/// Name of the span that covers one whole operation.
pub const OP: &str = "op";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. An [`OP`] span, or any
    /// span opened outside one, starts a new operation id.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if name == OP || self.stack.is_empty() {
            self.op += 1;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        while let Some(top) = self.stack.pop() {
            if top == idx {
                break;
            }
        }
    }

    /// Record a span timed elsewhere (the open-loop generator knows an
    /// operation's due time only after the fact). Returns its id, for
    /// children.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if parent.is_none() {
            self.op += 1;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Per span name, the self time in ms of each operation that ran it
    /// (a span's duration minus what its children cover, summed per
    /// operation).
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Samples> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut per_op: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*children);
            *per_op.entry((s.name, s.op)).or_default() += own;
        }
        let mut out: BTreeMap<&'static str, Samples> = BTreeMap::new();
        for ((name, _), ns) in per_op {
            out.entry(name).or_default().push(ns as f64 / 1e6);
        }
        out
    }

    /// Share of the operations' wall time not covered by a layer span.
    pub fn unaccounted_frac(&self) -> f64 {
        let mut total = 0u64;
        let mut covered = 0u64;
        for s in &self.spans {
            if s.name == OP {
                total += s.end_ns - s.start_ns;
            } else if s.parent.is_some_and(|p| self.spans[p].name == OP) {
                covered += s.end_ns - s.start_ns;
            }
        }
        if total == 0 {
            return 0.0;
        }
        1.0 - covered as f64 / total as f64
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.op,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let op = t.enter(OP);
        t.time("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(4));
        });
        let outer = t.enter("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(6))
        });
        t.exit(outer);
        t.exit(op);
        let by = t.self_ms_by_name();
        assert_eq!(by["outer"].len(), 1, "one op, summed per op");
        assert!(by["outer"].median() >= 4.0 && by["outer"].median() < 6.0);
        assert!(by["inner"].median() >= 6.0);
        assert!(t.unaccounted_frac() < 0.1);

        let mut off = Tracer::new(false);
        let o = off.enter(OP);
        off.exit(o);
        assert_eq!(off.span_count(), 0);
    }
}
