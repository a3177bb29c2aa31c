//! Hierarchical spans timed on the simulator's virtual clock.
//!
//! Spans nest via an open-span stack: `start` pushes, `end` pops, and the
//! parent of a new span is whatever is on top of the stack. Completed spans
//! land in a bounded ring buffer (oldest evicted first) and export as
//! deterministic JSONL, so "same seed ⇒ same trace" extends from the message
//! layer to the operation layer.

use crate::fnv::fnv1a;
use std::collections::VecDeque;

/// Capacity of the completed-span ring buffer.
pub const DEFAULT_SPAN_CAPACITY: usize = 8192;

/// One completed (or still-open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id, assigned from 1 in start order.
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Static span name (`insert`, `route`, `interval`, ...).
    pub name: &'static str,
    /// Free-form numeric argument (rank, attempt index, ...).
    pub arg: u64,
    /// Virtual-clock tick at `start`.
    pub start: u64,
    /// Virtual-clock tick at `end`.
    pub end: u64,
}

/// Records hierarchical spans into a bounded ring buffer.
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    next_id: u64,
    open: Vec<SpanRecord>,
    done: VecDeque<SpanRecord>,
    evicted: u64,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// A recorder keeping at most [`DEFAULT_SPAN_CAPACITY`] completed
    /// spans.
    pub fn new() -> Self {
        SpanRecorder {
            next_id: 1,
            open: Vec::new(),
            done: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Open a span named `name` with argument `arg` at tick `now`; returns its
    /// id. The parent is the innermost span still open.
    pub fn start(&mut self, name: &'static str, arg: u64, now: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map(|s| s.id).unwrap_or(0);
        self.open.push(SpanRecord {
            id,
            parent,
            name,
            arg,
            start: now,
            end: now,
        });
        id
    }

    /// Close span `id` at tick `now`. Any child spans left open are closed at
    /// the same tick (exception-style unwinding keeps the stack coherent).
    pub fn end(&mut self, id: u64, now: u64) {
        while let Some(pos) = self.open.iter().rposition(|s| s.id == id) {
            // Pop everything above `pos` (forgotten children), then `pos`.
            while self.open.len() > pos {
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: guarded by the len check above"
                )]
                let mut span = self.open.pop().expect("len checked");
                span.end = now;
                self.push_done(span);
            }
        }
    }

    fn push_done(&mut self, span: SpanRecord) {
        if self.done.len() == DEFAULT_SPAN_CAPACITY {
            self.done.pop_front();
            self.evicted += 1;
        }
        self.done.push_back(span);
    }

    /// Completed spans, in completion order.
    pub fn completed(&self) -> impl Iterator<Item = &SpanRecord> {
        self.done.iter()
    }

    /// Number of completed spans dropped because the ring buffer was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Deterministic JSONL export: one line per completed span, in completion
    /// order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.done {
            out.push_str(&format!(
                "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"arg\":{},\"start\":{},\"end\":{}}}\n",
                s.id, s.parent, s.name, s.arg, s.start, s.end
            ));
        }
        out
    }

    /// FNV-1a digest of [`to_jsonl`](Self::to_jsonl) plus the eviction count,
    /// so overflow is not silent.
    pub fn digest(&self) -> u64 {
        let mut bytes = self.to_jsonl().into_bytes();
        bytes.extend_from_slice(&self.evicted.to_le_bytes());
        fnv1a(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_assigns_parents_from_stack() {
        let mut r = SpanRecorder::new();
        let a = r.start("insert", 7, 0);
        let b = r.start("route", 0, 1);
        r.end(b, 5);
        let c = r.start("store", 0, 5);
        r.end(c, 9);
        r.end(a, 9);
        let spans: Vec<_> = r.completed().cloned().collect();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "route");
        assert_eq!(spans[0].parent, a);
        assert_eq!(spans[1].name, "store");
        assert_eq!(spans[1].parent, a);
        assert_eq!(spans[2].name, "insert");
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[2].arg, 7);
        assert_eq!(spans[2].end, 9);
    }

    #[test]
    fn ending_parent_closes_forgotten_children() {
        let mut r = SpanRecorder::new();
        let a = r.start("count", 0, 0);
        let _b = r.start("interval", 3, 1);
        r.end(a, 10);
        let spans: Vec<_> = r.completed().cloned().collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "interval");
        assert_eq!(spans[0].end, 10);
        assert_eq!(spans[1].name, "count");
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut r = SpanRecorder::new();
        let total = DEFAULT_SPAN_CAPACITY as u64 + 2;
        for i in 0..total {
            let id = r.start("s", i, i);
            r.end(id, i + 1);
        }
        assert_eq!(r.evicted(), 2);
        let args: Vec<u64> = r.completed().map(|s| s.arg).collect();
        assert_eq!(args, (2..total).collect::<Vec<_>>());
    }

    #[test]
    fn digest_tracks_content_and_evictions() {
        let mut a = SpanRecorder::new();
        let id = a.start("x", 0, 0);
        a.end(id, 1);
        let mut b = SpanRecorder::new();
        let id = b.start("x", 0, 0);
        b.end(id, 1);
        assert_eq!(a.digest(), b.digest());
        let id = b.start("x", 1, 2);
        b.end(id, 3);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn end_unknown_id_is_a_noop() {
        let mut r = SpanRecorder::new();
        let a = r.start("root", 0, 0);
        r.end(999, 5);
        assert_eq!(r.completed().count(), 0);
        r.end(a, 6);
        assert_eq!(r.completed().count(), 1);
    }
}
