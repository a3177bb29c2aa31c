//! Timing primitives of the traced run: per-seam accumulators the
//! decorators write into, and the span tree a phase's share table is
//! read from. Everything here lives outside the program under test.

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

/// What an empty timed call reads, in ns: the share of the clock's own
/// cost that falls between the two readings. Measured once per process
/// and taken off every timed call, so a 50 ns `fetch_at` does not read
/// as 85.
pub fn clock_bias_ns() -> f64 {
    static BIAS: OnceLock<f64> = OnceLock::new();
    *BIAS.get_or_init(|| {
        let batches: Vec<f64> = (0..9)
            .map(|_| {
                let acc = Acc::default();
                for _ in 0..20_000 {
                    acc.time(|| std::hint::black_box(()));
                }
                acc.ns.get() as f64 / acc.calls.get() as f64
            })
            .collect();
        crate::stats::median(&batches)
    })
}

/// Calls and total time of one decorated seam. `Cell`s because half of
/// the decorated trait methods take `&self`.
#[derive(Debug, Default)]
pub struct Acc {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl Acc {
    /// Run `f`, counting and timing it.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.ns
            .set(self.ns.get() + start.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }

    /// Calls and total time since the last take, the clock's bias
    /// taken off.
    pub fn take(&self) -> Reading {
        let calls = self.calls.replace(0);
        let ns = self.ns.replace(0) as f64 - clock_bias_ns() * calls as f64;
        Reading {
            calls,
            ns: ns.max(0.0),
        }
    }
}

/// An accumulator that counts every call but times one in `every`:
/// for seams an operation crosses once or twice, where two clock
/// readings per call would cost a tenth of the operation.
#[derive(Debug)]
pub struct SampledAcc {
    every: u64,
    calls: Cell<u64>,
    timed: Acc,
}

impl SampledAcc {
    pub fn every(every: u64) -> Self {
        SampledAcc {
            every,
            calls: Cell::new(0),
            timed: Acc::default(),
        }
    }

    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.calls.get() + 1;
        self.calls.set(n);
        if n.is_multiple_of(self.every) {
            self.timed.time(f)
        } else {
            f()
        }
    }

    /// All calls, with the total time extrapolated from the sample.
    pub fn take(&self) -> Reading {
        let calls = self.calls.replace(0);
        Reading {
            calls,
            ns: self.timed.take().mean_ns() * calls as f64,
        }
    }
}

/// For seams called tens of thousands of times per operation with
/// calls shorter than a clock reading (`fetch_at`, the neighbour
/// lookups): every call is counted, the arguments of one in
/// [`LOG_EVERY`] are logged, and after the phase the logged calls are
/// issued again back to back under one pair of clock readings. A lone
/// timed `fetch_at` reads ~90 ns because the clock serialises the
/// pipeline around it; in the scan's loop it costs half that, which is
/// what the re-issue measures.
#[derive(Debug)]
pub struct CallLog<A> {
    calls: Cell<u64>,
    logged: RefCell<Vec<A>>,
}

pub const LOG_EVERY: u64 = 64;

impl<A> Default for CallLog<A> {
    fn default() -> Self {
        CallLog {
            calls: Cell::new(0),
            logged: RefCell::new(Vec::new()),
        }
    }
}

impl<A: Copy> CallLog<A> {
    #[inline]
    pub fn note(&self, args: A) {
        let n = self.calls.get() + 1;
        self.calls.set(n);
        if n.is_multiple_of(LOG_EVERY) {
            self.logged.borrow_mut().push(args);
        }
    }

    /// All calls, with the total time extrapolated from re-issuing the
    /// logged ones through `call`.
    pub fn take(&self, mut call: impl FnMut(A)) -> Reading {
        let calls = self.calls.replace(0);
        let logged = std::mem::take(&mut *self.logged.borrow_mut());
        if logged.is_empty() {
            return Reading { calls, ns: 0.0 };
        }
        let start = Instant::now();
        for &args in &logged {
            call(args);
        }
        let mean = start.elapsed().as_nanos() as f64 / logged.len() as f64;
        Reading {
            calls,
            ns: mean * calls as f64,
        }
    }
}

/// What an accumulator held: call count and (possibly extrapolated)
/// total nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Reading {
    pub calls: u64,
    pub ns: f64,
}

impl Reading {
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }

    pub fn plus(self, other: Reading) -> Reading {
        Reading {
            calls: self.calls + other.calls,
            ns: self.ns + other.ns,
        }
    }
}

/// Spans by duration: a phase is the root, the time its operations
/// spent inside each decorated seam are its children. A span's self
/// time is its duration minus what its direct children cover.
#[derive(Debug, Default)]
pub struct SpanTree {
    spans: Vec<Span>,
}

#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<usize>,
    ns: f64,
    calls: u64,
}

impl SpanTree {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, parent: Option<usize>, name: &str, ns: f64, calls: u64) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            ns,
            calls,
        });
        self.spans.len() - 1
    }

    pub fn self_ns(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.ns)
            .sum();
        (self.spans[id].ns - children).max(0.0)
    }

    /// `id`'s self time as a share of its root's duration.
    pub fn self_share(&self, id: usize) -> f64 {
        let mut root = id;
        while let Some(p) = self.spans[root].parent {
            root = p;
        }
        if self.spans[root].ns == 0.0 {
            0.0
        } else {
            self.self_ns(id) / self.spans[root].ns
        }
    }

    /// The share table: one line per span, indented by depth.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let mut depth = 0;
            let mut up = span.parent;
            while let Some(p) = up {
                depth += 1;
                up = self.spans[p].parent;
            }
            out.push_str(&format!(
                "{:indent$}{:<28} {:>12.3} ms  self {:>5.1} %  calls {}\n",
                "",
                span.name,
                span.ns / 1e6,
                100.0 * self.self_share(id),
                span.calls,
                indent = 2 * depth
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = SpanTree::new();
        let op = t.add(None, "insert", 1000.0, 10);
        let route = t.add(Some(op), "dht.route", 400.0, 10);
        let put = t.add(Some(op), "dht.put", 250.0, 10);
        let cache = t.add(Some(route), "dht.route.cache", 100.0, 7);
        assert_eq!(t.self_ns(op), 350.0);
        assert_eq!(t.self_ns(route), 300.0);
        assert_eq!(t.self_ns(put), 250.0);
        assert_eq!(t.self_ns(cache), 100.0);
        // Shares are of the root and sum to one over the whole tree.
        let total: f64 = (0..4).map(|id| t.self_share(id)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((t.self_share(cache) - 0.1).abs() < 1e-12);
        assert!(t.render().contains("dht.route.cache"));
    }

    #[test]
    fn children_longer_than_the_span_clamp_to_zero() {
        let mut t = SpanTree::new();
        let op = t.add(None, "op", 100.0, 1);
        t.add(Some(op), "child", 130.0, 1);
        assert_eq!(t.self_ns(op), 0.0);
    }

    #[test]
    fn sampled_accumulator_counts_all_and_extrapolates() {
        let acc = SampledAcc::every(8);
        for _ in 0..80 {
            acc.time(|| std::hint::black_box(1 + 1));
        }
        let r = acc.take();
        assert_eq!(r.calls, 80);
        assert!(r.ns >= 0.0);
        assert_eq!(acc.take().calls, 0, "take resets");
    }

    #[test]
    fn call_log_counts_all_and_reissues_the_logged() {
        let log = CallLog::default();
        for i in 0..(LOG_EVERY * 10) {
            log.note(i);
        }
        let mut reissued = Vec::new();
        let r = log.take(|i| reissued.push(i));
        assert_eq!(r.calls, LOG_EVERY * 10);
        assert_eq!(reissued.len(), 10);
        assert_eq!(reissued[0], LOG_EVERY - 1);
        assert_eq!(log.take(|_| unreachable!()).calls, 0, "take resets");
    }
}
