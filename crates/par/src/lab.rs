//! Completion-based transport lab: submit / complete split with a
//! deterministic out-of-order scheduler.
//!
//! The synchronous [`Transport`] exchange is split in two halves: a
//! state machine *submits* a [`SendOp`] (tagged, effect-free), and the
//! [`CompletionLab`] later *completes* it — executing the wire exchange
//! via [`exec_send`] at completion time and feeding the result back into
//! the machine that issued it. Which pending send completes next is
//! drawn from a seeded scheduler RNG, so a test can replay *any*
//! permutation of completions reproducibly.
//!
//! Determinism envelope: every operation owns its RNG and
//! [`CostLedger`], scan machines keep one send outstanding at a time,
//! and store machines apply register writes that commute across owners
//! — so the permutation can change *interleaving* but never results.
//! Each [`ScanMachine`] records its own operation (`count` span opened
//! on its first step, `op.count*` metrics and span close in `finish`),
//! so [`OooEngine`] emits the same per-operation events as the in-order
//! `count_multi_via` and metric digests are directly comparable; lab
//! bookkeeping (completions delivered, reorder count) is
//! returned out-of-band in [`OooStats`] precisely because it *is*
//! permutation-dependent and must not contaminate the digest.

use crate::rng::CountingRng;
use dhs_core::machine::exec_send;
use dhs_core::{
    CountResult, Dhs, MetricId, ScanMachine, SendOp, Step, StoreMachine, Transport, TransportError,
};
use dhs_dht::cost::CostLedger;
use dhs_dht::overlay::Overlay;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One submitted send awaiting completion.
#[derive(Debug)]
pub struct Submission {
    /// Index of the operation that issued the send.
    pub source: usize,
    /// The issuing machine's completion tag.
    pub tag: u32,
    /// The wire operation to execute at completion time.
    pub op: SendOp,
}

/// The deterministic completion scheduler.
///
/// Pending submissions sit in submission order;
/// [`pop_seeded`](Self::pop_seeded) removes one at a seeded-uniform
/// position, which over a whole run replays completions in an arbitrary
/// reproducible permutation.
#[derive(Debug, Default)]
pub struct CompletionLab {
    pending: Vec<Submission>,
    completions: u64,
    reordered: u64,
}

impl CompletionLab {
    /// An empty lab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue `op` from operation `source` under the machine tag `tag`.
    pub fn submit(&mut self, source: usize, tag: u32, op: SendOp) {
        self.pending.push(Submission { source, tag, op });
    }

    /// Complete the pending send at a seeded-uniform position.
    pub fn pop_seeded(&mut self, sched: &mut impl Rng) -> Option<Submission> {
        if self.pending.is_empty() {
            return None;
        }
        let idx = sched.gen_range(0..self.pending.len());
        if idx != 0 {
            self.reordered += 1;
        }
        self.completions += 1;
        Some(self.pending.remove(idx))
    }

    /// Completions delivered so far.
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// Completions delivered out of submission order so far.
    pub fn reordered(&self) -> u64 {
        self.reordered
    }
}

/// Lab bookkeeping for one out-of-order run. Permutation-dependent by
/// design, so it travels beside the results instead of inside the
/// metric registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OooStats {
    /// Completions the lab delivered.
    pub completions: u64,
    /// Completions delivered out of submission order.
    pub reordered: u64,
}

/// One finished count operation: its per-metric results plus the exact
/// number of primitive RNG draws it consumed.
#[derive(Debug, Clone)]
pub struct CountOutcome {
    /// Per-metric results, in the order the metrics were queued.
    pub results: Vec<CountResult>,
    /// Primitive draws the operation's own RNG served.
    pub draws: u64,
}

/// One in-flight count with fully isolated effects: its own seeded
/// draw-counted RNG and its own ledger (the scan machine snapshots
/// ledger counters at construction, so sharing one would corrupt
/// per-op cost attribution under interleaving).
struct CountOp {
    machine: ScanMachine,
    rng: CountingRng<StdRng>,
    ledger: CostLedger,
}

/// Drives a batch of independent count operations with completions
/// delivered in an arbitrary seeded permutation.
///
/// Operations are queued with [`push_count`](Self::push_count) (each
/// with its own RNG seed), then [`run`](Self::run) starts every
/// machine, pools their outstanding sends in a [`CompletionLab`], and
/// completes them in scheduler order until all machines finish.
pub struct OooEngine<'a> {
    dhs: &'a Dhs,
    ops: Vec<CountOp>,
    lab: CompletionLab,
}

impl<'a> OooEngine<'a> {
    /// An engine over `dhs` with no queued operations.
    pub fn new(dhs: &'a Dhs) -> Self {
        OooEngine {
            dhs,
            ops: Vec::new(),
            lab: CompletionLab::new(),
        }
    }

    /// Queue a full (unhinted) multi-metric count from `origin`, its RNG
    /// seeded with `seed`. Returns the operation's index.
    pub fn push_count(&mut self, metrics: &[MetricId], origin: u64, seed: u64) -> usize {
        let ledger = CostLedger::new();
        self.ops.push(CountOp {
            machine: ScanMachine::new(self.dhs, metrics, origin, None, &ledger),
            rng: CountingRng::new(StdRng::seed_from_u64(seed)),
            ledger,
        });
        self.ops.len() - 1
    }

    /// Run every queued operation to completion, delivering completions
    /// in the permutation drawn from `sched`. Returns per-operation
    /// outcomes in queue order plus the lab's bookkeeping.
    pub fn run<O: Overlay, T: Transport>(
        self,
        ring: &O,
        transport: &mut T,
        sched: &mut impl Rng,
    ) -> (Vec<CountOutcome>, OooStats) {
        let OooEngine {
            mut ops, mut lab, ..
        } = self;
        // Start every machine; first steps issue the initial sends.
        for (idx, op) in ops.iter_mut().enumerate() {
            step_op(idx, op, None, ring, transport, &mut lab);
        }
        // Complete in scheduler order; each completion may issue the
        // source machine's next send.
        loop {
            let popped = lab.pop_seeded(sched);
            let Some(sub) = popped else {
                break;
            };
            let op = &mut ops[sub.source];
            let result = exec_send(&sub.op, ring, transport, &mut op.ledger);
            step_op(
                sub.source,
                op,
                Some((sub.tag, result)),
                ring,
                transport,
                &mut lab,
            );
        }
        let stats = OooStats {
            completions: lab.completions(),
            reordered: lab.reordered(),
        };
        let outcomes = ops
            .into_iter()
            .map(|op| CountOutcome {
                draws: op.rng.draws(),
                results: op.machine.finish(transport, &op.ledger),
            })
            .collect();
        (outcomes, stats)
    }
}

/// Advance one machine, pooling any sends it issues.
fn step_op<O: Overlay, T: Transport>(
    idx: usize,
    op: &mut CountOp,
    completion: Option<(u32, Result<(), TransportError>)>,
    ring: &O,
    transport: &mut T,
    lab: &mut CompletionLab,
) {
    match op
        .machine
        .step(completion, ring, transport, &mut op.rng, &mut op.ledger)
    {
        Step::Done => {}
        Step::Sends(sends) => {
            for (tag, send) in sends {
                lab.submit(idx, tag, send);
            }
        }
    }
}

/// Drive a [`StoreMachine`] with completions delivered in a seeded
/// permutation. With `window > 1` the machine keeps several owner
/// chains in flight, so the permutation genuinely interleaves primary
/// stores and replica legs across owners; chains write disjoint
/// `(holder, tuple)` cells, so any order stores the same state.
pub fn drive_store_ooo<O: Overlay, T: Transport>(
    machine: &mut StoreMachine,
    ring: &mut O,
    transport: &mut T,
    ledger: &mut CostLedger,
    sched: &mut impl Rng,
) -> OooStats {
    let mut lab = CompletionLab::new();
    let mut completion = None;
    loop {
        match machine.step(completion.take(), ring, transport, ledger) {
            Step::Done => break,
            Step::Sends(sends) => {
                for (tag, op) in sends {
                    lab.submit(0, tag, op);
                }
            }
        }
        let popped = lab.pop_seeded(sched);
        let Some(sub) = popped else {
            break;
        };
        completion = Some((sub.tag, exec_send(&sub.op, &*ring, transport, ledger)));
    }
    OooStats {
        completions: lab.completions(),
        reordered: lab.reordered(),
    }
}
