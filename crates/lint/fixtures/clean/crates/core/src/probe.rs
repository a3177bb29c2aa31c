//! Fixture: a file that satisfies every rule.

use dhs_obs::names;

/// RNG threaded through parameters all the way down; metric names from
/// the canonical table, spelled as a path or as a registered literal.
pub fn count_nodes(rng: &mut impl Rng, rec: &mut dyn Recorder, m: u64) -> u64 {
    rec.incr(names::OP_INSERT, 1);
    rec.observe("latency.ticks", m);
    (0..m).map(|_| draw_node(rng, m)).sum::<u64>() / m.max(1)
}

fn draw_node(rng: &mut impl Rng, m: u64) -> u64 {
    rng.gen_range(0..m)
}

/// Strings outside recorder calls are none of the lint's business.
pub fn label() -> &'static str {
    "not.a.metric"
}

// dhs-flow: cycle-ok(depth halves every call)
fn bisect(lo: u64, hi: u64) -> u64 {
    if hi - lo <= 1 {
        lo
    } else {
        bisect(lo, (lo + hi) / 2)
    }
}
