//! Deliberately nondeterministic code: every construct here must be
//! flagged by the `determinism` rule (this fixture sits on the replay
//! path, `crates/core/src`).

use std::collections::HashMap;
use std::time::{Instant, SystemTime};

/// Wall-clock reads: two findings.
pub fn wall_clock() -> bool {
    let a = Instant::now();
    let b = SystemTime::now();
    let _ = (a, b);
    true
}

/// Hash-ordered `for` iteration over a hash-typed parameter: one finding.
pub fn sum_values(scores: HashMap<u64, u64>) -> u64 {
    let mut total = 0;
    for pair in &scores {
        total += pair.1;
    }
    total
}

/// Hash-ordered method iteration through a `&mut` parameter: one finding.
pub fn drain_all(pending: &mut HashMap<u64, u64>) -> Vec<(u64, u64)> {
    pending.drain().collect()
}

/// Keyed access is fine — no finding on the `get`.
pub fn lookup(index: &HashMap<u64, u64>, key: u64) -> Option<u64> {
    index.get(&key).copied()
}

/// A fully-qualified hash type is still a hash type, as a parameter and
/// as a `let` initializer: two findings.
pub fn qualified(seen: &std::collections::HashSet<u64>) -> usize {
    let tally = std::collections::HashMap::<u64, u64>::new();
    let from_param = seen.iter().count();
    from_param + tally.values().count()
}
