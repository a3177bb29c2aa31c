//! Identifier-circle arithmetic.
//!
//! The overlay lives on the circle `[0, 2^64)`; all interval reasoning is
//! clockwise (increasing identifiers, wrapping at `2^64`). Chord's key
//! ownership rule is: the node with the smallest identifier clockwise-≥
//! the key owns it (`successor(key)`), i.e. node `s` owns the keys in the
//! clockwise-open interval `(pred(s), s]`.

/// Clockwise distance from `a` to `b` on the `u64` circle.
///
/// `cw_distance(a, a) == 0`; otherwise it is the number of steps walking
/// clockwise (wrapping) from `a` until reaching `b`.
///
/// ```
/// use dhs_dht::cw_distance;
/// assert_eq!(cw_distance(10, 15), 5);
/// assert_eq!(cw_distance(u64::MAX, 2), 3);
/// ```
#[inline]
pub fn cw_distance(a: u64, b: u64) -> u64 {
    b.wrapping_sub(a)
}

/// Whether `x` lies in the clockwise-open interval `(from, to]`.
///
/// This is Chord's ownership test: `successor(key) == s` iff
/// `cw_contains(pred(s), s, key)`.
///
/// ```
/// use dhs_dht::cw_contains;
/// assert!(cw_contains(10, 20, 15));
/// assert!(cw_contains(10, 20, 20));
/// assert!(!cw_contains(10, 20, 10));
/// assert!(cw_contains(u64::MAX - 5, 5, 2)); // wraps
/// ```
#[inline]
pub fn cw_contains(from: u64, to: u64, x: u64) -> bool {
    if from == to {
        // Degenerate full circle: a single node owns everything.
        true
    } else {
        cw_distance(from, x) <= cw_distance(from, to) && x != from
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_wraps() {
        assert_eq!(cw_distance(0, 0), 0);
        assert_eq!(cw_distance(5, 5), 0);
        assert_eq!(cw_distance(0, u64::MAX), u64::MAX);
        assert_eq!(cw_distance(u64::MAX, 0), 1);
    }

    #[test]
    fn contains_excludes_from_includes_to() {
        assert!(!cw_contains(7, 9, 7));
        assert!(cw_contains(7, 9, 8));
        assert!(cw_contains(7, 9, 9));
        assert!(!cw_contains(7, 9, 10));
    }

    #[test]
    fn contains_wrapping_interval() {
        // (MAX-2, 3] wraps through zero.
        let from = u64::MAX - 2;
        assert!(cw_contains(from, 3, u64::MAX));
        assert!(cw_contains(from, 3, 0));
        assert!(cw_contains(from, 3, 3));
        assert!(!cw_contains(from, 3, 4));
        assert!(!cw_contains(from, 3, from));
    }

    #[test]
    fn degenerate_full_circle() {
        // from == to means "the whole ring belongs to this node".
        assert!(cw_contains(5, 5, 5));
        assert!(cw_contains(5, 5, 0));
        assert!(cw_contains(5, 5, u64::MAX));
    }
}
