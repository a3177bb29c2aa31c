//! Order statistics the report and the comparison are built on.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one round.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=100) of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-op median over same-seed replays: `replays[r][i]` is op `i`'s
/// latency in replay `r`. A stall that hits one replay of an op is
/// dropped, so the percentiles of the result are the program's tail,
/// not the host's.
pub fn per_op_median(replays: &[Vec<u64>]) -> Vec<u64> {
    let ops = replays.first().map_or(0, Vec::len);
    (0..ops)
        .map(|i| {
            let mut col: Vec<u64> = replays.iter().map(|r| r[i]).collect();
            col.sort_unstable();
            col[(col.len() - 1) / 2]
        })
        .collect()
}

/// SplitMix64 finalizer: derives independent sub-seeds from `--seed`.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 500);
        assert_eq!(percentile_sorted(&v, 99.0), 990);
        assert_eq!(percentile_sorted(&v, 100.0), 1000);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }

    #[test]
    fn per_op_median_drops_a_stall() {
        let replays = vec![vec![10, 20, 900], vec![11, 800, 31], vec![700, 21, 30]];
        assert_eq!(per_op_median(&replays), vec![11, 21, 31]);
        assert_eq!(per_op_median(&[vec![5, 6]]), vec![5, 6]);
        // Two replays: the lower one.
        assert_eq!(per_op_median(&[vec![5, 60], vec![50, 6]]), vec![5, 6]);
    }
}
