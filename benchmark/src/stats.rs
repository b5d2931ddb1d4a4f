//! Order statistics over finite samples. Everything sorts with
//! `total_cmp` after dropping non-finite values, so a NaN can neither
//! panic a sort nor land in a reported metric.

/// Finite samples, ascending.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks; 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    let Some(&last) = v.last() else { return 0.0 };
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    match v.get(lo + 1) {
        Some(&hi) => v[lo] + frac * (hi - v[lo]),
        None => last,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    let v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median with the first and third quartile beside it — how every
/// per-block metric is summarised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

pub fn quartiles(samples: &[f64]) -> Quartiles {
    Quartiles {
        q1: percentile(samples, 25.0),
        median: percentile(samples, 50.0),
        q3: percentile(samples, 75.0),
    }
}

/// Cut `rounds` consecutive rounds into at most `blocks` consecutive
/// groups of near-equal size; returns `[start, end)` round ranges. Blocks
/// end on round boundaries so each holds the same input mix.
pub fn block_ranges(rounds: usize, blocks: usize) -> Vec<(usize, usize)> {
    let nb = blocks.min(rounds);
    (0..nb)
        .map(|i| (i * rounds / nb, (i + 1) * rounds / nb))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_hand_computed_vector() {
        // Sorted: 1 2 3 4 10. rank(p90) = 0.9 * 4 = 3.6 → 4 + 0.6 * 6.
        let v = [10.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert!((percentile(&v, 90.0) - 7.6).abs() < 1e-12);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn non_finite_samples_are_dropped_not_sorted() {
        let v = [f64::NAN, 2.0, f64::INFINITY, 1.0, 3.0];
        assert_eq!(median(&v), 2.0);
        assert_eq!(mean(&v), 2.0);
        assert_eq!(percentile(&[f64::NAN], 50.0), 0.0);
    }

    #[test]
    fn blocks_tile_the_rounds() {
        assert_eq!(block_ranges(3, 5), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(
            block_ranges(11, 5),
            vec![(0, 2), (2, 4), (4, 6), (6, 8), (8, 11)]
        );
        assert!(block_ranges(0, 5).is_empty());
    }
}
