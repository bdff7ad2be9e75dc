//! Order statistics over cycle samples, and the disturbed-cycle filter.

/// Median of `v`: the mean of the sorted samples between the 49th and the
/// 51st percentile. Up to fifty samples that is the textbook median (the
/// middle value, or the mean of the two middle values); over tens of
/// thousands of cycles timed by a nanosecond clock it keeps the result
/// from snapping to one clock tick. `NaN` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let band = &s[n * 49 / 100..(n * 51).div_ceil(100)];
    band.iter().sum::<f64>() / band.len() as f64
}

/// The tail of a sample: the value at the highest whole percentile, at
/// most `cap`, that still has at least ten samples beyond it. Returns
/// `(percentile, value)`, or `None` when even the 50th has fewer than ten
/// beyond it.
pub fn tail(v: &[f64], cap: u32) -> Option<(u32, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (50..=cap).rev().find_map(|p| {
        // Index of the p-th percentile (nearest rank), and how many
        // samples lie strictly beyond it.
        let rank = (n * p as usize).div_ceil(100).max(1);
        (n - rank >= 10).then(|| (p, s[rank - 1]))
    })
}

/// How far over the run's floor a cycle's reference timing may be. On the
/// build host the undisturbed timings spread from 0.95 to 1.2 times the
/// floor (the loop runs right after a cycle that emptied the cache, and
/// which node wrote matters), the disturbed ones start at 1.3.
const QUIET_SPREAD: f64 = 1.20;

/// The reference timing up to which a cycle of this run counts as
/// undisturbed. `reference` holds, for every cycle of the run, the larger
/// of the two timings of the reference loop taken before and after it.
/// The floor is their 2nd percentile (not the minimum, which one lucky
/// sample sets) and the limit is `QUIET_SPREAD` times that. Where that
/// would keep fewer than `min_kept` cycles, the limit is the `min_kept`-th
/// quietest cycle's timing instead: on a machine that was disturbed nearly
/// throughout, the run reports its quietest cycles and does not fail.
/// `NaN` for an empty slice.
pub fn quiet_limit(reference: &[f64], min_kept: usize) -> f64 {
    let mut s = reference.to_vec();
    s.sort_by(f64::total_cmp);
    let Some(&floor) = s.get(s.len() / 50) else { return f64::NAN };
    let quietest = s[min_kept.clamp(1, s.len()) - 1];
    (floor * QUIET_SPREAD).max(quietest)
}

/// Which cycles ran undisturbed: those whose reference timing is within
/// `limit`. Nothing is rescaled — a disturbed cycle is dropped whole.
pub fn quiet_cycles(reference: &[f64], limit: f64) -> Vec<bool> {
    reference.iter().map(|&r| r <= limit).collect()
}

/// `v` restricted to the cycles marked kept.
pub fn keep(v: &[f64], kept: &[bool]) -> Vec<f64> {
    v.iter().zip(kept).filter(|(_, &k)| k).map(|(&x, _)| x).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1..=1000 is 990, with exactly ten values beyond it.
        assert_eq!(tail(&v, 99), Some((99, 990.0)));
        // 999 samples cannot support p99 (only 9 beyond rank 990).
        assert_eq!(tail(&v[..999], 99), Some((98, 980.0)));
        // 100 samples: p90 is the highest with ten beyond.
        assert_eq!(tail(&v[..100], 99), Some((90, 90.0)));
        // 19 samples: nothing from p50 up has ten beyond.
        assert_eq!(tail(&v[..19], 99), None);
        assert_eq!(tail(&v[..20], 99), Some((50, 10.0)));
    }

    #[test]
    fn quiet_limit_is_a_fifth_over_the_second_percentile() {
        let v: Vec<f64> = (1..=100).rev().map(|i| 100.0 + f64::from(i)).collect();
        assert_eq!(quiet_limit(&v, 0), 103.0 * 1.2);
        assert_eq!(quiet_limit(&[7.0], 0), 7.0 * 1.2);
        assert!(quiet_limit(&[], 0).is_nan());
    }

    #[test]
    fn quiet_limit_stretches_to_the_quietest_cycles_asked_for() {
        // Ten undisturbed cycles among a hundred: the floor is the third
        // quietest of them.
        let mut v = vec![30.0; 100];
        for (i, r) in v[..10].iter_mut().enumerate() {
            *r = 20.0 + i as f64 / 10.0;
        }
        assert_eq!(quiet_limit(&v, 0), 20.2 * 1.2);
        assert_eq!(quiet_limit(&v, 10), 20.2 * 1.2);
        assert_eq!(quiet_limit(&v, 11), 30.0);
        // Never past the slice.
        assert_eq!(quiet_limit(&v[..3], 50), 20.0 * 1.2);
    }

    #[test]
    fn quiet_filter_drops_only_disturbed_cycles() {
        // Two regimes, 20 and 29, and one preempted cycle.
        let reference = [20.0, 20.5, 21.0, 24.1, 19.8, 40.0, 20.2, 29.0, 29.5];
        let kept = quiet_cycles(&reference, 24.0);
        assert_eq!(kept, [true, true, true, false, true, false, true, false, false]);
        assert_eq!(
            keep(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], &kept),
            [1.0, 2.0, 3.0, 5.0, 7.0]
        );
    }
}
