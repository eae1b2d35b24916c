//! Percentiles under the ten-beyond rule, and run-to-run spread.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it: p95 needs 200 samples, p99 needs 1,000. Asking for an
//! unsupported percentile is refused rather than answered from a handful
//! of tail samples.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the reporter may pick as "the highest supported", best first.
const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond quantile `q`.
pub fn supported(n: usize, q: f64) -> bool {
    // Round before comparing: 200 × (1 − 0.95) is 9.999… in binary.
    ((n as f64 * (1.0 - q)) * 1e6).round() / 1e6 >= MIN_BEYOND as f64
}

/// The highest percentile on the ladder that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&q| supported(n, q))
}

/// Nearest-rank quantile `q` of `samples`, refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn quantile(samples: &[f64], q: f64) -> Result<f64, String> {
    if !supported(samples.len(), q) {
        return Err(format!(
            "p{} needs at least {} samples beyond it; have {} samples",
            q * 100.0,
            MIN_BEYOND,
            samples.len()
        ));
    }
    Ok(nearest_rank(samples, q))
}

/// Nearest-rank quantile without the sample-count rule, for the median
/// of small per-run summaries (set-up repetitions, per-layer ratios).
pub fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5)
}

/// Arithmetic mean (zero for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Events per second as the median over `blocks` equal time blocks of
/// `span` seconds, given each event's time in seconds since the start: a
/// stall that hits part of a run moves a few blocks, not the rate.
pub fn block_rate(times: &[f64], span: f64, blocks: usize) -> f64 {
    let width = span / blocks as f64;
    let mut counts = vec![0usize; blocks];
    for &t in times {
        if let Some(c) = counts.get_mut((t / width) as usize) {
            *c += 1;
        }
    }
    median(&counts.iter().map(|&c| c as f64 / width).collect::<Vec<_>>())
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method), for the run-to-run spread.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Python clamps j before taking delta, so delta may be negative (two
    // values extrapolate); signed arithmetic keeps that.
    let m = v.len() as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, v.len() as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median (`None` below two values
/// or at a zero median).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert!(quantile(&ramp(199), 0.95).is_err());
        assert_eq!(quantile(&ramp(200), 0.95), Ok(190.0));
        assert!(quantile(&ramp(999), 0.99).is_err());
        assert_eq!(quantile(&ramp(1000), 0.99), Ok(990.0));
    }

    #[test]
    fn ten_samples_beyond_the_reported_percentile() {
        for n in [20, 100, 200, 1000, 5000] {
            let q = highest_supported(n).expect("supported");
            let v = quantile(&ramp(n), q).expect("supported quantile");
            let beyond = ramp(n).iter().filter(|&&x| x > v).count();
            assert!(beyond >= MIN_BEYOND, "n={n} q={q} beyond={beyond}");
        }
    }

    #[test]
    fn highest_supported_climbs_with_sample_count() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
    }

    #[test]
    fn median_refused_below_twenty() {
        assert!(quantile(&ramp(19), 0.5).is_err());
        assert_eq!(quantile(&ramp(20), 0.5), Ok(10.0));
    }

    #[test]
    fn block_rate_ignores_a_stalled_block() {
        // 100 events per second for 10 s, except nothing during second 3.
        let times: Vec<f64> = (0..1000)
            .map(|i| i as f64 / 100.0)
            .filter(|t| !(3.0..4.0).contains(t))
            .collect();
        assert_eq!(block_rate(&times, 10.0, 10), 100.0);
        assert!((times.len() as f64 / 10.0 - 90.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        let s = spread(&ramp(10)).expect("spread");
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }
}
