//! Shared statistics: medians, quartiles and a percentile that refuses
//! to report a tail it has too few samples to see.

/// Samples a percentile must have strictly beyond it before it is
/// reported: with fewer, one outlier more or less moves the value.
pub const MIN_BEYOND: usize = 10;

/// Why [`percentile`] refused to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples given.
    pub samples: usize,
    /// Samples needed for the requested percentile.
    pub needed: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} samples, {} needed for {MIN_BEYOND} beyond the percentile",
            self.samples, self.needed
        )
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); NaN when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones a Python check computes. Needs
/// at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range, `q3 - q1`.
pub fn iqr(xs: &[f64]) -> Option<f64> {
    quartiles(xs).map(|q| q[2] - q[0])
}

/// The IQR as a share of the median: the run-to-run spread a bound is
/// compared against.
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let m = median(xs);
    iqr(xs).filter(|_| m != 0.0).map(|d| d / m.abs())
}

/// The `p`-th percentile (nearest rank) of `xs`, or a refusal when fewer
/// than [`MIN_BEYOND`] samples lie beyond it — a p99 needs 1000 samples.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    assert!((0.0..100.0).contains(&p), "percentile {p} out of range");
    let n = xs.len();
    // Smallest n with n - ceil(p/100 * n) >= MIN_BEYOND.
    let needed = (MIN_BEYOND as f64 / (1.0 - p / 100.0)).ceil() as usize;
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || n - rank.min(n) < MIN_BEYOND {
        return Err(TooFewSamples { samples: n, needed });
    }
    Ok(sorted(xs)[rank - 1])
}

/// The timings of a closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct Timings {
    /// Operations completed per second.
    pub throughput: f64,
    /// Median latency.
    pub p50: f64,
    /// 99th-percentile latency, or why it could not be reported.
    pub p99: Result<f64, TooFewSamples>,
}

/// Throughput and latency percentiles of a run. `done` holds each
/// measured operation's completion time (seconds since the window
/// opened) and latency.
///
/// Throughput is the operations completed divided by the window, which
/// closes with the last completion; p50 and p99 are taken over every
/// operation, so a slowdown in any part of the run moves them. A run
/// with fewer than 1000 operations reports no p99. `None` when no
/// operation completed after the window opened.
pub fn timings(done: &[(f64, f64)]) -> Option<Timings> {
    let window = done.iter().map(|op| op.0).fold(0.0, f64::max);
    if window <= 0.0 {
        return None;
    }
    let latencies: Vec<f64> = done.iter().map(|op| op.1).collect();
    Some(Timings {
        throughput: done.len() as f64 / window,
        p50: median(&latencies),
        p99: percentile(&latencies, 99.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `seconds` of `latency`-second operations, back to back, after
    /// those already in `done`.
    fn closed_loop(done: &mut Vec<(f64, f64)>, seconds: f64, latency: f64) {
        let mut t = done.last().map_or(0.0, |op| op.0);
        for _ in 0..(seconds / latency).round() as usize {
            t += latency;
            done.push((t, latency));
        }
    }

    #[test]
    fn timings_cover_every_operation_of_the_window() {
        // 9 s at 2 ms per operation, then a 1 s burst at 20 ms: 4500
        // fast operations and 50 slow ones.
        let mut done = Vec::new();
        closed_loop(&mut done, 9.0, 0.002);
        closed_loop(&mut done, 1.0, 0.020);
        let timings = timings(&done).unwrap();
        assert!((timings.throughput - 455.0).abs() < 1e-6, "{timings:?}");
        assert_eq!(timings.p50, 0.002);
        // The burst holds 1.1% of the operations: it sets the p99.
        assert_eq!(timings.p99, Ok(0.020));
    }

    #[test]
    fn short_runs_report_no_p99() {
        let mut short = Vec::new();
        closed_loop(&mut short, 1.5, 0.01);
        let timings = timings(&short).unwrap();
        assert!((timings.throughput - 100.0).abs() < 1e-6, "{timings:?}");
        assert_eq!(timings.p50, 0.01);
        assert_eq!(
            timings.p99,
            Err(TooFewSamples {
                samples: 150,
                needed: 1000
            })
        );
        assert_eq!(super::timings(&[(0.0, 1.0)]), None);
        assert_eq!(super::timings(&[]), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([7, 1, 5, 3], n=4) == [1.5, 4.0, 6.5]
        assert_eq!(quartiles(&[7.0, 1.0, 5.0, 3.0]), Some([1.5, 4.0, 6.5]));
        assert_eq!(iqr(&[7.0, 1.0, 5.0, 3.0]), Some(5.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_spread(&xs), Some(5.5 / 5.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Ok(990.0));
        assert_eq!(percentile(&xs, 50.0), Ok(500.0));
        let small: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&small, 50.0), Ok(10.0));
    }

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 99.0),
            Err(TooFewSamples {
                samples: 999,
                needed: 1000
            })
        );
        assert!(percentile(&[], 50.0).is_err());
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&nineteen, 50.0).is_err());
    }
}
