//! Sample statistics under the reporting rule: a timing is reported as
//! its median and as tail percentiles only when at least
//! [`MIN_BEYOND`] samples lie beyond the percentile.

use std::time::Duration;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th quantile (0 < p < 1) of `sorted` by the nearest-rank
/// definition, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it. The median (p = 0.5) is reported from any non-empty set.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    if p > 0.5 && beyond < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of an unsorted sample set (lower middle for an even
/// count), or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples), 0.5)
}

/// The mean of a sample set, or `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// A sorted copy.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Milliseconds, with every digit kept.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds, with every digit kept.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `work` on a newly spawned thread and waits for it. The two
/// cores of a shared virtual machine can run at different speeds for
/// seconds at a time, and a long-lived thread tends to stay on one of
/// them; starting each block of measured work on a fresh thread lets
/// the scheduler place it anew, so one run samples both cores.
pub fn on_fresh_thread<R: Send>(work: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| {
        scope
            .spawn(work)
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // 1000 samples: rank 990, so samples 991..=1000 lie beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(2000), 0.99), Some(1980.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
    }

    #[test]
    fn median_is_reported_from_any_nonempty_set() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn means_are_reported_from_any_nonempty_set() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[7.0]), Some(7.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn out_of_range_quantiles_are_refused() {
        assert_eq!(percentile(&ramp(5000), 1.0), None);
        assert_eq!(percentile(&ramp(5000), -0.1), None);
    }
}
