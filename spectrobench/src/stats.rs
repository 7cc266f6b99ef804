//! Order statistics and the metric-name rule.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the sample cannot support it.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `samples` (NaN-free by construction; infinities sort
/// last).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0 < q < 1) by nearest rank, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie above that rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// The median (mean of the middle pair for even counts), `None` when
/// empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean, `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Whether `name` is a valid metric or workload name: 1–64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok_char)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond rank 990.
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Some(990.0));
        // One sample fewer leaves only 9 beyond the p99 rank.
        assert_eq!(percentile(&samples[..999], 0.99), None);
        // p50 of 20 samples has 10 beyond it.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn misses_sort_above_every_served_latency() {
        let mut samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        for s in samples.iter_mut().take(20) {
            *s = f64::INFINITY;
        }
        assert_eq!(percentile(&samples, 0.99), Some(f64::INFINITY));
        assert!(percentile(&samples, 0.5).is_some_and(f64::is_finite));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn metric_and_workload_names_follow_the_rule() {
        for ok in [
            "setup_s",
            "low.latency_p50_ms",
            "ms-sim.calibration_s",
            "serve-poisson",
            "9a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "-x", "a b", "a/b", "a:b", "ü", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
