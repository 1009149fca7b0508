//! The benchmark's own arithmetic: medians, percentiles and how much
//! worse one value is than another. Kept apart from the
//! workloads so `cargo test` can pin it without running anything.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in 0..=100.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile, capped at p99, that still has at least ten
/// samples beyond it; the median when no higher one qualifies. A tail
/// read off fewer than ten samples is the luck of one run, not a
/// property of the program.
pub fn tail_percentile(samples: usize) -> f64 {
    if samples < 20 {
        return 50.0;
    }
    (100.0 * (samples - 10) as f64 / samples as f64).clamp(50.0, 99.0)
}

/// By what share of `base` the value `new` is *worse* (negative when
/// it is better).
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(50_000), 99.0);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(2.0, 3.0, Better::Lower) - 0.5).abs() < 1e-12);
        assert!((worsening(2.0, 3.0, Better::Higher) + 0.5).abs() < 1e-12);
        assert!(worsening(1.0, 0.5, Better::Lower) < 0.0, "an improvement is negative");
        assert!((worsening(100.0, 89.0, Better::Higher) - 0.11).abs() < 1e-12);
    }
}
