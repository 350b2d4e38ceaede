//! Order statistics for timings.
//!
//! Percentiles use the nearest-rank rule: the p-th percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(p/100 * n)`. A
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; below that, one outlier decides its value.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the report may use, highest first.
pub const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The 1-based nearest rank of percentile `p` among `n` samples. `p` is
/// taken to a tenth of a percent and the rank computed in integers, so
/// boundaries such as the 99th percentile of 1 000 samples are exact.
#[must_use]
pub fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// How many of `n` samples lie strictly beyond percentile `p`.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Whether percentile `p` of `n` samples has [`MIN_BEYOND`] samples
/// beyond it.
#[must_use]
pub fn supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest percentile of [`LADDER`] that `n` samples support.
#[must_use]
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| supported(n, p))
}

/// Nearest-rank percentile of `samples` (sorted internally).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// The median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
