//! Order statistics over measured samples.

/// The nearest-rank `q`-quantile of `samples` (`0 < q <= 1`): the smallest
/// sample with at least a `q` share of the samples at or below it. `NaN`
/// for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle samples for an even count). `NaN`
/// for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The mean of the middle half of `samples` (the interquartile mean).
/// Count phases on two shared cores settle at a fast or a slow latency
/// level; a median jumps between the two with the share of slow phases,
/// this moves in proportion to it, and outlying phases still drop out.
/// `NaN` for an empty slice.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = sorted.len() / 4;
    let middle = &sorted[quarter..sorted.len() - quarter];
    middle.iter().sum::<f64>() / middle.len() as f64
}
