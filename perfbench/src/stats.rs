//! Order statistics over small sample sets, and quantiles of `shp_telemetry` histograms.

use shp_telemetry::histogram::SUB_BITS;

/// Quantile `q ∈ [0, 1]` by linear interpolation between closest ranks (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// The `q` quantile of a `shp_telemetry` histogram given as `(exclusive upper edge,
/// cumulative count)` per non-empty bucket (`Histogram::cumulative_buckets`,
/// `HistogramSnapshot::buckets`), with the samples of its bucket taken as evenly spread
/// across it. The histograms' own `quantile` returns a bucket edge, so a steady figure
/// would read the same on every run. NaN when empty.
pub fn histogram_quantile(buckets: &[(f64, u64)], q: f64) -> f64 {
    let Some(&(_, count)) = buckets.last() else {
        return f64::NAN;
    };
    let rank = q.clamp(0.0, 1.0) * count.saturating_sub(1) as f64;
    let mut below = 0;
    for &(upper, cumulative) in buckets {
        if cumulative as f64 > rank {
            // Bucket edges carry SUB_BITS mantissa bits; the lower edge is the previous one.
            let shift = 52 - SUB_BITS;
            let lower = f64::from_bits(((upper.to_bits() >> shift) - 1) << shift);
            let within = (rank - below as f64 + 0.5) / (cumulative - below) as f64;
            return lower + (upper - lower) * within;
        }
        below = cumulative;
    }
    unreachable!("the last bucket holds every sample")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn histogram_quantiles_lie_within_a_bucket_of_the_samples() {
        let h = shp_telemetry::Histogram::new();
        for v in 1..=10_000 {
            h.record(v as f64 / 100.0);
        }
        let buckets = h.cumulative_buckets();
        let p50 = histogram_quantile(&buckets, 0.5);
        let p99 = histogram_quantile(&buckets, 0.99);
        assert!((p50 / 50.0 - 1.0).abs() < 0.016, "{p50}");
        assert!((p99 / 99.0 - 1.0).abs() < 0.016, "{p99}");
        assert!(histogram_quantile(&[], 0.5).is_nan());
    }
}
