//! Per-request latency model and percentile summaries.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A heavy-tailed per-request latency distribution.
///
/// Requests are modeled as a log-normal body with an occasional slow outlier (queueing,
/// GC pause, packet loss); the parameters are normalized so that the mean of a single request
/// is `mean_t` (the paper reports latencies in units of `t`, the average latency of a single
/// call). A multiget contacting `f` shards is charged the maximum of `f` independent draws,
/// which grows with `f`: exactly the fanout-latency dependency of Figure 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Mean latency of a single request (the unit `t` of Figure 4).
    pub mean_t: f64,
    /// Coefficient of variation of the log-normal body.
    pub body_cv: f64,
    /// Probability that a request is an outlier.
    pub outlier_probability: f64,
    /// Multiplier applied to the mean for outlier requests.
    pub outlier_multiplier: f64,
    /// Additional per-record serialization cost: a request for `r` records costs
    /// `r * per_record_cost` extra (used to study the "request size" caveat of Section 5).
    pub per_record_cost: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            mean_t: 1.0,
            body_cv: 0.4,
            outlier_probability: 0.03,
            outlier_multiplier: 8.0,
            per_record_cost: 0.0,
        }
    }
}

impl LatencyModel {
    /// Samples the latency of one request fetching `records` records.
    pub fn sample_request<R: Rng>(&self, rng: &mut R, records: usize) -> f64 {
        // Log-normal with mean 1 and the configured coefficient of variation, scaled to mean_t.
        let sigma2 = (1.0 + self.body_cv * self.body_cv).ln();
        let sigma = sigma2.sqrt();
        let mu = -sigma2 / 2.0;
        let z: f64 = standard_normal(rng);
        let mut latency = self.mean_t * (mu + sigma * z).exp();
        if rng.gen_bool(self.outlier_probability.clamp(0.0, 1.0)) {
            latency *= self.outlier_multiplier;
        }
        latency + self.per_record_cost * records as f64
    }
}

/// Draws a standard normal variate via the Box–Muller transform.
fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Percentile summary of a latency sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Mean latency.
    pub mean: f64,
    /// 50th percentile.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl LatencySummary {
    /// Computes the summary of a latency sample. Returns an all-zero summary for an empty
    /// sample.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return LatencySummary {
                count: 0,
                mean: 0.0,
                p50: 0.0,
                p90: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let pct = |q: f64| -> f64 {
            let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
            sorted[idx]
        };
        LatencySummary {
            count: samples.len(),
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            p50: pct(0.50),
            p90: pct(0.90),
            p95: pct(0.95),
            p99: pct(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_pcg::Pcg64;

    /// Latency of parallel requests for `records_per_server[i]` records each: the maximum
    /// over the requests, as the serving tier charges a multiget.
    fn sample_parallel(model: &LatencyModel, rng: &mut Pcg64, records_per_server: &[usize]) -> f64 {
        records_per_server
            .iter()
            .map(|&r| model.sample_request(rng, r))
            .fold(0.0, f64::max)
    }

    #[test]
    fn single_request_mean_is_close_to_t() {
        let model = LatencyModel {
            outlier_probability: 0.0,
            ..Default::default()
        };
        let mut rng = Pcg64::seed_from_u64(1);
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| model.sample_request(&mut rng, 1))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn query_latency_grows_with_fanout() {
        let model = LatencyModel::default();
        let mut rng = Pcg64::seed_from_u64(2);
        let mean_for = |fanout: usize, rng: &mut Pcg64| {
            let records = vec![1usize; fanout];
            (0..5_000)
                .map(|_| sample_parallel(&model, rng, &records))
                .sum::<f64>()
                / 5_000.0
        };
        let f1 = mean_for(1, &mut rng);
        let f10 = mean_for(10, &mut rng);
        let f40 = mean_for(40, &mut rng);
        assert!(
            f10 > f1 * 1.3,
            "fanout 10 ({f10}) should be well above fanout 1 ({f1})"
        );
        assert!(
            f40 > f10 * 1.2,
            "fanout 40 ({f40}) should be above fanout 10 ({f10})"
        );
    }

    #[test]
    fn per_record_cost_penalizes_skewed_requests() {
        let model = LatencyModel {
            per_record_cost: 0.01,
            outlier_probability: 0.0,
            ..Default::default()
        };
        let mut rng = Pcg64::seed_from_u64(3);
        let even: f64 = (0..5_000)
            .map(|_| sample_parallel(&model, &mut rng, &[50, 50]))
            .sum::<f64>()
            / 5_000.0;
        let skewed: f64 = (0..5_000)
            .map(|_| sample_parallel(&model, &mut rng, &[99, 1]))
            .sum::<f64>()
            / 5_000.0;
        assert!(skewed > even, "skewed {skewed} should exceed even {even}");
    }

    #[test]
    fn summary_percentiles_are_ordered() {
        let samples: Vec<f64> = (1..=1000).map(|x| x as f64).collect();
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.count, 1000);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p95 && s.p95 <= s.p99);
        assert!((s.mean - 500.5).abs() < 1e-9);
        assert!((s.p50 - 500.0).abs() <= 1.0);
        let empty = LatencySummary::from_samples(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p99, 0.0);
    }
}
