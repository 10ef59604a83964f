//! Sample summaries under the benchmark's reporting rules.
//!
//! A timing percentile is reported only when at least [`MIN_BEYOND`]
//! samples lie beyond it, and a failed or refused operation counts as
//! slower than every success.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Latency samples of one operation kind, in milliseconds. Failures are
/// kept as `+∞`, so they sort after every success.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    samples: Vec<f64>,
    failed: u64,
}

impl Latencies {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            samples: Vec::with_capacity(n),
            failed: 0,
        }
    }

    pub fn record(&mut self, ms: f64) {
        self.samples.push(ms);
    }

    /// A failed or refused operation: slower than every success.
    pub fn record_failure(&mut self) {
        self.samples.push(f64::INFINITY);
        self.failed += 1;
    }

    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The `q`-quantile under the ten-beyond rule.
    pub fn percentile(&self, q: f64) -> Result<f64, String> {
        percentile(&self.samples, q)
    }
}

/// Nearest-rank `q`-quantile of `xs`, refusing a percentile with fewer
/// than [`MIN_BEYOND`] samples strictly beyond its rank.
pub fn percentile(xs: &[f64], q: f64) -> Result<f64, String> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Err(format!("p{} of an empty sample", q * 100.0));
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let beyond = n - 1 - rank;
    if q < 1.0 && beyond < MIN_BEYOND {
        return Err(format!(
            "p{} from {n} samples leaves {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    Ok(sorted[rank])
}

/// Median without the ten-beyond rule (per-layer figures of small sample
/// sets); `0` for an empty set, meaning the layer did not run.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 of 1000 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&xs, 0.99).unwrap(), 990.0);
        // One sample fewer leaves nine: refused.
        assert!(percentile(&xs[..999], 0.99).is_err());
        // p99.9 needs 10 000 samples.
        assert!(percentile(&xs, 0.999).is_err());
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.999).unwrap(), 9990.0);
        assert!(percentile(&many[..9_999], 0.999).is_err());
        // The median of a small set is fine.
        assert_eq!(percentile(&xs[..21], 0.5).unwrap(), 11.0);
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn refused_request_fails_and_is_slower_than_every_success() {
        let mut lat = Latencies::default();
        for i in 0..100 {
            lat.record(1.0 + f64::from(i));
        }
        lat.record_failure();
        assert_eq!(lat.attempted(), 101);
        assert_eq!(lat.failed(), 1);
        // The failure sorts last: the maximum is infinite, not 100 ms.
        assert_eq!(lat.percentile(1.0).unwrap(), f64::INFINITY);
        // Enough failures push the median itself past every success.
        let mut bad = Latencies::default();
        for _ in 0..30 {
            bad.record(0.5);
        }
        for _ in 0..31 {
            bad.record_failure();
        }
        assert_eq!(bad.percentile(0.5).unwrap(), f64::INFINITY);
        assert_eq!(bad.failed(), 31);
    }
}
