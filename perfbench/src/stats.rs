//! Order statistics over the samples one run collects.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Interquartile mean of `values` (sorted in place): the mean of the
/// middle half. Robust to a few outlying windows, like a median, but it
/// moves smoothly when a run mixes a fast and a slow stretch of host
/// time, where a median jumps between the two.
pub fn iqm(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let (lo, hi) = (n / 4, n - n / 4);
    let mid = &values[lo..hi.max(lo + 1).min(n)];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Latency samples in nanoseconds, summarised in microseconds.
#[derive(Default)]
pub struct Latencies {
    ns: Vec<u64>,
}

impl Latencies {
    pub fn record(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn extend(&mut self, other: Latencies) {
        self.ns.extend(other.ns);
    }

    /// Samples that are not failures (`u64::MAX`).
    pub fn answered(&self) -> usize {
        self.ns.iter().filter(|&&x| x != u64::MAX).count()
    }

    /// The `q`-quantile in microseconds, as the mean of the samples
    /// ranked within half a percentile of it (at least the one
    /// nearest-rank sample): steadier than a single order statistic,
    /// and not stuck on whole nanoseconds.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.ns.sort_unstable();
        let n = self.ns.len();
        if n == 0 {
            return f64::NAN;
        }
        let rank = |q: f64| ((q * n as f64).ceil() as usize).clamp(1, n);
        let (lo, hi) = (rank(q - 0.005), rank(q + 0.005));
        let window = &self.ns[lo - 1..hi];
        window.iter().map(|&x| x as f64).sum::<f64>() / window.len() as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(iqm(&mut [100.0, 2.0, 3.0, 1.0]), 2.5);
        assert_eq!(iqm(&mut [7.0]), 7.0);
    }

    #[test]
    fn latency_quantiles_average_a_window() {
        let mut l = Latencies::default();
        for ns in 1..=100u64 {
            l.record(ns * 1000);
        }
        // Ranks 50..=51 and 99..=100 (q ± 0.005 of 100 samples).
        assert_eq!(l.quantile_us(0.5), 50.5);
        assert_eq!(l.quantile_us(0.99), 99.5);
    }
}
