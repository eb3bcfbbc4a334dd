//! Exact latency recording: every sample is kept (in nanoseconds) and
//! percentiles are read from the sorted samples, so there is no bucket
//! error at all.

#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn record(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn merge(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn mean_us(&self) -> Option<f64> {
        let sum: u128 = self.0.iter().map(|&v| u128::from(v)).sum();
        (!self.0.is_empty()).then(|| sum as f64 / self.0.len() as f64 / 1e3)
    }

    /// The `p` quantile (nearest rank) in microseconds.
    pub fn quantile_us(&self, p: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1] as f64 / 1e3)
    }

    /// The `p` quantile only when at least ten samples lie beyond it;
    /// otherwise the highest quantile that has ten, with its level. A tail
    /// read from fewer samples is no tail.
    pub fn tail_us(&self, p: f64) -> Option<(f64, f64)> {
        let n = self.0.len() as f64;
        if n < 40.0 {
            return None;
        }
        let supported = 1.0 - 10.0 / n;
        let level = p.min(supported);
        self.quantile_us(level).map(|v| (level, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_need_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 1..=1000 {
            s.record(i * 1000);
        }
        assert_eq!(s.quantile_us(0.5), Some(500.0));
        assert_eq!(s.tail_us(0.99), Some((0.99, 990.0)));
        let mut few = Samples::default();
        for i in 1..=200 {
            few.record(i * 1000);
        }
        let (level, _) = few.tail_us(0.99).unwrap();
        assert!((level - 0.95).abs() < 1e-9);
    }
}
