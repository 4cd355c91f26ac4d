//! Order statistics for timing samples.

/// A timing reported the way the benchmark prints it: the median, the
/// sample count, and the highest standard percentile that still has at
/// least ten samples beyond it (none when there are too few samples).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// First and third quartile (nearest rank).
    pub quartiles: (f64, f64),
    pub tail: Option<(f64, f64)>,
}

/// Percentiles tried for the tail, highest first.
const TAILS: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 75.0];

/// Nearest-rank percentile of an ascending slice: a measured sample, never
/// an interpolated or bucketed value. `p` is in percent.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    let n = s.len();
    let tail = TAILS
        .iter()
        .find(|&&p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
        .map(|&p| (p, percentile(&s, p)));
    Summary { n, median: median(&s), quartiles: (percentile(&s, 25.0), percentile(&s, 75.0)), tail }
}

impl Summary {
    /// `median (n=…, quartiles …, p99=…)` in the caller's unit.
    pub fn render(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p}={v:.4}"),
            None => "too few samples for a tail".to_string(),
        };
        let (q1, q3) = self.quartiles;
        format!("median {:.4} (n={}, quartiles {q1:.4}..{q3:.4}, {tail})", self.median, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_tail_choice() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        let s = summarize(&v);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(s.median, 500.5);
        assert!(summarize(&[1.0, 2.0, 3.0]).tail.is_none());
    }
}
