//! Sample statistics: nearest-rank percentiles and the reporting rule
//! "median plus the highest percentile with at least ten samples beyond
//! it", always with the sample count.

/// Percentile levels the tail rule chooses from, highest first.
const TAIL_LEVELS: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank of percentile `p` among `n` samples (1-based; the small
/// slack keeps `0.999 * 10000` from rounding up past 9990).
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted` samples.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p).min(sorted.len()) - 1]
}

/// Samples strictly beyond percentile `p` by nearest rank.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The highest tail level with at least [`MIN_BEYOND`] samples beyond it.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A latency distribution as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// Highest level with ten samples beyond it, and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary {
            n: samples.len(),
            p50: percentile(&samples, 50.0),
            p99: percentile(&samples, 99.0),
            tail: tail_level(samples.len()).map(|p| (p, percentile(&samples, p))),
        }
    }

    /// "p50 1.234 ms, p99.9 5.678 ms (n=12000)".
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(", p{p} {v:.4} {unit}"),
            None => ", no percentile has 10 samples beyond it".to_string(),
        };
        format!("p50 {:.4} {unit}{tail} (n={})", self.p50, self.n)
    }
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Time `items` items pass after pass: at least `min_passes` passes, and
/// more while another pass (as long as the last) still ends within
/// `seconds`. `time_item(pass, k)` runs item `k` and returns its time.
/// Returns each item's fastest time and the passes run.
///
/// Noise on a shared host only ever adds time, and its slow spells last
/// about a second, so the minimum over passes taken seconds apart is the
/// steadiest estimate of an item's own cost.
pub fn min_over_passes(
    items: usize,
    min_passes: usize,
    seconds: f64,
    mut time_item: impl FnMut(usize, usize) -> f64,
) -> (Vec<f64>, usize) {
    let start = std::time::Instant::now();
    let mut best = vec![f64::INFINITY; items];
    let mut passes = 0;
    let mut last_pass = 0.0;
    while passes < min_passes || start.elapsed().as_secs_f64() + last_pass <= seconds {
        let pass_start = std::time::Instant::now();
        for (k, b) in best.iter_mut().enumerate() {
            *b = b.min(time_item(passes, k));
        }
        last_pass = pass_start.elapsed().as_secs_f64();
        passes += 1;
    }
    (best, passes)
}

/// Element-wise minimum across equally long sample rows.
pub fn min_rows(rows: &[Vec<f64>]) -> Vec<f64> {
    let n = rows.first().map_or(0, Vec::len);
    (0..n)
        .map(|i| rows.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 99 samples: p90 leaves 9 beyond, too few.
        assert_eq!(tail_level(99), None);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(999), Some(90.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_level(1000), Some(99.0));
        assert_eq!(tail_level(10_000), Some(99.9));
        assert_eq!(tail_level(100_000), Some(99.99));
    }

    #[test]
    fn summary_reports_count_and_tail() {
        let s = Summary::of((0..1000).rev().map(f64::from).collect());
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.p99, 989.0);
        assert_eq!(s.tail, Some((99.0, 989.0)));
        assert!(s.describe("ms").contains("n=1000"));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn min_over_passes_keeps_each_items_fastest_time() {
        let (best, passes) = min_over_passes(3, 3, 0.0, |pass, k| (10 * k + 3 - pass) as f64);
        assert_eq!(passes, 3);
        assert_eq!(best, vec![1.0, 11.0, 21.0]);
        let rows = vec![vec![1.0, 9.0], vec![5.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(min_rows(&rows), vec![1.0, 2.0]);
    }
}
