//! Seeded randomness and the percentile arithmetic every metric uses.

use std::time::{Duration, Instant};

/// SplitMix64: small, seedable, and the same sequence on every host, so a
/// seed fixes every input the benchmark generates.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponentially distributed with the given mean: Poisson gaps.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// An independent stream derived from this one (one per thread or
    /// phase, so adding a phase does not shift another's inputs).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

/// Nearest-rank percentile of an ascending slice: the `ceil(q·n)`-th
/// smallest value (the smallest for `q = 0`).
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    nearest_rank(&sorted, q)
}

/// Median of a small set of measurements (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() as f64 * 0.5).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sleep until this close to a deadline, then spin: a sleep alone
/// overshoots by the kernel's timer slack.
const SPIN: Duration = Duration::from_micros(80);

/// Return at `deadline`, with a hot CPU, as a waiting client would.
pub fn wait_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now + SPIN {
        std::thread::sleep(deadline - now - SPIN);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Linear sub-buckets per power of two: a recorded value is known to
/// within 1/256 of itself.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
/// Values are nanoseconds; anything above ~2^36 ns (68 s) clamps.
const MAX_VALUE: u64 = (1 << 36) - 1;

/// A log-linear histogram of nanosecond samples (HdrHistogram-style).
/// Its memory is fixed however many requests a run completes, so the
/// workload's peak RSS does not follow its throughput.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; index(MAX_VALUE) + 1],
            total: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((u64::from(shift + 1) << SUB_BITS) + ((v >> shift) - SUB)) as usize
}

/// The smallest value that lands in bucket `i`, and the bucket's width.
fn bucket(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = (i >> SUB_BITS) - 1;
    (((i & (SUB - 1)) + SUB) << shift, 1 << shift)
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[index(v.min(MAX_VALUE))] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        // Only touch occupied buckets: untouched pages of a fresh
        // histogram stay out of the resident set.
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            if b != 0 {
                *a += b;
            }
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile. Within a bucket wider than one, its
    /// samples are taken as evenly spread across it.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.total > 0, "percentile of an empty histogram");
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (low, width) = bucket(i);
                if width == 1 {
                    return low as f64;
                }
                let within = (rank - seen) as f64 - 0.5;
                return low as f64 + width as f64 * within / c as f64;
            }
            seen += c;
        }
        unreachable!("rank is at most the total count")
    }
}

/// Latencies and completed rows in fixed windows of a run. The run's
/// figures are medians over its windows, so a stall that a shared host
/// imposes on one window moves that window, not the result.
#[derive(Debug, Clone)]
pub struct Windowed {
    width: Duration,
    hists: Vec<Hist>,
    rows: Vec<u64>,
}

/// Window width: every workload completes at least a thousand requests
/// per window, so each window's p99 has ten samples beyond it.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Parts of a `--trace 0` run, each with its own set-up and teardown.
pub const SEGMENTS: usize = 10;

impl Windowed {
    /// Windows of [`WINDOW`] covering `seconds` (at least one).
    pub fn new(seconds: f64) -> Self {
        let count = ((seconds / WINDOW.as_secs_f64()).floor() as usize).max(1);
        Windowed {
            width: WINDOW.min(Duration::from_secs_f64(seconds)),
            hists: (0..count).map(|_| Hist::default()).collect(),
            rows: vec![0; count],
        }
    }

    /// A request that completed `at` after the run's start. Completions
    /// after the last full window count only towards the tally.
    pub fn record(&mut self, at: Duration, latency_ns: u64, rows: u64) {
        let w = (at.as_nanos() / self.width.as_nanos()) as usize;
        if let (Some(h), Some(r)) = (self.hists.get_mut(w), self.rows.get_mut(w)) {
            h.record(latency_ns);
            *r += rows;
        }
    }

    /// Add another run segment's windows after these.
    pub fn append(&mut self, other: Windowed) {
        self.hists.extend(other.hists);
        self.rows.extend(other.rows);
    }

    pub fn merge(&mut self, other: &Windowed) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            *a += b;
        }
    }

    /// Median over windows of each window's `q` latency percentile (ns).
    pub fn latency(&self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .hists
            .iter()
            .filter(|h| h.count() > 0)
            .map(|h| h.quantile(q))
            .collect();
        if per.is_empty() {
            f64::NAN
        } else {
            median(&per)
        }
    }

    /// Median over windows of completed rows per second.
    pub fn throughput(&self) -> f64 {
        let per: Vec<f64> = self
            .rows
            .iter()
            .map(|&r| r as f64 / self.width.as_secs_f64())
            .collect();
        median(&per)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_takes_the_ceil_q_n_th_smallest() {
        let one_to_hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&one_to_hundred, 0.50), 50);
        assert_eq!(nearest_rank(&one_to_hundred, 0.99), 99);
        assert_eq!(nearest_rank(&one_to_hundred, 0.995), 100);
        assert_eq!(nearest_rank(&one_to_hundred, 1.0), 100);
        assert_eq!(nearest_rank(&one_to_hundred, 0.0), 1);
        // No interpolation: with four samples the median is the second.
        assert_eq!(percentile(&[40, 10, 30, 20], 0.5), 20);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn histogram_matches_exact_nearest_rank_within_its_resolution() {
        let mut rng = Rng::new(7);
        let samples: Vec<u64> = (0..20_000)
            .map(|_| (rng.exp(80_000.0) as u64) + 500)
            .collect();
        let mut hist = Hist::default();
        for &s in &samples {
            hist.record(s);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = percentile(&samples, q) as f64;
            let approx = hist.quantile(q);
            assert!(
                (approx - exact).abs() <= exact / SUB as f64,
                "q={q}: {approx} vs {exact}"
            );
        }
        // Small values are exact.
        let mut small = Hist::default();
        for v in [3, 1, 2, 200] {
            small.record(v);
        }
        assert_eq!(small.quantile(0.5), 2.0);
        assert_eq!(small.quantile(1.0), 200.0);
    }

    #[test]
    fn windows_report_the_median_window() {
        let mut w = Windowed::new(1.5);
        for (sec, latency, rows) in [(0.2, 10, 1), (0.7, 20, 2), (0.8, 20, 2), (1.2, 90, 3)] {
            w.record(Duration::from_secs_f64(sec), latency, rows);
        }
        // Past the last full window: ignored.
        w.record(Duration::from_secs_f64(1.6), 1, 100);
        assert_eq!(w.latency(0.5), 20.0);
        assert_eq!(w.throughput(), 6.0);
    }

    #[test]
    fn buckets_tile_the_value_range() {
        for v in [
            0,
            1,
            SUB - 1,
            SUB,
            SUB + 1,
            2 * SUB,
            12_345,
            1 << 30,
            MAX_VALUE,
        ] {
            let (low, width) = bucket(index(v));
            assert!(
                low <= v && v < low + width,
                "{v} outside [{low}, {low}+{width})"
            );
        }
    }
}
