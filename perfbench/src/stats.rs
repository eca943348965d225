//! Sampling and summary arithmetic: the seeded RNG, the Zipf key sampler,
//! the open-loop schedule, and the quantile rule.

use std::time::Duration;

/// SplitMix64: a small seeded generator, so the benchmark's inputs depend
/// on `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
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
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A fixed-rate open-loop schedule: frame `i` is due `i × interval` after
/// the phase starts, whatever happened to earlier frames.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub interval: Duration,
    pub frames: usize,
}

impl Schedule {
    /// `rows_per_s` offered in frames of `rows_per_frame` rows for `secs`.
    pub fn new(rows_per_s: f64, rows_per_frame: usize, secs: f64) -> Self {
        let frames_per_s = rows_per_s / rows_per_frame as f64;
        Self {
            interval: Duration::from_secs_f64(1.0 / frames_per_s),
            frames: (frames_per_s * secs).round().max(1.0) as usize,
        }
    }

    /// Offset of frame `i` from the phase start.
    pub fn due(&self, i: usize) -> Duration {
        self.interval * i as u32
    }
}

/// Nearest-rank quantile `q` of an ascending-sorted sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the candidate quantiles (given in descending order) that
/// leaves at least ten samples beyond it, or `None` if even the lowest does
/// not.
pub fn supported_quantile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .find(|&q| n as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// Quantile candidates for a latency tail, highest first.
pub const TAIL_CANDIDATES: [f64; 4] = [0.99, 0.95, 0.9, 0.5];

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Sorts a sample in place and returns it, for the quantile helpers.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_frequencies_follow_the_harmonic_law() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(3);
        let mut counts = vec![0usize; 100];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        let h: f64 = (1..=100).map(|r| 1.0 / r as f64).sum();
        for (r, &c) in counts.iter().enumerate().take(5) {
            let want = draws as f64 / ((r + 1) as f64 * h);
            assert!(
                (c as f64 - want).abs() < 0.05 * want,
                "rank {r}: {c} vs {want}"
            );
        }
        // Rank 0 is drawn about twice as often as rank 1, ten times rank 9.
        let r01 = counts[0] as f64 / counts[1] as f64;
        assert!((r01 - 2.0).abs() < 0.1, "{r01}");
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let z = Zipf::new(1000, 1.0);
        let a: Vec<usize> = {
            let mut r = Rng::new(9);
            (0..50).map(|_| z.sample(&mut r)).collect()
        };
        let b: Vec<usize> = {
            let mut r = Rng::new(9);
            (0..50).map(|_| z.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&k| k < 1000));
    }

    #[test]
    fn schedule_arithmetic() {
        // 2000 rows/s in single-row frames for 3 s: 6000 frames 500 µs apart.
        let s = Schedule::new(2000.0, 1, 3.0);
        assert_eq!(s.frames, 6000);
        assert_eq!(s.interval, Duration::from_micros(500));
        assert_eq!(s.due(4), Duration::from_millis(2));
        // 1600 rows/s in 32-row frames: 50 frames/s, 20 ms apart.
        let b = Schedule::new(1600.0, 32, 2.0);
        assert_eq!(b.frames, 100);
        assert_eq!(b.interval, Duration::from_millis(20));
        assert_eq!(b.due(99), Duration::from_millis(1980));
    }

    #[test]
    fn quantile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_quantile(1000, &TAIL_CANDIDATES), Some(0.99));
        assert_eq!(supported_quantile(999, &TAIL_CANDIDATES), Some(0.95));
        assert_eq!(supported_quantile(200, &TAIL_CANDIDATES), Some(0.95));
        assert_eq!(supported_quantile(199, &TAIL_CANDIDATES), Some(0.9));
        assert_eq!(supported_quantile(20, &TAIL_CANDIDATES), Some(0.5));
        assert_eq!(supported_quantile(19, &TAIL_CANDIDATES), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
