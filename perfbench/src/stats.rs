//! Sample statistics, the seeded input generator and the metric list.

use arbalest_obs::{bucket_upper_bound, HistSnapshot};

/// Nearest-rank `q`-quantile of a sample (0.0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Ops per window of the windowed figures: the nearest-rank p99 of 1000
/// ops leaves 10 samples beyond it.
pub const WINDOW_OPS: usize = 1000;

/// Throughput and latency of a sequential op loop, read over consecutive
/// windows of `WINDOW_OPS` ops, each window a full mix of the ops. On a
/// shared 2-vCPU host, time stolen by other guests comes in episodes of
/// seconds that slow whole windows by up to 2x, so each figure is the
/// first quartile (nearest rank) of the windows' own figures, from the
/// fast side: it reads the least-disturbed quarter of the run. `ends[i]`
/// is the time op `i` completed, in seconds since the loop started. Ops
/// past the last whole window are left out; a loop shorter than one
/// window is one window. Returns (ops/s, p50 ms, p99 ms).
pub fn windowed(op_ms: &[f64], ends: &[f64]) -> (f64, f64, f64) {
    let per = WINDOW_OPS.min(op_ms.len()).max(1);
    let (mut s_per_op, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for (w, lat) in op_ms.chunks_exact(per).enumerate() {
        let from = if w == 0 { 0.0 } else { ends[w * per - 1] };
        s_per_op.push((ends[(w + 1) * per - 1] - from) / per as f64);
        p50.push(median(lat));
        p99.push(quantile(lat, 0.99));
    }
    (
        1.0 / quantile(&s_per_op, 0.25),
        quantile(&p50, 0.25),
        quantile(&p99, 0.25),
    )
}

/// `q`-quantile of one or more registry histograms merged, interpolated
/// linearly inside the power-of-two bucket that holds it and clamped to
/// the samples' range. 0.0 when no sample was recorded.
pub fn hist_quantile(hists: &[&HistSnapshot], q: f64) -> f64 {
    let count: u64 = hists.iter().map(|h| h.count).sum();
    if count == 0 {
        return 0.0;
    }
    let min = hists
        .iter()
        .filter(|h| h.count > 0)
        .map(|h| h.min)
        .min()
        .unwrap_or(0) as f64;
    let max = hists.iter().map(|h| h.max).max().unwrap_or(0) as f64;
    let mut buckets = std::collections::BTreeMap::<u32, u64>::new();
    for h in hists {
        for &(i, n) in &h.buckets {
            *buckets.entry(i).or_default() += n;
        }
    }
    let want = (q * count as f64).max(1.0);
    let mut seen = 0u64;
    for (i, n) in buckets {
        if (seen + n) as f64 >= want {
            let lo = if i == 0 {
                0.0
            } else {
                bucket_upper_bound(i as usize - 1).map_or(0.0, |b| b as f64 + 1.0)
            };
            let hi = bucket_upper_bound(i as usize).map_or(max, |b| b as f64);
            let at = lo + (hi - lo) * (want - seen as f64) / n as f64;
            return at.clamp(min, max);
        }
        seen += n;
    }
    max
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, &'static str, f64)>);

impl Metrics {
    /// Record a metric; a value that is not finite (a ratio over no
    /// samples) reads as 0.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), unit, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, _, v)| v)
    }
}

/// Operation tally feeding `error_rate`: an op counts as failed when it
/// errored, was refused, or its output differs from the known answer.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windows_shed_a_stall() {
        // Three windows of 1 ms ops, one op of the middle one stalled.
        let mut ms = vec![1.0; 3 * WINDOW_OPS];
        ms[WINDOW_OPS + 5] = 500.0;
        let ends: Vec<f64> = ms
            .iter()
            .scan(0.0, |t, &m| {
                *t += m / 1e3;
                Some(*t)
            })
            .collect();
        let (rate, p50, p99) = windowed(&ms, &ends);
        assert!((rate - 1000.0).abs() < 1e-6, "{rate}");
        assert_eq!((p50, p99), (1.0, 1.0));
        // Shorter than a window: one window of everything.
        let (rate, _, p99) = windowed(&ms[..4], &ends[..4]);
        assert!((rate - 1000.0).abs() < 1e-6, "{rate}");
        assert_eq!(p99, 1.0);
    }

    #[test]
    fn permutations_repeat_per_seed() {
        let a = Rng::new(7).permutation(56);
        assert_eq!(a, Rng::new(7).permutation(56));
        assert_ne!(a, Rng::new(8).permutation(56));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..56).collect::<Vec<_>>());
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.error_rate(), 0.5);
    }
}
