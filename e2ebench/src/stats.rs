//! Order statistics, the seeded input generator and the output digest.

/// Percentiles the tail picker considers, highest first.
const TAIL_CANDIDATES: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported percentile needs beyond it.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile as reported: which percentile, its value, and how
/// many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: u64,
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_CANDIDATES`] with at least
/// [`MIN_BEYOND`] samples beyond it, given a nearest-rank lookup;
/// `None` when even the median lacks them (fewer than 20 samples).
pub fn tail(rank: impl Fn(f64) -> Option<(u64, usize)>) -> Option<Tail> {
    TAIL_CANDIDATES.iter().find_map(|&p| {
        let (value, beyond) = rank(p)?;
        (beyond >= MIN_BEYOND).then_some(Tail {
            percentile: p,
            value,
            beyond,
        })
    })
}

/// Width of a [`LatencyHist`] bucket.
const BUCKET_NS: u64 = 10;
/// Buckets per [`LatencyHist`]: 10 ns resolution up to 2 ms.
const HIST_BUCKETS: usize = 200_000;

/// Latency samples counted in 10 ns buckets, slower ones kept verbatim.
/// Its memory (800 KB) does not grow with throughput, so the load
/// generator's own buffers do not move `peak_rss_mb` from run to run.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    buckets: Vec<u32>,
    slow: Vec<u64>,
    n: usize,
}

impl Default for LatencyHist {
    fn default() -> LatencyHist {
        LatencyHist {
            buckets: vec![0; HIST_BUCKETS],
            slow: Vec::new(),
            n: 0,
        }
    }
}

impl LatencyHist {
    pub fn record(&mut self, ns: u64) {
        match self.buckets.get_mut((ns / BUCKET_NS) as usize) {
            Some(b) => *b += 1,
            None => self.slow.push(ns),
        }
        self.n += 1;
    }

    pub fn len(&self) -> usize {
        self.n
    }

    /// Nearest-rank quantile at percentile `p` (to the bucket's lower
    /// edge) and the count of samples beyond its rank.
    pub fn nearest_rank(&self, p: f64) -> Option<(u64, usize)> {
        if self.n == 0 {
            return None;
        }
        let rank = (((p / 100.0) * self.n as f64).ceil() as usize).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c as usize;
            if seen >= rank {
                return Some((i as u64 * BUCKET_NS, self.n - rank));
            }
        }
        let mut slow = self.slow.clone();
        slow.sort_unstable();
        Some((slow[rank - seen - 1], self.n - rank))
    }

    /// Median in ns (NaN when empty).
    pub fn p50(&self) -> f64 {
        self.nearest_rank(50.0).map_or(f64::NAN, |(v, _)| v as f64)
    }
}

/// Median of unsorted floats (mean of the middle pair for even counts);
/// NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// SplitMix64: the benchmark's only source of input randomness, so one
/// `--seed` always yields the same request sequence.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
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

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Zipf(1) picks over `n` items: item `i` of a seeded permutation has
/// weight `1 / (i + 1)`, so a few keys are hot and the rest are cold.
#[derive(Debug, Clone)]
pub struct Skewed {
    order: Vec<usize>,
    cumulative: Vec<f64>,
}

impl Skewed {
    pub fn new(n: usize, rng: &mut Rng) -> Skewed {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|i| {
                acc += 1.0 / (i as f64 + 1.0);
                acc
            })
            .collect();
        Skewed { order, cumulative }
    }

    pub fn pick(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("at least one item");
        let u = rng.unit() * total;
        let i = self.cumulative.partition_point(|&c| c <= u);
        self.order[i.min(self.order.len() - 1)]
    }
}

/// FNV-1a 64: a stable digest of a job's outputs, printed per seed so
/// two runs (or two commits) can be compared.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank quantile of ascending `sorted`: the reference the
    /// histogram is checked against.
    fn nearest_rank(sorted: &[u64], p: f64) -> Option<(u64, usize)> {
        if sorted.is_empty() {
            return None;
        }
        let n = sorted.len();
        let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
        Some((sorted[rank - 1], n - rank))
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let ranked = |sorted: Vec<u64>| move |p| nearest_rank(&sorted, p);
        // p99 of 1000 is rank 990: exactly 10 beyond. p99.9 has only 1.
        let t = tail(ranked((1..=1000).collect())).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990);
        assert_eq!(t.beyond, 10);

        // p99 of 999 is rank 990: 9 beyond, too few, so p95 is reported.
        let t = tail(ranked((1..=999).collect())).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.beyond, 999 - 950);

        let t = tail(ranked((1..=200_000).collect())).unwrap();
        assert_eq!(t.percentile, 99.99);
        assert_eq!(t.beyond, 20);
    }

    #[test]
    fn tail_needs_twenty_samples_for_the_median() {
        assert_eq!(tail(|p| nearest_rank(&[], p)), None);
        let short: Vec<u64> = (1..=19).collect();
        assert_eq!(tail(|p| nearest_rank(&short, p)), None);
        let twenty: Vec<u64> = (1..=20).collect();
        let t = tail(|p| nearest_rank(&twenty, p)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10, 10));
    }

    #[test]
    fn histogram_ranks_match_sorted_samples() {
        // Multiples of the bucket width land on bucket edges, so the
        // histogram must agree with the exact nearest rank, including
        // samples past the last bucket.
        let samples: Vec<u64> = (1..=3000u64)
            .map(|i| (i * 7919 % 3001) * 10)
            .chain([2_500_000, 4_000_000, 3_000_000])
            .collect();
        let mut a = LatencyHist::default();
        samples.iter().for_each(|&s| a.record(s));
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        assert_eq!(a.len(), sorted.len());
        for p in [0.1, 50.0, 90.0, 99.0, 99.9, 99.95, 100.0] {
            assert_eq!(a.nearest_rank(p), nearest_rank(&sorted, p), "p{p}");
        }
        assert_eq!(
            tail(|p| a.nearest_rank(p)),
            tail(|p| nearest_rank(&sorted, p))
        );
        assert!(LatencyHist::default().p50().is_nan());
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn seeded_inputs_repeat() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let sa = Skewed::new(24, &mut a);
        let sb = Skewed::new(24, &mut b);
        let pa: Vec<usize> = (0..100).map(|_| sa.pick(&mut a)).collect();
        let pb: Vec<usize> = (0..100).map(|_| sb.pick(&mut b)).collect();
        assert_eq!(pa, pb);
        assert!(pa.iter().all(|&i| i < 24));
        let mut c = Rng::new(8);
        let sc = Skewed::new(24, &mut c);
        let pc: Vec<usize> = (0..100).map(|_| sc.pick(&mut c)).collect();
        assert_ne!(pa, pc);
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::new();
        a.bytes(b"ab").bytes(b"c");
        let mut b = Digest::new();
        b.bytes(b"a").bytes(b"bc");
        assert_ne!(a.hex(), b.hex());
    }
}
