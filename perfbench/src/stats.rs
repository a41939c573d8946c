//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, `VmHWM` parsing, and the seeded generators every workload draws
//! its inputs from.

/// Percentiles the tail metric may report, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported percentile must leave beyond it to count as a tail.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank index (0-based) of percentile `p` among `n` sorted
/// samples: the `ceil(p/100 · n)`-th smallest. `p` is taken to a tenth
/// of a percent and the rank computed in integers, so that p99.9 of
/// 10 000 samples is exactly the 9 990th.
pub fn rank_index(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    let rank = (tenths * n).div_ceil(1000);
    rank.clamp(1, n.max(1)) - 1
}

/// The highest ladder percentile that leaves at least [`MIN_BEYOND`]
/// samples beyond its nearest rank, with that number of samples; `None`
/// when even the median leaves fewer.
pub fn tail_percentile(n: usize) -> Option<(f64, usize)> {
    TAIL_LADDER.iter().find_map(|&p| {
        let beyond = n - (rank_index(n, p) + 1);
        (n > 0 && beyond >= MIN_BEYOND).then_some((p, beyond))
    })
}

/// Nearest-rank percentile `p` of `values` (sorted internally).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank_index(v.len(), p)]
}

/// The median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (its default "exclusive" method), so spreads computed here match the
/// ones computed from the printed results.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Peak resident set size in MiB from the text of a `/proc/<pid>/status`
/// file (its `VmHWM:` line, in kB).
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = words.next()?.parse().ok()?;
    match words.next() {
        Some("kB") | None => Some(kb / 1024.0),
        Some(_) => None,
    }
}

/// Peak resident set size of process `pid` (`"self"` for this one).
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// A small seeded generator (SplitMix64): the benchmark's inputs depend
/// on `--seed` and on nothing else.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted by `stream` so that independent
    /// input streams of one run do not share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "draw from an empty range");
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf sampling over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over no ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        // 108 analyses: p99 and p95 leave 1 and 5 beyond; p90 leaves 10.
        assert_eq!(tail_percentile(108), Some((90.0, 10)));
        assert_eq!(tail_percentile(1_200), Some((99.0, 12)));
        assert_eq!(tail_percentile(10_000), Some((99.9, 10)));
        assert_eq!(tail_percentile(9_999), Some((99.0, 99)));
        assert_eq!(tail_percentile(20), Some((50.0, 10)));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 20..3_000 {
            let (p, beyond) = tail_percentile(n).unwrap();
            assert!(beyond >= MIN_BEYOND, "n={n} p={p}");
            assert_eq!(beyond, n - rank_index(n, p) - 1);
            // No higher ladder rung would also qualify.
            for &q in TAIL_LADDER.iter().filter(|&&q| q > p) {
                assert!(n - rank_index(n, q) - 1 < MIN_BEYOND, "n={n}: p{q} also qualifies");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn vm_hwm_parses_kilobytes_to_mebibytes() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t1536 kB"), Some(1.5));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t1536 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mib("self").is_some_and(|m| m > 0.0));
    }

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..16).map(|_| r.below(1_000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        let mut r = Rng::new(3, 0);
        assert!((0..10_000).all(|_| r.unit() < 1.0));
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_the_range() {
        let z = Zipf::new(500, 1.0);
        let mut r = Rng::new(11, 0);
        let mut counts = vec![0usize; 500];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[400]);
        // P(rank 0) = 1 / H_500 ≈ 0.147.
        assert!((13_000..16_500).contains(&counts[0]), "{}", counts[0]);
        assert!(counts.iter().filter(|&&c| c > 0).count() > 450);
    }
}
