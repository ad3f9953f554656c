//! Seedable RNG and the distributions the reproduction needs.
//!
//! The trace generator (Fig. 8), the network jitter model and the failure
//! injector all sample from a handful of distributions. Uniform sampling
//! comes from an in-tree xoshiro256++ generator (the workspace builds
//! offline, so no `rand`); the shaped distributions (log-normal via
//! Box–Muller, exponential, Zipf, Pareto-bounded) are implemented on top.

/// The xoshiro256++ core: fast, high-quality, and — crucially for this
/// reproduction — fully deterministic across platforms and Rust versions.
/// State is seeded from a `u64` through SplitMix64, per the reference
/// implementation's recommendation.
#[derive(Clone, Debug)]
struct Xoshiro256pp {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Xoshiro256pp {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256pp { s }
    }

    fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }
}

/// A deterministic RNG with the sampling helpers used across the
/// reproduction. Wraps a xoshiro256++ core seeded from a `u64` so every
/// experiment is exactly repeatable.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: Xoshiro256pp,
    /// Cached spare normal variate from the last Box–Muller draw.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Creates an RNG from a seed. The same seed always produces the same
    /// sequence of samples.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256pp::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derives an independent child RNG; handy for giving each simulated
    /// machine or job its own stream without cross-coupling draw order.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let seed = self.inner.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::new(seed)
    }

    /// Uniform `u64` over the full range.
    pub fn u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform in `[0, 1)`: the top 53 bits of a draw, scaled.
    pub fn f64(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    ///
    /// Uses Lemire-style rejection sampling so the distribution is exactly
    /// uniform (no modulo bias) and the draw count stays deterministic for
    /// a given seed and call sequence.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Power-of-two spans (including span 1) need no rejection.
        if span.is_power_of_two() {
            return lo + (self.inner.next_u64() & (span - 1));
        }
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.inner.next_u64();
            if v < zone {
                return lo + v % span;
            }
        }
    }

    /// Uniformly chooses one element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.range(0, items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle, deterministic for a given seed.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via Box–Muller (polar-free form, caches the spare).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Log-normal with the given parameters of the *underlying* normal
    /// (`mu`, `sigma`): `exp(mu + sigma * Z)`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Log-normal parameterised by the target distribution's *median* and
    /// the multiplicative spread `sigma` — more convenient for trace
    /// fitting ("median job runtime 18 s, long tail").
    pub fn log_normal_median(&mut self, median: f64, sigma: f64) -> f64 {
        self.log_normal(median.ln(), sigma)
    }

    /// Exponential with mean `mean`.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.f64();
        -mean * u.ln()
    }
}

/// Precomputed inverse-CDF table for Zipf sampling.
#[derive(Debug)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Builds the table for ranks `1..=n` with exponent `s`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfTable { cdf }
    }

    /// Samples a rank in `[1, n]`.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.f64();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("CDF is finite"))
        {
            Ok(i) | Err(i) => (i as u64 + 1).min(self.cdf.len() as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn forks_are_decoupled() {
        let mut root = SimRng::new(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        // Not a strong statistical claim — just that the streams differ.
        let s1: Vec<u64> = (0..8).map(|_| (c1.f64() * 1e9) as u64).collect();
        let s2: Vec<u64> = (0..8).map(|_| (c2.f64() * 1e9) as u64).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(1);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn log_normal_median_hits_target() {
        let mut rng = SimRng::new(2);
        let n = 100_001;
        let mut samples: Vec<f64> = (0..n).map(|_| rng.log_normal_median(18.0, 1.0)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median - 18.0).abs() / 18.0 < 0.05, "median {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(3);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.exponential(30.0)).sum::<f64>() / n as f64;
        assert!((mean - 30.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let mut rng = SimRng::new(4);
        let table = ZipfTable::new(100, 1.2);
        let n = 50_000;
        let ones = (0..n).filter(|_| table.sample(&mut rng) == 1).count();
        // With s=1.2 over 100 ranks, rank 1 holds ~27% of the mass.
        let frac = ones as f64 / n as f64;
        assert!(frac > 0.2 && frac < 0.35, "rank-1 fraction {frac}");
        // Range check.
        for _ in 0..1000 {
            let r = table.sample(&mut rng);
            assert!((1..=100).contains(&r));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
