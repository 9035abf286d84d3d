//! Deterministic random number generation for simulations.
//!
//! Every stochastic decision in the simulator — session lengths, arrival
//! times, which peer dials whom — is drawn from a [`SimRng`] seeded at the
//! start of a run, so the entire measurement study is reproducible from a
//! single `u64` seed.
//!
//! Besides uniform sampling, the churn models need a small set of
//! distributions that are not worth an extra dependency:
//!
//! * [`SimRng::exp`] — exponential inter-arrival times (Poisson processes).
//! * [`SimRng::log_normal`] — heavy-tailed but finite-mean session durations.
//!
//! The generator itself is a self-contained xoshiro256++ instance seeded via
//! SplitMix64, so the whole workspace is reproducible without any external
//! RNG crate. The stream is *not* cryptographic — it only needs to be
//! deterministic, well-mixed and fast.

/// One step of the SplitMix64 sequence: advances `state` and returns the
/// mixed output.
///
/// This is the canonical way to expand a 64-bit seed into more state (the
/// xoshiro authors' recommendation), and the workspace's shared primitive
/// for deriving decorrelated seeds from coordinates — see
/// `measurement::sweep` for the main consumer.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 64-bit FNV-1a offset basis: the hash of no input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step: folds `value` (a byte, or a whole word for folds over
/// checksums) into `hash`.
#[inline]
pub fn fnv1a_step(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV-1a over bytes: mixes textual labels into seed derivations and
/// checksums archive blocks.
///
/// # Example
///
/// ```
/// use simclock::rng::fnv1a;
///
/// assert_eq!(fnv1a("P1"), fnv1a("P1"));
/// assert_ne!(fnv1a("P1"), fnv1a("P2"));
/// assert_eq!(fnv1a("P1"), fnv1a(b"P1"));
/// ```
pub fn fnv1a(bytes: &(impl AsRef<[u8]> + ?Sized)) -> u64 {
    bytes
        .as_ref()
        .iter()
        .fold(FNV_OFFSET, |hash, &b| fnv1a_step(hash, b.into()))
}

/// The xoshiro256++ core: 256 bits of state, 64-bit output.
///
/// Reference: Blackman & Vigna, "Scrambled linear pseudorandom number
/// generators" (the public-domain xoshiro256plusplus.c).
#[derive(Debug, Clone)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Expands a 64-bit seed into the full state with SplitMix64, as the
    /// xoshiro authors recommend (guarantees a non-zero state).
    fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        Xoshiro256pp {
            s: [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ],
        }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
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
        result
    }

    /// An unbiased value in `[0, span)` via Lemire's multiply-shift method
    /// with rejection.
    #[inline]
    fn bounded(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut low = m as u64;
        if low < span {
            let threshold = span.wrapping_neg() % span;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A seeded random number generator with the distributions used by the
/// population and churn models.
///
/// # Example
///
/// ```
/// use simclock::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.uniform_u64(0, 100), b.uniform_u64(0, 100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: Xoshiro256pp,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256pp::from_seed(seed),
        }
    }

    /// Derives an independent child generator.
    ///
    /// Components that evolve independently (e.g. each simulated node) get
    /// their own child generator so that adding or removing one component
    /// does not perturb the random streams of the others.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let base = self.inner.next_u64();
        SimRng::seed_from(base ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A uniformly distributed `u64` in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn uniform_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "uniform_u64 requires low < high");
        low + self.inner.bounded(high - low)
    }

    /// A uniformly distributed `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        self.inner.bounded(n as u64) as usize
    }

    /// A uniformly distributed `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.unit_f64()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.unit_f64() < p
        }
    }

    /// A fresh random 64-bit value (used to derive peer IDs).
    pub fn raw_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.inner.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// An exponentially distributed value with the given mean.
    ///
    /// Used for inter-arrival times of Poisson processes (e.g. one-time users
    /// joining the network). A non-positive or non-finite mean yields `0`.
    pub fn exp(&mut self, mean: f64) -> f64 {
        if !mean.is_finite() || mean <= 0.0 {
            return 0.0;
        }
        let u: f64 = self.inner.unit_f64().max(f64::EPSILON);
        -mean * u.ln()
    }

    /// A log-normally distributed value parameterised by the *median* and the
    /// shape `sigma` (standard deviation of the underlying normal).
    ///
    /// Session durations in P2P networks are well described by log-normal
    /// distributions: most sessions are short, but a long tail exists.
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        if !median.is_finite() || median <= 0.0 {
            return 0.0;
        }
        let z = self.standard_normal();
        median * (sigma * z).exp()
    }

    /// A standard normal value (mean 0, variance 1) via Box–Muller.
    pub(crate) fn standard_normal(&mut self) -> f64 {
        let u1: f64 = self.inner.unit_f64().max(f64::EPSILON);
        let u2: f64 = self.inner.unit_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Chooses an index according to the given non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or all weights are zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must be non-empty and non-zero");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be non-negative and finite"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must be non-empty and non-zero");
        let mut target = self.inner.unit_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if target < *w {
                return i;
            }
            target -= *w;
        }
        // Floating-point underflow at the very end of the scan: return the
        // last index with a non-zero weight.
        weights
            .iter()
            .rposition(|w| *w > 0.0)
            .expect("total > 0 implies a positive weight exists")
    }

    /// Chooses a reference to a random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.bounded(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (or all of them if `k >= n`).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k.min(n));
        idx
    }

    /// A uniformly distributed value from an inclusive integer range, as a
    /// convenience for configuration jitter.
    pub fn jitter(&mut self, low: u64, high_inclusive: u64) -> u64 {
        if low >= high_inclusive {
            return low;
        }
        low + self.inner.bounded(high_inclusive - low + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.raw_u64(), b.raw_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.raw_u64() == b.raw_u64()).count();
        assert!(same < 4, "independent streams should rarely collide");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut parent1 = SimRng::seed_from(9);
        let mut parent2 = SimRng::seed_from(9);
        let mut c1 = parent1.fork(42);
        let mut c2 = parent2.fork(42);
        assert_eq!(c1.raw_u64(), c2.raw_u64());

        let mut parent3 = SimRng::seed_from(9);
        let mut other = parent3.fork(43);
        assert_ne!(c1.raw_u64(), other.raw_u64());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1000 {
            let v = rng.uniform_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn exp_has_roughly_correct_mean() {
        let mut rng = SimRng::seed_from(11);
        let n = 20_000;
        let mean = 120.0;
        let sum: f64 = (0..n).map(|_| rng.exp(mean)).sum();
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() < mean * 0.05,
            "observed mean {observed} too far from {mean}"
        );
    }

    #[test]
    fn exp_degenerate_inputs_are_zero() {
        let mut rng = SimRng::seed_from(11);
        assert_eq!(rng.exp(0.0), 0.0);
        assert_eq!(rng.exp(-5.0), 0.0);
        assert_eq!(rng.exp(f64::NAN), 0.0);
    }

    #[test]
    fn log_normal_median_is_roughly_right() {
        let mut rng = SimRng::seed_from(13);
        let n = 20_001;
        let median = 300.0;
        let mut vals: Vec<f64> = (0..n).map(|_| rng.log_normal(median, 1.5)).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let observed = vals[n / 2];
        assert!(
            (observed - median).abs() < median * 0.15,
            "observed median {observed} too far from {median}"
        );
    }

    #[test]
    fn weighted_index_prefers_heavier_weights() {
        let mut rng = SimRng::seed_from(23);
        let weights = [1.0, 0.0, 10.0];
        let mut counts = [0usize; 3];
        for _ in 0..5_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(29);
        let mut items: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_are_distinct_and_bounded() {
        let mut rng = SimRng::seed_from(31);
        let sample = rng.sample_indices(100, 10);
        assert_eq!(sample.len(), 10);
        let mut dedup = sample.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
        assert!(sample.iter().all(|&i| i < 100));

        // Requesting more than available returns everything.
        assert_eq!(rng.sample_indices(3, 10).len(), 3);
    }

    #[test]
    fn jitter_handles_degenerate_range() {
        let mut rng = SimRng::seed_from(37);
        assert_eq!(rng.jitter(5, 5), 5);
        assert_eq!(rng.jitter(7, 3), 7);
        for _ in 0..100 {
            let v = rng.jitter(1, 3);
            assert!((1..=3).contains(&v));
        }
    }
}
