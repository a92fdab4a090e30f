//! Deterministic random-number streams.
//!
//! Every stochastic component of a simulation (each backoff generator, each
//! shadowing process, each traffic source) gets its **own** stream derived
//! from the master seed plus a stable label. Two runs with the same master
//! seed are bit-identical, and adding a new component never perturbs the
//! draws of existing ones — the key property for A/B experiments.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna), so the
//! crate carries no external dependency and the byte-for-byte output is
//! pinned by this file alone.

/// SplitMix64 step: the standard seed-expansion permutation. Used both to
/// expand the master seed and to mix in sub-stream labels.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seedable random stream.
///
/// # Example
///
/// ```
/// use desim::SimRng;
///
/// let mut a = SimRng::from_seed(7).substream(b"node-0/backoff");
/// let mut b = SimRng::from_seed(7).substream(b"node-0/backoff");
/// assert_eq!(a.gen_range_u32(0, 32), b.gen_range_u32(0, 32));
///
/// let mut c = SimRng::from_seed(7).substream(b"node-1/backoff");
/// // Different labels give independent streams (almost surely different
/// // draws; identical first draws are possible but the sequences diverge).
/// let _ = c.gen_range_u32(0, 32);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates the master stream for a run from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        SimRng {
            state: expand_state(seed),
            seed,
        }
    }

    /// Derives an independent sub-stream for the component named `label`.
    ///
    /// The derivation depends only on the master seed and the label, not on
    /// how many draws have been made, so component streams are stable as
    /// the simulation grows.
    pub fn substream(&self, label: &[u8]) -> SimRng {
        // FNV-1a over the label, mixed with the master seed via SplitMix64.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in label {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let s = self.seed ^ h;
        SimRng {
            state: expand_state(s),
            seed: s,
        }
    }

    /// xoshiro256++ step: the raw 64-bit output.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Masked rejection sampling: unbiased, and for power-of-two spans
        // (every DCF contention window) it never rejects, so the hot path
        // consumes exactly one raw draw.
        let mask = span.next_power_of_two().wrapping_sub(1);
        loop {
            let v = (self.next_u64() as u32) & mask;
            if v < span {
                return lo + v;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits → the standard dyadic uniform on [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `(0, 1]` — safe to pass to `ln`.
    #[inline]
    fn gen_f64_open_zero(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // gen_f64 < 1.0 always holds, so p = 1.0 is certainly true and
        // p = 0.0 certainly false.
        self.gen_f64() < p
    }

    /// Standard-normal draw (Box–Muller; one value per call, the pair's
    /// twin is discarded to keep the stream position independent of use).
    #[inline]
    pub fn gen_std_normal(&mut self) -> f64 {
        // Rejection-free polar-form Box–Muller would consume a variable
        // number of uniforms; the trigonometric form consumes exactly two,
        // keeping draw counts predictable for reproducibility reasoning.
        let u1 = self.gen_f64_open_zero();
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    #[inline]
    pub fn gen_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gen_std_normal()
    }

    /// Exponential draw with the given mean (rate 1/mean).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive, got {mean}");
        -mean * self.gen_f64_open_zero().ln()
    }
}

/// Expands a 64-bit seed into a full xoshiro256++ state via SplitMix64, the
/// initialization the generator's authors recommend. A zero state is
/// unreachable this way.
fn expand_state(seed: u64) -> [u64; 4] {
    let mut s = seed;
    [
        splitmix64(&mut s),
        splitmix64(&mut s),
        splitmix64(&mut s),
        splitmix64(&mut s),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(123);
        let mut b = SimRng::from_seed(123);
        for _ in 0..100 {
            assert_eq!(a.gen_f64().to_bits(), b.gen_f64().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..64).filter(|_| a.gen_f64() == b.gen_f64()).count();
        assert!(same < 4, "streams should diverge, {same}/64 draws matched");
    }

    #[test]
    fn substreams_are_stable_and_label_dependent() {
        let master = SimRng::from_seed(99);
        let mut s1 = master.substream(b"alpha");
        let mut s1_again = master.substream(b"alpha");
        let mut s2 = master.substream(b"beta");
        let a: Vec<u64> = (0..16).map(|_| s1.gen_f64().to_bits()).collect();
        let b: Vec<u64> = (0..16).map(|_| s1_again.gen_f64().to_bits()).collect();
        let c: Vec<u64> = (0..16).map(|_| s2.gen_f64().to_bits()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn substream_independent_of_master_position() {
        let mut master = SimRng::from_seed(5);
        let before = master.substream(b"x");
        let _ = master.gen_f64(); // advance master
        let after = master.substream(b"x");
        let mut x = before.clone();
        let mut y = after.clone();
        assert_eq!(x.gen_f64().to_bits(), y.gen_f64().to_bits());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SimRng::from_seed(7);
        for _ in 0..1000 {
            let v = r.gen_range_u32(3, 17);
            assert!((3..17).contains(&v));
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = SimRng::from_seed(21);
        let mut seen = [false; 32];
        for _ in 0..2000 {
            seen[r.gen_range_u32(0, 32) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 32 backoff slots reachable");
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut r = SimRng::from_seed(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.gen_std_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn exponential_mean_is_sane() {
        let mut r = SimRng::from_seed(13);
        let n = 20_000;
        let mean = (0..n).map(|_| r.gen_exp(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean {mean} too far from 4");
    }

    #[test]
    fn bernoulli_edge_probabilities() {
        let mut r = SimRng::from_seed(17);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        // Out-of-range p is clamped rather than panicking.
        assert!(r.gen_bool(2.0));
        assert!(!r.gen_bool(-1.0));
    }
}
