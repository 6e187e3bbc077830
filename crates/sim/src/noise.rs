//! Deterministic, stream-addressable noise.
//!
//! The simulator must be reproducible: running the same kernel at the same
//! configuration with the same machine seed must yield bit-identical
//! results, regardless of evaluation order (the offline sweep is
//! parallelized with rayon). We therefore derive all noise from a counter-
//! mode hash of `(machine seed, kernel, configuration, run, stream)` rather
//! than from a shared stateful RNG.

/// Identifies which quantity a noise sample perturbs, so that e.g. the
/// timing jitter and the L1-miss jitter of the same run are independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
#[allow(missing_docs)] // variant names are self-describing quantity tags
pub enum Stream {
    Timing = 1,
    Power = 2,
    Sensor = 3,
    Instructions = 4,
    L1Miss = 5,
    L2Miss = 6,
    TlbMiss = 7,
    Branch = 8,
    Vector = 9,
    Stall = 10,
    FpuIdle = 11,
    Dram = 12,
    Interrupt = 13,
}

/// SplitMix64 finalizer: a strong 64-bit mixing function.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One step of the stateful SplitMix64 generator: advance `state` by the
/// golden gamma and return [`splitmix64`] of the old state. The simulator
/// itself stays counter-mode; this stream is for the layers around it
/// (kernel generation, bootstrap resampling, load and chaos schedules,
/// idempotency keys), where a seed-replayable sequence is what is wanted.
#[inline]
pub fn splitmix64_step(state: &mut u64) -> u64 {
    let z = splitmix64(*state);
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    z
}

/// A uniform draw in `[0, 1)` from the top 53 bits of [`splitmix64_step`].
#[inline]
pub fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64_step(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a hash of a byte string, used to fold kernel names into the seed.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

/// A deterministic noise source addressed by `(seed, kernel, config, run)`.
#[derive(Debug, Clone, Copy)]
pub struct NoiseSource {
    base: u64,
}

impl NoiseSource {
    /// Build a noise source for one simulated kernel execution.
    pub fn new(machine_seed: u64, kernel_id: &str, config_index: usize, run: u64) -> Self {
        let mut base = splitmix64(machine_seed);
        base = splitmix64(base ^ fnv1a(kernel_id.as_bytes()));
        base = splitmix64(base ^ (config_index as u64).wrapping_mul(0x9E3779B97F4A7C15));
        base = splitmix64(base ^ run);
        Self { base }
    }

    /// Raw 64-bit sample for `stream`, with an extra lane index for streams
    /// that need more than one draw.
    #[inline]
    pub fn bits(&self, stream: Stream, lane: u64) -> u64 {
        splitmix64(self.base ^ (stream as u64).wrapping_mul(0xD1342543DE82EF95) ^ (lane << 32))
    }

    /// Uniform sample in [0, 1).
    #[inline]
    pub fn uniform(&self, stream: Stream, lane: u64) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.bits(stream, lane) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal sample via Box–Muller (deterministic per lane pair).
    pub fn standard_normal(&self, stream: Stream, lane: u64) -> f64 {
        let u1 = self.uniform(stream, lane * 2).max(1e-300);
        let u2 = self.uniform(stream, lane * 2 + 1);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Multiplicative lognormal-ish jitter `exp(sigma * N(0,1))`, clamped to
    /// a sane band so a tail draw can never produce a negative or absurd
    /// measurement.
    pub fn jitter(&self, stream: Stream, sigma: f64) -> f64 {
        (sigma * self.standard_normal(stream, 0)).exp().clamp(0.5, 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_address_same_noise() {
        let a = NoiseSource::new(42, "LULESH/Small/K1", 7, 0);
        let b = NoiseSource::new(42, "LULESH/Small/K1", 7, 0);
        assert_eq!(a.bits(Stream::Timing, 0), b.bits(Stream::Timing, 0));
        assert_eq!(a.uniform(Stream::Power, 3), b.uniform(Stream::Power, 3));
    }

    #[test]
    fn different_streams_differ() {
        let a = NoiseSource::new(42, "k", 0, 0);
        assert_ne!(a.bits(Stream::Timing, 0), a.bits(Stream::Power, 0));
    }

    #[test]
    fn different_kernels_differ() {
        let a = NoiseSource::new(42, "k1", 0, 0);
        let b = NoiseSource::new(42, "k2", 0, 0);
        assert_ne!(a.bits(Stream::Timing, 0), b.bits(Stream::Timing, 0));
    }

    #[test]
    fn different_configs_differ() {
        let a = NoiseSource::new(42, "k", 0, 0);
        let b = NoiseSource::new(42, "k", 1, 0);
        assert_ne!(a.bits(Stream::Timing, 0), b.bits(Stream::Timing, 0));
    }

    #[test]
    fn different_runs_differ() {
        let a = NoiseSource::new(42, "k", 0, 0);
        let b = NoiseSource::new(42, "k", 0, 1);
        assert_ne!(a.bits(Stream::Timing, 0), b.bits(Stream::Timing, 0));
    }

    #[test]
    fn uniform_in_unit_interval() {
        let src = NoiseSource::new(7, "k", 3, 1);
        for lane in 0..1000 {
            let u = src.uniform(Stream::Sensor, lane);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_has_plausible_moments() {
        let src = NoiseSource::new(99, "moments", 0, 0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|i| src.standard_normal(Stream::Timing, i)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn jitter_is_bounded_and_centered() {
        let src = NoiseSource::new(1, "jit", 0, 0);
        let j = src.jitter(Stream::Timing, 0.02);
        assert!((0.5..=2.0).contains(&j));
        // sigma=0 means exactly no jitter
        assert_eq!(src.jitter(Stream::Timing, 0.0), 1.0);
    }

    #[test]
    fn step_is_the_classic_splitmix64_generator() {
        // The reference sequence for seed 0 (Vigna's splitmix64.c).
        let mut state = 0;
        assert_eq!(splitmix64_step(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64_step(&mut state), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(state, 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(2));
        let u = unit_f64(&mut state);
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn fnv1a_distinguishes_strings() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"a"));
    }
}
