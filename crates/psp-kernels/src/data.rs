//! Deterministic input generation for the kernel suite.

/// SplitMix64: a tiny, fast, seed-reproducible generator, good enough for
/// test data and fuzz scheduling decisions (not cryptographic).
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform value in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
    /// A free byte.
    pub fn byte(&mut self) -> u8 {
        self.next_u64() as u8
    }
}

/// Inputs shared by all kernels: two data arrays and scalar parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelData {
    /// Primary input array.
    pub x: Vec<i64>,
    /// Secondary input / output array (same length as `x`).
    pub y: Vec<i64>,
    /// Generic threshold / search target.
    pub t: i64,
    /// Lower clamp bound.
    pub lo: i64,
    /// Upper clamp bound.
    pub hi: i64,
}

impl KernelData {
    /// Uniform random data in `[-100, 100]`, length `len ≥ 1`, reproducible
    /// from `seed`.
    pub fn random(seed: u64, len: usize) -> Self {
        assert!(len >= 1, "do-while kernels need at least one element");
        let mut rng = SplitMix64(seed);
        let mut draw = || rng.below(201) as i64 - 100;
        let x = (0..len).map(|_| draw()).collect();
        let y = (0..len).map(|_| draw()).collect();
        Self {
            x,
            y,
            t: 0,
            lo: -50,
            hi: 50,
        }
    }

    /// Adjust the threshold `t` so that approximately a fraction `q` of the
    /// elements of `x` exceed it (controls branch probability in the
    /// skewed-branch kernels).
    pub fn with_taken_fraction(mut self, q: f64) -> Self {
        let mut sorted = self.x.clone();
        sorted.sort_unstable();
        let idx = ((1.0 - q.clamp(0.0, 1.0)) * (sorted.len() as f64 - 1.0)).round() as usize;
        self.t = sorted[idx.min(sorted.len() - 1)];
        self
    }

    /// Override the scalar threshold.
    pub fn with_threshold(mut self, t: i64) -> Self {
        self.t = t;
        self
    }

    /// Override the clamp bounds.
    pub fn with_bounds(mut self, lo: i64, hi: i64) -> Self {
        self.lo = lo;
        self.hi = hi;
        self
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_reproducible() {
        let a = KernelData::random(42, 100);
        let b = KernelData::random(42, 100);
        assert_eq!(a, b);
        let c = KernelData::random(43, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn random_streams_are_pinned() {
        // Golden results, fuzz corpora and benchmark inputs all depend on
        // these streams; they must never drift.
        let d = KernelData::random(1, 8);
        assert_eq!(d.x, [-53, -93, -37, -2, -79, -17, -19, 68]);
        assert_eq!(d.y, [8, 66, -22, 33, -44, 33, 18, -95]);
        let d = KernelData::random(7, 33);
        assert_eq!(d.x[..8], [-40, -82, 47, 86, -51, 17, 54, -7]);
        assert_eq!(d.x[32], 32);
        assert_eq!(d.y[..8], [-34, -100, 86, 79, -82, 78, -90, -33]);
        assert_eq!(d.y[32], -82);
    }

    #[test]
    fn arrays_have_requested_length() {
        let d = KernelData::random(1, 17);
        assert_eq!(d.x.len(), 17);
        assert_eq!(d.y.len(), 17);
        assert_eq!(d.len(), 17);
    }

    #[test]
    #[should_panic]
    fn zero_length_rejected() {
        KernelData::random(1, 0);
    }

    #[test]
    fn taken_fraction_controls_branch_probability() {
        let d = KernelData::random(7, 1000).with_taken_fraction(0.25);
        let frac = d.x.iter().filter(|&&v| v > d.t).count() as f64 / 1000.0;
        assert!((frac - 0.25).abs() < 0.08, "got {frac}");
        let d = KernelData::random(7, 1000).with_taken_fraction(0.9);
        let frac = d.x.iter().filter(|&&v| v > d.t).count() as f64 / 1000.0;
        assert!((frac - 0.9).abs() < 0.08, "got {frac}");
    }

    #[test]
    fn builders_override_fields() {
        let d = KernelData::random(1, 4)
            .with_threshold(9)
            .with_bounds(-1, 1);
        assert_eq!(d.t, 9);
        assert_eq!((d.lo, d.hi), (-1, 1));
    }
}
