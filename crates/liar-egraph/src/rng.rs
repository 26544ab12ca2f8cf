//! The workspace's one seeded random generator: splitmix64 (Steele et al.,
//! OOPSLA 2014).
//!
//! Kernel input data, the randomized test suites and the fuzz tests all
//! draw from it, so a seed reproduces the same stream bit-for-bit on every
//! platform and toolchain, with no external crate (the workspace builds
//! offline).

/// A seeded splitmix64 generator: the same seed gives the same stream.
#[derive(Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`, by reducing [`next_u64`](SplitMix64::next_u64)
    /// modulo `n` (the bias is negligible for test-sized `n`).
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_the_reference_splitmix64() {
        // The first outputs for seed 0 of the reference implementation.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        let (mut a, mut b) = (SplitMix64::new(7), SplitMix64::new(7));
        assert!((0..100).all(|_| a.below(10) == b.below(10)));
    }
}
