//! Deterministic input generation for the kernels.

use liar_ir::SplitMix64;
use liar_runtime::{Tensor, Value};

/// A seeded generator for kernel inputs.
///
/// Draws from the workspace's [`SplitMix64`], so inputs are bit-for-bit
/// reproducible across platforms and toolchains.
#[derive(Debug)]
pub struct DataGen {
    rng: SplitMix64,
}

impl DataGen {
    /// Create a generator from a seed (same seed ⇒ same data).
    pub fn new(seed: u64) -> Self {
        DataGen {
            rng: SplitMix64::new(seed),
        }
    }

    /// The next uniform float in [-1, 1).
    fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits give a uniform value in [0, 1).
        let unit = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        2.0 * unit - 1.0
    }

    /// A uniform scalar in [-1, 1].
    pub fn scalar(&mut self) -> Value {
        Value::Num(self.next_f64())
    }

    /// A vector of length `n` with entries in [-1, 1].
    pub fn vector(&mut self, n: usize) -> Value {
        let data = (0..n).map(|_| self.next_f64()).collect();
        Value::from(Tensor::vector(data))
    }

    /// A row-major `r`×`c` matrix with entries in [-1, 1].
    pub fn matrix(&mut self, r: usize, c: usize) -> Value {
        let data = (0..r * c).map(|_| self.next_f64()).collect();
        Value::from(Tensor::matrix(r, c, data))
    }

    /// A rank-3 tensor.
    pub fn tensor3(&mut self, a: usize, b: usize, c: usize) -> Value {
        let data = (0..a * b * c).map(|_| self.next_f64()).collect();
        Value::from(Tensor::new(vec![a, b, c], data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = DataGen::new(7).vector(16).to_tensor().unwrap();
        let b = DataGen::new(7).vector(16).to_tensor().unwrap();
        let c = DataGen::new(8).vector(16).to_tensor().unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shapes() {
        let mut g = DataGen::new(1);
        assert_eq!(g.matrix(2, 3).to_tensor().unwrap().shape(), &[2, 3]);
        assert_eq!(g.tensor3(2, 3, 4).to_tensor().unwrap().shape(), &[2, 3, 4]);
        assert!(g.scalar().as_num().is_some());
    }

    #[test]
    fn values_in_range() {
        let mut g = DataGen::new(2);
        let t = g.vector(100).to_tensor().unwrap();
        assert!(t.data().iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
