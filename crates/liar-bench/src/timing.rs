//! A minimal wall-clock benchmarking harness.
//!
//! The workspace builds offline with no external dependencies, so the
//! benches use this module instead of criterion: fixed sample counts, one
//! warm-up run, and a median/min/mean summary per benchmark. The benches
//! are plain binaries (`harness = false`), so `cargo bench` runs their
//! `main` functions directly.

use std::time::{Duration, Instant};

/// Timing samples for one benchmark case.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label, e.g. `table2_blas/gemv`.
    pub name: String,
    /// One duration per sample (unsorted).
    pub samples: Vec<Duration>,
}

impl Measurement {
    /// Smallest sample — the least-noise estimate of the true cost.
    pub fn min(&self) -> Duration {
        self.samples.iter().copied().min().unwrap_or(Duration::ZERO)
    }

    /// Median sample.
    pub fn median(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        sorted[sorted.len() / 2]
    }

    /// Mean sample.
    pub fn mean(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        self.samples.iter().sum::<Duration>() / self.samples.len() as u32
    }

    /// One row of the standard output format.
    pub fn report(&self) -> String {
        format!(
            "{:<40} min {:>10.3?}   median {:>10.3?}   mean {:>10.3?}   ({} samples)",
            self.name,
            self.min(),
            self.median(),
            self.mean(),
            self.samples.len()
        )
    }
}

/// Run `f` once as a warm-up, then `samples` more times, timing each run.
///
/// The closure's return value is passed to `std::hint::black_box` so the
/// optimizer cannot delete the benchmarked work.
pub fn bench<T>(name: impl Into<String>, samples: usize, mut f: impl FnMut() -> T) -> Measurement {
    std::hint::black_box(f());
    let samples = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    Measurement {
        name: name.into(),
        samples,
    }
}

/// The first quartile, median and third quartile of `values`, by
/// nearest rank.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(mut values: Vec<f64>) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    [values[n / 4], values[n / 2], values[3 * n / 4]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_over_known_samples() {
        let m = Measurement {
            name: "t".into(),
            samples: vec![
                Duration::from_millis(3),
                Duration::from_millis(1),
                Duration::from_millis(2),
            ],
        };
        assert_eq!(m.min(), Duration::from_millis(1));
        assert_eq!(m.median(), Duration::from_millis(2));
        assert_eq!(m.mean(), Duration::from_millis(2));
    }

    #[test]
    fn quartiles_of_known_values() {
        let values = (1..=11).rev().map(f64::from).collect();
        assert_eq!(quartiles(values), [3.0, 6.0, 9.0]);
        assert_eq!(quartiles(vec![2.5]), [2.5; 3]);
    }

    #[test]
    fn bench_collects_requested_samples() {
        let mut calls = 0;
        let m = bench("noop", 5, || calls += 1);
        assert_eq!(m.samples.len(), 5);
        assert_eq!(calls, 6, "warm-up plus five samples");
    }
}
