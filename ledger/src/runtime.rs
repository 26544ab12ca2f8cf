//! The independent output check and the solution run-time measurement,
//! both in `liar-runtime` against the hand-written `Kernel::reference`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use liar_ir::Expr;
use liar_kernels::{values_approx_eq, Kernel};
use liar_runtime::{exec, Value};

use crate::stats::{median, ms};

/// The inputs, reference output and C signature of one kernel at one
/// problem size.
pub struct Case {
    pub kernel: Kernel,
    pub n: usize,
    pub expr: Expr,
    pub inputs: HashMap<String, Value>,
    pub reference: Value,
    /// `(name, shape)` of every input, sorted by name so emitted C is
    /// byte-stable across runs.
    pub shapes: Vec<(String, Vec<usize>)>,
}

impl Case {
    /// Build the case for `kernel` at size `n`, inputs drawn from `seed`.
    pub fn new(kernel: Kernel, n: usize, seed: u64) -> Result<Case, String> {
        let inputs = kernel.inputs(n, seed);
        let reference = kernel.reference(n, &inputs)?;
        let mut shapes: Vec<(String, Vec<usize>)> = inputs
            .iter()
            .map(|(name, v)| {
                let shape = v
                    .to_tensor()
                    .map(|t| t.shape().to_vec())
                    .unwrap_or_default();
                (name.clone(), shape)
            })
            .collect();
        shapes.sort();
        Ok(Case {
            kernel,
            n,
            expr: kernel.expr(n),
            inputs,
            reference,
            shapes,
        })
    }

    /// Evaluate `solution` on the case's inputs and compare it with the
    /// reference at the tolerance the fig. 7 harness uses (`1e-6 × n`).
    pub fn check(&self, solution: &Expr) -> Result<(), String> {
        // The interpreter asserts shapes inside library calls; a solution
        // that trips one is a wrong solution, not a crashed benchmark.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec::run(solution, &self.inputs)
        }));
        let (value, _) = run
            .map_err(|_| "the interpreter panicked".to_string())?
            .map_err(|e| format!("eval: {e:?}"))?;
        if values_approx_eq(&value, &self.reference, 1e-6 * self.n as f64) {
            Ok(())
        } else {
            Err("output differs from Kernel::reference".to_string())
        }
    }
}

/// Mean milliseconds per call of `f` over a batch at least `min` long.
pub fn time_batch(mut f: impl FnMut(), min: Duration) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    loop {
        f();
        calls += 1;
        if start.elapsed() >= min {
            break;
        }
    }
    ms(start.elapsed()) / calls as f64
}

/// Run times of one solution and its reference: medians over rounds.
pub struct Timing {
    pub kernel: Kernel,
    pub solution_ms: f64,
    pub reference_ms: f64,
}

impl Timing {
    pub fn speedup(&self) -> f64 {
        self.reference_ms / self.solution_ms
    }
}

/// Time each `(case, solution)` against its reference. Rounds alternate
/// solution and reference batches for every kernel, so drift in machine
/// speed hits both sides alike; each side reports its median over the
/// rounds run within `budget` (at least `min_rounds`).
pub fn time_solutions(
    items: &[(&Case, &Expr)],
    budget: Duration,
    min_rounds: usize,
) -> Vec<Timing> {
    const BATCH: Duration = Duration::from_millis(2);
    let start = Instant::now();
    let mut sol: Vec<Vec<f64>> = vec![Vec::new(); items.len()];
    let mut refs: Vec<Vec<f64>> = vec![Vec::new(); items.len()];
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed() < budget {
        for (i, (case, solution)) in items.iter().enumerate() {
            sol[i].push(time_batch(
                || {
                    black_box(exec::run(solution, &case.inputs).ok());
                },
                BATCH,
            ));
            refs[i].push(time_batch(
                || {
                    black_box(case.kernel.reference(case.n, &case.inputs).ok());
                },
                BATCH,
            ));
        }
        rounds += 1;
    }
    items
        .iter()
        .enumerate()
        .map(|(i, (case, _))| Timing {
            kernel: case.kernel,
            solution_ms: median(&sol[i]),
            reference_ms: median(&refs[i]),
        })
        .collect()
}
