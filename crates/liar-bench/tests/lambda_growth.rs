//! R-IntroLambda abstracts a value over the index of the loop that
//! directly encloses it: its argument ranges over the classes of `%0` and
//! `%1`, not over every class holding a De Bruijn index. At the table
//! settings the largest matrix runs below stay small with their solutions;
//! pairing every index class instead grew them to 1,693–2,961 e-nodes
//! (gemm on PyTorch 2,961, now 1,471).

use liar_bench::harness::optimize_kernel;
use liar_core::Target;
use liar_kernels::Kernel;

/// Per run: the kernel, the target, its solution, and a bound above the
/// run's size and below what the unbounded argument produced (both in
/// the comment).
const RUNS: [(Kernel, Target, &str, usize); 5] = [
    // 1,031 e-nodes; 1,792 unbounded.
    (Kernel::Gemm, Target::Blas, "1 × gemm", 1_400),
    // 1,471; 2,961.
    (
        Kernel::Gemm,
        Target::Torch,
        "1 × add + 1 × mm + 2 × mul + 1 × transpose",
        2_000,
    ),
    // 1,261; 2,194.
    (
        Kernel::TwoMm,
        Target::Blas,
        "2 × gemm + 1 × memset + 2 × transpose",
        1_700,
    ),
    // 1,452; 2,780.
    (
        Kernel::TwoMm,
        Target::Torch,
        "1 × add + 2 × mm + 2 × mul + 2 × transpose",
        2_000,
    ),
    // 858; 1,693.
    (
        Kernel::Slim2mm,
        Target::Blas,
        "1 × gemm + 1 × gemv + 2 × memset",
        1_200,
    ),
];

#[test]
fn matrix_runs_stay_small() {
    for (kernel, target, solution, bound) in RUNS {
        let report = optimize_kernel(kernel, target);
        assert_eq!(
            report.best().solution_summary(),
            solution,
            "{kernel:?} on {target}"
        );
        let n_nodes = report.steps.last().unwrap().n_nodes;
        assert!(n_nodes < bound, "{kernel:?} on {target}: {n_nodes} e-nodes");
    }
}
