//! The PyTorch lift rules mint a product extent `#(n·m)` for each lifted
//! call, and R-IntroIndexBuild pairs its matches with loop extents only,
//! so those element counts do not multiply the graph. At the table
//! settings the PyTorch runs below stay small with their solutions;
//! pairing every extent class instead grew gemm to 13,715 e-nodes and
//! each stencil to 6,653. (Debug builds check gemm only: the stencils trip
//! the analysis' extent `debug_assert`.)

use liar_bench::harness::{pipeline_for, trips_extent_assert};
use liar_core::Target;
use liar_kernels::Kernel;

/// Per run: the kernel, its PyTorch solution, and a bound well above the
/// run's size (2,961 e-nodes for gemm, 1,371 for each stencil) and far
/// below what the unbounded extent produced.
const RUNS: [(Kernel, &str, usize); 4] = [
    (Kernel::Gemm, "1 × add + 1 × mm + 2 × mul + 1 × transpose", 4_000),
    (Kernel::Jacobi1d, "1 × full + 1 × mv", 2_000),
    (Kernel::Blur1d, "1 × full + 1 × mv", 2_000),
    (Kernel::Stencil2d, "1 × full + 1 × mv", 2_000),
];

#[test]
fn pytorch_runs_stay_small() {
    for (kernel, solution, bound) in RUNS {
        if trips_extent_assert(kernel, Target::Torch) {
            continue;
        }
        let expr = kernel.expr(kernel.search_size());
        let report = pipeline_for(kernel, Target::Torch).optimize(&expr);
        assert_eq!(report.best().solution_summary(), solution, "{kernel:?}");
        let n_nodes = report.steps.last().unwrap().n_nodes;
        assert!(n_nodes < bound, "{kernel:?}: {n_nodes} e-nodes");
    }
}
