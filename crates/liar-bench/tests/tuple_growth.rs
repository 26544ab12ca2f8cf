//! mvt is the one evaluation kernel with a tuple. Its runs at the table
//! settings and on the union ruleset stay small with their solutions:
//! the tuple intro rules pair tuple components with tuple components
//! only. Pairing every class with a component instead grew these runs
//! to 24,663–31,728 e-nodes.

use liar_bench::harness::pipeline_for;
use liar_core::{Liar, Target};
use liar_kernels::Kernel;

/// A bound well above the runs' sizes (759, 1,969 and 699 e-nodes) and
/// far below what the unclosed tuple bound produced.
const NODE_BOUND: usize = 4_000;

const BLAS: &str = "2 × axpy + 2 × gemv + 2 × memset";
const TORCH: &str = "2 × add + 2 × mv + 1 × transpose";

fn mvt() -> liar_ir::Expr {
    Kernel::Mvt.expr(Kernel::Mvt.search_size())
}

#[test]
fn mvt_per_target_runs_stay_small() {
    for (target, solution) in [(Target::Blas, BLAS), (Target::Torch, TORCH)] {
        let report = pipeline_for(Kernel::Mvt, target).optimize(&mvt());
        assert_eq!(report.best().solution_summary(), solution, "{target}");
        let n_nodes = report.steps.last().unwrap().n_nodes;
        assert!(n_nodes < NODE_BOUND, "{target}: {n_nodes} e-nodes");
    }
}

#[test]
fn mvt_union_ruleset_stays_small() {
    // The pipeline of `liar emit-c --targets pure-c,blas,pytorch --steps 6`.
    let report = Liar::new(Target::PureC)
        .with_iter_limit(6)
        .optimize_multi(&mvt(), &Target::ALL, &[1.0])
        .unwrap();
    let solutions: Vec<String> = report.solutions.iter().map(|s| s.solution_summary()).collect();
    assert_eq!(solutions, ["—", BLAS, TORCH]);
    assert!(report.n_nodes < NODE_BOUND, "{} e-nodes", report.n_nodes);
}
