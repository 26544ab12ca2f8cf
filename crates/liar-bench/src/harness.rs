//! Saturation experiments: the solutions LIAR finds per kernel and target
//! (tables I–III of the paper).

use liar_core::{Liar, OptimizationReport, Target};
use liar_kernels::Kernel;

/// Saturation-step limit per kernel. The paper's step-limited artifact runs
/// 5–11 steps per kernel; large kernels get fewer steps here to keep table
/// regeneration interactive.
pub fn step_limit(kernel: Kernel) -> usize {
    match kernel {
        Kernel::TwoMm | Kernel::Gemver => 6,
        _ => 8,
    }
}

/// Configure the pipeline the way the tables are generated: step-limited,
/// with a node budget that keeps the search near the paper's e-graph sizes.
pub fn pipeline_for(kernel: Kernel, target: Target) -> Liar {
    Liar::new(target)
        .with_iter_limit(step_limit(kernel))
        .with_node_limit(150_000)
        .with_match_limit(30_000)
}

/// Whether saturating `kernel` for `target` at the table settings merges
/// e-classes of different array extents (8 and 3), which the analysis'
/// extent `debug_assert` rejects: a known defect of the PyTorch rules on
/// the three stencils. Always false in release builds, so tests that skip
/// these runs in debug builds still check them there.
pub fn trips_extent_assert(kernel: Kernel, target: Target) -> bool {
    cfg!(debug_assertions)
        && target == Target::Torch
        && matches!(kernel, Kernel::Jacobi1d | Kernel::Blur1d | Kernel::Stencil2d)
}

/// Optimize one kernel for one target with the table settings.
pub fn optimize_kernel(kernel: Kernel, target: Target) -> OptimizationReport {
    let expr = kernel.expr(kernel.search_size());
    pipeline_for(kernel, target).optimize(&expr)
}

/// One row of table II / table III.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// The kernel.
    pub kernel: Kernel,
    /// Library calls in the final solution, paper-style (`1 × gemv + …`).
    pub solution: String,
    /// Saturation steps run.
    pub steps: usize,
    /// Step at which the final solution first appeared.
    pub converged_at: usize,
    /// Unique e-nodes at the last step.
    pub enodes: usize,
    /// Final extraction cost.
    pub cost: f64,
}

/// Generate the rows of table II (BLAS) or table III (PyTorch).
pub fn table_rows(target: Target) -> Vec<TableRow> {
    Kernel::ALL
        .iter()
        .map(|&kernel| {
            let report = optimize_kernel(kernel, target);
            let best = report.best();
            TableRow {
                kernel,
                solution: best.solution_summary(),
                steps: best.step,
                converged_at: report.convergence_step(),
                enodes: best.n_nodes,
                cost: best.cost,
            }
        })
        .collect()
}

/// Render table I (the kernel inventory).
pub fn render_table1() -> String {
    let mut out = String::from("| Kernel | Suite | Description |\n|---|---|---|\n");
    for k in Kernel::ALL {
        out.push_str(&format!(
            "| {} | {} | {} |\n",
            k.name(),
            k.suite(),
            k.description()
        ));
    }
    out
}

/// Render table II/III rows as markdown.
pub fn render_table(target: Target, rows: &[TableRow]) -> String {
    let mut out = format!(
        "Solutions found when targeting {target} (paper table {}).\n\n",
        match target {
            Target::Blas => "II",
            Target::Torch => "III",
            Target::PureC => "—",
        }
    );
    out.push_str("| Kernel | Solution | Steps | e-Nodes |\n|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {:.2e} |\n",
            r.kernel.name(),
            r.solution,
            r.steps,
            r.enodes as f64
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vsum_row_matches_paper_shape() {
        let report = optimize_kernel(Kernel::Vsum, Target::Blas);
        assert_eq!(report.best().solution_summary(), "1 × dot");
        let report = optimize_kernel(Kernel::Vsum, Target::Torch);
        assert_eq!(report.best().solution_summary(), "1 × sum");
    }

    #[test]
    fn table1_lists_all_kernels() {
        let t = render_table1();
        for k in Kernel::ALL {
            assert!(t.contains(k.name()), "missing {k}");
        }
    }
}
