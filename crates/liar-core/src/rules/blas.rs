//! BLAS idiom rules (paper listing 4), in the recognition direction.
//!
//! Shift patterns `(sh1 ?x)` / `(sh2 ?x)` correspond to the `↑` / `↑↑`
//! applications in the listing: they match classes whose terms do not use
//! the enclosing binders and bind the variable to the downshifted term.

use liar_egraph::{Pattern, Rewrite};
use liar_ir::{ArrayLang, ArrayRewrite};

use super::guard::{Check, GuardedPattern};

fn rw(name: &str, lhs: &str, rhs: &str, checks: Vec<Check>) -> ArrayRewrite {
    let lhs: Pattern<ArrayLang> = lhs.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
    let rhs: Pattern<ArrayLang> = rhs.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
    Rewrite::new(name, lhs, GuardedPattern::new(rhs, checks))
}

/// The BLAS idiom set: dot, axpy, gemv (both orientations), gemm (all four
/// orientations via transpose-hoisting), transpose, the dot/mul hoist, and
/// memset.
pub fn blas_rules() -> Vec<ArrayRewrite> {
    let mut rules = vec![
        // I-DOT: dot(A, B) = ifold N 0 (λ λ A↑↑[•1] * B↑↑[•1] + •0)
        rw(
            "idiom-dot",
            "(ifold ?n 0 (lam (lam (+ (* (get (sh2 ?a) %1) (get (sh2 ?b) %1)) %0))))",
            "(dot ?n ?a ?b)",
            vec![Check::arr("a", "n"), Check::arr("b", "n")],
        ),
        // I-AXPY: axpy(α, A, B) = build N (λ α↑ * A↑[•0] + B↑[•0])
        rw(
            "idiom-axpy",
            "(build ?n (lam (+ (* (sh1 ?alpha) (get (sh1 ?a) %0)) (get (sh1 ?b) %0))))",
            "(axpy ?n ?alpha ?a ?b)",
            vec![
                Check::scalar("alpha"),
                Check::arr("a", "n"),
                Check::arr("b", "n"),
            ],
        ),
        // I-GEMV: gemvF(α, A, B, β, C)
        //       = build N (λ α↑ * dot(A↑[•0], B↑) + β↑ * C↑[•0])
        rw(
            "idiom-gemv",
            "(build ?n (lam (+ (* (sh1 ?alpha) (dot ?m (get (sh1 ?a) %0) (sh1 ?b))) \
                              (* (sh1 ?beta) (get (sh1 ?c) %0)))))",
            "(gemv ?n ?m ?alpha ?a ?b ?beta ?c)",
            vec![
                Check::scalar("alpha"),
                Check::scalar("beta"),
                Check::arr("a", "n"),
                Check::arr("b", "m"),
                Check::arr("c", "n"),
            ],
        ),
        // I-GEMM: gemmF,T(α, A, B, β, C)
        //       = build N (λ gemvF(α↑, B↑, A↑[•0], β↑, C↑[•0]))
        rw(
            "idiom-gemm",
            "(build ?n (lam (gemv ?m ?k (sh1 ?alpha) (sh1 ?b) (get (sh1 ?a) %0) \
                                  (sh1 ?beta) (get (sh1 ?c) %0))))",
            "(gemmFT ?n ?m ?k ?alpha ?a ?b ?beta ?c)",
            vec![
                Check::scalar("alpha"),
                Check::scalar("beta"),
                Check::arr("a", "n"),
                Check::arr("b", "m"),
                Check::arr("c", "n"),
            ],
        ),
        // I-TRANSPOSE: transpose(A) = build N (λ build M (λ A↑↑[•0][•1]))
        rw(
            "idiom-transpose",
            "(build ?n (lam (build ?m (lam (get (get (sh2 ?a) %0) %1)))))",
            "(transpose ?m ?n ?a)",
            vec![Check::arr("a", "m")],
        ),
        // I-HOISTMULFROMDOT: dot(build N (λ α * A[•0]), B) = α * dot(A, B)
        rw(
            "idiom-hoist-mul-from-dot",
            "(dot ?n (build ?n2 (lam (* (sh1 ?alpha) (get (sh1 ?a) %0)))) ?b)",
            "(* ?alpha (dot ?n ?a ?b))",
            vec![
                Check::scalar("alpha"),
                Check::dims("n", "n2"),
                Check::arr("a", "n"),
                Check::arr("b", "n"),
            ],
        ),
        // I-MEMSETZERO: memset(0) = build N (λ 0)
        rw("idiom-memset-zero", "(build ?n (lam 0))", "(memset ?n 0)", vec![]),
    ];

    // I-TRANSPOSEINGEMV: gemvX(α, transpose(A), B, β, c) = gemv¬X(α, A, B, β, c)
    for (x, notx) in [("gemv", "gemvT"), ("gemvT", "gemv")] {
        // gemv's A is n×m (or m×n stored when transposed); a transpose in
        // the A slot must have matching dims to hoist.
        let checks = if x == "gemv" {
            vec![Check::dims("m2", "n"), Check::dims("n2", "m")]
        } else {
            vec![Check::dims("m2", "m"), Check::dims("n2", "n")]
        };
        rules.push(rw(
            &format!("idiom-transpose-in-{x}"),
            &format!("({x} ?n ?m ?alpha (transpose ?n2 ?m2 ?a) ?b ?beta ?c)"),
            &format!("({notx} ?n ?m ?alpha ?a ?b ?beta ?c)"),
            checks,
        ));
    }
    // I-TRANSPOSEAINGEMM / I-TRANSPOSEBINGEMM: flip one transpose flag.
    for ta in ["F", "T"] {
        for tb in ["F", "T"] {
            let not = |f: &str| if f == "F" { "T" } else { "F" };
            // In the FF orientation A is stored n×k and B m×k; a set flag
            // means the stored matrix is transposed. A transpose call in a
            // slot must produce the orientation that slot expects.
            let a_checks = if ta == "F" {
                vec![Check::dims("m2", "n"), Check::dims("n2", "k")]
            } else {
                vec![Check::dims("m2", "k"), Check::dims("n2", "n")]
            };
            rules.push(rw(
                &format!("idiom-transpose-a-in-gemm{ta}{tb}"),
                &format!(
                    "(gemm{ta}{tb} ?n ?m ?k ?alpha (transpose ?n2 ?m2 ?a) ?b ?beta ?c)"
                ),
                &format!("(gemm{}{tb} ?n ?m ?k ?alpha ?a ?b ?beta ?c)", not(ta)),
                a_checks,
            ));
            let b_checks = if tb == "F" {
                vec![Check::dims("m2", "m"), Check::dims("n2", "k")]
            } else {
                vec![Check::dims("m2", "k"), Check::dims("n2", "m")]
            };
            rules.push(rw(
                &format!("idiom-transpose-b-in-gemm{ta}{tb}"),
                &format!(
                    "(gemm{ta}{tb} ?n ?m ?k ?alpha ?a (transpose ?n2 ?m2 ?b) ?beta ?c)"
                ),
                &format!("(gemm{ta}{} ?n ?m ?k ?alpha ?a ?b ?beta ?c)", not(tb)),
                b_checks,
            ));
        }
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{core_rules, scalar_rules, RuleConfig};
    use liar_egraph::Runner;
    use liar_ir::{dsl, ArrayEGraph, Expr};

    fn e(s: &str) -> Expr {
        s.parse().unwrap()
    }

    fn saturate(expr: &Expr, iters: usize) -> (Runner<liar_ir::ArrayLang, liar_ir::ArrayAnalysis>, liar_egraph::Id) {
        let mut eg = ArrayEGraph::default();
        let root = eg.add_expr(expr);
        let mut rules = core_rules(&RuleConfig::default());
        rules.extend(scalar_rules());
        rules.extend(blas_rules());
        let mut runner = Runner::new(eg).with_iter_limit(iters).with_node_limit(200_000);
        runner.run(&rules);
        (runner, root)
    }

    #[test]
    fn dot_recognized_directly() {
        let expr = dsl::dot(8, dsl::sym("a"), dsl::sym("b"));
        let (runner, root) = saturate(&expr, 2);
        assert_eq!(
            runner.egraph.lookup_expr(&e("(dot #8 a b)")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn axpy_recognized_from_vadd_vscale() {
        // axpy kernel: vadd(vscale(α, A), B).
        let expr = dsl::vadd(
            8,
            dsl::vscale(8, dsl::sym("alpha"), dsl::sym("A")),
            dsl::sym("B"),
        );
        let (runner, root) = saturate(&expr, 4);
        assert_eq!(
            runner.egraph.lookup_expr(&e("(axpy #8 alpha A B)")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn latent_dot_in_vector_sum() {
        // §V.A: vsum = ifold n 0 (λλ xs[•1] + •0) hides dot(xs, ones).
        let expr = dsl::vsum(8, dsl::sym("xs"));
        let (runner, root) = saturate(&expr, 4);
        let as_dot = e("(dot #8 xs (build #8 (lam 1)))");
        assert_eq!(
            runner.egraph.lookup_expr(&as_dot),
            Some(runner.egraph.find(root)),
            "vector sum should expose dot(xs, build n (λ 1))"
        );
    }

    #[test]
    fn transpose_recognized() {
        let expr = dsl::transposeb(4, 8, dsl::sym("A"));
        let (runner, root) = saturate(&expr, 2);
        assert_eq!(
            runner.egraph.lookup_expr(&e("(transpose #4 #8 A)")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn gemv_recognized_from_composition() {
        // gemv kernel: vadd(vscale(α, matvec(A, B)), vscale(β, C)).
        let expr = dsl::vadd(
            4,
            dsl::vscale(4, dsl::sym("alpha"), dsl::matvec(4, 8, dsl::sym("A"), dsl::sym("B"))),
            dsl::vscale(4, dsl::sym("beta"), dsl::sym("C")),
        );
        let (runner, root) = saturate(&expr, 6);
        assert_eq!(
            runner.egraph.lookup_expr(&e("(gemv #4 #8 alpha A B beta C)")),
            Some(runner.egraph.find(root)),
            "gemv should be recognized"
        );
    }

    #[test]
    fn hoist_mul_from_dot() {
        let expr = e("(dot #8 (build #8 (lam (* alpha (get A %0)))) B)");
        let (runner, root) = saturate(&expr, 2);
        assert_eq!(
            runner.egraph.lookup_expr(&e("(* alpha (dot #8 A B))")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn memset_zero_recognized() {
        let expr = dsl::constvec(16, dsl::num(0.0));
        let (runner, root) = saturate(&expr, 2);
        assert_eq!(
            runner.egraph.lookup_expr(&e("(memset #16 0)")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn transpose_hoists_out_of_gemv() {
        let expr = e("(gemv #4 #8 alpha (transpose #8 #4 A) B beta C)");
        let (runner, root) = saturate(&expr, 2);
        assert_eq!(
            runner.egraph.lookup_expr(&e("(gemvT #4 #8 alpha A B beta C)")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn shift_rules_compile_to_downshift_instructions() {
        use liar_egraph::machine::Instr;
        // Every BLAS idiom whose LHS carries a `(sh<k> …)` pattern must
        // exercise the VM's Downshift instruction family; the rest must
        // still get an operator-index entry point from their root node.
        let mut shift_rules = 0;
        for rule in blas_rules() {
            let pattern = rule.searcher_pattern().expect("blas searchers are patterns");
            let program = pattern.compiled();
            assert!(
                program.root_op_key().is_some(),
                "{}: LHS root should be indexable",
                rule.name()
            );
            let has_shift = pattern
                .to_string()
                .contains("(sh");
            let has_downshift = program.instructions().iter().any(|i| {
                matches!(
                    i,
                    Instr::Downshift { .. }
                        | Instr::DownshiftCompare { .. }
                        | Instr::DownshiftCompareClass { .. }
                )
            });
            assert_eq!(
                has_shift,
                has_downshift,
                "{}: shift syntax and Downshift instructions must coincide",
                rule.name()
            );
            shift_rules += usize::from(has_shift);
        }
        assert!(shift_rules >= 6, "expected most BLAS idioms to use shifts");
    }
}
