//! PyTorch idiom rules (paper listing 5), in the recognition direction.
//!
//! `add` and `mul` are polymorphic in PyTorch: an array of `mul` calls is a
//! single higher-dimensional `mul`. The lift rules (I-LIFTADD, I-LIFTMUL)
//! express this; their appliers compute the product extent `n·m` for the
//! lifted call, which a plain pattern cannot do.

use liar_egraph::{
    Applier, Binding, EGraph, Id, Pattern, Rewrite, Subst, Var,
};
use liar_ir::{ArrayAnalysis, ArrayLang, ArrayRewrite, LibFn};

use super::guard::{checks_pass, Check, GuardedPattern};

type AEGraph = EGraph<ArrayLang, ArrayAnalysis>;

fn rw(name: &str, lhs: &str, rhs: &str, checks: Vec<Check>) -> ArrayRewrite {
    let lhs: Pattern<ArrayLang> = lhs.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
    let rhs: Pattern<ArrayLang> = rhs.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
    Rewrite::new(name, lhs, GuardedPattern::new(rhs, checks))
}

fn class_of(egraph: &mut AEGraph, binding: &Binding<ArrayLang>) -> Id {
    match binding {
        Binding::Class(id) => *id,
        Binding::Expr(e) => egraph.add_expr(e),
    }
}

/// Applier for the lift rules: builds `f(#(n·m), args…)` where `n` and `m`
/// are the extents bound by the pattern.
struct LiftApplier {
    fun: LibFn,
    /// Variables for the two extents to multiply.
    n: Var,
    m: Var,
    /// Variables for the value arguments, in call order.
    args: Vec<Var>,
    /// The lifted array(s) must actually have `n` rows.
    checks: Vec<Check>,
}

impl LiftApplier {
    fn new(fun: LibFn, n: &str, m: &str, args: &[&str]) -> LiftApplier {
        LiftApplier {
            fun,
            n: Var::new(n),
            m: Var::new(m),
            args: args.iter().map(Var::new).collect(),
            checks: args.iter().filter(|a| **a != "alpha").map(|a| Check::arr(a, n)).collect(),
        }
    }
}

impl Applier<ArrayLang, ArrayAnalysis> for LiftApplier {
    fn apply(&self, egraph: &mut AEGraph, class: Id, subst: &Subst<ArrayLang>) -> Vec<Id> {
        if !checks_pass(egraph, subst, &self.checks) {
            return vec![];
        }
        let dim_of = |egraph: &AEGraph, v: &Var| -> Option<usize> {
            match subst.get(v)? {
                Binding::Class(id) => egraph.data(*id).dim,
                Binding::Expr(e) => e.node(e.root()).as_dim(),
            }
        };
        let (Some(n), Some(m)) = (dim_of(egraph, &self.n), dim_of(egraph, &self.m)) else {
            return vec![]; // Extent unknown: the match was not well-formed.
        };
        let dim_id = egraph.add(ArrayLang::Dim(n * m));
        let mut children = vec![dim_id];
        for a in &self.args {
            let b = subst.get(a).expect("arg bound").clone();
            children.push(class_of(egraph, &b));
        }
        debug_assert_eq!(children.len(), self.fun.arity());
        let call = egraph.add(ArrayLang::Call(self.fun, children));
        let (id, changed) = egraph.union(class, call);
        if changed {
            vec![id]
        } else {
            vec![]
        }
    }

    fn bound_vars(&self) -> Vec<Var> {
        let mut vars = vec![self.n, self.m];
        vars.extend(&self.args);
        vars
    }
}

/// The PyTorch idiom set: dot, sum, mv, mm, transpose (+ involution), add,
/// mul, the two lift rules, and full.
pub fn torch_rules() -> Vec<ArrayRewrite> {
    vec![
        // I-DOT (same definition as BLAS; shared `dot` call).
        rw(
            "idiom-dot",
            "(ifold ?n 0 (lam (lam (+ (* (get (sh2 ?a) %1) (get (sh2 ?b) %1)) %0))))",
            "(dot ?n ?a ?b)",
            vec![Check::arr("a", "n"), Check::arr("b", "n")],
        ),
        // I-VECSUM: sum(A) = ifold N 0 (λ λ A↑↑[•1] + •0)
        rw(
            "idiom-sum",
            "(ifold ?n 0 (lam (lam (+ (get (sh2 ?a) %1) %0))))",
            "(sum ?n ?a)",
            vec![Check::arr("a", "n")],
        ),
        // I-MATVEC: mv(A, B) = build N (λ dot(A↑[•0], B↑))
        rw(
            "idiom-mv",
            "(build ?n (lam (dot ?m (get (sh1 ?a) %0) (sh1 ?b))))",
            "(mv ?n ?m ?a ?b)",
            vec![Check::arr("a", "n"), Check::arr("b", "m")],
        ),
        // I-MATMAT: mm(A, B) = build N (λ mv(B↑, A↑[•0]))
        rw(
            "idiom-mm",
            "(build ?n (lam (mv ?m ?k (sh1 ?b) (get (sh1 ?a) %0))))",
            "(mm ?n ?m ?k ?a ?b)",
            vec![Check::arr("a", "n"), Check::arr("b", "m")],
        ),
        // I-TRANSPOSE (shared with BLAS).
        rw(
            "idiom-transpose",
            "(build ?n (lam (build ?m (lam (get (get (sh2 ?a) %0) %1)))))",
            "(transpose ?m ?n ?a)",
            vec![Check::arr("a", "m")],
        ),
        // I-TRANSPOSETWICE: transpose(transpose(A)) = A
        rw(
            "idiom-transpose-twice",
            "(transpose ?n ?m (transpose ?m2 ?n2 ?a))",
            "?a",
            vec![
                Check::dims("n", "n2"),
                Check::dims("m", "m2"),
                Check::arr("a", "m2"),
            ],
        ),
        // I-ADDVEC: add(A, B) = build N (λ A↑[•0] + B↑[•0])
        rw(
            "idiom-add",
            "(build ?n (lam (+ (get (sh1 ?a) %0) (get (sh1 ?b) %0))))",
            "(add ?n ?a ?b)",
            vec![Check::arr("a", "n"), Check::arr("b", "n")],
        ),
        // I-LIFTADD: add(A, B) = build N (λ add(A↑[•0], B↑[•0]))
        Rewrite::new(
            "idiom-lift-add",
            "(build ?n (lam (add ?m (get (sh1 ?a) %0) (get (sh1 ?b) %0))))"
                .parse::<Pattern<ArrayLang>>()
                .unwrap(),
            LiftApplier::new(LibFn::TAdd, "n", "m", &["a", "b"]),
        ),
        // I-MULSCALARANDVEC: mul(α, A) = build N (λ α * A↑[•0])
        rw(
            "idiom-mul",
            "(build ?n (lam (* (sh1 ?alpha) (get (sh1 ?a) %0))))",
            "(mul ?n ?alpha ?a)",
            vec![Check::scalar("alpha"), Check::arr("a", "n")],
        ),
        // I-LIFTMUL: mul(α, A) = build N (λ mul(α, A↑[•0]))
        Rewrite::new(
            "idiom-lift-mul",
            "(build ?n (lam (mul ?m (sh1 ?alpha) (get (sh1 ?a) %0))))"
                .parse::<Pattern<ArrayLang>>()
                .unwrap(),
            LiftApplier::new(LibFn::TMul, "n", "m", &["alpha", "a"]),
        ),
        // I-FULLVEC: full(c) = build N (λ c↑)
        rw("idiom-full", "(build ?n (lam (sh1 ?c)))", "(full ?n ?c)", vec![]),
    ]
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

    fn saturate(
        expr: &Expr,
        iters: usize,
    ) -> (Runner<ArrayLang, ArrayAnalysis>, liar_egraph::Id) {
        let mut eg = ArrayEGraph::default();
        let root = eg.add_expr(expr);
        let mut rules = core_rules(&RuleConfig::default());
        rules.extend(scalar_rules());
        rules.extend(torch_rules());
        let mut runner = Runner::new(eg).with_iter_limit(iters).with_node_limit(200_000);
        runner.run(&rules);
        (runner, root)
    }

    #[test]
    fn sum_recognized_in_vsum() {
        let expr = dsl::vsum(8, dsl::sym("xs"));
        let (runner, root) = saturate(&expr, 2);
        assert_eq!(
            runner.egraph.lookup_expr(&e("(sum #8 xs)")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn mv_recognized_from_matvec() {
        let expr = dsl::matvec(4, 8, dsl::sym("A"), dsl::sym("B"));
        let (runner, root) = saturate(&expr, 3);
        assert_eq!(
            runner.egraph.lookup_expr(&e("(mv #4 #8 A B)")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn mm_recognized_from_matmat() {
        // matmat composes A·B as rows of A dotted with rows of Bᵀ; the
        // engine should find mm(A, transpose(B)).
        let expr = dsl::matmat(2, 3, 4, dsl::sym("A"), dsl::sym("B"));
        let (runner, root) = saturate(&expr, 4);
        assert_eq!(
            runner.egraph.lookup_expr(&e("(mm #2 #3 #4 A (transpose #4 #3 B))")),
            Some(runner.egraph.find(root)),
            "matmat should become mm(A, transpose(B))"
        );
    }

    #[test]
    fn add_recognized_from_vadd() {
        let expr = dsl::vadd(8, dsl::sym("A"), dsl::sym("B"));
        let (runner, root) = saturate(&expr, 2);
        assert_eq!(
            runner.egraph.lookup_expr(&e("(add #8 A B)")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn lift_add_computes_product_extent() {
        // A matrix addition is a vector of vector additions, which lifts
        // to a single add over n·m elements.
        let expr = dsl::madd(4, 8, dsl::sym("A"), dsl::sym("B"));
        let (runner, root) = saturate(&expr, 3);
        assert_eq!(
            runner.egraph.lookup_expr(&e("(add #32 A B)")),
            Some(runner.egraph.find(root)),
            "lifted add over 4·8 elements"
        );
    }

    #[test]
    fn lift_mul_computes_product_extent() {
        let expr = dsl::mscale(4, 8, dsl::sym("alpha"), dsl::sym("A"));
        let (runner, root) = saturate(&expr, 3);
        assert_eq!(
            runner.egraph.lookup_expr(&e("(mul #32 alpha A)")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn full_recognized_from_constvec() {
        let expr = dsl::constvec(8, dsl::num(0.33333));
        let (runner, root) = saturate(&expr, 2);
        assert_eq!(
            runner.egraph.lookup_expr(&e("(full #8 0.33333)")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn transpose_twice_cancels() {
        let expr = e("(transpose #3 #4 (transpose #4 #3 A))");
        let (runner, root) = saturate(&expr, 2);
        assert_eq!(
            runner.egraph.lookup_expr(&e("A")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn torch_shift_rules_match_identically_under_vm_and_oracle() {
        // The torch idioms lean on sh1/sh2 shift patterns; after a couple
        // of saturation steps the graph contains real Downshift work, and
        // the compiled matcher must agree with the oracle on all of it.
        let expr = dsl::vsum(8, dsl::sym("xs"));
        let (runner, _) = saturate(&expr, 2);
        let eg = &runner.egraph;
        for rule in torch_rules() {
            let Some(pattern) = rule.searcher_pattern() else { continue };
            for class in eg.class_ids() {
                let vm = pattern.match_class(eg, class);
                let oracle = pattern.match_class_oracle(eg, class);
                assert_eq!(vm.len(), oracle.len(), "rule {}", rule.name());
                let find = |id| eg.find(id);
                for (a, b) in vm.iter().zip(&oracle) {
                    assert!(a.same_as(b, &find), "rule {}", rule.name());
                }
            }
        }
    }
}
