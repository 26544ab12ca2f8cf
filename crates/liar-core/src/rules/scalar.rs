//! Scalar arithmetic identities (paper listing 3).
//!
//! Each identity is a pair of rules (left-to-right and right-to-left);
//! commutativity is its own inverse, so four identities yield seven rules.
//!
//! The inflating directions (`x → x+0`, `x → 1*x`, `x → x*1`) have a bare
//! variable on the left-hand side. Applied literally they would match
//! every e-class (including λs and extents); the paper scopes them to
//! numbers ("x and y are numbers"). Without a type system we scope them to
//! *scalar-like* classes: classes containing a constant, an array element,
//! a parameter use, a scalar operator, or a scalar-returning library call.

use std::sync::Arc;

use liar_egraph::{Applier, Binding, EGraph, Id, Pattern, Rewrite, Searcher, Subst, Var};
use liar_ir::{ArrayAnalysis, ArrayLang, ArrayRewrite, LibFn};

use super::core_rules::AuxMemo;

type AEGraph = EGraph<ArrayLang, ArrayAnalysis>;

/// A node spelling that evidences its class is a scalar (the predicate
/// [`scalar_like`] matches on, and the spelling [`ScalarIntroApplier`]
/// records on explained proof edges — one definition so the two can
/// never drift apart).
fn is_scalar_member(n: &ArrayLang) -> bool {
    match n {
        ArrayLang::Const(_)
        | ArrayLang::Var(_)
        | ArrayLang::Get(_)
        | ArrayLang::Add(_)
        | ArrayLang::Sub(_)
        | ArrayLang::Mul(_)
        | ArrayLang::Div(_) => true,
        ArrayLang::Call(f, _) => matches!(f, LibFn::Dot | LibFn::TSum),
        _ => false,
    }
}

fn scalar_like(egraph: &AEGraph, id: Id) -> bool {
    // A class whose value has a known array extent is definitely not a
    // scalar, whatever nodes congruence has pulled into it.
    if egraph.data(id).extent.is_some() {
        return false;
    }
    egraph[id].iter().any(is_scalar_member)
}

/// Matches every scalar-like e-class, binding `?x` to it.
///
/// The candidate universe is the memoized list of scalar-like classes —
/// shared across the three intro rules, which gate on the same predicate.
struct ScalarClassSearcher {
    cands: Arc<AuxMemo>,
    x: Var,
}

impl ScalarClassSearcher {
    fn candidates(&self, egraph: &AEGraph) -> Arc<Vec<Id>> {
        self.cands.get(egraph, || {
            // One pass over the class table (avoiding a by-id lookup per
            // class), sorted afterwards: this runs every iteration.
            let mut out: Vec<Id> = egraph
                .classes()
                .filter(|c| c.data.extent.is_none() && c.iter().any(is_scalar_member))
                .map(|c| c.id)
                .collect();
            out.sort_unstable();
            out
        })
    }
}

impl Searcher<ArrayLang, ArrayAnalysis> for ScalarClassSearcher {
    fn search_class(&self, egraph: &AEGraph, class: Id, _limit: usize) -> Vec<Subst<ArrayLang>> {
        if !scalar_like(egraph, class) {
            return vec![];
        }
        let mut s = Subst::default();
        s.insert(self.x, Binding::Class(class));
        vec![s]
    }

    fn candidate_class_ids(&self, egraph: &AEGraph) -> Option<Vec<Id>> {
        Some(self.candidates(egraph).to_vec())
    }

    fn bound_vars(&self) -> Vec<Var> {
        vec![self.x]
    }
}

/// Right-hand-side shape of one inflating scalar identity.
#[derive(Clone, Copy)]
enum IntroShape {
    /// `x → x + 0`.
    AddZero,
    /// `x → 1 * x`.
    MulOneL,
    /// `x → x * 1`.
    MulOneR,
}

/// Applier for the inflating identities. Without explanations it is
/// exactly the right-hand-side pattern; with explanations it spells the
/// matched class as one of its *scalar-like* member nodes — the evidence
/// the searcher matched on — so the recorded proof step replays against
/// [`ScalarClassSearcher`]'s gate (the class's creation term may well be a
/// non-scalar spelling such as an `ifold`).
struct ScalarIntroApplier {
    shape: IntroShape,
    rhs: Pattern<ArrayLang>,
}

impl Applier<ArrayLang, ArrayAnalysis> for ScalarIntroApplier {
    fn apply(&self, egraph: &mut AEGraph, class: Id, subst: &Subst<ArrayLang>) -> Vec<Id> {
        if !egraph.are_explanations_enabled() {
            return self.rhs.apply(egraph, class, subst);
        }
        let member = egraph[class].iter().find(|n| is_scalar_member(n)).cloned();
        let lhs = match member {
            Some(node) => egraph.add(node),
            None => class,
        };
        let rhs = match self.shape {
            IntroShape::AddZero => {
                let zero = egraph.add(ArrayLang::num(0.0));
                egraph.add(ArrayLang::Add([lhs, zero]))
            }
            IntroShape::MulOneL => {
                let one = egraph.add(ArrayLang::num(1.0));
                egraph.add(ArrayLang::Mul([one, lhs]))
            }
            IntroShape::MulOneR => {
                let one = egraph.add(ArrayLang::num(1.0));
                egraph.add(ArrayLang::Mul([lhs, one]))
            }
        };
        let (id, changed) = egraph.union(lhs, rhs);
        if changed {
            vec![id]
        } else {
            vec![]
        }
    }

    fn bound_vars(&self) -> Vec<Var> {
        vec![Var::new("x")]
    }
}

fn intro(name: &str, shape: IntroShape, rhs: &str, cands: Arc<AuxMemo>) -> ArrayRewrite {
    Rewrite::new(
        name,
        ScalarClassSearcher { cands, x: Var::new("x") },
        ScalarIntroApplier {
            shape,
            rhs: rhs.parse::<Pattern<ArrayLang>>().unwrap(),
        },
    )
}

/// The scalar rules of listing 3 (E-ADDZERO, E-MULONEL, E-MULONER,
/// E-COMMUTEMUL as directional rewrites).
pub fn scalar_rules() -> Vec<ArrayRewrite> {
    // One memo for the three intro rules: they scan the same universe.
    let cands = Arc::new(AuxMemo::default());
    let rule = |name, shape, rhs| intro(name, shape, rhs, Arc::clone(&cands));
    vec![
        Rewrite::from_patterns("add-zero", "(+ ?x 0)", "?x"),
        Rewrite::from_patterns("mul-one-l", "(* 1 ?x)", "?x"),
        Rewrite::from_patterns("mul-one-r", "(* ?x 1)", "?x"),
        Rewrite::from_patterns("commute-mul", "(* ?x ?y)", "(* ?y ?x)"),
        rule("intro-add-zero", IntroShape::AddZero, "(+ ?x 0)"),
        rule("intro-mul-one-l", IntroShape::MulOneL, "(* 1 ?x)"),
        rule("intro-mul-one-r", IntroShape::MulOneR, "(* ?x 1)"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use liar_egraph::Runner;
    use liar_ir::{ArrayEGraph, Expr};

    fn e(s: &str) -> Expr {
        s.parse().unwrap()
    }

    #[test]
    fn add_zero_simplifies() {
        let mut eg = ArrayEGraph::default();
        let root = eg.add_expr(&e("(+ (get xs i) 0)"));
        let mut runner = Runner::new(eg).with_iter_limit(3);
        runner.run(&scalar_rules());
        assert_eq!(
            runner.egraph.lookup_expr(&e("(get xs i)")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn mul_one_both_sides() {
        let mut eg = ArrayEGraph::default();
        let root = eg.add_expr(&e("(* 1 (* (get xs i) 1))"));
        let mut runner = Runner::new(eg).with_iter_limit(3);
        runner.run(&scalar_rules());
        assert_eq!(
            runner.egraph.lookup_expr(&e("(get xs i)")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn intro_creates_latent_forms() {
        // The §V.A chain starts by rewriting xs[•1] to xs[•1] * 1.
        let mut eg = ArrayEGraph::default();
        let root = eg.add_expr(&e("(get xs %1)"));
        let mut runner = Runner::new(eg).with_iter_limit(2);
        runner.run(&scalar_rules());
        assert_eq!(
            runner.egraph.lookup_expr(&e("(* (get xs %1) 1)")),
            Some(runner.egraph.find(root))
        );
        assert_eq!(
            runner.egraph.lookup_expr(&e("(+ (get xs %1) 0)")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn intro_skips_non_scalar_classes() {
        let mut eg = ArrayEGraph::default();
        let lam = eg.add_expr(&e("(lam %0)"));
        let dim = eg.add_expr(&e("#8"));
        let mut runner = Runner::new(eg).with_iter_limit(2);
        runner.run(&scalar_rules());
        // λ and extent classes must not grow scalar wrappers.
        for id in [lam, dim] {
            let class = &runner.egraph[id];
            assert!(
                class.iter().all(|n| !matches!(n, ArrayLang::Add(_) | ArrayLang::Mul(_))),
                "non-scalar class got scalar nodes"
            );
        }
    }

    #[test]
    fn commutativity_saturates() {
        let mut eg = ArrayEGraph::default();
        let root = eg.add_expr(&e("(* (get a i) (get b i))"));
        let mut runner = Runner::new(eg).with_iter_limit(4);
        let rules: Vec<_> = scalar_rules()
            .into_iter()
            .filter(|r| !r.name().starts_with("intro-"))
            .collect();
        runner.run(&rules);
        assert_eq!(
            runner.egraph.lookup_expr(&e("(* (get b i) (get a i))")),
            Some(runner.egraph.find(root))
        );
        assert_eq!(runner.stop_reason, Some(liar_egraph::StopReason::Saturated));
    }
}
