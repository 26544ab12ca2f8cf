//! The worked examples from the paper's prose, end to end.

use liar::core::rules::{core_rules, rules_for, scalar_rules, RuleConfig};
use liar::core::{Liar, Target};
use liar::egraph::Runner;
use liar::ir::{dsl, ArrayEGraph, Expr};

fn e(s: &str) -> Expr {
    s.parse().unwrap()
}

/// §IV.C.1: map fusion. `build n (λ f (build n (λ g xs[•0]))[•0])` equals
/// `build n (λ f (g xs[•0]))` under the core rules alone.
#[test]
fn section_4c1_map_fusion() {
    let two_maps = e("(build #8 (lam (* (get (build #8 (lam (+ (get xs %0) 1))) %0) 2)))");
    let fused = e("(build #8 (lam (* (+ (get xs %0) 1) 2)))");
    let mut eg = ArrayEGraph::default();
    let root = eg.add_expr(&two_maps);
    let mut runner = Runner::new(eg).with_iter_limit(4);
    runner.run(&core_rules(&RuleConfig::default()));
    assert_eq!(
        runner.egraph.lookup_expr(&fused),
        Some(runner.egraph.find(root)),
        "map fusion follows from R-ElimIndexBuild + R-BetaReduce"
    );
}

/// §IV.C.2: constant array construction. `build n (λ xs[•0] + 42)` equals
/// `addvec(xs, constvec(42))` once the library idioms are in play; with
/// the PyTorch rules this is `add(xs, full(42))`.
#[test]
fn section_4c2_constant_array() {
    let program = e("(build #8 (lam (+ (get xs %0) 42)))");
    let report = Liar::new(Target::Torch).with_iter_limit(6).optimize(&program);
    assert_eq!(
        report.best().solution_summary(),
        "1 × add + 1 × full",
        "best: {}",
        report.best().best
    );
    assert_eq!(
        report.best().best,
        e("(add #8 xs (full #8 42))"),
    );
}

/// §V.A: the latent dot product in vector sum, via E-MULONER,
/// R-INTROLAMBDA and R-INTROINDEXBUILD.
#[test]
fn section_5a_latent_dot_product() {
    let vsum = e("(ifold #8 0 (lam (lam (+ (get xs %1) %0))))");
    let mut eg = ArrayEGraph::default();
    let root = eg.add_expr(&vsum);
    let mut runner = Runner::new(eg).with_iter_limit(5);
    runner.run(&rules_for(Target::Blas, &RuleConfig::default()));
    // The intermediate form the paper derives:
    //   ifold n 0 (λ λ xs[•1] * (build n (λ 1))[•1] + •0)
    let intermediate = e(
        "(ifold #8 0 (lam (lam (+ (* (get xs %1) (get (build #8 (lam 1)) %1)) %0))))",
    );
    assert_eq!(
        runner.egraph.lookup_expr(&intermediate),
        Some(runner.egraph.find(root)),
        "the ones-vector form must be derived"
    );
    // And the final library form.
    let as_dot = e("(dot #8 xs (build #8 (lam 1)))");
    assert_eq!(
        runner.egraph.lookup_expr(&as_dot),
        Some(runner.egraph.find(root))
    );
}

/// §VI: the gemv kernel is "simply gemvF(α, A, B, β, C)" when targeting
/// BLAS, and granular add/mul/mv calls when targeting PyTorch.
#[test]
fn section_6_gemv_two_targets() {
    let gemv = dsl::vadd(
        8,
        dsl::vscale(8, dsl::sym("alpha"), dsl::matvec(8, 8, dsl::sym("A"), dsl::sym("B"))),
        dsl::vscale(8, dsl::sym("beta"), dsl::sym("C")),
    );
    let blas = Liar::new(Target::Blas).with_iter_limit(7).optimize(&gemv);
    assert_eq!(blas.best().best, e("(gemv #8 #8 alpha A B beta C)"));

    let torch = Liar::new(Target::Torch).with_iter_limit(7).optimize(&gemv);
    let calls = &torch.best().lib_calls;
    assert_eq!(calls.get("add"), Some(&1), "torch best: {}", torch.best().best);
    assert_eq!(calls.get("mul"), Some(&2));
    assert_eq!(calls.get("mv"), Some(&1));
}

/// §II's background example, transliterated: a rewrite rule turns division
/// into shift, and extraction picks the cheap form.
#[test]
fn section_2_background_shift_example() {
    // In our IR: (a / 2) + 2 where the "shift" is modeled by * 0.5.
    let mut eg = ArrayEGraph::default();
    let root = eg.add_expr(&e("(+ (/ a 2) 2)"));
    let rules = vec![liar::egraph::Rewrite::from_patterns(
        "div2-to-mul-half",
        "(/ ?x 2)",
        "(* ?x 0.5)",
    )];
    let mut runner = Runner::new(eg).with_iter_limit(3);
    runner.run(&rules);
    assert_eq!(
        runner.egraph.lookup_expr(&e("(+ (* a 0.5) 2)")),
        Some(runner.egraph.find(root))
    );
}

/// The scalar rules never fire on non-scalar classes, so λ-classes stay
/// clean even after many steps (regression guard for the "x and y are
/// numbers" side condition of listing 3).
#[test]
fn scalar_rules_respect_side_condition() {
    let program = e("(build #4 (lam (+ (get xs %0) 1)))");
    let mut eg = ArrayEGraph::default();
    let root = eg.add_expr(&program);
    let mut runner = Runner::new(eg).with_iter_limit(5);
    runner.run(&scalar_rules());
    // The root is an array-valued build: it must not acquire + or * nodes.
    let class = &runner.egraph[root];
    assert!(class
        .iter()
        .all(|n| !matches!(n, liar::ir::ArrayLang::Add(_) | liar::ir::ArrayLang::Mul(_))));
}
