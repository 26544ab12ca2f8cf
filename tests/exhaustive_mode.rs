//! The paper-faithful exhaustive instantiation mode (§IV.B.4): every
//! e-class is a candidate for the free right-hand-side variables of the
//! intro rules. This explodes the e-graph — which is the paper's observed
//! behaviour (10⁴–10⁵ e-nodes within a handful of steps) — so it runs
//! here on the smallest kernel only, with a node budget.

use liar::core::rules::RuleConfig;
use liar::core::{Liar, Target};
use liar::ir::dsl;
use liar::kernels::values_approx_eq;
use liar::runtime::{eval, Tensor, Value};

#[test]
fn exhaustive_intro_still_finds_the_dot_and_stays_sound() {
    let n = 4;
    let vsum = dsl::vsum(n, dsl::sym("xs"));
    let bounded = Liar::new(Target::Blas)
        .with_iter_limit(5)
        .optimize(&vsum);
    let exhaustive = Liar::new(Target::Blas)
        .with_rule_config(RuleConfig::exhaustive())
        .with_iter_limit(5)
        .with_node_limit(30_000)
        .with_match_limit(4_000)
        .optimize(&vsum);

    // Exhaustive instantiation grows the e-graph much faster…
    let bounded_nodes = bounded.best().n_nodes;
    let exhaustive_nodes = exhaustive.best().n_nodes;
    assert!(
        exhaustive_nodes > 4 * bounded_nodes,
        "exhaustive should explode: {exhaustive_nodes} vs {bounded_nodes}"
    );

    // …while the bounded default already found the latent dot product
    // (exhaustive mode needs far more steps for the same discovery —
    // which is exactly why the default bounds the candidate sets)…
    assert_eq!(bounded.best().lib_calls.get("dot"), Some(&1));

    // …and exhaustive instantiation remains semantics-preserving at every
    // step despite all the junk equalities it installs.
    let inputs = [(
        "xs".to_string(),
        Value::from(Tensor::vector(vec![1.0, -2.0, 4.0, 0.5])),
    )]
    .into();
    let expected = eval(&vsum, &inputs).unwrap();
    for step in &exhaustive.steps {
        let got = eval(&step.best, &inputs).unwrap();
        assert!(
            values_approx_eq(&expected, &got, 1e-9),
            "step {} broke semantics: {}",
            step.step,
            step.best
        );
    }
}

#[test]
fn tuple_intro_rules_fire_in_exhaustive_mode() {
    // In bounded mode the tuple intro rules are dormant unless tuples
    // exist; exhaustively they pair every class.
    use liar::core::rules::{core_rules, RuleConfig};
    use liar::egraph::Runner;
    use liar::ir::ArrayEGraph;

    let mut eg = ArrayEGraph::default();
    let root = eg.add_expr(&"(+ x y)".parse().unwrap());
    let mut runner = Runner::new(eg).with_iter_limit(1);
    runner.run(&core_rules(&RuleConfig::exhaustive()));
    // x is now also fst (tuple x b) for every class b.
    let wrapped = runner
        .egraph
        .lookup_expr(&"(fst (tuple (+ x y) x))".parse().unwrap());
    assert_eq!(wrapped, Some(runner.egraph.find(root)));
}

#[test]
fn exhaustive_mode_wraps_classes_under_no_tuple() {
    // z sits under no tuple. The default pairs tuple components only, so
    // z never gains a projection; exhaustively it pairs like any class.
    use liar::core::rules::{core_rules, RuleConfig};
    use liar::egraph::Runner;
    use liar::ir::ArrayEGraph;

    let wrapped = "(fst (tuple z p))".parse().unwrap();
    for (config, wraps) in [(RuleConfig::default(), false), (RuleConfig::exhaustive(), true)] {
        let mut eg = ArrayEGraph::default();
        eg.add_expr(&"(+ z (fst (tuple p q)))".parse().unwrap());
        let z = eg.add_expr(&"z".parse().unwrap());
        let mut runner = Runner::new(eg).with_iter_limit(1);
        runner.run(&core_rules(&config));
        let expected = wraps.then(|| runner.egraph.find(z));
        assert_eq!(runner.egraph.lookup_expr(&wrapped), expected, "{config:?}");
    }
}
