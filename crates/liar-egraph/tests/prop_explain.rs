//! Property tests for proof production: after random rewrite sweeps over
//! random SymbolLang terms, `explain_equivalence` between *any* two
//! asserted-equal terms must produce a proof that replays clean through
//! `Explanation::check` — for every pair, not just the pairs the rules
//! happened to merge directly (congruence-stitched proofs included).
//!
//! Gated behind the `proptest` feature like the other property suites
//! (the offline workspace does not vendor proptest).

use proptest::prelude::*;

use liar_egraph::explain::canonical_expr;
use liar_egraph::{EGraph, RecExpr, Rewrite, Runner, SymbolLang};

type EG = EGraph<SymbolLang, ()>;

/// Random terms over the f/g/a/b/c signature (shared shape with
/// `prop_egraph.rs`).
fn arb_term(depth: u32) -> BoxedStrategy<RecExpr<SymbolLang>> {
    let leaf = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
    ];
    leaf.prop_recursive(depth, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("(f {x} {y})")),
            inner.clone().prop_map(|x| format!("(g {x})")),
        ]
    })
    .prop_map(|s| s.parse().unwrap())
    .boxed()
}

/// A small rule pool over the same signature: commutativity, a
/// collapse/expand pair, and a unary unwrap — enough to merge classes in
/// chains, backwards steps and congruence cascades.
fn rule_pool() -> Vec<Rewrite<SymbolLang, ()>> {
    vec![
        Rewrite::from_patterns("comm-f", "(f ?x ?y)", "(f ?y ?x)"),
        Rewrite::from_patterns("pair-to-g", "(f ?x ?x)", "(g ?x)"),
        Rewrite::from_patterns("g-to-pair", "(g ?x)", "(f ?x ?x)"),
        Rewrite::from_patterns("gg-collapse", "(g (g ?x))", "(g ?x)"),
        Rewrite::from_patterns("fold-left", "(f (f ?x ?y) ?z)", "(f ?x (f ?y ?z))"),
    ]
}

/// Saturate the terms under a rule subset with explanations on.
fn saturated(
    terms: &[RecExpr<SymbolLang>],
    rule_mask: usize,
) -> (Runner<SymbolLang, ()>, Vec<liar_egraph::Id>) {
    let mut eg = EG::default().with_explanations_enabled();
    let ids: Vec<_> = terms.iter().map(|t| eg.add_expr(t)).collect();
    let pool = rule_pool();
    let rules: Vec<_> = pool
        .into_iter()
        .enumerate()
        .filter(|(i, _)| rule_mask & (1 << i) != 0)
        .map(|(_, r)| r)
        .collect();
    let mut runner = Runner::new(eg).with_iter_limit(5).with_node_limit(5_000);
    runner.run(&rules);
    (runner, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every asserted-equal pair of input terms explains, and every proof
    /// replays against exactly the rules that ran.
    #[test]
    fn equal_terms_explain_and_replay(
        terms in proptest::collection::vec(arb_term(4), 2..6),
        rule_mask in 1usize..32,
    ) {
        let (mut runner, ids) = saturated(&terms, rule_mask);
        let pool = rule_pool();
        let rules: Vec<_> = pool
            .into_iter()
            .enumerate()
            .filter(|(i, _)| rule_mask & (1 << i) != 0)
            .map(|(_, r)| r)
            .collect();
        for i in 0..terms.len() {
            for j in (i + 1)..terms.len() {
                if runner.egraph.find(ids[i]) != runner.egraph.find(ids[j]) {
                    // Not equal: no proof may exist either.
                    prop_assert!(
                        runner.egraph.try_explain_equivalence(&terms[i], &terms[j]).is_none(),
                        "proof for unequal terms {} and {}", terms[i], terms[j]
                    );
                    continue;
                }
                let proof = runner.egraph.explain_equivalence(&terms[i], &terms[j]);
                prop_assert_eq!(&proof.source, &canonical_expr(&terms[i]));
                prop_assert_eq!(&proof.target, &canonical_expr(&terms[j]));
                if let Err(e) = proof.check(&rules) {
                    prop_assert!(
                        false,
                        "{} = {} failed to replay: {e}\nproof:\n{}",
                        terms[i], terms[j], proof
                    );
                }
            }
        }
    }

    /// Proofs are also complete *within* one term: every subterm pair the
    /// saturation merged (e.g. by congruence) explains and replays.
    #[test]
    fn rewritten_forms_explain_back_to_the_source(
        term in arb_term(4),
        rule_mask in 1usize..32,
    ) {
        let (mut runner, ids) = saturated(std::slice::from_ref(&term), rule_mask);
        let pool = rule_pool();
        let rules: Vec<_> = pool
            .into_iter()
            .enumerate()
            .filter(|(i, _)| rule_mask & (1 << i) != 0)
            .map(|(_, r)| r)
            .collect();
        // Prove the smallest representative of the root class (which the
        // rules may have reached through many intermediate merges) equal
        // to the original term.
        let root = runner.egraph.find(ids[0]);
        let extractor = liar_egraph::Extractor::new(&runner.egraph, liar_egraph::AstSize);
        let (_, smallest) = extractor.find_best(root);
        for other in &[smallest] {
            let proof = runner.egraph.explain_equivalence(&term, other);
            prop_assert_eq!(&proof.source, &canonical_expr(&term));
            prop_assert_eq!(&proof.target, &canonical_expr(other));
            if let Err(e) = proof.check(&rules) {
                prop_assert!(false, "{} = {} failed to replay: {e}", term, other);
            }
        }
    }

    /// Tampering with any single step of a real proof is caught by the
    /// replay (certificates carry no trust).
    #[test]
    fn tampered_steps_fail_the_replay(
        terms in proptest::collection::vec(arb_term(3), 2..4),
        rule_mask in 1usize..32,
        victim in 0usize..64,
    ) {
        let (mut runner, ids) = saturated(&terms, rule_mask);
        let pool = rule_pool();
        let rules: Vec<_> = pool
            .into_iter()
            .enumerate()
            .filter(|(i, _)| rule_mask & (1 << i) != 0)
            .map(|(_, r)| r)
            .collect();
        for i in 0..terms.len() {
            for j in (i + 1)..terms.len() {
                if runner.egraph.find(ids[i]) != runner.egraph.find(ids[j]) {
                    continue;
                }
                let proof = runner.egraph.explain_equivalence(&terms[i], &terms[j]);
                if proof.steps.is_empty() {
                    continue;
                }
                // Rename the rule of one step to one that cannot derive it.
                let mut forged = proof.clone();
                let k = victim % forged.steps.len();
                forged.steps[k].rule = "gg-collapse-never-fires-here".to_string();
                prop_assert!(forged.check(&rules).is_err());
            }
        }
    }
}
