//! Property tests for e-graph snapshots: on arbitrary evolving e-graphs
//! (random terms, then rounds of adds and unions with rebuilds
//! collapsing classes), a snapshot → restore round trip must reproduce
//! the canonical e-class tables exactly, behave identically under
//! e-matching, and re-snapshot to the very same bytes.
//!
//! Gated behind the `proptest` feature like the other property suites
//! (the offline workspace does not vendor proptest).

use std::collections::BTreeMap;

use proptest::prelude::*;

use liar_egraph::{EGraph, Id, Language, RecExpr, Rewrite, SymbolLang};

type EG = EGraph<SymbolLang, ()>;

/// Random terms over a small signature.
fn arb_term(depth: u32) -> BoxedStrategy<RecExpr<SymbolLang>> {
    fn add(expr: &mut RecExpr<SymbolLang>, t: &Tree) -> Id {
        match t {
            Tree::Leaf(name) => expr.add(SymbolLang::leaf(name.clone())),
            Tree::Node(op, children) => {
                let ids = children.iter().map(|c| add(expr, c)).collect();
                expr.add(SymbolLang::new(op.clone(), ids))
            }
        }
    }
    #[derive(Debug, Clone)]
    enum Tree {
        Leaf(String),
        Node(String, Vec<Tree>),
    }
    let leaf = prop_oneof![
        Just(Tree::Leaf("a".into())),
        Just(Tree::Leaf("b".into())),
        Just(Tree::Leaf("c".into())),
    ];
    leaf.prop_recursive(depth, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(x, y)| Tree::Node("f".into(), vec![x, y])),
            inner.clone().prop_map(|x| Tree::Node("g".into(), vec![x])),
        ]
    })
    .prop_map(|tree| {
        let mut expr = RecExpr::default();
        add(&mut expr, &tree);
        expr
    })
    .boxed()
}

/// Patterns the behavioral check e-matches with (identity right-hand
/// sides — only the searcher matters).
fn rule_pool() -> Vec<Rewrite<SymbolLang, ()>> {
    ["(f ?x ?y)", "(g ?x)", "(f ?x ?x)", "(f (g ?x) ?y)", "(g (g ?x))"]
        .iter()
        .enumerate()
        .map(|(i, p)| Rewrite::from_patterns(&format!("r{i}"), p, p))
        .collect()
}

/// The canonical e-class table: canonical class id → sorted canonicalized
/// nodes. Two e-graphs with equal tables are indistinguishable to
/// e-matching and extraction.
fn class_table(eg: &EG) -> BTreeMap<Id, Vec<(String, Vec<Id>)>> {
    let mut table: BTreeMap<Id, Vec<(String, Vec<Id>)>> = BTreeMap::new();
    for class in eg.classes() {
        let mut nodes: Vec<(String, Vec<Id>)> = class
            .nodes
            .iter()
            .map(|n| {
                (
                    n.op.clone(),
                    n.children().iter().map(|&c| eg.find(c)).collect(),
                )
            })
            .collect();
        nodes.sort();
        nodes.dedup();
        table.insert(eg.find(class.id), nodes);
    }
    table
}

/// Build a random evolved e-graph and the roots that survive.
fn build(
    seed_terms: &[RecExpr<SymbolLang>],
    rounds: &[(Vec<RecExpr<SymbolLang>>, Vec<(usize, usize)>)],
) -> (EG, Vec<Id>) {
    let mut eg = EG::default();
    let mut roots: Vec<Id> = seed_terms.iter().map(|t| eg.add_expr(t)).collect();
    eg.rebuild();
    for (adds, unions) in rounds {
        for t in adds {
            roots.push(eg.add_expr(t));
        }
        for &(i, j) in unions {
            let (a, b) = (roots[i % roots.len()], roots[j % roots.len()]);
            eg.union(a, b);
        }
        eg.rebuild();
    }
    (eg, roots)
}

proptest! {
    /// Snapshot → restore reproduces the canonical class tables, the
    /// roots' canonical ids (stable across one further `rebuild()`), and
    /// the match stream of every pattern in the pool.
    #[test]
    fn restore_round_trips_canonical_class_tables(
        seed_terms in proptest::collection::vec(arb_term(4), 2..6),
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec(arb_term(3), 0..3),
                proptest::collection::vec((0usize..16, 0usize..16), 0..4),
            ),
            1..5,
        ),
    ) {
        let (eg, roots) = build(&seed_terms, &rounds);
        let bytes = eg.snapshot().expect("clean graph snapshots");
        let mut restored = EG::restore((), &bytes).expect("restore");

        prop_assert_eq!(restored.num_nodes(), eg.num_nodes());
        prop_assert_eq!(restored.num_classes(), eg.num_classes());
        prop_assert_eq!(class_table(&restored), class_table(&eg));
        for &root in &roots {
            prop_assert_eq!(restored.find(root), eg.find(root));
        }
        // A restored graph is clean: one more rebuild must change
        // nothing.
        restored.rebuild();
        prop_assert_eq!(class_table(&restored), class_table(&eg));
        for &root in &roots {
            prop_assert_eq!(restored.find(root), eg.find(root));
        }
        // Behavioral identity: every pattern sees the same match stream.
        for rule in rule_pool() {
            let (_, orig) = rule.search(&eg, usize::MAX);
            let (_, back) = rule.search(&restored, usize::MAX);
            prop_assert_eq!(
                format!("{orig:?}"),
                format!("{back:?}"),
                "rule {} diverged after restore", rule.name()
            );
        }
    }

    /// `snapshot(restore(s)) == s`: the format is a canonical function of
    /// the e-graph, so a round trip is byte-identical (and so is a second
    /// round trip).
    #[test]
    fn snapshot_of_restore_is_byte_identical(
        seed_terms in proptest::collection::vec(arb_term(4), 2..6),
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec(arb_term(3), 0..2),
                proptest::collection::vec((0usize..16, 0usize..16), 0..4),
            ),
            1..4,
        ),
    ) {
        let (eg, _) = build(&seed_terms, &rounds);
        let first = eg.snapshot().expect("snapshot");
        let restored = EG::restore((), &first).expect("restore");
        let second = restored.snapshot().expect("re-snapshot");
        prop_assert_eq!(&first, &second, "snapshot(restore(s)) != s");
        let third = EG::restore((), &second)
            .expect("second restore")
            .snapshot()
            .expect("third snapshot");
        prop_assert_eq!(&second, &third);
    }
}
