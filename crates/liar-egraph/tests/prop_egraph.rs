//! Seeded property tests for the e-graph: congruence invariants under
//! random insertions and unions, and extraction sanity.
//!
//! Each property runs once per seed in `0..CASES`, drawing its inputs from
//! the workspace's one generator ([`SplitMix64`]); a failing case names
//! its seed, which reproduces it on its own.

use std::panic::{catch_unwind, AssertUnwindSafe};

use liar_egraph::{AstSize, EGraph, Extractor, Id, RecExpr, SplitMix64, SymbolLang};

type EG = EGraph<SymbolLang, ()>;

/// Cases per property.
const CASES: u64 = 256;

/// Run `property` with a generator seeded by each seed in `0..CASES`, and
/// panic naming the seed of the first case that fails.
fn for_each_seed(property: impl Fn(&mut SplitMix64)) {
    for seed in 0..CASES {
        let case = catch_unwind(AssertUnwindSafe(|| property(&mut SplitMix64::new(seed))));
        assert!(case.is_ok(), "property failed at seed {seed}");
    }
}

/// A random term over the leaves `a`, `b`, `c` and the operators `f`/2,
/// `g`/1 and `+`/2, at most `depth` operators deep.
fn random_term(rng: &mut SplitMix64, depth: usize) -> RecExpr<SymbolLang> {
    fn add(rng: &mut SplitMix64, depth: usize, expr: &mut RecExpr<SymbolLang>) -> Id {
        if depth == 0 || rng.below(3) == 0 {
            return expr.add(SymbolLang::leaf(["a", "b", "c"][rng.below(3)]));
        }
        let (op, arity) = [("f", 2), ("g", 1), ("+", 2)][rng.below(3)];
        let children = (0..arity).map(|_| add(rng, depth - 1, expr)).collect();
        expr.add(SymbolLang::new(op, children))
    }
    let mut expr = RecExpr::default();
    add(rng, depth, &mut expr);
    expr
}

/// `lo..hi` random terms of depth at most 4.
fn random_terms(rng: &mut SplitMix64, lo: usize, hi: usize) -> Vec<RecExpr<SymbolLang>> {
    let n = lo + rng.below(hi - lo);
    (0..n).map(|_| random_term(rng, 4)).collect()
}

/// After arbitrary adds, unions and a rebuild, every hash-consing and
/// congruence invariant holds.
#[test]
fn invariants_after_random_unions() {
    for_each_seed(|rng| {
        let mut eg = EG::default();
        let ids: Vec<Id> = random_terms(rng, 2, 8).iter().map(|t| eg.add_expr(t)).collect();
        for _ in 0..rng.below(6) {
            let (a, b) = (ids[rng.below(ids.len())], ids[rng.below(ids.len())]);
            eg.union(a, b);
        }
        eg.rebuild();
        eg.assert_invariants();
    });
}

/// Adding the same term twice yields the same class.
#[test]
fn add_is_idempotent() {
    for_each_seed(|rng| {
        let t = random_term(rng, 4);
        let mut eg = EG::default();
        let a = eg.add_expr(&t);
        let b = eg.add_expr(&t);
        assert_eq!(a, b);
        assert_eq!(eg.lookup_expr(&t), Some(a));
    });
}

/// Unions are congruence-closed: if a ≡ b then wrap(a) ≡ wrap(b) after a
/// rebuild.
#[test]
fn congruence_holds() {
    for_each_seed(|rng| {
        let mut eg = EG::default();
        let a = eg.add_expr(&random_term(rng, 3));
        let b = eg.add_expr(&random_term(rng, 3));
        let fa = eg.add(SymbolLang::new("wrap", vec![a]));
        let fb = eg.add(SymbolLang::new("wrap", vec![b]));
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(eg.find(fa), eg.find(fb));
        eg.assert_invariants();
    });
}

/// Extraction returns a term no larger than either term unioned into the
/// class, and the extracted term is in that class.
#[test]
fn extraction_is_sound_and_minimal() {
    for_each_seed(|rng| {
        let (t1, t2) = (random_term(rng, 4), random_term(rng, 4));
        let mut eg = EG::default();
        let a = eg.add_expr(&t1);
        let b = eg.add_expr(&t2);
        eg.union(a, b);
        eg.rebuild();
        let (cost, best) = Extractor::new(&eg, AstSize).find_best(a);
        assert!(cost <= t1.len().min(t2.len()) as f64, "cost {cost} for {t1} = {t2}");
        assert_eq!(eg.lookup_expr(&best), Some(eg.find(a)));
    });
}

/// The e-graph never holds more e-nodes than were added, nor more
/// e-classes than e-nodes.
#[test]
fn size_accounting() {
    for_each_seed(|rng| {
        let mut eg = EG::default();
        let mut added = 0;
        for t in random_terms(rng, 1, 6) {
            added += t.len();
            eg.add_expr(&t);
        }
        eg.rebuild();
        assert!(eg.num_nodes() <= added);
        assert!(eg.num_classes() <= eg.num_nodes());
    });
}
