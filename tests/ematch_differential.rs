//! Differential tests for the e-matching VM: the compiled matcher
//! (`Pattern::match_class`) must be **provably equivalent** to the legacy
//! recursive oracle (`Pattern::match_class_oracle`) — identical match
//! sets, in identical order — on every shipped ruleset, and a whole
//! saturation run driven by oracle-matched rules must produce identical
//! solutions, costs and statistics to the VM-driven engine. If these
//! break, the VM changed what LIAR discovers.

use liar::core::rules::{named_rulesets, rules_for, RuleConfig, Target};
use liar::core::TargetCost;
use liar::egraph::{
    BackoffScheduler, Binding, Extractor, Iteration, Pattern, Rewrite, RuleStep, Runner,
    SplitMix64, Subst, SymbolLang,
};
use liar::ir::{dsl, ArrayAnalysis, ArrayEGraph, ArrayLang, Expr};
use liar::kernels::Kernel;

type AEGraph = ArrayEGraph;
type ARewrite = Rewrite<ArrayLang, ArrayAnalysis>;

/// The worked examples the paper walks through, plus four real kernels.
fn paper_examples() -> Vec<(Expr, Target)> {
    vec![
        // §V.A latent dot product in vector sum.
        (dsl::vsum(8, dsl::sym("xs")), Target::Blas),
        // §IV.C.2 constant-array construction (torch add + full).
        (
            "(build #8 (lam (+ (get xs %0) 42)))".parse().unwrap(),
            Target::Torch,
        ),
        // §VI gemv.
        (
            dsl::vadd(
                8,
                dsl::vscale(8, dsl::sym("alpha"), dsl::matvec(8, 8, dsl::sym("A"), dsl::sym("B"))),
                dsl::vscale(8, dsl::sym("beta"), dsl::sym("C")),
            ),
            Target::Blas,
        ),
        // A matrix kernel exercising sh1/sh2 shift patterns heavily.
        (Kernel::Atax.expr(8), Target::Blas),
        (Kernel::Mvt.expr(8), Target::Torch),
        // The shift-heavy torch idioms (transpose, lifted add) that
        // dominate search time.
        (Kernel::Gemm.expr(8), Target::Torch),
        (Kernel::Jacobi1d.expr(8), Target::Torch),
    ]
}

/// Ordered, binding-level equality of two substitution lists (classes are
/// compared through the union-find; expressions syntactically — the same
/// notion the engine's dedup uses).
fn assert_same_substs<L, A>(
    egraph: &liar::egraph::EGraph<L, A>,
    vm: &[Subst<L>],
    oracle: &[Subst<L>],
    context: &str,
) where
    L: liar::egraph::Language,
    A: liar::egraph::Analysis<L>,
{
    assert_eq!(vm.len(), oracle.len(), "{context}: match count diverged");
    let find = |id| egraph.find(id);
    for (i, (a, b)) in vm.iter().zip(oracle).enumerate() {
        assert!(
            a.same_as(b, &find),
            "{context}: substitution {i} diverged\n  vm:     {a:?}\n  oracle: {b:?}"
        );
        // `same_as` is order-insensitive; additionally pin the binding
        // order (first-occurrence) so the engines stay bit-compatible.
        let order = |s: &Subst<L>| s.iter().map(|(v, _)| *v).collect::<Vec<_>>();
        assert_eq!(order(a), order(b), "{context}: binding order diverged");
    }
}

/// Sweep every pattern rule of `rules` over every e-class of `egraph`,
/// asserting VM ≡ oracle.
fn assert_vm_equals_oracle(egraph: &AEGraph, rules: &[ARewrite], context: &str) {
    for rule in rules {
        let Some(pattern) = rule.searcher_pattern() else {
            continue; // Custom searcher: no pattern matching involved.
        };
        for class in egraph.class_ids() {
            let vm = pattern.match_class(egraph, class);
            let oracle = pattern.match_class_oracle(egraph, class);
            assert_same_substs(
                egraph,
                &vm,
                &oracle,
                &format!("{context}, rule {}, class {class}", rule.name()),
            );
        }
    }
}

/// Every shipped ruleset (core, scalar, blas, torch — the guard checks
/// live in blas/torch appliers and share their pattern searchers), matched
/// by both engines over saturating e-graphs of the paper examples.
#[test]
fn vm_equals_oracle_on_all_rulesets() {
    let config = RuleConfig::default();
    let rulesets = named_rulesets(&config);
    for (expr, target) in paper_examples() {
        // Saturate with the target's full rule set so the e-graphs grow
        // the shapes (shifted terms, idiom calls) the rulesets match.
        let rules = rules_for(target, &config);
        let mut eg = AEGraph::default();
        let root = eg.add_expr(&expr);
        let mut runner = Runner::new(eg)
            .with_root(root)
            .with_iter_limit(3)
            .with_node_limit(30_000)
            .with_scheduler(BackoffScheduler::new(2_000, 2));
        for step in 0..3 {
            for (name, ruleset) in &rulesets {
                assert_vm_equals_oracle(
                    &runner.egraph,
                    ruleset,
                    &format!("{expr} @{target} step {step} ruleset {name}"),
                );
            }
            if runner.run_one(&rules).is_err() {
                break;
            }
        }
    }
}

/// Whole-pipeline differential: saturating with rules whose searchers are
/// swapped for the oracle matcher must reproduce the VM engine's run
/// bit-for-bit — per-step statistics, extracted solution and cost — while
/// the VM visits strictly fewer candidate classes (the operator index at
/// work).
#[test]
fn saturation_identical_and_cheaper_with_vm() {
    for (kernel, target) in [
        (Kernel::Vsum, Target::Blas),
        (Kernel::Gemv, Target::Blas),
        (Kernel::Axpy, Target::Torch),
    ] {
        let expr = kernel.expr(8);
        let vm_rules = rules_for(target, &RuleConfig::default());
        let oracle_rules: Vec<ARewrite> =
            vm_rules.iter().map(|r| r.with_oracle_searcher()).collect();
        let run = |rules: &[ARewrite]| {
            let mut eg = AEGraph::default();
            let root = eg.add_expr(&expr);
            let mut runner = Runner::new(eg)
                .with_root(root)
                .with_iter_limit(5)
                .with_node_limit(50_000)
                .with_scheduler(BackoffScheduler::new(5_000, 2));
            runner.run(rules);
            let extractor = Extractor::new(&runner.egraph, TargetCost::new(target));
            let (cost, best) = extractor.find_best(root);
            (runner, cost, best)
        };
        let (vm, vm_cost, vm_best) = run(&vm_rules);
        let (oracle, oracle_cost, oracle_best) = run(&oracle_rules);

        // Each rule's counts; the candidates differ by design (below), and
        // times are never compared.
        let counts = |it: &Iteration| -> Vec<_> {
            let counts = |r: &RuleStep| [r.matches, r.applied, r.nodes_created, r.classes_merged];
            it.rules.iter().map(|r| (r.name.clone(), r.budget, counts(r))).collect()
        };
        assert_eq!(vm.stop_reason, oracle.stop_reason, "{kernel}");
        assert_eq!(vm.iterations.len(), oracle.iterations.len(), "{kernel}");
        for (v, o) in vm.iterations.iter().zip(&oracle.iterations) {
            assert_eq!(v.n_nodes, o.n_nodes, "{kernel} step {}", v.index);
            assert_eq!(v.n_classes, o.n_classes, "{kernel} step {}", v.index);
            assert_eq!(counts(v), counts(o), "{kernel} step {}", v.index);
            assert_eq!(v.rebuild_unions, o.rebuild_unions, "{kernel} step {}", v.index);
            assert_eq!(v.search_matches, o.search_matches, "{kernel} step {}", v.index);
        }
        assert_eq!(vm_cost, oracle_cost, "{kernel}: extraction cost diverged");
        assert_eq!(vm_best, oracle_best, "{kernel}: solution diverged");

        // The acceptance criterion: the operator index must make the VM
        // engine visit strictly fewer candidate classes.
        let visits = |r: &Runner<ArrayLang, ArrayAnalysis>| -> usize {
            r.iterations.iter().map(|i| i.search_candidates).sum()
        };
        assert!(
            visits(&vm) < visits(&oracle),
            "{kernel}: VM visited {} candidates, oracle {} — index ineffective",
            visits(&vm),
            visits(&oracle)
        );
    }
}

/// Shift patterns must flow through the VM's `Downshift` instructions and
/// agree with the oracle, including the non-linear (repeated-variable)
/// forms the idiom rules use.
#[test]
fn shift_patterns_differential() {
    use liar::egraph::machine::Instr;

    let mut eg = AEGraph::default();
    // A build whose body ignores the loop index in two ways, plus a
    // two-binder ifold — the shapes the blas/torch sh1/sh2 rules match.
    for s in [
        "(build #8 (lam 42))",
        "(build #8 (lam (get xs %1)))",
        "(build #8 (lam (* (get A %1) (get A %1))))",
        "(ifold #8 0 (lam (lam (+ (* (get xs %2) (get ys %2)) %0))))",
    ] {
        eg.add_expr(&s.parse().unwrap());
    }
    eg.rebuild();

    let patterns: Vec<Pattern<ArrayLang>> = [
        "(build ?n (lam (sh1 ?c)))",
        "(build ?n (lam (get (sh1 ?a) %0)))",
        "(build ?n (lam (* (get (sh1 ?a) %0) (get (sh1 ?a) %0))))",
        "(ifold ?n 0 (lam (lam (+ (* (get (sh2 ?a) %1) (get (sh2 ?b) %1)) %0))))",
        // Mixed binding kinds: ?a first as a class, then shifted.
        "(get ?a (get (sh1 ?a) %0))",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();

    for p in &patterns {
        assert!(
            p.compiled()
                .instructions()
                .iter()
                .any(|i| matches!(
                    i,
                    Instr::Downshift { .. }
                        | Instr::DownshiftCompare { .. }
                        | Instr::DownshiftCompareClass { .. }
                )),
            "{p}: expected a Downshift-family instruction"
        );
        for class in eg.class_ids() {
            let vm = p.match_class(&eg, class);
            let oracle = p.match_class_oracle(&eg, class);
            assert_same_substs(&eg, &vm, &oracle, &format!("pattern {p}, class {class}"));
        }
    }
    // Sanity: the shift patterns actually match something here, so the
    // differential above is not vacuous.
    let full: Pattern<ArrayLang> = "(build ?n (lam (sh1 ?c)))".parse().unwrap();
    let hits: usize = eg
        .class_ids()
        .into_iter()
        .map(|c| full.match_class(&eg, c).len())
        .sum();
    assert!(hits >= 1, "shift pattern found no matches");
    // And at least one binding is an Expr (a downshifted term).
    let any_expr = eg.class_ids().into_iter().any(|c| {
        full.match_class(&eg, c)
            .iter()
            .flat_map(|s| s.iter())
            .any(|(_, b)| matches!(b, Binding::Expr(_)))
    });
    assert!(any_expr, "no Expr bindings produced by shift patterns");
}

/// Build a random SymbolLang term as an s-expression.
fn random_term(rng: &mut SplitMix64, depth: usize) -> String {
    let leaves = ["a", "b", "c", "d"];
    if depth == 0 || rng.below(3) == 0 {
        return leaves[rng.below(leaves.len())].to_string();
    }
    match rng.below(3) {
        0 => format!("(g {})", random_term(rng, depth - 1)),
        1 => format!(
            "(f {} {})",
            random_term(rng, depth - 1),
            random_term(rng, depth - 1)
        ),
        _ => format!(
            "(h {} {} {})",
            random_term(rng, depth - 1),
            random_term(rng, depth - 1),
            random_term(rng, depth - 1)
        ),
    }
}

/// Build a random pattern over the same operators (possibly non-linear:
/// the variable pool is small, so repeats are common).
fn random_pattern(rng: &mut SplitMix64, depth: usize) -> String {
    let atoms = ["?x", "?y", "?z", "a", "b"];
    if depth == 0 || rng.below(3) == 0 {
        return atoms[rng.below(atoms.len())].to_string();
    }
    match rng.below(3) {
        0 => format!("(g {})", random_pattern(rng, depth - 1)),
        1 => format!(
            "(f {} {})",
            random_pattern(rng, depth - 1),
            random_pattern(rng, depth - 1)
        ),
        _ => format!(
            "(h {} {} {})",
            random_pattern(rng, depth - 1),
            random_pattern(rng, depth - 1),
            random_pattern(rng, depth - 1)
        ),
    }
}

/// Randomized differential: random e-graphs (terms + unions), random
/// (frequently non-linear) patterns. On every class the VM ≡ the oracle,
/// and every VM substitution binds canonical class ids with no two alike.
/// Over the whole graph, a pattern rule's `Rewrite::search` (operator-index
/// candidates, none for a variable root) returns the same `(class,
/// substs)` list as its `with_oracle_searcher()` copy (every class). A
/// seeded in-test generator keeps this deterministic and
/// dependency-free.
#[test]
fn randomized_symbol_lang_differential() {
    let mut rng = SplitMix64::new(0xC60_2024);
    let mut total_matches = 0usize;
    let mut variable_roots = 0usize;
    for round in 0..60 {
        let mut eg: liar::egraph::EGraph<SymbolLang, ()> = Default::default();
        let mut roots = Vec::new();
        for _ in 0..(2 + rng.below(5)) {
            let t: liar::egraph::RecExpr<SymbolLang> =
                random_term(&mut rng, 3).parse().unwrap();
            roots.push(eg.add_expr(&t));
        }
        for _ in 0..rng.below(4) {
            let a = roots[rng.below(roots.len())];
            let b = roots[rng.below(roots.len())];
            eg.union(a, b);
        }
        eg.rebuild();
        eg.assert_invariants();
        let find = |id| eg.find(id);
        for _ in 0..6 {
            let p: Pattern<SymbolLang> = random_pattern(&mut rng, 3).parse().unwrap();
            for class in eg.class_ids() {
                let vm = p.match_class(&eg, class);
                let oracle = p.match_class_oracle(&eg, class);
                total_matches += vm.len();
                let context = format!("round {round}, pattern {p}, class {class}");
                assert_same_substs(&eg, &vm, &oracle, &context);
                for (i, s) in vm.iter().enumerate() {
                    for (v, b) in s.iter() {
                        let Binding::Class(id) = b else {
                            panic!("{context}: {v} bound to a term");
                        };
                        assert_eq!(eg.find(*id), *id, "{context}: {v} not canonical");
                    }
                    assert!(
                        vm[i + 1..].iter().all(|o| !s.same_as(o, &find)),
                        "{context}: substitution {i} repeats"
                    );
                }
            }

            variable_roots += p.compiled().root_op_key().is_none() as usize;
            let rule = Rewrite::new("random", p.clone(), p.clone());
            let (candidates, indexed) = rule.search(&eg, usize::MAX);
            let (all, scanned) = rule.with_oracle_searcher().search(&eg, usize::MAX);
            assert_eq!(all, eg.num_classes(), "the oracle names no candidates");
            assert!(candidates <= all, "round {round}, pattern {p}");
            assert_eq!(indexed.len(), scanned.len(), "round {round}, pattern {p}");
            for (a, b) in indexed.iter().zip(&scanned) {
                assert_eq!(a.class, b.class, "round {round}, pattern {p}");
                let context = format!("round {round}, pattern {p}, search at {}", a.class);
                assert_same_substs(&eg, a.substs(), b.substs(), &context);
            }
        }
    }
    assert!(
        total_matches > 100,
        "differential exercised too few matches ({total_matches})"
    );
    assert!(variable_roots > 0, "no variable-root pattern was drawn");
}
