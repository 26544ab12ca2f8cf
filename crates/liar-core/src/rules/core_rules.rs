//! The eight language-semantics rewrite rules (paper listing 2).
//!
//! The elimination rules are plain pattern pairs. β-reduction and the four
//! *intro* rules need code:
//!
//! * **R-BetaReduce** applies the substitution operator to representatives
//!   extracted from the body and argument e-classes (§IV.B.3, the
//!   "second approach" of Koehler et al.);
//! * **R-IntroLambda**, **R-IntroIndexBuild**, **R-IntroFstTuple** and
//!   **R-IntroSndTuple** have unbound variables on their right-hand sides
//!   (§IV.B.4); their searchers enumerate candidate e-classes for those
//!   variables — every class under [`RuleConfig::exhaustive()`], a bounded
//!   candidate set by default. R-IntroIndexBuild's extent is bounded in
//!   every mode: it ranges over the loop extents (the extents of `build`
//!   and `ifold` nodes), a set its own output cannot grow.
//!
//! Each rule interns its variables ([`Var`]) when it is built, never per
//! match: `Var::new` locks a process-wide table.

use std::sync::{Arc, Mutex, PoisonError};

use liar_egraph::{Applier, Binding, EGraph, Id, Language, Pattern, Rewrite, Searcher, Subst, Var};
use liar_ir::debruijn::{shift_up, subst as debruijn_subst};
use liar_ir::{ArrayAnalysis, ArrayLang, ArrayRewrite, Expr};

use super::RuleConfig;

type AEGraph = EGraph<ArrayLang, ArrayAnalysis>;

/// One-slot memo for an intro searcher's auxiliary candidate list, keyed
/// on the e-graph's state: `(rebuilds, classes)` identifies a clean
/// e-graph (see [`EGraph::rebuilds`]), so per-class search reuses one
/// O(classes) computation instead of paying it per class.
#[derive(Default)]
pub(super) struct AuxMemo {
    slot: Mutex<MemoSlot>,
}

/// `(rebuild count, class count, candidate list)` — one [`AuxMemo`] entry.
type MemoSlot = Option<(u64, usize, Arc<Vec<Id>>)>;

impl AuxMemo {
    pub(super) fn get(&self, egraph: &AEGraph, compute: impl FnOnce() -> Vec<Id>) -> Arc<Vec<Id>> {
        let key = (egraph.rebuilds(), egraph.num_classes());
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((v, c, list)) = &*slot {
            if (*v, *c) == key {
                return Arc::clone(list);
            }
        }
        let list = Arc::new(compute());
        *slot = Some((key.0, key.1, Arc::clone(&list)));
        list
    }
}

fn resolve_expr(egraph: &AEGraph, binding: &Binding<ArrayLang>) -> Arc<Expr> {
    match binding {
        Binding::Class(id) => Arc::clone(egraph.data(*id).repr.expr()),
        Binding::Expr(e) => Arc::clone(e),
    }
}

/// R-BetaReduce: `(λ e) y → subst(e, y)`, with `?b` the body and `?y`
/// the argument of its left-hand side.
struct BetaReduceApplier {
    b: Var,
    y: Var,
}

impl Applier<ArrayLang, ArrayAnalysis> for BetaReduceApplier {
    fn apply(&self, egraph: &mut AEGraph, class: Id, subst: &Subst<ArrayLang>) -> Vec<Id> {
        let body = resolve_expr(egraph, subst.get(&self.b).expect("b bound"));
        let arg = resolve_expr(egraph, subst.get(&self.y).expect("y bound"));
        let result = debruijn_subst(&body, &arg);
        let new_id = egraph.add_expr(&result);
        let lhs = if egraph.are_explanations_enabled() {
            // Precise provenance: the substitution operator ran on the
            // class *representatives*, so the recorded redex must spell
            // out those same representatives — `(λ body) arg` — rather
            // than whatever term created the matched class's id. The term
            // is already in the matched class (its nodes hash-cons onto
            // the matched redex), so this changes no equalities.
            let mut redex = Expr::default();
            let b_root = redex.append_subtree(&body, body.root());
            let lam = redex.add(ArrayLang::Lam(b_root));
            let a_root = redex.append_subtree(&arg, arg.root());
            redex.add(ArrayLang::App([lam, a_root]));
            egraph.add_expr(&redex)
        } else {
            class
        };
        let (id, changed) = egraph.union(lhs, new_id);
        if changed {
            vec![id]
        } else {
            vec![]
        }
    }

    fn bound_vars(&self) -> Vec<Var> {
        vec![self.b, self.y]
    }
}

/// Whether R-IntroLambda wraps a class `e` in `(λ e↑) y`: in exhaustive
/// mode every class; by default a class holding a float constant or a
/// library call — the §IV.C.2 / §V.A constant-array chains
/// (`1 → (build n (λ 1))[i]`) plus the zero-matrix rows that gemm
/// recognition needs (`memset(0) → (build n (λ memset(0)↑))[i]`, the
/// paper's doitgen solution).
fn intro_lambda_candidate(
    class: &liar_egraph::EClass<ArrayLang, liar_ir::ClassData>,
    exhaustive: bool,
) -> bool {
    exhaustive
        || class.data.constant.is_some()
        || class.iter().any(|n| matches!(n, ArrayLang::Call(..)))
}

/// The loop indices R-IntroLambda abstracts over: `%0` is the index of a
/// `build`'s λ, and `%1` that of an `ifold`'s outer λ, whose accumulator
/// is `%0`.
const LOOP_INDICES: [ArrayLang; 2] = [ArrayLang::Var(0), ArrayLang::Var(1)];

/// R-IntroLambda: `e → (λ e↑) y` for every candidate argument class `y`.
///
/// By default `y` is the class of `%0` or `%1`: every chain abstracts a
/// value over the index of the loop that directly encloses it, as in
/// `1 = (build n (λ 1))[%0]` and vsum's `(get (build #8 (lam 1)) %1)`.
/// Both are hash-consed leaves, so the set has at most two classes, and
/// the rule's own output cannot grow it. Exhaustive mode pairs every
/// class.
struct IntroLambdaSearcher {
    exhaustive: bool,
    cands: AuxMemo,
    y: Var,
}

impl IntroLambdaSearcher {
    /// The candidate arguments `y`, sorted, deduplicated and canonical.
    fn ys(&self, egraph: &AEGraph) -> Vec<Id> {
        if self.exhaustive {
            return egraph.class_ids();
        }
        let mut out: Vec<Id> = LOOP_INDICES
            .iter()
            .filter_map(|v| egraph.lookup(v.clone()))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl Searcher<ArrayLang, ArrayAnalysis> for IntroLambdaSearcher {
    fn search_class(&self, egraph: &AEGraph, class: Id, limit: usize) -> Vec<Subst<ArrayLang>> {
        if !intro_lambda_candidate(&egraph[class], self.exhaustive) {
            return vec![];
        }
        self.ys(egraph)
            .into_iter()
            .take(limit)
            .map(|y| {
                let mut s = Subst::default();
                s.insert(self.y, Binding::Class(y));
                s
            })
            .collect()
    }

    fn candidate_class_ids(&self, egraph: &AEGraph) -> Option<Vec<Id>> {
        if self.exhaustive {
            return None;
        }
        // Classes passing the candidate check, memoized per snapshot —
        // sound because `search_class` is empty everywhere else. A class
        // only enters this set through recorded dirt: gaining a node
        // (add/union) or an analysis refinement (constant discovered).
        Some(
            self.cands
                .get(egraph, || {
                    let mut out: Vec<Id> = egraph
                        .classes()
                        .filter(|c| intro_lambda_candidate(c, false))
                        .map(|c| c.id)
                        .collect();
                    out.sort_unstable();
                    out
                })
                .to_vec(),
        )
    }

    fn bound_vars(&self) -> Vec<Var> {
        vec![self.y]
    }
}

struct IntroLambdaApplier {
    y: Var,
}

impl Applier<ArrayLang, ArrayAnalysis> for IntroLambdaApplier {
    fn apply(&self, egraph: &mut AEGraph, class: Id, subst: &Subst<ArrayLang>) -> Vec<Id> {
        let mut y = match subst.get(&self.y).expect("y bound") {
            Binding::Class(id) => *id,
            Binding::Expr(e) => egraph.add_expr(e),
        };
        let explained = egraph.are_explanations_enabled();
        if explained {
            // Precise provenance for the argument: spell it as the class's
            // `%0` or `%1` member (that is what made it a candidate), so
            // the recorded proof term reads `(λ e↑) %i` and the step
            // replays against the searcher's bound.
            let var = egraph[y].iter().find(|n| LOOP_INDICES.contains(n)).cloned();
            if let Some(var) = var {
                y = egraph.add(var);
            }
        }
        // (λ e↑): abstract over a parameter the body ignores.
        let repr = Arc::clone(egraph.data(class).repr.expr());
        let mut lam = shift_up(&repr, 1);
        lam.add(ArrayLang::Lam(lam.root()));
        let lam_id = egraph.add_expr(&lam);
        let app_id = egraph.add(ArrayLang::App([lam_id, y]));
        let lhs = if explained {
            // The abstracted body is the class *representative*: record the
            // edge from that exact term (it is a member of `class`).
            egraph.add_expr(&repr)
        } else {
            class
        };
        let (id, changed) = egraph.union(lhs, app_id);
        if changed {
            vec![id]
        } else {
            vec![]
        }
    }

    fn bound_vars(&self) -> Vec<Var> {
        vec![self.y]
    }
}

/// The variables R-IntroIndexBuild binds: `?f` and `?i` from the matched
/// `(app f i)`, `?n` a loop-extent class.
#[derive(Clone, Copy)]
struct IndexBuildVars {
    f: Var,
    i: Var,
    n: Var,
}

/// R-IntroIndexBuild: `f i → (build N f)[i]` for every loop extent `N` —
/// a class that occurs as the extent child of a `build` or `ifold` node —
/// in every [`RuleConfig`] mode.
///
/// The set is closed under saturation: the rule's own `(build N f)` takes
/// its `N` from the set, a lift rule's product extent `#(n·m)` is only
/// ever a call's element count, and β-reduction and R-IntroLambda copy
/// representatives whose builds already exist. (Were every class carrying
/// an extent a candidate, each lifted count would seed builds of its own.)
/// A proof step still replays: its replay graph holds the step's `after`
/// term, whose build supplies `N`.
struct IntroIndexBuildSearcher {
    extents: AuxMemo,
    vars: IndexBuildVars,
}

impl IntroIndexBuildSearcher {
    /// The loop extents, sorted, deduplicated and canonical; read from
    /// the operator index and memoized per snapshot. (Between rebuilds a
    /// bucket may hold merged ids; `find` canonicalizes them.)
    fn extents(&self, egraph: &AEGraph) -> Arc<Vec<Id>> {
        self.extents.get(egraph, || {
            let zero = Id::from_index(0);
            let mut out = Vec::new();
            for op in [ArrayLang::Build([zero; 2]), ArrayLang::IFold([zero; 3])] {
                for &class in egraph.classes_with_op(op.op_key()) {
                    for node in &egraph[class].nodes {
                        if let ArrayLang::Build([n, _]) | ArrayLang::IFold([n, _, _]) = node {
                            out.push(egraph.find(*n));
                        }
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        })
    }
}

impl Searcher<ArrayLang, ArrayAnalysis> for IntroIndexBuildSearcher {
    fn search_class(&self, egraph: &AEGraph, class: Id, limit: usize) -> Vec<Subst<ArrayLang>> {
        let extents = self.extents(egraph);
        let mut substs = Vec::new();
        for node in &egraph[class].nodes {
            let ArrayLang::App([f, i]) = node else { continue };
            for &n in extents.iter() {
                if substs.len() >= limit {
                    return substs;
                }
                let mut s = Subst::default();
                s.insert(self.vars.f, Binding::Class(*f));
                s.insert(self.vars.i, Binding::Class(*i));
                s.insert(self.vars.n, Binding::Class(n));
                substs.push(s);
            }
        }
        substs
    }

    fn candidate_class_ids(&self, egraph: &AEGraph) -> Option<Vec<Id>> {
        // Only classes containing an `app` node can match: the operator
        // index answers exactly that (sorted, canonical on a clean graph).
        let key = ArrayLang::App([Id::from_index(0); 2]).op_key();
        Some(egraph.classes_with_op(key).to_vec())
    }

    fn bound_vars(&self) -> Vec<Var> {
        vec![self.vars.f, self.vars.i, self.vars.n]
    }
}

/// Applier for R-IntroIndexBuild. Without explanations it behaves exactly
/// like its right-hand-side pattern `(get (build ?n ?f) ?i)`; with
/// explanations it builds both sides from the bound classes directly so
/// the recorded edge connects `(app f i)` — the precise matched instance —
/// to the indexed build, with the extent spelled as its `#n` literal.
struct IntroIndexBuildApplier {
    rhs: Pattern<ArrayLang>,
    vars: IndexBuildVars,
}

impl Applier<ArrayLang, ArrayAnalysis> for IntroIndexBuildApplier {
    fn apply(&self, egraph: &mut AEGraph, class: Id, subst: &Subst<ArrayLang>) -> Vec<Id> {
        if !egraph.are_explanations_enabled() {
            return self.rhs.apply(egraph, class, subst);
        }
        let bound = |egraph: &mut AEGraph, var: Var| match subst
            .get(&var)
            .expect("searcher binds f, i and n")
        {
            Binding::Class(id) => *id,
            Binding::Expr(e) => egraph.add_expr(e),
        };
        let f = bound(egraph, self.vars.f);
        let i = bound(egraph, self.vars.i);
        let mut n = bound(egraph, self.vars.n);
        if let Some(d) = egraph.data(n).dim {
            // Spell the extent as its literal so the proof term replays.
            n = egraph.add(ArrayLang::Dim(d));
        }
        let lhs = egraph.add(ArrayLang::App([f, i]));
        let build = egraph.add(ArrayLang::Build([n, f]));
        let get = egraph.add(ArrayLang::Get([build, i]));
        let (id, changed) = egraph.union(lhs, get);
        if changed {
            vec![id]
        } else {
            vec![]
        }
    }

    fn bound_vars(&self) -> Vec<Var> {
        self.rhs.vars()
    }
}

/// Searcher for the tuple intro rules: pairs a tuple component `a` (the
/// matched class, kept by the projection) with every tuple component `b`
/// — by default the classes that already occur under a `tuple` node,
/// memoized per snapshot; every class in exhaustive mode.
///
/// Both slots range over that one set, so the set is closed under the
/// rules' own output: the tuple a match adds pairs two classes that were
/// components already. It grows only when another rule builds a tuple or
/// classes merge. (Bounding `b` alone would not close it: each added
/// tuple would put its `a` under a tuple, and from the second step on the
/// set would hold every class.)
struct IntroTupleSearcher {
    exhaustive: bool,
    components: Arc<AuxMemo>,
    b: Var,
}

impl IntroTupleSearcher {
    /// The tuple components (every class in exhaustive mode), sorted,
    /// deduplicated and canonical; memoized per snapshot.
    fn components(&self, egraph: &AEGraph) -> Arc<Vec<Id>> {
        self.components.get(egraph, || {
            let mut c: Vec<Id> = if self.exhaustive {
                egraph.class_ids()
            } else {
                let mut c = Vec::new();
                for class in egraph.classes() {
                    for node in &class.nodes {
                        if let ArrayLang::Tuple([x, y]) = node {
                            c.push(egraph.find(*x));
                            c.push(egraph.find(*y));
                        }
                    }
                }
                c
            };
            c.sort();
            c.dedup();
            c
        })
    }
}

impl Searcher<ArrayLang, ArrayAnalysis> for IntroTupleSearcher {
    fn search_class(&self, egraph: &AEGraph, class: Id, limit: usize) -> Vec<Subst<ArrayLang>> {
        let components = self.components(egraph);
        if !self.exhaustive && components.binary_search(&egraph.find(class)).is_err() {
            return vec![];
        }
        components
            .iter()
            .take(limit)
            .map(|&b| {
                let mut s = Subst::default();
                s.insert(self.b, Binding::Class(b));
                s
            })
            .collect()
    }

    fn candidate_class_ids(&self, egraph: &AEGraph) -> Option<Vec<Id>> {
        if self.exhaustive {
            return None;
        }
        // The component list itself — sound because `search_class` is
        // empty everywhere else.
        Some(self.components(egraph).to_vec())
    }

    fn bound_vars(&self) -> Vec<Var> {
        vec![self.b]
    }
}

/// Applier for the tuple intro rules: `a → fst/snd (tuple … )`, where the
/// matched class supplies the kept component and `?b` the other one.
struct IntroTupleApplier {
    first: bool,
    b: Var,
}

impl Applier<ArrayLang, ArrayAnalysis> for IntroTupleApplier {
    fn apply(&self, egraph: &mut AEGraph, class: Id, subst: &Subst<ArrayLang>) -> Vec<Id> {
        let b = match subst.get(&self.b).expect("b bound") {
            Binding::Class(id) => *id,
            Binding::Expr(e) => egraph.add_expr(e),
        };
        let tuple = if self.first {
            egraph.add(ArrayLang::Tuple([class, b]))
        } else {
            egraph.add(ArrayLang::Tuple([b, class]))
        };
        let proj = if self.first {
            egraph.add(ArrayLang::Fst(tuple))
        } else {
            egraph.add(ArrayLang::Snd(tuple))
        };
        let (id, changed) = egraph.union(class, proj);
        if changed {
            vec![id]
        } else {
            vec![]
        }
    }

    fn bound_vars(&self) -> Vec<Var> {
        vec![self.b]
    }
}

/// The eight core rules of listing 2.
pub fn core_rules(config: &RuleConfig) -> Vec<ArrayRewrite> {
    let exhaustive = config.exhaustive;
    let (b, y) = (Var::new("b"), Var::new("y"));
    let index_vars = IndexBuildVars { f: Var::new("f"), i: Var::new("i"), n: Var::new("n") };
    // One memo for the two tuple intro rules: they scan the same universe.
    let components = Arc::new(AuxMemo::default());
    vec![
        Rewrite::new(
            "beta-reduce",
            "(app (lam ?b) ?y)".parse::<Pattern<ArrayLang>>().unwrap(),
            BetaReduceApplier { b, y },
        ),
        Rewrite::new(
            "intro-lambda",
            IntroLambdaSearcher { exhaustive, cands: AuxMemo::default(), y },
            IntroLambdaApplier { y },
        ),
        Rewrite::from_patterns("elim-index-build", "(get (build ?n ?f) ?i)", "(app ?f ?i)"),
        Rewrite::new(
            "intro-index-build",
            IntroIndexBuildSearcher { extents: AuxMemo::default(), vars: index_vars },
            IntroIndexBuildApplier {
                rhs: "(get (build ?n ?f) ?i)".parse::<Pattern<ArrayLang>>().unwrap(),
                vars: index_vars,
            },
        ),
        Rewrite::from_patterns("elim-fst-tuple", "(fst (tuple ?a ?b))", "?a"),
        Rewrite::new(
            "intro-fst-tuple",
            IntroTupleSearcher { exhaustive, components: Arc::clone(&components), b },
            IntroTupleApplier { first: true, b },
        ),
        Rewrite::from_patterns("elim-snd-tuple", "(snd (tuple ?a ?b))", "?b"),
        Rewrite::new(
            "intro-snd-tuple",
            IntroTupleSearcher { exhaustive, components, b },
            IntroTupleApplier { first: false, b },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use liar_egraph::{BackoffScheduler, Runner};
    use liar_ir::ArrayEGraph;

    fn e(s: &str) -> Expr {
        s.parse().unwrap()
    }

    fn saturate(expr: &Expr, iters: usize) -> (Runner<ArrayLang, ArrayAnalysis>, Id) {
        let mut eg = ArrayEGraph::default();
        let root = eg.add_expr(expr);
        let mut runner = Runner::new(eg).with_iter_limit(iters).with_node_limit(100_000);
        let rules = core_rules(&RuleConfig::default());
        runner.run(&rules);
        (runner, root)
    }

    #[test]
    fn beta_reduction_fires() {
        let (runner, root) = saturate(&e("(app (lam (+ %0 1)) x)"), 3);
        let reduced = runner.egraph.lookup_expr(&e("(+ x 1)"));
        assert_eq!(reduced, Some(runner.egraph.find(root)));
    }

    #[test]
    fn elim_index_build_plus_beta_is_map_access() {
        // (build n (λ xs[•0] + 1))[i] → xs[i] + 1  (paper §IV.C.1).
        let (runner, root) = saturate(&e("(get (build #8 (lam (+ (get xs %0) 1))) i)"), 4);
        let fused = runner.egraph.lookup_expr(&e("(+ (get xs i) 1)"));
        assert_eq!(fused, Some(runner.egraph.find(root)));
    }

    #[test]
    fn map_fusion_example() {
        // build n (λ f (build n (λ g xs[•0]))[•0]) fuses to
        // build n (λ f (g xs[•0])) — §IV.C.1 with f = +1, g = *2.
        let two_maps = e(
            "(build #8 (lam (+ (get (build #8 (lam (* (get xs %0) 2))) %0) 1)))",
        );
        let fused = e("(build #8 (lam (+ (* (get xs %0) 2) 1)))");
        let (runner, root) = saturate(&two_maps, 4);
        assert_eq!(
            runner.egraph.lookup_expr(&fused),
            Some(runner.egraph.find(root)),
            "maps should fuse"
        );
    }

    #[test]
    fn intro_lambda_builds_constant_arrays() {
        // §IV.C.2: a constant under a loop index becomes an indexed
        // constant array: 42 = (build n (λ 42))[•0].
        let expr = e("(build #8 (lam (+ (get xs %0) 42)))");
        let (runner, root) = saturate(&expr, 4);
        let as_vadd = e(
            "(build #8 (lam (+ (get xs %0) (get (build #8 (lam 42)) %0))))",
        );
        assert_eq!(
            runner.egraph.lookup_expr(&as_vadd),
            Some(runner.egraph.find(root)),
            "constant array form should be discovered"
        );
    }

    #[test]
    fn tuple_rules_roundtrip() {
        let (runner, root) = saturate(&e("(fst (tuple x y))"), 3);
        assert_eq!(
            runner.egraph.lookup_expr(&e("x")),
            Some(runner.egraph.find(root))
        );
        let (runner, root) = saturate(&e("(snd (tuple x y))"), 3);
        assert_eq!(
            runner.egraph.lookup_expr(&e("y")),
            Some(runner.egraph.find(root))
        );
    }

    #[test]
    fn intro_tuple_uses_existing_tuple_components() {
        // With a tuple in the graph, x also equals fst (tuple x y).
        let (runner, root) = saturate(&e("(tuple (+ x 0) y)"), 3);
        let _ = root;
        let x = runner.egraph.lookup_expr(&e("(+ x 0)")).unwrap();
        let wrapped = runner.egraph.lookup_expr(&e("(fst (tuple (+ x 0) y))"));
        assert_eq!(wrapped, Some(runner.egraph.find(x)));
    }

    #[test]
    fn intro_tuple_pairs_only_tuple_components() {
        // Both tuple slots range over the tuple components, so the rules'
        // own tuples never make a new component: after six steps every
        // tuple still pairs the two original components, although x, y, 1
        // and 2 are classes too. (The pipeline's backoff budget keeps an
        // unclosed bound, which grows quadratically per step, from
        // exhausting memory before the check can fail.)
        let mut eg = ArrayEGraph::default();
        eg.add_expr(&e("(tuple (+ x 1) (* y 2))"));
        let mut runner =
            Runner::new(eg).with_iter_limit(6).with_scheduler(BackoffScheduler::default());
        runner.run(&core_rules(&RuleConfig::default()));
        let eg = &runner.egraph;
        let components = [e("(+ x 1)"), e("(* y 2)")].map(|c| eg.lookup_expr(&c).unwrap());
        let mut tuples = 0;
        for class in eg.classes() {
            for node in &class.nodes {
                if let ArrayLang::Tuple(children) = node {
                    tuples += 1;
                    for child in children {
                        assert!(
                            components.contains(&eg.find(*child)),
                            "tuple in class {} pairs non-component {}",
                            class.id,
                            eg.data(*child).repr.expr()
                        );
                    }
                }
            }
        }
        // The rules did fire: every ordered pair of the two components.
        assert_eq!(tuples, 4);
    }

    #[test]
    fn intro_index_build_pairs_only_loop_extents() {
        // I-LIFTADD mints the element count #32 for the lifted add; it is
        // a call's extent, not a loop's, so R-IntroIndexBuild never builds
        // over it (pairing every class carrying an extent did).
        let mut eg = ArrayEGraph::default();
        let root = eg.add_expr(&liar_ir::dsl::madd(4, 8, e("A"), e("B")));
        let mut rules = core_rules(&RuleConfig::default());
        rules.extend(crate::rules::scalar_rules());
        rules.extend(crate::rules::torch_rules());
        let mut runner =
            Runner::new(eg).with_iter_limit(6).with_scheduler(BackoffScheduler::default());
        runner.run(&rules);
        let eg = &runner.egraph;
        assert_eq!(eg.lookup_expr(&e("(add #32 A B)")), Some(eg.find(root)));
        let n32 = eg.lookup_expr(&e("#32")).expect("lifted extent");
        for class in eg.classes() {
            for node in &class.nodes {
                if let ArrayLang::Build([n, _]) = node {
                    assert_ne!(eg.find(*n), n32, "build over #32 in class {}", class.id);
                }
            }
        }
    }

    #[test]
    fn intro_lambda_abstracts_over_the_innermost_loop_index_only() {
        // A gemm-like nest whose innermost body reads %0–%3. Alone,
        // R-IntroLambda makes every `app` in the graph, and each takes
        // %0 or %1 (pairing every class holding an index also took %2
        // and %3).
        let mut eg = ArrayEGraph::default();
        eg.add_expr(&e(
            "(build #8 (lam (build #8 (lam (ifold #8 0 (lam (lam \
             (+ (* 2.5 (* (get (get A %3) %1) (get (get B %1) %2))) %0))))))))",
        ));
        let intro_lambda: Vec<_> = core_rules(&RuleConfig::default())
            .into_iter()
            .filter(|r| r.name() == "intro-lambda")
            .collect();
        let mut runner = Runner::new(eg).with_iter_limit(3);
        runner.run(&intro_lambda);
        let eg = &runner.egraph;
        let loop_indices = LOOP_INDICES.map(|v| eg.lookup(v).unwrap());
        for v in ["%2", "%3"] {
            assert!(eg.lookup_expr(&e(v)).is_some(), "{v} is in the graph");
        }
        let mut redexes = 0;
        for class in eg.classes() {
            for node in &class.nodes {
                if let ArrayLang::App([_, y]) = node {
                    redexes += 1;
                    assert!(
                        loop_indices.contains(&eg.find(*y)),
                        "redex in class {} takes {}",
                        class.id,
                        eg.data(*y).repr
                    );
                }
            }
        }
        assert!(redexes > 0, "the rule fired");
    }

    #[test]
    fn intro_lambda_still_finds_the_ifold_chain() {
        // vsum's `1 × dot` reads `1` as the constant array `(build #8
        // (lam 1))` indexed by the ifold's outer index, %1.
        let mut eg = ArrayEGraph::default();
        eg.add_expr(&liar_ir::dsl::vsum(8, e("xs")));
        let mut rules = core_rules(&RuleConfig::default());
        rules.extend(crate::rules::scalar_rules());
        let mut runner = Runner::new(eg)
            .with_iter_limit(4)
            .with_scheduler(BackoffScheduler::default());
        runner.run(&rules);
        let eg = &runner.egraph;
        let one = eg.lookup_expr(&e("1")).expect("x → 1*x made 1");
        assert_eq!(
            eg.lookup_expr(&e("(get (build #8 (lam 1)) %1)")),
            Some(eg.find(one))
        );
    }

    #[test]
    fn saturation_is_sound_for_invariants() {
        let (runner, _) = saturate(&e("(build #4 (lam (+ (get xs %0) 1)))"), 3);
        runner.egraph.assert_invariants();
    }
}
