//! Rewrite rules: a searcher paired with an applier.

use std::fmt;
use std::sync::Arc;

use crate::{Analysis, EGraph, Id, Language, Pattern, Subst, Var};

/// All matches of a searcher inside one e-class.
#[derive(Debug, Clone)]
pub struct SearchMatches<L> {
    /// The matched e-class (canonical at search time).
    pub class: Id,
    substs: Vec<Subst<L>>,
}

impl<L> SearchMatches<L> {
    /// Matches of `class`, one substitution per way the pattern matched.
    pub fn new(class: Id, substs: Vec<Subst<L>>) -> Self {
        SearchMatches { class, substs }
    }

    /// The substitutions, one per way the pattern matched.
    pub fn substs(&self) -> &[Subst<L>] {
        &self.substs
    }

    /// Total number of substitutions.
    pub fn len(&self) -> usize {
        self.substs.len()
    }

    /// True when there are no substitutions.
    pub fn is_empty(&self) -> bool {
        self.substs.is_empty()
    }
}

/// The left-hand side of a rewrite: finds matches in an e-graph, one
/// e-class at a time.
///
/// A searcher only answers for single classes; [`Rewrite::search`] is the
/// one loop that walks a rule's candidate classes. Searchers must stay
/// read-only so that a whole batch of rules can be searched against one
/// consistent e-graph snapshot, and they are only ever asked about a clean
/// e-graph (no union awaits a [`rebuild`](EGraph::rebuild)).
pub trait Searcher<L: Language, A: Analysis<L>> {
    /// Search a single e-class. `limit` is what is left of the rule's match
    /// budget: a searcher may stop once it has that many substitutions, and
    /// [`Rewrite::search`] clips any excess.
    fn search_class(&self, egraph: &EGraph<L, A>, class: Id, limit: usize) -> Vec<Subst<L>>;

    /// The e-classes this searcher could possibly match, **sorted
    /// ascending**, or `None` when every class must be visited (the
    /// default).
    ///
    /// Compiled patterns answer from the e-graph's
    /// [operator index](EGraph::classes_with_op); [`Rewrite::search`] then
    /// only asks [`search_class`](Searcher::search_class) about this list.
    /// Implementations must be *sound over-approximations*: a class not
    /// listed must produce zero matches, so that skipping it is
    /// observationally identical to searching it.
    fn candidate_class_ids(&self, egraph: &EGraph<L, A>) -> Option<Vec<Id>> {
        let _ = egraph;
        None
    }

    /// Downcast to a [`Pattern`] searcher, when this searcher is one.
    ///
    /// Used by the differential test suite and the e-matching bench to
    /// swap compiled patterns for the legacy oracle matcher.
    fn as_pattern(&self) -> Option<&Pattern<L>> {
        None
    }

    /// Variables this searcher binds (used to validate rewrites).
    fn bound_vars(&self) -> Vec<Var> {
        Vec::new()
    }
}

/// The right-hand side of a rewrite: given one match, mutate the e-graph
/// (add nodes, union classes).
pub trait Applier<L: Language, A: Analysis<L>> {
    /// Apply the rewrite for a single `(class, subst)` match. Returns the
    /// ids of classes that actually changed (empty when the application was
    /// a no-op, e.g. the union was already known).
    fn apply(&self, egraph: &mut EGraph<L, A>, class: Id, subst: &Subst<L>) -> Vec<Id>;

    /// Variables this applier requires to be bound.
    fn bound_vars(&self) -> Vec<Var> {
        Vec::new()
    }

    /// Downcast to a plain [`Pattern`] right-hand side, when this applier
    /// is one. Proof checking uses this: steps of pattern → pattern rules
    /// are verified by match-and-instantiate, while appliers that run code
    /// (guards, β-reduction, the intro rules) return `None` here and are
    /// re-executed during a replay check instead.
    fn as_pattern(&self) -> Option<&Pattern<L>> {
        None
    }
}

/// A named rewrite rule.
///
/// Most rules are a pair of [`Pattern`]s; rules that need to run code — the
/// LIAR β-reduction and intro rules — plug in custom [`Searcher`]s /
/// [`Applier`]s.
pub struct Rewrite<L: Language, A: Analysis<L>> {
    name: String,
    searcher: Arc<dyn Searcher<L, A>>,
    applier: Arc<dyn Applier<L, A>>,
}

impl<L: Language, A: Analysis<L>> Clone for Rewrite<L, A> {
    fn clone(&self) -> Self {
        Rewrite {
            name: self.name.clone(),
            searcher: Arc::clone(&self.searcher),
            applier: Arc::clone(&self.applier),
        }
    }
}

impl<L: Language, A: Analysis<L>> fmt::Debug for Rewrite<L, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rewrite").field("name", &self.name).finish()
    }
}

impl<L: Language + 'static, A: Analysis<L> + 'static> Rewrite<L, A> {
    /// Build a rewrite from any searcher/applier pair.
    ///
    /// # Panics
    ///
    /// Panics if the applier requires a variable the searcher does not
    /// bind.
    pub fn new(
        name: impl Into<String>,
        searcher: impl Searcher<L, A> + 'static,
        applier: impl Applier<L, A> + 'static,
    ) -> Self {
        let name = name.into();
        let bound = searcher.bound_vars();
        for v in applier.bound_vars() {
            assert!(
                bound.contains(&v),
                "rewrite {name}: applier uses unbound variable {v}"
            );
        }
        Rewrite {
            name,
            searcher: Arc::new(searcher),
            applier: Arc::new(applier),
        }
    }

    /// Build a rewrite from two pattern strings (panicking on parse errors
    /// — rules are static program text).
    ///
    /// # Panics
    ///
    /// Panics if either pattern fails to parse or the right-hand side uses
    /// an unbound variable.
    pub fn from_patterns(name: impl Into<String>, lhs: &str, rhs: &str) -> Self {
        let name = name.into();
        let lhs: Pattern<L> = lhs
            .parse()
            .unwrap_or_else(|e| panic!("rewrite {name}: bad LHS: {e}"));
        let rhs: Pattern<L> = rhs
            .parse()
            .unwrap_or_else(|e| panic!("rewrite {name}: bad RHS: {e}"));
        Rewrite::new(name, lhs, rhs)
    }

    /// The rule's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Search for matches: the one search loop. Returns the number of
    /// candidate classes and the matches, which stop at exactly `limit`
    /// substitutions.
    ///
    /// The searcher's [candidate classes](Searcher::candidate_class_ids)
    /// (every class when it names none) are asked in ascending id order,
    /// each for at most what is left of the budget. Skipping a
    /// non-candidate class is sound because the list over-approximates.
    ///
    /// # Panics
    ///
    /// Panics if a union awaits a [`rebuild`](EGraph::rebuild): stale ids
    /// in the operator index would silently hide matches.
    pub fn search(&self, egraph: &EGraph<L, A>, limit: usize) -> (usize, Vec<SearchMatches<L>>) {
        assert!(
            egraph.is_clean(),
            "rule {}: searching an e-graph whose unions await a rebuild",
            self.name
        );
        let ids = self
            .searcher
            .candidate_class_ids(egraph)
            .unwrap_or_else(|| egraph.class_ids());
        let mut found = 0;
        let mut out = Vec::new();
        for &id in &ids {
            if found >= limit {
                break;
            }
            let mut substs = self.searcher.search_class(egraph, id, limit - found);
            substs.truncate(limit - found);
            if !substs.is_empty() {
                found += substs.len();
                out.push(SearchMatches::new(id, substs));
            }
        }
        (ids.len(), out)
    }

    /// This rule's left-hand side as a [`Pattern`], when the searcher is
    /// one (custom searchers return `None`).
    pub fn searcher_pattern(&self) -> Option<&Pattern<L>> {
        self.searcher.as_pattern()
    }

    /// A copy of this rule whose pattern searcher (if any) is replaced by
    /// the legacy [`OraclePattern`](crate::OraclePattern) matcher; rules
    /// with custom searchers are returned unchanged.
    ///
    /// Appliers are untouched, so a saturation run with oracle-ized rules
    /// is the pre-VM engine — the baseline the differential tests and the
    /// e-matching bench compare against.
    pub fn with_oracle_searcher(&self) -> Self {
        match self.searcher.as_pattern() {
            Some(p) => Rewrite {
                name: self.name.clone(),
                searcher: Arc::new(crate::OraclePattern::new(p.clone())),
                applier: Arc::clone(&self.applier),
            },
            None => self.clone(),
        }
    }

    /// This rule's right-hand side as a [`Pattern`], when the applier is
    /// one (guarded and custom appliers return `None`).
    pub fn applier_pattern(&self) -> Option<&Pattern<L>> {
        self.applier.as_pattern()
    }

    /// Apply previously found matches; returns the number of applications
    /// that changed the e-graph.
    ///
    /// With explanations enabled, every union an application performs is
    /// justified by this rule in the explanation forest (via
    /// [`EGraph::set_rule_context`]), and pattern left-hand sides are
    /// instantiated first so the recorded edge connects the *matched
    /// instance* — not whatever term happened to create the matched
    /// class's id.
    pub fn apply(&self, egraph: &mut EGraph<L, A>, matches: &[SearchMatches<L>]) -> usize {
        if egraph.are_explanations_enabled() {
            return self.apply_explained(egraph, matches);
        }
        let mut changed = 0;
        for m in matches {
            for subst in m.substs() {
                if !self.applier.apply(egraph, m.class, subst).is_empty() {
                    changed += 1;
                }
            }
        }
        changed
    }

    /// The explained apply path (see [`Rewrite::apply`]).
    fn apply_explained(&self, egraph: &mut EGraph<L, A>, matches: &[SearchMatches<L>]) -> usize {
        let name: Arc<str> = Arc::from(self.name.as_str());
        let lhs = self.searcher.as_pattern();
        let mut changed = 0;
        for m in matches {
            for subst in m.substs() {
                egraph.set_rule_context(Some((Arc::clone(&name), Arc::new(subst.clone()))));
                let class = match lhs {
                    // Precise left endpoint: the matched instance itself.
                    Some(pattern) => pattern.instantiate(egraph, subst),
                    None => m.class,
                };
                if !self.applier.apply(egraph, class, subst).is_empty() {
                    changed += 1;
                }
                egraph.set_rule_context(None);
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolLang;

    #[test]
    fn pattern_pair_rewrite() {
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        let id = eg.add_expr(&"(+ a b)".parse().unwrap());
        let rw = Rewrite::from_patterns("comm-add", "(+ ?x ?y)", "(+ ?y ?x)");
        let (_, matches) = rw.search(&eg, usize::MAX);
        assert_eq!(matches.iter().map(|m| m.len()).sum::<usize>(), 1);
        let changed = rw.apply(&mut eg, &matches);
        assert_eq!(changed, 1);
        eg.rebuild();
        let flipped = eg.lookup_expr(&"(+ b a)".parse().unwrap());
        assert_eq!(flipped, Some(eg.find(id)));
        // Re-applying discovers the already-known union: no change.
        let (_, matches) = rw.search(&eg, usize::MAX);
        let changed = rw.apply(&mut eg, &matches);
        assert_eq!(changed, 0);
    }

    #[test]
    #[should_panic(expected = "await a rebuild")]
    fn searching_with_a_pending_union_panics() {
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        let a = eg.add_expr(&"(+ a b)".parse().unwrap());
        let b = eg.add_expr(&"(+ b a)".parse().unwrap());
        eg.union(a, b);
        let rw = Rewrite::from_patterns("comm-add", "(+ ?x ?y)", "(+ ?y ?x)");
        let _ = rw.search(&eg, usize::MAX);
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn unbound_rhs_var_panics() {
        let _ = Rewrite::<SymbolLang, ()>::from_patterns("bad", "(f ?x)", "(g ?x ?y)");
    }
}
