//! Patterns: terms with variables, usable for searching and rewriting.
//!
//! Matching is performed by the compiled e-matching VM (see
//! [`machine`](crate::machine)); every pattern carries its compiled
//! [`Program`], built once at construction. The original recursive
//! tree-walk matcher survives as [`Pattern::match_class_oracle`], the
//! reference implementation the differential tests compare the VM against.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::language::parse_sexp;
use crate::machine::Program;
use crate::rewrite::{Applier, Searcher};
use crate::{Analysis, EGraph, Id, Language, RecExpr};

/// Global interning table mapping pattern-variable names to dense ids.
///
/// Names are leaked once per distinct string (rule sets use a small, fixed
/// vocabulary), which is what lets [`Var`] be a `Copy` `u32` and
/// [`Var::name`] return a `'static` string.
struct VarTable {
    names: Vec<&'static str>,
    ids: HashMap<&'static str, u32>,
}

fn var_table() -> &'static Mutex<VarTable> {
    static TABLE: OnceLock<Mutex<VarTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        Mutex::new(VarTable {
            names: Vec::new(),
            ids: HashMap::new(),
        })
    })
}

/// A pattern variable such as `?x`.
///
/// Names are interned in a global symbol table, making `Var` a `Copy`
/// 4-byte handle: the e-matching hot loop never clones strings.
/// Equality/ordering/hashing are by interned id (ordering therefore
/// reflects first-interning order, not lexicographic order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Create a variable; the leading `?` is optional.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        let name = name.strip_prefix('?').unwrap_or(name);
        let mut table = var_table().lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = table.ids.get(name) {
            return Var(id);
        }
        let name: &'static str = Box::leak(name.to_string().into_boxed_str());
        let id = u32::try_from(table.names.len()).expect("too many distinct variables");
        table.names.push(name);
        table.ids.insert(name, id);
        Var(id)
    }

    /// The variable's name without the leading `?`.
    pub fn name(&self) -> &'static str {
        var_table().lock().unwrap_or_else(PoisonError::into_inner).names[self.0 as usize]
    }

    /// The interned symbol id.
    pub fn index(&self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var(?{})", self.name())
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.name())
    }
}

/// What a pattern variable is bound to.
///
/// Ordinary variables bind e-classes. Variables matched through a *shift
/// pattern* (`?x↑ᵏ`, written `(sh<k> ?x)`) bind a concrete term — the
/// downshifted representative — which is only added to the e-graph if the
/// rule's right-hand side actually uses it.
#[derive(Debug, Clone)]
pub enum Binding<L> {
    /// Bound to an existing e-class.
    Class(Id),
    /// Bound to a term not (necessarily) in the e-graph yet. Shared via
    /// `Arc`: an analysis may hand out a term it keeps (see
    /// [`Analysis::downshift`](crate::Analysis::downshift)).
    Expr(Arc<RecExpr<L>>),
}

/// A substitution: variable → [`Binding`].
#[derive(Debug, Clone)]
pub struct Subst<L> {
    pairs: Vec<(Var, Binding<L>)>,
}

impl<L> Default for Subst<L> {
    fn default() -> Self {
        Subst { pairs: Vec::new() }
    }
}

impl<L: Language> Subst<L> {
    /// Look up a variable.
    pub fn get(&self, var: &Var) -> Option<&Binding<L>> {
        self.pairs.iter().find(|(v, _)| v == var).map(|(_, b)| b)
    }

    /// Bind a variable (must not already be bound).
    pub fn insert(&mut self, var: Var, binding: Binding<L>) {
        debug_assert!(self.get(&var).is_none(), "{var} already bound");
        self.pairs.push((var, binding));
    }

    /// Iterate over the bindings.
    pub fn iter(&self) -> impl Iterator<Item = &(Var, Binding<L>)> {
        self.pairs.iter()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// True when `self` and `other` bind the same variables to equivalent
    /// values (classes are compared through `egraph_find`). This is the
    /// *specification* of substitution equality; the VM's hash-based dedup
    /// must agree with it.
    pub fn same_as(&self, other: &Self, egraph_find: &dyn Fn(Id) -> Id) -> bool {
        if self.pairs.len() != other.pairs.len() {
            return false;
        }
        self.pairs.iter().all(|(v, b)| match other.get(v) {
            Some(ob) => match (b, ob) {
                (Binding::Class(a), Binding::Class(c)) => egraph_find(*a) == egraph_find(*c),
                (Binding::Expr(a), Binding::Expr(c)) => a == c,
                _ => false,
            },
            None => false,
        })
    }
}

/// One node of a [`Pattern`]; children (for the `ENode` case) index into
/// the pattern's own node table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternNode<L> {
    /// A concrete language node whose children are pattern positions.
    ENode(L),
    /// A pattern variable matching any e-class.
    Var(Var),
    /// `?x` shifted up by `k` binders. On the left-hand side this matches a
    /// class containing a term with no free index `< k` and binds `?x` to
    /// that term downshifted by `k`; on the right-hand side it inserts the
    /// binding shifted up by `k`. Requires [`Analysis::downshift`] /
    /// [`Analysis::shift_up`]. Zero shifts are normalized to plain
    /// [`Var`](PatternNode::Var)s when the pattern is built.
    Shifted(Var, u32),
}

/// A term with pattern variables, stored like a [`RecExpr`].
///
/// Patterns implement both [`Searcher`] and [`Applier`], so a pair of
/// patterns forms a [`Rewrite`](crate::Rewrite). Construction compiles the
/// pattern into an e-matching VM [`Program`] exactly once; see the
/// [`machine`](crate::machine) module.
#[derive(Debug, Clone)]
pub struct Pattern<L> {
    nodes: Vec<PatternNode<L>>,
    root: Id,
    program: Arc<Program<L>>,
}

impl<L: Language> PartialEq for Pattern<L> {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.root == other.root
    }
}

impl<L: Language> Eq for Pattern<L> {}

impl<L: Language> Pattern<L> {
    /// Build a pattern with an explicit root, normalizing zero shifts and
    /// compiling the VM program.
    fn with_root(mut nodes: Vec<PatternNode<L>>, root: Id) -> Self {
        for node in &mut nodes {
            if let PatternNode::Shifted(v, 0) = node {
                *node = PatternNode::Var(*v);
            }
        }
        let program = Arc::new(Program::compile(&nodes, root));
        Pattern { nodes, root, program }
    }

    /// The nodes in post order.
    pub fn nodes(&self) -> &[PatternNode<L>] {
        &self.nodes
    }

    /// The root node index.
    pub fn root(&self) -> Id {
        self.root
    }

    /// The compiled e-matching program.
    pub fn compiled(&self) -> &Program<L> {
        &self.program
    }

    /// All variables mentioned by the pattern (in first-occurrence order).
    pub fn vars(&self) -> Vec<Var> {
        let mut vars = Vec::new();
        for node in &self.nodes {
            let v = match node {
                PatternNode::Var(v) | PatternNode::Shifted(v, _) => *v,
                PatternNode::ENode(_) => continue,
            };
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        vars
    }

    /// Match this pattern against a single e-class, returning every
    /// substitution (deduplicated), by executing the compiled VM program.
    pub fn match_class<A: Analysis<L>>(&self, egraph: &EGraph<L, A>, class: Id) -> Vec<Subst<L>> {
        self.program.run(egraph, class)
    }

    /// Match with the legacy recursive matcher — the **oracle** the
    /// differential test suite checks [`match_class`](Pattern::match_class)
    /// against. Slower (O(n²) dedup, per-branch substitution clones); not
    /// used on any production path.
    pub fn match_class_oracle<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        class: Id,
    ) -> Vec<Subst<L>> {
        let mut results = Vec::new();
        self.match_at(egraph, self.root, egraph.find(class), Subst::default(), &mut results);
        let find = |id: Id| egraph.find(id);
        let mut deduped: Vec<Subst<L>> = Vec::new();
        for s in results {
            if !deduped.iter().any(|d| d.same_as(&s, &find)) {
                deduped.push(s);
            }
        }
        deduped
    }

    /// Oracle treatment of a variable position (shared by `Var` and the
    /// normalized-away `(sh0 ?x)` case).
    fn match_var_at<A: Analysis<L>>(
        egraph: &EGraph<L, A>,
        v: Var,
        class: Id,
        subst: Subst<L>,
        out: &mut Vec<Subst<L>>,
    ) {
        match subst.get(&v) {
            Some(Binding::Class(bound)) => {
                if egraph.find(*bound) == class {
                    out.push(subst);
                }
            }
            Some(Binding::Expr(e)) => {
                if egraph.lookup_expr(e) == Some(class) {
                    out.push(subst);
                }
            }
            None => {
                let mut s = subst;
                s.insert(v, Binding::Class(class));
                out.push(s);
            }
        }
    }

    fn match_at<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        pid: Id,
        class: Id,
        subst: Subst<L>,
        out: &mut Vec<Subst<L>>,
    ) {
        match &self.nodes[pid.index()] {
            PatternNode::Var(v) | PatternNode::Shifted(v, 0) => {
                Self::match_var_at(egraph, *v, class, subst, out);
            }
            PatternNode::Shifted(v, k) => {
                let Some(down) = A::downshift(egraph, class, *k) else {
                    return;
                };
                match subst.get(v) {
                    Some(Binding::Expr(e)) => {
                        if *e == down {
                            out.push(subst);
                        } else {
                            // Equal classes may yield different
                            // representatives; fall back to a semantic
                            // check through the e-graph.
                            let (a, b) = (egraph.lookup_expr(e), egraph.lookup_expr(&down));
                            if a.is_some() && a == b {
                                out.push(subst);
                            }
                        }
                    }
                    Some(Binding::Class(bound)) => {
                        if egraph.lookup_expr(&down) == Some(egraph.find(*bound)) {
                            out.push(subst);
                        }
                    }
                    None => {
                        let mut s = subst;
                        s.insert(*v, Binding::Expr(down));
                        out.push(s);
                    }
                }
            }
            PatternNode::ENode(pnode) => {
                for enode in egraph[class].iter() {
                    if !pnode.matches(enode) {
                        continue;
                    }
                    debug_assert_eq!(pnode.children().len(), enode.children().len());
                    let mut substs = vec![subst.clone()];
                    for (pc, ec) in pnode.children().iter().zip(enode.children()) {
                        let mut next = Vec::new();
                        for s in substs {
                            self.match_at(egraph, *pc, egraph.find(*ec), s, &mut next);
                        }
                        substs = next;
                        if substs.is_empty() {
                            break;
                        }
                    }
                    out.extend(substs);
                }
            }
        }
    }

    /// Instantiate this pattern under `subst`, adding nodes to the e-graph;
    /// returns the root's class.
    ///
    /// # Panics
    ///
    /// Panics if a variable is unbound, or if a shifted variable is used
    /// with an analysis that does not provide
    /// [`representative`](Analysis::representative) / [`shift_up`](Analysis::shift_up).
    pub fn instantiate<A: Analysis<L>>(&self, egraph: &mut EGraph<L, A>, subst: &Subst<L>) -> Id {
        self.instantiate_at(egraph, self.root, subst)
    }

    fn instantiate_at<A: Analysis<L>>(
        &self,
        egraph: &mut EGraph<L, A>,
        pid: Id,
        subst: &Subst<L>,
    ) -> Id {
        match &self.nodes[pid.index()] {
            PatternNode::Var(v) => match subst.get(v) {
                Some(Binding::Class(id)) => egraph.find(*id),
                Some(Binding::Expr(e)) => egraph.add_expr(e),
                None => panic!("unbound pattern variable {v}"),
            },
            PatternNode::Shifted(v, k) => {
                let expr = match subst.get(v) {
                    Some(Binding::Expr(e)) => Arc::clone(e),
                    Some(Binding::Class(id)) => A::representative(egraph, *id)
                        .unwrap_or_else(|| panic!("analysis provides no representative for {v}")),
                    None => panic!("unbound pattern variable {v}"),
                };
                let shifted = A::shift_up(&expr, *k)
                    .unwrap_or_else(|| panic!("analysis does not support shifting (for {v})"));
                egraph.add_expr(&shifted)
            }
            PatternNode::ENode(node) => {
                let node = node.clone().map_children(|c| {
                    // Children of a pattern ENode index pattern positions.
                    self.instantiate_at(egraph, c, subst)
                });
                egraph.add(node)
            }
        }
    }
}

impl<L: Language, A: Analysis<L>> Searcher<L, A> for Pattern<L> {
    fn search_class(&self, egraph: &EGraph<L, A>, class: Id, _limit: usize) -> Vec<Subst<L>> {
        self.match_class(egraph, class)
    }

    fn candidate_class_ids(&self, egraph: &EGraph<L, A>) -> Option<Vec<Id>> {
        self.program
            .root_op_key()
            .map(|key| egraph.classes_with_op(key).to_vec())
    }

    fn as_pattern(&self) -> Option<&Pattern<L>> {
        Some(self)
    }

    fn bound_vars(&self) -> Vec<Var> {
        self.vars()
    }
}

impl<L: Language, A: Analysis<L>> Applier<L, A> for Pattern<L> {
    fn apply(&self, egraph: &mut EGraph<L, A>, class: Id, subst: &Subst<L>) -> Vec<Id> {
        let new_id = self.instantiate(egraph, subst);
        let (id, changed) = egraph.union(class, new_id);
        if changed {
            vec![id]
        } else {
            vec![]
        }
    }

    fn bound_vars(&self) -> Vec<Var> {
        self.vars()
    }

    fn as_pattern(&self) -> Option<&Pattern<L>> {
        Some(self)
    }
}

/// Error produced when parsing a [`Pattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternParseError(pub String);

impl fmt::Display for PatternParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pattern parse error: {}", self.0)
    }
}

impl std::error::Error for PatternParseError {}

/// Parse `sh<k>` operator names used for shift patterns.
fn parse_shift_op(op: &str) -> Option<u32> {
    op.strip_prefix("sh").and_then(|k| k.parse().ok())
}

/// The largest shift a pattern may carry. Analyses test the indices below
/// `k` in a 64-bit mask of free De Bruijn indices (LIAR's `VarSet` panics
/// beyond it), so a larger shift could never match.
const MAX_SHIFT: u32 = 63;

impl<L: Language> FromStr for Pattern<L> {
    type Err = PatternParseError;

    /// Parse a pattern from an s-expression.
    ///
    /// Tokens starting with `?` are variables; `(sh<k> ?x)` (e.g. `(sh2
    /// ?a)`) is `?x` shifted up by `k`; everything else is handed to
    /// [`Language::from_op`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut nodes: Vec<PatternNode<L>> = Vec::new();
        let root = parse_sexp(s, &mut |op, children| {
            if let Some(rest) = op.strip_prefix('?') {
                if !children.is_empty() {
                    return Err(format!("variable ?{rest} cannot have children"));
                }
                if rest.is_empty() {
                    return Err("empty variable name".to_string());
                }
                nodes.push(PatternNode::Var(Var::new(rest)));
                return Ok(Id::from_index(nodes.len() - 1));
            }
            if let Some(k) = parse_shift_op(op) {
                if k > MAX_SHIFT {
                    return Err(format!("(sh{k} ...) shifts by more than {MAX_SHIFT}"));
                }
                if children.len() == 1 {
                    if let PatternNode::Var(v) = nodes[children[0].index()].clone() {
                        nodes.pop();
                        nodes.push(PatternNode::Shifted(v, k));
                        return Ok(Id::from_index(nodes.len() - 1));
                    }
                }
                return Err(format!("(sh{k} ...) takes exactly one variable argument"));
            }
            let node = L::from_op(op, children)?;
            nodes.push(PatternNode::ENode(node));
            Ok(Id::from_index(nodes.len() - 1))
        })
        .map_err(|e| PatternParseError(e.0))?;
        Ok(Pattern::with_root(nodes, root))
    }
}

impl<L: Language> fmt::Display for Pattern<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go<L: Language>(
            p: &Pattern<L>,
            f: &mut fmt::Formatter<'_>,
            id: Id,
        ) -> fmt::Result {
            match &p.nodes[id.index()] {
                PatternNode::Var(v) => write!(f, "{v}"),
                PatternNode::Shifted(v, k) => write!(f, "(sh{k} {v})"),
                PatternNode::ENode(n) => {
                    if n.is_leaf() {
                        write!(f, "{}", n.display_op())
                    } else {
                        write!(f, "({}", n.display_op())?;
                        for c in n.children() {
                            write!(f, " ")?;
                            go(p, f, *c)?;
                        }
                        write!(f, ")")
                    }
                }
            }
        }
        go(self, f, self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolLang;

    type EG = EGraph<SymbolLang, ()>;

    #[test]
    fn parse_display_roundtrip() {
        for s in ["?x", "(f ?x ?y)", "(f (g ?x) a)", "(f (sh2 ?a) ?b)"] {
            let p: Pattern<SymbolLang> = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn zero_shift_normalizes_to_var() {
        let p: Pattern<SymbolLang> = "(f (sh0 ?a))".parse().unwrap();
        assert_eq!(p.to_string(), "(f ?a)");
        assert!(p
            .nodes()
            .iter()
            .all(|n| !matches!(n, PatternNode::Shifted(..))));
    }

    #[test]
    fn shifts_beyond_63_are_rejected() {
        let p: Pattern<SymbolLang> = "(get (sh63 ?a) %0)".parse().unwrap();
        assert_eq!(p.to_string(), "(get (sh63 ?a) %0)");
        let err = "(get (sh64 ?a) %0)".parse::<Pattern<SymbolLang>>().unwrap_err();
        assert!(err.0.contains("sh64"), "{err}");
        assert!("(sh4294967295 ?a)".parse::<Pattern<SymbolLang>>().is_err());
    }

    #[test]
    fn vars_are_interned_and_copy() {
        let a = Var::new("?x");
        let b = Var::new("x");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
        assert_eq!(a.name(), "x");
        let c = a; // Copy
        assert_eq!(a, c);
        assert_ne!(Var::new("y"), a);
    }

    #[test]
    fn vars_in_order() {
        let p: Pattern<SymbolLang> = "(f ?b (g ?a ?b))".parse().unwrap();
        let names: Vec<_> = p.vars().iter().map(|v| v.name().to_string()).collect();
        assert_eq!(names, ["b", "a"]);
    }

    #[test]
    fn simple_match() {
        let mut eg = EG::default();
        let expr = "(f a b)".parse().unwrap();
        let id = eg.add_expr(&expr);
        let p: Pattern<SymbolLang> = "(f ?x ?y)".parse().unwrap();
        let substs = p.match_class(&eg, id);
        assert_eq!(substs.len(), 1);
        let q: Pattern<SymbolLang> = "(g ?x)".parse().unwrap();
        assert!(q.match_class(&eg, id).is_empty());
    }

    #[test]
    fn nonlinear_pattern_requires_equal_classes() {
        let mut eg = EG::default();
        let faa = eg.add_expr(&"(f a a)".parse().unwrap());
        let fab = eg.add_expr(&"(f a b)".parse().unwrap());
        let p: Pattern<SymbolLang> = "(f ?x ?x)".parse().unwrap();
        assert_eq!(p.match_class(&eg, faa).len(), 1);
        assert_eq!(p.match_class(&eg, fab).len(), 0);
        // After unioning a and b, (f a b) also matches (f ?x ?x).
        let a = eg.lookup_expr(&"a".parse().unwrap()).unwrap();
        let b = eg.lookup_expr(&"b".parse().unwrap()).unwrap();
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(p.match_class(&eg, fab).len(), 1);
    }

    #[test]
    fn match_enumerates_class_members() {
        let mut eg = EG::default();
        let fa = eg.add_expr(&"(f a)".parse().unwrap());
        let fb = eg.add_expr(&"(f b)".parse().unwrap());
        eg.union(fa, fb);
        eg.rebuild();
        let p: Pattern<SymbolLang> = "(f ?x)".parse().unwrap();
        let substs = p.match_class(&eg, fa);
        assert_eq!(substs.len(), 2, "both f(a) and f(b) should match");
    }

    #[test]
    fn vm_and_oracle_agree_on_dedup() {
        // Two distinct members produce the same substitution after
        // canonicalization: both matchers must collapse them.
        let mut eg = EG::default();
        let fa = eg.add_expr(&"(f a)".parse().unwrap());
        let fb = eg.add_expr(&"(f b)".parse().unwrap());
        eg.union(fa, fb);
        let a = eg.lookup_expr(&"a".parse().unwrap()).unwrap();
        let b = eg.lookup_expr(&"b".parse().unwrap()).unwrap();
        eg.union(a, b);
        eg.rebuild();
        let p: Pattern<SymbolLang> = "(f ?x)".parse().unwrap();
        let vm = p.match_class(&eg, fa);
        let oracle = p.match_class_oracle(&eg, fa);
        assert_eq!(vm.len(), 1);
        assert_eq!(oracle.len(), 1);
    }

    #[test]
    fn instantiate_builds_term() {
        let mut eg = EG::default();
        let id = eg.add_expr(&"(f a b)".parse().unwrap());
        let lhs: Pattern<SymbolLang> = "(f ?x ?y)".parse().unwrap();
        let rhs: Pattern<SymbolLang> = "(g ?y ?x)".parse().unwrap();
        let subst = lhs.match_class(&eg, id).pop().unwrap();
        let new_id = rhs.instantiate(&mut eg, &subst);
        let expect = eg.lookup_expr(&"(g b a)".parse().unwrap());
        assert_eq!(expect, Some(eg.find(new_id)));
    }

    #[test]
    fn search_respects_limit() {
        let mut eg = EG::default();
        for name in ["a", "b", "c", "d"] {
            let leaf = eg.add(SymbolLang::leaf(name));
            eg.add(SymbolLang::new("f", vec![leaf]));
        }
        let rw = crate::Rewrite::<SymbolLang, ()>::from_patterns("wrap", "(f ?x)", "(g ?x)");
        let (candidates, matches) = rw.search(&eg, 2);
        assert_eq!(candidates, 4, "the four f classes");
        let total: usize = matches.iter().map(|m| m.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn candidate_classes_come_from_operator_index() {
        let mut eg = EG::default();
        let leaf = eg.add(SymbolLang::leaf("a"));
        eg.add(SymbolLang::new("f", vec![leaf]));
        eg.add(SymbolLang::new("g", vec![leaf]));
        let p: Pattern<SymbolLang> = "(f ?x)".parse().unwrap();
        let cands =
            <Pattern<_> as Searcher<_, ()>>::candidate_class_ids(&p, &eg).expect("indexed");
        assert_eq!(cands.len(), 1, "only the f class is a candidate");
        // A variable root has no index entry point.
        let q: Pattern<SymbolLang> = "?x".parse().unwrap();
        assert!(<Pattern<_> as Searcher<_, ()>>::candidate_class_ids(&q, &eg).is_none());
    }
}
