//! The e-class analysis for the array IR.
//!
//! Every e-class carries:
//!
//! * a **free-variable set** (optimistic: the intersection over members, so
//!   a bit that is set is free in *every* member — sound for rejecting
//!   downshifts early);
//! * a smallest known **representative** term, used by the
//!   extraction-based substitution/shift appliers (paper §IV.B.3, second
//!   approach) and by shift-pattern instantiation. It is shared with the
//!   children's representatives (see [`Repr`]), so analysing an e-node
//!   costs O(arity), not O(term);
//! * the **extent** when the class is a `#n` leaf (read by cost models);
//! * the **constant** when the class contains a float literal.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use liar_egraph::{
    Analysis, DidMerge, EGraph, FxHashMap, Id, Language, SnapshotAnalysis, SnapshotError,
    SnapshotReader, SnapshotWriter,
};

use crate::debruijn::{self, VarSet};
use crate::{ArrayLang, Expr, Num};

/// A class's representative term, structurally shared: the chosen e-node
/// plus its children's representatives, flattened into an [`Expr`] at most
/// once, on first use ([`Repr::expr`]).
///
/// Building one from an e-node costs O(arity) however large the term is,
/// and cloning one bumps a reference count. The flattened term is the
/// post-order tree of the e-node over its children's flattened terms;
/// [`len`](Repr::len), equality and the `Display` text agree with it
/// without flattening.
#[derive(Clone)]
pub struct Repr(Arc<ReprNode>);

struct ReprNode {
    /// Length of the term (its AST size).
    len: usize,
    term: Term,
    /// The flattened term of a [`Term::Node`], filled on first use.
    flat: OnceLock<Arc<Expr>>,
}

enum Term {
    /// The chosen e-node and its children's representatives, in child
    /// order (the node's own child ids are ignored).
    Node(ArrayLang, Box<[Repr]>),
    /// A term restored from a snapshot, kept as it was parsed.
    Flat(Arc<Expr>),
}

impl Repr {
    fn node(enode: &ArrayLang, mut child: impl FnMut(Id) -> Repr) -> Self {
        let children: Box<[Repr]> = enode.children().iter().map(|&c| child(c)).collect();
        let len = 1 + children.iter().map(Repr::len).sum::<usize>();
        Repr::with(len, Term::Node(enode.clone(), children))
    }

    fn from_expr(expr: Expr) -> Self {
        Repr::with(expr.len(), Term::Flat(Arc::new(expr)))
    }

    fn with(len: usize, term: Term) -> Self {
        Repr(Arc::new(ReprNode {
            len,
            term,
            flat: OnceLock::new(),
        }))
    }

    /// Length of the term (its AST size), known without flattening.
    #[allow(clippy::len_without_is_empty)] // A term has at least its root.
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// The term as a flat [`Expr`], built on the first call and shared by
    /// every later one.
    pub fn expr(&self) -> &Arc<Expr> {
        match &self.0.term {
            Term::Flat(expr) => expr,
            Term::Node(..) => self.0.flat.get_or_init(|| {
                let mut expr = Expr::default();
                self.append_to(&mut expr);
                Arc::new(expr)
            }),
        }
    }

    fn append_to(&self, out: &mut Expr) -> Id {
        match &self.0.term {
            Term::Flat(expr) => out.append_subtree(expr, expr.root()),
            Term::Node(node, children) => {
                let mut children = children.iter();
                let node = node
                    .clone()
                    .map_children(|_| children.next().expect("one repr per child").append_to(out));
                out.add(node)
            }
        }
    }
}

/// Structural equality, without flattening unless one side was restored:
/// length, then pointer, then operator and children.
impl PartialEq for Repr {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (Arc::ptr_eq(&self.0, &other.0)
                || match (&self.0.term, &other.0.term) {
                    (Term::Node(a, ac), Term::Node(b, bc)) => a.matches(b) && ac == bc,
                    _ => self.expr() == other.expr(),
                })
    }
}

/// The term's s-expression, identical to its flattened [`Expr`]'s.
impl fmt::Display for Repr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0.term {
            Term::Flat(expr) => expr.fmt(f),
            Term::Node(node, children) if children.is_empty() => f.write_str(&node.display_op()),
            Term::Node(node, children) => {
                write!(f, "({}", node.display_op())?;
                for child in children.iter() {
                    write!(f, " {child}")?;
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Debug for Repr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Repr({self})")
    }
}

/// Analysis fact attached to every e-class (see module docs).
#[derive(Debug, Clone)]
pub struct ClassData {
    /// Optimistic free-variable set (intersection over members).
    pub free: VarSet,
    /// Smallest known representative term. Shared with the representatives
    /// of the classes it is built from, and read-only during search.
    pub repr: Repr,
    /// Exact free-variable set of `repr` (the fast path for downshifts).
    pub repr_free: VarSet,
    /// The extent when this class is a `Dim` leaf.
    pub dim: Option<usize>,
    /// The *leading array extent* of this class's value, when statically
    /// known (builds and vector/matrix-producing library calls). Used by
    /// the idiom rules' dimension guards: the untyped IR cannot rule out
    /// `0 = (build 5 (λ 0))[i]` in an 8-element context (the paper's SHIR
    /// carries index types instead), so appliers reject bindings whose
    /// extents disagree.
    pub extent: Option<usize>,
    /// The value when this class contains a float constant.
    pub constant: Option<Num>,
    /// True when some member is a De Bruijn variable (used by the intro
    /// rules to pick candidate `y` classes cheaply).
    pub has_var: bool,
}

/// The leading array extent of a node's value, given a resolver for `Dim`
/// children.
pub fn node_extent(
    node: &ArrayLang,
    dim_of: &mut dyn FnMut(liar_egraph::Id) -> Option<usize>,
) -> Option<usize> {
    use crate::LibFn;
    match node {
        ArrayLang::Build([n, _]) => dim_of(*n),
        ArrayLang::Call(f, args) => match f {
            // Vector- and matrix-producing calls: the leading extent is a
            // dim child.
            LibFn::Axpy
            | LibFn::Memset
            | LibFn::Gemv { .. }
            | LibFn::Gemm { .. }
            | LibFn::TMv
            | LibFn::TMm
            | LibFn::TFull => dim_of(args[0]),
            // transpose(n, m, A) produces an m×n result.
            LibFn::Transpose => dim_of(args[1]),
            // The polymorphic torch ops carry an element *count*, not a
            // leading extent (a lifted add over a 4×8 matrix is
            // `add(#32, …)`): no usable extent.
            LibFn::TAdd | LibFn::TMul => None,
            // Scalar results.
            LibFn::Dot | LibFn::TSum => None,
        },
        _ => None,
    }
}

/// The standard analysis for [`ArrayLang`] e-graphs.
///
/// Carries a downshift cache that lives for one search phase: shift
/// patterns ask for the same `(class, k)` downshift of an open class many
/// times while the e-graph is read-only, and each is computed once, on the
/// first ask, and shared as an `Arc` by every later match. Any add or union
/// clears it. It sits behind a `Mutex` because search reads the analysis
/// through a shared reference.
#[derive(Debug, Default)]
pub struct ArrayAnalysis {
    downshift_cache: Mutex<FxHashMap<(Id, u32), Downshifted>>,
}

/// A cached downshift: the shared term, or `None` when no member permits it.
type Downshifted = Option<Arc<Expr>>;

impl ArrayAnalysis {
    /// The downshift cache. Entries are inserted whole, so a worker that
    /// panicked while holding the lock left it valid.
    fn lock_cache(&self) -> MutexGuard<'_, FxHashMap<(Id, u32), Downshifted>> {
        self.downshift_cache.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Analysis<ArrayLang> for ArrayAnalysis {
    type Data = ClassData;

    fn make(egraph: &EGraph<ArrayLang, Self>, enode: &ArrayLang) -> ClassData {
        let free = debruijn::node_free_vars(enode, &mut |c| egraph.data(c).free);
        let repr_free =
            debruijn::node_free_vars(enode, &mut |c| egraph.data(c).repr_free);
        let repr = Repr::node(enode, |c| egraph.data(c).repr.clone());
        let extent = node_extent(enode, &mut |c| egraph.data(c).dim);
        ClassData {
            free,
            repr,
            repr_free,
            extent,
            dim: enode.as_dim(),
            constant: enode.as_const().map(Num::new),
            has_var: matches!(enode, ArrayLang::Var(_)),
        }
    }

    fn merge(&mut self, a: &mut ClassData, b: ClassData) -> DidMerge {
        let mut did = DidMerge(false, false);

        let free = a.free.intersect(b.free);
        did.0 |= free != a.free;
        did.1 |= free != b.free;
        a.free = free;

        if b.repr.len() < a.repr.len() {
            a.repr = b.repr;
            a.repr_free = b.repr_free;
            did.0 = true;
        } else if a.repr != b.repr {
            did.1 = true;
        }

        match (a.extent, b.extent) {
            (None, Some(e)) => {
                a.extent = Some(e);
                did.0 = true;
            }
            (Some(_), None) => did.1 = true,
            (Some(x), Some(y)) => {
                debug_assert_eq!(x, y, "merged classes with extents {x} != {y}")
            }
            (None, None) => {}
        }
        match (a.dim, b.dim) {
            (None, Some(d)) => {
                a.dim = Some(d);
                did.0 = true;
            }
            (Some(_), None) => did.1 = true,
            (Some(x), Some(y)) => debug_assert_eq!(x, y, "merged classes with extents {x} != {y}"),
            (None, None) => {}
        }
        match (a.constant, b.constant) {
            (None, Some(c)) => {
                a.constant = Some(c);
                did.0 = true;
            }
            (Some(_), None) => did.1 = true,
            _ => {}
        }
        if b.has_var && !a.has_var {
            a.has_var = true;
            did.0 = true;
        } else if a.has_var && !b.has_var {
            did.1 = true;
        }
        did
    }

    fn representative(egraph: &EGraph<ArrayLang, Self>, id: Id) -> Option<Arc<Expr>> {
        Some(Arc::clone(egraph.data(id).repr.expr()))
    }

    fn modify(egraph: &mut EGraph<ArrayLang, Self>, _id: Id) {
        // The e-graph changed: cached downshifts may be stale (a class
        // may now have a *better* member, and ids may have moved). The
        // `&mut` borrow means no search holds the lock.
        egraph
            .analysis
            .downshift_cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    fn downshift(egraph: &EGraph<ArrayLang, Self>, id: Id, k: u32) -> Option<Arc<Expr>> {
        let id = egraph.find(id);
        let data = egraph.data(id);
        // A shift by 0, or of a closed representative, changes nothing:
        // share the term itself.
        if k == 0 || data.repr_free.is_empty() {
            return Some(Arc::clone(data.repr.expr()));
        }
        if let Some(cached) = egraph.analysis.lock_cache().get(&(id, k)) {
            return cached.clone();
        }
        let down = if data.repr_free.none_below(k) {
            // Fast path: the stored representative already avoids the low
            // indices (the overwhelmingly common case).
            let down = debruijn::try_shift_down(data.repr.expr(), k);
            debug_assert!(down.is_some(), "repr_free out of sync with repr");
            down.map(Arc::new)
        } else {
            let mask = (1u64 << k) - 1;
            ShiftableFinder::new(egraph).find(id, mask).map(|found| {
                let down = debruijn::try_shift_down(&found, k);
                debug_assert!(down.is_some(), "finder returned non-shiftable term");
                Arc::new(down.expect("checked"))
            })
        };
        egraph.analysis.lock_cache().insert((id, k), down.clone());
        down
    }

    fn shift_up(expr: &Expr, k: u32) -> Option<Expr> {
        Some(debruijn::shift_up(expr, k))
    }
}

impl SnapshotAnalysis<ArrayLang> for ArrayAnalysis {
    // Facts are serialized, not recomputed: `ClassData::repr` tie-breaks
    // on merge arrival order, so recomputation could change which (equal)
    // representative extraction-based appliers see.
    fn write_data(data: &ClassData, w: &mut SnapshotWriter) {
        let (bits, high) = data.free.to_raw();
        w.write_u64(bits);
        w.write_bool(high);
        let (rbits, rhigh) = data.repr_free.to_raw();
        w.write_u64(rbits);
        w.write_bool(rhigh);
        w.write_str(&data.repr.to_string());
        w.write_opt_u64(data.dim.map(|d| d as u64));
        w.write_opt_u64(data.extent.map(|e| e as u64));
        w.write_opt_u64(data.constant.map(|c| c.get().to_bits()));
        w.write_bool(data.has_var);
    }

    fn read_data(r: &mut SnapshotReader<'_>) -> Result<ClassData, SnapshotError> {
        let free = VarSet::from_raw(r.read_u64()?, r.read_bool()?);
        let repr_free = VarSet::from_raw(r.read_u64()?, r.read_bool()?);
        let repr_text = r.read_str()?;
        let repr: Expr = repr_text
            .parse()
            .map_err(|e| r.corrupt(format!("representative does not parse: {e}")))?;
        let dim = r.read_opt_u64()?.map(|d| d as usize);
        let extent = r.read_opt_u64()?.map(|e| e as usize);
        let constant = match r.read_opt_u64()? {
            Some(bits) => {
                let value = f64::from_bits(bits);
                if value.is_nan() {
                    return Err(r.corrupt("NaN constant in analysis data"));
                }
                Some(Num::new(value))
            }
            None => None,
        };
        let has_var = r.read_bool()?;
        Ok(ClassData {
            free,
            repr: Repr::from_expr(repr),
            repr_free,
            dim,
            extent,
            constant,
            has_var,
        })
    }
}

/// Searches an e-class for a member term avoiding a set of De Bruijn
/// indices (given as a bitmask), preferring small terms.
///
/// This is the "downshift extractor" behind matching `A↑ᵏ` patterns: a
/// class matches `?a` shifted up by `k` exactly when it contains a term
/// with no free index `< k`.
struct ShiftableFinder<'a> {
    egraph: &'a EGraph<ArrayLang, ArrayAnalysis>,
    memo: FxHashMap<(Id, u64), Option<Arc<Expr>>>,
    visiting: Vec<(Id, u64)>,
}

impl<'a> ShiftableFinder<'a> {
    fn new(egraph: &'a EGraph<ArrayLang, ArrayAnalysis>) -> Self {
        ShiftableFinder {
            egraph,
            memo: FxHashMap::default(),
            visiting: Vec::new(),
        }
    }

    fn find(&mut self, class: Id, mask: u64) -> Option<Arc<Expr>> {
        let class = self.egraph.find(class);
        if mask == 0 {
            return Some(Arc::clone(self.egraph.data(class).repr.expr()));
        }
        // Sound early reject: a bit in the optimistic (intersection) set is
        // free in every member.
        if self.egraph.data(class).free.intersects_mask(mask) {
            return None;
        }
        let key = (class, mask);
        if let Some(cached) = self.memo.get(&key) {
            return cached.clone();
        }
        if self.visiting.contains(&key) {
            return None; // Break cycles; another member must provide it.
        }
        self.visiting.push(key);
        let mut best: Option<Arc<Expr>> = None;
        for node in &self.egraph[class].nodes {
            let candidate = self.node_term(node, mask);
            if let Some(c) = candidate {
                if best.as_ref().is_none_or(|b| c.len() < b.len()) {
                    best = Some(c);
                }
            }
        }
        self.visiting.pop();
        self.memo.insert(key, best.clone());
        best
    }

    fn node_term(&mut self, node: &ArrayLang, mask: u64) -> Option<Arc<Expr>> {
        match node {
            ArrayLang::Var(i) => {
                if *i < 64 && mask & (1 << i) != 0 {
                    return None;
                }
                let mut e = Expr::default();
                e.add(ArrayLang::Var(*i));
                Some(Arc::new(e))
            }
            ArrayLang::Lam(body) => {
                // Under a binder, forbidden index i becomes i+1; the new
                // index 0 is always allowed.
                let inner = self.find(*body, mask << 1)?;
                let mut e = Expr::default();
                let root = e.append_subtree(&inner, inner.root());
                e.add(ArrayLang::Lam(root));
                Some(Arc::new(e))
            }
            _ => {
                let mut children = Vec::with_capacity(node.children().len());
                for c in node.children() {
                    children.push(self.find(*c, mask)?);
                }
                let mut e = Expr::default();
                let mut i = 0;
                let node = node.clone().map_children(|_| {
                    let sub = &children[i];
                    i += 1;
                    e.append_subtree(sub, sub.root())
                });
                e.add(node);
                Some(Arc::new(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrayEGraph;

    fn e(s: &str) -> Expr {
        s.parse().unwrap()
    }

    #[test]
    fn repr_tracks_smallest_member() {
        let mut eg = ArrayEGraph::default();
        let big = eg.add_expr(&e("(+ (+ x 0) 0)"));
        let small = eg.add_expr(&e("x"));
        eg.union(big, small);
        eg.rebuild();
        assert_eq!(**eg.data(big).repr.expr(), e("x"));
    }

    #[test]
    fn parent_repr_shares_child_repr() {
        let mut eg = ArrayEGraph::default();
        let child = eg.add_expr(&e("(get xs %0)"));
        let parent = eg.add_expr(&e("(lam (+ (get xs %0) 1))"));
        let sum = eg.lookup_expr(&e("(+ (get xs %0) 1)")).unwrap();
        let Term::Node(_, children) = &eg.data(sum).repr.0.term else {
            panic!("made representatives are nodes")
        };
        assert!(Arc::ptr_eq(&children[0].0, &eg.data(child).repr.0));
        // Adding built no flat term; flattening the parent builds only its
        // own, with the length and text of the copied term.
        assert!(eg.classes().all(|c| c.data.repr.0.flat.get().is_none()));
        let repr = &eg.data(parent).repr;
        assert_eq!(**repr.expr(), e("(lam (+ (get xs %0) 1))"));
        assert_eq!(repr.len(), repr.expr().len());
        assert_eq!(repr.to_string(), repr.expr().to_string());
        assert!(eg.data(child).repr.0.flat.get().is_none());
        // Structural equality agrees with the flat term's, restored or not.
        assert_eq!(*repr, Repr::from_expr(e("(lam (+ (get xs %0) 1))")));
        assert_ne!(*repr, Repr::from_expr(e("(lam (+ (get xs %0) 2))")));
        assert_ne!(eg.data(sum).repr, eg.data(child).repr);
    }

    #[test]
    fn dim_and_constant_facts() {
        let mut eg = ArrayEGraph::default();
        let d = eg.add_expr(&e("#16"));
        let c = eg.add_expr(&e("2.5"));
        assert_eq!(eg.data(d).dim, Some(16));
        assert_eq!(eg.data(c).constant, Some(Num::new(2.5)));
        assert_eq!(eg.data(c).dim, None);
    }

    #[test]
    fn free_vars_propagate() {
        let mut eg = ArrayEGraph::default();
        let id = eg.add_expr(&e("(lam (+ %0 %2))"));
        assert_eq!(eg.data(id).free, VarSet::singleton(1));
        let closed = eg.add_expr(&e("(build #4 (lam (get xs %0)))"));
        assert!(eg.data(closed).free.is_empty());
    }

    #[test]
    fn downshift_open_class() {
        let mut eg = ArrayEGraph::default();
        let id = eg.add_expr(&e("(get xs %2)"));
        // All free indices are ≥ 2: downshift by 2 is possible, and gives
        // a shifted copy.
        let down = ArrayAnalysis::downshift(&eg, id, 2).unwrap();
        assert_eq!(*down, e("(get xs %0)"));
        assert!(!Arc::ptr_eq(&down, eg.data(id).repr.expr()));
        // …but downshift by 3 is not.
        assert_eq!(ArrayAnalysis::downshift(&eg, id, 3), None);
    }

    #[test]
    fn downshift_is_computed_once_per_search() {
        let mut eg = ArrayEGraph::default();
        // A parent keeps `(get xs %1)` the canonical id when it absorbs
        // `%1` below, so a stale cache entry would still be found.
        eg.add_expr(&e("(fst (get xs %1))"));
        let id = eg.lookup_expr(&e("(get xs %1)")).unwrap();
        // The fast path's shifted term is cached: a second match shares it.
        let first = ArrayAnalysis::downshift(&eg, id, 1).unwrap();
        assert_eq!(*first, e("(get xs %0)"));
        assert!(Arc::ptr_eq(&first, &ArrayAnalysis::downshift(&eg, id, 1).unwrap()));
        // A union gives the class a smaller open member; the next search
        // sees it, not the cached term.
        let var = eg.lookup_expr(&e("%1")).unwrap();
        eg.union(id, var);
        eg.rebuild();
        assert_eq!(eg.find(id), id);
        assert_eq!(*ArrayAnalysis::downshift(&eg, id, 1).unwrap(), e("%0"));
    }

    #[test]
    fn downshift_closed_class_shares_its_repr() {
        let mut eg = ArrayEGraph::default();
        let id = eg.add_expr(&e("(build #4 (lam (get xs %0)))"));
        for k in 0..4 {
            let down = ArrayAnalysis::downshift(&eg, id, k).unwrap();
            assert!(Arc::ptr_eq(&down, eg.data(id).repr.expr()), "k = {k}");
        }
    }

    #[test]
    fn downshift_uses_other_members() {
        let mut eg = ArrayEGraph::default();
        // Class contains both `(+ %0 junk)`-free `ys` and a member using %0.
        let a = eg.add_expr(&e("(get ys %0)"));
        let b = eg.add_expr(&e("zs"));
        eg.union(a, b);
        eg.rebuild();
        // %0 is free in one member but not the other: downshift by 1 finds
        // `zs`.
        let down = ArrayAnalysis::downshift(&eg, a, 1).unwrap();
        assert_eq!(*down, e("zs"));
    }

    #[test]
    fn downshift_descends_through_lambdas() {
        let mut eg = ArrayEGraph::default();
        // λ body where body uses %0 (bound) and %3 (free index 2).
        let id = eg.add_expr(&e("(lam (get %3 %0))"));
        let down = ArrayAnalysis::downshift(&eg, id, 2).unwrap();
        assert_eq!(*down, e("(lam (get %1 %0))"));
        assert_eq!(ArrayAnalysis::downshift(&eg, id, 3), None);
    }

    #[test]
    fn downshift_mixed_members_inside_node() {
        let mut eg = ArrayEGraph::default();
        // f(x) where x's class gains a %0-free member after a union.
        let x = eg.add_expr(&e("(get ys %0)"));
        let fx = eg.add(ArrayLang::Fst(x));
        assert_eq!(ArrayAnalysis::downshift(&eg, fx, 1), None);
        let zs = eg.add_expr(&e("zs"));
        eg.union(x, zs);
        eg.rebuild();
        let down = ArrayAnalysis::downshift(&eg, fx, 1).unwrap();
        assert_eq!(*down, e("(fst zs)"));
    }

    #[test]
    fn snapshot_round_trips_analysis_data() {
        let mut eg = ArrayEGraph::default();
        let big = eg.add_expr(&e("(+ (+ x 0) 0)"));
        let small = eg.add_expr(&e("x"));
        let dims = eg.add_expr(&e("(build #4 (lam 2.5))"));
        eg.union(big, small);
        eg.rebuild();
        let bytes = eg.snapshot().unwrap();
        let restored = ArrayEGraph::restore(ArrayAnalysis::default(), &bytes).unwrap();
        let (a, b) = (eg.find(big), restored.find(big));
        assert_eq!(a, b);
        assert_eq!(**restored.data(b).repr.expr(), e("x"));
        assert_eq!(restored.data(b).free, eg.data(a).free);
        assert_eq!(restored.data(dims).extent, Some(4));
        // Byte-determinism: re-snapshotting the restored graph is exact.
        assert_eq!(restored.snapshot().unwrap(), bytes);
    }

    #[test]
    fn representative_hook() {
        let mut eg = ArrayEGraph::default();
        let id = eg.add_expr(&e("(+ a b)"));
        let repr = ArrayAnalysis::representative(&eg, id).unwrap();
        assert_eq!(*repr, e("(+ a b)"));
        assert!(Arc::ptr_eq(&repr, eg.data(id).repr.expr()));
    }
}
