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
/// without flattening. A snapshot writes representatives as a table with
/// one entry per shared node, so a restored graph shares them as the
/// original did.
#[derive(Clone)]
pub struct Repr(Arc<ReprNode>);

struct ReprNode {
    /// Length of the term (its AST size).
    len: usize,
    /// The chosen e-node; its own child ids are ignored.
    node: ArrayLang,
    /// The children's representatives, in child order.
    children: Box<[Repr]>,
    /// The flattened term, filled on first use.
    flat: OnceLock<Arc<Expr>>,
}

impl Repr {
    fn node(enode: &ArrayLang, mut child: impl FnMut(Id) -> Repr) -> Self {
        Repr::over(enode, enode.children().iter().map(|&c| child(c)).collect())
    }

    /// The term of `enode` over `children`, its children's terms in child
    /// order.
    fn over(enode: &ArrayLang, children: Box<[Repr]>) -> Self {
        let len = 1 + children.iter().map(Repr::len).sum::<usize>();
        Repr::with(len, enode.clone(), children)
    }

    fn with(len: usize, node: ArrayLang, children: Box<[Repr]>) -> Self {
        Repr(Arc::new(ReprNode {
            len,
            node,
            children,
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
        self.0.flat.get_or_init(|| {
            let mut expr = Expr::default();
            self.append_to(&mut expr);
            Arc::new(expr)
        })
    }

    fn append_to(&self, out: &mut Expr) -> Id {
        let mut children = self.0.children.iter();
        let node = self
            .0
            .node
            .clone()
            .map_children(|_| children.next().expect("one repr per child").append_to(out));
        out.add(node)
    }

    /// This term's index in a snapshot's representative table. Nodes not
    /// in `table` yet get the next indices, children first, and are
    /// pushed onto `fresh` in that order.
    fn table_index<'a>(&'a self, table: &mut ReprIndex, fresh: &mut Vec<&'a Repr>) -> u32 {
        if let Some(&index) = table.get(&self.key()) {
            return index;
        }
        for child in self.0.children.iter() {
            child.table_index(table, fresh);
        }
        let index = table.len() as u32;
        table.insert(self.key(), index);
        fresh.push(self);
        index
    }

    /// The address of the shared node: one table entry per allocation.
    fn key(&self) -> *const () {
        Arc::as_ptr(&self.0).cast()
    }

    /// Read one table entry: its operator, arity and the indices of the
    /// earlier entries that are its children.
    fn read_entry(table: &[Repr], r: &mut SnapshotReader<'_>) -> Result<Repr, SnapshotError> {
        let op = r.read_str()?;
        let arity = r.read_u32()? as usize;
        // A corrupt arity fails at the first missing index; reserve little.
        let mut ids = Vec::with_capacity(arity.min(16));
        let mut children = Vec::with_capacity(arity.min(16));
        let mut len: usize = 1;
        for _ in 0..arity {
            let index = r.read_u32()? as usize;
            let child = table.get(index).ok_or_else(|| {
                r.corrupt(format!(
                    "representative child {index} is not one of the {} earlier entries",
                    table.len()
                ))
            })?;
            len = len
                .checked_add(child.len())
                .ok_or_else(|| r.corrupt("representative length overflows"))?;
            ids.push(Id::from_index(index));
            children.push(child.clone());
        }
        // The node's child ids are the table indices; like a made node's
        // class ids, nothing reads them.
        let node = ArrayLang::from_op(&op, ids)
            .map_err(|e| r.corrupt(format!("bad representative operator: {e}")))?;
        Ok(Repr::with(len, node, children.into_boxed_slice()))
    }
}

/// A snapshot's representative table while it is written: the index of
/// every node written so far, keyed by [`Repr::key`]. The e-graph keeps
/// every node alive while it writes, so no address is reused.
type ReprIndex = FxHashMap<*const (), u32>;

/// Structural equality, without flattening: length, then pointer, then
/// operator and children.
impl PartialEq for Repr {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (Arc::ptr_eq(&self.0, &other.0)
                || (self.0.node.matches(&other.0.node) && self.0.children == other.0.children))
    }
}

/// The term's s-expression, identical to its flattened [`Expr`]'s.
impl fmt::Display for Repr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ReprNode { node, children, .. } = &*self.0;
        if children.is_empty() {
            return f.write_str(&node.display_op());
        }
        write!(f, "({}", node.display_op())?;
        for child in children.iter() {
            write!(f, " {child}")?;
        }
        f.write_str(")")
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
                let down = debruijn::try_shift_down(found.expr(), k);
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
    /// The index of every representative node written so far.
    type WriteState = ReprIndex;
    /// Every representative node read so far, in table order.
    type ReadState = Vec<Repr>;

    // Facts are serialized, not recomputed: `ClassData::repr` tie-breaks
    // on merge arrival order, so recomputation could change which (equal)
    // representative extraction-based appliers see. Representatives share
    // one table per snapshot: a class writes the count and the entries of
    // the nodes no earlier class wrote, children first, then the index of
    // its own.
    fn write_data(table: &mut ReprIndex, data: &ClassData, w: &mut SnapshotWriter) {
        let (bits, high) = data.free.to_raw();
        w.write_u64(bits);
        w.write_bool(high);
        let (rbits, rhigh) = data.repr_free.to_raw();
        w.write_u64(rbits);
        w.write_bool(rhigh);
        let mut fresh = Vec::new();
        let root = data.repr.table_index(table, &mut fresh);
        w.write_u32(fresh.len() as u32);
        for repr in fresh {
            w.write_str(&repr.0.node.display_op());
            w.write_u32(repr.0.children.len() as u32);
            for child in repr.0.children.iter() {
                w.write_u32(table[&child.key()]);
            }
        }
        w.write_u32(root);
        w.write_opt_u64(data.dim.map(|d| d as u64));
        w.write_opt_u64(data.extent.map(|e| e as u64));
        w.write_opt_u64(data.constant.map(|c| c.get().to_bits()));
    }

    fn read_data(
        table: &mut Vec<Repr>,
        r: &mut SnapshotReader<'_>,
    ) -> Result<ClassData, SnapshotError> {
        let free = VarSet::from_raw(r.read_u64()?, r.read_bool()?);
        let repr_free = VarSet::from_raw(r.read_u64()?, r.read_bool()?);
        let fresh = r.read_u32()?;
        for _ in 0..fresh {
            let entry = Repr::read_entry(table, r)?;
            table.push(entry);
        }
        let root = r.read_u32()? as usize;
        let repr = table.get(root).cloned().ok_or_else(|| {
            r.corrupt(format!(
                "representative {root} is past the table's {} entries",
                table.len()
            ))
        })?;
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
        Ok(ClassData {
            free,
            repr,
            repr_free,
            dim,
            extent,
            constant,
        })
    }
}

/// Searches an e-class for a member term avoiding a set of De Bruijn
/// indices (given as a bitmask), preferring small terms.
///
/// This is the "downshift extractor" behind matching `A↑ᵏ` patterns: a
/// class matches `?a` shifted up by `k` exactly when it contains a term
/// with no free index `< k`. Each candidate is a shared [`Repr`] node over
/// its children's terms, so trying a member costs O(arity); the caller
/// flattens only the winner.
struct ShiftableFinder<'a> {
    egraph: &'a EGraph<ArrayLang, ArrayAnalysis>,
    memo: FxHashMap<(Id, u64), Option<Repr>>,
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

    fn find(&mut self, class: Id, mask: u64) -> Option<Repr> {
        let class = self.egraph.find(class);
        if mask == 0 {
            return Some(self.egraph.data(class).repr.clone());
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
        let mut best: Option<Repr> = None;
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

    fn node_term(&mut self, node: &ArrayLang, mask: u64) -> Option<Repr> {
        let child_mask = match node {
            ArrayLang::Var(i) if *i < 64 && mask & (1 << i) != 0 => return None,
            // Under a binder, forbidden index i becomes i+1; the new index
            // 0 is always allowed.
            ArrayLang::Lam(_) => mask << 1,
            _ => mask,
        };
        let children = node
            .children()
            .iter()
            .map(|&c| self.find(c, child_mask))
            .collect::<Option<_>>()?;
        Some(Repr::over(node, children))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrayEGraph;

    fn e(s: &str) -> Expr {
        s.parse().unwrap()
    }

    /// The representative of `s` in an e-graph of its own.
    fn repr_of(s: &str) -> Repr {
        let mut eg = ArrayEGraph::default();
        let id = eg.add_expr(&e(s));
        eg.data(id).repr.clone()
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
        let children = &eg.data(sum).repr.0.children;
        assert!(Arc::ptr_eq(&children[0].0, &eg.data(child).repr.0));
        // Adding built no flat term; flattening the parent builds only its
        // own, with the length and text of the copied term.
        assert!(eg.classes().all(|c| c.data.repr.0.flat.get().is_none()));
        let repr = &eg.data(parent).repr;
        assert_eq!(**repr.expr(), e("(lam (+ (get xs %0) 1))"));
        assert_eq!(repr.len(), repr.expr().len());
        assert_eq!(repr.to_string(), repr.expr().to_string());
        assert!(eg.data(child).repr.0.flat.get().is_none());
        // Structural equality agrees with the flat term's, shared or not.
        assert_eq!(*repr, repr_of("(lam (+ (get xs %0) 1))"));
        assert_ne!(*repr, repr_of("(lam (+ (get xs %0) 2))"));
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
    fn downshift_finds_the_smallest_member_below_a_cycle() {
        // A = {(fst B)} and B = {(get ys %0), (snd A), two closed sums}:
        // the finder reaches B from A, breaks the cycle back through
        // (snd A), and keeps the smaller closed sum.
        let mut eg = ArrayEGraph::default();
        let b = eg.add_expr(&e("(get ys %0)"));
        let a = eg.add(ArrayLang::Fst(b));
        let snd_a = eg.add(ArrayLang::Snd(a));
        let small = eg.add_expr(&e("(+ (+ zs 1) 2)"));
        let large = eg.add_expr(&e("(+ (+ (+ zs 1) 2) 3)"));
        for member in [snd_a, large, small] {
            eg.union(b, member);
        }
        eg.rebuild();
        // Both representatives are open, so the finder runs.
        assert_eq!(eg.data(a).repr.to_string(), "(fst (get ys %0))");
        let down = ArrayAnalysis::downshift(&eg, a, 1).unwrap();
        assert_eq!(*down, e("(fst (+ (+ zs 1) 2))"));
        let down = ArrayAnalysis::downshift(&eg, b, 2).unwrap();
        assert_eq!(*down, e("(+ (+ zs 1) 2)"));
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
        // The restored representatives share their children as the
        // original ones do.
        let body = restored.lookup_expr(&e("2.5")).unwrap();
        let lam = restored.lookup_expr(&e("(lam 2.5)")).unwrap();
        let shared = &restored.data(lam).repr.0.children[0];
        assert!(Arc::ptr_eq(&shared.0, &restored.data(body).repr.0));
        assert_eq!(restored.data(dims).repr, eg.data(dims).repr);
        assert_eq!(restored.data(dims).repr.len(), 4);
        // Byte-determinism: re-snapshotting the restored graph is exact.
        assert_eq!(restored.snapshot().unwrap(), bytes);
    }

    /// One class's analysis bytes around a hand-written representative
    /// table: empty variable sets, the `entries` (operator and child
    /// indices), the root index, and no dim, extent or constant.
    fn class_bytes(entries: &[(&str, Vec<u32>)], root: u32) -> Vec<u8> {
        let mut w = SnapshotWriter::default();
        for _ in 0..2 {
            w.write_u64(0);
            w.write_bool(false);
        }
        w.write_u32(entries.len() as u32);
        for (op, children) in entries {
            w.write_str(op);
            w.write_u32(children.len() as u32);
            for &c in children {
                w.write_u32(c);
            }
        }
        w.write_u32(root);
        for _ in 0..3 {
            w.write_opt_u64(None);
        }
        w.into_bytes()
    }

    fn read_class(bytes: &[u8]) -> Result<ClassData, SnapshotError> {
        ArrayAnalysis::read_data(&mut Vec::new(), &mut SnapshotReader::new(bytes))
    }

    /// Checksummed bytes can still carry a hostile table (a valid checksum
    /// protects nothing against a file written with one): each must be a
    /// structured error.
    fn assert_corrupt(entries: &[(&str, Vec<u32>)], root: u32, what: &str) {
        match read_class(&class_bytes(entries, root)) {
            Err(SnapshotError::Corrupt { .. }) => {}
            Err(e) => panic!("{what}: expected Corrupt, got {e:?}"),
            // Not the term itself: a hostile one can be exponentially long.
            Ok(data) => panic!(
                "{what}: read a representative of length {}",
                data.repr.len()
            ),
        }
    }

    #[test]
    fn hand_written_table_reads_back() {
        let data = read_class(&class_bytes(&[("x", vec![]), ("+", vec![0, 0])], 1)).unwrap();
        assert_eq!(data.repr.to_string(), "(+ x x)");
        assert_eq!(data.repr.len(), 3);
        let children = &data.repr.0.children;
        assert!(Arc::ptr_eq(&children[0].0, &children[1].0));
    }

    #[test]
    fn hostile_table_child_not_an_earlier_entry() {
        assert_corrupt(&[("x", vec![]), ("+", vec![0, 1])], 1, "self reference");
        assert_corrupt(&[("x", vec![]), ("+", vec![0, 7])], 1, "forward reference");
        assert_corrupt(&[("fst", vec![u32::MAX])], 0, "index u32::MAX");
    }

    #[test]
    fn hostile_table_root_past_the_end() {
        assert_corrupt(&[("x", vec![])], 1, "root one past the end");
        assert_corrupt(&[], 0, "root of an empty table");
    }

    #[test]
    fn hostile_table_lengths_overflow() {
        // Entry k is `(+ e e)` over entry k-1, so its length is 2^(k+1)-1:
        // the last, entry `usize::BITS`, passes `usize::MAX`.
        let mut entries = vec![("x", vec![])];
        for k in 0..usize::BITS {
            entries.push(("+", vec![k, k]));
        }
        let root = entries.len() as u32 - 1;
        assert_corrupt(&entries, root, "length overflow");
    }

    #[test]
    fn hostile_table_operator_from_op_rejects() {
        assert_corrupt(
            &[("x", vec![]), ("frobnicate", vec![0])],
            1,
            "unknown operator",
        );
        assert_corrupt(&[("x", vec![]), ("+", vec![0])], 1, "wrong arity");
        assert_corrupt(&[("NaN", vec![])], 0, "NaN constant");
        assert_corrupt(&[("#x", vec![])], 0, "bad extent");
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
