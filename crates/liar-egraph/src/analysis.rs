//! E-class analyses: semilattice facts attached to every e-class.

use std::sync::Arc;

use crate::{EGraph, Id, Language, RecExpr};

/// Result of merging two analysis values, reporting which side changed.
///
/// `DidMerge(a_changed, b_changed)`: the first flag is true when the merged
/// value differs from the left (surviving) input, the second when it differs
/// from the right input. The e-graph uses these flags to decide whose
/// parents need re-analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DidMerge(pub bool, pub bool);

impl std::ops::BitOr for DidMerge {
    type Output = DidMerge;

    fn bitor(self, rhs: DidMerge) -> DidMerge {
        DidMerge(self.0 | rhs.0, self.1 | rhs.1)
    }
}

/// An e-class analysis in the style of egg: each e-class carries a
/// [`Data`](Analysis::Data) value that is a join over its e-nodes, kept
/// consistent as classes merge.
///
/// Beyond the classic `make`/`merge` pair, this trait exposes three hooks
/// that LIAR's binder-aware pattern matching needs:
///
/// * [`representative`](Analysis::representative) — a small concrete term
///   for an e-class (used to apply substitution/shift operators to single
///   expressions extracted from classes, the paper's §IV.B.3).
/// * [`downshift`](Analysis::downshift) — find a term in the class whose
///   free De Bruijn indices are all `≥ k`, downshifted by `k`. Matching the
///   pattern `?x↑ᵏ` against class `c` binds `?x` to `downshift(c, k)`.
/// * [`shift_up`](Analysis::shift_up) — shift a term's free indices up by
///   `k` (used to instantiate `?x↑ᵏ` on a rule's right-hand side).
///
/// Languages without binders can ignore all three (the defaults make shift
/// patterns never match).
///
/// Search reads the e-graph through a shared reference, so an analysis
/// that caches during search (like LIAR's downshift cache) keeps its cache
/// behind interior mutability.
pub trait Analysis<L: Language>: Sized {
    /// The per-class analysis fact.
    type Data: std::fmt::Debug + Clone;

    /// Compute the fact for a freshly added e-node from its children's
    /// facts.
    fn make(egraph: &EGraph<L, Self>, enode: &L) -> Self::Data;

    /// Join `b` into `a`, reporting which side changed.
    fn merge(&mut self, a: &mut Self::Data, b: Self::Data) -> DidMerge;

    /// Hook run after a class is created or its data changes; may add nodes
    /// or unions (e.g. constant folding).
    fn modify(egraph: &mut EGraph<L, Self>, id: Id) {
        let _ = (egraph, id);
    }

    /// A small representative term of class `id`, if the analysis tracks
    /// one. Shared (`Arc`): callers read it and must not expect a private
    /// copy.
    fn representative(egraph: &EGraph<L, Self>, id: Id) -> Option<Arc<RecExpr<L>>> {
        let _ = (egraph, id);
        None
    }

    /// A term equal to class `id` with all free binder indices reduced by
    /// `k`, if one exists. `downshift(_, id, 0)` should behave like
    /// [`representative`](Analysis::representative). Shared (`Arc`): an
    /// analysis may hand out a term it keeps, e.g. the representative of a
    /// class with no free indices, which every shift leaves unchanged.
    fn downshift(egraph: &EGraph<L, Self>, id: Id, k: u32) -> Option<Arc<RecExpr<L>>> {
        let _ = (egraph, id, k);
        None
    }

    /// Shift the free binder indices of `expr` up by `k`.
    ///
    /// Returns `None` when the language has no binders (the default).
    fn shift_up(expr: &RecExpr<L>, k: u32) -> Option<RecExpr<L>> {
        let _ = (expr, k);
        None
    }
}

/// The trivial analysis: no facts.
impl<L: Language> Analysis<L> for () {
    type Data = ();

    fn make(_egraph: &EGraph<L, Self>, _enode: &L) -> Self::Data {}

    fn merge(&mut self, _a: &mut Self::Data, _b: Self::Data) -> DidMerge {
        DidMerge(false, false)
    }
}
