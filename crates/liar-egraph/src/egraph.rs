//! The e-graph data structure: hash-consed nodes, union-find classes,
//! deferred congruence-closure rebuilding.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::explain::{Explain, Explanation, Justification};
use crate::pattern::Subst;
use crate::unionfind::UnionFind;
use crate::{Analysis, FxHashMap, Id, Language, RecExpr};

/// An equivalence class of e-nodes.
#[derive(Debug, Clone)]
pub struct EClass<L, D> {
    /// The canonical id of this class (at the time of the last rebuild).
    pub id: Id,
    /// The e-nodes in this class, with canonicalized children after a
    /// rebuild.
    pub nodes: Vec<L>,
    /// The analysis fact for this class.
    pub data: D,
    /// Back-pointers: every (parent node, parent class) that has this class
    /// as a child. Used by rebuilding and analysis propagation.
    pub(crate) parents: Vec<(L, Id)>,
}

impl<L: Language, D> EClass<L, D> {
    /// Iterate over the e-nodes in this class.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &L> {
        self.nodes.iter()
    }

    /// Number of e-nodes in this class.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the class has no nodes (cannot happen for classes created
    /// through [`EGraph::add`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Running totals of e-graph growth: e-nodes created by
/// [`add`](EGraph::add) (hash-cons hits create nothing), e-classes merged
/// away by changed unions, and e-nodes retired by
/// [`rebuild`](EGraph::rebuild)'s deduplication (spellings that became
/// equal under congruence). Every fresh e-node also creates its class, so
/// the totals tie back to the graph's size
/// ([`assert_invariants`](EGraph::assert_invariants) checks both):
///
/// ```text
/// num_nodes   == nodes_created − nodes_retired
/// num_classes == nodes_created − classes_merged
/// ```
///
/// The runner reads them around each rule's apply to charge growth to
/// that rule ([`Iteration::grown`](crate::Iteration::grown)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Growth {
    /// E-nodes (and with them e-classes) created.
    pub nodes_created: usize,
    /// E-classes merged away by unions that changed the graph.
    pub classes_merged: usize,
    /// E-nodes retired by rebuild deduplication.
    pub nodes_retired: usize,
}

/// An e-graph parameterized over a [`Language`] and an [`Analysis`].
///
/// Mirrors the design of egg: additions hash-cons into `memo`, unions are
/// recorded in a union-find and invalidate congruence, and an explicit
/// [`rebuild`](EGraph::rebuild) restores the invariants in a batch
/// (deferred rebuilding is what makes batched equality saturation fast).
pub struct EGraph<L: Language, A: Analysis<L>> {
    /// The analysis instance (may carry configuration).
    pub analysis: A,
    unionfind: UnionFind,
    /// The hash-cons table. Its keys carry symbol names from requests, so
    /// it keeps std's keyed hasher; the id-keyed tables below use
    /// [`FxHashMap`].
    memo: HashMap<L, Id>,
    classes: FxHashMap<Id, EClass<L, A::Data>>,
    /// The operator index: [`Language::op_key`] → ascending ids of the
    /// classes containing at least one e-node with that operator. Kept
    /// incrementally by [`add`](EGraph::add) and recomputed wholesale at
    /// the end of every [`rebuild`](EGraph::rebuild); exact whenever the
    /// e-graph is clean. Compiled patterns use it to visit only the
    /// classes whose members can possibly match their root operator.
    classes_by_op: FxHashMap<u64, Vec<Id>>,
    /// Completed [`rebuild`](EGraph::rebuild)s (see
    /// [`rebuilds`](EGraph::rebuilds)).
    rebuilds: u64,
    /// Parent nodes whose children were just unioned and need
    /// re-canonicalization.
    pending: Vec<(L, Id)>,
    /// Nodes whose analysis data may be stale.
    analysis_pending: Vec<(L, Id)>,
    clean: bool,
    /// The explanation forest, when proof production is enabled (see
    /// [`with_explanations_enabled`](EGraph::with_explanations_enabled)).
    /// `None` is the default fast path: it pays nothing.
    explain: Option<Explain<L>>,
    /// The rule currently applying (name + substitution): unions performed
    /// while this is set are justified by that rule in the explanation
    /// forest. Set by [`Rewrite::apply`](crate::Rewrite::apply).
    rule_context: Option<(Arc<str>, Arc<Subst<L>>)>,
    /// Running growth totals (see [`growth`](EGraph::growth)).
    growth: Growth,
}

impl<L: Language, A: Analysis<L> + Default> Default for EGraph<L, A> {
    fn default() -> Self {
        Self::new(A::default())
    }
}

impl<L: Language, A: Analysis<L>> fmt::Debug for EGraph<L, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EGraph")
            .field("classes", &self.classes.len())
            .field("nodes", &self.memo.len())
            .field("ids", &self.unionfind.len())
            .field("clean", &self.clean)
            .finish()
    }
}

impl<L: Language, A: Analysis<L>> EGraph<L, A> {
    /// Create an empty e-graph with the given analysis.
    pub fn new(analysis: A) -> Self {
        EGraph {
            analysis,
            unionfind: UnionFind::default(),
            memo: HashMap::new(),
            classes: FxHashMap::default(),
            classes_by_op: FxHashMap::default(),
            rebuilds: 0,
            pending: Vec::new(),
            analysis_pending: Vec::new(),
            clean: true,
            explain: None,
            rule_context: None,
            growth: Growth::default(),
        }
    }

    /// Enable proof production: every union is recorded in an explanation
    /// forest, and [`explain_equivalence`](EGraph::explain_equivalence)
    /// can later produce a replayable [`Explanation`] for any pair of
    /// equal terms.
    ///
    /// Must be called on an **empty** e-graph (every id needs a
    /// provenance record). With explanations enabled, [`add`](EGraph::add)
    /// returns *precise* ids — an id that denotes exactly the node that was
    /// added, which may not be the canonical class id; call
    /// [`find`](EGraph::find) when canonicality matters.
    ///
    /// # Panics
    ///
    /// Panics if the e-graph already contains nodes.
    pub fn with_explanations_enabled(mut self) -> Self {
        assert!(
            self.is_empty(),
            "explanations must be enabled before any node is added"
        );
        self.explain = Some(Explain::default());
        self
    }

    /// True when this e-graph records explanations.
    pub fn are_explanations_enabled(&self) -> bool {
        self.explain.is_some()
    }

    /// Set (or clear) the rule context: while set, every union is
    /// justified by the named rule in the explanation forest. The
    /// saturation engine calls this around each rule application; custom
    /// drivers performing explained unions should do the same. No-op
    /// semantics-wise when explanations are disabled.
    pub fn set_rule_context(&mut self, context: Option<(Arc<str>, Arc<Subst<L>>)>) {
        self.rule_context = context;
    }

    /// The growth totals since this graph was created (see [`Growth`]).
    pub fn growth(&self) -> Growth {
        self.growth
    }

    /// The e-classes (ascending id) containing at least one e-node whose
    /// [`Language::op_key`] equals `key` — the e-matching VM's entry point
    /// for operator-rooted patterns.
    ///
    /// Exact on a clean e-graph (including classes freshly created by
    /// [`add`](EGraph::add)); may contain stale ids while unions are
    /// pending, so index-driven searchers fall back to a full scan when
    /// [`is_clean`](EGraph::is_clean) is false.
    pub fn classes_with_op(&self, key: u64) -> &[Id] {
        self.classes_by_op.get(&key).map_or(&[], |ids| ids.as_slice())
    }

    /// How many times [`rebuild`](EGraph::rebuild) has run on this graph
    /// (a restored graph counts from zero). On a clean e-graph every change
    /// bumps either this count (unions need a rebuild) or
    /// [`num_classes`](EGraph::num_classes) (adds), so the pair identifies
    /// the graph's state: searchers key per-state memos on it.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The hash-cons memo (for snapshot serialization). With explanations
    /// enabled the stored ids are *precise* creation ids; otherwise they
    /// are canonical as of the last rebuild.
    pub(crate) fn snapshot_memo(&self) -> &HashMap<L, Id> {
        &self.memo
    }

    /// The class table (for snapshot serialization).
    pub(crate) fn snapshot_classes(&self) -> &FxHashMap<Id, EClass<L, A::Data>> {
        &self.classes
    }

    /// The union-find (for snapshot serialization).
    pub(crate) fn snapshot_unionfind(&self) -> &UnionFind {
        &self.unionfind
    }

    /// The explanation forest, when enabled (for snapshot serialization).
    pub(crate) fn snapshot_explain(&self) -> Option<&Explain<L>> {
        self.explain.as_ref()
    }

    /// Assemble an e-graph from snapshot-restored parts. The caller
    /// (snapshot restore) has validated that `classes` keys are canonical
    /// in `unionfind` and that every child id is in range; this
    /// constructor recomputes the operator index exactly the way
    /// [`rebuild`](EGraph::rebuild) does (ascending-id iteration keeps
    /// buckets sorted) and marks the graph clean.
    pub(crate) fn from_snapshot_parts(
        analysis: A,
        unionfind: UnionFind,
        memo: HashMap<L, Id>,
        classes: FxHashMap<Id, EClass<L, A::Data>>,
        explain: Option<Explain<L>>,
    ) -> Self {
        let mut classes_by_op: FxHashMap<u64, Vec<Id>> = FxHashMap::default();
        let mut ids: Vec<Id> = classes.keys().copied().collect();
        ids.sort();
        for id in ids {
            for node in &classes[&id].nodes {
                let bucket = classes_by_op.entry(node.op_key()).or_default();
                if bucket.last() != Some(&id) {
                    bucket.push(id);
                }
            }
        }
        // Snapshots carry no history: the restored graph counts as if its
        // nodes were just added and merged into its classes, so the
        // growth identities hold from the start.
        let nodes_created = classes.values().map(|c| c.nodes.len()).sum::<usize>();
        let growth = Growth {
            nodes_created,
            classes_merged: nodes_created.saturating_sub(classes.len()),
            nodes_retired: 0,
        };
        EGraph {
            analysis,
            unionfind,
            memo,
            classes,
            classes_by_op,
            rebuilds: 0,
            pending: Vec::new(),
            analysis_pending: Vec::new(),
            clean: true,
            explain,
            rule_context: None,
            growth,
        }
    }

    /// Number of e-classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of distinct e-nodes (exact after a rebuild).
    pub fn num_nodes(&self) -> usize {
        self.classes.values().map(|c| c.nodes.len()).sum()
    }

    /// Entries in the hash-cons memo — a growth gauge for observability
    /// (tracks allocation pressure; can exceed [`num_nodes`](EGraph::num_nodes)
    /// between rebuilds while stale keys await congruence repair).
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// True when congruence and analysis invariants hold (no unions since
    /// the last [`rebuild`](EGraph::rebuild)).
    pub fn is_clean(&self) -> bool {
        self.clean
    }

    /// True when nothing has ever been added.
    pub fn is_empty(&self) -> bool {
        self.unionfind.is_empty()
    }

    /// Canonicalize an e-class id.
    pub fn find(&self, id: Id) -> Id {
        self.unionfind.find(id)
    }

    /// Canonicalize an e-class id with path compression.
    pub fn find_mut(&mut self, id: Id) -> Id {
        self.unionfind.find_mut(id)
    }

    /// Iterate over the e-classes (unspecified order).
    pub fn classes(&self) -> impl Iterator<Item = &EClass<L, A::Data>> {
        self.classes.values()
    }

    /// The e-classes sorted by id — use this wherever determinism matters
    /// (searchers, reports).
    pub fn classes_sorted(&self) -> Vec<&EClass<L, A::Data>> {
        let mut cs: Vec<_> = self.classes.values().collect();
        cs.sort_by_key(|c| c.id);
        cs
    }

    /// Ids of all e-classes, sorted.
    pub fn class_ids(&self) -> Vec<Id> {
        let mut ids: Vec<_> = self.classes.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Access a class by (possibly stale) id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never issued by this e-graph.
    pub fn class(&self, id: Id) -> &EClass<L, A::Data> {
        let id = self.find(id);
        self.classes
            .get(&id)
            .unwrap_or_else(|| panic!("no class for id {id}"))
    }

    /// The analysis fact of a class.
    pub fn data(&self, id: Id) -> &A::Data {
        &self.class(id).data
    }

    fn canonicalize(&self, node: L) -> L {
        node.map_children(|c| self.find(c))
    }

    /// Look up the e-class of an e-node without adding it.
    pub fn lookup(&self, node: L) -> Option<Id> {
        let node = self.canonicalize(node);
        self.memo.get(&node).map(|&id| self.find(id))
    }

    /// Look up the e-class of a whole expression without adding it.
    pub fn lookup_expr(&self, expr: &RecExpr<L>) -> Option<Id> {
        let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
        for node in expr.nodes() {
            let node = node.clone().map_children(|c| ids[c.index()]);
            ids.push(self.lookup(node)?);
        }
        ids.last().copied()
    }

    /// Add an e-node (children must be valid ids), returning its class.
    ///
    /// With explanations enabled the returned id is *precise* — it denotes
    /// exactly the node that was added (possibly a fresh non-canonical id
    /// linked to the existing class by a congruence edge); call
    /// [`find`](EGraph::find) when the canonical id is needed.
    pub fn add(&mut self, node: L) -> Id {
        if self.explain.is_some() {
            return self.add_explained(node);
        }
        let node = self.canonicalize(node);
        if let Some(&existing) = self.memo.get(&node) {
            return self.find(existing);
        }
        let id = self.unionfind.make_set();
        let data = A::make(self, &node);
        for child in node.children() {
            let child = self.find(*child);
            self.classes
                .get_mut(&child)
                .expect("child class must exist")
                .parents
                .push((node.clone(), id));
        }
        self.classes.insert(
            id,
            EClass {
                id,
                nodes: vec![node.clone()],
                data,
                parents: Vec::new(),
            },
        );
        // Fresh ids are issued monotonically, so pushing keeps every
        // index bucket sorted ascending.
        self.classes_by_op.entry(node.op_key()).or_default().push(id);
        self.memo.insert(node, id);
        self.growth.nodes_created += 1;
        A::modify(self, id);
        self.find_mut(id)
    }

    /// [`add`](EGraph::add) with provenance: the forest records the
    /// *original* (uncanonicalized) spelling behind every id, and a node
    /// that hash-conses onto an existing class still gets a fresh id for
    /// its exact spelling, linked by a congruence edge — which is what
    /// keeps rule edges' endpoints exact terms.
    fn add_explained(&mut self, original: L) -> Id {
        let cnode = self.canonicalize(original.clone());
        if let Some(&existing) = self.memo.get(&cnode) {
            let explain = self.explain.as_ref().expect("explanations enabled");
            if let Some(id) = explain.uncanon(&original) {
                return id;
            }
            // Congruent spelling of an existing class: issue a precise id
            // for it. No class is created (the canonical class already has
            // the canonical node), so congruence invariants are untouched
            // and `clean` stays as-is.
            let canonical = self.unionfind.find(existing);
            let new_id = self.unionfind.make_set();
            let explain = self.explain.as_mut().expect("explanations enabled");
            explain.add_node(new_id, original.clone());
            explain.union(new_id, existing, Justification::Congruence, true);
            explain.record_uncanon(original, new_id);
            self.unionfind.union_roots(canonical, new_id);
            return new_id;
        }
        let id = self.unionfind.make_set();
        {
            let explain = self.explain.as_mut().expect("explanations enabled");
            explain.add_node(id, original.clone());
            explain.record_uncanon(original, id);
        }
        let data = A::make(self, &cnode);
        for child in cnode.children() {
            let child = self.find(*child);
            self.classes
                .get_mut(&child)
                .expect("child class must exist")
                .parents
                .push((cnode.clone(), id));
        }
        self.classes.insert(
            id,
            EClass {
                id,
                nodes: vec![cnode.clone()],
                data,
                parents: Vec::new(),
            },
        );
        self.classes_by_op.entry(cnode.op_key()).or_default().push(id);
        self.memo.insert(cnode, id);
        // The congruent-spelling path above creates no class and no node
        // (only a precise id), so only this fresh path counts one.
        self.growth.nodes_created += 1;
        A::modify(self, id);
        id
    }

    /// Add every node of `expr`, returning the root's class.
    ///
    /// # Panics
    ///
    /// Panics if `expr` is empty.
    pub fn add_expr(&mut self, expr: &RecExpr<L>) -> Id {
        assert!(!expr.is_empty(), "cannot add an empty expression");
        let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
        for node in expr.nodes() {
            let node = node.clone().map_children(|c| ids[c.index()]);
            ids.push(self.add(node));
        }
        *ids.last().unwrap()
    }

    /// Union two e-classes, returning the canonical id and whether anything
    /// changed. Invalidates congruence until the next
    /// [`rebuild`](EGraph::rebuild).
    ///
    /// With explanations enabled, the union is recorded in the forest: it
    /// is justified by the active [rule context](EGraph::set_rule_context)
    /// when one is set, and as a [`Justification::Direct`] assertion
    /// otherwise (direct assertions fail
    /// [`Explanation::check`] — derive unions through rules when proofs
    /// matter). The forest edge connects the *given* ids `a` and `b`, so
    /// explained callers should pass the precise ids of the two terms the
    /// union equates.
    pub fn union(&mut self, a: Id, b: Id) -> (Id, bool) {
        self.union_justified(a, b, false)
    }

    /// [`union`](EGraph::union) with an explicit congruence marker (used
    /// by [`rebuild`](EGraph::rebuild)'s repair loop).
    fn union_justified(&mut self, a0: Id, b0: Id, congruence: bool) -> (Id, bool) {
        let a = self.find_mut(a0);
        let b = self.find_mut(b0);
        if a == b {
            return (a, false);
        }
        if let Some(explain) = &mut self.explain {
            let justification = if congruence {
                Justification::Congruence
            } else if let Some((name, subst)) = &self.rule_context {
                Justification::Rule {
                    name: Arc::clone(name),
                    subst: Arc::clone(subst),
                }
            } else {
                Justification::Direct
            };
            explain.union(a0, b0, justification, true);
        }
        self.growth.classes_merged += 1;
        self.clean = false;
        // Keep the class with more members as the winner to move less data.
        let (winner, loser) = {
            let ca = &self.classes[&a];
            let cb = &self.classes[&b];
            if ca.nodes.len() + ca.parents.len() >= cb.nodes.len() + cb.parents.len() {
                (a, b)
            } else {
                (b, a)
            }
        };
        self.unionfind.union_roots(winner, loser);
        let loser_class = self.classes.remove(&loser).expect("loser class exists");

        // Parents of the loser now refer to a stale id; they must be
        // re-canonicalized and re-hashed.
        self.pending.extend(loser_class.parents.iter().cloned());

        let did = {
            let winner_class = self.classes.get_mut(&winner).expect("winner class exists");
            let did = self.analysis.merge(&mut winner_class.data, loser_class.data);
            winner_class.nodes.extend(loser_class.nodes);
            if did.0 {
                // The winner's own fact changed: its pre-existing parents
                // must be re-analyzed.
                self.analysis_pending
                    .extend(winner_class.parents.iter().cloned());
            }
            if did.1 {
                self.analysis_pending
                    .extend(loser_class.parents.iter().cloned());
            }
            let winner_class = self.classes.get_mut(&winner).expect("winner class exists");
            winner_class.parents.extend(loser_class.parents);
            did
        };
        let _ = did;
        A::modify(self, winner);
        (winner, true)
    }

    /// Restore congruence and analysis invariants after unions.
    ///
    /// Returns the number of unions performed during the repair.
    pub fn rebuild(&mut self) -> usize {
        let mut n_unions = 0;
        while !self.pending.is_empty() || !self.analysis_pending.is_empty() {
            while let Some((node, enode_id)) = self.pending.pop() {
                let node = self.canonicalize(node);
                let class = self.find_mut(enode_id);
                // With explanations on, memo values stay *precise* creation
                // ids (find() canonicalizes on read), so future congruence
                // edges connect exact terms.
                let memo_id = if self.explain.is_some() { enode_id } else { class };
                if let Some(old) = self.memo.insert(node.clone(), memo_id) {
                    let (_, changed) = self.union_justified(old, enode_id, true);
                    if changed {
                        n_unions += 1;
                    }
                }
                self.analysis_pending.push((node, class));
            }
            while let Some((node, class)) = self.analysis_pending.pop() {
                let class = self.find_mut(class);
                let node = self.canonicalize(node);
                let data = A::make(self, &node);
                let cdata = &mut self.classes.get_mut(&class).expect("class exists").data;
                let did = self.analysis.merge(cdata, data);
                if did.0 {
                    let parents = self.classes[&class].parents.clone();
                    self.analysis_pending.extend(parents);
                    A::modify(self, class);
                }
            }
        }
        self.rebuild_classes();
        self.rebuilds += 1;
        self.clean = true;
        n_unions
    }

    /// Canonicalize and deduplicate every class's node list, and prune
    /// stale memo entries. Called at the end of [`rebuild`](EGraph::rebuild)
    /// so that [`num_nodes`](EGraph::num_nodes) counts *unique* e-nodes, the
    /// quantity the paper reports.
    fn rebuild_classes(&mut self) {
        let explain_off = self.explain.is_none();
        let uf = &self.unionfind;
        let mut retired = 0usize;
        for class in self.classes.values_mut() {
            for node in &mut class.nodes {
                for c in node.children_mut() {
                    *c = uf.find(*c);
                }
            }
            let before = class.nodes.len();
            class.nodes.sort();
            class.nodes.dedup();
            // The only place e-nodes ever disappear: spellings that became
            // equal under congruence collapse here. The growth identity
            // (created − retired == num_nodes) depends on it.
            retired += before - class.nodes.len();

            for (pnode, pclass) in &mut class.parents {
                for c in pnode.children_mut() {
                    *c = uf.find(*c);
                }
                // With explanations on, parent entries keep the parent
                // e-node's *creation* id — the precise term a future
                // congruence edge must connect — at the cost of fewer
                // dedup hits below. The fast path canonicalizes as before.
                if explain_off {
                    *pclass = uf.find(*pclass);
                }
            }
            class.parents.sort();
            class.parents.dedup();
        }
        self.growth.nodes_retired += retired;
        // Drop memo entries whose key is no longer canonical.
        let stale: Vec<L> = self
            .memo
            .keys()
            .filter(|n| n.children().iter().any(|c| !uf.is_canonical(*c)))
            .cloned()
            .collect();
        for key in stale {
            let id = self.memo.remove(&key).expect("key present");
            let node = key.map_children(|c| uf.find(c));
            // Keep the precise creation id under explanations (find() on
            // read canonicalizes); canonicalize eagerly on the fast path.
            let id = if explain_off { uf.find(id) } else { id };
            self.memo.entry(node).or_insert(id);
        }

        // Recompute the operator index from the (now canonical) classes.
        // Iterating classes in ascending-id order keeps every bucket
        // sorted, which index-driven searchers rely on for determinism.
        self.classes_by_op.clear();
        let mut ids: Vec<Id> = self.classes.keys().copied().collect();
        ids.sort();
        for id in ids {
            for node in &self.classes[&id].nodes {
                let bucket = self.classes_by_op.entry(node.op_key()).or_default();
                if bucket.last() != Some(&id) {
                    bucket.push(id);
                }
            }
        }
        // Post-rebuild staleness guard: every indexed id must be canonical
        // and every bucket strictly sorted (ascending-id iteration plus the
        // `last()` dedup above guarantee this *only* because `ids` was
        // sorted — this assert keeps that load-bearing detail honest).
        debug_assert!(
            self.classes_by_op.values().all(|bucket| {
                bucket.windows(2).all(|w| w[0] < w[1])
                    && bucket.iter().all(|id| self.unionfind.is_canonical(*id))
            }),
            "operator index holds stale or unsorted ids after rebuild"
        );
    }

    /// Produce a replayable proof that `a` and `b` are equal terms: a
    /// chain of [`ProofStep`](crate::ProofStep)s rewriting `a` into `b`,
    /// each justified by a named rule at an explicit position (see
    /// [`crate::explain`]). Validate it with
    /// [`Explanation::check`].
    ///
    /// Takes `&mut self` because the two terms are (re-)added to obtain
    /// precise ids; this never changes any e-class.
    ///
    /// # Panics
    ///
    /// Panics when explanations are disabled or the terms are not in the
    /// same e-class — use
    /// [`try_explain_equivalence`](EGraph::try_explain_equivalence) for an
    /// `Option` instead.
    pub fn explain_equivalence(&mut self, a: &RecExpr<L>, b: &RecExpr<L>) -> Explanation<L> {
        self.try_explain_equivalence(a, b)
            .expect("explain_equivalence: explanations disabled or terms not equivalent")
    }

    /// [`explain_equivalence`](EGraph::explain_equivalence), returning
    /// `None` when explanations are disabled, either term is absent, or
    /// the terms are not in the same e-class.
    pub fn try_explain_equivalence(
        &mut self,
        a: &RecExpr<L>,
        b: &RecExpr<L>,
    ) -> Option<Explanation<L>> {
        self.explain.as_ref()?;
        // Probe without mutating: both terms must already be (semantically)
        // present and equal.
        let (ca, cb) = (self.lookup_expr(a)?, self.lookup_expr(b)?);
        if ca != cb {
            return None;
        }
        // Re-adding yields the precise ids denoting exactly these
        // spellings (pure bookkeeping: no class changes).
        let ia = self.add_expr(a);
        let ib = self.add_expr(b);
        Some(self.explain.as_ref().expect("checked above").explain(ia, ib))
    }

    /// Check internal invariants (used by tests; O(nodes)).
    ///
    /// # Panics
    ///
    /// Panics if a congruence, hash-cons or [`Growth`] invariant is
    /// violated. Only call on a clean (rebuilt) e-graph.
    pub fn assert_invariants(&self) {
        assert!(self.clean, "assert_invariants requires a rebuilt egraph");
        let g = self.growth;
        assert_eq!(
            g.nodes_created,
            self.num_nodes() + g.nodes_retired,
            "growth {g:?}: created ≠ live + retired nodes"
        );
        assert_eq!(
            g.nodes_created,
            self.num_classes() + g.classes_merged,
            "growth {g:?}: created ≠ live + merged classes"
        );
        for (id, class) in &self.classes {
            assert_eq!(*id, self.find(*id), "class key {id} not canonical");
            assert_eq!(class.id, *id, "class id field mismatch");
            for node in &class.nodes {
                let canon = self.canonicalize(node.clone());
                assert_eq!(&canon, node, "node {node:?} in class {id} not canonical");
                let memo_id = self
                    .memo
                    .get(&canon)
                    .unwrap_or_else(|| panic!("node {node:?} missing from memo"));
                assert_eq!(
                    self.find(*memo_id),
                    *id,
                    "memo maps {node:?} to wrong class"
                );
            }
        }
        for (node, id) in &self.memo {
            let canon = self.canonicalize(node.clone());
            assert_eq!(&canon, node, "memo key {node:?} not canonical");
            let id = self.find(*id);
            assert!(
                self.classes[&id].nodes.contains(node),
                "memo entry {node:?} not in class {id}"
            );
        }
        // Operator-index soundness: every (class, node) pair is reachable
        // through the node's op key, and every indexed id is canonical,
        // sorted and justified by some member node.
        for (id, class) in &self.classes {
            for node in &class.nodes {
                assert!(
                    self.classes_with_op(node.op_key()).contains(id),
                    "class {id} missing from op index for {node:?}"
                );
            }
        }
        for (key, ids) in &self.classes_by_op {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "index bucket unsorted");
            for id in ids {
                assert!(self.unionfind.is_canonical(*id), "stale id {id} in op index");
                assert!(
                    self.classes[id].nodes.iter().any(|n| n.op_key() == *key),
                    "class {id} indexed under {key} without a matching node"
                );
            }
        }
    }
}

impl<L: Language, A: Analysis<L>> std::ops::Index<Id> for EGraph<L, A> {
    type Output = EClass<L, A::Data>;

    fn index(&self, id: Id) -> &Self::Output {
        self.class(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolLang;

    type EG = EGraph<SymbolLang, ()>;

    fn leaf(name: &str) -> SymbolLang {
        SymbolLang::leaf(name)
    }

    #[test]
    fn hashconsing_dedupes() {
        let mut eg = EG::default();
        let a1 = eg.add(leaf("a"));
        let a2 = eg.add(leaf("a"));
        assert_eq!(a1, a2);
        assert_eq!(eg.num_classes(), 1);
        assert_eq!(eg.num_nodes(), 1);
    }

    #[test]
    fn union_merges_classes() {
        let mut eg = EG::default();
        let a = eg.add(leaf("a"));
        let b = eg.add(leaf("b"));
        assert_ne!(eg.find(a), eg.find(b));
        let (_, changed) = eg.union(a, b);
        assert!(changed);
        eg.rebuild();
        assert_eq!(eg.find(a), eg.find(b));
        assert_eq!(eg.num_classes(), 1);
        assert_eq!(eg.num_nodes(), 2);
        eg.assert_invariants();
    }

    #[test]
    fn growth_totals_follow_adds_merges_and_retirements() {
        // g(f(a)), g(f(b)): one direct union triggers two congruence
        // merges and retires the duplicated f/g spellings.
        let mut eg = EG::default();
        let a = eg.add(leaf("a"));
        let b = eg.add(leaf("b"));
        let fa = eg.add(SymbolLang::new("f", vec![a]));
        let fb = eg.add(SymbolLang::new("f", vec![b]));
        eg.add(SymbolLang::new("g", vec![fa]));
        eg.add(SymbolLang::new("g", vec![fb]));
        // A hash-cons hit creates nothing.
        eg.add(SymbolLang::new("f", vec![a]));
        eg.union(a, b);
        assert_eq!(eg.rebuild(), 2);
        let expected = Growth {
            nodes_created: 6,
            classes_merged: 3,
            nodes_retired: 2,
        };
        assert_eq!(eg.growth(), expected);
        eg.assert_invariants();
    }

    #[test]
    fn explained_congruent_spellings_create_no_nodes() {
        // With explanations on, a spelling congruent to an existing node
        // gets a precise id of its own but no node and no class.
        let mut eg = EG::default().with_explanations_enabled();
        let a = eg.add(leaf("a"));
        let b = eg.add(leaf("b"));
        let fa = eg.add(SymbolLang::new("f", vec![a]));
        eg.union(a, b);
        eg.rebuild();
        let before = eg.growth();
        assert_eq!(before.nodes_created, 3);
        let fb = eg.add(SymbolLang::new("f", vec![b]));
        assert_ne!(fb, fa, "a precise id for the new spelling");
        assert_eq!(eg.find(fb), eg.find(fa));
        assert_eq!(eg.growth(), before);
        eg.assert_invariants();
    }

    #[test]
    fn congruence_closure_via_rebuild() {
        // f(a), f(b): unioning a and b must union f(a) and f(b).
        let mut eg = EG::default();
        let a = eg.add(leaf("a"));
        let b = eg.add(leaf("b"));
        let fa = eg.add(SymbolLang::new("f", vec![a]));
        let fb = eg.add(SymbolLang::new("f", vec![b]));
        assert_ne!(eg.find(fa), eg.find(fb));
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(eg.find(fa), eg.find(fb));
        eg.assert_invariants();
    }

    #[test]
    fn congruence_cascades() {
        // g(f(a)), g(f(b)): one union, two levels of congruence.
        let mut eg = EG::default();
        let a = eg.add(leaf("a"));
        let b = eg.add(leaf("b"));
        let fa = eg.add(SymbolLang::new("f", vec![a]));
        let fb = eg.add(SymbolLang::new("f", vec![b]));
        let gfa = eg.add(SymbolLang::new("g", vec![fa]));
        let gfb = eg.add(SymbolLang::new("g", vec![fb]));
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(eg.find(gfa), eg.find(gfb));
        eg.assert_invariants();
    }

    #[test]
    fn add_expr_and_lookup_expr() {
        let mut eg = EG::default();
        let expr = "(f (g a) b)".parse().unwrap();
        let id = eg.add_expr(&expr);
        assert_eq!(eg.lookup_expr(&expr), Some(eg.find(id)));
        let missing = "(h a)".parse().unwrap();
        assert_eq!(eg.lookup_expr(&missing), None);
    }

    #[test]
    fn self_union_is_noop() {
        let mut eg = EG::default();
        let a = eg.add(leaf("a"));
        let (_, changed) = eg.union(a, a);
        assert!(!changed);
        assert!(eg.is_clean());
    }

    #[test]
    fn num_nodes_counts_unique_nodes_after_rebuild() {
        let mut eg = EG::default();
        let a = eg.add(leaf("a"));
        let b = eg.add(leaf("b"));
        let fa = eg.add(SymbolLang::new("f", vec![a]));
        let fb = eg.add(SymbolLang::new("f", vec![b]));
        eg.union(a, b);
        eg.union(fa, fb);
        eg.rebuild();
        // f(a) and f(b) are now the same node; a and b remain distinct
        // nodes in one class.
        assert_eq!(eg.num_nodes(), 3);
        eg.assert_invariants();
    }

    #[test]
    fn operator_index_is_canonical_after_cascaded_merges() {
        // Regression guard for a latent staleness hazard: the op-index
        // rebuild happened to produce sorted, canonical buckets only
        // because classes are visited in ascending-id order. Merge chains
        // where high-id classes win structurally (congruence picks
        // winners by union-find rank, not id) used to leave that property
        // to luck; now `rebuild_classes` asserts it. Exercise it with
        // several same-operator classes collapsing across a rebuild.
        let mut eg = EG::default();
        let mut fs = Vec::new();
        for name in ["a", "b", "c", "d", "e"] {
            let x = eg.add(leaf(name));
            fs.push(eg.add(SymbolLang::new("f", vec![x])));
            eg.add(SymbolLang::new("g", vec![x]));
        }
        eg.rebuild();
        // Collapse f(e) into f(a) and f(d) into f(b) in one batch: the
        // losers' ids must vanish from every bucket.
        eg.union(fs[0], fs[4]);
        eg.union(fs[1], fs[3]);
        eg.rebuild();
        let f_key = SymbolLang::new("f", vec![fs[0]]).op_key();
        let bucket = eg.classes_with_op(f_key);
        assert!(
            bucket.windows(2).all(|w| w[0] < w[1]),
            "f bucket unsorted or duplicated: {bucket:?}"
        );
        for &id in bucket {
            assert_eq!(eg.find(id), id, "stale id {id} in f bucket");
        }
        assert_eq!(bucket.len(), 3, "5 f-classes minus 2 merges");
        eg.assert_invariants();
    }
}
