//! Rule-level growth attribution: which rule created which e-nodes and
//! merged which e-classes.
//!
//! The [`Attribution`] ledger is the "why did the e-graph grow" counterpart
//! of the explanation forest's "why are these terms equal". It is gated the
//! same way ([`EGraph::with_attribution_enabled`](crate::EGraph::with_attribution_enabled));
//! the default `None` path pays one branch per recording site, which the
//! trace bench's ≤ 2% disabled-overhead gate covers.
//!
//! Every class creation, e-node add and class merge is charged to an
//! *origin*:
//!
//! * the name of the rule currently applying (set by
//!   [`Rewrite::apply`](crate::Rewrite::apply) around each rule's batch);
//! * [`Attribution::INIT`] for adds outside any rule (the initial
//!   expression, analysis-driven adds during setup);
//! * [`Attribution::CONGRUENCE`] for merges performed by
//!   [`rebuild`](crate::EGraph::rebuild)'s congruence repair;
//! * [`Attribution::DIRECT`] for merges asserted outside any rule.
//!
//! The ledger is **conservative** — its counts sum exactly to the
//! e-graph's totals ([`Attribution::check`]):
//!
//! ```text
//! num_classes == Σ classes_created − Σ classes_merged
//! num_nodes   == Σ nodes_created   − nodes_retired
//! ```
//!
//! The first identity holds because classes are only inserted by `add`
//! (charged) and only removed by a changed union (charged to the merging
//! origin). The second holds because class node lists only grow at `add`
//! (one node, charged) and at a union (the loser's nodes move to the
//! winner — no change in total), and only shrink in `rebuild`'s
//! deduplication pass, which retires nodes whose spellings became equal
//! under congruence ([`Attribution::nodes_retired`]). Every recording site
//! runs in the apply and rebuild phases and none feeds back into them, so
//! attributed runs stay bit-identical to unattributed ones
//! (`tests/trace_determinism.rs` is the wall).

use std::collections::HashMap;
use std::sync::Arc;

/// Growth charged to one origin (a rule name or a builtin origin).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OriginCounters {
    /// E-nodes this origin added (fresh spellings only; hash-cons hits
    /// create nothing and charge nothing).
    pub nodes_created: u64,
    /// E-classes this origin created (one per fresh e-node add).
    pub classes_created: u64,
    /// E-classes this origin merged away (changed unions only).
    pub classes_merged: u64,
}

/// The growth-attribution ledger of one e-graph. See the
/// [module docs](self) for the charging rules and the conservation
/// invariant.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    counters: HashMap<Arc<str>, OriginCounters>,
    origin: Option<Arc<str>>,
    nodes_retired: u64,
}

impl Attribution {
    /// Origin charged for adds performed outside any rule application
    /// (the initial expression, direct `add` calls).
    pub const INIT: &'static str = "(init)";
    /// Origin charged for merges performed by congruence repair during
    /// [`rebuild`](crate::EGraph::rebuild).
    pub const CONGRUENCE: &'static str = "(congruence)";
    /// Origin charged for unions asserted outside any rule application.
    pub const DIRECT: &'static str = "(direct)";

    /// Set (or clear) the charging origin. The saturation engine calls
    /// this around each rule's application batch.
    pub fn set_origin(&mut self, origin: Option<Arc<str>>) {
        self.origin = origin;
    }

    fn charge(&mut self, origin: &str) -> &mut OriginCounters {
        // Single-lookup fast path: the Borrow<str> impl of Arc<str> lets
        // get_mut avoid an allocation on the hot repeat case.
        if self.counters.contains_key(origin) {
            return self.counters.get_mut(origin).expect("just checked");
        }
        self.counters.entry(Arc::from(origin)).or_default()
    }

    /// Charge one fresh e-node (and the class created for it) to the
    /// current origin, or to [`INIT`](Attribution::INIT) outside a rule.
    pub(crate) fn record_add(&mut self) {
        let origin = self.origin.clone();
        let c = self.charge(origin.as_deref().unwrap_or(Self::INIT));
        c.nodes_created += 1;
        c.classes_created += 1;
    }

    /// Charge one changed union (one class merged away): to
    /// [`CONGRUENCE`](Attribution::CONGRUENCE) when `congruence` is set,
    /// else to the current origin, else to
    /// [`DIRECT`](Attribution::DIRECT).
    pub(crate) fn record_merge(&mut self, congruence: bool) {
        if congruence {
            self.charge(Self::CONGRUENCE).classes_merged += 1;
        } else if let Some(origin) = self.origin.clone() {
            self.charge(&origin).classes_merged += 1;
        } else {
            self.charge(Self::DIRECT).classes_merged += 1;
        }
    }

    /// Record `n` e-nodes retired by rebuild's deduplication pass
    /// (spellings that became equal under congruence).
    pub(crate) fn record_retired(&mut self, n: usize) {
        self.nodes_retired += n as u64;
    }

    /// E-nodes retired by rebuild deduplication since the ledger started.
    pub fn nodes_retired(&self) -> u64 {
        self.nodes_retired
    }

    /// The per-origin counters, sorted by origin name (deterministic).
    pub fn rows(&self) -> Vec<(Arc<str>, OriginCounters)> {
        let mut rows: Vec<_> = self
            .counters
            .iter()
            .map(|(k, v)| (Arc::clone(k), *v))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// The counters charged to one origin (zero if it never charged).
    pub fn origin(&self, name: &str) -> OriginCounters {
        self.counters.get(name).copied().unwrap_or_default()
    }

    /// Sum of [`OriginCounters::nodes_created`] over all origins.
    pub fn total_nodes_created(&self) -> u64 {
        self.counters.values().map(|c| c.nodes_created).sum()
    }

    /// Sum of [`OriginCounters::classes_created`] over all origins.
    pub fn total_classes_created(&self) -> u64 {
        self.counters.values().map(|c| c.classes_created).sum()
    }

    /// Sum of [`OriginCounters::classes_merged`] over all origins.
    pub fn total_classes_merged(&self) -> u64 {
        self.counters.values().map(|c| c.classes_merged).sum()
    }

    /// Verify the conservation invariant against the e-graph's observed
    /// totals (`num_nodes`, `num_classes`).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the identity that failed.
    pub fn check(&self, num_nodes: usize, num_classes: usize) -> Result<(), String> {
        let classes = self.total_classes_created() as i128 - self.total_classes_merged() as i128;
        if classes != num_classes as i128 {
            return Err(format!(
                "class conservation violated: {} created − {} merged = {} ≠ {} classes",
                self.total_classes_created(),
                self.total_classes_merged(),
                classes,
                num_classes
            ));
        }
        let nodes = self.total_nodes_created() as i128 - self.nodes_retired as i128;
        if nodes != num_nodes as i128 {
            return Err(format!(
                "node conservation violated: {} created − {} retired = {} ≠ {} nodes",
                self.total_nodes_created(),
                self.nodes_retired,
                nodes,
                num_nodes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_rule_origin_and_builtins() {
        let mut a = Attribution::default();
        a.record_add(); // no origin → (init)
        a.set_origin(Some(Arc::from("my-rule")));
        a.record_add();
        a.record_merge(false); // rule merge
        a.record_merge(true); // congruence repair mid-rule still charges (congruence)
        a.set_origin(None);
        a.record_merge(false); // direct
        a.record_retired(3);

        assert_eq!(a.origin(Attribution::INIT).nodes_created, 1);
        assert_eq!(a.origin("my-rule").nodes_created, 1);
        assert_eq!(a.origin("my-rule").classes_merged, 1);
        assert_eq!(a.origin(Attribution::CONGRUENCE).classes_merged, 1);
        assert_eq!(a.origin(Attribution::DIRECT).classes_merged, 1);
        assert_eq!(a.nodes_retired(), 3);
        assert_eq!(a.total_nodes_created(), 2);
        assert_eq!(a.total_classes_created(), 2);
        assert_eq!(a.total_classes_merged(), 3);
    }

    #[test]
    fn rows_are_sorted_and_conservation_checks() {
        let mut a = Attribution::default();
        a.set_origin(Some(Arc::from("zeta")));
        a.record_add();
        a.set_origin(Some(Arc::from("alpha")));
        a.record_add();
        let names: Vec<_> = a.rows().iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        // 2 created − 0 merged classes, 2 created − 0 retired nodes.
        a.check(2, 2).expect("conserves");
        assert!(a.check(2, 1).is_err(), "wrong class total must fail");
        assert!(a.check(1, 2).is_err(), "wrong node total must fail");
    }
}
