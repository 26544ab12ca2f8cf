//! Growth introspection: who built the e-graph, and what is it made of.
//!
//! An [`InspectReport`] is the pipeline's answer to "where did all these
//! e-nodes come from?". It folds two deterministic data sources into one
//! set of tables:
//!
//! - the **per-rule funnel** — candidates scheduled → substitutions
//!   found → applications that changed the graph, summed from the
//!   runner's per-step [`Iteration::searched`](liar_egraph::Iteration)
//!   / `applied` columns — joined with the e-graph's
//!   [`Attribution`](liar_egraph::Attribution) ledger (e-nodes and
//!   e-classes created, classes merged, per originating rule);
//! - the **composition by operator** — for every operator spelling in
//!   the final graph, how many e-nodes carry it and how many e-classes
//!   contain at least one such node.
//!
//! The report also re-states the attribution **conservation invariant**
//! ([`InspectReport::check`]): per-rule creations minus retirements and
//! merges must reproduce the final graph's node and class totals
//! *exactly*.

use std::collections::BTreeMap;

use liar_egraph::{Analysis, Language, Runner};

/// One row of the per-rule growth funnel. Builtin origins
/// ([`Attribution::INIT`](liar_egraph::Attribution::INIT),
/// [`CONGRUENCE`](liar_egraph::Attribution::CONGRUENCE),
/// [`DIRECT`](liar_egraph::Attribution::DIRECT)) appear as rows with an
/// empty search funnel (they never search).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleRow {
    /// Rule name, or a parenthesized builtin origin.
    pub name: String,
    /// Candidate e-classes scheduled for matching, summed over steps.
    pub candidates: u64,
    /// Substitutions the search phase produced (post-limit, pre-apply).
    pub matches: u64,
    /// Applications that changed the e-graph.
    pub applied: u64,
    /// E-nodes this origin added (hash-cons hits charge nothing).
    pub nodes_created: u64,
    /// E-classes this origin created.
    pub classes_created: u64,
    /// Merges of two previously-distinct classes this origin caused.
    pub classes_merged: u64,
}

/// One row of the composition-by-operator table.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRow {
    /// The operator's display spelling ([`Language::display_op`]).
    pub op: String,
    /// E-nodes in the final graph carrying this operator.
    pub nodes: u64,
    /// E-classes containing at least one such node.
    pub classes: u64,
}

/// The introspection tables for one saturation — see the [module
/// docs](self). Built by [`InspectReport::from_runner`] after a run whose
/// e-graph had attribution enabled
/// ([`Liar::with_attribution`](crate::Liar::with_attribution)).
#[derive(Debug, Clone, PartialEq)]
pub struct InspectReport {
    /// The growth funnel, heaviest creators first (nodes created desc,
    /// then applications desc, then name) — a deterministic order.
    pub rules: Vec<RuleRow>,
    /// Final-graph composition, largest operators first (nodes desc,
    /// then name).
    pub ops: Vec<OpRow>,
    /// E-nodes in the final e-graph.
    pub n_nodes: usize,
    /// E-classes in the final e-graph.
    pub n_classes: usize,
    /// E-nodes retired by rebuild deduplication over the whole run.
    pub nodes_retired: u64,
    /// Saturation steps that ran.
    pub steps: usize,
}

impl InspectReport {
    /// Fold a saturated runner's iteration log and its e-graph's
    /// attribution ledger into the introspection tables.
    ///
    /// The funnel columns come from the runner's per-step records and are
    /// present even when attribution is disabled; the growth columns
    /// (`nodes_created` …) and the conservation identities need the
    /// ledger, so without it they are zero and [`check`](Self::check)
    /// reports the mismatch. Callers gate on
    /// [`EGraph::is_attribution_enabled`](liar_egraph::EGraph::is_attribution_enabled).
    pub fn from_runner<L: Language, A: Analysis<L>>(runner: &Runner<L, A>) -> InspectReport {
        let mut rows: BTreeMap<String, RuleRow> = BTreeMap::new();
        for iter in &runner.iterations {
            for (i, (name, applied)) in iter.applied.iter().enumerate() {
                let (candidates, matches) = iter.searched.get(i).copied().unwrap_or((0, 0));
                let row = rows.entry(name.clone()).or_insert_with(|| RuleRow {
                    name: name.clone(),
                    ..RuleRow::default()
                });
                row.candidates += candidates as u64;
                row.matches += matches as u64;
                row.applied += *applied as u64;
            }
        }

        let mut nodes_retired = 0;
        if let Some(attr) = runner.egraph.attribution() {
            nodes_retired = attr.nodes_retired();
            for (origin, counters) in attr.rows() {
                let row = rows.entry(origin.to_string()).or_insert_with(|| RuleRow {
                    name: origin.to_string(),
                    ..RuleRow::default()
                });
                row.nodes_created = counters.nodes_created;
                row.classes_created = counters.classes_created;
                row.classes_merged = counters.classes_merged;
            }
        }

        let mut rules: Vec<RuleRow> = rows.into_values().collect();
        rules.sort_by(|a, b| {
            b.nodes_created
                .cmp(&a.nodes_created)
                .then(b.applied.cmp(&a.applied))
                .then(a.name.cmp(&b.name))
        });

        let mut ops: BTreeMap<String, OpRow> = BTreeMap::new();
        for class in runner.egraph.classes() {
            let mut in_class: Vec<String> = Vec::new();
            for node in &class.nodes {
                let op = node.display_op();
                ops.entry(op.clone())
                    .or_insert_with(|| OpRow {
                        op: op.clone(),
                        nodes: 0,
                        classes: 0,
                    })
                    .nodes += 1;
                if !in_class.contains(&op) {
                    in_class.push(op);
                }
            }
            for op in in_class {
                ops.get_mut(&op).expect("op row just inserted").classes += 1;
            }
        }
        let mut ops: Vec<OpRow> = ops.into_values().collect();
        ops.sort_by(|a, b| b.nodes.cmp(&a.nodes).then(a.op.cmp(&b.op)));

        let report = InspectReport {
            rules,
            ops,
            n_nodes: runner.egraph.num_nodes(),
            n_classes: runner.egraph.num_classes(),
            nodes_retired,
            steps: runner.iterations.len(),
        };
        debug_assert!(
            runner.egraph.attribution().is_none() || report.check().is_ok(),
            "attribution conservation violated: {:?}",
            report.check()
        );
        report
    }

    /// Verify the conservation invariant from the report's own numbers:
    ///
    /// - `n_nodes + nodes_retired == Σ nodes_created`
    /// - `n_classes + Σ classes_merged == Σ classes_created`
    ///
    /// Every e-node and e-class in the final graph is charged to exactly
    /// one origin; nothing appears or disappears unaccounted.
    pub fn check(&self) -> Result<(), String> {
        let nodes_created: u64 = self.rules.iter().map(|r| r.nodes_created).sum();
        let classes_created: u64 = self.rules.iter().map(|r| r.classes_created).sum();
        let classes_merged: u64 = self.rules.iter().map(|r| r.classes_merged).sum();
        if self.n_nodes as u64 + self.nodes_retired != nodes_created {
            return Err(format!(
                "node conservation violated: {} live + {} retired != {} created",
                self.n_nodes, self.nodes_retired, nodes_created
            ));
        }
        if self.n_classes as u64 + classes_merged != classes_created {
            return Err(format!(
                "class conservation violated: {} live + {} merged != {} created",
                self.n_classes, classes_merged, classes_created
            ));
        }
        Ok(())
    }

    /// The funnel row for `name`, if present.
    pub fn rule(&self, name: &str) -> Option<&RuleRow> {
        self.rules.iter().find(|r| r.name == name)
    }

    /// The composition row for operator spelling `op`, if present.
    pub fn op(&self, op: &str) -> Option<&OpRow> {
        self.ops.iter().find(|r| r.op == op)
    }

    /// Total e-nodes created across all origins.
    pub fn total_nodes_created(&self) -> u64 {
        self.rules.iter().map(|r| r.nodes_created).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, nodes_created: u64, classes_created: u64, classes_merged: u64) -> RuleRow {
        RuleRow {
            name: name.to_string(),
            nodes_created,
            classes_created,
            classes_merged,
            ..RuleRow::default()
        }
    }

    #[test]
    fn check_accepts_conserved_and_rejects_drift() {
        let mut report = InspectReport {
            rules: vec![row("(init)", 6, 6, 0), row("comm-add", 1, 1, 2)],
            ops: Vec::new(),
            n_nodes: 5,
            n_classes: 5,
            nodes_retired: 2,
            steps: 1,
        };
        report.check().expect("6+1 created = 5 live + 2 retired; 7 classes = 5 live + 2 merged");
        report.nodes_retired = 3;
        assert!(report.check().unwrap_err().contains("node conservation"));
        report.nodes_retired = 2;
        report.n_classes = 4;
        assert!(report.check().unwrap_err().contains("class conservation"));
    }

    #[test]
    fn lookup_helpers_find_rows() {
        let report = InspectReport {
            rules: vec![row("comm-add", 1, 1, 0)],
            ops: vec![OpRow {
                op: "+".to_string(),
                nodes: 3,
                classes: 2,
            }],
            n_nodes: 1,
            n_classes: 1,
            nodes_retired: 0,
            steps: 0,
        };
        assert_eq!(report.rule("comm-add").unwrap().nodes_created, 1);
        assert!(report.rule("nope").is_none());
        assert_eq!(report.op("+").unwrap().classes, 2);
        assert_eq!(report.total_nodes_created(), 1);
    }
}
