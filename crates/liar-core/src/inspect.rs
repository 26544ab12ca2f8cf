//! Growth introspection: who built the e-graph, and what is it made of.
//!
//! An [`InspectReport`] is the pipeline's answer to "where did all these
//! e-nodes come from?". It folds two deterministic data sources into one
//! set of tables:
//!
//! - the **per-rule funnel** — candidates scheduled → substitutions
//!   found → applications that changed the graph → e-nodes created and
//!   e-classes merged, summed from the runner's per-step
//!   [`Iteration::rules`](liar_egraph::Iteration::rules) records, plus
//!   three builtin rows for growth outside any rule: `(init)`,
//!   `(congruence)` and `(direct)`;
//! - the **composition by operator** — for every operator spelling in
//!   the final graph, how many e-nodes carry it and how many e-classes
//!   contain at least one such node.
//!
//! The report also re-states the **conservation invariant**
//! ([`InspectReport::check`]): per-rule creations minus retirements and
//! merges must reproduce the final graph's node and class totals
//! *exactly*.

use std::collections::BTreeMap;

use liar_egraph::{Analysis, Language, Runner};

/// One row of the per-rule growth funnel. The builtin origins appear as
/// rows with an empty search funnel (they never search):
///
/// - `(init)` — e-nodes added outside any rule's apply (the initial
///   expression);
/// - `(congruence)` — merges made by congruence repair in the runner's
///   rebuilds;
/// - `(direct)` — every other merge outside a rule's apply.
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
/// docs](self). Built by [`InspectReport::from_runner`].
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
    /// Fold a saturated runner's per-step records and its e-graph's
    /// [`Growth`](liar_egraph::Growth) totals into the introspection
    /// tables. Growth outside the rules' apply windows goes to the
    /// builtin rows: `(init)` gets the e-nodes no rule created,
    /// `(congruence)` the rebuilds' unions, and `(direct)` the remaining
    /// merges.
    pub fn from_runner<L: Language, A: Analysis<L>>(runner: &Runner<L, A>) -> InspectReport {
        let mut rows: BTreeMap<String, RuleRow> = BTreeMap::new();
        let (mut rule_nodes, mut rule_merges, mut congruence) = (0, 0, 0);
        for iter in &runner.iterations {
            for r in &iter.rules {
                let row = rows.entry(r.name.clone()).or_insert_with(|| RuleRow {
                    name: r.name.clone(),
                    ..RuleRow::default()
                });
                row.candidates += r.candidates as u64;
                row.matches += r.matches as u64;
                row.applied += r.applied as u64;
                row.nodes_created += r.nodes_created as u64;
                row.classes_merged += r.classes_merged as u64;
                rule_nodes += r.nodes_created;
                rule_merges += r.classes_merged;
            }
            congruence += iter.rebuild_unions;
        }

        let growth = runner.egraph.growth();
        let builtins = [
            ("(init)", growth.nodes_created.saturating_sub(rule_nodes), 0),
            ("(congruence)", 0, congruence),
            (
                "(direct)",
                0,
                growth.classes_merged.saturating_sub(rule_merges + congruence),
            ),
        ];
        for (name, nodes, merges) in builtins {
            if nodes + merges > 0 {
                let row = RuleRow {
                    name: name.to_string(),
                    nodes_created: nodes as u64,
                    classes_merged: merges as u64,
                    ..RuleRow::default()
                };
                rows.insert(name.to_string(), row);
            }
        }
        // Every fresh e-node creates its class.
        for row in rows.values_mut() {
            row.classes_created = row.nodes_created;
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
            nodes_retired: growth.nodes_retired as u64,
            steps: runner.iterations.len(),
        };
        debug_assert!(
            report.check().is_ok(),
            "conservation violated: {:?}",
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
    fn rebuild_unions_fold_into_the_congruence_row() {
        use liar_egraph::{EGraph, Rewrite, SymbolLang};
        // `a → b` over g(f(a)), g(f(b)): the rule merges a into b, and
        // congruence repair merges f(a)/f(b) and g(f(a))/g(f(b)).
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        for x in ["a", "b"] {
            eg.add_expr(&format!("(g (f {x}))").parse().unwrap());
        }
        let mut runner = Runner::new(eg).with_iter_limit(1);
        runner.run(&[Rewrite::from_patterns("a-to-b", "a", "b")]);
        let report = InspectReport::from_runner(&runner);
        report.check().expect("conserves");
        let init = report.rule("(init)").expect("initial expression row");
        assert_eq!((init.nodes_created, init.classes_created), (6, 6));
        assert_eq!(report.rule("(congruence)").unwrap().classes_merged, 2);
        let rule = report.rule("a-to-b").unwrap();
        assert_eq!((rule.applied, rule.nodes_created, rule.classes_merged), (1, 0, 1));
        assert!(report.rule("(direct)").is_none());
        assert_eq!(report.nodes_retired, 2);
    }

    #[test]
    fn unions_outside_rules_fold_into_the_direct_row() {
        use liar_egraph::{EGraph, SymbolLang};
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        let a = eg.add(SymbolLang::leaf("a"));
        let b = eg.add(SymbolLang::leaf("b"));
        eg.union(a, b);
        eg.rebuild();
        let runner = Runner::new(eg);
        let report = InspectReport::from_runner(&runner);
        report.check().expect("conserves");
        assert_eq!(report.rule("(init)").unwrap().nodes_created, 2);
        assert_eq!(report.rule("(direct)").unwrap().classes_merged, 1);
        assert!(report.rule("(congruence)").is_none());
        assert_eq!(report.rules.len(), 2);
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
