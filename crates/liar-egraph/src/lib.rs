//! A generic equality-saturation engine.
//!
//! This crate is the bottom-most substrate of the LIAR reproduction: a
//! self-contained e-graph library in the style of `egg` (Willsey et al.,
//! POPL 2021), which the paper's Scala engine was itself modeled on.
//!
//! The pieces:
//!
//! * [`EGraph`] — hash-consed e-nodes partitioned into e-classes by a
//!   union-find, with deferred rebuilding (congruence closure).
//! * [`Language`] — the trait an IR node type implements to live in an
//!   e-graph; [`RecExpr`] is a flat term representation.
//! * [`Analysis`] — e-class analyses attaching a semilattice of facts to
//!   every e-class (used by LIAR for free-variable sets, array extents and
//!   small representatives).
//! * [`Pattern`] — a term with pattern variables, usable both as a
//!   [`Searcher`] and an [`Applier`]; supports *shift patterns* (`?x` shifted
//!   up by `k` binders) through [`Analysis`] hooks, which LIAR needs to match
//!   idioms such as `A↑↑[•1]` under binders.
//! * [`machine`] — the e-matching virtual machine: every pattern is compiled
//!   once into a linear instruction program executed over a register file,
//!   and fed from the e-graph's operator index
//!   ([`EGraph::classes_with_op`]) so a rule only visits classes whose
//!   members can match its root operator.
//! * [`Rewrite`], [`Runner`], [`BackoffScheduler`] — saturation proper:
//!   every step searches each rule, in rule order, with [`Rewrite::search`]
//!   (the one search loop, which asks the rule's [`Searcher`] about its
//!   candidate classes one at a time). The runner only records: each step's
//!   [`Iteration`] holds e-node counts, phase times and one [`RuleStep`]
//!   per rule (budget, matches, applications, growth, search and apply
//!   time) — the raw data behind the paper's fig. 4, from which callers
//!   derive spans and events.
//! * [`Extract`], [`Extractor`], [`DagExtractor`] and [`CostFunction`] —
//!   cost-based term extraction (the paper's §V-C extractors are cost
//!   functions over this engine), with both tree-cost and DAG-cost
//!   (shared-subterm-charged-once) accounting.
//! * [`Growth`] — running totals of e-nodes created, e-classes merged and
//!   e-nodes retired, tied to the e-graph's size by two identities; the
//!   runner reads them around each rule's apply, so every [`Iteration`]
//!   says how much each rule grew the graph.
//! * [`explain`] — opt-in proof production
//!   ([`EGraph::with_explanations_enabled`]): every union is recorded in a
//!   provenance forest, [`EGraph::explain_equivalence`] turns any derived
//!   equality into a replayable chain of [`ProofStep`]s, and
//!   [`Explanation::check`] re-validates the chain against a rule set.
//!
//! # Example
//!
//! ```
//! use liar_egraph::{EGraph, SymbolLang, Pattern, Rewrite, Runner, Extractor, AstSize};
//!
//! // (a * 2) can be rewritten to (a << 1).
//! let mut egraph: EGraph<SymbolLang, ()> = EGraph::default();
//! let expr = "(* a 2)".parse().unwrap();
//! let root = egraph.add_expr(&expr);
//! let rules = vec![Rewrite::new(
//!     "mul2-to-shift",
//!     "(* ?x 2)".parse::<Pattern<SymbolLang>>().unwrap(),
//!     "(<< ?x 1)".parse::<Pattern<SymbolLang>>().unwrap(),
//! )];
//! let mut runner = Runner::new(egraph).with_iter_limit(4);
//! runner.run(&rules);
//! // The e-graph now contains both forms in the same e-class...
//! let shifted = runner.egraph.lookup_expr(&"(<< a 1)".parse().unwrap());
//! assert_eq!(shifted, Some(runner.egraph.find(root)));
//! // ...and an extractor picks a cheapest representative.
//! let extractor = Extractor::new(&runner.egraph, AstSize);
//! let (best_cost, _best) = extractor.find_best(root);
//! assert_eq!(best_cost, 3.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod analysis;
mod dot;
mod egraph;
pub mod explain;
mod extract;
mod fx;
mod id;
mod language;
pub mod machine;
mod pattern;
mod rewrite;
mod rng;
mod runner;
mod scheduler;
pub mod snapshot;
mod symbol_lang;
mod unionfind;

pub use analysis::{Analysis, DidMerge};
pub use dot::Dot;
pub use egraph::{EClass, EGraph, Growth};
pub use explain::{Direction, Explanation, Justification, ProofError, ProofStep};
pub use extract::{
    AstDepth, AstSize, CostFunction, DagExtractor, ExactBudget, ExactExtractor, ExactOutcome,
    ExactReport, Extract, ExtractError, ExtractionStats, Extractor, FlatGraph,
};
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use id::Id;
pub use language::{Language, RecExpr, RecExprParseError};
pub use machine::OraclePattern;
pub use pattern::{Binding, Pattern, PatternNode, PatternParseError, Subst, Var};
pub use rewrite::{Applier, Rewrite, SearchMatches, Searcher};
pub use rng::SplitMix64;
pub use runner::{Iteration, RuleStep, Runner, RunnerLimits, StopReason};
pub use scheduler::{BackoffScheduler, Scheduler, SimpleScheduler};
pub use snapshot::{
    SnapshotAnalysis, SnapshotError, SnapshotReader, SnapshotWriter, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use symbol_lang::SymbolLang;
