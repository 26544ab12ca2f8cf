//! The saturation loop: batched search → apply → rebuild, with limits and
//! per-iteration reports.
//!
//! The search phase is read-only over a clean e-graph: every unbanned rule
//! is searched in rule order by [`Rewrite::search`], each inside its own
//! `search/<rule>` span, over its candidate classes in ascending id order,
//! and stops at exactly its scheduler match budget.

use std::sync::Arc;
use std::time::{Duration, Instant};

use liar_trace::{FlightKind, FlightRecorder, TraceSink};

use crate::rewrite::SearchMatches;
use crate::{Analysis, EGraph, Id, Language, Rewrite, Scheduler, SimpleScheduler};

/// Why a [`Runner`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// No rule changed the e-graph: a fixpoint was reached.
    Saturated,
    /// The configured iteration (saturation-step) limit was reached.
    IterationLimit,
    /// The e-graph grew past the configured node limit.
    NodeLimit,
    /// The configured wall-clock budget was exhausted.
    TimeLimit,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Saturated => write!(f, "saturated"),
            StopReason::IterationLimit => write!(f, "iteration limit"),
            StopReason::NodeLimit => write!(f, "node limit"),
            StopReason::TimeLimit => write!(f, "time limit"),
        }
    }
}

/// Stopping criteria for a [`Runner`].
///
/// The paper uses a five-minute wall-clock budget per kernel and reports
/// CPU-invariant *step*-limited runs in its artifact; both are supported.
#[derive(Debug, Clone)]
pub struct RunnerLimits {
    /// Maximum number of saturation steps.
    pub iter_limit: usize,
    /// Maximum number of e-nodes before stopping, checked between steps.
    pub node_limit: usize,
    /// Optional wall-clock budget.
    pub time_limit: Option<Duration>,
}

impl Default for RunnerLimits {
    fn default() -> Self {
        RunnerLimits {
            iter_limit: 30,
            node_limit: 500_000,
            time_limit: None,
        }
    }
}

/// Everything that happened during one saturation step — the raw data
/// behind the paper's fig. 4 (e-node counts and time per step). The
/// default is all zeros: step 0, before any rewriting.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Step index, starting at 1 (step 0 is the initial e-graph).
    pub index: usize,
    /// Unique e-nodes after this step's rebuild.
    pub n_nodes: usize,
    /// E-classes after this step's rebuild.
    pub n_classes: usize,
    /// `(rule name, substitutions that changed the e-graph)`, rules in
    /// rule-set order.
    pub applied: Vec<(String, usize)>,
    /// Per-rule search funnel, aligned with
    /// [`applied`](Iteration::applied): `(candidate e-classes scheduled,
    /// substitutions found)` for each rule. Banned rules record `(0, 0)`.
    /// Summing the columns gives
    /// [`search_candidates`](Iteration::search_candidates) and
    /// [`search_matches`](Iteration::search_matches).
    pub searched: Vec<(usize, usize)>,
    /// Per-rule growth, aligned with [`applied`](Iteration::applied):
    /// `(e-nodes created, e-classes merged)` while the rule applied, read
    /// from [`EGraph::growth`] before and after its batch. Hash-cons hits
    /// create nothing; the merges congruence repair makes afterwards are
    /// [`rebuild_unions`](Iteration::rebuild_unions).
    pub grown: Vec<(usize, usize)>,
    /// Unions performed by congruence repair during rebuild.
    pub rebuild_unions: usize,
    /// Candidate e-classes scheduled for matching across all unbanned
    /// rules: each rule counts its searcher's candidate list (see
    /// [`Searcher::candidate_class_ids`](crate::Searcher::candidate_class_ids)),
    /// or every class when the searcher names none.
    pub search_candidates: usize,
    /// Always equal to [`search_candidates`](Iteration::search_candidates):
    /// every scheduled candidate class is scanned. Kept for the benchmark
    /// ledger, which still records it.
    pub frontier_candidates: usize,
    /// Substitutions produced by the search phase (post-limit, pre-apply).
    pub search_matches: usize,
    /// Time spent searching all rules.
    pub search_time: Duration,
    /// Time spent applying matches.
    pub apply_time: Duration,
    /// Time spent rebuilding.
    pub rebuild_time: Duration,
    /// Total step time.
    pub total_time: Duration,
}

impl Iteration {
    /// Total number of rule applications that changed the e-graph.
    pub fn total_applied(&self) -> usize {
        self.applied.iter().map(|(_, n)| n).sum()
    }
}

/// Drives equality saturation over an [`EGraph`].
///
/// A `Runner` owns the e-graph and, per step, searches every rule against a
/// consistent snapshot, applies all matches in a batch, rebuilds, and
/// records an [`Iteration`] report. [`run_one`](Runner::run_one) exposes
/// single steps so callers (the LIAR pipeline) can extract a best
/// expression after every step, as the paper does.
pub struct Runner<L: Language, A: Analysis<L>> {
    /// The e-graph being saturated.
    pub egraph: EGraph<L, A>,
    /// Root classes of interest (kept for extraction convenience).
    pub roots: Vec<Id>,
    /// Reports for the steps run so far.
    pub iterations: Vec<Iteration>,
    /// Why the run stopped, once it has.
    pub stop_reason: Option<StopReason>,
    /// The sink the runner records its spans on (see
    /// [`with_trace`](Runner::with_trace)); a caller that lent its own
    /// sink takes it back from here after the run.
    pub trace: TraceSink,
    limits: RunnerLimits,
    scheduler: Box<dyn Scheduler>,
    start: Option<Instant>,
    flight: Option<Arc<FlightRecorder>>,
}

impl<L: Language + 'static, A: Analysis<L> + 'static> Runner<L, A> {
    /// Wrap an e-graph in a runner with default limits and no scheduling.
    ///
    /// The default [`SimpleScheduler`] sets no per-step match budget, so
    /// one step applies every match of every rule, and the node limit
    /// (checked only between steps, see
    /// [`with_node_limit`](Runner::with_node_limit)) cannot cut a step
    /// short. Rules whose matches grow fast need a budget:
    /// [`with_scheduler`](Runner::with_scheduler) with a
    /// [`BackoffScheduler`](crate::BackoffScheduler), as the LIAR pipeline
    /// uses.
    pub fn new(egraph: EGraph<L, A>) -> Self {
        Runner {
            egraph,
            roots: Vec::new(),
            iterations: Vec::new(),
            stop_reason: None,
            trace: TraceSink::off(),
            limits: RunnerLimits::default(),
            scheduler: Box::new(SimpleScheduler),
            start: None,
            flight: None,
        }
    }

    /// Record a root e-class of interest.
    pub fn with_root(mut self, root: Id) -> Self {
        self.roots.push(root);
        self
    }

    /// Set the saturation-step limit.
    pub fn with_iter_limit(mut self, limit: usize) -> Self {
        self.limits.iter_limit = limit;
        self
    }

    /// Set the e-node limit. It is checked only between steps, before a
    /// step starts: a step that begins under the limit runs to the end
    /// however much it adds.
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.limits.node_limit = limit;
        self
    }

    /// Set a wall-clock budget.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.limits.time_limit = Some(limit);
        self
    }

    /// Replace all limits at once.
    pub fn with_limits(mut self, limits: RunnerLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Use a custom [`Scheduler`].
    pub fn with_scheduler(mut self, scheduler: impl Scheduler + 'static) -> Self {
        self.scheduler = Box::new(scheduler);
        self
    }

    /// Does nothing: search runs on the calling thread.
    ///
    /// Exists only because the benchmark ledger (`ledger/src/layers.rs`)
    /// still calls it; remove it once that caller is gone.
    #[doc(hidden)]
    pub fn with_threads(self, _n: usize) -> Self {
        self
    }

    /// Does nothing: every search scans the whole e-graph.
    ///
    /// Exists only because the benchmark ledger (`ledger/src/layers.rs`)
    /// still calls it; remove it once that caller is gone.
    #[doc(hidden)]
    pub fn with_seminaive(self, _on: bool) -> Self {
        self
    }

    /// Record saturation spans on `sink` (see the `liar-trace` crate):
    /// per-step `step` spans nesting `search`/`apply`/`rebuild` phase
    /// spans and per-rule `search/<rule>` and `apply/<rule>` spans, plus
    /// e-graph growth counters and scheduler ban markers. Spans the caller
    /// left open on `sink` enclose the runner's. Tracing is strictly
    /// observational — it never feeds back into search, scheduling, or
    /// apply order — so traced runs stay bit-identical to untraced ones
    /// (enforced by the tracing determinism wall).
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// Feed notable saturation events — rules that changed the e-graph,
    /// scheduler bans, budget truncations — into a
    /// [`FlightRecorder`] ring buffer. Like tracing, strictly
    /// observational: the recorder never feeds back into search,
    /// scheduling, or apply order.
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    fn check_pre_limits(&self) -> Option<StopReason> {
        if self.iterations.len() >= self.limits.iter_limit {
            return Some(StopReason::IterationLimit);
        }
        // The last step's count was taken after its rebuild, so only the
        // first step walks the e-graph to count its e-nodes.
        let n_nodes = match self.iterations.last() {
            Some(it) => it.n_nodes,
            None => self.egraph.num_nodes(),
        };
        if n_nodes >= self.limits.node_limit {
            return Some(StopReason::NodeLimit);
        }
        if let (Some(budget), Some(start)) = (self.limits.time_limit, self.start) {
            if start.elapsed() >= budget {
                return Some(StopReason::TimeLimit);
            }
        }
        None
    }

    /// Run one saturation step, or return the reason no step was run.
    ///
    /// A step searches every rule (against the pre-step e-graph), applies
    /// all matches, rebuilds, and records an [`Iteration`].
    pub fn run_one(&mut self, rules: &[Rewrite<L, A>]) -> Result<&Iteration, StopReason> {
        if let Some(reason) = self.stop_reason.clone() {
            return Err(reason);
        }
        self.start.get_or_insert_with(Instant::now);
        if let Some(reason) = self.check_pre_limits() {
            self.stop_reason = Some(reason.clone());
            return Err(reason);
        }
        let step_start = Instant::now();
        let iteration_idx = self.iterations.len();
        let step_span = self.trace.begin("step");
        let search_span = self.trace.begin("search");

        // Search phase: all rules see the same clean e-graph. The scheduler
        // hands out every rule's match budget up front, then each unbanned
        // rule is searched in rule order and the scheduler observes its
        // match count.
        let limits: Vec<Option<usize>> = rules
            .iter()
            .enumerate()
            .map(|(i, rule)| self.scheduler.match_limit(iteration_idx, i, rule.name()))
            .collect();
        if self.trace.on() || self.flight.is_some() {
            // Banned rules sit out this iteration; mark each ban so the
            // scheduler's backoff behavior is visible on the timeline and
            // in the flight ring.
            for (rule, limit) in rules.iter().zip(&limits) {
                if limit.is_none() {
                    if self.trace.on() {
                        self.trace.instant_args(
                            format_args!("ban/{}", rule.name()),
                            &[("step", (iteration_idx + 1) as f64)],
                        );
                    }
                    if let Some(flight) = &self.flight {
                        flight.record(
                            FlightKind::RuleBanned,
                            rule.name(),
                            (iteration_idx + 1) as f64,
                        );
                    }
                }
            }
        }
        let mut all_matches = Vec::with_capacity(rules.len());
        let mut searched = Vec::with_capacity(rules.len());
        for (i, (rule, limit)) in rules.iter().zip(&limits).enumerate() {
            let Some(limit) = *limit else {
                all_matches.push(Vec::new());
                searched.push((0, 0));
                continue;
            };
            let span = self
                .trace
                .begin_args(format_args!("search/{}", rule.name()));
            let (n_candidates, matches) = rule.search(&self.egraph, limit);
            let n_matches: usize = matches.iter().map(SearchMatches::len).sum();
            self.trace.end_with(span, &[("matches", n_matches as f64)]);
            self.scheduler.record(iteration_idx, i, n_matches);
            // The match stream stops exactly at the budget, so hitting it
            // means the scheduler truncated this rule.
            if n_matches >= limit && limit > 0 {
                if let Some(flight) = &self.flight {
                    flight.record(FlightKind::BudgetTruncated, rule.name(), limit as f64);
                }
            }
            all_matches.push(matches);
            searched.push((n_candidates, n_matches));
        }
        let search_candidates: usize = searched.iter().map(|&(c, _)| c).sum();
        let search_matches: usize = searched.iter().map(|&(_, m)| m).sum();
        let search_time = step_start.elapsed();
        self.trace.end_with(
            search_span,
            &[
                ("candidates", search_candidates as f64),
                ("matches", search_matches as f64),
            ],
        );

        // Apply phase.
        let apply_start = Instant::now();
        let apply_span = self.trace.begin("apply");
        let mut applied = Vec::with_capacity(rules.len());
        let mut grown = Vec::with_capacity(rules.len());
        for (rule, matches) in rules.iter().zip(&all_matches) {
            let rule_span = self.trace.begin_args(format_args!("apply/{}", rule.name()));
            let before = self.egraph.growth();
            let changed = rule.apply(&mut self.egraph, matches);
            let after = self.egraph.growth();
            grown.push((
                after.nodes_created - before.nodes_created,
                after.classes_merged - before.classes_merged,
            ));
            self.trace.end_with(rule_span, &[("changed", changed as f64)]);
            if changed > 0 {
                if let Some(flight) = &self.flight {
                    flight.record(FlightKind::RuleFired, rule.name(), changed as f64);
                }
            }
            applied.push((rule.name().to_string(), changed));
        }
        let apply_time = apply_start.elapsed();
        self.trace.end(apply_span);

        // Rebuild phase.
        let rebuild_start = Instant::now();
        let rebuild_span = self.trace.begin("rebuild");
        let rebuild_unions = self.egraph.rebuild();
        let rebuild_time = rebuild_start.elapsed();
        self.trace
            .end_with(rebuild_span, &[("unions", rebuild_unions as f64)]);

        let iteration = Iteration {
            index: iteration_idx + 1,
            n_nodes: self.egraph.num_nodes(),
            n_classes: self.egraph.num_classes(),
            applied,
            searched,
            grown,
            rebuild_unions,
            search_candidates,
            frontier_candidates: search_candidates,
            search_matches,
            search_time,
            apply_time,
            rebuild_time,
            total_time: step_start.elapsed(),
        };
        self.trace
            .end_with(step_span, &[("step", (iteration_idx + 1) as f64)]);
        if self.trace.on() {
            // Growth gauges, sampled after the rebuild (when the counts
            // are exact): e-nodes, e-classes, and hash-cons memo entries.
            self.trace.counter("egraph/nodes", iteration.n_nodes as f64);
            self.trace.counter("egraph/classes", iteration.n_classes as f64);
            self.trace.counter("egraph/memo", self.egraph.memo_len() as f64);
            self.trace.flush();
        }
        let saturated = iteration.total_applied() == 0 && rebuild_unions == 0;
        self.iterations.push(iteration);
        if saturated {
            self.stop_reason = Some(StopReason::Saturated);
        }
        Ok(self.iterations.last().expect("just pushed"))
    }

    /// Run until saturation or a limit; returns the stop reason.
    pub fn run(&mut self, rules: &[Rewrite<L, A>]) -> StopReason {
        loop {
            if let Err(reason) = self.run_one(rules) {
                return reason;
            }
        }
    }
}

impl<L: Language, A: Analysis<L>> std::fmt::Debug for Runner<L, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("egraph", &self.egraph)
            .field("iterations", &self.iterations.len())
            .field("stop_reason", &self.stop_reason)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolLang;

    fn comm() -> Rewrite<SymbolLang, ()> {
        Rewrite::from_patterns("comm-add", "(+ ?x ?y)", "(+ ?y ?x)")
    }

    fn assoc() -> Rewrite<SymbolLang, ()> {
        Rewrite::from_patterns("assoc-add", "(+ (+ ?x ?y) ?z)", "(+ ?x (+ ?y ?z))")
    }

    #[test]
    fn saturates_on_small_theory() {
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        let root = eg.add_expr(&"(+ (+ a b) c)".parse().unwrap());
        let mut runner = Runner::new(eg).with_root(root).with_iter_limit(20);
        let reason = runner.run(&[comm(), assoc()]);
        assert_eq!(reason, StopReason::Saturated);
        // All 12 associations/commutations of (a+b)+c are equal.
        let eg = &runner.egraph;
        for s in ["(+ c (+ b a))", "(+ (+ c b) a)", "(+ b (+ a c))"] {
            let e = s.parse().unwrap();
            assert_eq!(
                eg.lookup_expr(&e),
                Some(eg.find(root)),
                "{s} not in root class"
            );
        }
        runner.egraph.assert_invariants();
    }

    #[test]
    fn iteration_limit_stops() {
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        eg.add_expr(&"(+ a b)".parse().unwrap());
        // A growing rule: f is freshly applied each time.
        let grow = Rewrite::from_patterns("grow", "(+ ?x ?y)", "(+ (f ?x) ?y)");
        let mut runner = Runner::new(eg).with_iter_limit(3);
        let reason = runner.run(&[grow]);
        assert_eq!(reason, StopReason::IterationLimit);
        assert_eq!(runner.iterations.len(), 3);
    }

    #[test]
    fn node_limit_stops() {
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        eg.add_expr(&"(+ a b)".parse().unwrap());
        let grow = Rewrite::from_patterns("grow", "(+ ?x ?y)", "(+ (f ?x) ?y)");
        let mut runner = Runner::new(eg).with_node_limit(10).with_iter_limit(1000);
        let reason = runner.run(&[grow]);
        assert_eq!(reason, StopReason::NodeLimit);
        assert!(runner.egraph.num_nodes() >= 10);
    }

    #[test]
    fn time_limit_stops() {
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        eg.add_expr(&"(+ a b)".parse().unwrap());
        let grow = Rewrite::from_patterns("grow", "(+ ?x ?y)", "(+ (f ?x) ?y)");
        let mut runner = Runner::new(eg)
            .with_iter_limit(usize::MAX)
            .with_node_limit(usize::MAX)
            .with_time_limit(Duration::from_millis(30));
        let reason = runner.run(&[grow]);
        assert_eq!(reason, StopReason::TimeLimit);
        assert!(!runner.iterations.is_empty());
    }

    #[test]
    fn runner_errs_after_stop() {
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        eg.add_expr(&"(+ a b)".parse().unwrap());
        let mut runner = Runner::new(eg).with_iter_limit(1);
        let comm_rule = comm();
        runner.run(std::slice::from_ref(&comm_rule));
        // Further steps report the recorded stop reason.
        assert!(runner.run_one(&[comm_rule]).is_err());
    }

    #[test]
    fn match_budget_clips_every_rule_exactly() {
        use crate::{BackoffScheduler, Pattern, Searcher, Subst, Var};

        // A searcher that names no candidates and returns every match
        // twice, ignoring its limit: the search loop clips it to the budget.
        struct Unbounded(Pattern<SymbolLang>);
        impl Searcher<SymbolLang, ()> for Unbounded {
            fn search_class(
                &self,
                egraph: &EGraph<SymbolLang, ()>,
                class: Id,
                _: usize,
            ) -> Vec<Subst<SymbolLang>> {
                let substs = self.0.match_class(egraph, class);
                substs.iter().chain(&substs).cloned().collect()
            }
            fn bound_vars(&self) -> Vec<Var> {
                self.0.vars()
            }
        }
        let lhs: Pattern<SymbolLang> = "(+ ?x ?y)".parse().unwrap();
        let rhs: Pattern<SymbolLang> = "(+ (f ?x) ?y)".parse().unwrap();
        let per_class = Rewrite::new("grow", lhs.clone(), rhs.clone());
        let whole = Rewrite::new("grow-whole", Unbounded(lhs), rhs);
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        for name in ["a", "b", "c", "d", "e", "g"] {
            let leaf = eg.add(SymbolLang::leaf(name));
            let z = eg.add(SymbolLang::leaf("z"));
            eg.add(SymbolLang::new("+", vec![leaf, z]));
        }
        let n_classes = eg.num_classes();
        // An odd budget cuts the second class's pair of matches in half.
        let (candidates, matches) = whole.search(&eg, 3);
        assert_eq!(candidates, n_classes);
        let lens: Vec<usize> = matches.iter().map(SearchMatches::len).collect();
        assert_eq!(lens, [2, 1]);
        let mut runner = Runner::new(eg)
            .with_iter_limit(1)
            .with_scheduler(BackoffScheduler::new(4, 1));
        runner.run(&[per_class, whole]);
        // Six `+` classes match each rule; both stop at exactly four.
        let it = &runner.iterations[0];
        assert_eq!(it.searched, vec![(6, 4), (n_classes, 4)]);
        assert_eq!(it.search_matches, 8);
        assert_eq!(it.applied[0], ("grow".to_string(), 4));
    }

    #[test]
    fn operator_index_narrows_search_candidates() {
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        let root = eg.add_expr(&"(+ (* a b) (f c))".parse().unwrap());
        let n_classes = eg.num_classes();
        let mut runner = Runner::new(eg).with_root(root).with_iter_limit(1);
        runner.run(&[comm()]);
        let it = &runner.iterations[0];
        // comm-add's root is `+`: only the one `+` class is a candidate,
        // not all six classes of the initial e-graph.
        assert_eq!(it.search_candidates, 1);
        assert!(it.search_candidates < n_classes);
        assert_eq!(it.search_matches, 1);
    }

    #[test]
    fn traced_runs_are_bit_identical_and_spans_nest() {
        let run = |recorder: Option<&Arc<liar_trace::Recorder>>| {
            let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
            let root = eg.add_expr(&"(+ (+ (+ a b) c) (+ d e))".parse().unwrap());
            let mut runner = Runner::new(eg)
                .with_root(root)
                .with_iter_limit(4)
                .with_scheduler(crate::BackoffScheduler::new(5, 2));
            if let Some(rec) = recorder {
                runner = runner.with_trace(TraceSink::attached(rec, "saturation"));
            }
            runner.run(&[comm(), assoc()]);
            runner
        };
        let plain = run(None);
        let rec = liar_trace::Recorder::new();
        let traced = run(Some(&rec));
        assert_eq!(plain.stop_reason, traced.stop_reason);
        assert_eq!(plain.iterations.len(), traced.iterations.len());
        for (p, t) in plain.iterations.iter().zip(&traced.iterations) {
            assert_eq!(p.n_nodes, t.n_nodes, "step {}", p.index);
            assert_eq!(p.applied, t.applied, "step {}", p.index);
            assert_eq!(p.grown, t.grown, "step {}", p.index);
            assert_eq!(p.search_matches, t.search_matches, "step {}", p.index);
        }

        let events = rec.events();
        let spans = |name: &str| {
            events
                .iter()
                .filter(|e| e.kind == liar_trace::EventKind::Span && e.name == name)
                .count()
        };
        assert_eq!(spans("step"), traced.iterations.len());
        assert_eq!(spans("search"), traced.iterations.len());
        assert_eq!(spans("apply"), traced.iterations.len());
        assert_eq!(spans("rebuild"), traced.iterations.len());
        // Phase spans sit inside their step span.
        let step = events.iter().find(|e| e.name == "step").unwrap();
        for phase in ["search", "apply", "rebuild"] {
            let p = events.iter().find(|e| e.name == phase).unwrap();
            assert!(p.start_us >= step.start_us, "{phase} starts in step");
            assert!(
                p.start_us + p.dur_us <= step.start_us + step.dur_us,
                "{phase} ends in step"
            );
        }
        // Growth gauges sample every step, as counters not spans.
        assert_eq!(spans("egraph/nodes"), 0);
        let nodes = events
            .iter()
            .filter(|e| e.kind == liar_trace::EventKind::Counter && e.name == "egraph/nodes")
            .count();
        assert_eq!(nodes, traced.iterations.len());
        for rule in ["search/comm-add", "apply/comm-add"] {
            assert!(
                events.iter().any(|e| e.name == rule),
                "per-rule span {rule}"
            );
        }
    }

    #[test]
    fn one_thread_records_a_search_span_per_unbanned_rule_and_step() {
        // `comm-mul`'s root operator never occurs, so its candidate list is
        // empty; it still gets its job and its span every step.
        let comm_mul = Rewrite::from_patterns("comm-mul", "(* ?x ?y)", "(* ?y ?x)");
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        eg.add_expr(&"(+ (+ a b) c)".parse().unwrap());
        let rec = liar_trace::Recorder::new();
        let mut runner = Runner::new(eg)
            .with_iter_limit(3)
            .with_trace(TraceSink::attached(&rec, "saturation"));
        runner.run(&[comm(), comm_mul, assoc()]);
        let steps = runner.iterations.len();
        assert_eq!(steps, 3);
        assert!(runner.iterations.iter().all(|it| it.searched[1] == (0, 0)));
        let events = rec.events();
        for rule in ["comm-add", "comm-mul", "assoc-add"] {
            let name = format!("search/{rule}");
            let spans = events.iter().filter(|e| e.name == name).count();
            assert_eq!(spans, steps, "{name}: one span per step");
        }
    }

    #[test]
    fn grown_charges_fresh_nodes_and_merges_to_the_applying_rule() {
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        eg.add_expr(&"(+ a b)".parse().unwrap());
        let mut runner = Runner::new(eg).with_iter_limit(2);
        runner.run(&[comm()]);
        // Step 1 adds `(+ b a)` and merges it into the root class; step 2
        // only hash-conses onto nodes that exist, which charges nothing.
        assert_eq!(runner.iterations[0].grown, [(1, 1)]);
        assert_eq!(runner.iterations[1].grown, [(0, 0)]);
        runner.egraph.assert_invariants();
    }

    #[test]
    fn congruence_merges_are_rebuild_unions_not_the_rules() {
        // `a → b` over g(f(a)), g(f(b)): the rule merges a into b, then
        // congruence repair merges f(a)/f(b) and g(f(a))/g(f(b)) and
        // retires the duplicated spellings.
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        for x in ["a", "b"] {
            eg.add_expr(&format!("(g (f {x}))").parse().unwrap());
        }
        let a_to_b = Rewrite::from_patterns("a-to-b", "a", "b");
        let mut runner = Runner::new(eg).with_iter_limit(1);
        runner.run(&[a_to_b]);
        let it = &runner.iterations[0];
        assert_eq!(it.grown, [(0, 1)]);
        assert_eq!(it.rebuild_unions, 2);
        let expected = crate::Growth {
            nodes_created: 6,
            classes_merged: 3,
            nodes_retired: 2,
        };
        assert_eq!(runner.egraph.growth(), expected);
        runner.egraph.assert_invariants();
    }

    #[test]
    fn reports_are_recorded_per_step() {
        let mut eg: EGraph<SymbolLang, ()> = EGraph::default();
        eg.add_expr(&"(+ a b)".parse().unwrap());
        let mut runner = Runner::new(eg).with_iter_limit(10);
        runner.run(&[comm()]);
        assert!(!runner.iterations.is_empty());
        let first = &runner.iterations[0];
        assert_eq!(first.index, 1);
        assert_eq!(first.applied[0].0, "comm-add");
        assert_eq!(first.applied[0].1, 1);
        // Second step discovers nothing new.
        let last = runner.iterations.last().unwrap();
        assert_eq!(last.total_applied(), 0);
    }
}
