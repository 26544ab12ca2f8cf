//! The LIAR driver: the fig. 2 workflow from input expression to per-step
//! solutions.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use liar_egraph::{
    BackoffScheduler, DagExtractor, ExtractionStats, Extractor, Id, Iteration, Runner,
    RunnerLimits, StopReason,
};
use liar_ir::{ArrayAnalysis, ArrayEGraph, ArrayExplanation, ArrayLang, ArrayRewrite, Expr};
use liar_trace::{FlightKind, FlightRecorder, Recorder, TraceSink};

use crate::cache::SaturationCache;
use crate::cost::TargetCost;
use crate::fingerprint::{request_fingerprint, BudgetKnobs, Fingerprint};
use crate::inspect::InspectReport;
use crate::profile::MachineProfile;
use crate::rules::{rules_for_targets, RuleConfig, Target};
use crate::store::SnapshotStore;

/// A multi-target optimization request failed: one of the requested
/// `(target, discount_scale, profile)` extractions found no finite-cost
/// term for the root.
///
/// This is the pipeline-level face of [`liar_egraph::ExtractError`]: it
/// happens when the *request* is unsatisfiable — e.g. the input expression
/// is a library call of a foreign target, so the requested target's cost
/// model prices every equivalent term at infinity. The serve daemon maps
/// this to a structured protocol error instead of panicking a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeError {
    /// The target whose extraction failed.
    pub target: Target,
    /// The discount scale it ran at.
    pub discount_scale: f64,
    /// The machine profile it ran under.
    pub profile: String,
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no extractable solution for target {} (discount scale {}, profile {}): \
             every equivalent term costs infinity under this model",
            self.target, self.discount_scale, self.profile
        )
    }
}

impl std::error::Error for OptimizeError {}

/// The state of the search after one saturation step: e-graph statistics
/// plus the best expression the target's cost model extracts — the raw
/// data behind tables II–III and figures 4–6 of the paper.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Saturation step (0 = before any rewriting).
    pub step: usize,
    /// Unique e-nodes after the step.
    pub n_nodes: usize,
    /// E-classes after the step.
    pub n_classes: usize,
    /// Wall-clock time of the step (zero for step 0).
    pub step_time: Duration,
    /// Time the step spent in the search phase (zero for step 0).
    pub search_time: Duration,
    /// Candidate e-classes the search phase scheduled across all unbanned
    /// rules (zero for step 0) — the quantity the operator index shrinks;
    /// see [`liar_egraph::Iteration::search_candidates`].
    pub search_candidates: usize,
    /// Always equal to [`search_candidates`](StepReport::search_candidates)
    /// (see [`liar_egraph::Iteration::frontier_candidates`]).
    pub frontier_candidates: usize,
    /// Substitutions the search phase produced (zero for step 0).
    pub search_matches: usize,
    /// `(rule name, applications that changed the e-graph)` during this
    /// step, in rule-set order (empty for step 0) — cheap provenance
    /// statistics even with explanations off; `liar optimize --verbose`
    /// prints the top rules.
    pub applied: Vec<(String, usize)>,
    /// Best expression under the target cost model.
    pub best: Expr,
    /// Its cost.
    pub cost: f64,
    /// Library calls in `best`: family name → count (e.g. `gemv → 2`).
    pub lib_calls: BTreeMap<String, usize>,
}

impl StepReport {
    /// The library calls in the paper's table format (see
    /// [`lib_call_summary`]).
    pub fn solution_summary(&self) -> String {
        lib_call_summary(&self.lib_calls)
    }
}

/// The result of optimizing one kernel for one target.
#[derive(Debug, Clone)]
pub struct OptimizationReport {
    /// The target whose rules and cost model were used.
    pub target: Target,
    /// Step 0 (initial) through the last step run.
    pub steps: Vec<StepReport>,
    /// Why saturation stopped.
    pub stop_reason: StopReason,
}

impl OptimizationReport {
    /// The report of the final step (the paper's tables report this row).
    pub fn best(&self) -> &StepReport {
        self.steps.last().expect("at least step 0 exists")
    }

    /// Total time spent in the search (e-matching) phase across all steps.
    pub fn total_search_time(&self) -> Duration {
        self.steps.iter().map(|s| s.search_time).sum()
    }

    /// The first step at which the final solution was found (steps whose
    /// best expression equals the final one, counted from the end).
    pub fn convergence_step(&self) -> usize {
        let last = &self.best().best;
        self.steps
            .iter()
            .find(|s| &s.best == last)
            .map(|s| s.step)
            .unwrap_or(0)
    }
}

/// Per-step e-graph statistics of a multi-target saturation (the
/// [`StepReport`] fields that do not depend on a target's cost model —
/// multi-target runs extract only once, at the end).
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationStep {
    /// Saturation step (0 = before any rewriting).
    pub step: usize,
    /// Unique e-nodes after the step.
    pub n_nodes: usize,
    /// E-classes after the step.
    pub n_classes: usize,
    /// Wall-clock time of the step (zero for step 0).
    pub step_time: Duration,
    /// Time the step spent in the search phase.
    pub search_time: Duration,
    /// Candidate e-classes the search phase scheduled across all rules.
    pub search_candidates: usize,
    /// Always equal to
    /// [`search_candidates`](SaturationStep::search_candidates) (see
    /// [`liar_egraph::Iteration::frontier_candidates`]).
    pub frontier_candidates: usize,
    /// Substitutions the search phase produced.
    pub search_matches: usize,
}

/// One extracted solution of a multi-target run: a `(target,
/// discount_scale)` pair's best expression plus its extraction statistics.
///
/// `best`/`cost` use the tree extractor; for the library targets they
/// are bit-identical to what a single-target [`Liar::optimize`] run with
/// the same settings reports (pure C is only guaranteed to match at
/// convergence — see [`Liar::optimize_multi`]'s fidelity caveat).
/// `dag_cost`/`dag_best` come from the DAG extractor
/// ([`liar_egraph::DagExtractor`]), which charges each selected e-class
/// once, so `dag_cost <= cost` always.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSolution {
    /// The target whose cost model extracted this solution.
    pub target: Target,
    /// The discount scale the cost model ran at (1.0 = the paper's).
    pub discount_scale: f64,
    /// The machine profile the cost model ran under
    /// ([`MachineProfile::name`]; `"default"` = the identity profile).
    pub profile: String,
    /// Best expression under the target's *tree* cost model.
    pub best: Expr,
    /// Its tree cost.
    pub cost: f64,
    /// Best expression under the target's *DAG* cost model (its flat node
    /// table shares each selected class once).
    pub dag_best: Expr,
    /// Its DAG cost (each selected class charged once; `<= cost`).
    pub dag_cost: f64,
    /// Library calls in `best`: family name → count.
    pub lib_calls: BTreeMap<String, usize>,
    /// Wall-clock time of this extraction (tree + DAG fixpoints).
    pub extract_time: Duration,
    /// DAG-extraction fixpoint statistics.
    pub stats: ExtractionStats,
    /// A replayable proof that the source expression equals
    /// [`best`](MultiSolution::best), populated when the pipeline ran
    /// with [`Liar::with_explanations`]. Validate it with
    /// [`liar_egraph::Explanation::check`] against the rule set the run
    /// used ([`crate::rules::rules_for_targets`]).
    pub proof: Option<ArrayExplanation>,
}

impl MultiSolution {
    /// The library calls in the paper's table format (see
    /// [`lib_call_summary`]).
    pub fn solution_summary(&self) -> String {
        lib_call_summary(&self.lib_calls)
    }

    /// How much cheaper the DAG accounting is than the tree accounting,
    /// as a fraction of the tree cost (0.0 = no sharing in the solution).
    pub fn sharing_discount(&self) -> f64 {
        if self.cost == 0.0 {
            return 0.0;
        }
        1.0 - self.dag_cost / self.cost
    }
}

/// The result of a "saturate once, extract everywhere" run
/// ([`Liar::optimize_multi`]): one saturation with the union ruleset, one
/// [`MultiSolution`] per `(target, discount_scale)` pair.
///
/// `PartialEq` compares every field, timings included — the saturation
/// cache's "bit-identical replay" contract is tested with plain `==`.
/// The one exception is [`inspect`](MultiReport::inspect): the growth
/// tables are observational (like tracing), so two reports that differ
/// only in whether introspection ran still compare equal.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// The targets extracted, in the order requested.
    pub targets: Vec<Target>,
    /// The discount scales extracted, in the order requested.
    pub discount_scales: Vec<f64>,
    /// The machine profiles extracted under, in the order requested.
    pub profiles: Vec<String>,
    /// Why the (shared) saturation stopped.
    pub stop_reason: StopReason,
    /// Per-step e-graph statistics of the shared saturation.
    pub steps: Vec<SaturationStep>,
    /// Total wall-clock time of the shared saturation.
    pub saturation_time: Duration,
    /// E-nodes in the final e-graph.
    pub n_nodes: usize,
    /// E-classes in the final e-graph.
    pub n_classes: usize,
    /// One solution per `(target, discount_scale)`, targets outermost.
    pub solutions: Vec<MultiSolution>,
    /// The growth tables, when this report's saturation ran with
    /// [`Liar::with_attribution`] enabled. `None` on warm restores (the
    /// tables describe a saturation run, and a restore runs none) and
    /// whenever attribution was off. Excluded from `PartialEq`.
    pub inspect: Option<InspectReport>,
}

impl PartialEq for MultiReport {
    fn eq(&self, other: &Self) -> bool {
        // Everything except `inspect` — see the struct docs.
        self.targets == other.targets
            && self.discount_scales == other.discount_scales
            && self.profiles == other.profiles
            && self.stop_reason == other.stop_reason
            && self.steps == other.steps
            && self.saturation_time == other.saturation_time
            && self.n_nodes == other.n_nodes
            && self.n_classes == other.n_classes
            && self.solutions == other.solutions
    }
}

impl MultiReport {
    /// The solution extracted for `target` at the first requested
    /// discount scale.
    pub fn solution(&self, target: Target) -> Option<&MultiSolution> {
        self.solutions.iter().find(|s| s.target == target)
    }

    /// The solution extracted for `target` at `discount_scale` (at the
    /// first requested profile).
    pub fn solution_at(&self, target: Target, discount_scale: f64) -> Option<&MultiSolution> {
        self.solutions
            .iter()
            .find(|s| s.target == target && s.discount_scale == discount_scale)
    }

    /// The solution extracted for `target` at `discount_scale` under
    /// `profile`.
    pub fn solution_for(
        &self,
        target: Target,
        discount_scale: f64,
        profile: &str,
    ) -> Option<&MultiSolution> {
        self.solutions.iter().find(|s| {
            s.target == target && s.discount_scale == discount_scale && s.profile == profile
        })
    }

    /// Total wall-clock time spent extracting, across all solutions.
    pub fn total_extract_time(&self) -> Duration {
        self.solutions.iter().map(|s| s.extract_time).sum()
    }

    /// Total time spent in the search phase of the shared saturation.
    pub fn total_search_time(&self) -> Duration {
        self.steps.iter().map(|s| s.search_time).sum()
    }
}

/// Count library calls in an expression by family name.
pub fn count_lib_calls(expr: &Expr) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for node in expr.nodes() {
        if let Some(f) = node.as_call() {
            *counts.entry(f.family_name().to_string()).or_insert(0) += 1;
        }
    }
    counts
}

/// Format library-call counts like the paper's tables: `2 × gemv + 1 ×
/// memset`, or `—` when the solution calls no library.
pub fn lib_call_summary(calls: &BTreeMap<String, usize>) -> String {
    if calls.is_empty() {
        return "—".to_string();
    }
    let terms: Vec<String> = calls.iter().map(|(name, n)| format!("{n} × {name}")).collect();
    terms.join(" + ")
}

/// The LIAR pipeline for one target (paper fig. 2): rules = language
/// semantics + scalar + target idioms; extractor = the target cost model,
/// run after every saturation step.
#[derive(Debug, Clone)]
pub struct Liar {
    target: Target,
    config: RuleConfig,
    limits: RunnerLimits,
    match_limit: usize,
    discount_scale: f64,
    profiles: Vec<MachineProfile>,
    explain: bool,
    cache: Option<Arc<SaturationCache>>,
    store: Option<Arc<SnapshotStore>>,
    trace: Option<Arc<Recorder>>,
    attribution: bool,
    flight: Option<Arc<FlightRecorder>>,
}

/// How [`Liar::optimize_multi_status`] obtained its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Replayed from the attached saturation cache.
    Hit,
    /// Computed now and stored in the attached cache (or refused by its
    /// byte budget — see [`crate::cache::CacheStats::rejected`]).
    Miss,
    /// Computed now; no cache is attached.
    Uncached,
    /// Restored from the attached durable snapshot store
    /// ([`Liar::with_snapshot_store`]): the prior saturation's e-graph was
    /// deserialized from disk and only extraction ran — the report's
    /// [`steps`](MultiReport::steps) are empty (zero saturation steps).
    /// The report is also promoted into the in-memory cache, so later
    /// repeats are [`Hit`](CacheStatus::Hit)s.
    Warm,
}

impl CacheStatus {
    /// Wire name (the serve protocol's `cache` field).
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Uncached => "uncached",
            CacheStatus::Warm => "warm",
        }
    }
}

impl std::fmt::Display for CacheStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl Liar {
    /// A pipeline for `target` with defaults suitable for the evaluation
    /// kernels (step-limited, as the artifact recommends).
    pub fn new(target: Target) -> Self {
        Liar {
            target,
            config: RuleConfig::default(),
            limits: RunnerLimits {
                iter_limit: 10,
                node_limit: 300_000,
                time_limit: None,
            },
            match_limit: 40_000,
            discount_scale: 1.0,
            profiles: vec![MachineProfile::default()],
            explain: false,
            cache: None,
            store: None,
            trace: None,
            attribution: false,
            flight: None,
        }
    }

    /// Enable proof production: the saturation e-graph records an
    /// explanation forest, and every extracted solution carries a
    /// replayable [`ArrayExplanation`] ([`MultiSolution::proof`];
    /// [`Liar::optimize_explained`] for the single-target pipeline).
    ///
    /// Off by default — the fast path pays nothing. With explanations on,
    /// saturation does extra provenance bookkeeping (see
    /// `docs/EXPLANATIONS.md` for measured overhead); solutions and costs
    /// are found from the same rule set, but the run is not guaranteed to
    /// be bit-identical to an explanations-off run.
    pub fn with_explanations(mut self, on: bool) -> Self {
        self.explain = on;
        self
    }

    /// Set the saturation-step limit.
    pub fn with_iter_limit(mut self, limit: usize) -> Self {
        self.limits.iter_limit = limit;
        self
    }

    /// Set the e-node budget.
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.limits.node_limit = limit;
        self
    }

    /// Set a wall-clock budget (the paper uses five minutes per kernel).
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.limits.time_limit = Some(limit);
        self
    }

    /// Use a custom rule configuration.
    pub fn with_rule_config(mut self, config: RuleConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the per-rule, per-step match budget of the backoff scheduler.
    pub fn with_match_limit(mut self, limit: usize) -> Self {
        self.match_limit = limit;
        self
    }

    /// Scale the cost model's library-call discount factors (ablation;
    /// see [`TargetCost::with_discount_scale`]).
    pub fn with_discount_scale(mut self, scale: f64) -> Self {
        self.discount_scale = scale;
        self
    }

    /// Extract under these machine profiles, in order (the default is
    /// `[MachineProfile::default()]` — the identity). Profiles only affect
    /// extraction, never saturation, so a multi-profile request still
    /// saturates once; they are part of the request fingerprint.
    ///
    /// # Panics
    ///
    /// Panics when `profiles` is empty — a request must extract under at
    /// least one profile.
    pub fn with_profiles(mut self, profiles: Vec<MachineProfile>) -> Self {
        assert!(!profiles.is_empty(), "at least one machine profile required");
        self.profiles = profiles;
        self
    }

    /// The machine profiles this pipeline extracts under.
    pub fn profiles(&self) -> &[MachineProfile] {
        &self.profiles
    }

    /// Attach a shared saturation cache: [`Liar::optimize_multi`] will
    /// replay cached reports and store fresh ones. Clones of this
    /// pipeline share the same cache (it is behind an [`Arc`]).
    pub fn with_cache(mut self, cache: Arc<SaturationCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attach a durable snapshot store ([`SnapshotStore`]):
    /// [`Liar::optimize_multi_status`] will restore saturated e-graphs
    /// from disk ([`CacheStatus::Warm`] — extraction only, zero saturation
    /// steps) and persist every fresh saturation's snapshot, keyed by
    /// [`Liar::request_fingerprint`]. Unlike the in-memory cache, the
    /// store survives the process: a restarted serve node answers
    /// previously-seen requests without re-saturating.
    ///
    /// A snapshot that fails to restore (truncated, bit-flipped, wrong
    /// version) is treated as a miss and the request runs cold — the
    /// fresh snapshot then overwrites the bad file, so the store is
    /// self-healing and never produces a wrong answer.
    pub fn with_snapshot_store(mut self, store: Arc<SnapshotStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Attach a trace recorder ([`liar_trace::Recorder`]): every pipeline
    /// call emits hierarchical spans (`saturate`, `extract/<target>`,
    /// `snapshot/save`, `explain/<target>`, …) on one `pipeline` lane.
    /// Under `saturate` sit the saturation steps: `step` spans with their
    /// `search`, `apply` and `rebuild` phases and per-rule `search/<rule>`
    /// and `apply/<rule>` spans, `ban/<rule>` markers and `egraph/*`
    /// growth counters, all derived from the runner's per-step
    /// [`Iteration`] records (`docs/OBSERVABILITY.md` has the full
    /// catalogue).
    ///
    /// Tracing is strictly observational: reports, solutions and proofs
    /// are bit-identical with it on or off, so the recorder is
    /// **excluded** from [`Liar::request_fingerprint`] and traced/untraced
    /// cache entries are interchangeable. Events from a *disabled*
    /// recorder ([`Recorder::off`]) cost one relaxed atomic load and a
    /// branch per call site.
    pub fn with_trace(mut self, recorder: Arc<Recorder>) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Attach growth attribution to cold multi-target reports: each
    /// carries the [`InspectReport`] tables ([`MultiReport::inspect`]),
    /// folded from the runner's per-step records (every e-node created
    /// and every merge, charged to its rule or to a builtin origin:
    /// `(init)`, `(congruence)`, `(direct)`).
    ///
    /// Off by default: building the tables walks every e-node once.
    /// Attribution is strictly observational: reports, solutions and
    /// proofs are bit-identical with it on or off, so — like tracing —
    /// the knob is **excluded** from [`Liar::request_fingerprint`] and
    /// attributed / unattributed cache entries are interchangeable.
    pub fn with_attribution(mut self, on: bool) -> Self {
        self.attribution = on;
        self
    }

    /// Attach a flight recorder ([`liar_trace::FlightRecorder`]): the
    /// pipeline records notable events into the bounded ring — cache hits
    /// and misses, snapshot restores, and, derived from each saturation
    /// step's [`Iteration`] record, rules firing, being banned and having
    /// their match budget truncate them. Like the trace recorder, the
    /// flight recorder is observational and **excluded** from
    /// [`Liar::request_fingerprint`].
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// The one trace lane of a pipeline call — inert when no recorder is
    /// attached.
    fn sink(&self) -> TraceSink {
        match &self.trace {
            Some(rec) => TraceSink::attached(rec, "pipeline"),
            None => TraceSink::off(),
        }
    }

    /// The target this pipeline optimizes for.
    pub fn target(&self) -> Target {
        self.target
    }

    /// The budget knobs that participate in request fingerprints.
    pub fn budget_knobs(&self) -> BudgetKnobs {
        BudgetKnobs {
            iter_limit: self.limits.iter_limit,
            node_limit: self.limits.node_limit,
            time_limit: self.limits.time_limit,
            match_limit: self.match_limit,
            explain: self.explain,
        }
    }

    /// The content address of the [`Liar::optimize_multi`] request
    /// `(expr, targets, discount_scales)` would make under this
    /// pipeline's configuration — see [`crate::fingerprint`] for what the
    /// key covers.
    pub fn request_fingerprint(
        &self,
        expr: &Expr,
        targets: &[Target],
        discount_scales: &[f64],
    ) -> Fingerprint {
        request_fingerprint(
            expr,
            &self.config,
            targets,
            discount_scales,
            &self.profiles,
            &self.budget_knobs(),
        )
    }

    /// The one saturation loop every pipeline mode runs (paper fig. 2): add
    /// `expr` to a fresh e-graph, open the `saturate` span and run `rules`
    /// to a stop, calling `hook` with the e-graph, its root and the step's
    /// [`Iteration`] before the first step (step 0: the initial e-node and
    /// e-class counts, all else zero) and after every step. Hooks read the
    /// counts from the record rather than walking the e-graph again. Each
    /// step's events are derived from its record ([`Liar::record_step`])
    /// before the hook runs, so they and the hook's spans nest under
    /// `saturate` on the call's lane.
    fn saturate(
        &self,
        expr: &Expr,
        rules: &[ArrayRewrite],
        sink: &mut TraceSink,
        mut hook: impl FnMut(&ArrayEGraph, Id, &Iteration, &mut TraceSink),
    ) -> (Runner<ArrayLang, ArrayAnalysis>, Id, StopReason) {
        let mut egraph = ArrayEGraph::default();
        if self.explain {
            egraph = egraph.with_explanations_enabled();
        }
        let root = egraph.add_expr(expr);
        let step0 = Iteration {
            n_nodes: egraph.num_nodes(),
            n_classes: egraph.num_classes(),
            ..Iteration::default()
        };
        let mut runner = Runner::new(egraph)
            .with_root(root)
            .with_limits(self.limits.clone())
            .with_scheduler(self.scheduler());
        let span = sink.begin("saturate");
        hook(&runner.egraph, root, &step0, sink);
        let stop_reason = loop {
            if let Err(reason) = runner.run_one(rules) {
                break reason;
            }
            let iteration = runner.iterations.last().expect("a step just ran");
            self.record_step(iteration, &runner.egraph, sink);
            hook(&runner.egraph, root, iteration, sink);
        };
        let last = runner.iterations.last().unwrap_or(&step0);
        let counts = [
            ("steps", runner.iterations.len() as f64),
            ("nodes", last.n_nodes as f64),
            ("classes", last.n_classes as f64),
        ];
        sink.end_with(span, &counts);
        (runner, root, stop_reason)
    }

    /// Derive the events of the step `it` records, right after it ran: the
    /// flight recorder's rule events and, on `sink`, the `step` span with
    /// its phase and per-rule spans, ban markers and growth counters. Spans
    /// are laid out back from now by the recorded times, rule after rule in
    /// a phase and phase after phase in the step, so each ends inside its
    /// parent (a rule's time is a lap of its phase's clock).
    fn record_step(&self, it: &Iteration, egraph: &ArrayEGraph, sink: &mut TraceSink) {
        let step = it.index as f64;
        if let Some(flight) = &self.flight {
            for r in it.rules.iter().filter(|r| r.budget.is_none()) {
                flight.record(FlightKind::RuleBanned, &r.name, step);
            }
            // The match stream stops exactly at the budget, so reaching it
            // means the scheduler cut the rule short.
            for r in &it.rules {
                if let Some(limit) = r.budget.filter(|&l| l > 0 && r.matches >= l) {
                    flight.record(FlightKind::BudgetTruncated, &r.name, limit as f64);
                }
            }
            for r in it.rules.iter().filter(|r| r.applied > 0) {
                flight.record(FlightKind::RuleFired, &r.name, r.applied as f64);
            }
        }
        if !sink.on() {
            return;
        }
        let us = |d: Duration| d.as_micros() as u64;
        let start = sink.now_us().saturating_sub(us(it.total_time));
        let step_span = sink.begin_at("step", start);
        let search = sink.begin_at("search", start);
        for r in it.rules.iter().filter(|r| r.budget.is_none()) {
            sink.instant_at(format_args!("ban/{}", r.name), start, &[("step", step)]);
        }
        let mut t = start;
        for r in it.rules.iter().filter(|r| r.budget.is_some()) {
            let span = sink.begin_at(format_args!("search/{}", r.name), t);
            t += us(r.search_time);
            sink.end_at(span, t, &[("matches", r.matches as f64)]);
        }
        let apply_start = start + us(it.search_time);
        let (candidates, matches) = (it.search_candidates as f64, it.search_matches as f64);
        sink.end_at(search, apply_start, &[("candidates", candidates), ("matches", matches)]);
        let apply = sink.begin_at("apply", apply_start);
        let mut t = apply_start;
        for r in &it.rules {
            let span = sink.begin_at(format_args!("apply/{}", r.name), t);
            t += us(r.apply_time);
            sink.end_at(span, t, &[("changed", r.applied as f64)]);
        }
        let rebuild_start = apply_start + us(it.apply_time);
        sink.end_at(apply, rebuild_start, &[]);
        let rebuild = sink.begin_at("rebuild", rebuild_start);
        let unions = [("unions", it.rebuild_unions as f64)];
        sink.end_at(rebuild, rebuild_start + us(it.rebuild_time), &unions);
        sink.end_at(step_span, start + us(it.total_time), &[("step", step)]);
        // Growth gauges, sampled after the rebuild (when the counts are
        // exact): e-nodes, e-classes, and hash-cons memo entries.
        sink.counter("egraph/nodes", it.n_nodes as f64);
        sink.counter("egraph/classes", it.n_classes as f64);
        sink.counter("egraph/memo", egraph.memo_len() as f64);
    }

    /// The scheduler every pipeline mode uses.
    fn scheduler(&self) -> BackoffScheduler {
        BackoffScheduler::new(self.match_limit, 2)
            // The intro rules pair classes quadratically; give them a
            // tighter budget so they cannot starve the idiom rules.
            .with_rule_limit("intro-lambda", self.match_limit / 4)
            .with_rule_limit("intro-index-build", self.match_limit / 4)
            .with_rule_limit("intro-fst-tuple", self.match_limit / 8)
            .with_rule_limit("intro-snd-tuple", self.match_limit / 8)
    }

    /// Run the full workflow on `expr`, extracting the best expression
    /// after every saturation step.
    pub fn optimize(&self, expr: &Expr) -> OptimizationReport {
        self.optimize_with_egraph(expr).0
    }

    /// Run the full workflow **with proof production**: the pipeline's
    /// explanation knob is forced on for this run, and alongside the
    /// report you get a replayable [`ArrayExplanation`] that the source
    /// expression equals the final best expression. Check it with
    /// [`liar_egraph::Explanation::check`] against
    /// [`crate::rules::rules_for`]`(target, config)`.
    pub fn optimize_explained(&self, expr: &Expr) -> (OptimizationReport, ArrayExplanation) {
        let explained = self.clone().with_explanations(true);
        let (report, mut egraph) = explained.optimize_with_egraph(expr);
        let proof = egraph.explain_equivalence(expr, &report.best().best);
        (report, proof)
    }

    /// Run the full workflow and also return the saturated e-graph
    /// (`liar dot` renders it; with [`Liar::with_explanations`] the
    /// e-graph can still answer
    /// [`explain_equivalence`](liar_egraph::EGraph::explain_equivalence)
    /// queries about the run).
    pub fn optimize_with_egraph(&self, expr: &Expr) -> (OptimizationReport, ArrayEGraph) {
        let rules = rules_for_targets(&[self.target], &self.config);
        let cost_fn = TargetCost::new(self.target).with_discount_scale(self.discount_scale);
        let mut steps = Vec::new();
        let extract_step = |egraph: &ArrayEGraph, root, it: &Iteration, sink: &mut TraceSink| {
            let span = sink.begin("extract/step");
            let (cost, best) = Extractor::new(egraph, cost_fn).find_best(root);
            let lib_calls = count_lib_calls(&best);
            sink.end_with(span, &[("step", it.index as f64)]);
            steps.push(StepReport {
                step: it.index,
                n_nodes: it.n_nodes,
                n_classes: it.n_classes,
                step_time: it.total_time,
                search_time: it.search_time,
                search_candidates: it.search_candidates,
                frontier_candidates: it.search_candidates,
                search_matches: it.search_matches,
                applied: it.rules.iter().map(|r| (r.name.clone(), r.applied)).collect(),
                best,
                cost,
                lib_calls,
            });
        };
        let (runner, _, stop_reason) = self.saturate(expr, &rules, &mut self.sink(), extract_step);
        let report = OptimizationReport {
            target: self.target,
            steps,
            stop_reason,
        };
        (report, runner.egraph)
    }

    /// Saturate **once** with the union of `targets`' rule sets, then
    /// extract one solution per `(target, discount_scale)` pair from the
    /// same e-graph — the paper's "one cost model walks the saturated
    /// e-graph" (§II(c)), amortized across every cost model of interest.
    ///
    /// The e-graph a saturation produces is target-independent (rules only
    /// ever *add* equivalences; a target's calls cost infinity under
    /// another target's model and are never selected), so per-target
    /// solutions extracted here match what the per-target pipelines find,
    /// at a fraction of the total time: see
    /// `tests/extract_differential.rs` and the `extract` bench.
    ///
    /// One caveat: the standalone pure-C pipeline saturates a *smaller*
    /// ruleset (core + scalar only), so on a kernel whose loop-form
    /// search is still iteration-truncated it can reach a normal form the
    /// union run has not derived yet. Library-call solutions converge
    /// robustly; pure-C parity is guaranteed once saturation converges
    /// (see docs/EXTRACTION.md, "Fidelity").
    ///
    /// Each solution carries both tree and DAG costs ([`MultiSolution`]).
    ///
    /// # Errors
    ///
    /// [`OptimizeError`] when some requested `(target, discount_scale,
    /// profile)` has no finite-cost term for the root — e.g. the input is
    /// a library call of a foreign target. Errors are never cached.
    ///
    /// # Example
    ///
    /// ```
    /// use liar_core::{Liar, Target};
    /// use liar_ir::dsl;
    ///
    /// let vsum = dsl::vsum(64, dsl::sym("xs"));
    /// let report = Liar::new(Target::Blas)
    ///     .with_iter_limit(6)
    ///     .optimize_multi(&vsum, &Target::ALL, &[1.0])
    ///     .expect("every target can extract a vsum");
    /// // One saturation, three library mappings:
    /// let blas = report.solution(Target::Blas).unwrap();
    /// let torch = report.solution(Target::Torch).unwrap();
    /// assert_eq!(blas.solution_summary(), "1 × dot");
    /// assert_eq!(torch.solution_summary(), "1 × sum");
    /// assert!(blas.dag_cost <= blas.cost);
    /// ```
    pub fn optimize_multi(
        &self,
        expr: &Expr,
        targets: &[Target],
        discount_scales: &[f64],
    ) -> Result<MultiReport, OptimizeError> {
        Ok(self.optimize_multi_status(expr, targets, discount_scales)?.0)
    }

    /// [`Liar::optimize_multi`], also reporting whether the report came
    /// from the attached saturation cache.
    ///
    /// With a cache attached ([`Liar::with_cache`]), the request is keyed
    /// by [`Liar::request_fingerprint`]; a hit returns a clone of the
    /// stored report — **bit-identical** to the run that populated
    /// it, per-step statistics and timings included — and bumps its LRU
    /// recency. A miss computes the report and stores it. Failed requests
    /// ([`OptimizeError`]) are not stored.
    ///
    /// With a durable snapshot store also attached
    /// ([`Liar::with_snapshot_store`]), a cache miss next consults the
    /// store: a restorable on-disk snapshot answers with extraction only
    /// ([`CacheStatus::Warm`] — empty [`steps`](MultiReport::steps), the
    /// original run's stop reason) and the warm report is promoted into
    /// the in-memory cache. Cold computations persist their saturated
    /// e-graph to the store before extracting, so the answer survives the
    /// process.
    pub fn optimize_multi_status(
        &self,
        expr: &Expr,
        targets: &[Target],
        discount_scales: &[f64],
    ) -> Result<(MultiReport, CacheStatus), OptimizeError> {
        let fp = (self.cache.is_some() || self.store.is_some())
            .then(|| self.request_fingerprint(expr, targets, discount_scales));
        if let (Some(cache), Some(fp)) = (&self.cache, fp) {
            if let Some(report) = cache.get(fp) {
                if let Some(flight) = &self.flight {
                    flight.record(FlightKind::CacheHit, fp.to_string(), 0.0);
                }
                return Ok(((*report).clone(), CacheStatus::Hit));
            }
        }
        let mut sink = self.sink();
        if let (Some(store), Some(fp)) = (&self.store, fp) {
            let span = sink.begin("snapshot/load");
            let loaded = store.load(fp);
            sink.end_with(
                span,
                &[
                    ("hit", loaded.is_some() as u8 as f64),
                    (
                        "bytes",
                        loaded.as_ref().map_or(0.0, |(_, b)| b.len() as f64),
                    ),
                ],
            );
            if let Some((stop_reason, bytes)) = loaded {
                let restored = self.try_restore_multi(
                    stop_reason,
                    &bytes,
                    expr,
                    targets,
                    discount_scales,
                    &mut sink,
                );
                if let Some(result) = restored {
                    if let Some(flight) = &self.flight {
                        flight.record(
                            FlightKind::SnapshotRestore,
                            fp.to_string(),
                            bytes.len() as f64,
                        );
                    }
                    let (report, status) = result?;
                    if let Some(cache) = &self.cache {
                        cache.insert(fp, Arc::new(report.clone()));
                    }
                    return Ok((report, status));
                }
                // The snapshot would not restore (corrupt, stale version,
                // or its graph no longer contains the request's root):
                // fall through to a cold run, whose fresh snapshot
                // overwrites the bad file.
            }
        }
        if let (Some(flight), Some(fp)) = (&self.flight, fp) {
            // A cache is attached but had no answer: the request runs
            // cold. (With no cache attached there is nothing to miss.)
            flight.record(FlightKind::CacheMiss, fp.to_string(), 0.0);
        }
        let report = self.compute_multi(expr, targets, discount_scales, fp, &mut sink)?;
        match (&self.cache, fp) {
            (Some(cache), Some(fp)) => {
                cache.insert(fp, Arc::new(report.clone()));
                Ok((report, CacheStatus::Miss))
            }
            _ => Ok((report, CacheStatus::Uncached)),
        }
    }

    /// Answer a request from a stored snapshot: restore the e-graph, find
    /// the request's root and run extraction only.
    ///
    /// `None` means the snapshot is unusable (restore failed, or the
    /// expression is not in the restored graph) and the caller must run
    /// cold. `Some(Err)` is a genuine [`OptimizeError`] — the restored
    /// graph is fine but the request is unsatisfiable, exactly as a cold
    /// run would report.
    fn try_restore_multi(
        &self,
        stop_reason: StopReason,
        bytes: &[u8],
        expr: &Expr,
        targets: &[Target],
        discount_scales: &[f64],
        sink: &mut TraceSink,
    ) -> Option<Result<(MultiReport, CacheStatus), OptimizeError>> {
        let span = sink.begin("snapshot/restore");
        let restored = ArrayEGraph::restore(ArrayAnalysis::default(), bytes);
        sink.end_with(
            span,
            &[
                ("bytes", bytes.len() as f64),
                ("ok", restored.is_ok() as u8 as f64),
            ],
        );
        let mut egraph = restored.ok()?;
        let root = egraph.lookup_expr(expr)?;
        let solutions = match self.extract_solutions(
            &mut egraph,
            root,
            expr,
            targets,
            discount_scales,
            sink,
        ) {
            Ok(solutions) => solutions,
            Err(e) => return Some(Err(e)),
        };
        Some(Ok((
            MultiReport {
                targets: targets.to_vec(),
                discount_scales: discount_scales.to_vec(),
                profiles: self.profiles.iter().map(|p| p.name.to_string()).collect(),
                stop_reason,
                // Zero saturation steps ran: the warm answer is extraction
                // over the restored graph.
                steps: Vec::new(),
                saturation_time: Duration::ZERO,
                n_nodes: egraph.num_nodes(),
                n_classes: egraph.num_classes(),
                solutions,
                // No saturation ran, so there is no growth to attribute.
                inspect: None,
            },
            CacheStatus::Warm,
        )))
    }

    /// Saturate `expr` once with the union ruleset of `targets` and hand
    /// back the saturated e-graph plus the root class — the shared first
    /// half of [`Liar::optimize_multi`], for callers that want to run
    /// their own extraction over it (the extraction gym benches tree /
    /// DAG / exact extractors this way; `liar optimize --extractor exact`
    /// does too).
    pub fn saturate_for_targets(&self, expr: &Expr, targets: &[Target]) -> (ArrayEGraph, Id) {
        let rules = rules_for_targets(targets, &self.config);
        let (runner, root, _) = self.saturate(expr, &rules, &mut self.sink(), |_, _, _, _| {});
        (runner.egraph, root)
    }

    /// Saturate `expr` once with the union ruleset of `targets` and
    /// return the growth tables — the engine behind `liar inspect`. The
    /// returned report always satisfies [`InspectReport::check`].
    pub fn inspect(&self, expr: &Expr, targets: &[Target]) -> InspectReport {
        let rules = rules_for_targets(targets, &self.config);
        let (runner, ..) = self.saturate(expr, &rules, &mut self.sink(), |_, _, _, _| {});
        InspectReport::from_runner(&runner)
    }

    /// The uncached "saturate once, extract everywhere" computation: saturate
    /// with the union ruleset and extract everything. With a snapshot store
    /// attached, the saturated e-graph is persisted *before* proof
    /// production touches it, keyed by the request's fingerprint `fp`.
    fn compute_multi(
        &self,
        expr: &Expr,
        targets: &[Target],
        discount_scales: &[f64],
        fp: Option<Fingerprint>,
        sink: &mut TraceSink,
    ) -> Result<MultiReport, OptimizeError> {
        let rules = rules_for_targets(targets, &self.config);
        let mut steps = Vec::new();
        let record_step = |_: &ArrayEGraph, _, it: &Iteration, _: &mut TraceSink| {
            steps.push(SaturationStep {
                step: it.index,
                n_nodes: it.n_nodes,
                n_classes: it.n_classes,
                step_time: it.total_time,
                search_time: it.search_time,
                search_candidates: it.search_candidates,
                frontier_candidates: it.search_candidates,
                search_matches: it.search_matches,
            });
        };
        let start = Instant::now();
        let (mut runner, root, stop_reason) = self.saturate(expr, &rules, sink, record_step);
        let saturation_time = start.elapsed();

        // Fold the growth tables before extraction: proof production may
        // add spellings to the e-graph, but the tables describe the
        // *saturated* graph.
        let inspect = self.attribution.then(|| InspectReport::from_runner(&runner));

        // Persist the saturated e-graph before extraction and proof
        // production: extraction never mutates it, but explain_equivalence
        // grows the provenance forest, and the snapshot must capture the
        // graph every future restore-then-prove will reproduce from.
        if let (Some(store), Some(fp)) = (&self.store, fp) {
            let save_span = sink.begin("snapshot/save");
            let mut saved_bytes = 0.0;
            if let Ok(bytes) = runner.egraph.snapshot() {
                saved_bytes = bytes.len() as f64;
                // Best-effort durability: a full disk must not fail the
                // request itself.
                let _ = store.save(fp, &stop_reason, &bytes);
            }
            sink.end_with(save_span, &[("bytes", saved_bytes)]);
        }

        let solutions = self.extract_solutions(
            &mut runner.egraph,
            root,
            expr,
            targets,
            discount_scales,
            sink,
        )?;

        Ok(MultiReport {
            targets: targets.to_vec(),
            discount_scales: discount_scales.to_vec(),
            profiles: self.profiles.iter().map(|p| p.name.to_string()).collect(),
            stop_reason,
            steps,
            saturation_time,
            n_nodes: runner.egraph.num_nodes(),
            n_classes: runner.egraph.num_classes(),
            solutions,
            inspect,
        })
    }

    /// Extract one [`MultiSolution`] per `(target, scale, profile)` from a
    /// saturated e-graph — the shared extraction half of both multi-target
    /// modes (cold and warm-restored). Mutates the e-graph only
    /// when explanations are on (proof production grows the provenance
    /// forest).
    fn extract_solutions(
        &self,
        egraph: &mut ArrayEGraph,
        root: Id,
        expr: &Expr,
        targets: &[Target],
        discount_scales: &[f64],
        sink: &mut TraceSink,
    ) -> Result<Vec<MultiSolution>, OptimizeError> {
        // Flatten the saturated e-graph once; every target × scale ×
        // profile extraction runs over the shared snapshot. The flatten
        // cost is charged to each solution as an equal share of the
        // amortized whole, so per-target `extract_time`s still sum to the
        // real extraction wall-clock.
        let n_extractions =
            (targets.len() * discount_scales.len() * self.profiles.len()).max(1);
        let (n_nodes, n_classes) = (egraph.num_nodes(), egraph.num_classes());
        let flatten_span = sink.begin("extract/flatten");
        let flatten_start = Instant::now();
        let flat = liar_egraph::FlatGraph::new(egraph);
        let flatten_share = flatten_start.elapsed() / n_extractions as u32;
        sink.end_with(
            flatten_span,
            &[("nodes", n_nodes as f64), ("classes", n_classes as f64)],
        );

        let mut solutions = Vec::with_capacity(n_extractions);
        for &target in targets {
            for &scale in discount_scales {
                for profile in &self.profiles {
                    let cost_fn = TargetCost::new(target)
                        .with_discount_scale(scale)
                        .with_profile(*profile);
                    let err = || OptimizeError {
                        target,
                        discount_scale: scale,
                        profile: profile.name.to_string(),
                    };
                    let span = sink.begin(format_args!("extract/{target}"));
                    let start = Instant::now();
                    let extractor = DagExtractor::with_flat(&flat, cost_fn);
                    let (cost, best) = extractor
                        .tree_extractor()
                        .try_find_best(root)
                        .map_err(|_| err())?;
                    let (dag_cost, dag_best) =
                        extractor.try_find_best(root).map_err(|_| err())?;
                    let stats = extractor.stats();
                    drop(extractor);
                    let extract_time = start.elapsed() + flatten_share;
                    sink.end_with(
                        span,
                        &[
                            ("scale", scale),
                            ("cost", cost),
                            ("dag_cost", dag_cost),
                            ("relaxations", stats.relaxations as f64),
                            ("revisits", stats.revisits as f64),
                            ("passes", stats.passes as f64),
                        ],
                    );
                    let lib_calls = count_lib_calls(&best);
                    solutions.push(MultiSolution {
                        target,
                        discount_scale: scale,
                        profile: profile.name.to_string(),
                        best,
                        cost,
                        dag_best,
                        dag_cost,
                        lib_calls,
                        extract_time,
                        stats,
                        proof: None,
                    });
                }
            }
        }
        drop(flat);
        if self.explain {
            // Proof production mutates the e-graph's provenance forest, so
            // it runs after the shared flatten is released.
            for sol in &mut solutions {
                let span = sink.begin(format_args!("explain/{}", sol.target));
                sol.proof = Some(egraph.explain_equivalence(expr, &sol.best));
                let len = sol.proof.as_ref().map_or(0, |p| p.len());
                sink.end_with(span, &[("proof_len", len as f64)]);
            }
        }
        Ok(solutions)
    }

    /// [`Liar::optimize_multi`] over all three targets at this pipeline's
    /// discount scale.
    ///
    /// # Errors
    ///
    /// See [`Liar::optimize_multi`].
    pub fn optimize_all_targets(&self, expr: &Expr) -> Result<MultiReport, OptimizeError> {
        self.optimize_multi(expr, &Target::ALL, &[self.discount_scale])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liar_egraph::RuleStep;
    use liar_ir::dsl;
    use liar_trace::{Event, EventKind};

    /// Saturate `expr` under `liar` with `rules` and no hook, recording on
    /// `liar`'s trace recorder (if any); the sink is flushed on return.
    fn saturate_with(
        liar: &Liar,
        expr: &Expr,
        rules: &[ArrayRewrite],
    ) -> Runner<ArrayLang, ArrayAnalysis> {
        liar.saturate(expr, rules, &mut liar.sink(), |_, _, _, _| {}).0
    }

    /// An event as `<kind> <name> <arg>=<value>…`, without its times.
    fn render(e: &Event) -> String {
        let kind = match e.kind {
            EventKind::Span => "S",
            EventKind::Instant => "I",
            EventKind::Counter => "C",
        };
        let args: String = e.args.iter().map(|(k, v)| format!(" {k}={v}")).collect();
        format!("{kind} {}{args}", e.name)
    }

    /// What each rule did in a step, without its times.
    fn rule_counts(it: &Iteration) -> Vec<(String, Option<usize>, [usize; 5])> {
        let counts = |r: &RuleStep| {
            [r.candidates, r.matches, r.applied, r.nodes_created, r.classes_merged]
        };
        it.rules.iter().map(|r| (r.name.clone(), r.budget, counts(r))).collect()
    }

    #[test]
    fn step_events_are_derived_from_the_record_unchanged() {
        // Four rules, three steps, and budgets small enough (the intro
        // rules get 2) that rules are truncated, fire and are banned.
        let rec = Recorder::new();
        let flight = Arc::new(FlightRecorder::new(64));
        let liar = Liar::new(Target::Blas)
            .with_iter_limit(4)
            .with_match_limit(8)
            .with_trace(Arc::clone(&rec))
            .with_flight(Arc::clone(&flight));
        let keep = ["beta-reduce", "intro-lambda", "intro-index-build", "idiom-dot"];
        let rules: Vec<ArrayRewrite> = rules_for_targets(&[Target::Blas], &RuleConfig::default())
            .into_iter()
            .filter(|r| keep.contains(&r.name()))
            .collect();
        let runner = saturate_with(&liar, &dsl::vsum(8, dsl::sym("xs")), &rules);

        // Pinned from a runner that fed both streams itself: deriving them
        // from the record must keep every kind, name, argument and order.
        let flight_expected = [
            "budget_truncated intro-lambda 2",
            "rule_fired intro-lambda 2",
            "rule_banned intro-lambda 2",
            "budget_truncated intro-index-build 2",
            "rule_fired intro-index-build 2",
            "rule_banned intro-lambda 3",
            "rule_banned intro-index-build 3",
        ];
        let trace_expected = [
            "S saturate steps=3 nodes=16 classes=12",
            "S step step=1",
            "S search candidates=2 matches=2",
            "S search/beta-reduce matches=0",
            "S search/intro-lambda matches=2",
            "S search/intro-index-build matches=0",
            "S search/idiom-dot matches=0",
            "S apply",
            "S apply/beta-reduce changed=0",
            "S apply/intro-lambda changed=2",
            "S apply/intro-index-build changed=0",
            "S apply/idiom-dot changed=0",
            "S rebuild unions=0",
            "C egraph/nodes value=13",
            "C egraph/classes value=11",
            "C egraph/memo value=13",
            "S step step=2",
            "S search candidates=3 matches=4",
            "I ban/intro-lambda step=2",
            "S search/beta-reduce matches=2",
            "S search/intro-index-build matches=2",
            "S search/idiom-dot matches=0",
            "S apply",
            "S apply/beta-reduce changed=0",
            "S apply/intro-lambda changed=0",
            "S apply/intro-index-build changed=2",
            "S apply/idiom-dot changed=0",
            "S rebuild unions=0",
            "C egraph/nodes value=16",
            "C egraph/classes value=12",
            "C egraph/memo value=16",
            "S step step=3",
            "S search candidates=2 matches=2",
            "I ban/intro-lambda step=3",
            "I ban/intro-index-build step=3",
            "S search/beta-reduce matches=2",
            "S search/idiom-dot matches=0",
            "S apply",
            "S apply/beta-reduce changed=0",
            "S apply/intro-lambda changed=0",
            "S apply/intro-index-build changed=0",
            "S apply/idiom-dot changed=0",
            "S rebuild unions=0",
            "C egraph/nodes value=16",
            "C egraph/classes value=12",
            "C egraph/memo value=16",
        ];
        let flight_got: Vec<String> = flight
            .tail(64)
            .iter()
            .map(|e| format!("{} {} {}", e.kind.name(), e.detail, e.value))
            .collect();
        assert_eq!(flight_got, flight_expected);
        let events = rec.events();
        let trace_got: Vec<String> = events.iter().map(render).collect();
        assert_eq!(trace_got, trace_expected);

        // Each per-rule span lasts exactly its recorded time, inside its
        // phase's span.
        let us = |d: Duration| d.as_micros() as u64;
        let (mut step, mut phase, mut checked) = (0, None::<&Event>, 0);
        for e in events.iter().filter(|e| e.kind == EventKind::Span) {
            let Some((phase_name, rule)) = e.name.split_once('/') else {
                step += (e.name == "step") as usize;
                if matches!(e.name.as_str(), "search" | "apply") {
                    phase = Some(e);
                }
                continue;
            };
            let r = runner.iterations[step - 1].rules.iter().find(|r| r.name == rule).unwrap();
            let time = if phase_name == "search" { r.search_time } else { r.apply_time };
            assert_eq!(e.dur_us, us(time), "step {step}: {}", e.name);
            let p = phase.expect("a phase span is open");
            assert_eq!(p.name, phase_name, "step {step}: {} outside its phase", e.name);
            assert!(p.start_us <= e.start_us, "step {step}: {} starts early", e.name);
            assert!(e.start_us + e.dur_us <= p.start_us + p.dur_us, "step {step}: {}", e.name);
            checked += 1;
        }
        let per_rule_spans: usize = runner
            .iterations
            .iter()
            .map(|it| it.rules.len() + it.rules.iter().filter(|r| r.budget.is_some()).count())
            .sum();
        assert_eq!(checked, per_rule_spans);
    }

    #[test]
    fn traced_runs_are_bit_identical_and_spans_nest() {
        let expr = dsl::vsum(8, dsl::sym("xs"));
        let rules = rules_for_targets(&[Target::Blas], &RuleConfig::default());
        let liar = Liar::new(Target::Blas).with_iter_limit(4).with_match_limit(16);
        let plain = saturate_with(&liar, &expr, &rules);
        let rec = Recorder::new();
        let traced = saturate_with(&liar.clone().with_trace(Arc::clone(&rec)), &expr, &rules);
        assert_eq!(plain.stop_reason, traced.stop_reason);
        assert_eq!(plain.iterations.len(), traced.iterations.len());
        for (p, t) in plain.iterations.iter().zip(&traced.iterations) {
            assert_eq!(p.n_nodes, t.n_nodes, "step {}", p.index);
            assert_eq!(rule_counts(p), rule_counts(t), "step {}", p.index);
            assert_eq!(p.search_matches, t.search_matches, "step {}", p.index);
        }

        let events = rec.events();
        let spans = |name: &str| -> Vec<&Event> {
            let named = |e: &&Event| e.kind == EventKind::Span && e.name == name;
            events.iter().filter(named).collect()
        };
        let steps = spans("step");
        assert_eq!(steps.len(), traced.iterations.len());
        // Every phase span sits inside its step's span.
        for phase in ["search", "apply", "rebuild"] {
            let phases = spans(phase);
            assert_eq!(phases.len(), steps.len(), "{phase} spans");
            for (p, s) in phases.iter().zip(&steps) {
                assert!(p.start_us >= s.start_us, "{phase} starts in step");
                assert!(p.start_us + p.dur_us <= s.start_us + s.dur_us, "{phase} ends in step");
            }
        }
        // Growth gauges sample every step, as counters not spans.
        assert!(spans("egraph/nodes").is_empty());
        let nodes = events
            .iter()
            .filter(|e| e.kind == EventKind::Counter && e.name == "egraph/nodes")
            .count();
        assert_eq!(nodes, traced.iterations.len());
    }

    #[test]
    fn each_unbanned_rule_gets_one_search_span_per_step() {
        let expr = dsl::vsum(8, dsl::sym("xs"));
        let rules = rules_for_targets(&[Target::Blas], &RuleConfig::default());
        let rec = Recorder::new();
        let liar = Liar::new(Target::Blas)
            .with_iter_limit(4)
            .with_match_limit(16)
            .with_trace(Arc::clone(&rec));
        let runner = saturate_with(&liar, &expr, &rules);
        let events = rec.events();
        let count = |name: String| events.iter().filter(|e| e.name == name).count();
        let (mut empty, mut banned) = (0, 0);
        for rule in &rules {
            let steps = runner.iterations.iter().map(|it| {
                it.rules.iter().find(|r| r.name == rule.name()).expect("every rule is recorded")
            });
            let searched = steps.clone().filter(|r| r.budget.is_some()).count();
            // A rule whose root operator never occurs has no candidate
            // class; it still gets its span every step it is not banned.
            empty += steps.clone().filter(|r| r.budget.is_some() && r.candidates == 0).count();
            banned += steps.len() - searched;
            assert_eq!(count(format!("search/{}", rule.name())), searched, "{}", rule.name());
            assert_eq!(count(format!("apply/{}", rule.name())), runner.iterations.len());
        }
        assert!(empty > 0 && banned > 0, "no empty candidate list ({empty}) or ban ({banned})");
    }

    #[test]
    fn vsum_blas_finds_dot() {
        let vsum = dsl::vsum(64, dsl::sym("xs"));
        let report = Liar::new(Target::Blas).with_iter_limit(6).optimize(&vsum);
        let best = report.best();
        assert_eq!(best.lib_calls.get("dot"), Some(&1), "best: {}", best.best);
        assert_eq!(best.solution_summary(), "1 × dot");
    }

    #[test]
    fn vsum_torch_finds_sum() {
        let vsum = dsl::vsum(64, dsl::sym("xs"));
        let report = Liar::new(Target::Torch).with_iter_limit(6).optimize(&vsum);
        let best = report.best();
        assert_eq!(best.lib_calls.get("sum"), Some(&1), "best: {}", best.best);
    }

    #[test]
    fn pure_c_never_calls_libraries() {
        let vsum = dsl::vsum(64, dsl::sym("xs"));
        let report = Liar::new(Target::PureC).with_iter_limit(4).optimize(&vsum);
        for step in &report.steps {
            assert!(step.lib_calls.is_empty(), "pure C solution has calls");
        }
    }

    #[test]
    fn memset_kernel() {
        let memset = dsl::constvec(128, dsl::num(0.0));
        let report = Liar::new(Target::Blas).with_iter_limit(4).optimize(&memset);
        assert_eq!(report.best().solution_summary(), "1 × memset");
        let report = Liar::new(Target::Torch).with_iter_limit(4).optimize(&memset);
        assert_eq!(report.best().solution_summary(), "1 × full");
    }

    #[test]
    fn step_zero_is_initial_expression() {
        let axpy = dsl::vadd(
            16,
            dsl::vscale(16, dsl::sym("alpha"), dsl::sym("A")),
            dsl::sym("B"),
        );
        let report = Liar::new(Target::Blas).with_iter_limit(5).optimize(&axpy);
        assert_eq!(report.steps[0].step, 0);
        assert!(report.steps[0].lib_calls.is_empty());
        // Later steps discover axpy.
        assert_eq!(report.best().solution_summary(), "1 × axpy");
        // Costs only improve over steps.
        for w in report.steps.windows(2) {
            assert!(w[1].cost <= w[0].cost, "cost must be monotone");
        }
    }

    #[test]
    fn multi_target_extracts_every_target_from_one_saturation() {
        let vsum = dsl::vsum(64, dsl::sym("xs"));
        let report = Liar::new(Target::Blas)
            .with_iter_limit(6)
            .optimize_multi(&vsum, &Target::ALL, &[1.0])
            .unwrap();
        assert_eq!(report.solutions.len(), 3);
        assert!(report.solutions.iter().all(|s| s.profile == "default"));
        assert_eq!(
            report.solution(Target::Blas).unwrap().solution_summary(),
            "1 × dot"
        );
        assert_eq!(
            report.solution(Target::Torch).unwrap().solution_summary(),
            "1 × sum"
        );
        let pure_c = report.solution(Target::PureC).unwrap();
        assert!(pure_c.lib_calls.is_empty(), "pure C solution has calls");
        for s in &report.solutions {
            assert!(
                s.dag_cost <= s.cost,
                "{}: dag {} > tree {}",
                s.target,
                s.dag_cost,
                s.cost
            );
            assert!(s.sharing_discount() >= 0.0);
        }
        // Step 0 records the un-rewritten e-graph; later steps grow it.
        assert_eq!(report.steps[0].step, 0);
        assert!(report.steps.len() > 1);
        assert!(report.n_nodes >= report.steps[0].n_nodes);
    }

    #[test]
    fn multi_target_discount_sweep() {
        let vsum = dsl::vsum(100, dsl::sym("xs"));
        let report = Liar::new(Target::Blas)
            .with_iter_limit(6)
            .optimize_multi(&vsum, &[Target::Blas], &[1.0, 20.0])
            .unwrap();
        assert_eq!(report.solutions.len(), 2);
        // At the paper's factors the call wins; at scale 20 it loses.
        assert_eq!(
            report.solution_at(Target::Blas, 1.0).unwrap().solution_summary(),
            "1 × dot"
        );
        assert_eq!(
            report.solution_at(Target::Blas, 20.0).unwrap().solution_summary(),
            "—"
        );
    }

    #[test]
    fn unextractable_request_is_a_structured_error() {
        // The input *is* a BLAS call: under the Torch model every
        // equivalent term prices at infinity, so the request must fail
        // with a structured error, not a panic.
        let axpy: Expr = "(axpy #8 alpha A B)".parse().unwrap();
        let err = Liar::new(Target::Torch)
            .with_iter_limit(2)
            .optimize_multi(&axpy, &[Target::Torch], &[1.0])
            .unwrap_err();
        assert_eq!(err.target, Target::Torch);
        assert_eq!(err.profile, "default");
        assert!(err.to_string().contains("no extractable solution"));
        // The same request for BLAS succeeds.
        assert!(Liar::new(Target::Blas)
            .with_iter_limit(2)
            .optimize_multi(&axpy, &[Target::Blas], &[1.0])
            .is_ok());
    }

    #[test]
    fn machine_profiles_multiply_solutions_not_saturations() {
        let vsum = dsl::vsum(100, dsl::sym("xs"));
        let report = Liar::new(Target::Blas)
            .with_iter_limit(6)
            .with_profiles(vec![MachineProfile::default(), MachineProfile::gpu()])
            .optimize_multi(&vsum, &[Target::Blas], &[1.0])
            .unwrap();
        // One saturation, two profile extractions.
        assert_eq!(report.solutions.len(), 2);
        assert_eq!(report.profiles, vec!["default", "gpu"]);
        let default = report.solution_for(Target::Blas, 1.0, "default").unwrap();
        let gpu = report.solution_for(Target::Blas, 1.0, "gpu").unwrap();
        // Both find the dot, but the gpu profile prices it differently.
        assert_eq!(default.solution_summary(), "1 × dot");
        assert_eq!(gpu.solution_summary(), "1 × dot");
        assert_ne!(default.cost, gpu.cost);
    }

    #[test]
    fn profiled_requests_have_distinct_fingerprints() {
        let vsum = dsl::vsum(64, dsl::sym("xs"));
        let base = Liar::new(Target::Blas);
        let gpu = Liar::new(Target::Blas).with_profiles(vec![MachineProfile::gpu()]);
        assert_ne!(
            base.request_fingerprint(&vsum, &[Target::Blas], &[1.0]),
            gpu.request_fingerprint(&vsum, &[Target::Blas], &[1.0]),
            "profile changes must miss the saturation cache"
        );
    }

    fn store_in(tag: &str) -> (Arc<SnapshotStore>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "liar-pipeline-store-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (Arc::new(SnapshotStore::open(&dir).unwrap()), dir)
    }

    fn assert_same_solutions(warm: &MultiReport, cold: &MultiReport) {
        assert_eq!(warm.solutions.len(), cold.solutions.len());
        for (w, c) in warm.solutions.iter().zip(&cold.solutions) {
            assert_eq!(w.target, c.target);
            assert_eq!(w.best, c.best, "{}: tree solution diverged", w.target);
            assert_eq!(w.cost, c.cost);
            assert_eq!(w.dag_best, c.dag_best);
            assert_eq!(w.dag_cost, c.dag_cost);
            assert_eq!(w.lib_calls, c.lib_calls);
        }
    }

    #[test]
    fn snapshot_store_answers_warm_without_saturating() {
        let (store, dir) = store_in("warm");
        let liar = Liar::new(Target::Blas)
            .with_iter_limit(6)
            .with_snapshot_store(Arc::clone(&store));
        let vsum = dsl::vsum(64, dsl::sym("xs"));
        let (cold, s1) = liar
            .optimize_multi_status(&vsum, &Target::ALL, &[1.0])
            .unwrap();
        assert_eq!(s1, CacheStatus::Uncached, "no in-memory cache attached");
        assert_eq!(store.len(), 1, "the cold run persisted its snapshot");
        let (warm, s2) = liar
            .optimize_multi_status(&vsum, &Target::ALL, &[1.0])
            .unwrap();
        assert_eq!(s2, CacheStatus::Warm);
        assert!(warm.steps.is_empty(), "warm answers run zero saturation steps");
        assert_eq!(warm.stop_reason, cold.stop_reason);
        assert_eq!(warm.n_nodes, cold.n_nodes);
        assert_eq!(warm.n_classes, cold.n_classes);
        assert_same_solutions(&warm, &cold);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_store_file_falls_back_cold_and_self_heals() {
        let (store, dir) = store_in("heal");
        let liar = Liar::new(Target::Blas)
            .with_iter_limit(4)
            .with_snapshot_store(Arc::clone(&store));
        let memset = dsl::constvec(128, dsl::num(0.0));
        let fp = liar.request_fingerprint(&memset, &[Target::Blas], &[1.0]);
        let (cold, _) = liar
            .optimize_multi_status(&memset, &[Target::Blas], &[1.0])
            .unwrap();
        let saved = store.load(fp).expect("the cold run persisted its snapshot");
        // A well-formed store entry whose snapshot the previous format
        // version wrote, as every store holds after an upgrade: the store
        // header passes, restore must refuse it.
        let mut stale = saved.1.clone();
        let previous = liar_egraph::SNAPSHOT_VERSION - 1;
        stale[8..12].copy_from_slice(&previous.to_le_bytes());
        for stale_version in [false, true] {
            // Vandalize the stored snapshot: the next request must not
            // trust it — and must not fail either.
            if stale_version {
                store.save(fp, &saved.0, &stale).unwrap();
            } else {
                std::fs::write(store.path_for(fp), b"garbage, not a snapshot").unwrap();
            }
            let what = if stale_version { "stale snapshot version" } else { "garbage file" };
            let (healed, status) = liar
                .optimize_multi_status(&memset, &[Target::Blas], &[1.0])
                .unwrap();
            assert_eq!(status, CacheStatus::Uncached, "{what} runs cold");
            assert_same_solutions(&healed, &cold);
            // The cold run overwrote the bad file; the store works again.
            assert_eq!(store.load(fp).as_ref(), Some(&saved), "{what} overwritten");
            let (_, status) = liar
                .optimize_multi_status(&memset, &[Target::Blas], &[1.0])
                .unwrap();
            assert_eq!(status, CacheStatus::Warm, "store self-healed after {what}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_restore_promotes_into_memory_cache() {
        let (store, dir) = store_in("promote");
        let cache = Arc::new(crate::cache::SaturationCache::new(usize::MAX));
        let make = || {
            Liar::new(Target::Blas)
                .with_iter_limit(4)
                .with_snapshot_store(Arc::clone(&store))
        };
        let memset = dsl::constvec(128, dsl::num(0.0));
        // First process: cold, persists to disk (no shared memory cache).
        let (cold, s) = make()
            .optimize_multi_status(&memset, &[Target::Blas], &[1.0])
            .unwrap();
        assert_eq!(s, CacheStatus::Uncached);
        // "Second process": fresh memory cache, same store directory.
        let liar = make().with_cache(Arc::clone(&cache));
        let (warm, s) = liar
            .optimize_multi_status(&memset, &[Target::Blas], &[1.0])
            .unwrap();
        assert_eq!(s, CacheStatus::Warm, "disk answers across the boundary");
        let (hit, s) = liar
            .optimize_multi_status(&memset, &[Target::Blas], &[1.0])
            .unwrap();
        assert_eq!(s, CacheStatus::Hit, "warm report was promoted");
        assert_eq!(hit, warm, "hits replay the promoted report bit-identically");
        assert_same_solutions(&warm, &cold);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_restore_replays_proofs() {
        let (store, dir) = store_in("proofs");
        let liar = Liar::new(Target::Blas)
            .with_iter_limit(6)
            .with_explanations(true)
            .with_snapshot_store(Arc::clone(&store));
        let vsum = dsl::vsum(64, dsl::sym("xs"));
        let (cold, _) = liar
            .optimize_multi_status(&vsum, &[Target::Blas], &[1.0])
            .unwrap();
        let (warm, status) = liar
            .optimize_multi_status(&vsum, &[Target::Blas], &[1.0])
            .unwrap();
        assert_eq!(status, CacheStatus::Warm);
        let rules = rules_for_targets(&[Target::Blas], &RuleConfig::default());
        for (w, c) in warm.solutions.iter().zip(&cold.solutions) {
            let wp = w.proof.as_ref().expect("warm solution carries a proof");
            let cp = c.proof.as_ref().expect("cold solution carries a proof");
            wp.check(&rules).expect("warm proof replays");
            assert_eq!(
                format!("{wp:?}"),
                format!("{cp:?}"),
                "restored forest yields the identical proof"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gemv_kernel_blas_converges_to_gemv() {
        let (n, m) = (24, 32);
        let gemv = dsl::vadd(
            n,
            dsl::vscale(n, dsl::sym("alpha"), dsl::matvec(n, m, dsl::sym("A"), dsl::sym("B"))),
            dsl::vscale(n, dsl::sym("beta"), dsl::sym("C")),
        );
        let report = Liar::new(Target::Blas).with_iter_limit(8).optimize(&gemv);
        assert_eq!(report.best().solution_summary(), "1 × gemv");
        // The paper's fig. 4a: early steps find dot, later steps converge.
        let sequence: Vec<_> = report
            .steps
            .iter()
            .map(|s| s.solution_summary())
            .collect();
        assert!(
            sequence.iter().any(|s| s.contains("dot")),
            "intermediate dot solutions expected: {sequence:?}"
        );
    }
}
