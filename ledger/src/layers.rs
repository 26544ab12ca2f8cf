//! The traced pass: the pipelines rebuilt from the crates' public calls,
//! with every layer timed from here, plus probes that time the layers a
//! workload's own pipeline does not run on that workload's outputs.
//!
//! A traced item must reproduce the untraced run's exact-count record
//! (steps, per-step e-nodes/e-classes, matches, applied, costs and
//! solutions), and its pipeline layers must sum to its wall time within
//! [`RECONCILE_SHARE`] (or [`RECONCILE_FLOOR_MS`] on tiny items). Probe
//! time is kept out of that wall.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use liar_codegen::{emit_kernel_variants, CInput};
use liar_core::pipeline::count_lib_calls;
use liar_core::rules::{rules_for, rules_for_targets};
use liar_core::{
    BudgetKnobs, Fingerprint, Liar, MachineProfile, MultiReport, RuleConfig, SnapshotStore, Target,
    TargetCost,
};
use liar_egraph::{
    BackoffScheduler, DagExtractor, Extractor, FlatGraph, Id, Iteration, Runner, RunnerLimits,
    StopReason,
};
use liar_ir::{ArrayAnalysis, ArrayEGraph, ArrayLang, Expr};
use liar_runtime::exec;
use liar_serve::{OptimizeRequest, OptimizeResponse, Request, Response, SolutionMsg};

use crate::runtime::{time_batch, Case};
use crate::stats::ms;

/// Largest share of an item's wall time its layers may leave unexplained.
pub const RECONCILE_SHARE: f64 = 0.05;
/// Absolute slack for items so small that fixed glue dominates the share.
pub const RECONCILE_FLOOR_MS: f64 = 0.5;

/// Per-layer totals of one traced pass, keyed by catalogue name.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// Add every layer of `other` into this one.
    pub fn merge(&mut self, other: &Layers) {
        for (name, value) in &other.0 {
            self.add(name, *value);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Run `f`, charging its wall time to `name`; returns the result and
    /// the milliseconds charged.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let elapsed = ms(start.elapsed());
        self.add(name, elapsed);
        (out, elapsed)
    }

    /// The least-disturbed pass: every layer's minimum over the passes
    /// (counts are identical in every pass).
    pub fn min_of(passes: &[Layers]) -> Layers {
        let mut names: Vec<&'static str> =
            passes.iter().flat_map(|p| p.0.keys().copied()).collect();
        names.sort();
        names.dedup();
        Layers(
            names
                .into_iter()
                .map(|n| {
                    (
                        n,
                        passes
                            .iter()
                            .map(|p| p.get(n))
                            .fold(f64::INFINITY, f64::min),
                    )
                })
                .collect(),
        )
    }

    /// Copy every layer into the run's outcome, deriving the ratios.
    pub fn report(&self, out: &mut crate::Outcome, untraced_ms: f64) {
        for (name, _) in crate::PER_LAYER {
            if let Some(v) = self.0.get(name) {
                out.set(name, *v);
            }
        }
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        out.set(
            "runner.apply_yield",
            ratio(self.get("runner.applied"), self.get("runner.matches")),
        );
        out.set(
            "runtime.lib_share",
            ratio(self.get("runtime.lib_ms"), self.get("runtime.solution_ms")),
        );
        out.set(
            "trace.overhead",
            ratio(self.get("trace.wall_ms"), untraced_ms),
        );
    }
}

/// The backoff scheduler `liar-core`'s pipeline builds privately, mirrored
/// here (intro-rule limits included) so the traced runner replays the
/// same match budgets.
pub fn scheduler(match_limit: usize) -> BackoffScheduler {
    BackoffScheduler::new(match_limit, 2)
        .with_rule_limit("intro-lambda", match_limit / 4)
        .with_rule_limit("intro-index-build", match_limit / 4)
        .with_rule_limit("intro-fst-tuple", match_limit / 8)
        .with_rule_limit("intro-snd-tuple", match_limit / 8)
}

/// The pipeline's semi-naive default (`LIAR_SEMINAIVE=0` turns it off).
fn seminaive_default() -> bool {
    std::env::var("LIAR_SEMINAIVE").map_or(true, |v| v != "0")
}

fn runner_for(
    egraph: ArrayEGraph,
    root: Id,
    knobs: &BudgetKnobs,
) -> Runner<ArrayLang, ArrayAnalysis> {
    Runner::new(egraph)
        .with_root(root)
        .with_limits(RunnerLimits {
            iter_limit: knobs.iter_limit,
            node_limit: knobs.node_limit,
            time_limit: knobs.time_limit,
        })
        .with_scheduler(scheduler(knobs.match_limit))
        .with_threads(1)
        .with_seminaive(seminaive_default())
}

/// The counts of one saturation step that go into the exact record.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepCounts {
    pub step: usize,
    pub nodes: usize,
    pub classes: usize,
    pub matches: usize,
    pub candidates: usize,
    pub frontier: usize,
    pub applied: usize,
}

impl StepCounts {
    fn of(it: &Iteration) -> StepCounts {
        StepCounts {
            step: it.index,
            nodes: it.n_nodes,
            classes: it.n_classes,
            matches: it.search_matches,
            candidates: it.search_candidates,
            frontier: it.frontier_candidates,
            applied: it.total_applied(),
        }
    }

    /// One `|`-separated field of the exact record.
    pub fn write(&self, out: &mut String) {
        let _ = write!(
            out,
            " | step {} nodes {} classes {} matches {} candidates {} frontier {} applied {}",
            self.step,
            self.nodes,
            self.classes,
            self.matches,
            self.candidates,
            self.frontier,
            self.applied
        );
    }
}

/// One extracted solution: `(target, tree cost, tree best, DAG cost, DAG best)`.
pub type Solution = (Target, f64, Expr, f64, Expr);

/// The exact-record line of a finished multi-target item.
pub fn multi_record(
    name: &str,
    stop: &StopReason,
    steps: &[StepCounts],
    solutions: &[Solution],
) -> String {
    let mut rec = format!("{name} stop={stop:?}");
    for s in steps {
        s.write(&mut rec);
    }
    for (target, cost, best, dag_cost, dag_best) in solutions {
        let _ = write!(
            rec,
            " | {target} cost {cost:?} dag {dag_cost:?} best {best} dag_best {dag_best}"
        );
    }
    rec
}

/// The untraced exact record of a multi-target report. `MultiReport`
/// keeps no per-step applications, so that field reads 0 (see
/// [`without_applied`]).
pub fn report_record(name: &str, r: &MultiReport) -> String {
    let steps: Vec<StepCounts> = r
        .steps
        .iter()
        .map(|s| StepCounts {
            step: s.step,
            nodes: s.n_nodes,
            classes: s.n_classes,
            matches: s.search_matches,
            candidates: s.search_candidates,
            frontier: s.frontier_candidates,
            applied: 0,
        })
        .collect();
    let solutions: Vec<Solution> = r
        .solutions
        .iter()
        .map(|s| {
            (
                s.target,
                s.cost,
                s.best.clone(),
                s.dag_cost,
                s.dag_best.clone(),
            )
        })
        .collect();
    multi_record(name, &r.stop_reason, &steps, &solutions)
}

/// A traced multi-target record with its `applied` fields zeroed, to
/// compare with [`report_record`].
pub fn without_applied(rec: &str) -> String {
    rec.split(" | ")
        .map(|field| match field.rfind(" applied ") {
            Some(at) if field.starts_with("step ") => format!("{} applied 0", &field[..at]),
            _ => field.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" | ")
}

/// The traced result of one item.
pub struct Traced {
    pub record: String,
    /// Wall time of the mirrored pipeline, probes excluded.
    pub wall_ms: f64,
    /// Sum of the pipeline layers timed inside that wall.
    pub layer_ms: f64,
    pub egraph: ArrayEGraph,
    pub root: Id,
    pub stop: StopReason,
    pub solutions: Vec<Solution>,
    /// The emitted C, when the pipeline emits it.
    pub c: Option<String>,
}

impl Traced {
    /// Whether the layers account for the wall within the stated tolerance.
    pub fn reconciles(&self) -> bool {
        self.wall_ms - self.layer_ms <= (RECONCILE_SHARE * self.wall_ms).max(RECONCILE_FLOOR_MS)
    }

    fn close(&self, l: &mut Layers) {
        l.add("egraph.nodes", self.egraph.num_nodes() as f64);
        l.add("egraph.classes", self.egraph.num_classes() as f64);
        l.add("trace.wall_ms", self.wall_ms);
        l.add(
            "trace.unattributed_ms",
            (self.wall_ms - self.layer_ms).max(0.0),
        );
    }
}

fn absorb(l: &mut Layers, it: &Iteration) {
    l.add("runner.search_ms", ms(it.search_time));
    l.add("runner.apply_ms", ms(it.apply_time));
    l.add("runner.rebuild_ms", ms(it.rebuild_time));
    l.add("runner.steps", 1.0);
    l.add("runner.matches", it.search_matches as f64);
    l.add("runner.applied", it.total_applied() as f64);
    l.add("runner.rebuild_unions", it.rebuild_unions as f64);
    l.add("runner.search_candidates", it.search_candidates as f64);
    l.add("runner.frontier_candidates", it.frontier_candidates as f64);
}

/// Milliseconds since `*t`, restarting the lap.
fn lap(t: &mut Instant) -> f64 {
    let now = Instant::now();
    let elapsed = ms(now - *t);
    *t = now;
    elapsed
}

/// `Liar::optimize` rebuilt from public calls: rules, `add_expr`, then
/// `Runner::run_one` with tree extraction after every step. The record
/// has the same format as [`crate::compile`]'s untraced one.
pub fn traced_single(
    l: &mut Layers,
    name: &str,
    expr: &Expr,
    target: Target,
    knobs: &BudgetKnobs,
) -> Traced {
    let wall = Instant::now();
    let mut t = wall;
    let rules = rules_for(target, &RuleConfig::default());
    let rules_ms = lap(&mut t);
    let mut egraph = ArrayEGraph::default();
    let root = egraph.add_expr(expr);
    let add_ms = lap(&mut t);
    let mut runner = runner_for(egraph, root, knobs);
    let cost_fn = TargetCost::new(target).with_discount_scale(1.0);
    let (mut step_ms, mut extract_ms) = (0.0, 0.0);
    let mut steps = Vec::new();
    lap(&mut t);
    let (cost, best) = Extractor::new(&runner.egraph, cost_fn).find_best(root);
    extract_ms += lap(&mut t);
    let first = StepCounts {
        nodes: runner.egraph.num_nodes(),
        classes: runner.egraph.num_classes(),
        ..StepCounts::default()
    };
    steps.push((first, cost, best));
    let stop = loop {
        lap(&mut t);
        let result = runner.run_one(&rules);
        step_ms += lap(&mut t);
        let counts = match result {
            Ok(it) => {
                absorb(l, it);
                StepCounts::of(it)
            }
            Err(reason) => break reason,
        };
        lap(&mut t);
        let (cost, best) = Extractor::new(&runner.egraph, cost_fn).find_best(root);
        extract_ms += lap(&mut t);
        steps.push((counts, cost, best));
        if let Some(reason) = &runner.stop_reason {
            break reason.clone();
        }
    };
    let wall_ms = ms(wall.elapsed());
    l.add("rules.build_ms", rules_ms);
    l.add("egraph.add_expr_ms", add_ms);
    l.add("runner.step_ms", step_ms);
    l.add("extract.step_ms", extract_ms);

    let mut record = format!("{name} stop={stop:?}");
    for (counts, cost, best) in &steps {
        counts.write(&mut record);
        let _ = write!(record, " cost {cost:?} best {best}");
    }
    let (_, cost, best) = steps.pop().expect("step 0 exists");
    let traced = Traced {
        record,
        wall_ms,
        layer_ms: rules_ms + add_ms + step_ms + extract_ms,
        egraph: runner.egraph,
        root,
        stop,
        solutions: vec![(target, cost, best.clone(), cost, best)],
        c: None,
    };
    traced.close(l);
    traced
}

/// Where a traced multi-target item persists its saturated graph (the
/// serve miss path) and under which fingerprint.
pub struct Persist<'a> {
    pub store: &'a SnapshotStore,
    pub fingerprint: Fingerprint,
}

/// `Liar::optimize_multi` over `Target::ALL` rebuilt from public calls:
/// union rules, `add_expr`, `run_one` to a stop, the optional snapshot
/// save, one flatten, then tree + DAG extraction per target — and, when
/// `emit` names the C signature, `emit_kernel_variants` (the `emit-c`
/// path). Per-step extraction and tree-only extraction run as probes
/// whose time is kept out of the wall.
pub fn traced_multi(
    l: &mut Layers,
    name: &str,
    expr: &Expr,
    knobs: &BudgetKnobs,
    persist: Option<Persist<'_>>,
    emit: Option<(&str, &[CInput])>,
) -> Traced {
    let wall = Instant::now();
    let mut probe_ms = 0.0;
    let mut layer_ms = 0.0;
    let mut t = wall;
    let rules = rules_for_targets(&Target::ALL, &RuleConfig::default());
    let rules_ms = lap(&mut t);
    let mut egraph = ArrayEGraph::default();
    let root = egraph.add_expr(expr);
    let add_ms = lap(&mut t);
    let mut runner = runner_for(egraph, root, knobs);
    let mut steps = vec![StepCounts {
        nodes: runner.egraph.num_nodes(),
        classes: runner.egraph.num_classes(),
        ..StepCounts::default()
    }];
    let mut step_ms = 0.0;
    let blas = TargetCost::new(Target::Blas).with_discount_scale(1.0);
    let stop = loop {
        lap(&mut t);
        let result = runner.run_one(&rules);
        step_ms += lap(&mut t);
        match result {
            Ok(it) => {
                absorb(l, it);
                steps.push(StepCounts::of(it));
            }
            Err(reason) => break reason,
        }
        // Probe: what per-step extraction would cost on this graph.
        let (_, p) = l.time("extract.step_ms", || {
            Extractor::new(&runner.egraph, blas).find_best(root)
        });
        probe_ms += p;
        lap(&mut t);
    };
    layer_ms += rules_ms + add_ms + step_ms;
    l.add("rules.build_ms", rules_ms);
    l.add("egraph.add_expr_ms", add_ms);
    l.add("runner.step_ms", step_ms);

    if let Some(p) = &persist {
        let (bytes, save_ms) = l.time("snapshot.save_ms", || runner.egraph.snapshot());
        let bytes = bytes.unwrap_or_default();
        l.add("snapshot.bytes", bytes.len() as f64);
        let (_, store_ms) = l.time("store.save_ms", || {
            p.store.save(p.fingerprint, &stop, &bytes)
        });
        layer_ms += save_ms + store_ms;
    }

    let (flat, flatten_ms) = l.time("extract.flatten_ms", || FlatGraph::new(&runner.egraph));
    layer_ms += flatten_ms;
    let mut solutions = Vec::new();
    for target in Target::ALL {
        let cost_fn = TargetCost::new(target)
            .with_discount_scale(1.0)
            .with_profile(MachineProfile::default());
        let (found, dag_ms) = l.time("extract.dag_ms", || {
            let ex = DagExtractor::with_flat(&flat, cost_fn);
            let tree = ex.tree_extractor().try_find_best(root).ok()?;
            let dag = ex.try_find_best(root).ok()?;
            Some((tree, dag))
        });
        layer_ms += dag_ms;
        // Probe: the tree extractor alone (the DAG extractor above runs
        // its own tree fixpoint first).
        let (_, p) = l.time("extract.tree_ms", || {
            Extractor::with_flat(&flat, cost_fn)
                .try_find_best(root)
                .ok()
        });
        probe_ms += p;
        if let Some(((cost, best), (dag_cost, dag_best))) = found {
            solutions.push((target, cost, best, dag_cost, dag_best));
        }
    }
    drop(flat);

    let c = emit.map(|(c_name, inputs)| {
        let variants = variants(&solutions);
        let (c, emit_ms) = l.time("codegen.emit_ms", || {
            emit_kernel_variants(c_name, &variants, inputs)
        });
        l.add("codegen.bytes", c.len() as f64);
        layer_ms += emit_ms;
        c
    });
    let wall_ms = ms(wall.elapsed()) - probe_ms;
    let traced = Traced {
        record: multi_record(name, &stop, &steps, &solutions),
        wall_ms,
        layer_ms,
        egraph: runner.egraph,
        root,
        stop,
        solutions,
        c,
    };
    traced.close(l);
    traced
}

/// Probe: flatten, tree and DAG extraction of a finished single-target
/// graph (the per-target pipeline extracts per step instead).
pub fn probe_extract(l: &mut Layers, traced: &Traced, target: Target) {
    let cost_fn = TargetCost::new(target).with_discount_scale(1.0);
    let (flat, _) = l.time("extract.flatten_ms", || FlatGraph::new(&traced.egraph));
    l.time("extract.tree_ms", || {
        Extractor::with_flat(&flat, cost_fn)
            .try_find_best(traced.root)
            .ok()
    });
    l.time("extract.dag_ms", || {
        DagExtractor::with_flat(&flat, cost_fn)
            .try_find_best(traced.root)
            .ok()
    });
}

/// Probe: snapshot and store round trip of a finished graph — save,
/// persist, load, restore (the serve warm path without extraction).
/// Returns whether the restored graph still holds the item's expression;
/// `saved` says the pipeline already persisted the graph under
/// `persist`, so only the load and restore are probed.
pub fn probe_snapshot(
    l: &mut Layers,
    traced: &Traced,
    expr: &Expr,
    persist: Option<Persist<'_>>,
    saved: bool,
) -> bool {
    let bytes = match persist.as_ref() {
        Some(_) if saved => None,
        _ => {
            let (bytes, _) = l.time("snapshot.save_ms", || traced.egraph.snapshot());
            let bytes = bytes.unwrap_or_default();
            l.add("snapshot.bytes", bytes.len() as f64);
            if let Some(p) = &persist {
                let _ = l.time("store.save_ms", || {
                    p.store.save(p.fingerprint, &traced.stop, &bytes)
                });
            }
            Some(bytes)
        }
    };
    let bytes = match &persist {
        Some(p) => {
            let (loaded, _) = l.time("store.load_ms", || p.store.load(p.fingerprint));
            loaded.map(|(_, b)| b)
        }
        None => bytes,
    };
    let Some(bytes) = bytes else { return false };
    let (restored, _) = l.time("snapshot.restore_ms", || {
        ArrayEGraph::restore(ArrayAnalysis::default(), &bytes)
    });
    restored.is_ok_and(|g| g.lookup_expr(expr).is_some())
}

/// One C variant per solution, labelled by target as `liar emit-c` does.
pub fn variants(solutions: &[Solution]) -> Vec<(String, &Expr)> {
    solutions
        .iter()
        .map(|(target, _, best, _, _)| (target.name().replace('-', "_"), best))
        .collect()
}

/// The C signature of a case, as `liar emit-c` builds it.
pub fn c_inputs(case: &Case) -> Vec<CInput> {
    case.shapes
        .iter()
        .map(|(name, shape)| {
            if shape.is_empty() {
                CInput::scalar(name)
            } else {
                CInput::tensor(name, shape.clone())
            }
        })
        .collect()
}

/// Probe: C emission of solutions the workload's pipeline does not emit.
pub fn probe_codegen(l: &mut Layers, case: &Case, solutions: &[Solution]) {
    let variants = variants(solutions);
    let name = case.kernel.name().replace('-', "_");
    let inputs = c_inputs(case);
    let (c, _) = l.time("codegen.emit_ms", || {
        emit_kernel_variants(&name, &variants, &inputs)
    });
    l.add("codegen.bytes", c.len() as f64);
}

/// The library calls of a solution, formatted like the paper's tables.
pub fn summary(best: &Expr) -> String {
    let calls = count_lib_calls(best);
    if calls.is_empty() {
        return "—".to_string();
    }
    calls
        .iter()
        .map(|(name, count)| format!("{count} × {name}"))
        .collect::<Vec<_>>()
        .join(" + ")
}

/// The reply a daemon would send for `solutions` (frame probes of the
/// compile workloads encode their own results this way).
pub fn response_for(solutions: &[Solution]) -> Response {
    Response::Optimize(OptimizeResponse {
        id: None,
        fingerprint: String::new(),
        cache: "miss".to_string(),
        stop_reason: String::new(),
        n_nodes: 0,
        n_classes: 0,
        saturation_s: 0.0,
        saturation_steps: 0,
        server_ms: 0.0,
        solutions: solutions
            .iter()
            .map(|(target, cost, best, dag_cost, _)| SolutionMsg {
                target: target.name().to_string(),
                discount_scale: 1.0,
                profile: MachineProfile::default().name.to_string(),
                cost: *cost,
                dag_cost: *dag_cost,
                solution: summary(best),
                best: best.to_string(),
                lib_calls: count_lib_calls(best),
                proof: None,
            })
            .collect(),
    })
}

/// Probe: the client side of the wire — encode the request, decode the
/// reply. Returns whether the reply decoded back to an optimize answer.
pub fn probe_frame(l: &mut Layers, request: &OptimizeRequest, reply: &Response) -> bool {
    let payload = reply.to_payload();
    let request = Request::Optimize(request.clone());
    let start = Instant::now();
    let encoded = request.to_payload();
    let decoded = Response::from_payload(&payload);
    l.add("serve.frame_us", start.elapsed().as_secs_f64() * 1e6);
    !encoded.is_empty() && matches!(decoded, Ok(Response::Optimize(_)))
}

/// Probe: one `liar-runtime` run of a solution and of its reference;
/// library time feeds `runtime.lib_share`.
pub fn probe_runtime(l: &mut Layers, case: &Case, solution: &Expr) {
    if let Ok((_, stats)) = exec::run(solution, &case.inputs) {
        l.add("runtime.solution_ms", ms(stats.total));
        l.add(
            "runtime.lib_ms",
            ms(stats.lib_time.values().sum::<Duration>()),
        );
    }
    let reference_ms = time_batch(
        || {
            std::hint::black_box(case.kernel.reference(case.n, &case.inputs).ok());
        },
        Duration::ZERO,
    );
    l.add("runtime.reference_ms", reference_ms);
}

/// The request a compile workload's item would send to the daemon: the
/// same program, targets and budgets as its pipeline.
pub fn request_for(expr: &Expr, targets: &[Target], pipeline: &Liar) -> OptimizeRequest {
    let knobs = pipeline.budget_knobs();
    let mut req = OptimizeRequest::new(expr.to_string());
    req.targets = targets.iter().map(|t| t.name().to_string()).collect();
    req.steps = Some(knobs.iter_limit);
    req.node_limit = Some(knobs.node_limit);
    req
}
