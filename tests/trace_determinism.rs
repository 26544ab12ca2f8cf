//! The tracing + attribution wall: attaching a
//! [`liar::trace::Recorder`] or asking for the growth tables
//! (`Liar::with_attribution`) is strictly observational — reports, solutions and proofs are
//! **bit-identical** with the observer on or off. If these break,
//! profiling (or inspecting) a run changes what LIAR discovers, and every
//! measurement is suspect.
//!
//! Also pins the export contract the acceptance criteria name: the
//! Chrome trace-event JSON parses (with the repo's own parser) and its
//! phase spans nest properly for real kernels (gemv, mvt), each pipeline
//! call traces onto one lane whose self-times reconcile, and the growth
//! tables' conservation identities hold on **every** evaluation kernel
//! under the union ruleset.

use std::collections::BTreeMap;
use std::sync::Arc;

use liar::core::{CacheStatus, Liar, MultiReport, OptimizationReport, SnapshotStore, Target};
use liar::ir::Expr;
use liar::kernels::Kernel;
use liar::serve::json::{self, Json};
use liar::trace::{Event, EventKind, Recorder};

fn optimize(expr: &Expr, trace: Option<&Arc<Recorder>>) -> OptimizationReport {
    let mut pipeline = Liar::new(Target::Blas).with_iter_limit(6);
    if let Some(rec) = trace {
        pipeline = pipeline.with_trace(Arc::clone(rec));
    }
    pipeline.optimize(expr)
}

/// Everything except wall-clock timings must agree step by step.
fn assert_reports_identical(plain: &OptimizationReport, traced: &OptimizationReport, ctx: &str) {
    assert_eq!(plain.stop_reason, traced.stop_reason, "{ctx}: stop reason");
    assert_eq!(plain.steps.len(), traced.steps.len(), "{ctx}: step count");
    for (a, b) in plain.steps.iter().zip(&traced.steps) {
        let step = a.step;
        assert_eq!(a.step, b.step, "{ctx}");
        assert_eq!(a.n_nodes, b.n_nodes, "{ctx}: step {step} e-nodes");
        assert_eq!(a.n_classes, b.n_classes, "{ctx}: step {step} classes");
        assert_eq!(a.search_candidates, b.search_candidates, "{ctx}: step {step} candidates");
        assert_eq!(a.search_matches, b.search_matches, "{ctx}: step {step} matches");
        assert_eq!(a.applied, b.applied, "{ctx}: step {step} rule applications");
        assert_eq!(a.best, b.best, "{ctx}: step {step} solution");
        assert_eq!(a.cost, b.cost, "{ctx}: step {step} cost");
        assert_eq!(a.lib_calls, b.lib_calls, "{ctx}: step {step} library calls");
    }
}

#[test]
fn tracing_is_invisible_to_single_target_reports() {
    for kernel in [Kernel::Vsum, Kernel::Gemv] {
        let expr = kernel.expr(kernel.search_size());
        let ctx = kernel.name();
        let plain = optimize(&expr, None);
        let rec = Recorder::new();
        let traced = optimize(&expr, Some(&rec));
        assert_reports_identical(&plain, &traced, ctx);
        // The traced run actually recorded something.
        let events = rec.events();
        assert!(events.iter().any(|e| e.name == "step"), "{ctx}: no step spans");
        assert!(events.iter().any(|e| e.name == "rebuild"), "{ctx}: no rebuild spans");
    }
}

/// Check the one lane a pipeline call registered on `rec` (it had
/// `lanes_before` lanes): every `step` span sits inside a `saturate` span
/// whose self-time excludes it, and the lane's span self-times sum to its
/// top-level spans' durations — what `liar profile` needs to reconcile.
fn assert_one_reconciled_lane(rec: &Recorder, lanes_before: usize, steps: bool, ctx: &str) {
    let lanes = rec.lane_names();
    assert_eq!(lanes.len(), lanes_before + 1, "{ctx}: one lane per call, got {lanes:?}");
    let spans: Vec<Event> = rec
        .events()
        .into_iter()
        .filter(|e| e.lane == lanes_before && e.kind == EventKind::Span)
        .collect();
    let end = |e: &Event| e.start_us + e.dur_us;
    let inside = |inner: &Event, outer: &Event| {
        outer.start_us <= inner.start_us && end(inner) <= end(outer)
    };
    let step_spans: Vec<&Event> = spans.iter().filter(|e| e.name == "step").collect();
    assert_eq!(!step_spans.is_empty(), steps, "{ctx}: step spans expected: {steps}");
    for sat in spans.iter().filter(|e| e.name == "saturate") {
        let in_sat: u64 = step_spans.iter().filter(|s| inside(s, sat)).map(|s| s.dur_us).sum();
        assert!(sat.self_us + in_sat <= sat.dur_us, "{ctx}: saturate self-time counts its steps");
    }
    for step in &step_spans {
        assert!(
            spans.iter().any(|sat| sat.name == "saturate" && inside(step, sat)),
            "{ctx}: `step` span at {} us lies outside every `saturate` span",
            step.start_us
        );
    }
    // Spans arrive in begin order, so an enclosing span precedes the spans
    // it contains.
    let top_level_us: u64 = spans
        .iter()
        .enumerate()
        .filter(|(i, span)| !spans[..*i].iter().any(|outer| inside(span, outer)))
        .map(|(_, span)| span.dur_us)
        .sum();
    let self_us: u64 = spans.iter().map(|e| e.self_us).sum();
    assert_eq!(self_us, top_level_us, "{ctx}: self-times do not sum to the top-level time");
}

#[test]
fn each_pipeline_call_traces_one_lane_whose_self_times_reconcile() {
    let expr = Kernel::Gemv.expr(Kernel::Gemv.search_size());
    let rec = Recorder::new();
    optimize(&expr, Some(&rec));
    assert_one_reconciled_lane(&rec, 0, true, "optimize");

    let dir = std::env::temp_dir().join(format!("liar-trace-lanes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(SnapshotStore::open(&dir).expect("store opens"));
    let pipeline = Liar::new(Target::Blas)
        .with_iter_limit(6)
        .with_snapshot_store(store)
        .with_trace(Arc::clone(&rec));
    for (expected, steps) in [(CacheStatus::Uncached, true), (CacheStatus::Warm, false)] {
        let lanes_before = rec.lane_names().len();
        let (_, status) = pipeline
            .optimize_multi_status(&expr, &[Target::Blas], &[1.0])
            .expect("multi-target optimization succeeds");
        assert_eq!(status, expected);
        assert_one_reconciled_lane(&rec, lanes_before, steps, status.name());
    }
    std::fs::remove_dir_all(&dir).expect("store directory removed");
}

fn optimize_multi(expr: &Expr, trace: Option<&Arc<Recorder>>) -> MultiReport {
    let mut pipeline = Liar::new(Target::Blas)
        .with_iter_limit(6)
        .with_explanations(true)
        .with_attribution(true);
    if let Some(rec) = trace {
        pipeline = pipeline.with_trace(Arc::clone(rec));
    }
    pipeline
        .optimize_multi(expr, &[Target::Blas, Target::Torch], &[1.0])
        .expect("multi-target optimization succeeds")
}

#[test]
fn tracing_is_invisible_to_multi_solutions_and_proofs() {
    let expr = Kernel::Gemv.expr(Kernel::Gemv.search_size());
    let ctx = "gemv";
    let plain = optimize_multi(&expr, None);
    let rec = Recorder::new();
    let traced = optimize_multi(&expr, Some(&rec));

    assert_eq!(plain.stop_reason, traced.stop_reason, "{ctx}");
    assert_eq!(plain.n_nodes, traced.n_nodes, "{ctx}");
    assert_eq!(plain.n_classes, traced.n_classes, "{ctx}");
    // The growth tables fold every step's per-rule record.
    assert!(plain.inspect.is_some(), "{ctx}: no growth tables");
    assert_eq!(plain.inspect, traced.inspect, "{ctx}: growth tables");
    assert_eq!(plain.solutions.len(), traced.solutions.len(), "{ctx}");
    for (a, b) in plain.solutions.iter().zip(&traced.solutions) {
        let t = a.target.name();
        assert_eq!(a.target, b.target, "{ctx}");
        assert_eq!(a.profile, b.profile, "{ctx}: {t}");
        assert_eq!(a.best, b.best, "{ctx}: {t} best expression");
        assert_eq!(a.cost, b.cost, "{ctx}: {t} cost");
        assert_eq!(a.dag_best, b.dag_best, "{ctx}: {t} DAG expression");
        assert_eq!(a.dag_cost, b.dag_cost, "{ctx}: {t} DAG cost");
        assert_eq!(a.lib_calls, b.lib_calls, "{ctx}: {t} library calls");
        assert_eq!(a.stats, b.stats, "{ctx}: {t} extraction statistics");
        match (&a.proof, &b.proof) {
            (Some(p), Some(q)) => {
                assert_eq!(p.source, q.source, "{ctx}: {t} proof source");
                assert_eq!(p.target, q.target, "{ctx}: {t} proof target");
                assert_eq!(p.steps, q.steps, "{ctx}: {t} proof steps");
            }
            _ => panic!("{ctx}: {t}: explanations were on — proofs expected on both"),
        }
    }

    // The traced run covered all three layers of the pipeline taxonomy.
    let events = rec.events();
    let has = |name: &str| events.iter().any(|e| e.name == name);
    assert!(has("saturate"), "{ctx}: no saturate span");
    assert!(has("extract/flatten"), "{ctx}: no flatten span");
    assert!(has("extract/blas"), "{ctx}: no blas extraction span");
    assert!(
        events.iter().any(|e| e.name.starts_with("explain/")),
        "{ctx}: no explain span"
    );
}

fn optimize_multi_attributed(expr: &Expr, attribution: bool) -> MultiReport {
    Liar::new(Target::Blas)
        .with_iter_limit(6)
        .with_explanations(true)
        .with_attribution(attribution)
        .optimize_multi(expr, &[Target::Blas, Target::Torch], &[1.0])
        .expect("multi-target optimization succeeds")
}

/// Everything except wall-clock timings (and the `inspect` tables
/// themselves) must agree between two live multi-target runs.
fn assert_multi_semantically_identical(a: &MultiReport, b: &MultiReport, ctx: &str) {
    assert_eq!(a.targets, b.targets, "{ctx}: targets");
    assert_eq!(a.stop_reason, b.stop_reason, "{ctx}: stop reason");
    assert_eq!(a.n_nodes, b.n_nodes, "{ctx}: e-nodes");
    assert_eq!(a.n_classes, b.n_classes, "{ctx}: classes");
    assert_eq!(a.steps.len(), b.steps.len(), "{ctx}: step count");
    for (s, p) in a.steps.iter().zip(&b.steps) {
        let step = s.step;
        assert_eq!(s.step, p.step, "{ctx}");
        assert_eq!(s.n_nodes, p.n_nodes, "{ctx}: step {step} e-nodes");
        assert_eq!(s.n_classes, p.n_classes, "{ctx}: step {step} classes");
        assert_eq!(s.search_candidates, p.search_candidates, "{ctx}: step {step} candidates");
        assert_eq!(s.search_matches, p.search_matches, "{ctx}: step {step} matches");
    }
    // Solutions carry the proofs; compare everything except
    // `extract_time` (wall clock).
    assert_eq!(a.solutions.len(), b.solutions.len(), "{ctx}: solution count");
    for (s, p) in a.solutions.iter().zip(&b.solutions) {
        let t = s.target.name();
        assert_eq!(s.target, p.target, "{ctx}");
        assert_eq!(s.profile, p.profile, "{ctx}: {t}");
        assert_eq!(s.best, p.best, "{ctx}: {t} best expression");
        assert_eq!(s.cost, p.cost, "{ctx}: {t} cost");
        assert_eq!(s.dag_best, p.dag_best, "{ctx}: {t} DAG expression");
        assert_eq!(s.dag_cost, p.dag_cost, "{ctx}: {t} DAG cost");
        assert_eq!(s.lib_calls, p.lib_calls, "{ctx}: {t} library calls");
        assert_eq!(s.stats, p.stats, "{ctx}: {t} extraction statistics");
        assert_eq!(s.proof, p.proof, "{ctx}: {t} proof");
    }
}

#[test]
fn attribution_is_invisible_to_reports_solutions_and_proofs() {
    for kernel in [Kernel::Vsum, Kernel::Gemv] {
        let expr = kernel.expr(kernel.search_size());
        let ctx = kernel.name();
        let off = optimize_multi_attributed(&expr, false);
        let on = optimize_multi_attributed(&expr, true);

        assert_multi_semantically_identical(&off, &on, ctx);
        assert!(off.inspect.is_none(), "{ctx}: attribution off but tables present");
        let inspect = on
            .inspect
            .as_ref()
            .unwrap_or_else(|| panic!("{ctx}: attribution on but no tables"));
        inspect
            .check()
            .unwrap_or_else(|e| panic!("{ctx}: conservation violated: {e}"));
        // The tables describe the same e-graph the report does.
        assert_eq!(inspect.n_nodes, on.n_nodes, "{ctx}");
        assert_eq!(inspect.n_classes, on.n_classes, "{ctx}");
    }
}

#[test]
fn conservation_holds_on_every_kernel_under_the_union_ruleset() {
    for kernel in Kernel::ALL {
        let expr = kernel.expr(kernel.search_size());
        let report = Liar::new(Target::Blas)
            .with_iter_limit(6)
            .inspect(&expr, &Target::ALL);
        report
            .check()
            .unwrap_or_else(|e| panic!("{}: conservation violated: {e}", kernel.name()));
        // Attribution charged real work, not just the initial program.
        assert!(
            report.total_nodes_created() > 0 && report.rule("(init)").is_some(),
            "{}: no growth attributed",
            kernel.name()
        );
    }
}

struct Span {
    name: String,
    ts: u64,
    end: u64,
}

/// Pull the `ph:"X"` complete spans out of a parsed Chrome trace,
/// grouped by thread lane.
fn spans_by_tid(doc: &Json) -> BTreeMap<u64, Vec<Span>> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let mut by_tid: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let name = e.get("name").and_then(Json::as_str).expect("span name").to_string();
        let tid = e.get("tid").and_then(Json::as_f64).expect("span tid") as u64;
        let ts = e.get("ts").and_then(Json::as_f64).expect("span ts") as u64;
        let dur = e.get("dur").and_then(Json::as_f64).expect("span dur") as u64;
        by_tid.entry(tid).or_default().push(Span { name, ts, end: ts + dur });
    }
    by_tid
}

#[test]
fn chrome_export_parses_and_phase_spans_nest() {
    for kernel in [Kernel::Gemv, Kernel::Mvt] {
        let expr = kernel.expr(kernel.search_size());
        let rec = Recorder::new();
        Liar::new(Target::Blas)
            .with_iter_limit(6)
            .with_trace(Arc::clone(&rec))
            .optimize_multi(&expr, &[Target::Blas], &[1.0])
            .expect("multi-target optimization succeeds");

        let text = rec.chrome_trace_json();
        let doc = json::parse(&text).expect("chrome trace parses as JSON");
        let by_tid = spans_by_tid(&doc);
        assert!(!by_tid.is_empty(), "{}: no spans exported", kernel.name());

        for (tid, spans) in &by_tid {
            // Spans on one lane either nest or are disjoint — no partial
            // overlap (that's what makes the flame graph render).
            for (i, a) in spans.iter().enumerate() {
                for b in &spans[i + 1..] {
                    let disjoint = a.end <= b.ts || b.end <= a.ts;
                    let nested = (a.ts <= b.ts && b.end <= a.end) || (b.ts <= a.ts && a.end <= b.end);
                    assert!(
                        disjoint || nested,
                        "{} tid {tid}: spans `{}` [{}, {}) and `{}` [{}, {}) partially overlap",
                        kernel.name(), a.name, a.ts, a.end, b.name, b.ts, b.end,
                    );
                }
            }
            // Phase containment: search/apply/rebuild live inside a step.
            let steps: Vec<&Span> = spans.iter().filter(|s| s.name == "step").collect();
            for s in spans.iter().filter(|s| matches!(s.name.as_str(), "search" | "apply" | "rebuild")) {
                assert!(
                    steps.iter().any(|st| st.ts <= s.ts && s.end <= st.end),
                    "{} tid {tid}: `{}` span not inside any `step` span",
                    kernel.name(), s.name,
                );
            }
        }

        // The expected phase spans all made it into the export.
        let all: Vec<&str> = by_tid.values().flatten().map(|s| s.name.as_str()).collect();
        for expected in ["step", "search", "apply", "rebuild", "saturate", "extract/flatten", "extract/blas"] {
            assert!(
                all.contains(&expected),
                "{}: exported trace is missing a `{expected}` span",
                kernel.name(),
            );
        }
    }
}
