//! The two compile workloads.
//!
//! * `per-target` — tables II/III and fig. 7: single-target
//!   `Liar::optimize` with per-step extraction at the table settings, for
//!   16 kernels × {blas, pytorch} at `bench_size()`, then every solution
//!   checked and the BLAS solutions timed against `Kernel::reference`.
//! * `all-targets` — the `emit-c --targets` path every serve miss runs:
//!   one `optimize_multi` over `Target::ALL` per kernel, then
//!   `emit_kernel_variants`.
//!
//! Items are compiled pass after pass, each compile timed between two
//! calibrations of the host and scaled to the reference host
//! ([`HostClock`]); each item reports its median pass.
//! Neither path has a cache, so a repeated request recompiles and the
//! serve metrics collapse onto the compile metrics: `hit_*` and
//! `miss_p50_ms` are compile-latency quantiles, `rps` is compiles per
//! second, and `warm_boot_s` (answer every distinct request once) is
//! `compile_s`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use liar_bench::figures::Fig7Config;
use liar_bench::harness::pipeline_for;
use liar_codegen::emit_kernel_variants;
use liar_core::{Liar, MultiReport, OptimizationReport, SnapshotStore, Target};
use liar_ir::Expr;
use liar_kernels::Kernel;

use crate::layers::{
    self, c_inputs, probe_codegen, probe_extract, probe_frame, probe_runtime, probe_snapshot,
    report_record, request_for, response_for, traced_multi, traced_single, without_applied, Layers,
    Persist, StepCounts,
};
use crate::runtime::{time_solutions, Case};
use crate::stats::{digest, geomean, median, ms, peak_heap_mb, quantile, HostClock};
use crate::{json_str, print_row, serve, Config, Outcome};

/// Corpus passes every run makes, however short its budget.
const MIN_PASSES: usize = 3;
/// Timing rounds of the solution run-time measurement, at least.
const MIN_ROUNDS: usize = 5;
/// Times the set-up is repeated; `setup_s` is the median. The corpus
/// takes milliseconds to prepare, so many repetitions steady the median.
const SETUP_REPS: usize = 25;
/// Traced passes; each per-layer metric is the minimum over them.
const TRACED_PASSES: usize = 3;

/// Run `f` `reps` times; its last result and the median of its times in
/// reference seconds.
pub fn repeat_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    let mut clock = HostClock::new();
    for _ in 0..reps {
        let (result, secs) = clock.time(&mut f);
        last = Some(result);
        times.push(secs);
    }
    (last.expect("at least one repetition"), median(&times))
}

/// The corpus at the sizes `size` picks, with inputs from `seed`.
fn corpus(size: fn(Kernel) -> usize, seed: u64) -> Result<Vec<Case>, String> {
    Kernel::ALL
        .iter()
        .map(|&k| Case::new(k, size(k), seed))
        .collect()
}

/// Latencies and exact records of the repeated corpus passes.
struct Passes {
    /// Per item, reference milliseconds of each pass.
    lat: Vec<Vec<f64>>,
    /// Per item, the first pass's exact record.
    records: Vec<String>,
}

impl Passes {
    /// Time `compile(item)` over every item, pass after pass, until
    /// `budget` is spent (at least [`MIN_PASSES`]). Each item's record
    /// must repeat exactly in every pass.
    fn run<R>(
        n_items: usize,
        budget: Duration,
        out: &mut Outcome,
        mut compile: impl FnMut(usize) -> Option<R>,
        mut record: impl FnMut(usize, &R) -> String,
        mut keep: impl FnMut(usize, R),
    ) -> Passes {
        let start = Instant::now();
        let mut p = Passes {
            lat: vec![Vec::new(); n_items],
            records: Vec::new(),
        };
        for pass in 0.. {
            let mut clock = HostClock::new();
            for i in 0..n_items {
                let (result, secs) = clock.time(|| compile(i));
                p.lat[i].push(secs * 1e3);
                let Some(result) = result else {
                    out.check(false, || format!("item {i}: compile failed"));
                    if pass == 0 {
                        p.records.push(String::new());
                    }
                    continue;
                };
                let rec = record(i, &result);
                if pass == 0 {
                    out.check(true, String::new);
                    p.records.push(rec);
                    keep(i, result);
                } else {
                    out.check(rec == p.records[i], || {
                        format!(
                            "exact record drifted between passes:\n  {}\n  {rec}",
                            p.records[i]
                        )
                    });
                }
            }
            if pass + 1 >= MIN_PASSES && start.elapsed() >= budget {
                break;
            }
        }
        p
    }

    /// An item's latency: the median of its passes, each in reference
    /// milliseconds ([`HostClock`]).
    fn item_ms(&self, i: usize) -> f64 {
        median(&self.lat[i])
    }

    /// The corpus total of the per-item latencies, in milliseconds.
    fn compile_ms(&self) -> f64 {
        (0..self.lat.len()).map(|i| self.item_ms(i)).sum()
    }

    /// The compile metrics, and the serve metrics as they read on a path
    /// with no cache: every request, first or repeated, is a compile.
    fn report(&self, out: &mut Outcome) {
        let items: Vec<f64> = (0..self.lat.len()).map(|i| self.item_ms(i)).collect();
        out.set("compile_s", self.compile_ms() / 1e3);
        out.set("compile_p50_ms", quantile(&items, 0.5));
        out.set("compile_p90_ms", quantile(&items, 0.9));
        out.set("hit_p50_ms", quantile(&items, 0.5));
        out.set("miss_p50_ms", quantile(&items, 0.5));
        out.set("rps", items.len() as f64 / (self.compile_ms() / 1e3));
        out.set("warm_boot_s", self.compile_ms() / 1e3);
    }

    /// Print the digest of the exact-count record.
    fn print_digest(&self) {
        println!(
            "record_digest {:016x} items {}",
            digest(self.records.iter().map(String::as_str)),
            self.records.len()
        );
    }
}

/// The exact-count record of a single-target report (same format as
/// [`traced_single`]'s).
fn single_record(name: &str, r: &OptimizationReport) -> String {
    let mut rec = format!("{name} stop={:?}", r.stop_reason);
    for s in &r.steps {
        StepCounts {
            step: s.step,
            nodes: s.n_nodes,
            classes: s.n_classes,
            matches: s.search_matches,
            candidates: s.search_candidates,
            frontier: s.frontier_candidates,
            applied: s.applied.iter().map(|(_, n)| n).sum(),
        }
        .write(&mut rec);
        let _ = write!(rec, " cost {:?} best {}", s.cost, s.best);
    }
    rec
}

/// The exact-count record of a multi-target report and its C.
fn multi_report_record(name: &str, r: &MultiReport, c: &str) -> String {
    c_record(report_record(name, r), c)
}

fn c_record(mut rec: String, c: &str) -> String {
    let _ = write!(rec, " | c {} bytes {:016x}", c.len(), digest([c]));
    rec
}

fn item_name(kernel: Kernel, target: Option<Target>) -> String {
    match target {
        Some(t) => format!("{kernel}/{t}"),
        None => kernel.to_string(),
    }
}

/// Fig. 7's kernels: every kernel but the ones its default config skips.
pub fn timed_kernel(kernel: Kernel) -> bool {
    !Fig7Config::default().skip.contains(&kernel)
}

/// Check `solution` against the case's reference, counting the outcome.
fn check_solution(out: &mut Outcome, case: &Case, what: &str, solution: &Expr) {
    let result = case.check(solution);
    out.check(result.is_ok(), || {
        format!("{what}: {}", result.unwrap_err())
    });
}

/// Time the BLAS solutions against their references and report the
/// geometric-mean speedup; returns per-kernel speedups for the rows.
fn speedups(out: &mut Outcome, items: &[(&Case, &Expr)], budget: Duration) -> Vec<(Kernel, f64)> {
    let timed = time_solutions(items, budget, MIN_ROUNDS);
    let per_kernel: Vec<(Kernel, f64)> = timed.iter().map(|t| (t.kernel, t.speedup())).collect();
    out.set(
        "speedup_geomean",
        geomean(&per_kernel.iter().map(|(_, s)| *s).collect::<Vec<_>>()),
    );
    per_kernel
}

/// A number for a JSON row (`null` when not finite).
pub fn fmt_f(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Traced passes of a compile workload: `item(layers, i)` traces item `i`
/// and returns its record and per-item layers; the traced record must
/// equal the untraced one and the layers must reconcile with the wall.
fn traced_passes(
    out: &mut Outcome,
    records: &[String],
    mut item: impl FnMut(&mut Layers, usize) -> (layers::Traced, String),
) -> (Layers, Vec<Layers>) {
    let mut passes = Vec::new();
    let mut last_items = Vec::new();
    for _ in 0..TRACED_PASSES {
        let mut pass = Layers::default();
        last_items.clear();
        for (i, untraced) in records.iter().enumerate() {
            let mut l = Layers::default();
            let (traced, record) = item(&mut l, i);
            out.check(&record == untraced, || {
                format!("traced pass diverged from the untraced run:\n  {untraced}\n  {record}")
            });
            out.check(traced.reconciles(), || {
                format!(
                    "item {i}: layers sum to {:.3} ms of a {:.3} ms wall (tolerance {}% or {} ms)",
                    traced.layer_ms,
                    traced.wall_ms,
                    layers::RECONCILE_SHARE * 100.0,
                    layers::RECONCILE_FLOOR_MS
                )
            });
            pass.merge(&l);
            last_items.push(l);
        }
        passes.push(pass);
    }
    (Layers::min_of(&passes), last_items)
}

/// Phase-time row fields of one traced item.
fn phase_fields(l: &Layers) -> Vec<(&'static str, String)> {
    [
        ("add_ms", "egraph.add_expr_ms"),
        ("search_ms", "runner.search_ms"),
        ("apply_ms", "runner.apply_ms"),
        ("rebuild_ms", "runner.rebuild_ms"),
        ("extract_step_ms", "extract.step_ms"),
        ("flatten_ms", "extract.flatten_ms"),
        ("dag_ms", "extract.dag_ms"),
        ("emit_ms", "codegen.emit_ms"),
        ("wall_ms", "trace.wall_ms"),
    ]
    .iter()
    .map(|(k, name)| (*k, fmt_f(l.get(name))))
    .collect()
}

/// The `per-target` workload.
pub fn per_target(cfg: &Config, out: &mut Outcome) {
    let (cases, setup_s) = repeat_setup(SETUP_REPS, || corpus(Kernel::bench_size, cfg.seed));
    out.set("setup_s", setup_s);
    let cases = match cases {
        Ok(c) => c,
        Err(e) => return out.check(false, || format!("set-up: {e}")),
    };
    let items: Vec<(usize, Target)> = (0..cases.len())
        .flat_map(|i| [(i, Target::Blas), (i, Target::Torch)])
        .collect();
    let name = |j: usize| item_name(cases[items[j].0].kernel, Some(items[j].1));

    let start = Instant::now();
    let mut reports: Vec<Option<OptimizationReport>> = vec![None; items.len()];
    let passes = Passes::run(
        items.len(),
        cfg.budget.mul_f64(0.8),
        out,
        |j| {
            let (i, target) = items[j];
            Some(pipeline_for(cases[i].kernel, target).optimize(&cases[i].expr))
        },
        |j, r| single_record(&name(j), r),
        |j, r| reports[j] = Some(r),
    );
    passes.report(out);

    let finals: Vec<Option<&liar_core::StepReport>> = reports
        .iter()
        .map(|r| r.as_ref().map(|r| r.best()))
        .collect();
    out.set(
        "cost_geomean",
        geomean(&finals.iter().flatten().map(|b| b.cost).collect::<Vec<_>>()),
    );
    out.set(
        "lib_solutions",
        finals
            .iter()
            .flatten()
            .filter(|b| !b.lib_calls.is_empty())
            .count() as f64,
    );
    for (j, best) in finals.iter().enumerate() {
        if let Some(best) = best {
            check_solution(out, &cases[items[j].0], &name(j), &best.best);
        }
    }
    let blas: Vec<(&Case, &Expr)> = items
        .iter()
        .zip(&finals)
        .filter(|((i, t), _)| *t == Target::Blas && timed_kernel(cases[*i].kernel))
        .filter_map(|((i, _), best)| Some((&cases[*i], &best.as_ref()?.best)))
        .collect();
    let speedup = speedups(out, &blas, cfg.budget.saturating_sub(start.elapsed()));
    out.set("peak_heap_mb", peak_heap_mb());

    let traced = cfg.trace.then(|| {
        let store = SnapshotStore::open(cfg.scratch.join("per-target")).ok();
        let (layers, per_item) = traced_passes(out, &passes.records, |l, j| {
            let (i, target) = items[j];
            let case = &cases[i];
            let pipeline = pipeline_for(case.kernel, target);
            let traced = traced_single(l, &name(j), &case.expr, target, &pipeline.budget_knobs());
            probe_extract(l, &traced, target);
            let persist = store.as_ref().map(|store| Persist {
                store,
                fingerprint: pipeline.request_fingerprint(&case.expr, &[target], &[1.0]),
            });
            probe_snapshot(l, &traced, &case.expr, persist, false);
            probe_codegen(l, case, &traced.solutions);
            let request = request_for(&case.expr, &[target], &pipeline);
            probe_frame(l, &request, &response_for(&traced.solutions));
            if target == Target::Blas {
                probe_runtime(l, case, &traced.solutions[0].2);
            }
            let record = traced.record.clone();
            (traced, record)
        });
        (layers, per_item)
    });

    for (j, &(i, target)) in items.iter().enumerate() {
        let Some(r) = &reports[j] else { continue };
        let best = r.best();
        let mut row = vec![
            ("workload", json_str("per-target")),
            ("kernel", json_str(cases[i].kernel.name())),
            ("target", json_str(target.name())),
            ("solution", json_str(&best.solution_summary())),
            ("cost", fmt_f(best.cost)),
            ("enodes", best.n_nodes.to_string()),
            ("steps", best.step.to_string()),
            ("compile_ms", fmt_f(passes.item_ms(j))),
        ];
        if target == Target::Blas {
            if let Some((_, s)) = speedup.iter().find(|(k, _)| *k == cases[i].kernel) {
                row.push(("speedup", fmt_f(*s)));
            }
        }
        match &traced {
            Some((_, per_item)) => row.extend(phase_fields(&per_item[j])),
            None => row.push(("search_ms", fmt_f(ms(r.total_search_time())))),
        }
        print_row(&row);
    }
    passes.print_digest();

    if let Some((mut layers, _)) = traced {
        let requests: Vec<_> = items
            .iter()
            .map(|&(i, t)| request_for(&cases[i].expr, &[t], &pipeline_for(cases[i].kernel, t)))
            .collect();
        serve::probe_daemon(&mut layers, &requests, out);
        layers.report(out, passes.compile_ms());
    }
}

/// Saturation steps of the union-ruleset workloads (`all-targets` and
/// the daemon of `serve-mix`). At 7 or more steps the union ruleset
/// extracts ill-shaped BLAS solutions for jacobi1d, blur1d and stencil2d
/// (a `gemv` whose `C` operand has the wrong length), which the output
/// check rejects; 6 steps — the table harness's limit for its largest
/// kernels — is the most that every kernel survives.
pub const UNION_STEPS: usize = 6;

/// The pipeline of `liar emit-c --targets pure-c,blas,pytorch --steps 6`.
fn emit_pipeline() -> Liar {
    Liar::new(Target::ALL[0]).with_iter_limit(UNION_STEPS)
}

/// The `all-targets` workload.
pub fn all_targets(cfg: &Config, out: &mut Outcome) {
    let (cases, setup_s) = repeat_setup(SETUP_REPS, || corpus(Kernel::search_size, cfg.seed));
    out.set("setup_s", setup_s);
    let cases = match cases {
        Ok(c) => c,
        Err(e) => return out.check(false, || format!("set-up: {e}")),
    };
    let signatures: Vec<_> = cases.iter().map(c_inputs).collect();
    let c_name = |i: usize| cases[i].kernel.name().replace('-', "_");

    let start = Instant::now();
    let mut results: Vec<Option<(MultiReport, String)>> = vec![None; cases.len()];
    let passes = Passes::run(
        cases.len(),
        cfg.budget.mul_f64(0.8),
        out,
        |i| {
            let report = emit_pipeline()
                .optimize_multi(&cases[i].expr, &Target::ALL, &[1.0])
                .ok()?;
            let variants: Vec<(String, &Expr)> = report
                .solutions
                .iter()
                .map(|s| (s.target.name().replace('-', "_"), &s.best))
                .collect();
            let c = emit_kernel_variants(&c_name(i), &variants, &signatures[i]);
            Some((report, c))
        },
        |i, (r, c)| multi_report_record(&item_name(cases[i].kernel, None), r, c),
        |i, r| results[i] = Some(r),
    );
    passes.report(out);

    let solutions: Vec<(usize, &liar_core::MultiSolution)> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| Some((i, r.as_ref()?)))
        .flat_map(|(i, (r, _))| r.solutions.iter().map(move |s| (i, s)))
        .collect();
    out.set(
        "cost_geomean",
        geomean(
            &solutions
                .iter()
                .map(|(_, s)| s.dag_cost)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "lib_solutions",
        solutions
            .iter()
            .filter(|(_, s)| s.target != Target::PureC && !s.lib_calls.is_empty())
            .count() as f64,
    );
    for (i, s) in &solutions {
        let what = format!("{}/{}", cases[*i].kernel, s.target);
        check_solution(out, &cases[*i], &what, &s.best);
        check_solution(out, &cases[*i], &format!("{what} (dag)"), &s.dag_best);
    }
    let blas: Vec<(&Case, &Expr)> = solutions
        .iter()
        .filter(|(i, s)| s.target == Target::Blas && timed_kernel(cases[*i].kernel))
        .map(|(i, s)| (&cases[*i], &s.best))
        .collect();
    let speedup = speedups(out, &blas, cfg.budget.saturating_sub(start.elapsed()));
    out.set("peak_heap_mb", peak_heap_mb());

    let knobs = emit_pipeline().budget_knobs();
    let traced = cfg.trace.then(|| {
        let store = SnapshotStore::open(cfg.scratch.join("all-targets")).ok();
        traced_passes(out, &passes.records, |l, i| {
            let case = &cases[i];
            let name = item_name(case.kernel, None);
            let traced = traced_multi(
                l,
                &name,
                &case.expr,
                &knobs,
                None,
                Some((&c_name(i), &signatures[i])),
            );
            let persist = store.as_ref().map(|store| Persist {
                store,
                fingerprint: emit_pipeline().request_fingerprint(&case.expr, &Target::ALL, &[1.0]),
            });
            probe_snapshot(l, &traced, &case.expr, persist, false);
            let request = request_for(&case.expr, &Target::ALL, &emit_pipeline());
            probe_frame(l, &request, &response_for(&traced.solutions));
            if let Some((_, _, best, _, _)) = traced.solutions.iter().find(|s| s.0 == Target::Blas)
            {
                probe_runtime(l, case, best);
            }
            let record = c_record(
                without_applied(&traced.record),
                traced.c.as_deref().unwrap_or(""),
            );
            (traced, record)
        })
    });

    for (i, case) in cases.iter().enumerate() {
        let Some((r, c)) = &results[i] else { continue };
        for s in &r.solutions {
            let mut row = vec![
                ("workload", json_str("all-targets")),
                ("kernel", json_str(case.kernel.name())),
                ("target", json_str(s.target.name())),
                ("solution", json_str(&s.solution_summary())),
                ("cost", fmt_f(s.cost)),
                ("dag_cost", fmt_f(s.dag_cost)),
                ("enodes", r.n_nodes.to_string()),
                ("steps", (r.steps.len() - 1).to_string()),
                ("compile_ms", fmt_f(passes.item_ms(i))),
                ("c_bytes", c.len().to_string()),
            ];
            if s.target == Target::Blas {
                if let Some((_, sp)) = speedup.iter().find(|(k, _)| *k == case.kernel) {
                    row.push(("speedup", fmt_f(*sp)));
                }
            }
            match &traced {
                Some((_, per_item)) => row.extend(phase_fields(&per_item[i])),
                None => row.push(("search_ms", fmt_f(ms(r.total_search_time())))),
            }
            print_row(&row);
        }
    }
    passes.print_digest();

    if let Some((mut layers, _)) = traced {
        let requests: Vec<_> = cases
            .iter()
            .map(|c| request_for(&c.expr, &Target::ALL, &emit_pipeline()))
            .collect();
        serve::probe_daemon(&mut layers, &requests, out);
        layers.report(out, passes.compile_ms());
    }
}
