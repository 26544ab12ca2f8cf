//! The `liar` command-line tool: optimize IR expressions from the shell,
//! or run the optimization service.
//!
//! ```text
//! # Optimize an expression for a target and show the per-step solutions:
//! liar optimize --target blas '(ifold #64 0 (lam (lam (+ (get xs %1) %0))))'
//!
//! # Saturate ONCE and extract for every target from the same e-graph:
//! liar optimize --all-targets '(ifold #64 0 (lam (lam (+ (get xs %1) %0))))'
//! liar kernel --targets blas,pytorch gemv
//!
//! # Emit C for the best solution of a kernel (or every target's variant):
//! liar emit-c gemv
//! liar emit-c --all-targets gemv
//!
//! # Prove a lifting: print the rewrite certificate and replay it
//! # (exit 1 if the proof fails to check):
//! liar explain gemv --target blas
//!
//! # Render the saturated e-graph (optionally with the proof path lit):
//! liar dot '(ifold #4 0 (lam (lam (+ (get xs %1) %0))))' --explain
//!
//! # Profile a kernel (self-time per phase and per rule), or export a
//! # Chrome trace-event JSON of any optimization run:
//! liar profile gemv
//! liar profile gemv --json                     # machine-readable tables
//! liar kernel gemv --trace gemv-trace.json     # open in chrome://tracing
//!
//! # Growth attribution: which rule built the e-graph? Prints the
//! # per-rule funnel (candidates → matches → applied → nodes created)
//! # and the e-graph's composition by operator:
//! liar inspect gemv
//! liar inspect gemv --json
//!
//! # Run the optimization daemon, and submit programs to it:
//! liar serve --addr 127.0.0.1:4004 --workers 2
//! liar submit --addr 127.0.0.1:4004 --kernel gemv
//! liar stats --addr 127.0.0.1:4004 --prometheus
//! liar stats --inspect                         # live tables + flight tail
//!
//! # Discover commands and flags:
//! liar help
//! liar help submit
//! ```
//!
//! Exit codes: `0` success, `1` runtime failure (e.g. the daemon is not
//! reachable), `2` usage or input error. A reader that closes stdout
//! early (`liar kernels | head -1`) ends the run quietly with `0`.

use std::process::ExitCode;
use std::sync::Arc;

use liar::codegen::{emit_kernel, emit_kernel_variants, CInput};
use liar::core::pipeline::{count_lib_calls, lib_call_summary};
use liar::core::rules::rules_for;
use liar::core::{InspectReport, Liar, MachineProfile, RuleConfig, Target, TargetCost};
use liar::egraph::{DagExtractor, Dot, ExactExtractor, Extractor};
use liar::ir::Expr;
use liar::kernels::Kernel;
use liar::serve::json::Json;
use liar::serve::protocol::target_from_wire;
use liar::serve::{
    Client, IntrospectResponse, OptimizeRequest, Server, ServerConfig, StatsResponse,
};
use liar::trace::{self_times, Recorder};

// ---------------------------------------------------------------------------
// Output: every `print!`/`println!` in this file goes through `emit`.

macro_rules! print {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Write to stdout. When the reader has gone away (`liar kernels | head
/// -1`) there is no one left to answer: exit 0 quietly instead of
/// panicking on the broken pipe.
fn emit(args: std::fmt::Arguments) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

// ---------------------------------------------------------------------------
// The arg table: one declarative spec per command, one parser for all.

/// One `--flag` a command accepts.
struct FlagSpec {
    /// The flag, with leading dashes (e.g. `--steps`).
    name: &'static str,
    /// `Some(metavar)` when the flag takes a value, `None` for switches.
    metavar: Option<&'static str>,
    /// One-line help.
    help: &'static str,
}

/// One subcommand.
struct CommandSpec {
    name: &'static str,
    /// Positional-argument usage, e.g. `'<expr>'`.
    positional: &'static str,
    about: &'static str,
    flags: &'static [FlagSpec],
    run: fn(&Parsed) -> Result<ExitCode, String>,
}

/// Parsed arguments of one command invocation.
struct Parsed {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    positionals: Vec<String>,
}

impl Parsed {
    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name) || self.value(name).is_some()
    }

    fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} expects a number, got {v:?}")),
        }
    }
}

/// Parse `args` against a command's flag table. Unknown flags and
/// missing flag values are errors; `--` ends flag parsing.
fn parse_flags(spec: &CommandSpec, args: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        values: Vec::new(),
        switches: Vec::new(),
        positionals: Vec::new(),
    };
    let mut i = 0;
    let mut flags_done = false;
    while i < args.len() {
        let arg = &args[i];
        if flags_done || !arg.starts_with("--") {
            parsed.positionals.push(arg.clone());
            i += 1;
            continue;
        }
        if arg == "--" {
            flags_done = true;
            i += 1;
            continue;
        }
        let Some(flag) = spec.flags.iter().find(|f| f.name == arg) else {
            return Err(format!(
                "unknown flag {arg} for `liar {}` (see `liar help {}`)",
                spec.name, spec.name
            ));
        };
        match flag.metavar {
            None => parsed.switches.push(flag.name),
            Some(metavar) => {
                let value = args
                    .get(i + 1)
                    .ok_or(format!("{} expects a value <{metavar}>", flag.name))?;
                parsed.values.push((flag.name, value.clone()));
                i += 1;
            }
        }
        i += 1;
    }
    Ok(parsed)
}

// ---------------------------------------------------------------------------
// Shared flag groups and helpers.

const TARGET_FLAGS: [FlagSpec; 8] = [
    FlagSpec {
        name: "--verbose",
        metavar: None,
        help: "also print the top-10 most-applied rules (single-target mode)",
    },
    FlagSpec {
        name: "--trace",
        metavar: Some("FILE"),
        help: "record phase/rule spans; write Chrome trace-event JSON to FILE",
    },
    FlagSpec {
        name: "--target",
        metavar: Some("T"),
        help: "single target: blas | pytorch | pure-c (default blas)",
    },
    FlagSpec {
        name: "--targets",
        metavar: Some("A,B"),
        help: "comma-separated targets; saturate once, extract each",
    },
    FlagSpec {
        name: "--all-targets",
        metavar: None,
        help: "shorthand for --targets pure-c,blas,pytorch",
    },
    FlagSpec {
        name: "--steps",
        metavar: Some("N"),
        help: "saturation-step limit (default 8)",
    },
    FlagSpec {
        name: "--profile",
        metavar: Some("P,Q"),
        help: "machine profiles to extract under: default | gpu | simd",
    },
    FlagSpec {
        name: "--extractor",
        metavar: Some("E"),
        help: "extractor: tree | dag | exact (default: greedy tree+dag report)",
    },
];

fn parse_target_name(name: &str) -> Result<Target, String> {
    target_from_wire(name)
        .ok_or_else(|| format!("unknown target {name:?} (expected blas | pytorch | pure-c)"))
}

/// The multi-extraction target list (`--all-targets` / `--targets`), or
/// `None` in single-target mode.
fn multi_targets(p: &Parsed) -> Result<Option<Vec<Target>>, String> {
    if p.has("--all-targets") {
        return Ok(Some(Target::ALL.to_vec()));
    }
    let Some(list) = p.value("--targets") else {
        return Ok(None);
    };
    let mut targets: Vec<Target> = Vec::new();
    for name in list.split(',') {
        let t = parse_target_name(name)?;
        // Dedupe: a repeated target would extract twice and emit-c would
        // emit two identical function definitions.
        if !targets.contains(&t) {
            targets.push(t);
        }
    }
    Ok(Some(targets))
}

fn single_target(p: &Parsed) -> Result<Target, String> {
    p.value("--target").map_or(Ok(Target::Blas), parse_target_name)
}

/// The `--profile` list (default: the identity profile alone).
fn parse_profiles(p: &Parsed) -> Result<Vec<MachineProfile>, String> {
    let Some(list) = p.value("--profile") else {
        return Ok(vec![MachineProfile::default()]);
    };
    let mut profiles: Vec<MachineProfile> = Vec::new();
    for name in list.split(',') {
        let profile = MachineProfile::by_name(name).ok_or_else(|| {
            format!(
                "unknown machine profile {name:?} (expected one of {:?})",
                MachineProfile::ALL_NAMES
            )
        })?;
        if !profiles.contains(&profile) {
            profiles.push(profile);
        }
    }
    Ok(profiles)
}

/// Which extraction algorithm `--extractor` asked for, if any.
#[derive(Clone, Copy)]
enum ExtractorKind {
    Tree,
    Dag,
    Exact,
}

impl ExtractorKind {
    fn name(self) -> &'static str {
        match self {
            ExtractorKind::Tree => "tree",
            ExtractorKind::Dag => "dag",
            ExtractorKind::Exact => "exact",
        }
    }
}

fn parse_extractor(p: &Parsed) -> Result<Option<ExtractorKind>, String> {
    match p.value("--extractor") {
        None => Ok(None),
        Some("tree") => Ok(Some(ExtractorKind::Tree)),
        Some("dag") => Ok(Some(ExtractorKind::Dag)),
        Some("exact") => Ok(Some(ExtractorKind::Exact)),
        Some(other) => Err(format!(
            "unknown extractor {other:?} (expected tree | dag | exact)"
        )),
    }
}

fn usage_err(message: String) -> Result<ExitCode, String> {
    Err(message)
}

// ---------------------------------------------------------------------------
// optimize / kernel / emit-c / kernels

fn report(
    expr: &Expr,
    target: Target,
    steps: usize,
    verbose: bool,
    recorder: Option<&Arc<Recorder>>,
) {
    let mut pipeline = Liar::new(target).with_iter_limit(steps);
    if let Some(rec) = recorder {
        pipeline = pipeline.with_trace(Arc::clone(rec));
    }
    let report = pipeline.optimize(expr);
    println!("target: {target}");
    for step in &report.steps {
        println!(
            "step {:>2}: {:>7} e-nodes  cost {:>12.1}  {}",
            step.step,
            step.n_nodes,
            step.cost,
            step.solution_summary()
        );
    }
    println!("stopped: {}", report.stop_reason);
    if verbose {
        print_top_rules(&report, recorder.map(|r| r.as_ref()));
    }
    println!("\nbest expression:\n{}", report.best().best);
}

/// Sum per-rule self-time (µs) from a recorder's `search/<rule>` and
/// `apply/<rule>` spans.
fn rule_self_times(recorder: &Recorder) -> std::collections::BTreeMap<String, u64> {
    let events = recorder.events();
    let mut by_rule: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for row in self_times(&events) {
        if let Some(rule) = row
            .name
            .strip_prefix("search/")
            .or_else(|| row.name.strip_prefix("apply/"))
        {
            *by_rule.entry(rule.to_string()).or_insert(0) += row.self_us;
        }
    }
    by_rule
}

/// The `--verbose` provenance summary: per-rule application counts
/// aggregated over every saturation step, top ten by count. When a trace
/// recorder was attached, each row also shows the rule's self-time
/// (search + apply span time, excluding children).
fn print_top_rules(report: &liar::core::OptimizationReport, recorder: Option<&Recorder>) {
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for step in &report.steps {
        for (rule, n) in &step.applied {
            if *n > 0 {
                *counts.entry(rule.as_str()).or_insert(0) += n;
            }
        }
    }
    let mut ranked: Vec<_> = counts.into_iter().collect();
    // Count descending, name ascending for a stable order.
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let total: usize = ranked.iter().map(|(_, n)| n).sum();
    let times = recorder.map(rule_self_times);
    println!("\nrule applications ({total} total, top {}):", ranked.len().min(10));
    for (rule, n) in ranked.iter().take(10) {
        match &times {
            Some(map) => {
                let ms = *map.get(*rule).unwrap_or(&0) as f64 / 1000.0;
                println!("  {n:>7} × {rule:<40} {ms:>9.3} ms self");
            }
            None => println!("  {n:>7} × {rule}"),
        }
    }
}

/// Run the "saturate once, extract everywhere" pipeline and print its
/// report.
fn report_multi(
    expr: &Expr,
    targets: &[Target],
    steps: usize,
    profiles: Vec<MachineProfile>,
    recorder: Option<&Arc<Recorder>>,
) -> Result<(), String> {
    let mut pipeline = Liar::new(targets[0])
        .with_iter_limit(steps)
        .with_profiles(profiles);
    if let Some(rec) = recorder {
        pipeline = pipeline.with_trace(Arc::clone(rec));
    }
    let report = pipeline
        .optimize_multi(expr, targets, &[1.0])
        .map_err(|e| e.to_string())?;
    let names: Vec<&str> = targets.iter().map(|t| t.name()).collect();
    println!("targets: {} (one shared saturation)", names.join(", "));
    for step in &report.steps {
        println!(
            "step {:>2}: {:>7} e-nodes {:>6} classes  step {:>9.3?}  search {:>9.3?}",
            step.step, step.n_nodes, step.n_classes, step.step_time, step.search_time,
        );
    }
    println!(
        "stopped: {} (saturation {:.3?}, extraction {:.3?})\n",
        report.stop_reason,
        report.saturation_time,
        report.total_extract_time(),
    );
    println!(
        "{:<8} {:<8} {:>12} {:>12} {:>8} {:>10}  solution",
        "target", "profile", "tree cost", "dag cost", "shared", "extract"
    );
    for s in &report.solutions {
        println!(
            "{:<8} {:<8} {:>12.1} {:>12.1} {:>7.1}% {:>10.3?}  {}",
            s.target.name(),
            s.profile,
            s.cost,
            s.dag_cost,
            100.0 * s.sharing_discount(),
            s.extract_time,
            s.solution_summary(),
        );
    }
    for s in &report.solutions {
        println!(
            "\nbest expression ({}, {}):\n{}",
            s.target.name(),
            s.profile,
            s.best
        );
    }
    Ok(())
}

/// Saturate once, then run one *chosen* extractor (`--extractor`) per
/// `target × profile` over the shared e-graph.
fn report_extract(
    expr: &Expr,
    targets: &[Target],
    steps: usize,
    profiles: &[MachineProfile],
    kind: ExtractorKind,
    recorder: Option<&Arc<Recorder>>,
) -> Result<(), String> {
    let mut pipeline = Liar::new(targets[0]).with_iter_limit(steps);
    if let Some(rec) = recorder {
        pipeline = pipeline.with_trace(Arc::clone(rec));
    }
    let start = std::time::Instant::now();
    let (egraph, root) = pipeline.saturate_for_targets(expr, targets);
    let names: Vec<&str> = targets.iter().map(|t| t.name()).collect();
    println!(
        "targets: {} (one shared saturation: {} e-nodes, {} classes, {:.3?}; extractor: {})",
        names.join(", "),
        egraph.num_nodes(),
        egraph.num_classes(),
        start.elapsed(),
        kind.name(),
    );
    println!(
        "\n{:<8} {:<8} {:>12} {:>10}  {:<22} solution",
        "target", "profile", "cost", "extract", "detail"
    );
    let mut bests: Vec<(String, Expr)> = Vec::new();
    for &target in targets {
        for profile in profiles {
            let cost_fn = TargetCost::new(target).with_profile(*profile);
            let err = || {
                format!(
                    "no extractable solution for target {} under profile {} — every \
                     equivalent term costs infinity",
                    target.name(),
                    profile.name
                )
            };
            let t0 = std::time::Instant::now();
            let (cost, best, detail) = match kind {
                ExtractorKind::Tree => {
                    let ex = Extractor::new(&egraph, cost_fn);
                    let (cost, best) = ex.try_find_best(root).map_err(|_| err())?;
                    let stats = ex.stats();
                    (cost, best, format!("{} relaxations", stats.relaxations))
                }
                ExtractorKind::Dag => {
                    let ex = DagExtractor::new(&egraph, cost_fn);
                    let (cost, best) = ex.try_find_best(root).map_err(|_| err())?;
                    let selected = ex.selected_classes(root).unwrap_or(0);
                    (cost, best, format!("{selected} classes selected"))
                }
                ExtractorKind::Exact => {
                    let ex = ExactExtractor::new(&egraph, cost_fn);
                    let report = ex.solve(root).ok_or_else(err)?;
                    let detail = format!(
                        "{} ({} steps, {} classes)",
                        report.outcome, report.steps, report.reachable_classes
                    );
                    (report.cost, report.expr, detail)
                }
            };
            let elapsed = t0.elapsed();
            let solution = lib_call_summary(&count_lib_calls(&best));
            println!(
                "{:<8} {:<8} {:>12.1} {:>10.3?}  {:<22} {}",
                target.name(),
                profile.name,
                cost,
                elapsed,
                detail,
                solution,
            );
            bests.push((format!("{}, {}", target.name(), profile.name), best));
        }
    }
    for (label, best) in &bests {
        println!("\nbest expression ({label}):\n{best}");
    }
    Ok(())
}

fn run_optimize(p: &Parsed) -> Result<ExitCode, String> {
    let [expr_text] = p.positionals.as_slice() else {
        return usage_err("optimize expects exactly one '<expr>' argument".to_string());
    };
    let expr: Expr = expr_text
        .parse()
        .map_err(|e| format!("parse error: {e}"))?;
    let steps = p.usize_or("--steps", 8)?;
    run_optimization(p, &expr, steps)?;
    Ok(ExitCode::SUCCESS)
}

/// Shared routing for `optimize` and `kernel`: the classic per-step
/// report in single-target mode, the multi-extraction report otherwise —
/// `--profile` and `--extractor` imply the multi machinery even for a
/// single target.
fn run_optimization(p: &Parsed, expr: &Expr, steps: usize) -> Result<(), String> {
    let profiles = parse_profiles(p)?;
    let extractor = parse_extractor(p)?;
    let targets = match multi_targets(p)? {
        Some(t) => Some(t),
        None if extractor.is_some() || p.has("--profile") => Some(vec![single_target(p)?]),
        None => None,
    };
    let trace_path = p.value("--trace");
    let verbose = p.has("--verbose");
    // One recorder powers both `--trace` (the Chrome export) and the
    // `--verbose` per-rule self-time column. Tracing is observational:
    // reports and solutions are bit-identical with it on or off.
    let recorder = (trace_path.is_some() || verbose).then(Recorder::new);
    match (targets, extractor) {
        (Some(targets), Some(kind)) => {
            report_extract(expr, &targets, steps, &profiles, kind, recorder.as_ref())?
        }
        (Some(targets), None) => report_multi(expr, &targets, steps, profiles, recorder.as_ref())?,
        (None, _) => report(expr, single_target(p)?, steps, verbose, recorder.as_ref()),
    }
    if let Some(path) = trace_path {
        let rec = recorder.as_ref().expect("--trace implies a recorder");
        std::fs::write(path, rec.chrome_trace_json())
            .map_err(|e| format!("cannot write trace file {path}: {e}"))?;
        eprintln!("trace: wrote {path} (open in chrome://tracing or Perfetto)");
    }
    Ok(())
}

fn kernel_arg(p: &Parsed) -> Result<Kernel, String> {
    let [name] = p.positionals.as_slice() else {
        return Err("expected exactly one <kernel-name> argument (see `liar kernels`)".to_string());
    };
    Kernel::from_name(name).ok_or_else(|| format!("unknown kernel {name:?} (see `liar kernels`)"))
}

fn run_kernel(p: &Parsed) -> Result<ExitCode, String> {
    let kernel = kernel_arg(p)?;
    let expr = kernel.expr(kernel.search_size());
    let steps = p.usize_or("--steps", 8)?;
    println!("kernel {}: {}\n", kernel.name(), kernel.description());
    run_optimization(p, &expr, steps)?;
    Ok(ExitCode::SUCCESS)
}

/// `liar profile <kernel>`: run the kernel through the full pipeline with
/// the trace recorder attached and print where the wall-clock went —
/// per phase (saturate / search / apply / rebuild / extraction) and per
/// rule, as self-time (span time minus child spans).
fn run_profile(p: &Parsed) -> Result<ExitCode, String> {
    let kernel = kernel_arg(p)?;
    let target = single_target(p)?;
    let steps = p.usize_or("--steps", 8)?;
    let top = p.usize_or("--top", 15)?;
    let expr = kernel.expr(kernel.search_size());

    let recorder = Recorder::new();
    let pipeline = Liar::new(target)
        .with_iter_limit(steps)
        .with_trace(Arc::clone(&recorder));
    let report = pipeline
        .optimize_multi(&expr, &[target], &[1.0])
        .map_err(|e| e.to_string())?;

    let events = recorder.events();
    let rows = self_times(&events);
    let is_rule = |name: &str| name.starts_with("search/") || name.starts_with("apply/");
    let ms = |us: u64| us as f64 / 1000.0;

    // Fold `search/<rule>` and `apply/<rule>` into one row per rule.
    let mut by_rule: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for r in rows.iter().filter(|r| is_rule(&r.name)) {
        if let Some(rule) = r.name.strip_prefix("search/") {
            by_rule.entry(rule).or_default().0 += r.self_us;
        } else if let Some(rule) = r.name.strip_prefix("apply/") {
            by_rule.entry(rule).or_default().1 += r.self_us;
        }
    }
    let mut ranked: Vec<(&str, (u64, u64))> = by_rule.into_iter().collect();
    ranked.sort_by(|a, b| {
        let (sa, sb) = (a.1 .0 + a.1 .1, b.1 .0 + b.1 .1);
        sb.cmp(&sa).then(a.0.cmp(b.0))
    });

    if p.has("--json") {
        // Stable key order, rows in the same deterministic sort the
        // tables print — scripts can diff two runs directly.
        let json = Json::obj([
            ("kernel", Json::Str(kernel.name().to_string())),
            ("target", Json::Str(target.name().to_string())),
            ("steps", Json::Num((report.steps.len() - 1) as f64)),
            ("n_nodes", Json::Num(report.n_nodes as f64)),
            ("n_classes", Json::Num(report.n_classes as f64)),
            ("stop_reason", Json::Str(report.stop_reason.to_string())),
            (
                "solution",
                Json::Str(report.solutions[0].solution_summary()),
            ),
            (
                "phases",
                Json::Arr(
                    rows.iter()
                        .filter(|r| !is_rule(&r.name))
                        .map(|r| {
                            Json::obj([
                                ("name", Json::Str(r.name.clone())),
                                ("count", Json::Num(r.count as f64)),
                                ("total_ms", Json::Num(ms(r.total_us))),
                                ("self_ms", Json::Num(ms(r.self_us))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "rules",
                Json::Arr(
                    ranked
                        .iter()
                        .map(|(rule, (search_us, apply_us))| {
                            Json::obj([
                                ("rule", Json::Str(rule.to_string())),
                                ("search_ms", Json::Num(ms(*search_us))),
                                ("apply_ms", Json::Num(ms(*apply_us))),
                                ("self_ms", Json::Num(ms(search_us + apply_us))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{}", json.to_json());
        if let Some(path) = p.value("--trace") {
            std::fs::write(path, recorder.chrome_trace_json())
                .map_err(|e| format!("cannot write trace file {path}: {e}"))?;
            eprintln!("trace: wrote {path} (open in chrome://tracing or Perfetto)");
        }
        return Ok(ExitCode::SUCCESS);
    }

    println!(
        "profile {} → {} ({} saturation steps, {} e-nodes, {} classes, stopped: {})",
        kernel.name(),
        target.name(),
        report.steps.len() - 1,
        report.n_nodes,
        report.n_classes,
        report.stop_reason,
    );
    println!("solution: {}", report.solutions[0].solution_summary());

    println!("\n{:<28} {:>7} {:>12} {:>12}", "phase", "count", "total ms", "self ms");
    for r in rows.iter().filter(|r| !is_rule(&r.name)) {
        println!(
            "{:<28} {:>7} {:>12.3} {:>12.3}",
            r.name,
            r.count,
            ms(r.total_us),
            ms(r.self_us)
        );
    }

    println!(
        "\nper-rule self-time (top {} of {}):",
        top.min(ranked.len()),
        ranked.len()
    );
    println!("{:<40} {:>12} {:>12} {:>12}", "rule", "search ms", "apply ms", "self ms");
    for (rule, (search_us, apply_us)) in ranked.iter().take(top) {
        println!(
            "{:<40} {:>12.3} {:>12.3} {:>12.3}",
            rule,
            ms(*search_us),
            ms(*apply_us),
            ms(search_us + apply_us)
        );
    }

    if let Some(path) = p.value("--trace") {
        std::fs::write(path, recorder.chrome_trace_json())
            .map_err(|e| format!("cannot write trace file {path}: {e}"))?;
        eprintln!("trace: wrote {path} (open in chrome://tracing or Perfetto)");
    }
    Ok(ExitCode::SUCCESS)
}

/// Print the two introspection tables (shared by `liar inspect` and
/// `liar stats --inspect`).
fn print_inspect_report(report: &InspectReport, top: usize) {
    println!(
        "e-graph: {} e-nodes in {} classes after {} steps ({} nodes retired by rebuild)",
        report.n_nodes, report.n_classes, report.steps, report.nodes_retired
    );
    match report.check() {
        Ok(()) => println!("conservation: ok (every node and class is charged to exactly one origin)"),
        Err(e) => println!("conservation: VIOLATED — {e}"),
    }

    println!(
        "\nrule funnel (top {} of {} origins by nodes created):",
        top.min(report.rules.len()),
        report.rules.len()
    );
    println!(
        "{:<40} {:>10} {:>9} {:>8} {:>8} {:>8} {:>7}",
        "rule", "candidates", "matches", "applied", "nodes", "classes", "merges"
    );
    for r in report.rules.iter().take(top) {
        println!(
            "{:<40} {:>10} {:>9} {:>8} {:>8} {:>8} {:>7}",
            r.name, r.candidates, r.matches, r.applied, r.nodes_created, r.classes_created,
            r.classes_merged
        );
    }

    println!(
        "\ncomposition by operator (top {} of {}):",
        top.min(report.ops.len()),
        report.ops.len()
    );
    println!("{:<24} {:>8} {:>8}", "op", "nodes", "classes");
    for o in report.ops.iter().take(top) {
        println!("{:<24} {:>8} {:>8}", o.op, o.nodes, o.classes);
    }
}

/// `liar inspect <kernel-or-expr>`: saturate once with the union ruleset
/// under growth attribution and print who built the e-graph (per-rule
/// funnel) and what it is made of (composition by operator).
fn run_inspect(p: &Parsed) -> Result<ExitCode, String> {
    let (label, expr) = kernel_or_expr(p)?;
    let targets = multi_targets(p)?.unwrap_or_else(|| Target::ALL.to_vec());
    let steps = p.usize_or("--steps", 8)?;
    let top = p.usize_or("--top", 20)?;

    let report = Liar::new(targets[0])
        .with_iter_limit(steps)
        .inspect(&expr, &targets);
    // The conservation invariant is the whole point of the tables: a
    // violation is a bug worth a non-zero exit, not a footnote.
    report
        .check()
        .map_err(|e| format!("attribution conservation violated: {e}"))?;

    if p.has("--json") {
        println!("{}", IntrospectResponse::report_to_json(&report).to_json());
        return Ok(ExitCode::SUCCESS);
    }
    let target_names: Vec<&str> = targets.iter().map(|t| t.name()).collect();
    println!("inspect {label} (targets {})", target_names.join(","));
    print_inspect_report(&report, top);
    Ok(ExitCode::SUCCESS)
}

/// The positional of `explain`/`dot`: a paper kernel by name, or any IR
/// expression.
fn kernel_or_expr(p: &Parsed) -> Result<(String, Expr), String> {
    let [text] = p.positionals.as_slice() else {
        return Err("expected exactly one <kernel-or-expr> argument".to_string());
    };
    if let Some(kernel) = Kernel::from_name(text) {
        return Ok((kernel.name().to_string(), kernel.expr(kernel.search_size())));
    }
    let expr: Expr = text
        .parse()
        .map_err(|e| format!("{text:?} is neither a kernel name (see `liar kernels`) nor a parseable expression: {e}"))?;
    Ok(("<expr>".to_string(), expr))
}

fn run_explain(p: &Parsed) -> Result<ExitCode, String> {
    let (label, expr) = kernel_or_expr(p)?;
    let target = single_target(p)?;
    let steps = p.usize_or("--steps", 8)?;

    let pipeline = Liar::new(target).with_iter_limit(steps);
    let (report, proof) = pipeline.optimize_explained(&expr);
    let best = &report.best().best;
    println!("explain {label} (target {target}, {} steps)", report.steps.len() - 1);
    println!("source:   {expr}");
    println!("solution: {best}  [{}]", report.best().solution_summary());
    println!("\nproof ({} rewrite steps):", proof.len());
    print!("{proof}");

    let rules = rules_for(target, &RuleConfig::default());
    match proof.check(&rules) {
        Ok(()) => {
            println!("\nproof replayed OK against {} rules", rules.len());
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("\nPROOF FAILED TO REPLAY: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn run_dot(p: &Parsed) -> Result<ExitCode, String> {
    let (_, expr) = kernel_or_expr(p)?;
    let target = single_target(p)?;
    let steps = p.usize_or("--steps", 8)?;
    let pipeline = Liar::new(target)
        .with_iter_limit(steps)
        .with_explanations(p.has("--explain"));
    let (report, mut egraph) = pipeline.optimize_with_egraph(&expr);
    if !p.has("--explain") {
        println!("{}", Dot::new(&egraph));
        return Ok(ExitCode::SUCCESS);
    }
    // Highlight the certificate path: the e-classes whose terms the
    // proof rewrites through (each step's rewritten subterm, plus the
    // root class the whole chain lives in).
    let proof = egraph.explain_equivalence(&expr, &report.best().best);
    let mut classes: Vec<liar::egraph::Id> = Vec::new();
    classes.extend(egraph.lookup_expr(&expr));
    for step in &proof.steps {
        classes.extend(egraph.lookup_expr(&step.before_subtree()));
        classes.extend(egraph.lookup_expr(&step.after_subtree()));
    }
    println!("{}", Dot::new(&egraph).with_highlights(classes));
    Ok(ExitCode::SUCCESS)
}

fn run_emit_c(p: &Parsed) -> Result<ExitCode, String> {
    let kernel = kernel_arg(p)?;
    let steps = p.usize_or("--steps", 8)?;
    let n = kernel.search_size();
    let inputs: Vec<CInput> = kernel
        .inputs(n, 0)
        .iter()
        .map(|(name, value)| {
            let t = value.to_tensor().expect("tensor input");
            if t.shape().is_empty() {
                CInput::scalar(name)
            } else {
                CInput::tensor(name, t.shape().to_vec())
            }
        })
        .collect();
    let c_name = kernel.name().replace('-', "_");
    if let Some(targets) = multi_targets(p)? {
        // One saturation, one C function per target's variant.
        let pipeline = Liar::new(targets[0]).with_iter_limit(steps);
        let report = pipeline
            .optimize_multi(&kernel.expr(n), &targets, &[1.0])
            .map_err(|e| e.to_string())?;
        let variants: Vec<(String, &Expr)> = report
            .solutions
            .iter()
            .map(|s| (s.target.name().replace('-', "_"), &s.best))
            .collect();
        println!("{}", emit_kernel_variants(&c_name, &variants, &inputs));
        return Ok(ExitCode::SUCCESS);
    }
    let pipeline = Liar::new(Target::Blas).with_iter_limit(steps);
    let best = pipeline.optimize(&kernel.expr(n)).best().best.clone();
    match emit_kernel(&c_name, &best, &inputs) {
        Ok(c) => {
            println!("{c}");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("codegen failed: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn run_kernels(_p: &Parsed) -> Result<ExitCode, String> {
    for k in Kernel::ALL {
        println!("{:<10} {:<10} {}", k.name(), k.suite().to_string(), k.description());
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// serve / submit

fn run_serve(p: &Parsed) -> Result<ExitCode, String> {
    let mut config = ServerConfig::default();
    config.addr = p.value("--addr").unwrap_or("127.0.0.1:4004").to_string();
    config.workers = p.usize_or("--workers", config.workers)?;
    config.queue_cap = p.usize_or("--queue-cap", config.queue_cap)?;
    config.cache_bytes = p.usize_or("--cache-mb", config.cache_bytes >> 20)? << 20;
    config.default_steps = p.usize_or("--steps", config.default_steps)?;
    config.max_steps = p.usize_or("--max-steps", config.max_steps)?;
    config.warm_dir = p.value("--warm").map(std::path::PathBuf::from);
    config.trace_dir = p.value("--trace-dir").map(std::path::PathBuf::from);
    let prewarm = config.warm_dir.is_some() && !p.has("--no-prewarm");
    let server = Server::start(config).map_err(|e| format!("cannot start: {e}"))?;
    println!("liar-serve listening on {}", server.local_addr());
    // Make the line visible to parents that pipe our stdout (CI smoke,
    // the integration tests).
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if prewarm {
        // Pre-saturate the kernel corpus so first requests are answered
        // warm (restore + extraction, zero saturation steps). Kernels
        // already in the store restore instead of re-saturating.
        let boot = std::time::Instant::now();
        let (saturated, warm) = server.prewarm_kernels();
        println!(
            "liar-serve warm store ready: {saturated} kernels saturated, \
             {warm} restored ({:.2}s)",
            boot.elapsed().as_secs_f64()
        );
        let _ = std::io::stdout().flush();
    }
    server.wait();
    eprintln!("liar-serve: shutdown requested, draining");
    server.shutdown();
    Ok(ExitCode::SUCCESS)
}

/// `liar stats`'s human-readable counter dump.
fn print_stats(stats: &StatsResponse) {
    println!(
        "cache: {} hits, {} misses, {} insertions, {} evictions, {} rejected",
        stats.cache_hits, stats.cache_misses, stats.cache_insertions,
        stats.cache_evictions, stats.cache_rejected
    );
    println!("cache: {} entries, {} bytes", stats.cache_entries, stats.cache_bytes);
    println!(
        "serve: {} requests, {} errors, {} coalesced, {} batched",
        stats.requests, stats.errors, stats.coalesced, stats.batched
    );
    println!("queue: {} queued, {} in flight", stats.queue_depth, stats.inflight);
    println!(
        "latency: p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        stats.latency_p50_ms, stats.latency_p95_ms, stats.latency_p99_ms
    );
}

/// `liar stats`: scrape a running daemon's counters — human-readable by
/// default, Prometheus text exposition under `--prometheus`, growth
/// tables + flight-recorder tail under `--inspect`, machine-readable
/// under `--json`.
fn run_stats(p: &Parsed) -> Result<ExitCode, String> {
    let addr = p.value("--addr").unwrap_or("127.0.0.1:4004").to_string();
    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if p.has("--prometheus") {
        match client.metrics() {
            Ok(m) => {
                print!("{}", m.prometheus);
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => {
                eprintln!("{e}");
                Ok(ExitCode::FAILURE)
            }
        }
    } else if p.has("--inspect") {
        let tail = p.usize_or("--tail", liar::serve::protocol::DEFAULT_INTROSPECT_TAIL)?;
        let resp = match client.introspect(tail) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        if p.has("--json") {
            // The wire payload already has stable key order; print it
            // verbatim rather than re-encoding.
            println!("{}", resp.to_json().to_json());
            return Ok(ExitCode::SUCCESS);
        }
        match &resp.report {
            Some(report) => {
                println!("latest cold saturation:");
                print_inspect_report(report, 20);
            }
            None => println!("no growth tables yet (no cold saturation has completed)"),
        }
        println!(
            "\nflight recorder: {} events recorded, {} dropped, showing last {}:",
            resp.flight_total,
            resp.flight_dropped,
            resp.flight.len()
        );
        for ev in &resp.flight {
            println!(
                "  #{:<8} {:<18} {:<44} {}",
                ev.seq,
                ev.kind.name(),
                ev.detail,
                ev.value
            );
        }
        Ok(ExitCode::SUCCESS)
    } else {
        match client.stats() {
            Ok(stats) => {
                if p.has("--json") {
                    let fields = stats.fields().map(|(name, v)| (name, Json::Num(v)));
                    println!("{}", Json::obj(fields).to_json());
                } else {
                    print_stats(&stats);
                }
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => {
                eprintln!("{e}");
                Ok(ExitCode::FAILURE)
            }
        }
    }
}

/// What one `liar submit` invocation asks of the daemon.
enum SubmitAction {
    Ping,
    Shutdown,
    Optimize(OptimizeRequest),
}

fn run_submit(p: &Parsed) -> Result<ExitCode, String> {
    let addr = p.value("--addr").unwrap_or("127.0.0.1:4004").to_string();

    // Validate the whole invocation before connecting: usage errors are
    // exit 2, runtime failures (unreachable daemon, server errors) are
    // exit 1.
    let action = if p.has("--ping") {
        SubmitAction::Ping
    } else if p.has("--shutdown") {
        SubmitAction::Shutdown
    } else {
        // The program: a positional s-expression or --kernel <name>.
        let program = match (p.value("--kernel"), p.positionals.as_slice()) {
            (Some(name), []) => {
                let kernel = Kernel::from_name(name)
                    .ok_or_else(|| format!("unknown kernel {name:?} (see `liar kernels`)"))?;
                kernel.expr(kernel.search_size()).to_string()
            }
            (None, [expr]) => expr.clone(),
            _ => {
                return usage_err(
                    "submit expects exactly one '<expr>' argument or --kernel <name>".to_string(),
                )
            }
        };
        let mut req = OptimizeRequest::new(program);
        req.id = p.value("--id").map(str::to_string);
        req.explain = p.has("--explain");
        if let Some(list) = p.value("--targets") {
            req.targets = list.split(',').map(str::to_string).collect();
        }
        if let Some(list) = p.value("--profile") {
            // Names only here; the server validates against its built-in
            // profile table and answers `unknown-profile`.
            req.profiles = list.split(',').map(str::to_string).collect();
        }
        if p.value("--steps").is_some() {
            req.steps = Some(p.usize_or("--steps", 0)?);
        }
        SubmitAction::Optimize(req)
    };

    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let fail = |e: liar::serve::ClientError| {
        eprintln!("{e}");
        Ok(ExitCode::FAILURE)
    };

    let req = match action {
        SubmitAction::Ping => match client.ping() {
            Ok(()) => {
                println!("pong");
                return Ok(ExitCode::SUCCESS);
            }
            Err(e) => return fail(e),
        },
        SubmitAction::Shutdown => match client.shutdown() {
            Ok(()) => {
                println!("shutdown acknowledged");
                return Ok(ExitCode::SUCCESS);
            }
            Err(e) => return fail(e),
        },
        SubmitAction::Optimize(req) => req,
    };

    let resp = match client.optimize(req) {
        Ok(resp) => resp,
        Err(e) => return fail(e),
    };
    println!("fingerprint: {}", resp.fingerprint);
    println!("cache: {}", resp.cache);
    println!(
        "stopped: {} ({} e-nodes, {} e-classes, {} steps run, saturation {:.3}s, server {:.1}ms)",
        resp.stop_reason,
        resp.n_nodes,
        resp.n_classes,
        resp.saturation_steps,
        resp.saturation_s,
        resp.server_ms
    );
    println!(
        "\n{:<8} {:>8} {:<8} {:>12} {:>12}  solution",
        "target", "scale", "profile", "tree cost", "dag cost"
    );
    for s in &resp.solutions {
        println!(
            "{:<8} {:>8} {:<8} {:>12.1} {:>12.1}  {}",
            s.target, s.discount_scale, s.profile, s.cost, s.dag_cost, s.solution
        );
    }
    for s in &resp.solutions {
        println!("\nbest expression ({}, {}):\n{}", s.target, s.profile, s.best);
        if let Some(proof) = &s.proof {
            println!("proof ({} rewrite steps):", proof.steps.len());
            println!("   0: {}", proof.source);
            for (i, step) in proof.steps.iter().enumerate() {
                println!("{:>4}: {}    [{} {}]", i + 1, step.after, step.rule, step.direction);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// The command table + help.

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "optimize",
        positional: "'<expr>'",
        about: "optimize an IR expression and print per-step solutions",
        flags: &TARGET_FLAGS,
        run: run_optimize,
    },
    CommandSpec {
        name: "kernel",
        positional: "<kernel-name>",
        about: "optimize one of the paper's kernels by name",
        flags: &TARGET_FLAGS,
        run: run_kernel,
    },
    CommandSpec {
        name: "profile",
        positional: "<kernel-name>",
        about: "self-time breakdown per phase and per rule (trace spans)",
        flags: &[
            FlagSpec {
                name: "--target",
                metavar: Some("T"),
                help: "single target: blas | pytorch | pure-c (default blas)",
            },
            FlagSpec {
                name: "--steps",
                metavar: Some("N"),
                help: "saturation-step limit (default 8)",
            },
            FlagSpec {
                name: "--top",
                metavar: Some("N"),
                help: "rows in the per-rule table (default 15)",
            },
            FlagSpec {
                name: "--trace",
                metavar: Some("FILE"),
                help: "also write the Chrome trace-event JSON to FILE",
            },
            FlagSpec {
                name: "--json",
                metavar: None,
                help: "print the phase + per-rule tables as JSON (stable key order)",
            },
        ],
        run: run_profile,
    },
    CommandSpec {
        name: "inspect",
        positional: "<kernel-or-expr>",
        about: "growth attribution: per-rule funnel and e-graph composition",
        flags: &[
            FlagSpec {
                name: "--targets",
                metavar: Some("A,B"),
                help: "comma-separated targets (default: all three)",
            },
            FlagSpec {
                name: "--all-targets",
                metavar: None,
                help: "shorthand for --targets pure-c,blas,pytorch",
            },
            FlagSpec {
                name: "--steps",
                metavar: Some("N"),
                help: "saturation-step limit (default 8)",
            },
            FlagSpec {
                name: "--top",
                metavar: Some("N"),
                help: "rows in the per-rule funnel (default 20)",
            },
            FlagSpec {
                name: "--json",
                metavar: None,
                help: "print the report as JSON (stable key order)",
            },
        ],
        run: run_inspect,
    },
    CommandSpec {
        name: "emit-c",
        positional: "<kernel-name>",
        about: "emit C for the best solution of a kernel",
        flags: &[
            FlagSpec {
                name: "--steps",
                metavar: Some("N"),
                help: "saturation-step limit (default 8)",
            },
            FlagSpec {
                name: "--targets",
                metavar: Some("A,B"),
                help: "emit one C function per target's variant",
            },
            FlagSpec {
                name: "--all-targets",
                metavar: None,
                help: "shorthand for --targets pure-c,blas,pytorch",
            },
        ],
        run: run_emit_c,
    },
    CommandSpec {
        name: "kernels",
        positional: "",
        about: "list the evaluation kernels (table I)",
        flags: &[],
        run: run_kernels,
    },
    CommandSpec {
        name: "explain",
        positional: "<kernel-or-expr>",
        about: "prove a lifting: print + replay the rewrite certificate",
        flags: &[
            FlagSpec {
                name: "--target",
                metavar: Some("T"),
                help: "single target: blas | pytorch | pure-c (default blas)",
            },
            FlagSpec {
                name: "--steps",
                metavar: Some("N"),
                help: "saturation-step limit (default 8)",
            },
        ],
        run: run_explain,
    },
    CommandSpec {
        name: "dot",
        positional: "<kernel-or-expr>",
        about: "render the saturated e-graph in Graphviz dot format",
        flags: &[
            FlagSpec {
                name: "--target",
                metavar: Some("T"),
                help: "single target: blas | pytorch | pure-c (default blas)",
            },
            FlagSpec {
                name: "--steps",
                metavar: Some("N"),
                help: "saturation-step limit (default 8)",
            },
            FlagSpec {
                name: "--explain",
                metavar: None,
                help: "highlight the e-classes on the proof path (bold red)",
            },
        ],
        run: run_dot,
    },
    CommandSpec {
        name: "serve",
        positional: "",
        about: "run the optimization daemon (see docs/SERVING.md)",
        flags: &[
            FlagSpec {
                name: "--addr",
                metavar: Some("HOST:PORT"),
                help: "bind address (default 127.0.0.1:4004; port 0 picks one)",
            },
            FlagSpec {
                name: "--workers",
                metavar: Some("N"),
                help: "optimization worker threads (default 2)",
            },
            FlagSpec {
                name: "--queue-cap",
                metavar: Some("N"),
                help: "bounded job-queue capacity (default 64)",
            },
            FlagSpec {
                name: "--cache-mb",
                metavar: Some("MB"),
                help: "saturation-cache byte budget in MiB (default 64)",
            },
            FlagSpec {
                name: "--steps",
                metavar: Some("N"),
                help: "default saturation-step limit (default 8)",
            },
            FlagSpec {
                name: "--max-steps",
                metavar: Some("N"),
                help: "ceiling on a request's steps (default 24)",
            },
            FlagSpec {
                name: "--warm",
                metavar: Some("DIR"),
                help: "durable snapshot store: persist saturations, answer repeats warm",
            },
            FlagSpec {
                name: "--no-prewarm",
                metavar: None,
                help: "with --warm: skip pre-saturating the kernel corpus at boot",
            },
            FlagSpec {
                name: "--trace-dir",
                metavar: Some("DIR"),
                help: "record per-request spans; write DIR/serve-trace.json at shutdown",
            },
        ],
        run: run_serve,
    },
    CommandSpec {
        name: "submit",
        positional: "['<expr>']",
        about: "submit a program (or admin op) to a running daemon",
        flags: &[
            FlagSpec {
                name: "--addr",
                metavar: Some("HOST:PORT"),
                help: "daemon address (default 127.0.0.1:4004)",
            },
            FlagSpec {
                name: "--kernel",
                metavar: Some("NAME"),
                help: "submit a named paper kernel instead of an expression",
            },
            FlagSpec {
                name: "--targets",
                metavar: Some("A,B"),
                help: "comma-separated targets (default: all three)",
            },
            FlagSpec {
                name: "--profile",
                metavar: Some("P,Q"),
                help: "machine profiles to extract under: default | gpu | simd",
            },
            FlagSpec {
                name: "--steps",
                metavar: Some("N"),
                help: "saturation-step limit (server default if omitted)",
            },
            FlagSpec {
                name: "--id",
                metavar: Some("ID"),
                help: "client-chosen request id, echoed in the response",
            },
            FlagSpec {
                name: "--explain",
                metavar: None,
                help: "request proof production; solutions carry certificates",
            },
            FlagSpec {
                name: "--ping",
                metavar: None,
                help: "liveness probe",
            },
            FlagSpec {
                name: "--shutdown",
                metavar: None,
                help: "ask the daemon to drain and exit",
            },
        ],
        run: run_submit,
    },
    CommandSpec {
        name: "stats",
        positional: "",
        about: "scrape a running daemon's counters and latency percentiles",
        flags: &[
            FlagSpec {
                name: "--addr",
                metavar: Some("HOST:PORT"),
                help: "daemon address (default 127.0.0.1:4004)",
            },
            FlagSpec {
                name: "--prometheus",
                metavar: None,
                help: "print the full metric set as Prometheus text exposition",
            },
            FlagSpec {
                name: "--inspect",
                metavar: None,
                help: "print the latest growth tables + flight-recorder tail",
            },
            FlagSpec {
                name: "--tail",
                metavar: Some("N"),
                help: "with --inspect: flight-recorder events to fetch (default 64)",
            },
            FlagSpec {
                name: "--json",
                metavar: None,
                help: "machine-readable output (stable key order)",
            },
        ],
        run: run_stats,
    },
];

fn print_global_help() {
    println!("liar — latent idiom recognition via equality saturation\n");
    println!("usage: liar <command> [flags] [args]\n");
    println!("commands:");
    for cmd in COMMANDS {
        println!("  {:<10} {}", cmd.name, cmd.about);
    }
    println!("  {:<10} show this help, or `liar help <command>`", "help");
    println!("\nExit codes: 0 success, 1 runtime failure, 2 usage/input error.");
}

fn print_command_help(cmd: &CommandSpec) {
    println!("liar {} — {}\n", cmd.name, cmd.about);
    let positional = if cmd.positional.is_empty() {
        String::new()
    } else {
        format!(" {}", cmd.positional)
    };
    let flags = if cmd.flags.is_empty() { "" } else { " [flags]" };
    println!("usage: liar {}{}{}", cmd.name, flags, positional);
    if !cmd.flags.is_empty() {
        println!("\nflags:");
        for f in cmd.flags {
            let left = match f.metavar {
                Some(m) => format!("{} <{m}>", f.name),
                None => f.name.to_string(),
            };
            println!("  {left:<22} {}", f.help);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first().map(String::as_str) else {
        print_global_help();
        return ExitCode::from(2);
    };
    match first {
        "help" | "--help" | "-h" => {
            match args.get(1) {
                None => print_global_help(),
                Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
                    Some(cmd) => print_command_help(cmd),
                    None => {
                        eprintln!("unknown command {name:?} (see `liar help`)");
                        return ExitCode::from(2);
                    }
                },
            }
            ExitCode::SUCCESS
        }
        name => {
            let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
                eprintln!("unknown command {name:?} (see `liar help`)");
                return ExitCode::from(2);
            };
            match parse_flags(cmd, &args[1..]).and_then(|parsed| (cmd.run)(&parsed)) {
                Ok(code) => code,
                Err(message) => {
                    eprintln!("{message}");
                    eprintln!("usage: see `liar help {}`", cmd.name);
                    ExitCode::from(2)
                }
            }
        }
    }
}
