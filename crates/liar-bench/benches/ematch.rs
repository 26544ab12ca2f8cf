//! E-matching microbenchmark: two search engines on the PolyBench
//! kernels —
//!
//! * the **VM** (compiled VM + operator index, the shipped engine),
//! * the pre-refactor **oracle** matcher (`Rewrite::with_oracle_searcher`,
//!   a faithful stand-in for the pre-VM engine).
//!
//! For each kernel the same saturation run is driven with both.
//! Reported per kernel:
//!
//! * **search-phase time** (median of several runs) for each engine;
//! * **candidate classes visited** by each (the operator index must make
//!   the VM strictly cheaper than the oracle);
//! * **matches found** (must be identical — the engines are equivalent).
//!
//! Results are printed and written to `BENCH_ematch.json` at the repo
//! root; CI runs this bench as a smoke test of both the speedup direction
//! and the equivalence assertions.

use std::time::Duration;

use liar_bench::harness;
use liar_core::rules::{rules_for, RuleConfig};
use liar_core::{Target, TargetCost};
use liar_egraph::{BackoffScheduler, Extractor, Runner};
use liar_ir::{ArrayAnalysis, ArrayEGraph, ArrayLang, Expr};
use liar_kernels::Kernel;

type ARewrite = liar_egraph::Rewrite<ArrayLang, ArrayAnalysis>;

const KERNELS: [Kernel; 4] = [Kernel::Vsum, Kernel::Gemv, Kernel::Atax, Kernel::Mvt];
const SAMPLES: usize = 3;

struct RunStats {
    search: Duration,
    candidates: usize,
    matches: usize,
    solution: String,
    cost: f64,
}

/// One saturation run under the given engine configuration.
fn run(rules: &[ARewrite], expr: &Expr, kernel: Kernel, target: Target) -> RunStats {
    let mut eg = ArrayEGraph::default();
    let root = eg.add_expr(expr);
    let mut runner = Runner::new(eg)
        .with_root(root)
        .with_iter_limit(harness::step_limit(kernel))
        .with_node_limit(150_000)
        .with_scheduler(BackoffScheduler::new(30_000, 2));
    runner.run(rules);
    let search: Duration = runner.iterations.iter().map(|i| i.search_time).sum();
    let candidates: usize = runner.iterations.iter().map(|i| i.search_candidates).sum();
    let matches: usize = runner.iterations.iter().map(|i| i.search_matches).sum();
    let extractor = Extractor::new(&runner.egraph, TargetCost::new(target));
    let (cost, best) = extractor.find_best(root);
    let solution = liar_core::pipeline::count_lib_calls(&best)
        .iter()
        .map(|(name, count)| format!("{count} × {name}"))
        .collect::<Vec<_>>()
        .join(" + ");
    RunStats {
        search,
        candidates,
        matches,
        solution,
        cost,
    }
}

/// Median search-phase time over `SAMPLES` runs (plus one warm-up).
fn median_search(rules: &[ARewrite], expr: &Expr, kernel: Kernel, target: Target) -> Duration {
    let _ = run(rules, expr, kernel, target); // warm-up
    let mut times: Vec<Duration> = (0..SAMPLES)
        .map(|_| run(rules, expr, kernel, target).search)
        .collect();
    times.sort();
    times[times.len() / 2]
}

struct Row {
    kernel: &'static str,
    vm_search_s: f64,
    oracle_search_s: f64,
    speedup: f64,
    vm_candidates: usize,
    oracle_candidates: usize,
    matches: usize,
    solution: String,
}

fn main() {
    println!("== ematch (VM vs. oracle matcher, BLAS rules) ==");
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("host hardware threads: {hw} (all engines run serially here)");

    let target = Target::Blas;
    let rules = rules_for(target, &RuleConfig::default());
    let oracle_rules: Vec<ARewrite> = rules.iter().map(|r| r.with_oracle_searcher()).collect();

    let mut rows = Vec::new();
    for kernel in KERNELS {
        let expr = kernel.expr(kernel.search_size());

        // Equivalence first: identical matches, solutions and costs.
        let vm = run(&rules, &expr, kernel, target);
        let oracle = run(&oracle_rules, &expr, kernel, target);
        assert_eq!(vm.matches, oracle.matches, "{kernel}: match counts diverged");
        assert_eq!(vm.solution, oracle.solution, "{kernel}: solutions diverged");
        assert_eq!(vm.cost, oracle.cost, "{kernel}: costs diverged");
        assert!(
            vm.candidates < oracle.candidates,
            "{kernel}: VM visited {} candidate classes, oracle {} — \
             the operator index must strictly reduce visits",
            vm.candidates,
            oracle.candidates,
        );

        let vm_time = median_search(&rules, &expr, kernel, target);
        let oracle_time = median_search(&oracle_rules, &expr, kernel, target);
        let speedup = oracle_time.as_secs_f64() / vm_time.as_secs_f64().max(1e-9);
        println!(
            "{:<40} vm {:>10.3?}   oracle {:>10.3?}   speedup {:>5.2}x   \
             candidates {} vs {}   matches {}",
            format!("ematch/{}", kernel.name()),
            vm_time,
            oracle_time,
            speedup,
            vm.candidates,
            oracle.candidates,
            vm.matches,
        );
        rows.push(Row {
            kernel: kernel.name(),
            vm_search_s: vm_time.as_secs_f64(),
            oracle_search_s: oracle_time.as_secs_f64(),
            speedup,
            vm_candidates: vm.candidates,
            oracle_candidates: oracle.candidates,
            matches: vm.matches,
            solution: vm.solution,
        });
    }

    // Hand-rolled JSON (the workspace is dependency-free offline).
    let mut json = String::from("{\n  \"bench\": \"ematch\",\n  \"target\": \"blas\",\n  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"vm_search_s\": {:.6}, \"oracle_search_s\": {:.6}, \
             \"speedup\": {:.3}, \"vm_candidates\": {}, \"oracle_candidates\": {}, \
             \"matches\": {}, \"solution\": \"{}\"}}{}\n",
            r.kernel,
            r.vm_search_s,
            r.oracle_search_s,
            r.speedup,
            r.vm_candidates,
            r.oracle_candidates,
            r.matches,
            r.solution.replace('"', "'"),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ematch.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    let total_vm: f64 = rows.iter().map(|r| r.vm_search_s).sum();
    let total_oracle: f64 = rows.iter().map(|r| r.oracle_search_s).sum();
    println!(
        "total search: vm {:.3}s vs oracle {:.3}s ({:.2}x)",
        total_vm,
        total_oracle,
        total_oracle / total_vm.max(1e-9),
    );
}
