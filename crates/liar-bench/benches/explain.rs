//! Proof-production benchmark: what explanations cost, and what the
//! certificates look like, on the PolyBench kernels.
//!
//! For each kernel × library target:
//!
//! * **saturation overhead** — the same pipeline run with explanations
//!   off vs on, in alternating pairs (the order flips every pair). The
//!   overhead is the median of the per-pair on ÷ off ratios, with their
//!   interquartile range as its spread, so host drift during a row moves
//!   both sides of a pair alike. The on-run pays the provenance forest
//!   (one record per issued id, one tagged edge per union); the off-run
//!   must pay nothing.
//! * **proof production + replay** — `explain_equivalence` from the
//!   source kernel to the extracted solution: proof length (rewrite
//!   steps), production time, and the time `Explanation::check` takes to
//!   replay the certificate against the rule set.
//! * **parity assertions** — the explained run must find the same
//!   lifting (same library calls and cost) as the fast path, and every
//!   proof must replay clean; the bench fails otherwise.
//!
//! Results are printed and written to `BENCH_explain.json` at the repo
//! root; CI runs this bench as a smoke test of the overhead direction
//! and the replay assertions.

use std::time::{Duration, Instant};

use liar_bench::harness;
use liar_bench::timing::quartiles;
use liar_core::rules::{rules_for, RuleConfig};
use liar_core::Target;
use liar_kernels::Kernel;

const KERNELS: [Kernel; 4] = [Kernel::Vsum, Kernel::Gemv, Kernel::Atax, Kernel::Mvt];
const TARGETS: [Target; 2] = [Target::Blas, Target::Torch];
/// Off/on pairs per row.
const PAIRS: usize = 11;

/// Wall-clock seconds of one run.
fn timed<T>(run: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(run());
    start.elapsed().as_secs_f64()
}

struct Row {
    kernel: &'static str,
    target: &'static str,
    off_s: f64,
    on_s: f64,
    overhead: f64,
    ratio_iqr: f64,
    proof_steps: usize,
    explain_s: f64,
    check_s: f64,
    solution: String,
}

fn main() {
    println!("== explain (saturation overhead of proof production + certificate replay) ==");
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("host hardware threads: {hw}");

    let mut rows = Vec::new();
    for kernel in KERNELS {
        let expr = kernel.expr(kernel.search_size());
        for target in TARGETS {
            let fast = harness::pipeline_for(kernel, target);
            let explained = harness::pipeline_for(kernel, target).with_explanations(true);

            // Parity first: the explained run finds the same lifting at
            // the same cost. (Deliberately *not* expression equality —
            // `Liar::with_explanations` documents that the explained run
            // is not guaranteed bit-identical, only equally good.)
            let fast_report = fast.optimize(&expr);
            let (on_report, proof) = explained.optimize_explained(&expr);
            assert_eq!(
                fast_report.best().lib_calls,
                on_report.best().lib_calls,
                "{kernel}/{target}: explained run found a different lifting"
            );
            assert_eq!(fast_report.best().cost, on_report.best().cost);

            // …and its certificate replays.
            let rules = rules_for(target, &RuleConfig::default());
            let check_start = Instant::now();
            proof
                .check(&rules)
                .unwrap_or_else(|e| panic!("{kernel}/{target}: proof failed to replay: {e}"));
            let check_s = check_start.elapsed().as_secs_f64();

            // Saturation overhead: alternating off/on pairs (one warm-up
            // each, already done above).
            let (mut offs, mut ons, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
            for pair in 0..PAIRS {
                let off_run = || fast.optimize(&expr);
                let on_run = || explained.optimize(&expr);
                let (off, on) = if pair % 2 == 0 {
                    let off = timed(off_run);
                    (off, timed(on_run))
                } else {
                    let on = timed(on_run);
                    (timed(off_run), on)
                };
                ratios.push(on / off.max(1e-9));
                offs.push(off);
                ons.push(on);
            }
            let [_, off_s, _] = quartiles(offs);
            let [_, on_s, _] = quartiles(ons);
            let [q1, overhead, q3] = quartiles(ratios);

            // Proof production alone (forest walk + term materialization),
            // on a fresh explained run's e-graph.
            let (report, mut egraph) = explained.optimize_with_egraph(&expr);
            let explain_start = Instant::now();
            let proof2 =
                std::hint::black_box(egraph.explain_equivalence(&expr, &report.best().best));
            let explain_s = explain_start.elapsed().as_secs_f64();
            assert_eq!(proof2.len(), proof.len(), "proof length must be stable");

            println!(
                "{:<32} off {:>9.3?}   on {:>9.3?}   overhead {:>5.2}x (IQR {:.2})   \
                 proof {:>3} steps   explain {:>9.6}s   check {:>9.6}s   {}",
                format!("explain/{}/{}", kernel.name(), target.name()),
                Duration::from_secs_f64(off_s),
                Duration::from_secs_f64(on_s),
                overhead,
                q3 - q1,
                proof.len(),
                explain_s,
                check_s,
                on_report.best().solution_summary(),
            );
            rows.push(Row {
                kernel: kernel.name(),
                target: target.name(),
                off_s,
                on_s,
                overhead,
                ratio_iqr: q3 - q1,
                proof_steps: proof.len(),
                explain_s,
                check_s,
                solution: on_report.best().solution_summary(),
            });
        }
    }

    // Hand-rolled JSON (the workspace is dependency-free offline).
    let mut json = String::from("{\n  \"bench\": \"explain\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"target\": \"{}\", \"off_s\": {:.6}, \"on_s\": {:.6}, \
             \"overhead\": {:.3}, \"ratio_iqr\": {:.3}, \"proof_steps\": {}, \
             \"explain_s\": {:.6}, \"check_s\": {:.6}, \"solution\": \"{}\"}}{}\n",
            r.kernel,
            r.target,
            r.off_s,
            r.on_s,
            r.overhead,
            r.ratio_iqr,
            r.proof_steps,
            r.explain_s,
            r.check_s,
            r.solution.replace('"', "'"),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explain.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    let mean_overhead: f64 = rows.iter().map(|r| r.overhead).sum::<f64>() / rows.len() as f64;
    let max_steps = rows.iter().map(|r| r.proof_steps).max().unwrap_or(0);
    println!(
        "mean saturation overhead {:.2}x, longest proof {} steps",
        mean_overhead, max_steps
    );
}
