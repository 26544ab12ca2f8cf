//! `bench-diff` — the bench regression sentry.
//!
//! Compares freshly generated `BENCH_*.json` documents against the
//! committed baselines in `baselines/` and fails (exit 1) on any metric
//! that moved past its policy's threshold (see `liar_bench::diff`).
//!
//! ```text
//! cargo run -p liar-bench --bin bench-diff -- \
//!     --baseline-dir baselines --current-dir . --out bench-verdict.json
//! ```
//!
//! Flags:
//!
//! * `--baseline-dir <DIR>` — committed baselines (default `baselines`)
//! * `--current-dir <DIR>`  — fresh documents (default `.`)
//! * `--out <FILE>`         — write the machine-readable verdict here
//! * `--bench <NAME>`       — restrict to one bench (repeatable)
//! * `--time-ratio <X>`     — time growth budget (default 1.5)
//! * `--time-floor-ms <X>`  — absolute noise floor, ms (default 2.0); a
//!   speedup is judged only when its row times something at or above it
//! * `--ratio-slack <X>`    — overhead additive budget (default 0.25)
//!
//! A baseline that has no current counterpart (the bench didn't run) is
//! a failure; a current document with no baseline is skipped with a
//! warning so new benches can land before their first baseline commit.
//! Exit codes: 0 pass, 1 regression, 2 usage error.

use std::path::Path;
use std::process::ExitCode;

use liar_bench::diff::{diff_docs, verdict_json, DiffReport, Thresholds};
use liar_serve::json::parse;

/// The benched documents the sentry watches.
const BENCHES: [&str; 5] = ["ematch", "extract", "serve", "explain", "trace"];

fn fail_usage(msg: &str) -> ExitCode {
    eprintln!("bench-diff: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_dir = "baselines".to_string();
    let mut current_dir = ".".to_string();
    let mut out: Option<String> = None;
    let mut benches: Vec<String> = Vec::new();
    let mut th = Thresholds::default();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let parsed = match arg.as_str() {
            "--baseline-dir" => val("--baseline-dir").map(|v| baseline_dir = v),
            "--current-dir" => val("--current-dir").map(|v| current_dir = v),
            "--out" => val("--out").map(|v| out = Some(v)),
            "--bench" => val("--bench").map(|v| benches.push(v)),
            "--time-ratio" => val("--time-ratio").and_then(|v| {
                v.parse().map(|x| th.time_ratio = x).map_err(|_| format!("bad --time-ratio {v}"))
            }),
            "--time-floor-ms" => val("--time-floor-ms").and_then(|v| {
                v.parse::<f64>()
                    .map(|x| th.time_floor_s = x / 1000.0)
                    .map_err(|_| format!("bad --time-floor-ms {v}"))
            }),
            "--ratio-slack" => val("--ratio-slack").and_then(|v| {
                v.parse().map(|x| th.ratio_slack = x).map_err(|_| format!("bad --ratio-slack {v}"))
            }),
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(msg) = parsed {
            return fail_usage(&msg);
        }
    }
    if benches.is_empty() {
        benches = BENCHES.iter().map(|s| s.to_string()).collect();
    } else if let Some(bad) = benches.iter().find(|b| !BENCHES.contains(&b.as_str())) {
        return fail_usage(&format!("unknown bench {bad} (expected one of {BENCHES:?})"));
    }

    let mut merged = DiffReport::default();
    let mut checked = 0usize;
    for bench in &benches {
        let file = format!("BENCH_{bench}.json");
        let base_path = Path::new(&baseline_dir).join(&file);
        let cur_path = Path::new(&current_dir).join(&file);
        let base_text = match std::fs::read_to_string(&base_path) {
            Ok(t) => t,
            Err(_) => {
                eprintln!("bench-diff: no baseline {} — skipping {bench}", base_path.display());
                continue;
            }
        };
        let cur_text = match std::fs::read_to_string(&cur_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "bench-diff: baseline exists but current {} is unreadable: {e}",
                    cur_path.display()
                );
                merged.regressions.push(liar_bench::diff::Finding {
                    bench: bench.clone(),
                    path: file.clone(),
                    baseline: "(document)".to_string(),
                    current: "(missing)".to_string(),
                    note: "bench document was not generated".to_string(),
                    regression: true,
                });
                continue;
            }
        };
        let (base, cur) = match (parse(&base_text), parse(&cur_text)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) => return fail_usage(&format!("{}: {e}", base_path.display())),
            (_, Err(e)) => return fail_usage(&format!("{}: {e}", cur_path.display())),
        };
        merged.merge(diff_docs(bench, &base, &cur, &th));
        checked += 1;
    }

    let verdict = verdict_json(&merged, &th);
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, verdict.to_json() + "\n") {
            return fail_usage(&format!("cannot write {path}: {e}"));
        }
    }

    println!(
        "bench-diff: {} documents, {} metrics compared, {} regressions, {} drifting",
        checked,
        merged.compared,
        merged.regressions.len(),
        merged.drift.len()
    );
    for f in &merged.regressions {
        println!("  FAIL {}::{} — {} → {} ({})", f.bench, f.path, f.baseline, f.current, f.note);
    }
    for f in merged.drift.iter().take(20) {
        println!("  drift {}::{} — {} → {} ({})", f.bench, f.path, f.baseline, f.current, f.note);
    }
    if merged.drift.len() > 20 {
        println!("  ... and {} more drifting metrics (see --out)", merged.drift.len() - 20);
    }
    if merged.pass() {
        println!("verdict: pass");
        ExitCode::SUCCESS
    } else {
        println!("verdict: fail");
        ExitCode::FAILURE
    }
}
