//! The LIAR ledger: one benchmark for compile time, solution quality,
//! solution run time and serving over all 16 kernels, with per-layer
//! times measured from outside the crates.
//!
//! ```text
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- \
//!     --workload per-target --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run from the repository root. Each run prints one `row {...}` line per
//! compiled item, a `record_digest` line (the exact-count record's hash,
//! which must not change between runs of the same code), and, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics, measured with
//! no tracing; `--trace 1` additionally runs the traced pass and reports
//! the per-layer metrics instead. See `ledger/README.md`.

mod compile;
mod layers;
mod runtime;
mod serve;
mod stats;

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("compile_p50_ms", "ms"),
    ("compile_p90_ms", "ms"),
    ("cost_geomean", "cost"),
    ("lib_solutions", "count"),
    ("speedup_geomean", "x"),
    ("hit_p50_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("rps", "req/s"),
    ("warm_boot_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics of the traced pass: `(name, unit)`. Times are totals
/// over one traced pass of the workload's items (the minimum over the
/// passes); counts are exact totals over the items.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("rules.build_ms", "ms"),
    ("egraph.add_expr_ms", "ms"),
    ("runner.step_ms", "ms"),
    ("runner.search_ms", "ms"),
    ("runner.apply_ms", "ms"),
    ("runner.rebuild_ms", "ms"),
    ("runner.steps", "count"),
    ("egraph.nodes", "count"),
    ("egraph.classes", "count"),
    ("runner.matches", "count"),
    ("runner.applied", "count"),
    ("runner.apply_yield", "ratio"),
    ("runner.rebuild_unions", "count"),
    ("runner.search_candidates", "count"),
    ("runner.frontier_candidates", "count"),
    ("extract.step_ms", "ms"),
    ("extract.flatten_ms", "ms"),
    ("extract.tree_ms", "ms"),
    ("extract.dag_ms", "ms"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("store.save_ms", "ms"),
    ("store.load_ms", "ms"),
    ("codegen.emit_ms", "ms"),
    ("codegen.bytes", "bytes"),
    ("runtime.solution_ms", "ms"),
    ("runtime.reference_ms", "ms"),
    ("runtime.lib_share", "ratio"),
    ("serve.frame_us", "us"),
    ("serve.server_p50_ms", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.queue_depth", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["per-target", "all-targets", "serve-mix"];

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// How long the timed part of the run measures.
    pub budget: Duration,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory inside the checkout (snapshot stores).
    pub scratch: PathBuf,
}

/// Everything a run reports: checked operations and metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one checked operation; a failed check is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Record a metric by its catalogue name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// The final JSON line. A catalogue metric that was not measured, or
    /// is not a finite number, makes the run incorrect.
    fn json(&self, trace: bool) -> String {
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut fields = Vec::new();
        for (name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    eprintln!("FAILED: metric {name} not measured ({other:?})");
                    correct = false;
                    -1.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// Quote a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Print one per-item row: `row {"k": v, ...}` with preformatted values.
pub fn print_row(fields: &[(&str, String)]) {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("row {{{}}}", body.join(", "));
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ledger --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                opts.insert(&k[2..], v);
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        opts.get("workload").copied(),
        opts.get("seed").and_then(|s| s.parse::<u64>().ok()),
        opts.get("seconds").and_then(|s| s.parse::<f64>().ok()),
        opts.get("trace").copied(),
    ) else {
        return usage();
    };
    let valid = WORKLOADS.contains(&workload) && (trace == "0" || trace == "1") && seconds > 0.0;
    if !valid {
        return usage();
    }
    let scratch = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let cfg = Config {
        seed,
        budget: Duration::from_secs_f64(seconds),
        trace: trace == "1",
        scratch: scratch.clone(),
    };

    let mut out = Outcome::default();
    match workload {
        "per-target" => compile::per_target(&cfg, &mut out),
        "all-targets" => compile::all_targets(&cfg, &mut out),
        _ => serve::serve_mix(&cfg, &mut out),
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_tmp");
    println!("{}", out.json(cfg.trace));
    ExitCode::SUCCESS
}
