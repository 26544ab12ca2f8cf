//! Tracing overhead benchmark: what the observability layer costs on the
//! saturation workload.
//!
//! Three configurations of the same kernel pipeline:
//!
//! * **baseline** — no recorder attached (the sink is `TraceSink::off()`
//!   everywhere, spans compile to nothing at the call site);
//! * **disabled** — a recorder attached but switched off
//!   ([`Recorder::off`]): every span site pays one relaxed atomic load
//!   plus a branch. The contract is ≤ 2% overhead vs baseline, gated in
//!   `BENCH_trace.json` (`gate_2pct_pass`).
//! * **enabled** — a live recorder ([`Recorder::new`]) collecting the
//!   full span stream; reported for scale (this is what `liar profile`
//!   and `--trace` pay), not gated.
//!
//! Each kernel runs `ROUNDS` rounds; a round times every configuration
//! once, starting from a different one each round, so host drift during
//! a row moves all three alike. A sample repeats the pipeline enough
//! times to last at least `SAMPLE_S`. Each row's overhead is the median
//! of its per-round ratios to the baseline, with their interquartile
//! range as its spread; the gate reads the median of every round's
//! disabled ratio over all kernels.
//!
//! Determinism is asserted while measuring: all three configurations
//! must extract the same solution at the same cost.
//!
//! Results are printed and written to `BENCH_trace.json` at the repo
//! root; CI runs this bench and uploads the artifact.

use std::sync::Arc;
use std::time::Instant;

use liar_bench::harness;
use liar_bench::timing::quartiles;
use liar_core::{Liar, Target};
use liar_kernels::Kernel;
use liar_trace::Recorder;

const KERNELS: [Kernel; 3] = [Kernel::Vsum, Kernel::Gemv, Kernel::Atax];
/// Rounds per kernel; each round times all three configurations.
const ROUNDS: usize = 31;
/// Shortest wall time of one sample, in seconds.
const SAMPLE_S: f64 = 0.02;

struct Row {
    kernel: &'static str,
    baseline_s: f64,
    disabled_s: f64,
    enabled_s: f64,
    disabled_overhead: f64,
    disabled_iqr: f64,
    enabled_overhead: f64,
    enabled_iqr: f64,
}

fn main() {
    println!("== trace (span-recorder overhead on the saturation pipeline) ==");
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("host hardware threads: {hw}");

    let mut rows = Vec::new();
    let (mut all_disabled, mut all_enabled) = (Vec::new(), Vec::new());
    for kernel in KERNELS {
        let expr = kernel.expr(kernel.search_size());
        let run = |pipeline: Liar| pipeline.optimize(&expr).best().cost;
        let off = Recorder::off();
        // 0: baseline, 1: disabled, 2: enabled (a fresh live recorder per
        // run, like `liar profile` pays).
        let config = |c: usize| {
            let pipeline = harness::pipeline_for(kernel, Target::Blas);
            match c {
                0 => run(pipeline),
                1 => run(pipeline.with_trace(Arc::clone(&off))),
                _ => run(pipeline.with_trace(Recorder::new())),
            }
        };

        // Warm-up, the parity check, and the sample size.
        let start = Instant::now();
        let base_cost = config(0);
        let reps = (SAMPLE_S / start.elapsed().as_secs_f64()).ceil().max(1.0) as usize;
        assert_eq!(base_cost, config(1), "{kernel}: disabled tracing changed the solution cost");
        assert_eq!(base_cost, config(2), "{kernel}: enabled tracing changed the solution cost");

        let mut times: [Vec<f64>; 3] = Default::default();
        for round in 0..ROUNDS {
            for k in 0..3 {
                let c = (round + k) % 3;
                let start = Instant::now();
                for _ in 0..reps {
                    std::hint::black_box(config(c));
                }
                times[c].push(start.elapsed().as_secs_f64() / reps as f64);
            }
        }
        let ratios = |c: usize| -> Vec<f64> {
            times[c].iter().zip(&times[0]).map(|(t, b)| t / b.max(1e-12)).collect()
        };
        let (disabled, enabled) = (ratios(1), ratios(2));
        let [d1, disabled_overhead, d3] = quartiles(disabled.clone());
        let [e1, enabled_overhead, e3] = quartiles(enabled.clone());
        all_disabled.extend(disabled);
        all_enabled.extend(enabled);
        let [baseline_s, disabled_s, enabled_s] = times.map(|t| quartiles(t)[1]);

        println!(
            "{:<16} baseline {:>8.3} ms   disabled {:>8.3} ms ({:.3}x, IQR {:.3})   \
             enabled {:>8.3} ms ({:.3}x, IQR {:.3})   [{ROUNDS} rounds × {reps} runs]",
            format!("trace/{}", kernel.name()),
            baseline_s * 1e3,
            disabled_s * 1e3,
            disabled_overhead,
            d3 - d1,
            enabled_s * 1e3,
            enabled_overhead,
            e3 - e1,
        );
        rows.push(Row {
            kernel: kernel.name(),
            baseline_s,
            disabled_s,
            enabled_s,
            disabled_overhead,
            disabled_iqr: d3 - d1,
            enabled_overhead,
            enabled_iqr: e3 - e1,
        });
    }

    // The gate pools every kernel's rounds, so no single noisy row can
    // fail it on its own.
    let [q1, aggregate_disabled, q3] = quartiles(all_disabled);
    let [_, aggregate_enabled, _] = quartiles(all_enabled);
    let gate_pass = aggregate_disabled <= 1.02;
    println!(
        "aggregate: disabled {:.3}x (IQR {:.3}; gate ≤ 1.02: {}), enabled {:.3}x",
        aggregate_disabled,
        q3 - q1,
        if gate_pass { "PASS" } else { "FAIL" },
        aggregate_enabled,
    );

    // Hand-rolled JSON (the workspace is dependency-free offline).
    let mut json = format!("{{\n  \"bench\": \"trace\",\n  \"rounds\": {ROUNDS},\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"baseline_s\": {:.6}, \"disabled_s\": {:.6}, \
             \"enabled_s\": {:.6}, \"disabled_overhead\": {:.4}, \"disabled_iqr\": {:.4}, \
             \"enabled_overhead\": {:.4}, \"enabled_iqr\": {:.4}}}{}\n",
            r.kernel,
            r.baseline_s,
            r.disabled_s,
            r.enabled_s,
            r.disabled_overhead,
            r.disabled_iqr,
            r.enabled_overhead,
            r.enabled_iqr,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"aggregate_disabled_overhead\": {aggregate_disabled:.4},\n  \
         \"aggregate_disabled_iqr\": {:.4},\n  \
         \"aggregate_enabled_overhead\": {aggregate_enabled:.4},\n  \
         \"gate_2pct_pass\": {gate_pass}\n}}\n",
        q3 - q1
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    if !gate_pass {
        eprintln!(
            "disabled-tracing overhead gate failed: {aggregate_disabled:.4}x > 1.02x \
             (a disabled recorder must cost one atomic load per span site)"
        );
        std::process::exit(1);
    }
}
