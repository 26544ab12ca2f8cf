//! The bench regression sentry: compare freshly generated
//! `BENCH_*.json` documents against committed baselines and flag
//! regressions metric-by-metric.
//!
//! Every leaf in a bench document gets a **policy** chosen by its key
//! ([`policy_for`]): wall-clock metrics may only grow so much
//! (`*_s`/`*_ms`, ratio + absolute-floor thresholds so nanobenchmark
//! noise never trips the gate), overhead ratios may only drift up by an
//! additive slack (unless the fast side they imply collapsed), speedups
//! may only shrink so much (when their row times something above the
//! noise floor, and only when the fast side they imply slowed too),
//! `gate_*` booleans must hold, and
//! `solution` strings — the semantic output of the optimizer — must match
//! exactly. Everything else (candidate counts,
//! node counts, costs within tolerance) is reported as drift but never
//! fails the gate.
//!
//! The entry point is [`diff_docs`]; the `bench-diff` binary wraps it
//! over the five benched documents and emits a machine-readable verdict
//! (see `docs/OBSERVABILITY.md`).

use liar_serve::json::Json;

/// How a metric is judged. Chosen per leaf by [`policy_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Wall-clock time (`*_s`, `*_ms`): regression when the current
    /// value exceeds `baseline × time_ratio` **and** the growth exceeds
    /// the absolute floor for the unit (noise guard for sub-millisecond
    /// benches).
    TimeLowerBetter,
    /// An overhead ratio near 1.0 (`*overhead*`): regression when the
    /// current value exceeds `baseline + ratio_slack`, unless the fast
    /// side it implies — the row's largest timing ÷ the overhead, the
    /// explain bench's `off_s` — fell below its baseline ÷ `time_ratio`.
    /// An overhead that rose only because its fast side collapsed is
    /// drift: a fixed cost then weighs more on a much smaller run.
    RatioLowerBetter,
    /// A speedup (`*speedup*`): regression when the current value drops
    /// below `baseline ÷ time_ratio` **and** the fast side it implies —
    /// the row's largest timing ÷ the speedup — grew past `time_ratio`
    /// too. A speedup that shrank only because its slow side got faster
    /// is drift. Judged only when the largest baseline timing in its row
    /// is at or above the time floor (a ratio of two timings under the
    /// floor is noise over noise).
    HigherBetter,
    /// A `gate_*` boolean: regression whenever it is `false` in the
    /// current document (the gate itself already encodes its tolerance).
    GateMustHold,
    /// A `solution` string: the optimizer's semantic answer; any change
    /// is a regression.
    SolutionExact,
    /// Tracked for drift reporting only; never fails the gate.
    Informational,
}

/// The per-metric thresholds the sentry applies.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Multiplicative budget for times (and the shrink budget for
    /// speedups). Default 1.5: a metric may grow 50% before failing.
    pub time_ratio: f64,
    /// Absolute growth floor for times, in **seconds** (`*_ms` leaves
    /// use `1000 ×` this). Growth below the floor never fails, however
    /// large the ratio — sub-millisecond benches are noise-dominated —
    /// and a speedup whose row times nothing above it is not judged.
    pub time_floor_s: f64,
    /// Additive budget for overhead ratios. Default 0.25: an overhead
    /// of 1.05 may drift to 1.30 before failing.
    pub ratio_slack: f64,
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds {
            time_ratio: 1.5,
            time_floor_s: 0.002,
            ratio_slack: 0.25,
        }
    }
}

/// The policy for a leaf, chosen by its object key.
pub fn policy_for(key: &str) -> Policy {
    if key.starts_with("gate_") {
        Policy::GateMustHold
    } else if key == "solution" {
        Policy::SolutionExact
    } else if key.ends_with("_s") || key.ends_with("_ms") {
        Policy::TimeLowerBetter
    } else if key.contains("overhead") {
        Policy::RatioLowerBetter
    } else if key.contains("speedup") {
        Policy::HigherBetter
    } else {
        Policy::Informational
    }
}

/// One compared metric that moved (or went missing).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which bench document (`ematch`, `extract`, ...).
    pub bench: String,
    /// Dotted path to the leaf, rows keyed by identity — e.g.
    /// `kernels[gemv].cold_ms`.
    pub path: String,
    /// The committed value, rendered.
    pub baseline: String,
    /// The freshly measured value, rendered.
    pub current: String,
    /// Human-readable judgement (`2.10x over the 1.50x budget`, ...).
    pub note: String,
    /// `true` when this finding fails the gate.
    pub regression: bool,
}

/// The sentry's result over one pair of documents.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Metrics that moved past their policy's threshold (gate failures).
    pub regressions: Vec<Finding>,
    /// Metrics that moved within budget (reported, never failing).
    pub drift: Vec<Finding>,
    /// Leaves compared.
    pub compared: usize,
}

impl DiffReport {
    /// `true` when no metric failed its policy.
    pub fn pass(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Fold another report into this one.
    pub fn merge(&mut self, other: DiffReport) {
        self.regressions.extend(other.regressions);
        self.drift.extend(other.drift);
        self.compared += other.compared;
    }
}

/// Keys that identify a row inside a bench array, in priority order.
/// Rows are paired by identity, not index, so reordering a kernel list
/// is not a regression.
const IDENTITY_KEYS: [&str; 4] = ["kernel", "target", "rule", "name"];

fn identity(j: &Json) -> Option<String> {
    let parts: Vec<&str> = IDENTITY_KEYS
        .iter()
        .filter_map(|k| j.get(k).and_then(Json::as_str))
        .collect();
    if parts.is_empty() {
        None
    } else {
        Some(parts.join("/"))
    }
}

fn render(j: &Json) -> String {
    match j {
        Json::Num(n) => format!("{n}"),
        Json::Str(s) => s.clone(),
        Json::Bool(b) => format!("{b}"),
        other => other.to_json(),
    }
}

/// Compare one freshly generated bench document against its committed
/// baseline. `bench` labels the findings (e.g. `"serve"`).
pub fn diff_docs(bench: &str, baseline: &Json, current: &Json, th: &Thresholds) -> DiffReport {
    let mut report = DiffReport::default();
    let leaf = Leaf { key: None, row_time_s: 0.0, cur_row_time_s: 0.0 };
    walk(bench, "", leaf, baseline, current, th, &mut report);
    report
}

/// Where a value sits: its object key, and the largest timing among the
/// leaves of the object holding it, in seconds, in the baseline and in
/// the current document.
#[derive(Clone, Copy)]
struct Leaf<'a> {
    key: Option<&'a str>,
    row_time_s: f64,
    cur_row_time_s: f64,
}

/// The largest `*_s` / `*_ms` number among an object's leaves, in seconds.
fn largest_time_s(pairs: &[(String, Json)]) -> f64 {
    pairs
        .iter()
        .filter(|(k, _)| policy_for(k) == Policy::TimeLowerBetter)
        .filter_map(|(k, v)| Some(v.as_f64()? / if k.ends_with("_ms") { 1000.0 } else { 1.0 }))
        .fold(0.0, f64::max)
}

fn push(
    report: &mut DiffReport,
    bench: &str,
    path: &str,
    baseline: &Json,
    current: Option<&Json>,
    note: String,
    regression: bool,
) {
    let finding = Finding {
        bench: bench.to_string(),
        path: path.to_string(),
        baseline: render(baseline),
        current: current.map(render).unwrap_or_else(|| "(missing)".to_string()),
        note,
        regression,
    };
    if regression {
        report.regressions.push(finding);
    } else {
        report.drift.push(finding);
    }
}

fn walk(
    bench: &str,
    path: &str,
    leaf: Leaf<'_>,
    baseline: &Json,
    current: &Json,
    th: &Thresholds,
    report: &mut DiffReport,
) {
    let key = leaf.key;
    match (baseline, current) {
        (Json::Obj(pairs), Json::Obj(cur_pairs)) => {
            let row_time_s = largest_time_s(pairs);
            let cur_row_time_s = largest_time_s(cur_pairs);
            for (k, base_v) in pairs {
                let child = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                let leaf = Leaf { key: Some(k), row_time_s, cur_row_time_s };
                match current.get(k) {
                    Some(cur_v) => walk(bench, &child, leaf, base_v, cur_v, th, report),
                    None => push(
                        report,
                        bench,
                        &child,
                        base_v,
                        None,
                        "metric missing from the current document".to_string(),
                        true,
                    ),
                }
            }
            // Keys only in `current` are new metrics — fine.
        }
        (Json::Arr(base_items), Json::Arr(cur_items)) => {
            let row = Leaf { key: None, ..leaf };
            let by_identity = base_items.iter().all(|i| identity(i).is_some())
                && cur_items.iter().all(|i| identity(i).is_some());
            if by_identity {
                for base_item in base_items {
                    let id = identity(base_item).unwrap();
                    let child = format!("{path}[{id}]");
                    match cur_items.iter().find(|c| identity(c).as_deref() == Some(&id)) {
                        Some(cur_item) => walk(bench, &child, row, base_item, cur_item, th, report),
                        None => push(
                            report,
                            bench,
                            &child,
                            base_item,
                            None,
                            "row missing from the current document".to_string(),
                            true,
                        ),
                    }
                }
            } else {
                for (i, base_item) in base_items.iter().enumerate() {
                    let child = format!("{path}[{i}]");
                    match cur_items.get(i) {
                        Some(cur_item) => walk(bench, &child, row, base_item, cur_item, th, report),
                        None => push(
                            report,
                            bench,
                            &child,
                            base_item,
                            None,
                            "row missing from the current document".to_string(),
                            true,
                        ),
                    }
                }
            }
        }
        (Json::Num(b), Json::Num(c)) => {
            report.compared += 1;
            judge_number(bench, path, leaf, *b, *c, th, report);
        }
        (Json::Str(b), Json::Str(c)) => {
            report.compared += 1;
            if b != c {
                let exact = key.map(policy_for) == Some(Policy::SolutionExact);
                push(
                    report,
                    bench,
                    path,
                    baseline,
                    Some(current),
                    if exact {
                        "solution changed — semantic regression".to_string()
                    } else {
                        "string changed".to_string()
                    },
                    exact,
                );
            }
        }
        (Json::Bool(b), Json::Bool(c)) => {
            report.compared += 1;
            let gated = key.map(policy_for) == Some(Policy::GateMustHold);
            if gated && !c {
                push(
                    report,
                    bench,
                    path,
                    baseline,
                    Some(current),
                    "gate does not hold".to_string(),
                    true,
                );
            } else if b != c {
                push(report, bench, path, baseline, Some(current), "flag changed".to_string(), false);
            }
        }
        _ => push(
            report,
            bench,
            path,
            baseline,
            Some(current),
            "value changed type".to_string(),
            true,
        ),
    }
}

/// How the fast side a ratio implies — the row's largest timing ÷ the
/// ratio — moved from baseline `b` to current `c`: (current row time ÷ c)
/// ÷ (baseline row time ÷ b). NaN when the row times nothing, which no
/// comparison passes.
fn fast_side_growth(leaf: Leaf<'_>, b: f64, c: f64) -> f64 {
    (leaf.cur_row_time_s * b) / (leaf.row_time_s * c)
}

fn judge_number(
    bench: &str,
    path: &str,
    leaf: Leaf<'_>,
    b: f64,
    c: f64,
    th: &Thresholds,
    report: &mut DiffReport,
) {
    let key = leaf.key.unwrap_or("");
    let policy = policy_for(key);
    let (regression, note) = match policy {
        Policy::TimeLowerBetter => {
            let floor = if key.ends_with("_ms") { th.time_floor_s * 1000.0 } else { th.time_floor_s };
            let over_ratio = b > 0.0 && c > b * th.time_ratio;
            let over_floor = c - b > floor;
            if over_ratio && over_floor {
                (true, format!("{:.2}x over the {:.2}x budget", c / b, th.time_ratio))
            } else if c != b {
                (false, format!("{:+.1}% within budget", (c / b - 1.0) * 100.0))
            } else {
                return;
            }
        }
        Policy::RatioLowerBetter => {
            if c > b + th.ratio_slack {
                let rose = format!("overhead rose {:.3} past the +{:.2} slack", c - b, th.ratio_slack);
                let growth = fast_side_growth(leaf, b, c);
                if growth < 1.0 / th.time_ratio {
                    (false, format!("{rose}, but its fast side is {growth:.2}x its baseline"))
                } else {
                    (true, rose)
                }
            } else if c != b {
                (false, format!("{:+.3} within slack", c - b))
            } else {
                return;
            }
        }
        Policy::HigherBetter => {
            let judged = leaf.row_time_s >= th.time_floor_s;
            let change = (c / b - 1.0) * 100.0;
            if judged && b > 0.0 && c < b / th.time_ratio {
                // The fast side's growth, held to the time ratio alone.
                let growth = fast_side_growth(leaf, b, c);
                let shrank = format!("shrank to {:.2}x of baseline", c / b);
                let fast = format!("its fast side is {growth:.2}x its baseline");
                if growth > th.time_ratio {
                    (true, format!("{shrank}; {fast}, over {:.2}x", th.time_ratio))
                } else {
                    (false, format!("{shrank}, but {fast}"))
                }
            } else if c == b {
                return;
            } else if judged {
                (false, format!("{change:+.1}% within budget"))
            } else {
                let floor_ms = th.time_floor_s * 1000.0;
                (false, format!("{change:+.1}%, not judged: row under the {floor_ms} ms floor"))
            }
        }
        // Gates and solutions are booleans/strings; a number under
        // those keys is a schema change.
        Policy::GateMustHold | Policy::SolutionExact => {
            (true, "value changed type".to_string())
        }
        Policy::Informational => {
            if c != b {
                (false, "drifted (informational)".to_string())
            } else {
                return;
            }
        }
    };
    push(
        report,
        bench,
        path,
        &Json::Num(b),
        Some(&Json::Num(c)),
        note,
        regression,
    );
}

/// Render a merged report as the machine-readable verdict document the
/// CI gate archives (stable key order).
pub fn verdict_json(report: &DiffReport, thresholds: &Thresholds) -> Json {
    let finding = |f: &Finding| {
        Json::obj([
            ("bench", Json::Str(f.bench.clone())),
            ("path", Json::Str(f.path.clone())),
            ("baseline", Json::Str(f.baseline.clone())),
            ("current", Json::Str(f.current.clone())),
            ("note", Json::Str(f.note.clone())),
        ])
    };
    Json::obj([
        (
            "verdict",
            Json::Str(if report.pass() { "pass" } else { "fail" }.to_string()),
        ),
        ("compared", Json::Num(report.compared as f64)),
        (
            "thresholds",
            Json::obj([
                ("time_ratio", Json::Num(thresholds.time_ratio)),
                ("time_floor_s", Json::Num(thresholds.time_floor_s)),
                ("ratio_slack", Json::Num(thresholds.ratio_slack)),
            ]),
        ),
        (
            "regressions",
            Json::Arr(report.regressions.iter().map(finding).collect()),
        ),
        ("drift", Json::Arr(report.drift.iter().map(finding).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use liar_serve::json::parse;

    const BASE: &str = r#"{
        "bench": "serve",
        "workers": 2,
        "kernels": [
            {"kernel": "vsum", "cold_ms": 8.0, "warm_p50_ms": 0.5, "cache_hit_speedup": 16.0, "solution": "1 × dot"},
            {"kernel": "gemv", "cold_ms": 300.0, "warm_p50_ms": 0.6, "cache_hit_speedup": 500.0, "solution": "1 × gemv"}
        ],
        "gate_2pct_pass": true,
        "aggregate_enabled_overhead": 1.05
    }"#;

    #[test]
    fn identical_documents_pass() {
        let base = parse(BASE).unwrap();
        let report = diff_docs("serve", &base, &base, &Thresholds::default());
        assert!(report.pass());
        assert!(report.drift.is_empty());
        assert!(report.compared > 0);
    }

    #[test]
    fn noise_within_budget_is_drift_not_regression() {
        let base = parse(BASE).unwrap();
        let cur = parse(&BASE.replace("\"cold_ms\": 8.0", "\"cold_ms\": 9.1")).unwrap();
        let report = diff_docs("serve", &base, &cur, &Thresholds::default());
        assert!(report.pass(), "{:?}", report.regressions);
        assert_eq!(report.drift.len(), 1);
    }

    #[test]
    fn sub_floor_blowup_on_a_tiny_metric_passes() {
        // 0.5ms → 1.9ms is 3.8x but under the 2ms absolute floor: noise.
        let base = parse(BASE).unwrap();
        let cur = parse(&BASE.replace("\"warm_p50_ms\": 0.5", "\"warm_p50_ms\": 1.9")).unwrap();
        assert!(diff_docs("serve", &base, &cur, &Thresholds::default()).pass());
    }

    #[test]
    fn seeded_time_regression_fails() {
        let base = parse(BASE).unwrap();
        let cur = parse(&BASE.replace("\"cold_ms\": 300.0", "\"cold_ms\": 600.0")).unwrap();
        let report = diff_docs("serve", &base, &cur, &Thresholds::default());
        assert!(!report.pass());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].path, "kernels[gemv].cold_ms");
    }

    #[test]
    fn gate_flip_and_solution_change_fail() {
        let base = parse(BASE).unwrap();
        let cur = parse(
            &BASE
                .replace("\"gate_2pct_pass\": true", "\"gate_2pct_pass\": false")
                .replace("1 × dot", "2 × axpy"),
        )
        .unwrap();
        let report = diff_docs("serve", &base, &cur, &Thresholds::default());
        let paths: Vec<&str> = report.regressions.iter().map(|f| f.path.as_str()).collect();
        assert!(paths.contains(&"gate_2pct_pass"), "{paths:?}");
        assert!(paths.contains(&"kernels[vsum].solution"), "{paths:?}");
    }

    #[test]
    fn speedup_shrink_and_overhead_rise_fail() {
        let base = parse(BASE).unwrap();
        let cur = parse(
            &BASE
                .replace("\"cache_hit_speedup\": 500.0", "\"cache_hit_speedup\": 100.0")
                .replace(
                    "\"aggregate_enabled_overhead\": 1.05",
                    "\"aggregate_enabled_overhead\": 1.45",
                ),
        )
        .unwrap();
        let report = diff_docs("serve", &base, &cur, &Thresholds::default());
        assert_eq!(report.regressions.len(), 2, "{:?}", report.regressions);
    }

    /// CI's cross-machine flags: `--time-ratio 4 --time-floor-ms 10`.
    fn ci_thresholds() -> Thresholds {
        Thresholds {
            time_ratio: 4.0,
            time_floor_s: 0.010,
            ..Thresholds::default()
        }
    }

    #[test]
    fn speedup_of_sub_floor_timings_is_not_judged() {
        // vsum: every timing in the row is under 10 ms, so a 5x drop of
        // its ratios is drift.
        let base = parse(BASE).unwrap();
        let cur = BASE.replace("\"cache_hit_speedup\": 16.0", "\"cache_hit_speedup\": 3.2");
        let cur = parse(&cur).unwrap();
        let report = diff_docs("serve", &base, &cur, &ci_thresholds());
        assert!(report.pass(), "{:?}", report.regressions);
        assert_eq!(report.drift.len(), 1);
        assert!(report.drift[0].note.contains("not judged"), "{}", report.drift[0].note);
    }

    #[test]
    fn speedup_of_timed_row_is_still_judged() {
        // An mvt-like row: cold 300 ms, so a 5x speedup drop fails.
        let base = parse(BASE).unwrap();
        let cur = BASE.replace("\"cache_hit_speedup\": 500.0", "\"cache_hit_speedup\": 100.0");
        let cur = parse(&cur).unwrap();
        let report = diff_docs("serve", &base, &cur, &ci_thresholds());
        let paths: Vec<&str> = report.regressions.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, ["kernels[gemv].cache_hit_speedup"]);
    }

    /// The serve bench's mvt row: the baseline, and a current row whose
    /// cold (slow) side sped up 45x while the warm (fast) side held.
    const MVT_BASE: &str = r#"{"kernels": [
        {"kernel": "mvt", "cold_ms": 323.979, "warm_p50_ms": 0.575, "cache_hit_speedup": 563.226}
    ]}"#;
    const MVT_FAST_COLD: &str = r#"{"kernels": [
        {"kernel": "mvt", "cold_ms": 7.256, "warm_p50_ms": 0.626, "cache_hit_speedup": 11.593}
    ]}"#;

    #[test]
    fn speedup_shrunk_by_a_faster_slow_side_is_drift() {
        let base = parse(MVT_BASE).unwrap();
        let cur = parse(MVT_FAST_COLD).unwrap();
        let report = diff_docs("serve", &base, &cur, &ci_thresholds());
        assert!(report.pass(), "{:?}", report.regressions);
        let speedup = report.drift.iter().find(|f| f.path == "kernels[mvt].cache_hit_speedup");
        let note = &speedup.expect("speedup reported as drift").note;
        assert!(note.contains("but its fast side is 1.09x its baseline"), "{note}");
    }

    #[test]
    fn speedup_shrunk_by_a_slower_fast_side_still_fails() {
        // The cold side holds and the speedup drops 5x: the warm side
        // slowed 5x, past CI's 4x budget (though under its 10 ms floor).
        let base = parse(MVT_BASE).unwrap();
        let cur = MVT_BASE.replace("563.226", "112.645").replace("0.575", "2.876");
        let report = diff_docs("serve", &base, &parse(&cur).unwrap(), &ci_thresholds());
        let paths: Vec<&str> = report.regressions.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, ["kernels[mvt].cache_hit_speedup"]);
    }

    /// The explain bench's mvt/blas row: the baseline, and a current row
    /// whose off (fast) side fell 245.8 → 6 ms.
    const EXPLAIN_BASE: &str = r#"{"rows": [
        {"kernel": "mvt", "target": "blas", "off_s": 0.245774, "on_s": 0.304591, "overhead": 1.239}
    ]}"#;
    const EXPLAIN_FAST_OFF: &str = r#"{"rows": [
        {"kernel": "mvt", "target": "blas", "off_s": 0.006, "on_s": 0.0132, "overhead": 2.2}
    ]}"#;

    #[test]
    fn overhead_risen_over_a_collapsed_fast_side_is_drift() {
        let base = parse(EXPLAIN_BASE).unwrap();
        let cur = parse(EXPLAIN_FAST_OFF).unwrap();
        let report = diff_docs("explain", &base, &cur, &ci_thresholds());
        assert!(report.pass(), "{:?}", report.regressions);
        let overhead = report.drift.iter().find(|f| f.path == "rows[mvt/blas].overhead");
        let note = &overhead.expect("overhead reported as drift").note;
        assert!(note.contains("but its fast side is 0.02x its baseline"), "{note}");
    }

    #[test]
    fn overhead_risen_over_a_held_fast_side_still_fails() {
        // The off side holds at 245.8 ms while the on side doubles.
        let base = parse(EXPLAIN_BASE).unwrap();
        let cur = EXPLAIN_BASE.replace("0.304591", "0.498921").replace("1.239", "2.03");
        let report = diff_docs("explain", &base, &parse(&cur).unwrap(), &ci_thresholds());
        let paths: Vec<&str> = report.regressions.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, ["rows[mvt/blas].overhead"]);
    }

    #[test]
    fn missing_row_and_metric_fail_while_new_ones_pass() {
        let base = parse(BASE).unwrap();
        // Current drops the gemv row and the gate, adds a new metric.
        let cur = parse(r#"{
            "bench": "serve",
            "workers": 2,
            "brand_new_counter": 7,
            "kernels": [
                {"kernel": "vsum", "cold_ms": 8.0, "warm_p50_ms": 0.5, "cache_hit_speedup": 16.0, "solution": "1 × dot"}
            ],
            "aggregate_enabled_overhead": 1.05
        }"#).unwrap();
        let report = diff_docs("serve", &base, &cur, &Thresholds::default());
        let paths: Vec<&str> = report.regressions.iter().map(|f| f.path.as_str()).collect();
        assert!(paths.contains(&"kernels[gemv]"), "{paths:?}");
        assert!(paths.contains(&"gate_2pct_pass"), "{paths:?}");
        assert_eq!(report.regressions.len(), 2);
    }

    #[test]
    fn rows_pair_by_identity_not_index() {
        let base = parse(BASE).unwrap();
        // Same rows, reversed order: no findings at all.
        let cur = parse(r#"{
            "bench": "serve",
            "workers": 2,
            "kernels": [
                {"kernel": "gemv", "cold_ms": 300.0, "warm_p50_ms": 0.6, "cache_hit_speedup": 500.0, "solution": "1 × gemv"},
                {"kernel": "vsum", "cold_ms": 8.0, "warm_p50_ms": 0.5, "cache_hit_speedup": 16.0, "solution": "1 × dot"}
            ],
            "gate_2pct_pass": true,
            "aggregate_enabled_overhead": 1.05
        }"#).unwrap();
        let report = diff_docs("serve", &base, &cur, &Thresholds::default());
        assert!(report.pass());
        assert!(report.drift.is_empty());
    }

    #[test]
    fn verdict_json_is_stable_and_machine_readable() {
        let base = parse(BASE).unwrap();
        let cur = parse(&BASE.replace("\"cold_ms\": 300.0", "\"cold_ms\": 600.0")).unwrap();
        let report = diff_docs("serve", &base, &cur, &Thresholds::default());
        let v = verdict_json(&report, &Thresholds::default());
        assert_eq!(v.get("verdict").and_then(Json::as_str), Some("fail"));
        let text = v.to_json();
        // Round-trips through the parser.
        assert_eq!(parse(&text).unwrap(), v);
        assert!(text.starts_with("{\"verdict\":\"fail\",\"compared\":"));
    }
}
