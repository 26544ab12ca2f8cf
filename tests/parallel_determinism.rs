//! The parallel search engine's contract: multi-threaded saturation
//! produces **bit-identical** results to the serial engine — same solutions,
//! same per-step statistics, same scheduler (backoff/ban) behaviour — on
//! the paper's worked examples. If these break, `with_threads` silently
//! changes what LIAR discovers, which would invalidate every measurement
//! taken with it.

use liar::core::{Liar, OptimizationReport, Target};
use liar::egraph::{BackoffScheduler, Runner, Scheduler};
use liar::ir::{dsl, Expr};
use liar::kernels::Kernel;

fn optimize(expr: &Expr, target: Target, threads: usize) -> OptimizationReport {
    Liar::new(target)
        .with_iter_limit(6)
        .with_threads(threads)
        .optimize(expr)
}

/// Reports must agree step by step: statistics, extracted best expression,
/// cost, and library-call summary.
fn assert_reports_identical(serial: &OptimizationReport, parallel: &OptimizationReport) {
    assert_eq!(serial.stop_reason, parallel.stop_reason);
    assert_eq!(serial.steps.len(), parallel.steps.len());
    for (s, p) in serial.steps.iter().zip(&parallel.steps) {
        assert_eq!(s.step, p.step);
        assert_eq!(s.n_nodes, p.n_nodes, "step {}: e-node count diverged", s.step);
        assert_eq!(s.n_classes, p.n_classes, "step {}: class count diverged", s.step);
        assert_eq!(s.best, p.best, "step {}: extracted solution diverged", s.step);
        assert_eq!(s.cost, p.cost, "step {}: cost diverged", s.step);
        assert_eq!(s.lib_calls, p.lib_calls, "step {}: solutions diverged", s.step);
    }
}

#[test]
fn paper_examples_identical_across_thread_counts() {
    let programs: Vec<(Expr, Target)> = vec![
        // §V.A latent dot product in vector sum.
        (dsl::vsum(8, dsl::sym("xs")), Target::Blas),
        // §IV.C.2 constant-array construction (torch add + full).
        (
            "(build #8 (lam (+ (get xs %0) 42)))".parse().unwrap(),
            Target::Torch,
        ),
        // §VI gemv, both targets.
        (
            dsl::vadd(
                8,
                dsl::vscale(8, dsl::sym("alpha"), dsl::matvec(8, 8, dsl::sym("A"), dsl::sym("B"))),
                dsl::vscale(8, dsl::sym("beta"), dsl::sym("C")),
            ),
            Target::Blas,
        ),
    ];
    for (expr, target) in &programs {
        let serial = optimize(expr, *target, 1);
        for threads in [2, 4] {
            let parallel = optimize(expr, *target, threads);
            assert_reports_identical(&serial, &parallel);
        }
    }
}

#[test]
fn polybench_kernel_identical_at_four_threads() {
    // Real polybench kernels end to end: atax exercises matrix idioms,
    // transposes and the heaviest rule load of the fast kernels; gemm and
    // jacobi1d on torch run the shift-heavy idioms whose downshifts the
    // four workers share through the analysis cache.
    for (kernel, target) in [
        (Kernel::Atax, Target::Blas),
        (Kernel::Gemm, Target::Torch),
        (Kernel::Jacobi1d, Target::Torch),
    ] {
        let expr = kernel.expr(8);
        let serial = optimize(&expr, target, 1);
        let parallel = optimize(&expr, target, 4);
        assert_reports_identical(&serial, &parallel);
        assert_eq!(
            serial.best().solution_summary(),
            parallel.best().solution_summary(),
            "{kernel} @{target}"
        );
    }
}

/// The backoff scheduler's ban decisions depend only on per-rule match
/// counts; since the parallel engine merges matches to the exact serial
/// lists, bans must fire at the same (iteration, rule) points. Bans are
/// observed directly through a delegating spy around [`BackoffScheduler`].
#[test]
fn backoff_bans_identical_under_both_engines() {
    use std::sync::{Arc, Mutex};

    use liar::core::rules::{rules_for, RuleConfig};
    use liar::ir::ArrayEGraph;

    /// Delegates to a real backoff scheduler, logging every ban it issues.
    struct BanSpy {
        inner: BackoffScheduler,
        bans: Arc<Mutex<Vec<(usize, usize)>>>,
    }
    impl Scheduler for BanSpy {
        fn match_limit(
            &mut self,
            iteration: usize,
            rule_idx: usize,
            rule_name: &str,
        ) -> Option<usize> {
            let limit = self.inner.match_limit(iteration, rule_idx, rule_name);
            if limit.is_none() {
                self.bans.lock().unwrap().push((iteration, rule_idx));
            }
            limit
        }
        fn record(&mut self, iteration: usize, rule_idx: usize, n_matches: usize) {
            self.inner.record(iteration, rule_idx, n_matches);
        }
    }

    let expr = dsl::vsum(8, dsl::sym("xs"));
    let rules = rules_for(Target::Blas, &RuleConfig::default());
    let run = |threads: usize| {
        let bans = Arc::new(Mutex::new(Vec::new()));
        let mut eg = ArrayEGraph::default();
        let root = eg.add_expr(&expr);
        let mut runner = Runner::new(eg)
            .with_root(root)
            .with_iter_limit(6)
            // Tiny budget: busy rules exceed it and get banned.
            .with_scheduler(BanSpy {
                inner: BackoffScheduler::new(4, 2),
                bans: Arc::clone(&bans),
            })
            .with_threads(threads);
        runner.run(&rules);
        let bans = bans.lock().unwrap().clone();
        (runner, bans)
    };
    let (serial, serial_bans) = run(1);
    let (parallel, parallel_bans) = run(4);
    assert_eq!(serial.iterations.len(), parallel.iterations.len());
    for (s, p) in serial.iterations.iter().zip(&parallel.iterations) {
        assert_eq!(s.applied, p.applied, "step {}: applied counts diverged", s.index);
        assert_eq!(s.n_nodes, p.n_nodes);
    }
    assert_eq!(serial_bans, parallel_bans, "bans must fire identically");
    assert!(
        !serial_bans.is_empty(),
        "test should exercise at least one actual ban"
    );
}

/// The scheduler sees the same call sequence under both engines: all
/// `match_limit` calls for an iteration happen before any `record` call.
#[test]
fn scheduler_call_sequence_is_engine_independent() {
    use std::sync::{Arc, Mutex};

    type CallLog = Vec<(usize, &'static str, usize)>;

    #[derive(Clone, Default)]
    struct Spy {
        log: Arc<Mutex<CallLog>>,
    }
    impl Scheduler for Spy {
        fn match_limit(
            &mut self,
            iteration: usize,
            rule_idx: usize,
            _rule_name: &str,
        ) -> Option<usize> {
            self.log.lock().unwrap().push((iteration, "limit", rule_idx));
            Some(usize::MAX)
        }
        fn record(&mut self, iteration: usize, rule_idx: usize, _n: usize) {
            self.log.lock().unwrap().push((iteration, "record", rule_idx));
        }
    }

    let expr: Expr = "(+ (+ a b) c)".parse().unwrap();
    let rules = vec![
        liar::egraph::Rewrite::from_patterns("comm", "(+ ?x ?y)", "(+ ?y ?x)"),
        liar::egraph::Rewrite::from_patterns("assoc", "(+ (+ ?x ?y) ?z)", "(+ ?x (+ ?y ?z))"),
    ];
    let run = |threads: usize| {
        let spy = Spy::default();
        let log = Arc::clone(&spy.log);
        let mut eg = liar::ir::ArrayEGraph::default();
        eg.add_expr(&expr);
        let mut runner = Runner::new(eg)
            .with_iter_limit(3)
            .with_scheduler(spy)
            .with_threads(threads);
        runner.run(&rules);
        let log = log.lock().unwrap().clone();
        log
    };
    assert_eq!(run(1), run(4), "scheduler call sequences must agree");
}
