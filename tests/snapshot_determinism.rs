//! Snapshot round-trip wall: a saturated e-graph serialized with
//! [`snapshot`] and brought back with [`restore`] must be **behaviorally
//! identical** to the original — same canonical class ids (stable across
//! one further `rebuild()`), bit-identical extraction under every
//! extractor (tree / DAG / exact) × every target cost model, identical
//! replayable proofs — for every evaluation kernel. Corrupt bytes must
//! fail with structured errors, never panics.
//!
//! [`snapshot`]: liar::ir::ArrayEGraph::snapshot
//! [`restore`]: liar::ir::ArrayEGraph::restore

use liar::core::rules::{rules_for_targets, RuleConfig};
use liar::core::{Liar, Target, TargetCost};
use liar::egraph::{DagExtractor, ExactExtractor, Extractor, Id, SnapshotError};
use liar::ir::{ArrayAnalysis, ArrayEGraph};
use liar::kernels::Kernel;

/// The deep-sweep subset (shared with `extract_differential.rs`): the
/// paper's flagship, two PolyBench kernels with distinct shapes, and the
/// §I motivating example.
const KERNELS: [Kernel; 4] = [Kernel::Vsum, Kernel::Gemv, Kernel::Atax, Kernel::Mvt];

/// Budgets of the full-corpus sweep: enough rewriting that every kernel
/// grows a non-trivial graph, cheap enough that all sixteen kernels fit
/// one test.
fn sweep_pipeline() -> Liar {
    Liar::new(Target::Blas)
        .with_iter_limit(3)
        .with_node_limit(20_000)
        .with_match_limit(2_000)
}

fn restore(bytes: &[u8]) -> ArrayEGraph {
    ArrayEGraph::restore(ArrayAnalysis::default(), bytes).expect("snapshot restores")
}

/// DAG and exact costs accumulate floats in hash-map iteration order, so
/// two extractions of the *same* graph already differ in the last ulp;
/// compare within that noise floor.
fn assert_cost_close(a: f64, b: f64, ctx: &str) {
    let tol = 1e-9 * a.abs().max(1.0);
    assert!(
        (a - b).abs() <= tol,
        "{ctx}: cost diverged beyond float noise: {a} vs {b}"
    );
}

/// Every extractor must see the restored graph exactly as the original:
/// same best expression and cost under tree, DAG, and exact extraction.
fn assert_same_extraction(
    original: &ArrayEGraph,
    restored: &ArrayEGraph,
    root: Id,
    target: Target,
    ctx: &str,
) {
    let cost_fn = TargetCost::new(target);

    let (tree_cost, tree_best) = Extractor::new(original, cost_fn).find_best(root);
    let (r_cost, r_best) = Extractor::new(restored, cost_fn).find_best(root);
    assert_eq!(tree_best, r_best, "{ctx}: tree extraction diverged");
    assert_eq!(
        tree_cost.to_bits(),
        r_cost.to_bits(),
        "{ctx}: tree cost diverged: {tree_cost} vs {r_cost}"
    );

    let (dag_cost, dag_best) = DagExtractor::new(original, cost_fn).find_best(root);
    let (rd_cost, rd_best) = DagExtractor::new(restored, cost_fn).find_best(root);
    assert_eq!(dag_best, rd_best, "{ctx}: DAG extraction diverged");
    assert_cost_close(dag_cost, rd_cost, ctx);

    let exact = ExactExtractor::new(original, cost_fn).solve(root);
    let r_exact = ExactExtractor::new(restored, cost_fn).solve(root);
    match (exact, r_exact) {
        (Some(a), Some(b)) => {
            assert_eq!(a.expr, b.expr, "{ctx}: exact extraction diverged");
            assert_eq!(a.outcome, b.outcome, "{ctx}: exact outcome diverged");
            assert_eq!(
                a.reachable_classes, b.reachable_classes,
                "{ctx}: exact reachable-class count diverged"
            );
            assert_cost_close(a.cost, b.cost, ctx);
        }
        (None, None) => {}
        (a, b) => panic!("{ctx}: exact solvability diverged: {a:?} vs {b:?}"),
    }
}

/// The full corpus: saturate each kernel with the union ruleset of all
/// targets, round trip through bytes, and demand identical bytes from a
/// second saturation, identical canonical ids, byte-identical
/// re-snapshot, and identical extraction everywhere.
#[test]
fn every_kernel_round_trips_to_identical_extraction() {
    for kernel in Kernel::ALL {
        let expr = kernel.expr(8);
        let (original, root) = sweep_pipeline().saturate_for_targets(&expr, &Target::ALL);
        let bytes = original.snapshot().expect("saturated graphs are clean");

        // Saturation is deterministic: a second run of the same request
        // serializes to the same bytes, which content addressing needs.
        let (again, _) = sweep_pipeline().saturate_for_targets(&expr, &Target::ALL);
        assert_eq!(
            again.snapshot().expect("clean"),
            bytes,
            "{kernel}: reruns differ"
        );

        let mut restored = restore(&bytes);
        assert_eq!(restored.num_nodes(), original.num_nodes(), "{kernel}");
        assert_eq!(restored.num_classes(), original.num_classes(), "{kernel}");
        assert_eq!(restored.find(root), original.find(root), "{kernel}");

        // The format is a canonical function of the graph: re-snapshot
        // before anything touches the restored copy is byte-identical.
        assert_eq!(
            restored.snapshot().expect("restored graphs are clean"),
            bytes,
            "{kernel}: snapshot(restore(s)) != s"
        );

        // A restored graph is clean; one more rebuild moves nothing.
        restored.rebuild();
        assert_eq!(restored.find(root), original.find(root), "{kernel}: rebuild moved the root");
        assert_eq!(
            restored.num_classes(),
            original.num_classes(),
            "{kernel}: rebuild collapsed classes"
        );

        for target in Target::ALL {
            let ctx = format!("{kernel}/{target}");
            assert_same_extraction(&original, &restored, root, target, &ctx);
        }
    }
}

/// Proof production survives the round trip: the explanation forest is
/// part of the snapshot, so the restored graph explains the same
/// equivalences with step-identical proofs, and those proofs still
/// replay against the rule set that produced the graph.
#[test]
fn proofs_replay_identically_after_restore() {
    let rules = rules_for_targets(&Target::ALL, &RuleConfig::default());
    for kernel in KERNELS {
        let expr = kernel.expr(8);
        let (mut original, root) = sweep_pipeline()
            .with_explanations(true)
            .saturate_for_targets(&expr, &Target::ALL);
        let bytes = original.snapshot().expect("snapshot");
        let mut restored = restore(&bytes);
        assert!(restored.are_explanations_enabled(), "{kernel}: forest lost");

        for target in Target::ALL {
            let (_, best) = Extractor::new(&original, TargetCost::new(target)).find_best(root);
            // Same query order on both graphs: explaining mutates the
            // forest (path compression), so interleave identically.
            let proof = original.explain_equivalence(&expr, &best);
            let replayed = restored.explain_equivalence(&expr, &best);
            let ctx = format!("{kernel}/{target}");
            assert_eq!(proof.source, replayed.source, "{ctx}: proof source diverged");
            assert_eq!(proof.target, replayed.target, "{ctx}: proof target diverged");
            assert_eq!(proof.steps, replayed.steps, "{ctx}: proof steps diverged");
            replayed
                .check(&rules)
                .unwrap_or_else(|e| panic!("{ctx}: restored proof failed to replay: {e}"));
        }
    }
}

/// Corrupt bytes — truncations, a bumped format version, single-bit
/// flips anywhere in the payload — must come back as structured
/// [`SnapshotError`]s. No panics, and since `restore` is a pure
/// constructor, no partially-mutated e-graph can escape.
#[test]
fn corrupt_snapshots_fail_structurally_without_panic() {
    let expr = Kernel::Gemv.expr(8);
    let (egraph, _) = Liar::new(Target::Blas)
        .with_iter_limit(2)
        .with_node_limit(20_000)
        .saturate_for_targets(&expr, &[Target::Blas]);
    let bytes = egraph.snapshot().expect("snapshot");

    // Truncation at every prefix length (stride keeps the sweep cheap;
    // the liar-egraph unit wall covers every single length).
    for len in (0..bytes.len()).step_by(23).chain([bytes.len() - 1]) {
        let err = ArrayEGraph::restore(ArrayAnalysis::default(), &bytes[..len])
            .expect_err("truncated snapshot must not restore");
        assert!(
            !matches!(err, SnapshotError::Dirty),
            "truncation at {len} misreported as {err:?}"
        );
    }

    // A future format version is refused up front, naming both sides.
    let mut bumped = bytes.clone();
    bumped[8] = bumped[8].wrapping_add(1); // u32 LE version right after the 8-byte magic
    match ArrayEGraph::restore(ArrayAnalysis::default(), &bumped) {
        Err(SnapshotError::VersionMismatch { found, expected }) => {
            assert_eq!(found, expected + 1, "unexpected version delta")
        }
        other => panic!("version bump not detected: {other:?}"),
    }

    // Bit flips anywhere — header, string table, class payload,
    // checksum itself — are caught (whole-payload checksum).
    for pos in (0..bytes.len()).step_by(17) {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 1 << (pos % 8);
        assert!(
            ArrayEGraph::restore(ArrayAnalysis::default(), &flipped).is_err(),
            "bit flip at byte {pos} restored successfully"
        );
    }
}
