//! Request fingerprints: the content address of one optimization request.
//!
//! A [`Fingerprint`] identifies everything that determines the *result*
//! of a [`Liar::optimize_multi`](crate::Liar::optimize_multi) call:
//!
//! * the input term's structural hash ([`liar_ir::ContentHash`] — layout
//!   and textual whitespace do not matter);
//! * the ruleset configuration ([`RuleConfig::fingerprint`]) and the
//!   ordered target list (order matters: the report lists solutions in
//!   request order, and bit-identical responses are the cache contract);
//! * the ordered discount-scale list;
//! * the ordered machine-profile list (name and all four parameters —
//!   profiles change extracted costs, so they change the result);
//! * the saturation budgets (step limit, node limit, wall-clock limit,
//!   per-rule match limit).
//!
//! Deliberately **excluded**: observers that never change the result —
//! tracing, growth attribution and the flight recorder — so traced and
//! untraced requests share a cache entry.
//!
//! A request whose budgets include a wall-clock limit is still
//! fingerprinted (the limit is part of the key), but note that such runs
//! are only reproducible when saturation finishes within the budget;
//! the cache stores whatever the first run produced.

use std::time::Duration;

use liar_ir::{ContentAddressed, Expr, StableHasher};

use crate::profile::MachineProfile;
use crate::rules::{RuleConfig, Target};

/// Version salt mixed into every fingerprint. Bump when the semantics of
/// the pipeline change in a way that should invalidate previously
/// computed fingerprints (rule definitions, cost models, extraction).
///
/// v2: the `explain` knob joined the key (reports now optionally carry
/// proofs).
///
/// v3: the machine-profile list joined the key, and extraction's tie-break
/// among equal-cost terms became canonical (worklist extractors).
///
/// v4: the tuple intro rules pair tuple components with tuple components
/// only, so graphs with a tuple (and their reports' `n_nodes`) shrank.
///
/// v5: R-IntroIndexBuild pairs its matches with loop extents only, so
/// PyTorch and union-ruleset graphs (and their reports' `n_nodes`) shrank;
/// a warm store written under v4 would answer with the old graph.
///
/// v6: R-IntroLambda's argument ranges over the classes of `%0` and `%1`
/// only, so graphs (and their reports' `n_nodes`) shrank.
const FINGERPRINT_VERSION: u8 = 6;

/// The content address of one optimization request (see the module docs).
///
/// Displays as 32 lowercase hex digits; this is the `fingerprint` field
/// of serve-protocol responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u128);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Stable wire code of a target (independent of enum ordering).
fn target_code(t: Target) -> u8 {
    match t {
        Target::PureC => 0,
        Target::Blas => 1,
        Target::Torch => 2,
    }
}

/// The saturation budgets that participate in a fingerprint, bundled so
/// [`crate::Liar`] and the serve daemon hash exactly the same fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetKnobs {
    /// Saturation-step limit.
    pub iter_limit: usize,
    /// E-node budget.
    pub node_limit: usize,
    /// Optional wall-clock budget.
    pub time_limit: Option<Duration>,
    /// Per-rule, per-step match budget of the backoff scheduler.
    pub match_limit: usize,
    /// Whether proof production is on. Part of the key because reports
    /// computed with explanations carry proofs (and the saturation run
    /// does provenance bookkeeping), so they must not replay for
    /// proof-less requests — or vice versa.
    pub explain: bool,
}

/// Compute the fingerprint of a request (see the module docs for what is
/// and is not part of the key).
pub fn request_fingerprint(
    expr: &Expr,
    config: &RuleConfig,
    targets: &[Target],
    discount_scales: &[f64],
    profiles: &[MachineProfile],
    budgets: &BudgetKnobs,
) -> Fingerprint {
    let mut h = StableHasher::new();
    h.byte(FINGERPRINT_VERSION);
    h.u128(expr.content_hash().0);
    h.u64(config.fingerprint());
    h.u64(targets.len() as u64);
    for &t in targets {
        h.byte(target_code(t));
    }
    h.u64(discount_scales.len() as u64);
    for &s in discount_scales {
        h.u64(s.to_bits());
    }
    h.u64(profiles.len() as u64);
    for p in profiles {
        // Name *and* parameters: a renamed or re-tuned profile is a
        // different request.
        h.u64(p.name.len() as u64);
        for &b in p.name.as_bytes() {
            h.byte(b);
        }
        h.u64(p.loop_scale.to_bits());
        h.u64(p.vector_scale.to_bits());
        h.u64(p.matrix_scale.to_bits());
        h.u64(p.call_overhead.to_bits());
    }
    h.u64(budgets.iter_limit as u64);
    h.u64(budgets.node_limit as u64);
    match budgets.time_limit {
        None => h.byte(0),
        Some(d) => {
            h.byte(1);
            h.u128(d.as_nanos());
        }
    }
    h.u64(budgets.match_limit as u64);
    h.byte(budgets.explain as u8);
    Fingerprint(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs() -> BudgetKnobs {
        BudgetKnobs {
            iter_limit: 10,
            node_limit: 300_000,
            time_limit: None,
            match_limit: 40_000,
            explain: false,
        }
    }

    fn fp(expr: &str, targets: &[Target], scales: &[f64], budgets: &BudgetKnobs) -> Fingerprint {
        fp_profiles(expr, targets, scales, &[MachineProfile::default()], budgets)
    }

    fn fp_profiles(
        expr: &str,
        targets: &[Target],
        scales: &[f64],
        profiles: &[MachineProfile],
        budgets: &BudgetKnobs,
    ) -> Fingerprint {
        let expr: Expr = expr.parse().unwrap();
        request_fingerprint(&expr, &RuleConfig::default(), targets, scales, profiles, budgets)
    }

    #[test]
    fn semantically_identical_requests_collide() {
        let a = fp("(+ x  y)", &[Target::Blas], &[1.0], &knobs());
        let b = fp("(+ x y)", &[Target::Blas], &[1.0], &knobs());
        assert_eq!(a, b);
    }

    #[test]
    fn every_component_is_load_bearing() {
        let base = fp("(+ x y)", &[Target::Blas], &[1.0], &knobs());
        assert_ne!(base, fp("(+ y x)", &[Target::Blas], &[1.0], &knobs()));
        assert_ne!(base, fp("(+ x y)", &[Target::Torch], &[1.0], &knobs()));
        assert_ne!(
            base,
            fp("(+ x y)", &[Target::Blas, Target::Torch], &[1.0], &knobs())
        );
        assert_ne!(base, fp("(+ x y)", &[Target::Blas], &[2.0], &knobs()));
        assert_ne!(base, fp("(+ x y)", &[Target::Blas], &[1.0, 2.0], &knobs()));
        let mut b = knobs();
        b.iter_limit = 9;
        assert_ne!(base, fp("(+ x y)", &[Target::Blas], &[1.0], &b));
        let mut b = knobs();
        b.node_limit = 1000;
        assert_ne!(base, fp("(+ x y)", &[Target::Blas], &[1.0], &b));
        let mut b = knobs();
        b.time_limit = Some(Duration::from_secs(300));
        assert_ne!(base, fp("(+ x y)", &[Target::Blas], &[1.0], &b));
        let mut b = knobs();
        b.match_limit = 100;
        assert_ne!(base, fp("(+ x y)", &[Target::Blas], &[1.0], &b));
        let mut b = knobs();
        b.explain = true;
        assert_ne!(
            base,
            fp("(+ x y)", &[Target::Blas], &[1.0], &b),
            "explained requests must not share cache entries with proof-less ones"
        );
    }

    #[test]
    fn machine_profiles_are_part_of_the_key() {
        let base = fp("(+ x y)", &[Target::Blas], &[1.0], &knobs());
        let gpu = fp_profiles(
            "(+ x y)",
            &[Target::Blas],
            &[1.0],
            &[MachineProfile::gpu()],
            &knobs(),
        );
        assert_ne!(base, gpu, "a different profile is a different request");
        let both = fp_profiles(
            "(+ x y)",
            &[Target::Blas],
            &[1.0],
            &[MachineProfile::default(), MachineProfile::gpu()],
            &knobs(),
        );
        assert_ne!(base, both);
        assert_ne!(gpu, both);
        // Same name, different parameters: still a different request.
        let mut tweaked = MachineProfile::gpu();
        tweaked.call_overhead = 7.0;
        let tweaked = fp_profiles("(+ x y)", &[Target::Blas], &[1.0], &[tweaked], &knobs());
        assert_ne!(gpu, tweaked);
    }

    #[test]
    fn target_order_matters_but_config_equal_means_equal() {
        let a = fp("(+ x y)", &[Target::Blas, Target::Torch], &[1.0], &knobs());
        let b = fp("(+ x y)", &[Target::Torch, Target::Blas], &[1.0], &knobs());
        assert_ne!(a, b, "solutions come back in request order");
    }

    #[test]
    fn rule_config_changes_the_key() {
        let expr: Expr = "(+ x y)".parse().unwrap();
        let a = request_fingerprint(
            &expr,
            &RuleConfig::default(),
            &[Target::Blas],
            &[1.0],
            &[MachineProfile::default()],
            &knobs(),
        );
        let b = request_fingerprint(
            &expr,
            &RuleConfig::exhaustive(),
            &[Target::Blas],
            &[1.0],
            &[MachineProfile::default()],
            &knobs(),
        );
        assert_ne!(a, b);
    }
}
