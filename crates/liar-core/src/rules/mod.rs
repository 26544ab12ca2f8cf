//! Rule sets: language semantics (listing 2), scalar arithmetic
//! (listing 3), and library idioms (listings 4–5).

pub mod guard;
mod blas;
mod core_rules;
mod scalar;
mod torch;

pub use blas::blas_rules;
pub use core_rules::core_rules;
pub use scalar::scalar_rules;
pub use torch::torch_rules;

use liar_ir::ArrayRewrite;

/// The three rule-set targets evaluated in the paper (§VI, "targets").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Target {
    /// Core and scalar rules only; extraction never selects library calls.
    PureC,
    /// Core, scalar and BLAS idiom rules.
    Blas,
    /// Core, scalar and PyTorch idiom rules.
    Torch,
}

impl Target {
    /// All targets, in the paper's order.
    pub const ALL: [Target; 3] = [Target::PureC, Target::Blas, Target::Torch];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Target::PureC => "pure-c",
            Target::Blas => "blas",
            Target::Torch => "pytorch",
        }
    }
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Configuration for the rules whose right-hand sides contain free
/// variables (paper §IV.B.4).
///
/// The paper instantiates such rules with *every* e-class; that semantics
/// is available via [`RuleConfig::exhaustive()`], while the default bounds
/// the candidate sets to the classes that can actually participate in the
/// idiom chains (see ARCHITECTURE.md, "Rules and cost models").
///
/// One bound holds in every mode: `R-IntroIndexBuild`'s extent `N` ranges
/// over the loop extents, the classes that occur as the extent of a
/// `build` or `ifold` node, not over every class carrying an extent. A
/// lift rule's product extent is only ever a call's element count, so the
/// bound keeps those counts from multiplying the PyTorch graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuleConfig {
    /// Instantiate the intro rules over every e-class (the paper's
    /// §IV.B.4 semantics; explosive) instead of the bounded sets:
    ///
    /// * `R-IntroLambda` wraps every class `e` in `(λ e↑) y` with any class
    ///   as `y`, where by default `e` holds a float constant or a library
    ///   call and `y` is the class of `%0` or `%1`, the index of the loop
    ///   that directly encloses the value;
    /// * the tuple intro rules pair every class, where by default both the
    ///   kept component (the matched class) and its partner already occur
    ///   under a tuple. That closes the set under the rules' own output: a
    ///   tuple of two components adds no component, so the set grows only
    ///   when another rule builds a tuple or classes merge.
    pub exhaustive: bool,
}

impl RuleConfig {
    /// The paper-faithful, unbounded instantiation strategy.
    pub fn exhaustive() -> Self {
        RuleConfig { exhaustive: true }
    }

    /// A stable hash of this configuration — the "which rules were
    /// enabled, instantiated how" component of a request fingerprint
    /// (see [`crate::fingerprint`]).
    ///
    /// Together with a target list this pins the ruleset
    /// [`rules_for_targets`] would build: rule *definitions* are part of
    /// the crate itself, so within one process (the lifetime of the
    /// in-memory saturation cache) equal fingerprints imply identical
    /// rulesets.
    pub fn fingerprint(&self) -> u64 {
        let mut h = liar_ir::StableHasher::new();
        // The three bytes the configuration hashed when it had three
        // switches (R-IntroLambda's candidate set, exhaustive tuples,
        // scalar intro rules on), so request fingerprints and warm stores
        // keep their keys.
        h.byte(if self.exhaustive { 2 } else { 0 });
        h.byte(self.exhaustive as u8);
        h.byte(1);
        h.finish() as u64
    }
}

/// The complete rule set for a target: core + scalar (+ idioms).
pub fn rules_for(target: Target, config: &RuleConfig) -> Vec<ArrayRewrite> {
    rules_for_targets(&[target], config)
}

/// The union of several targets' rule sets, deduplicated by rule name —
/// the rule set of the "saturate once, extract everywhere" pipeline
/// ([`crate::Liar::optimize_multi`]).
///
/// Core and scalar rules are shared by every target, and the idiom sets
/// deliberately share some rules under the same name (`idiom-dot`,
/// `idiom-transpose` are identical in BLAS and PyTorch); keeping one copy
/// of each name preserves the backoff scheduler's per-rule match budgets,
/// so a union run treats a shared rule exactly as a single-target run
/// does.
pub fn rules_for_targets(targets: &[Target], config: &RuleConfig) -> Vec<ArrayRewrite> {
    let mut rules = core_rules(config);
    rules.extend(scalar_rules());
    for &target in targets {
        let idioms = match target {
            Target::PureC => Vec::new(),
            Target::Blas => blas_rules(),
            Target::Torch => torch_rules(),
        };
        for rule in idioms {
            if rules.iter().all(|r| r.name() != rule.name()) {
                rules.push(rule);
            }
        }
    }
    rules
}

/// Every shipped ruleset, individually named — the enumeration the
/// e-matching differential tests sweep so that the compiled VM is proven
/// equivalent to the oracle matcher on each of them. The guard module's
/// dimension checks ride along inside the blas/torch rules' appliers
/// (their searchers are ordinary patterns).
pub fn named_rulesets(config: &RuleConfig) -> Vec<(&'static str, Vec<ArrayRewrite>)> {
    vec![
        ("core", core_rules(config)),
        ("scalar", scalar_rules()),
        ("blas", blas_rules()),
        ("torch", torch_rules()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_counts_match_the_paper() {
        let config = RuleConfig::default();
        // Listing 2: eight core rules.
        assert_eq!(core_rules(&config).len(), 8);
        // Listing 3: four identities, two directions each — minus the
        // self-inverse commutativity pair collapsing into one rule.
        assert_eq!(scalar_rules().len(), 7);
    }

    #[test]
    fn rule_names_are_unique_per_target() {
        for target in Target::ALL {
            let rules = rules_for(target, &RuleConfig::default());
            let mut names: Vec<_> = rules.iter().map(|r| r.name().to_string()).collect();
            names.sort();
            let before = names.len();
            names.dedup();
            assert_eq!(before, names.len(), "duplicate rule names in {target}");
        }
    }

    #[test]
    fn union_ruleset_dedupes_shared_idioms() {
        let config = RuleConfig::default();
        let union = rules_for_targets(&Target::ALL, &config);
        let mut names: Vec<_> = union.iter().map(|r| r.name().to_string()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "union ruleset has duplicate names");
        // The union contains every single-target rule…
        for target in Target::ALL {
            for rule in rules_for(target, &config) {
                assert!(
                    union.iter().any(|r| r.name() == rule.name()),
                    "union is missing {}",
                    rule.name()
                );
            }
        }
        // …and nothing else: shared idioms are counted once.
        let blas = rules_for(Target::Blas, &config).len();
        let torch_only = torch_rules()
            .iter()
            .filter(|t| blas_rules().iter().all(|b| b.name() != t.name()))
            .count();
        assert_eq!(union.len(), blas + torch_only);
    }
}
