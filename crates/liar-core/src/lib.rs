//! LIAR proper: Latent Idiom Array Rewriting (paper §III–§V).
//!
//! This crate assembles the reproduction's moving parts into the workflow of
//! the paper's fig. 2:
//!
//! 1. a kernel written in the minimalist IR is converted into an e-graph;
//! 2. equality saturation applies the **language-semantics rules**
//!    ([`rules::core_rules`], listing 2), the **scalar rules**
//!    ([`rules::scalar_rules`], listing 3), and the **target idiom rules**
//!    ([`rules::blas_rules`] / [`rules::torch_rules`], listings 4–5);
//! 3. after every saturation step a **target cost model**
//!    ([`cost::TargetCost`], listings 6–8) extracts the best expression,
//!    which now exposes library calls.
//!
//! The entry point is [`Liar`]:
//!
//! ```
//! use liar_core::{Liar, Target};
//! use liar_ir::dsl;
//!
//! // Vector sum: ifold n 0 (λ λ xs[•1] + •0) — contains a latent dot.
//! let vsum = dsl::vsum(64, dsl::sym("xs"));
//! let report = Liar::new(Target::Blas).with_iter_limit(6).optimize(&vsum);
//! let best = report.best();
//! // LIAR discovers sum(v) = dot(v, fill(1)):
//! assert_eq!(best.lib_calls.get("dot"), Some(&1));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod cost;
pub mod fingerprint;
pub mod inspect;
pub mod pipeline;
pub mod profile;
pub mod rules;
pub mod store;

pub use cache::{CacheStats, SaturationCache};
pub use cost::TargetCost;
pub use fingerprint::{BudgetKnobs, Fingerprint};
pub use inspect::{InspectReport, OpRow, RuleRow};
pub use pipeline::{
    CacheStatus, Liar, MultiReport, MultiSolution, OptimizationReport, OptimizeError,
    SaturationStep, StepReport,
};
pub use store::SnapshotStore;
pub use profile::MachineProfile;
pub use rules::{RuleConfig, Target};
