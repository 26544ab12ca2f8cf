//! LIAR — Latent Idiom Array Rewriting.
//!
//! Facade crate re-exporting the whole reproduction of *“Latent Idiom
//! Recognition for a Minimalist Functional Array Language using Equality
//! Saturation”* (CGO 2024): write a numerical kernel as a plain functional
//! loop nest, and equality saturation discovers the BLAS or PyTorch
//! library calls latent inside it. See `README.md` for an overview and
//! `ARCHITECTURE.md` for how the crates fit together.
//!
//! The usual entry point is the [`core::Liar`] pipeline builder:
//!
//! ```
//! use liar::core::{Liar, Target};
//! use liar::ir::dsl;
//!
//! // A vector sum written as a fold — no `dot` anywhere in the input.
//! let vsum = dsl::vsum(64, dsl::sym("xs"));
//!
//! let report = Liar::new(Target::Blas)
//!     .with_iter_limit(6) // saturation steps
//!     .optimize(&vsum);
//!
//! // LIAR derives sum(v) = dot(v, fill(1)) by equational reasoning.
//! assert_eq!(report.best().solution_summary(), "1 × dot");
//! // Per-step solutions are recorded too (the paper's convergence plots).
//! assert_eq!(report.steps[0].step, 0);
//! ```
//!
//! The pieces, by module:
//!
//! * [`ir`] — the minimalist array IR ([`ir::ArrayLang`]) and its
//!   [`ir::dsl`] builders;
//! * [`egraph`] — the equality-saturation engine ([`egraph::EGraph`],
//!   [`egraph::Runner`], [`egraph::Rewrite`]);
//! * [`core`] — rule sets, cost models and the [`core::Liar`] driver;
//! * [`codegen`] — C emission for extracted expressions;
//! * [`runtime`] — the interpreter, optimized library kernels and the
//!   coverage-timing executor;
//! * [`kernels`] — the paper's 16 evaluation kernels;
//! * [`serve`] — the batched optimization daemon + client (`liar serve`
//!   / `liar submit`), with a content-addressed saturation cache
//!   ([`core::SaturationCache`]) keyed by request fingerprints
//!   ([`core::Fingerprint`]); see `docs/SERVING.md`;
//! * [`trace`] — the observability layer ([`trace::Recorder`],
//!   [`trace::Histogram`]): structured spans over saturation, extraction
//!   and serving, exportable as Chrome trace-event JSON or Prometheus
//!   text (`liar optimize --trace`, `liar profile`, `liar stats
//!   --prometheus`); see `docs/OBSERVABILITY.md`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use liar_codegen as codegen;
pub use liar_core as core;
pub use liar_egraph as egraph;
pub use liar_ir as ir;
pub use liar_kernels as kernels;
pub use liar_runtime as runtime;
pub use liar_serve as serve;
pub use liar_trace as trace;
