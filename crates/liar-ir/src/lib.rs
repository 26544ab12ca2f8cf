//! LIAR's minimalist functional array IR (paper §IV).
//!
//! The IR has four classes of primitives (fig. 3 of the paper):
//!
//! * λ-calculus with De Bruijn indices: [`ArrayLang::Lam`], [`ArrayLang::App`],
//!   [`ArrayLang::Var`] (written `%i` in the textual syntax, `•i` in the
//!   paper);
//! * three fundamental array operations: [`ArrayLang::Build`],
//!   [`ArrayLang::Get`] (indexing) and [`ArrayLang::IFold`];
//! * binary tuples: [`ArrayLang::Tuple`], [`ArrayLang::Fst`], [`ArrayLang::Snd`];
//! * named function calls: scalar arithmetic ([`ArrayLang::Add`] …) and
//!   library calls ([`ArrayLang::Call`] with a [`LibFn`]).
//!
//! Array extents are compile-time constants carried as [`ArrayLang::Dim`]
//! leaves (`#n`), so rewrite rules can bind and move them like any other
//! child and cost models can read `N`, `M`, `K` without a type system.
//!
//! Terms are [`liar_egraph::RecExpr`]s over [`ArrayLang`]; the [`debruijn`]
//! module implements the shift (`↑`) and substitution operators of §IV.B.3,
//! and [`analysis::ArrayAnalysis`] makes the IR binder-aware inside e-graphs
//! (free-variable tracking + the downshift extraction that shift patterns
//! like `A↑↑` need).
//!
//! # Example
//!
//! ```
//! use liar_ir::{Expr, dsl};
//!
//! // Vector sum: ifold n 0 (λ λ xs[•1] + •0)
//! let n = 16;
//! let vsum: Expr = dsl::ifold(
//!     n,
//!     dsl::num(0.0),
//!     dsl::lam(dsl::lam(dsl::add(
//!         dsl::get(dsl::sym("xs"), dsl::var(1)),
//!         dsl::var(0),
//!     ))),
//! );
//! assert_eq!(
//!     vsum.to_string(),
//!     "(ifold #16 0 (lam (lam (+ (get xs %1) %0))))"
//! );
//! let parsed: Expr = vsum.to_string().parse().unwrap();
//! assert_eq!(parsed, vsum);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod analysis;
pub mod debruijn;
pub mod dsl;
pub mod fingerprint;
mod lang;

pub use analysis::{ArrayAnalysis, ClassData, Repr};
pub use debruijn::VarSet;
pub use fingerprint::{ContentAddressed, ContentHash, StableHasher};
pub use lang::{ArrayLang, LibFn, Num};
/// The workspace's seeded generator, for crates that build on the IR
/// without the e-graph engine (kernel input data).
pub use liar_egraph::SplitMix64;

/// A term of the array IR.
pub type Expr = liar_egraph::RecExpr<ArrayLang>;

/// An e-graph over the array IR with the standard analysis.
pub type ArrayEGraph = liar_egraph::EGraph<ArrayLang, ArrayAnalysis>;

/// A pattern over the array IR.
pub type ArrayPattern = liar_egraph::Pattern<ArrayLang>;

/// A rewrite rule over the array IR.
pub type ArrayRewrite = liar_egraph::Rewrite<ArrayLang, ArrayAnalysis>;

/// A replayable proof over the array IR (see [`liar_egraph::explain`]).
pub type ArrayExplanation = liar_egraph::Explanation<ArrayLang>;
