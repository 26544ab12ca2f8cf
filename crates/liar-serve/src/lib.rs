//! `liar-serve`: the batched optimization service.
//!
//! The paper frames idiom recognition as a compiler service — programs
//! come in, library-lifted solutions come out. This crate is that
//! service: a std-only daemon that accepts IR programs over a
//! length-prefixed JSON protocol ([`protocol`]), runs them through the
//! `liar-core` pipeline on a worker pool, and amortizes the dominant
//! cost (saturation) across requests with a **content-addressed cache**
//! ([`liar_core::SaturationCache`], keyed by
//! [`liar_core::Fingerprint`]) plus **single-flight coalescing** of
//! identical in-flight requests ([`server`]).
//!
//! See `docs/SERVING.md` for the protocol specification, cache
//! semantics and the [`ServerConfig`] settings; the `liar serve` /
//! `liar submit` / `liar stats` CLI subcommands and the
//! `cargo bench -p liar-bench --bench serve` loopback benchmark are
//! built on this crate. With [`ServerConfig::warm_dir`] set, saturated
//! e-graphs also persist to a durable snapshot store, so a restarted
//! daemon answers repeats `"cache":"warm"` without saturating.
//!
//! # In-process quickstart
//!
//! ```
//! use liar_serve::{Client, OptimizeRequest, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! let mut req = OptimizeRequest::new("(ifold #16 0 (lam (lam (+ (get xs %1) %0))))");
//! req.targets = vec!["blas".into()];
//! req.steps = Some(6);
//! let first = client.optimize(req.clone()).unwrap();
//! assert_eq!(first.cache, "miss");
//! assert_eq!(first.solutions[0].solution, "1 × dot");
//!
//! // The same request (same fingerprint) replays from the cache.
//! let again = client.optimize(req).unwrap();
//! assert_eq!(again.cache, "hit");
//! assert_eq!(again.solutions, first.solutions);
//!
//! server.shutdown();
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod client;
pub mod json;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{
    ErrorCode, IntrospectResponse, MetricsResponse, OptimizeRequest, OptimizeResponse, ProofMsg,
    ProofStepMsg, Request, Response, SolutionMsg, StatsResponse,
};
pub use server::{Server, ServerConfig};
