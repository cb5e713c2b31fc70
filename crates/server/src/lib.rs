//! # betalike-server
//!
//! A resident publish-and-query service over the BUREL pipeline: the
//! missing layer between "a library every consumer relinks" and the
//! paper's actual end product — a *published* table that downstream
//! analysts query with `COUNT(*)` workloads (Sections 5–6).
//!
//! The server holds a [`registry::Registry`] of generator-backed datasets
//! and a content-addressed cache of [`artifact::Artifact`]s: one publish
//! request (dataset × scheme × parameters) is computed once — partition,
//! per-EC query view, Hilbert keys, perturbation plan — and then served to
//! any number of concurrent clients over a newline-delimited JSON TCP
//! protocol ([`wire`]). Because every generator and algorithm in the
//! workspace is seeded and thread-count invariant, a served answer is
//! bit-identical to the same computation done in process; the integration
//! tests and the CI `server-smoke` step assert exactly that.
//!
//! ```text
//! betalike-serve --addr 127.0.0.1:7878 --threads 8 --preload census:10000:42
//! betalike-client --addr 127.0.0.1:7878 smoke
//! ```
//!
//! With `--data-dir DIR` the server is *durable*: fresh publishes are
//! written through to a checksummed on-disk store (`betalike-store`
//! crate) and a restarted server lazily loads previously published
//! handles, answering `count`/`audit` for them bit-identically with zero
//! pipeline recomputation (see [`persist`]).
//!
//! See `DESIGN.md` §8–§9 for the architecture and the README "Serving" /
//! "Durable publications" quickstarts for worked sessions.

// Backstops betalike-lint rule P2: stronger than the workspace-level
// `unsafe_code = "deny"` because `forbid` cannot be overridden locally.
#![forbid(unsafe_code)]
// Backstops betalike-lint rule P1 (request/decode paths are panic-free)
// with rustc's own machinery; test code is exempt, matching P1's scope.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod artifact;
pub mod client;
pub mod conn;
pub(crate) mod obs;
pub mod persist;
pub mod registry;
pub(crate) mod result_cache;
pub mod server;
pub mod wire;

pub use client::{retry_call, with_retries, Client, ClientError, CountReply, PublishReply};
pub use conn::{Conn, FramedRequest, DEFAULT_MAX_LINE_BYTES};
pub use registry::{Dataset, DatasetSpec, Registry, MAX_DATASET_ROWS};
pub use server::{serve, LocalServer, ServerConfig, ServerHandle};
pub use wire::{Algo, CountRequest, PublishRequest};
