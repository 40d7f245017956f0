//! Resident query serving for fuzzy-object kNN search.
//!
//! One-shot CLI queries pay dataset open, index build/open and cache
//! warm-up on every invocation; the paper's workloads (§6) — and the
//! roadmap's "serve heavy traffic" north star — want those costs paid
//! once. This crate keeps an index/store pair resident behind a compact
//! binary protocol:
//!
//! * [`protocol`] — the FZQP wire format: checksummed, versioned,
//!   length-prefixed frames (normative spec in `docs/PROTOCOL.md`).
//!   Decoding is total: corrupt input yields typed [`WireError`]s, never
//!   panics or unbounded allocation.
//! * [`server`] — the daemon: a listener, per-connection reader threads,
//!   a bounded admission queue that sheds load with BUSY, and a worker
//!   pool reusing one [`fuzzy_query::QueryScratch`] per worker. Requests
//!   carry deadlines enforced inside the traversals; SWAP publishes a new
//!   index epoch through [`fuzzy_query::Versioned`] without blocking
//!   readers.
//! * [`client`] — a small blocking client, used by `fkq` (`--server`,
//!   `swap`, `shutdown`), fkbench's `serve-mixed` workload and the tests.
//!
//! The answers a server returns are byte-identical to one-shot CLI runs
//! on the same index: responses carry bit-exact `f64`s and the same
//! exact/bounded distance knowledge, which the e2e suite verifies at 1, 2
//! and 8 concurrent connections with a live SWAP mid-run.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use protocol::{
    ErrorCode, QuerySource, RawFrame, Request, Response, WireError, WireStats, WireVariant,
};
pub use server::{serve, ListenAddr, ServeIndex, ServeOptions, ServerHandle};
