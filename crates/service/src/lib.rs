//! # oocq-service
//!
//! A concurrent containment/minimization service over the `oocq` engine:
//! the `oocq-serve` daemon, its line-delimited protocol, named schema
//! sessions, a worker pool that reuses the branch engine, and a shared
//! canonical-form decision cache ([`CanonicalDecisionCache`]) that
//! memoizes containment verdicts up to query isomorphism (Theorem 4.5
//! makes isomorphism the right equivalence to key on).
//!
//! Layering: this crate sits above `oocq-core` (which exposes the
//! [`oocq_core::DecisionCache`] hook the cache plugs into) and below the
//! root `oocq` crate (whose workbench delegates to [`run_program_with`]).
//!
//! Determinism contract: for a fixed request stream, the response stream
//! is byte-identical across worker-pool sizes and cache states (stats
//! suffixes excluded — they carry wall times). The corpus replay tests in
//! `tests/` pin this.

// `deny` rather than `forbid`: the reactor's readiness polling ([`poll`])
// carries the crate's single `#[allow(unsafe_code)]` island — FFI
// declarations for epoll (plus the one-line `flock` shim the persistent
// cache's directory lock rides on) against the C library `std` already
// links. Everything else stays checked.
#![deny(unsafe_code)]

mod cache;
mod conn;
mod engine;
mod flight;
mod persist;
pub mod poll;
mod protocol;
#[cfg(target_os = "linux")]
pub mod reactor;
mod runner;
mod server;
mod verbs;

pub use cache::{
    CacheStats, CanonicalDecisionCache, PersistStats, DEFAULT_CAPACITY, DEFAULT_DISK_CAPACITY,
    SHARD_COUNT,
};
pub use conn::IN_CAP;
pub use engine::{ServiceEngine, Session, DEFAULT_MAX_CONNS};
pub use flight::{FlightKey, FlightStats, JoinOutcome, Singleflight};
pub use protocol::{escape, parse_request, render_response, unescape, Request, RequestStats};
pub use runner::{run_program_with, run_workbench_with, RunError};
pub use server::{accept_loop, daemon_main, serve};
