//! `ksa-server`: a fault-tolerant analysis service over a unix socket
//! (DESIGN.md §12).
//!
//! The service exposes the repo's long-running analyses — one-round
//! solvability k-sweeps and multi-round lower-bound cross-checks — over
//! a tiny length-prefixed JSON protocol, with:
//!
//! - **deadlines and cooperative cancellation** threaded through the
//!   whole compute pipeline as [`ksa_graphs::cancel::CancelToken`]s,
//! - a **crash-safe content-addressed response cache** (temp-write,
//!   atomic rename, checksum + quarantine on read),
//! - **panic isolation** per request, **overload shedding** on a
//!   bounded queue, and streamed progress events,
//! - optional **deterministic fault injection** (`--features faults`,
//!   driven by the `KSA_FAULTS` env var) for the robustness suite.
//!
//! Everything is hand-rolled on `std` — no new dependencies.

pub mod cache;
pub mod client;
pub mod framing;
pub mod protocol;
pub mod server;

/// The workspace's one JSON value, parser and serializer. It lives in
/// `ksa-obs` at the bottom of the stack; the re-export keeps the
/// `ksa_server::json` path.
pub use ksa_obs::json;
