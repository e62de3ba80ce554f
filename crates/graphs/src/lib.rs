//! # ksa-graphs
//!
//! The graph substrate for the reproduction of *"K-set agreement bounds in
//! round-based models through combinatorial topology"* (Shimi & Castañeda,
//! PODC 2020).
//!
//! The paper studies round-based message-passing models where the
//! communication pattern of each round is a **directed graph** on the process
//! set `Π = {p1, …, pn}`: an edge `u → v` means "`v` receives the message
//! sent by `u` this round". Every process always hears from itself, so all
//! graphs in this crate carry **all self-loops** by construction.
//!
//! On top of the [`Digraph`] type, this crate implements every combinatorial
//! number the paper's bounds are stated in:
//!
//! * [`domination_number`](domination::domination_number) — `γ(G)`, Def 3.1;
//! * [`equal_domination_number`](equal_domination::equal_domination_number)
//!   — `γ_eq(G)` / `γ_eq(S)`, Def 3.3;
//! * [`covering_number`](covering::covering_number) — `cov_i(G)` /
//!   `cov_i(S)`, Def 3.6;
//! * [`distributed_domination_number`](dist_domination::distributed_domination_number)
//!   — `γ_dist(S)`, Def 5.2;
//! * [`max_covering_number`](max_covering::max_covering_number) and
//!   [`max_covering_coefficient`](max_covering::max_covering_coefficient) —
//!   `max-cov_i(S)` and `M_i(S)`, Def 5.3;
//! * [`covering_sequence`](sequences::covering_sequence) — Def 6.6 / 6.8;
//!
//! together with the structural operations the multi-round analysis needs:
//! the graph path product `G ⊗ H` ([`product`]), closure-above machinery
//! ([`closure`]), permutations and symmetric closures ([`perm`]), the graph
//! families used throughout the paper ([`families`]) and seeded random
//! generation ([`random`]).
//!
//! ## Quick example
//!
//! ```
//! use ksa_graphs::families;
//! use ksa_graphs::equal_domination::equal_domination_number;
//! use ksa_graphs::covering::covering_number;
//!
//! // A broadcast star on 4 processes centred at p0 (Def 6.12).
//! let star = families::broadcast_star(4, 0).unwrap();
//! // The centre only hears from itself, so γ_eq is n (§3.2 of the paper).
//! assert_eq!(equal_domination_number(&star), 4);
//! // With self-loops, any i leaves cover exactly themselves: cov_i = i.
//! assert_eq!(covering_number(&star, 2).unwrap(), 2);
//! ```

pub mod budget;
pub mod cancel;
pub mod closure;
pub mod covering;
pub mod ctx;
pub mod digraph;
pub mod dist_domination;
pub mod domination;
pub mod equal_domination;
pub mod error;
pub mod families;
pub mod max_covering;
pub(crate) mod par_util;
pub mod perm;
pub mod proc_set;
pub mod product;
pub mod random;
pub mod sequences;
pub mod universal_domination;

pub use digraph::Digraph;
pub use error::GraphError;
pub use proc_set::{ProcId, ProcSet, MAX_PROCS};
