//! The cancel-token path `perfbench` imports; use
//! [`ksa_graphs::cancel`] directly everywhere else.

pub use ksa_graphs::cancel::CancelToken;
