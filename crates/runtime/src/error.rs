//! Error type for the runtime.

use std::error::Error;
use std::fmt;

/// Errors produced by execution and checking.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// Input vector length does not match the process count.
    InputLengthMismatch {
        /// Provided inputs.
        inputs: usize,
        /// Expected process count.
        n: usize,
    },
    /// The adversary produced a graph on the wrong process set.
    AdversaryGraphMismatch {
        /// The round at which it happened.
        round: usize,
        /// The graph's process count.
        got: usize,
        /// Expected process count.
        n: usize,
    },
    /// An exhaustive exploration exceeded its explicit budget.
    TooLarge {
        /// What was being enumerated.
        what: &'static str,
        /// Estimated size.
        estimated: u128,
        /// The configured limit.
        limit: u128,
    },
    /// Zero rounds or zero values requested.
    BadParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: usize,
        /// Human-readable domain.
        domain: &'static str,
    },
    /// An underlying layer failed.
    Graph(ksa_graphs::GraphError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InputLengthMismatch { inputs, n } => {
                write!(f, "{inputs} inputs provided for {n} processes")
            }
            RuntimeError::AdversaryGraphMismatch { round, got, n } => write!(
                f,
                "adversary produced a graph on {got} processes at round {round}, expected {n}"
            ),
            RuntimeError::TooLarge {
                what,
                estimated,
                limit,
            } => write!(
                f,
                "{what} would explore about {estimated} cases, above the limit {limit}"
            ),
            RuntimeError::BadParameter {
                name,
                value,
                domain,
            } => write!(f, "parameter {name} = {value} outside {domain}"),
            RuntimeError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ksa_graphs::GraphError> for RuntimeError {
    fn from(e: ksa_graphs::GraphError) -> Self {
        RuntimeError::Graph(e)
    }
}

impl From<ksa_graphs::budget::BudgetExceeded> for RuntimeError {
    fn from(e: ksa_graphs::budget::BudgetExceeded) -> Self {
        RuntimeError::TooLarge {
            what: e.what,
            estimated: e.estimated,
            limit: e.limit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            RuntimeError::InputLengthMismatch { inputs: 2, n: 3 },
            RuntimeError::AdversaryGraphMismatch {
                round: 1,
                got: 2,
                n: 3,
            },
            RuntimeError::TooLarge {
                what: "checker",
                estimated: 1 << 40,
                limit: 1 << 20,
            },
            RuntimeError::BadParameter {
                name: "rounds",
                value: 0,
                domain: "[1, ∞)",
            },
            RuntimeError::Graph(ksa_graphs::GraphError::EmptyProcessSet),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
