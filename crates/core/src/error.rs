//! Error type for the core bounds library.

use std::error::Error;
use std::fmt;

/// Errors produced by bound computations and verification.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// An underlying graph-layer error.
    Graph(ksa_graphs::GraphError),
    /// An underlying topology-layer error.
    Topology(ksa_topology::TopologyError),
    /// An underlying model-layer error.
    Model(ksa_models::ModelError),
    /// A bound was requested that only applies to simple (single-generator)
    /// closed-above models.
    NotSimple,
    /// A parameter outside its documented domain.
    BadParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: usize,
        /// Human-readable domain.
        domain: &'static str,
    },
    /// An exhaustive procedure would exceed its explicit budget.
    Budget(ksa_graphs::budget::BudgetExceeded),
    /// The computation's [`CancelToken`](ksa_graphs::cancel::CancelToken)
    /// was cancelled before it finished.
    Cancelled,
    /// The computation ran past its [`Deadline`](ksa_graphs::cancel::Deadline).
    DeadlineExceeded,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::Topology(e) => write!(f, "topology error: {e}"),
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::NotSimple => {
                write!(f, "this bound applies only to simple closed-above models")
            }
            CoreError::BadParameter {
                name,
                value,
                domain,
            } => write!(f, "parameter {name} = {value} outside {domain}"),
            CoreError::Budget(e) => write!(f, "budget error: {e}"),
            CoreError::Cancelled => write!(f, "the operation was cancelled"),
            CoreError::DeadlineExceeded => {
                write!(f, "the operation ran past its deadline")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Graph(e) => Some(e),
            CoreError::Topology(e) => Some(e),
            CoreError::Model(e) => Some(e),
            CoreError::Budget(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ksa_graphs::GraphError> for CoreError {
    fn from(e: ksa_graphs::GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<ksa_topology::TopologyError> for CoreError {
    fn from(e: ksa_topology::TopologyError) -> Self {
        // Interruptions keep their identity across the layer boundary so
        // callers match one pair of variants no matter which stage of the
        // pipeline observed the fired token.
        match e {
            ksa_topology::TopologyError::Cancelled => CoreError::Cancelled,
            ksa_topology::TopologyError::DeadlineExceeded => CoreError::DeadlineExceeded,
            other => CoreError::Topology(other),
        }
    }
}

impl From<ksa_models::ModelError> for CoreError {
    fn from(e: ksa_models::ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<ksa_graphs::budget::BudgetExceeded> for CoreError {
    fn from(e: ksa_graphs::budget::BudgetExceeded) -> Self {
        CoreError::Budget(e)
    }
}

impl From<ksa_graphs::cancel::Interrupted> for CoreError {
    fn from(i: ksa_graphs::cancel::Interrupted) -> Self {
        match i {
            ksa_graphs::cancel::Interrupted::Cancelled => CoreError::Cancelled,
            ksa_graphs::cancel::Interrupted::DeadlineExceeded => CoreError::DeadlineExceeded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let errs: Vec<CoreError> = vec![
            ksa_graphs::GraphError::EmptyProcessSet.into(),
            ksa_topology::TopologyError::NotPure.into(),
            ksa_models::ModelError::BadParameter {
                name: "s",
                value: 0,
                domain: "[1, n]",
            }
            .into(),
            CoreError::NotSimple,
            CoreError::Cancelled,
            CoreError::DeadlineExceeded,
        ];
        for e in &errs {
            assert!(!e.to_string().is_empty());
        }
        assert!(errs[0].source().is_some());
        assert!(errs[3].source().is_none());
    }

    #[test]
    fn interrupted_maps_to_dedicated_variants() {
        use ksa_graphs::cancel::Interrupted;
        assert_eq!(
            CoreError::from(Interrupted::Cancelled),
            CoreError::Cancelled
        );
        assert_eq!(
            CoreError::from(Interrupted::DeadlineExceeded),
            CoreError::DeadlineExceeded
        );
    }
}
