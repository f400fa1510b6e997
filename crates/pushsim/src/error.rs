//! Error type for the simulator.

use std::error::Error;
use std::fmt;

/// Errors produced when configuring or driving a [`Network`](crate::Network).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The network must contain at least two agents.
    TooFewNodes {
        /// The number of agents requested.
        found: usize,
    },
    /// The system must have at least two opinions.
    TooFewOpinions {
        /// The number of opinions requested.
        found: usize,
    },
    /// A node index is out of range.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes in the network.
        num_nodes: usize,
    },
    /// An opinion index is out of range for the configured `k`.
    OpinionOutOfRange {
        /// The offending opinion index.
        opinion: usize,
        /// The number of opinions of the system.
        num_opinions: usize,
    },
    /// The noise matrix dimension does not match the configured number of
    /// opinions.
    NoiseDimensionMismatch {
        /// Number of opinions the simulation was configured with.
        expected: usize,
        /// Dimension of the supplied noise matrix.
        found: usize,
    },
    /// More initial opinions were requested than there are nodes.
    TooManyInitialOpinions {
        /// Number of opinionated nodes requested.
        requested: usize,
        /// Number of nodes available.
        num_nodes: usize,
    },
    /// A topology could not be built for the requested parameters (e.g. a
    /// torus over a non-square node count, an infeasible regular degree).
    InvalidTopology {
        /// What made the parameters infeasible.
        reason: String,
    },
    /// The requested topology is not supported in this configuration:
    /// deferred delivery (processes B and P) and the count-based backend
    /// are complete-graph-only.
    UnsupportedTopology {
        /// The offending topology's label.
        topology: String,
        /// Which topology-restricted feature was combined with it.
        context: String,
    },
    /// A fault spec's parameters are infeasible (a probability outside
    /// `[0, 1]`, a Byzantine opinion `>= k`, faulty fractions summing past
    /// the whole population).
    InvalidFault {
        /// What made the parameters infeasible.
        reason: String,
    },
    /// The requested fault spec is not supported in this configuration:
    /// fault injection is complete-graph-only and delayed delivery is
    /// agent-backend-only.
    UnsupportedFault {
        /// The offending fault spec's label.
        fault: String,
        /// Which feature it was combined with.
        context: String,
    },
    /// A temporal spec's parameters are infeasible (a rate outside its
    /// range, a scheduled ε outside the uniform family's domain, a
    /// zero-length burst window, an adversarial join opinion `>= k`).
    InvalidTemporal {
        /// What made the parameters infeasible.
        reason: String,
    },
    /// The requested temporal feature is not supported in this
    /// configuration: population churn is complete-graph-only and does
    /// not compose with crash/Byzantine/delay faults, edge churn
    /// (`rewire`) needs a re-sampleable randomized topology on the agent
    /// backend, and clock skew needs the agent backend (see
    /// [`TemporalCapability`](crate::TemporalCapability)).
    UnsupportedTemporal {
        /// The offending temporal feature's label.
        feature: String,
        /// Which configuration it was combined with.
        context: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TooFewNodes { found } => {
                write!(f, "network needs at least 2 nodes, got {found}")
            }
            SimError::TooFewOpinions { found } => {
                write!(f, "system needs at least 2 opinions, got {found}")
            }
            SimError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} is out of range for a {num_nodes}-node network")
            }
            SimError::OpinionOutOfRange {
                opinion,
                num_opinions,
            } => write!(
                f,
                "opinion {opinion} is out of range for a system with {num_opinions} opinions"
            ),
            SimError::NoiseDimensionMismatch { expected, found } => write!(
                f,
                "noise matrix is over {found} opinions but the simulation uses {expected}"
            ),
            SimError::TooManyInitialOpinions {
                requested,
                num_nodes,
            } => write!(
                f,
                "requested {requested} initially opinionated nodes but the network has {num_nodes}"
            ),
            SimError::InvalidTopology { reason } => {
                write!(f, "invalid topology: {reason}")
            }
            SimError::UnsupportedTopology { topology, context } => write!(
                f,
                "topology {topology} is not supported by {context} \
                 (non-complete topologies run on the agent backend with exact delivery)"
            ),
            SimError::InvalidFault { reason } => {
                write!(f, "invalid fault spec: {reason}")
            }
            SimError::UnsupportedFault { fault, context } => write!(
                f,
                "fault spec {fault} is not supported by {context} \
                 (faults are complete-graph-only; delayed delivery needs the agent backend)"
            ),
            SimError::InvalidTemporal { reason } => {
                write!(f, "invalid temporal spec: {reason}")
            }
            SimError::UnsupportedTemporal { feature, context } => write!(
                f,
                "{feature} is not supported by {context} \
                 (population churn is complete-graph-only and excludes crash/byz/delay faults; \
                 edge churn and clock skew need the agent backend)"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(SimError::TooFewNodes { found: 1 }.to_string().contains("2 nodes"));
        assert!(SimError::TooManyInitialOpinions {
            requested: 5,
            num_nodes: 3
        }
        .to_string()
        .contains('5'));
        assert!(SimError::NoiseDimensionMismatch {
            expected: 3,
            found: 2
        }
        .to_string()
        .contains('3'));
    }

    #[test]
    fn is_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<SimError>();
    }
}
