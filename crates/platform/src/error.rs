//! Error types for platform construction and queries.

use std::error::Error;
use std::fmt;

use taskgraph::{SubtaskId, Time};

use crate::ProcessorId;

/// Error produced by [`Platform`] construction or queries.
///
/// [`Platform`]: crate::Platform
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlatformError {
    /// A platform must have at least one processor.
    NoProcessors,
    /// A processor id outside the platform was used.
    UnknownProcessor(ProcessorId),
    /// The topology cannot host the requested number of processors.
    TopologyMismatch {
        /// Topology label.
        topology: &'static str,
        /// Requested processor count.
        processors: usize,
    },
    /// A pinning refers to a subtask that is already pinned elsewhere.
    ConflictingPin(SubtaskId),
    /// The topology's per-item (per-hop) transfer cost is negative: a
    /// message would arrive before its producer finishes.
    NegativeCost(Time),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::NoProcessors => write!(f, "platform has no processors"),
            PlatformError::UnknownProcessor(p) => write!(f, "unknown processor {p}"),
            PlatformError::TopologyMismatch {
                topology,
                processors,
            } => write!(f, "topology {topology} cannot host {processors} processors"),
            PlatformError::ConflictingPin(t) => {
                write!(f, "subtask {t} is already pinned to a different processor")
            }
            PlatformError::NegativeCost(c) => {
                write!(f, "per-item transfer cost {c} is negative")
            }
        }
    }
}

impl Error for PlatformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(PlatformError::NoProcessors
            .to_string()
            .contains("no processors"));
        assert!(PlatformError::UnknownProcessor(ProcessorId::new(9))
            .to_string()
            .contains("p9"));
        let tm = PlatformError::TopologyMismatch {
            topology: "mesh-2d",
            processors: 7,
        };
        assert!(tm.to_string().contains("mesh-2d"));
        assert!(PlatformError::ConflictingPin(SubtaskId::new(1))
            .to_string()
            .contains("t1"));
        assert!(PlatformError::NegativeCost(Time::new(-2))
            .to_string()
            .contains("-2"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<PlatformError>();
    }
}
