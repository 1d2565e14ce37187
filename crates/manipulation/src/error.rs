//! Error type for the manipulation crate.

use labchip_units::GridCoord;
use std::fmt;

/// Errors produced by the manipulation layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ManipulationError {
    /// A coordinate fell outside the cage grid.
    OutOfBounds {
        /// The offending coordinate.
        coord: GridCoord,
    },
    /// A cage that was expected to be free is occupied (or too close to
    /// another occupied cage).
    SiteConflict {
        /// The contested coordinate.
        coord: GridCoord,
        /// Explanation.
        reason: String,
    },
    /// A particle was named twice where each must appear once (two
    /// routing requests for one particle).
    DuplicateParticle {
        /// The repeated particle's identifier.
        id: u64,
    },
    /// A referenced particle does not exist.
    UnknownParticle {
        /// The missing particle's identifier.
        id: u64,
    },
    /// The router could not find a conflict-free solution.
    RoutingFailed {
        /// How many particles could not be routed.
        unrouted: usize,
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for ManipulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManipulationError::OutOfBounds { coord } => {
                write!(f, "coordinate {coord} outside the cage grid")
            }
            ManipulationError::SiteConflict { coord, reason } => {
                write!(f, "site conflict at {coord}: {reason}")
            }
            ManipulationError::DuplicateParticle { id } => {
                write!(f, "particle #{id} is requested twice")
            }
            ManipulationError::UnknownParticle { id } => write!(f, "unknown particle #{id}"),
            ManipulationError::RoutingFailed { unrouted, reason } => {
                write!(f, "routing failed for {unrouted} particle(s): {reason}")
            }
        }
    }
}

impl std::error::Error for ManipulationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ManipulationError::OutOfBounds {
            coord: GridCoord::new(9, 9)
        }
        .to_string()
        .contains("(9, 9)"));
        assert!(ManipulationError::UnknownParticle { id: 7 }
            .to_string()
            .contains("#7"));
        assert!(ManipulationError::DuplicateParticle { id: 4 }
            .to_string()
            .contains("#4"));
        assert!(ManipulationError::RoutingFailed {
            unrouted: 3,
            reason: "horizon exceeded".into()
        }
        .to_string()
        .contains("3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ManipulationError>();
    }
}
