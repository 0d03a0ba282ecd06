//! Multiprocessor platform model for distributed hard real-time scheduling.
//!
//! This crate models the *system architecture* of the paper (§5.1): a
//! homogeneous multiprocessor whose processors communicate over an
//! interconnection network. The headline configuration is 2–16 processors on
//! a time-multiplexed shared bus costing one time unit per transmitted data
//! item, with free intra-processor communication via shared memory, and
//! communication overlapping computation.
//!
//! It also models **locality constraints**: a [`Pinning`] records the subset
//! of subtasks whose processor assignment is fixed in advance (strict
//! constraints, e.g. tasks tied to sensors or actuators). Under *relaxed*
//! locality constraints — the paper's setting — most subtasks are unpinned.
//!
//! # Examples
//!
//! ```
//! use platform::{Platform, ProcessorId, Topology};
//!
//! # fn main() -> Result<(), platform::PlatformError> {
//! let platform = Platform::homogeneous(4, Topology::paper_bus())?;
//! let cost = platform.comm_cost(ProcessorId::new(0), ProcessorId::new(2), 20)?;
//! assert_eq!(cost.as_i64(), 20); // 1 unit per item on the bus
//! let local = platform.comm_cost(ProcessorId::new(1), ProcessorId::new(1), 20)?;
//! assert!(local.is_zero()); // shared memory
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod error;
mod pinning;
mod topology;

use std::fmt;

use serde::{Deserialize, Serialize};
use taskgraph::Time;

pub use error::PlatformError;
pub use pinning::Pinning;
pub use topology::Topology;

/// Identifier of a processor within one [`Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ProcessorId(u32);

impl ProcessorId {
    /// Creates an id from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        ProcessorId(index)
    }

    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A homogeneous multiprocessor with an interconnection network.
///
/// Construct with [`Platform::homogeneous`]; the processor count must be
/// compatible with the topology (e.g. mesh dimensions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    processors: usize,
    topology: Topology,
}

impl Platform {
    /// Creates a platform of `processors` identical processors connected by
    /// `topology`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoProcessors`] for a zero-processor
    /// platform, [`PlatformError::TopologyMismatch`] if the topology cannot
    /// host the requested processor count and
    /// [`PlatformError::NegativeCost`] if its per-item cost is negative
    /// (zero is valid: free communication).
    pub fn homogeneous(processors: usize, topology: Topology) -> Result<Self, PlatformError> {
        if processors == 0 {
            return Err(PlatformError::NoProcessors);
        }
        // A negative cost would deliver messages before they are sent,
        // which the scheduler's data-ready floor rules out.
        let cost = topology.cost_per_item_hop();
        if cost.is_negative() {
            return Err(PlatformError::NegativeCost(cost));
        }
        // Validate topology/size compatibility once, up front.
        topology.worst_case_cost_per_item(processors)?;
        Ok(Platform {
            processors,
            topology,
        })
    }

    /// The paper's platform: `processors` on a shared bus at one time unit
    /// per data item.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoProcessors`] if `processors` is zero.
    pub fn paper(processors: usize) -> Result<Self, PlatformError> {
        Platform::homogeneous(processors, Topology::paper_bus())
    }

    /// Number of processors.
    #[inline]
    pub fn processor_count(&self) -> usize {
        self.processors
    }

    /// Iterates over all processor ids.
    pub fn processors(&self) -> impl ExactSizeIterator<Item = ProcessorId> + '_ {
        (0..self.processors as u32).map(ProcessorId::new)
    }

    /// The interconnection topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Cost of transferring `items` data items from `from` to `to`.
    ///
    /// Zero when `from == to` (shared memory); otherwise
    /// `hops × cost_per_item_hop × items`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownProcessor`] if either processor id is
    /// out of range.
    pub fn comm_cost(
        &self,
        from: ProcessorId,
        to: ProcessorId,
        items: u64,
    ) -> Result<Time, PlatformError> {
        let hops = self.topology.hops(self.processors, from, to)?;
        Ok(self.topology.cost_per_item_hop() * (i64::from(hops) * items as i64))
    }

    /// The worst-case cost per data item between any two distinct
    /// processors. Used by the pessimistic CCAA estimation strategy.
    pub fn worst_case_cost_per_item(&self) -> Time {
        self.topology
            .worst_case_cost_per_item(self.processors)
            .expect("validated at construction")
    }

    /// Returns `true` if remote transfers share a single medium (a bus) and
    /// therefore contend with each other.
    pub fn has_shared_medium(&self) -> bool {
        self.topology.is_shared_medium()
    }

    /// Validates that `proc` belongs to this platform.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownProcessor`] otherwise.
    pub fn check_processor(&self, proc: ProcessorId) -> Result<(), PlatformError> {
        if proc.index() >= self.processors {
            return Err(PlatformError::UnknownProcessor(proc));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform() {
        let p = Platform::paper(8).unwrap();
        assert_eq!(p.processor_count(), 8);
        assert_eq!(p.processors().count(), 8);
        assert!(p.has_shared_medium());
        assert_eq!(p.worst_case_cost_per_item(), Time::new(1));
        assert_eq!(p.topology().label(), "shared-bus");
    }

    #[test]
    fn comm_cost_scales_with_items_and_hops() {
        let p = Platform::homogeneous(
            6,
            Topology::Ring {
                cost_per_item_hop: Time::new(2),
            },
        )
        .unwrap();
        let c = p
            .comm_cost(ProcessorId::new(0), ProcessorId::new(3), 10)
            .unwrap();
        assert_eq!(c, Time::new(60)); // 3 hops * 2/item/hop * 10 items
        let local = p
            .comm_cost(ProcessorId::new(2), ProcessorId::new(2), 10)
            .unwrap();
        assert_eq!(local, Time::ZERO);
    }

    #[test]
    fn zero_processors_rejected() {
        assert!(matches!(
            Platform::paper(0),
            Err(PlatformError::NoProcessors)
        ));
    }

    #[test]
    fn incompatible_topology_rejected() {
        let topo = Topology::Mesh2D {
            width: 3,
            height: 3,
            cost_per_item_hop: Time::new(1),
        };
        assert!(matches!(
            Platform::homogeneous(8, topo),
            Err(PlatformError::TopologyMismatch { .. })
        ));
    }

    #[test]
    fn negative_cost_rejected_zero_cost_accepted() {
        let negative = [
            Topology::SharedBus {
                cost_per_item: Time::new(-1),
            },
            Topology::FullyConnected {
                cost_per_item: Time::new(-1),
            },
            Topology::Ring {
                cost_per_item_hop: Time::new(-3),
            },
            Topology::Mesh2D {
                width: 2,
                height: 2,
                cost_per_item_hop: Time::new(-1),
            },
            Topology::Custom {
                hops: vec![1; 16],
                cost_per_item_hop: Time::new(-1),
            },
        ];
        for topo in negative {
            let cost = topo.cost_per_item_hop();
            assert_eq!(
                Platform::homogeneous(4, topo),
                Err(PlatformError::NegativeCost(cost))
            );
        }
        let free = Platform::homogeneous(
            4,
            Topology::SharedBus {
                cost_per_item: Time::ZERO,
            },
        )
        .unwrap();
        let cost = free
            .comm_cost(ProcessorId::new(0), ProcessorId::new(3), 10)
            .unwrap();
        assert_eq!(cost, Time::ZERO);
    }

    #[test]
    fn check_processor_bounds() {
        let p = Platform::paper(2).unwrap();
        assert!(p.check_processor(ProcessorId::new(1)).is_ok());
        assert!(p.check_processor(ProcessorId::new(2)).is_err());
    }

    #[test]
    fn processor_id_display() {
        assert_eq!(ProcessorId::new(3).to_string(), "p3");
        assert_eq!(ProcessorId::new(3).index(), 3);
    }
}
