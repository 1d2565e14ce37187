//! # labchip-manipulation
//!
//! Cell-manipulation layer of the `labchip` workspace: the software that
//! turns "move this cell there" into sequences of electrode patterns.
//!
//! The DATE'05 paper's chip creates a DEP cage above each counter-phase
//! electrode and moves a cage — with its trapped cell — by shifting the
//! voltage pattern one electrode at a time (§1). At the scale of tens of
//! thousands of simultaneous cages the interesting problems are software
//! problems: route many cells concurrently without letting their cages merge,
//! sequence merge/split/isolate operations, and schedule whole assay
//! protocols. This crate provides:
//!
//! * the [`cage`] grid tracking which electrode hosts which particle,
//! * the unified [`state`] model ([`state::ChipState`]): the cage grid plus
//!   its cached derivations (electrode pattern, ground-truth occupancy),
//!   the plan map and the per-phase time ledger — one chip-state owner
//!   shared by simulator, router, scanner and driver,
//! * the event-sourced [`journal`]: every state mutation recorded as a
//!   typed event at the `ChipState` choke points, with bit-identical
//!   replay, journal diffing and seeded fault injection,
//! * the sharded [`fleet`]: one logical array decomposed over many
//!   `ChipState`s with halo margins and a typed cross-shard handoff
//!   event family, composing back to the monolithic state bit-for-bit,
//! * conflict-free multi-particle [`routing`] (space–time A* with reservation
//!   tables, plus a greedy baseline),
//! * the incremental [`sharding`] planner that scales routing to the full
//!   array — windowed planning over a staggered tile partition, parallel
//!   across shards, with warm-start plan caching keyed by shard content
//!   hashes (a key covers the shard's whole planning input, so callers
//!   never report what changed),
//! * high-level [`ops`] (move, merge, isolate, wash) as journaled
//!   functions over [`state::ChipState`],
//! * throughput [`metrics`].
//!
//! ## Example: route a crossing pair conflict-free
//!
//! ```
//! use labchip_manipulation::prelude::*;
//! use labchip_units::{GridCoord, GridDims};
//!
//! let problem = RoutingProblem::new(
//!     GridDims::square(16),
//!     vec![
//!         RoutingRequest { id: ParticleId(1), start: GridCoord::new(1, 8), goal: GridCoord::new(14, 8) },
//!         RoutingRequest { id: ParticleId(2), start: GridCoord::new(14, 8), goal: GridCoord::new(1, 8) },
//!     ],
//! );
//! let outcome = Router::new(RoutingStrategy::PrioritizedAStar).solve(&problem)?;
//! assert!(outcome.unrouted.is_empty());
//! assert!(outcome.is_conflict_free(problem.min_separation));
//! # Ok::<(), labchip_manipulation::ManipulationError>(())
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cage;
pub mod error;
pub mod fleet;
pub mod journal;
pub mod metrics;
pub mod ops;
pub mod routing;
pub mod sharding;
pub mod state;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::cage::{CageGrid, ParticleId};
    pub use crate::error::ManipulationError;
    pub use crate::fleet::{FleetGridError, FleetOutcome, FleetStats, FleetTopology};
    pub use crate::journal::{Event, FaultPlan, Journal};
    pub use crate::metrics::{SustainedThroughput, ThroughputReport};
    pub use crate::routing::{
        Router, RoutingOutcome, RoutingProblem, RoutingRequest, RoutingStrategy,
    };
    pub use crate::sharding::{CacheStats, IncrementalRouter, RouterCache, ShardConfig};
    pub use crate::state::{ChipState, TimeBreakdown, TimeLedger};
}

pub use error::ManipulationError;
