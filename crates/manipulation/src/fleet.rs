//! Sharded chip fleets: one logical array decomposed over many
//! [`ChipState`]s with a typed cross-shard handoff protocol.
//!
//! The paper's CMOS array scales by tiling identical cage electronics; a
//! chip larger than one worker's memory or core budget should likewise be
//! simulatable as a *fleet* of shard states that together are
//! **bit-identical** to the monolithic run. This module provides the
//! state-layer half of that story:
//!
//! * [`FleetTopology`] — partitions a logical `dims` into a `gx × gy`
//!   grid of shard rectangles. Each shard owns its *core* rect and
//!   carries a halo (ghost) margin of `min_separation / 2` cells, so a
//!   shard's local coordinate frame has the same boundary context the
//!   staggered-tile planner assumes (see [`crate::sharding`]).
//! * [`project`] — the fleet as a pure function of the monolithic
//!   journal: every global event is folded into the shard that owns its
//!   cell, through the same [`ChipState`] choke points the monolithic
//!   chip uses, so each shard carries its own journal. A removal whose
//!   particle next lands in another shard within the same phase is
//!   journaled as a typed
//!   [`Event::HandoffExported`] / [`Event::HandoffImported`] pair
//!   ([`ChipState::export_particle`] / [`ChipState::import_particle`]),
//!   so every shard journal replays bit-for-bit through the ordinary
//!   [`replay`](crate::journal::replay) oracle, handoffs included.
//! * [`FleetOutcome::compose`] — folds the shard states back into one
//!   global [`ChipState`] whose grid, plan, ledger, [`PartialEq`] and
//!   [`ChipState::state_hash`] all match the monolithic run exactly; the
//!   equivalence check scenario E16 sweeps.
//!
//! The global run stays the only place motion is planned: the router
//! already tiles every window internally, so the fleet is one more view of
//! what the global journal says happened, never a second planner.

use crate::cage::ParticleId;
use crate::journal::{Event, Journal};
use crate::state::{ChipState, TimeLedger};
use labchip_units::{GridCoord, GridDims, GridRect};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Partition of a logical array into a `gx × gy` grid of shard
/// rectangles with halo (ghost) margins.
///
/// Shards are indexed row-major: shard `sy * gx + sx` owns the cells
/// with `x` in the `sx`-th column band and `y` in the `sy`-th row band.
/// Bands split the array as evenly as possible (`⌊i·cols/gx⌋`
/// boundaries). Every global cell has exactly one owner; the halo rect
/// extends a shard's core by `min_separation / 2` cells in each
/// direction (clipped to the array), giving the shard's local frame the
/// ghost margin a boundary-adjacent routing window needs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetTopology {
    dims: GridDims,
    min_separation: u32,
    grid: (u32, u32),
    halo: u32,
    /// `gx + 1` column-band boundaries (`x_bounds[i]..x_bounds[i+1]`).
    x_bounds: Vec<u32>,
    /// `gy + 1` row-band boundaries.
    y_bounds: Vec<u32>,
}

fn band_bounds(extent: u32, bands: u32) -> Vec<u32> {
    (0..=bands)
        .map(|i| ((u64::from(i) * u64::from(extent)) / u64::from(bands)) as u32)
        .collect()
}

impl FleetTopology {
    /// Creates a `grid_cols × grid_rows` shard topology over `dims`.
    ///
    /// # Panics
    ///
    /// Panics if either grid extent is zero or exceeds the matching array
    /// extent (a shard must own at least one column and one row).
    pub fn new(dims: GridDims, min_separation: u32, grid_cols: u32, grid_rows: u32) -> Self {
        assert!(
            grid_cols >= 1 && grid_rows >= 1,
            "fleet grid extents must be at least 1×1"
        );
        assert!(
            grid_cols <= dims.cols && grid_rows <= dims.rows,
            "fleet grid {grid_cols}×{grid_rows} exceeds array {}×{}",
            dims.cols,
            dims.rows
        );
        Self {
            dims,
            min_separation,
            grid: (grid_cols, grid_rows),
            halo: min_separation / 2,
            x_bounds: band_bounds(dims.cols, grid_cols),
            y_bounds: band_bounds(dims.rows, grid_rows),
        }
    }

    /// The logical (global) array dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// The minimum cage separation the fleet simulates under.
    pub fn min_separation(&self) -> u32 {
        self.min_separation
    }

    /// The shard grid as `(cols, rows)`.
    pub fn shard_grid(&self) -> (u32, u32) {
        self.grid
    }

    /// Number of shards (`gx · gy`).
    pub fn shard_count(&self) -> usize {
        (self.grid.0 * self.grid.1) as usize
    }

    /// The halo (ghost) margin in cells: `min_separation / 2`.
    pub fn halo(&self) -> u32 {
        self.halo
    }

    /// The core rectangle a shard owns (inclusive corners).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn core(&self, shard: usize) -> GridRect {
        let gx = self.grid.0 as usize;
        assert!(shard < self.shard_count(), "shard {shard} out of range");
        let (sx, sy) = (shard % gx, shard / gx);
        GridRect::new(
            GridCoord::new(self.x_bounds[sx], self.y_bounds[sy]),
            GridCoord::new(self.x_bounds[sx + 1] - 1, self.y_bounds[sy + 1] - 1),
        )
    }

    /// The shard's core expanded by the halo margin, clipped to the array
    /// — the rectangle the shard's local [`ChipState`] spans.
    pub fn halo_rect(&self, shard: usize) -> GridRect {
        let core = self.core(shard);
        GridRect::new(
            GridCoord::new(
                core.min.x.saturating_sub(self.halo),
                core.min.y.saturating_sub(self.halo),
            ),
            GridCoord::new(
                (core.max.x + self.halo).min(self.dims.cols - 1),
                (core.max.y + self.halo).min(self.dims.rows - 1),
            ),
        )
    }

    /// Dimensions of the shard's local frame (its halo rect).
    pub fn local_dims(&self, shard: usize) -> GridDims {
        let rect = self.halo_rect(shard);
        GridDims::new(rect.max.x - rect.min.x + 1, rect.max.y - rect.min.y + 1)
    }

    /// The shard owning a global coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `at` is outside the array.
    pub fn owner(&self, at: GridCoord) -> usize {
        assert!(
            at.x < self.dims.cols && at.y < self.dims.rows,
            "coordinate {at} outside array"
        );
        // partition_point over the upper boundaries: band i covers
        // x_bounds[i]..x_bounds[i+1].
        let sx = self.x_bounds[1..].partition_point(|&b| b <= at.x);
        let sy = self.y_bounds[1..].partition_point(|&b| b <= at.y);
        sy * self.grid.0 as usize + sx
    }

    /// Converts a global coordinate into a shard's local frame.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies outside the shard's halo rect.
    pub fn to_local(&self, shard: usize, at: GridCoord) -> GridCoord {
        let rect = self.halo_rect(shard);
        assert!(
            rect.contains(at),
            "coordinate {at} outside shard {shard} halo rect"
        );
        GridCoord::new(at.x - rect.min.x, at.y - rect.min.y)
    }

    /// Converts a shard-local coordinate back into the global frame.
    pub fn to_global(&self, shard: usize, local: GridCoord) -> GridCoord {
        let rect = self.halo_rect(shard);
        GridCoord::new(local.x + rect.min.x, local.y + rect.min.y)
    }
}

/// Handoff counters of a projected fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Cross-shard handoff exports journaled.
    pub exports: u64,
    /// Cross-shard handoff imports journaled.
    pub imports: u64,
    /// Phase boundaries (finished or aborted phases) every shard journaled.
    pub barriers: u64,
}

/// Projects a monolithic journal onto the shards of `topology`.
///
/// The global events are folded, in order, into one journaled
/// [`ChipState`] per shard:
///
/// * `Placed`, `PlacedMerged` and `Removed` go to the shard that owns the
///   cell, in that shard's local frame;
/// * `PlanReplaced` is split by owner — every shard journals its share of
///   the goals (possibly empty);
/// * `Charged` and the phase markers go to every shard, so each shard
///   carries the complete ledger and the same phase boundaries.
///
/// **Handoff rule.** A `Removed { id, from }` is journaled as
/// `HandoffExported { to_shard }` exactly when the next `Placed` of `id`
/// before the next `PhaseFinished`/`PhaseAborted` lands in another shard;
/// that placement becomes the matching `HandoffImported { from_shard }`.
/// In-shard moves, flushes, a particle re-placed only after a phase
/// boundary, and a removal whose next placement is a merge (an import
/// must land on a free cage) all journal a plain removal. So does a lift
/// whose phase aborted before the settle: no particle is left in flight.
///
/// # Panics
///
/// Panics if `global` is not the journal of a valid run over
/// `topology.dims()` (check it with [`replay`](crate::journal::replay)
/// first when it comes from outside the program).
pub fn project(global: &Journal, topology: &FleetTopology) -> FleetOutcome {
    let events = global.events();
    let destinations = handoff_destinations(events, topology);
    let sep = topology.min_separation().max(1);
    let mut shards: Vec<ChipState> = (0..topology.shard_count())
        .map(|s| {
            let mut state = ChipState::with_separation(topology.local_dims(s), sep);
            state.attach_journal();
            state
        })
        .collect();
    let mut stats = FleetStats::default();
    // Exported particles awaiting their import, keyed to the exporter.
    let mut in_transit: HashMap<ParticleId, usize> = HashMap::new();
    let localise = |at: GridCoord| {
        let shard = topology.owner(at);
        (shard, topology.to_local(shard, at))
    };
    const INVALID: &str = "a valid global journal projects onto its owning shards";
    for (position, event) in events.iter().enumerate() {
        match event {
            Event::PhaseStarted { index, name } => {
                for shard in &mut shards {
                    shard.note_phase_started(*index, name);
                }
            }
            Event::PhaseFinished { index } => {
                for shard in &mut shards {
                    shard.note_phase_finished(*index);
                }
                stats.barriers += 1;
            }
            Event::PhaseAborted { index, reason } => {
                for shard in &mut shards {
                    shard.note_phase_aborted(*index, reason);
                }
                stats.barriers += 1;
            }
            Event::Placed { id, at } | Event::HandoffImported { id, at, .. } => {
                let (shard, at) = localise(*at);
                match in_transit.remove(id) {
                    Some(from_shard) => {
                        stats.imports += 1;
                        shards[shard].import_particle(*id, at, from_shard)
                    }
                    None => shards[shard].place(*id, at),
                }
                .expect(INVALID);
            }
            Event::Removed { id, from } | Event::HandoffExported { id, from, .. } => {
                let (shard, _) = localise(*from);
                match destinations[position] {
                    Some(to_shard) if to_shard != shard => {
                        stats.exports += 1;
                        in_transit.insert(*id, shard);
                        shards[shard].export_particle(*id, to_shard)
                    }
                    _ => shards[shard].remove(*id),
                }
                .expect(INVALID);
            }
            Event::PlacedMerged { id, at } => {
                let (shard, at) = localise(*at);
                shards[shard].place_merged(*id, at);
            }
            Event::PlanReplaced { goals } => {
                for (s, shard) in shards.iter_mut().enumerate() {
                    shard.set_plan_from_goals(
                        goals
                            .iter()
                            .filter(|&&goal| topology.owner(goal) == s)
                            .map(|&goal| topology.to_local(s, goal)),
                    );
                }
            }
            Event::Charged { ledger, seconds } => {
                for shard in &mut shards {
                    shard.charge(*ledger, *seconds);
                }
            }
        }
    }
    let journals = shards
        .iter_mut()
        .map(|shard| shard.take_journal().expect("shards are journaled"))
        .collect();
    FleetOutcome {
        topology: topology.clone(),
        states: shards,
        journals,
        stats,
    }
}

/// For every removal in `events`, the shard its particle is next placed
/// in (plainly, not merged) before the phase ends — `None` for every other
/// event. One backward pass, cleared at each phase boundary: a route
/// phase lifts all its particles before settling any, so scanning forward
/// from each removal would be quadratic in the population.
fn handoff_destinations(events: &[Event], topology: &FleetTopology) -> Vec<Option<usize>> {
    let mut destinations = vec![None; events.len()];
    // The next placement of each particle later in the current segment:
    // its owning shard, or `None` for a merge.
    let mut next: HashMap<ParticleId, Option<usize>> = HashMap::new();
    for (position, event) in events.iter().enumerate().rev() {
        match event {
            Event::PhaseFinished { .. } | Event::PhaseAborted { .. } => next.clear(),
            Event::Placed { id, at } | Event::HandoffImported { id, at, .. } => {
                next.insert(*id, Some(topology.owner(*at)));
            }
            Event::PlacedMerged { id, .. } => {
                next.insert(*id, None);
            }
            Event::Removed { id, .. } | Event::HandoffExported { id, .. } => {
                destinations[position] = next.remove(id).flatten();
            }
            Event::PhaseStarted { .. } | Event::PlanReplaced { .. } | Event::Charged { .. } => {}
        }
    }
    destinations
}

/// A projected fleet: the final shard states, their journals, and the
/// handoff counters.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The topology the fleet is sharded under.
    pub topology: FleetTopology,
    /// Final per-shard states (journals detached).
    pub states: Vec<ChipState>,
    /// Per-shard journals, handoff events included.
    pub journals: Vec<Journal>,
    /// Handoff counters.
    pub stats: FleetStats,
}

impl FleetOutcome {
    /// Replays every shard journal through the ordinary
    /// [`replay`](crate::journal::replay) oracle and counts shards whose
    /// replayed state hash misses the shard state — must be zero.
    pub fn replay_divergences(&self) -> usize {
        let sep = self.topology.min_separation().max(1);
        (0..self.states.len())
            .filter(|&s| {
                let replayed =
                    crate::journal::replay(&self.journals[s], self.topology.local_dims(s), sep);
                match replayed {
                    Ok(state) => state.state_hash() != self.states[s].state_hash(),
                    Err(_) => true,
                }
            })
            .count()
    }

    /// Folds the shard states back into one global [`ChipState`]: every
    /// particle at its global coordinate, the plan the union of the shard
    /// plans, the ledger taken from shard 0 (all shards charge
    /// identically). The result compares equal to — and hashes
    /// identically with — the monolithic state the fleet was projected
    /// from.
    pub fn compose(&self) -> ChipState {
        let sep = self.topology.min_separation().max(1);
        let mut composed = ChipState::with_separation(self.topology.dims(), sep);
        for (s, state) in self.states.iter().enumerate() {
            for (id, local) in state.grid().iter_particles() {
                // Merge-tolerant placement: a shard may legitimately hold
                // merged cages, and the grid's id-keyed map makes the
                // insertion order irrelevant.
                composed.place_merged(id, self.topology.to_global(s, local));
            }
        }
        let mut plan: Vec<GridCoord> = Vec::new();
        for (s, state) in self.states.iter().enumerate() {
            plan.extend(
                state
                    .plan()
                    .occupied_sites()
                    .into_iter()
                    .map(|site| self.topology.to_global(s, site)),
            );
        }
        composed.set_plan_from_goals(plan);
        if let Some(first) = self.states.first() {
            let time = *first.time();
            composed.charge(TimeLedger::Fluidics, time.fluidics);
            composed.charge(TimeLedger::Sensing, time.sensing);
            composed.charge(TimeLedger::Motion, time.motion);
            composed.charge(TimeLedger::Recovery, time.recovery);
        }
        composed
    }

    /// Total cross-shard handoffs (export halves).
    pub fn handoffs(&self) -> u64 {
        self.stats.exports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labchip_units::Seconds;

    #[test]
    fn topology_partitions_every_cell_exactly_once() {
        let dims = GridDims::new(13, 9);
        let topo = FleetTopology::new(dims, 2, 3, 2);
        assert_eq!(topo.shard_count(), 6);
        for cell in dims.iter() {
            let owner = topo.owner(cell);
            let owners = (0..topo.shard_count())
                .filter(|&s| topo.core(s).contains(cell))
                .count();
            assert_eq!(owners, 1, "cell {cell} owned once");
            assert!(topo.core(owner).contains(cell));
        }
        let total: u64 = (0..topo.shard_count()).map(|s| topo.core(s).count()).sum();
        assert_eq!(total, u64::from(dims.cols) * u64::from(dims.rows));
    }

    #[test]
    fn halo_rects_extend_cores_by_half_the_separation() {
        let topo = FleetTopology::new(GridDims::square(16), 4, 2, 2);
        assert_eq!(topo.halo(), 2);
        // Interior shard corner: the halo reaches into the neighbour.
        let core = topo.core(3);
        let halo = topo.halo_rect(3);
        assert_eq!(halo.min.x, core.min.x - 2);
        assert_eq!(halo.min.y, core.min.y - 2);
        // Array edge: clipped.
        assert_eq!(halo.max.x, 15);
        assert_eq!(halo.max.y, 15);
        // Local/global round trip.
        let at = GridCoord::new(9, 10);
        assert_eq!(topo.to_global(3, topo.to_local(3, at)), at);
    }

    #[test]
    fn one_by_one_topology_is_the_monolithic_frame() {
        let dims = GridDims::square(12);
        let topo = FleetTopology::new(dims, 2, 1, 1);
        assert_eq!(topo.shard_count(), 1);
        assert_eq!(topo.local_dims(0), dims);
        assert_eq!(topo.owner(GridCoord::new(11, 0)), 0);
        assert_eq!(topo.to_local(0, GridCoord::new(7, 3)), GridCoord::new(7, 3));
    }

    fn kinds(journal: &Journal) -> Vec<&'static str> {
        journal.events().iter().map(Event::kind).collect()
    }

    /// A cross-seam move inside one phase projects to an export/import
    /// pair; the shards compose back to the global state and replay.
    #[test]
    fn projected_handoff_composes_and_replays_bit_identically() {
        let dims = GridDims::square(16);
        let mut global = ChipState::with_separation(dims, 2);
        global.attach_journal();
        global.note_phase_started(0, "load");
        global.place(ParticleId(1), GridCoord::new(2, 8)).unwrap();
        global.place(ParticleId(2), GridCoord::new(13, 8)).unwrap();
        global.charge(TimeLedger::Fluidics, Seconds::new(60.0));
        global.note_phase_finished(0);
        // Route: lift both, then settle — particle 1 crosses x = 8.
        global.note_phase_started(1, "route");
        global.remove(ParticleId(1)).unwrap();
        global.remove(ParticleId(2)).unwrap();
        global.place(ParticleId(1), GridCoord::new(11, 4)).unwrap();
        global.place(ParticleId(2), GridCoord::new(13, 8)).unwrap();
        global.set_plan_from_goals([GridCoord::new(11, 4), GridCoord::new(13, 8)]);
        global.charge(TimeLedger::Motion, Seconds::new(1.25));
        global.note_phase_finished(1);
        let journal = global.take_journal().unwrap();

        let fleet = project(&journal, &FleetTopology::new(dims, 2, 2, 1));
        assert_eq!(
            kinds(&fleet.journals[0]),
            [
                "phase_started",
                "placed",
                "charged",
                "phase_finished",
                "phase_started",
                "handoff_exported",
                "plan_replaced",
                "charged",
                "phase_finished"
            ]
        );
        assert_eq!(
            kinds(&fleet.journals[1]),
            [
                "phase_started",
                "placed",
                "charged",
                "phase_finished",
                "phase_started",
                "removed",
                "handoff_imported",
                "placed",
                "plan_replaced",
                "charged",
                "phase_finished"
            ]
        );
        assert!(fleet.journals[0]
            .events()
            .contains(&Event::HandoffExported {
                id: ParticleId(1),
                from: GridCoord::new(2, 8),
                to_shard: 1,
            }));
        assert!(fleet.journals[1].events().iter().any(|event| matches!(
            event,
            Event::HandoffImported {
                id: ParticleId(1),
                from_shard: 0,
                ..
            }
        )));
        assert_eq!(fleet.stats.exports, 1);
        assert_eq!(fleet.stats.imports, 1);
        assert_eq!(fleet.stats.barriers, 2);
        assert_eq!(fleet.handoffs(), 1);
        assert_eq!(fleet.replay_divergences(), 0);
        let populations: Vec<usize> = fleet.states.iter().map(ChipState::particle_count).collect();
        assert_eq!(
            populations,
            [0, 2],
            "both particles ended in the right half"
        );
        assert_eq!(fleet.compose(), global);
        assert_eq!(fleet.compose().state_hash(), global.state_hash());
    }

    /// In-shard moves, flushes, re-placements after a phase boundary and
    /// merge landings all journal a plain removal — no handoff.
    #[test]
    fn in_shard_moves_journal_plain_remove_and_place() {
        let dims = GridDims::square(16);
        let mut global = ChipState::with_separation(dims, 2);
        global.attach_journal();
        global.note_phase_started(0, "load");
        global.place(ParticleId(7), GridCoord::new(1, 1)).unwrap();
        global.place(ParticleId(8), GridCoord::new(3, 12)).unwrap();
        global.note_phase_finished(0);
        global.note_phase_started(1, "route");
        // An in-shard move.
        global.remove(ParticleId(7)).unwrap();
        global.place(ParticleId(7), GridCoord::new(3, 3)).unwrap();
        // Lifted here, re-placed in the other shard only after the
        // phase boundary.
        global.remove(ParticleId(8)).unwrap();
        global.note_phase_finished(1);
        global.note_phase_started(2, "flush");
        global.place(ParticleId(8), GridCoord::new(12, 12)).unwrap();
        // Lifted across the seam, but landing as a merge.
        global.remove(ParticleId(8)).unwrap();
        global.place_merged(ParticleId(8), GridCoord::new(3, 3));
        // A flush removal with no later placement.
        global.remove(ParticleId(7)).unwrap();
        global.note_phase_finished(2);
        let journal = global.take_journal().unwrap();

        let fleet = project(&journal, &FleetTopology::new(dims, 2, 2, 1));
        assert_eq!(
            kinds(&fleet.journals[0]),
            [
                "phase_started",
                "placed",
                "placed",
                "phase_finished",
                "phase_started",
                "removed",
                "placed",
                "removed",
                "phase_finished",
                "phase_started",
                "placed_merged",
                "removed",
                "phase_finished"
            ]
        );
        assert_eq!(
            kinds(&fleet.journals[1]),
            [
                "phase_started",
                "phase_finished",
                "phase_started",
                "phase_finished",
                "phase_started",
                "placed",
                "removed",
                "phase_finished"
            ]
        );
        assert_eq!(fleet.stats.exports, 0);
        assert_eq!(fleet.stats.imports, 0);
        assert_eq!(fleet.replay_divergences(), 0);
        assert_eq!(fleet.compose().state_hash(), global.state_hash());
    }
}
