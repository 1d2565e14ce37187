//! The unified chip-state model: one owner for the cage grid and every view
//! derived from it.
//!
//! Before this module existed, each layer of the stack kept its own private
//! copy of "where the particles are": the workload driver held a
//! [`CageGrid`], the sensing path rebuilt a ground-truth
//! [`OccupancyMap`] from scratch before every scan, the actuation layer
//! re-exported a fresh [`CagePattern`] per step, and the simulator had yet
//! another truth-map builder of its own — all the same information, stitched
//! together by ad-hoc converters that re-ran on every phase of every cycle.
//!
//! [`ChipState`] collapses those copies into one model:
//!
//! * the [`CageGrid`] is the single source of truth for particle positions,
//!   mutated **only** through the typed operations on the state
//!   ([`place`](ChipState::place), [`remove`](ChipState::remove),
//!   [`place_merged`](ChipState::place_merged)) — the choke points that
//!   invalidate the caches *and* feed the event journal;
//! * the electrode [`CagePattern`] and the ground-truth [`OccupancyMap`] are
//!   **cached derivations** — rebuilt lazily only after the grid actually
//!   changed, so repeated reads inside a phase are free;
//! * the *plan* map (the occupancy the current protocol intends) and the
//!   per-phase [`TimeBreakdown`] ledger live alongside, because every
//!   consumer of the state needs them together: the sense phase diffs
//!   detected-vs-plan, the recovery loop diffs truth-vs-plan, the report
//!   charges time per phase.
//!
//! When a [`Journal`] is attached ([`attach_journal`](ChipState::attach_journal)),
//! every successful mutation is appended as a typed
//! [`crate::journal::Event`]; because the journal hangs off the same
//! choke points no phase can mutate the chip behind its back, and
//! [`replay`](crate::journal::replay) reconstructs the state bit-for-bit.
//! An armed [`FaultPlan`] latches [`fault_tripped`](ChipState::fault_tripped)
//! once the journal reaches the kill point — the hook the fault-injection
//! harness (E14) uses to kill execution mid-phase.
//!
//! The sensing crate's [`TruthSource`] is implemented here, so an
//! [`ArrayScanner`](labchip_sensing::array_scan::ArrayScanner) reads the
//! chip state directly (`scanner.scan_source(&mut state, …)`) instead of
//! forcing callers to materialise a truth map per scan.

use crate::cage::{CageGrid, ParticleId};
use crate::error::ManipulationError;
use crate::journal::{Event, FaultPlan, Journal};
use labchip_array::pattern::CagePattern;
use labchip_sensing::array_scan::TruthSource;
use labchip_sensing::detect::{Occupancy, OccupancyMap};
use labchip_units::{GridCoord, GridDims, Seconds};
use serde::{Deserialize, Serialize};

/// Where the simulated chip time of an assay went, by ledger.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Fluidic handling (loading, recovery).
    pub fluidics: Seconds,
    /// Sensor scanning and averaging.
    pub sensing: Seconds,
    /// Cage motion (the mechanics of dragging cells).
    pub motion: Seconds,
    /// Closed-loop recovery: targeted re-scans of suspect sites and the
    /// corrective cage moves they trigger when detection disagrees with the
    /// plan.
    pub recovery: Seconds,
}

impl TimeBreakdown {
    /// Total duration over all ledgers.
    pub fn total(&self) -> Seconds {
        self.fluidics + self.sensing + self.motion + self.recovery
    }

    /// Field-wise difference `self - earlier`: the ledger charged between
    /// two snapshots (what one assay phase cost).
    pub fn delta_since(&self, earlier: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            fluidics: self.fluidics - earlier.fluidics,
            sensing: self.sensing - earlier.sensing,
            motion: self.motion - earlier.motion,
            recovery: self.recovery - earlier.recovery,
        }
    }
}

/// The phase of an assay a time charge belongs to — the four ledgers of
/// [`TimeBreakdown`], addressable as data so composable phases can charge
/// time without hand-picking struct fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimeLedger {
    /// Fluidic handling (loading, flushing, recovery through the outlet).
    Fluidics,
    /// Sensor scanning and averaging.
    Sensing,
    /// Cage motion.
    Motion,
    /// Closed-loop recovery (targeted re-scans and corrective moves).
    Recovery,
}

/// A serde-round-trippable snapshot of the durable chip state: grid, plan
/// and time ledger (the derived caches are rebuilt on demand, the journal
/// is stored separately by the checkpoint that owns the snapshot).
///
/// Outside this module a snapshot comes only from [`ChipState::snapshot`]
/// or its decoder, so it is a state [`ChipState::from_snapshot`] can run
/// on. Each part checks its own invariants when decoded: the [`CageGrid`]
/// a nonzero separation and every particle inside its dims, the
/// [`OccupancyMap`] one cell per site, and the snapshot a plan that spans
/// the grid. Pairwise separation is not checked: a merge or a recovery
/// fallback legally leaves particles closer than it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChipStateSnapshot {
    grid: CageGrid,
    plan: OccupancyMap,
    time: TimeBreakdown,
}

impl ChipStateSnapshot {
    /// The cage grid (positions, dims, separation).
    pub fn grid(&self) -> &CageGrid {
        &self.grid
    }
}

impl<'de> Deserialize<'de> for ChipStateSnapshot {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        // The serialized fields, decoded as derived under the same name.
        #[derive(Deserialize)]
        struct ChipStateSnapshot {
            grid: CageGrid,
            plan: OccupancyMap,
            time: TimeBreakdown,
        }
        let ChipStateSnapshot { grid, plan, time } = Deserialize::from_value(value)?;
        if plan.dims() != grid.dims() {
            return Err(serde::Error::custom(format!(
                "ChipStateSnapshot: plan {} on a {} grid",
                plan.dims(),
                grid.dims()
            )));
        }
        Ok(Self { grid, plan, time })
    }
}

/// One chip-state model shared by the simulator, router, scanner and driver:
/// the cage grid plus cached derivations, the plan map and the time ledger.
///
/// See the [module docs](self) for the ownership story.
#[derive(Debug, Clone)]
pub struct ChipState {
    grid: CageGrid,
    plan: OccupancyMap,
    time: TimeBreakdown,
    /// Lazily rebuilt electrode pattern (`None` = stale).
    pattern: Option<CagePattern>,
    /// Lazily rebuilt ground-truth occupancy (`None` = stale).
    occupancy: Option<OccupancyMap>,
    /// Event journal (opt-in; `None` = mutations are not recorded).
    journal: Option<Journal>,
    /// Armed kill point for fault injection.
    fault: Option<FaultPlan>,
    /// Latched once the journal reaches the armed kill point.
    tripped: bool,
}

/// Equality over the durable state — grid, plan and time ledger. The lazy
/// caches and the journal are bookkeeping, not state: a replayed chip with
/// cold caches and no journal still compares equal to the live one.
impl PartialEq for ChipState {
    fn eq(&self, other: &Self) -> bool {
        self.grid == other.grid && self.plan == other.plan && self.time == other.time
    }
}

impl ChipState {
    /// Creates an empty state over a `dims` array with the default cage
    /// separation.
    pub fn new(dims: GridDims) -> Self {
        Self::from_grid(CageGrid::new(dims))
    }

    /// Creates an empty state with an explicit minimum cage separation.
    ///
    /// # Panics
    ///
    /// Panics if `min_separation` is zero (see
    /// [`CageGrid::with_separation`]).
    pub fn with_separation(dims: GridDims, min_separation: u32) -> Self {
        Self::from_grid(CageGrid::with_separation(dims, min_separation))
    }

    /// Wraps an existing grid (its particles become the state's truth).
    pub fn from_grid(grid: CageGrid) -> Self {
        Self::from_snapshot(ChipStateSnapshot {
            plan: OccupancyMap::new(grid.dims()),
            grid,
            time: TimeBreakdown::default(),
        })
    }

    /// Array dimensions.
    pub fn dims(&self) -> GridDims {
        self.grid.dims()
    }

    /// Read access to the cage grid (does not disturb the caches).
    pub fn grid(&self) -> &CageGrid {
        &self.grid
    }

    /// Marks the derived caches stale. Every mutator below calls this;
    /// there is deliberately no public `&mut CageGrid` accessor — typed
    /// mutations are the choke points the cache tracking *and* the event
    /// journal depend on.
    fn invalidate(&mut self) {
        self.pattern = None;
        self.occupancy = None;
    }

    /// Appends an event to the journal (if one is attached) and latches
    /// the fault flag when an armed kill point is reached.
    fn record(&mut self, event: Event) {
        if let Some(journal) = self.journal.as_mut() {
            journal.record(event);
            if let Some(fault) = self.fault {
                if journal.len() as u64 >= fault.kill_after_events {
                    self.tripped = true;
                }
            }
        }
    }

    /// Places a particle on an empty, conflict-free cage.
    ///
    /// This is the journaled choke point for trapping: on success the
    /// caches are invalidated and an [`Event::Placed`] is recorded.
    ///
    /// # Errors
    ///
    /// Propagates [`CageGrid::place`] rejections (out of bounds, site
    /// conflict, duplicate id); a rejected placement mutates nothing and
    /// records nothing.
    pub fn place(&mut self, id: ParticleId, at: GridCoord) -> Result<(), ManipulationError> {
        self.grid.place(id, at)?;
        self.invalidate();
        self.record(Event::Placed { id, at });
        Ok(())
    }

    /// Removes a particle, returning the cage it occupied.
    ///
    /// # Errors
    ///
    /// Returns [`ManipulationError::UnknownParticle`] if the particle is
    /// not on the grid; nothing is mutated or recorded.
    pub fn remove(&mut self, id: ParticleId) -> Result<GridCoord, ManipulationError> {
        let from = self.grid.remove(id)?;
        self.invalidate();
        self.record(Event::Removed { id, from });
        Ok(from)
    }

    /// Places a particle into a cage that may already be occupied (merge) —
    /// the journaled counterpart of [`CageGrid::place_merged`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is outside the grid (see
    /// [`CageGrid::place_merged`]).
    pub fn place_merged(&mut self, id: ParticleId, at: GridCoord) {
        self.grid.place_merged(id, at);
        self.invalidate();
        self.record(Event::PlacedMerged { id, at });
    }

    /// Removes a particle that is crossing a fleet-shard boundary — the
    /// journaled choke point for the export half of a cross-shard handoff.
    /// Grid-wise this is exactly [`remove`](Self::remove); the journal
    /// records an [`Event::HandoffExported`] tagged with the destination
    /// shard instead of a plain removal, so a shard journal reads as a
    /// handoff trace.
    ///
    /// # Errors
    ///
    /// Returns [`ManipulationError::UnknownParticle`] if the particle is
    /// not on the grid; nothing is mutated or recorded.
    pub fn export_particle(
        &mut self,
        id: ParticleId,
        to_shard: usize,
    ) -> Result<GridCoord, ManipulationError> {
        let from = self.grid.remove(id)?;
        self.invalidate();
        self.record(Event::HandoffExported { id, from, to_shard });
        Ok(from)
    }

    /// Places a particle that arrived across a fleet-shard boundary — the
    /// journaled choke point for the import half of a cross-shard handoff.
    /// Grid-wise this is exactly [`place`](Self::place); the journal
    /// records an [`Event::HandoffImported`] tagged with the source shard.
    ///
    /// # Errors
    ///
    /// Propagates [`CageGrid::place`] rejections; a rejected import
    /// mutates nothing and records nothing.
    pub fn import_particle(
        &mut self,
        id: ParticleId,
        at: GridCoord,
        from_shard: usize,
    ) -> Result<(), ManipulationError> {
        self.grid.place(id, at)?;
        self.invalidate();
        self.record(Event::HandoffImported { id, at, from_shard });
        Ok(())
    }

    /// Number of particles on the grid.
    pub fn particle_count(&self) -> usize {
        self.grid.particle_count()
    }

    /// The electrode cage pattern of the current occupancy — cached;
    /// rebuilt only if the grid changed since the last call.
    pub fn pattern(&mut self) -> &CagePattern {
        if self.pattern.is_none() {
            self.pattern = Some(self.grid.to_pattern());
        }
        self.pattern.as_ref().expect("just rebuilt")
    }

    /// The ground-truth occupancy map of the current grid — what a perfect
    /// sensor would report. Cached; rebuilt only if the grid changed since
    /// the last call.
    pub fn occupancy(&mut self) -> &OccupancyMap {
        if self.occupancy.is_none() {
            self.occupancy = Some(Self::occupancy_from_sites(
                self.grid.dims(),
                self.grid.iter_particles().map(|(_, coord)| coord),
            ));
        }
        self.occupancy.as_ref().expect("just rebuilt")
    }

    /// Whether the derived caches are currently populated (for tests and
    /// instrumentation; consumers should just call the accessors).
    pub fn caches_warm(&self) -> (bool, bool) {
        (self.pattern.is_some(), self.occupancy.is_some())
    }

    /// The single shared truth-map builder: an occupancy map with the given
    /// sites occupied. Both the grid-backed cache above and the simulator's
    /// particle-position truth map go through here.
    pub fn occupancy_from_sites(
        dims: GridDims,
        sites: impl IntoIterator<Item = GridCoord>,
    ) -> OccupancyMap {
        let mut map = OccupancyMap::new(dims);
        for site in sites {
            map.set(site, Occupancy::Occupied);
        }
        map
    }

    /// The occupancy the current protocol intends (every goal slot
    /// occupied). Starts all-empty.
    pub fn plan(&self) -> &OccupancyMap {
        &self.plan
    }

    /// Replaces the plan with `goals` occupied (everything else empty) —
    /// the journaled choke point for plan changes.
    pub fn set_plan_from_goals(&mut self, goals: impl IntoIterator<Item = GridCoord>) {
        let goals: Vec<GridCoord> = goals.into_iter().collect();
        self.plan = Self::occupancy_from_sites(self.grid.dims(), goals.iter().copied());
        self.record(Event::PlanReplaced { goals });
    }

    /// The accumulated per-phase time ledger.
    pub fn time(&self) -> &TimeBreakdown {
        &self.time
    }

    /// Charges `duration` of simulated chip time to a ledger — the
    /// journaled choke point for time accounting.
    pub fn charge(&mut self, ledger: TimeLedger, duration: Seconds) {
        match ledger {
            TimeLedger::Fluidics => self.time.fluidics += duration,
            TimeLedger::Sensing => self.time.sensing += duration,
            TimeLedger::Motion => self.time.motion += duration,
            TimeLedger::Recovery => self.time.recovery += duration,
        }
        self.record(Event::Charged {
            ledger,
            seconds: duration,
        });
    }

    /// Attaches an empty journal: every subsequent mutation is recorded.
    pub fn attach_journal(&mut self) {
        self.journal = Some(Journal::new());
        self.fault = None;
        self.tripped = false;
    }

    /// Attaches an empty journal with an armed kill point: once the
    /// journal reaches `fault.kill_after_events` events,
    /// [`fault_tripped`](Self::fault_tripped) latches and cooperative
    /// phases abort at their next poll.
    pub fn attach_journal_with_fault(&mut self, fault: FaultPlan) {
        self.journal = Some(Journal::new());
        self.fault = Some(fault);
        self.tripped = false;
    }

    /// Read access to the attached journal, if any.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Detaches and returns the journal (recording stops).
    pub fn take_journal(&mut self) -> Option<Journal> {
        self.fault = None;
        self.tripped = false;
        self.journal.take()
    }

    /// `true` once an armed [`FaultPlan`] kill point has been reached.
    /// Latches until the journal is detached or re-attached.
    pub fn fault_tripped(&self) -> bool {
        self.tripped
    }

    /// Records a phase-start marker (no state change).
    pub fn note_phase_started(&mut self, index: usize, name: &str) {
        self.record(Event::PhaseStarted {
            index,
            name: name.to_string(),
        });
    }

    /// Records a phase-completion marker (no state change).
    pub fn note_phase_finished(&mut self, index: usize) {
        self.record(Event::PhaseFinished { index });
    }

    /// Records a phase-abort marker (no state change).
    pub fn note_phase_aborted(&mut self, index: usize, reason: &str) {
        self.record(Event::PhaseAborted {
            index,
            reason: reason.to_string(),
        });
    }

    /// Snapshots the durable state (grid, plan, ledger) for a checkpoint.
    pub fn snapshot(&self) -> ChipStateSnapshot {
        ChipStateSnapshot {
            grid: self.grid.clone(),
            plan: self.plan.clone(),
            time: self.time,
        }
    }

    /// Rebuilds a state from a checkpoint snapshot (cold caches, no
    /// journal — re-attach one to keep recording).
    pub fn from_snapshot(snapshot: ChipStateSnapshot) -> Self {
        Self {
            grid: snapshot.grid,
            plan: snapshot.plan,
            time: snapshot.time,
            pattern: None,
            occupancy: None,
            journal: None,
            fault: None,
            tripped: false,
        }
    }

    /// A 64-bit FNV-1a digest of the durable state: dims, separation,
    /// every particle position, the plan sites and the raw ledger bits.
    /// Two states compare equal iff their hashes match (modulo the usual
    /// 64-bit collision caveat) — the cheap fingerprint the resume
    /// equivalence sweep compares across hundreds of kill points.
    pub fn state_hash(&self) -> u64 {
        const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut hash = OFFSET;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        let dims = self.grid.dims();
        mix(u64::from(dims.cols));
        mix(u64::from(dims.rows));
        mix(u64::from(self.grid.min_separation()));
        for (id, coord) in self.grid.iter_particles() {
            mix(id.0);
            mix(u64::from(coord.x));
            mix(u64::from(coord.y));
        }
        for site in self.plan.occupied_sites() {
            mix(u64::from(site.x));
            mix(u64::from(site.y));
        }
        mix(self.time.fluidics.get().to_bits());
        mix(self.time.sensing.get().to_bits());
        mix(self.time.motion.get().to_bits());
        mix(self.time.recovery.get().to_bits());
        hash
    }

    /// Sites where the ground truth disagrees with the plan.
    ///
    /// # Panics
    ///
    /// Never: truth and plan always share the grid's dimensions.
    pub fn true_mismatches(&mut self) -> usize {
        // Refresh the cache first; the borrow checker wants the two maps
        // taken in sequence.
        self.occupancy();
        self.occupancy
            .as_ref()
            .expect("just refreshed")
            .diff_count(&self.plan)
            .expect("truth and plan share the grid dimensions")
    }
}

impl TruthSource for ChipState {
    fn truth_occupancy(&mut self) -> &OccupancyMap {
        self.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cage::ParticleId;
    use labchip_sensing::array_scan::ArrayScanner;

    #[test]
    fn caches_rebuild_only_after_grid_mutation() {
        let mut state = ChipState::new(GridDims::square(16));
        state.place(ParticleId(1), GridCoord::new(4, 4)).unwrap();
        assert_eq!(state.caches_warm(), (false, false));

        assert_eq!(state.occupancy().occupied_count(), 1);
        assert_eq!(state.pattern().cage_count(), 1);
        assert_eq!(state.caches_warm(), (true, true));

        // Read-only access keeps the caches warm.
        assert_eq!(state.grid().particle_count(), 1);
        assert_eq!(state.caches_warm(), (true, true));

        // Mutation invalidates; the next read sees the new truth.
        state.place(ParticleId(2), GridCoord::new(10, 10)).unwrap();
        assert_eq!(state.caches_warm(), (false, false));
        assert_eq!(state.occupancy().occupied_count(), 2);
        assert_eq!(state.pattern().cage_count(), 2);
    }

    #[test]
    fn pattern_and_occupancy_always_match_the_grid() {
        let mut state = ChipState::with_separation(GridDims::square(12), 2);
        for (id, x) in [(0u64, 2u32), (1, 6), (2, 10)] {
            state.place(ParticleId(id), GridCoord::new(x, 5)).unwrap();
        }
        let sites: Vec<GridCoord> = state.grid().iter_particles().map(|(_, c)| c).collect();
        assert_eq!(state.pattern().cage_sites(), &sites);
        for site in &sites {
            assert_eq!(state.occupancy().get(*site), Occupancy::Occupied);
        }
        assert_eq!(state.occupancy().occupied_count(), sites.len());
    }

    #[test]
    fn plan_and_ledger_live_with_the_state() {
        let mut state = ChipState::new(GridDims::square(8));
        state.place(ParticleId(0), GridCoord::new(1, 1)).unwrap();
        state.set_plan_from_goals([GridCoord::new(5, 5)]);
        // One particle off the plan slot and one plan slot unfilled.
        assert_eq!(state.true_mismatches(), 2);

        state.charge(TimeLedger::Motion, Seconds::new(2.0));
        state.charge(TimeLedger::Sensing, Seconds::new(0.5));
        assert!((state.time().total().get() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn scanner_reads_the_state_directly() {
        let dims = GridDims::square(10);
        let mut state = ChipState::new(dims);
        state.place(ParticleId(7), GridCoord::new(3, 3)).unwrap();
        let scanner = ArrayScanner::date05_reference(dims, 0.0, 99);
        let result = scanner.scan_source(&mut state, 1, 0);
        assert_eq!(result.map, *state.occupancy());
        assert_eq!(result.stats.true_positives, 1);
    }

    #[test]
    fn occupancy_from_sites_is_the_shared_builder() {
        let dims = GridDims::square(6);
        let map =
            ChipState::occupancy_from_sites(dims, [GridCoord::new(0, 0), GridCoord::new(5, 5)]);
        assert_eq!(map.occupied_count(), 2);
        assert_eq!(map.get(GridCoord::new(5, 5)), Occupancy::Occupied);
    }

    #[test]
    fn mutations_journal_only_when_attached_and_rejections_record_nothing() {
        let mut state = ChipState::new(GridDims::square(8));
        // No journal attached: mutations succeed silently.
        state.place(ParticleId(0), GridCoord::new(1, 1)).unwrap();
        assert!(state.journal().is_none());

        state.attach_journal();
        state.place(ParticleId(1), GridCoord::new(5, 5)).unwrap();
        // A rejected placement (occupied site) records nothing.
        assert!(state.place(ParticleId(2), GridCoord::new(5, 5)).is_err());
        state.charge(TimeLedger::Fluidics, Seconds::new(1.0));
        state.set_plan_from_goals([GridCoord::new(5, 5)]);
        state.remove(ParticleId(1)).unwrap();

        let journal = state.take_journal().unwrap();
        let kinds: Vec<&str> = journal.events().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["placed", "charged", "plan_replaced", "removed"]);
    }

    #[test]
    fn handoff_choke_points_mutate_like_remove_and_place() {
        let mut state = ChipState::with_separation(GridDims::square(8), 2);
        state.attach_journal();
        state.place(ParticleId(1), GridCoord::new(6, 3)).unwrap();
        let from = state.export_particle(ParticleId(1), 1).unwrap();
        assert_eq!(from, GridCoord::new(6, 3));
        assert_eq!(state.particle_count(), 0);
        state
            .import_particle(ParticleId(1), GridCoord::new(0, 3), 0)
            .unwrap();
        assert_eq!(state.particle_count(), 1);
        // Rejections record nothing: exporting an unknown particle,
        // importing onto a conflicting site.
        assert!(state.export_particle(ParticleId(9), 1).is_err());
        assert!(state
            .import_particle(ParticleId(2), GridCoord::new(0, 3), 0)
            .is_err());
        let journal = state.take_journal().unwrap();
        let kinds: Vec<&str> = journal.events().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["placed", "handoff_exported", "handoff_imported"]);
    }

    #[test]
    fn fault_plan_latches_at_the_kill_point() {
        let mut state = ChipState::new(GridDims::square(8));
        state.attach_journal_with_fault(FaultPlan::after(2));
        state.place(ParticleId(0), GridCoord::new(0, 0)).unwrap();
        assert!(!state.fault_tripped());
        state.place(ParticleId(1), GridCoord::new(4, 4)).unwrap();
        assert!(state.fault_tripped());
        // Latches: further reads keep reporting the trip.
        state.charge(TimeLedger::Motion, Seconds::new(0.1));
        assert!(state.fault_tripped());
        // Detaching clears the latch.
        let journal = state.take_journal().unwrap();
        assert_eq!(journal.len(), 3);
        assert!(!state.fault_tripped());
    }

    #[test]
    fn rejected_mutations_change_nothing() {
        let mut state = ChipState::new(GridDims::square(8));
        state.place(ParticleId(0), GridCoord::new(2, 2)).unwrap();
        let before = state.state_hash();
        // Site conflict and unknown particle: errors, and no state change.
        assert!(state.place(ParticleId(1), GridCoord::new(2, 2)).is_err());
        assert!(state.remove(ParticleId(9)).is_err());
        assert_eq!(state.state_hash(), before);
    }

    #[test]
    fn snapshot_decoder_rejects_a_plan_that_does_not_span_the_grid() {
        let snapshot = ChipState::new(GridDims::square(4)).snapshot();
        let json = serde_json::to_string(&snapshot);
        let decoded: ChipStateSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(decoded, snapshot);
        // The plan's dims come second; 2x8 keeps its cell count.
        let square = r#"{"cols":4,"rows":4}"#;
        let at = json.rfind(square).unwrap();
        let edited = format!(
            r#"{}{{"cols":2,"rows":8}}{}"#,
            &json[..at],
            &json[at + square.len()..]
        );
        let error = serde_json::from_str::<ChipStateSnapshot>(&edited).unwrap_err();
        assert_eq!(
            error.to_string(),
            "ChipStateSnapshot: plan 2x8 on a 4x4 grid"
        );
    }

    #[test]
    fn snapshot_round_trips_and_hash_tracks_equality() {
        let mut state = ChipState::with_separation(GridDims::square(10), 2);
        state.place(ParticleId(3), GridCoord::new(2, 2)).unwrap();
        state.set_plan_from_goals([GridCoord::new(8, 8)]);
        state.charge(TimeLedger::Recovery, Seconds::new(0.25));

        let restored = ChipState::from_snapshot(state.snapshot());
        assert_eq!(restored, state);
        assert_eq!(restored.state_hash(), state.state_hash());
        // Caches start cold but rebuild to the same truth.
        assert_eq!(restored.caches_warm(), (false, false));

        let mut other = restored.clone();
        other.charge(TimeLedger::Motion, Seconds::new(1e-9));
        assert_ne!(other, state);
        assert_ne!(other.state_hash(), state.state_hash());
    }
}
