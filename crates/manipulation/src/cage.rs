//! The cage grid: which electrode hosts which particle.
//!
//! A cage occupies one counter-phase electrode; two occupied cages must keep
//! a minimum separation (in electrodes) or their potential wells merge and
//! the cells end up in the same trap. The [`CageGrid`] tracks particle
//! positions, enforces the separation rule, and exports the corresponding
//! electrode [`CagePattern`] for the actuation array.

use crate::error::ManipulationError;
use labchip_array::pattern::{CagePattern, PatternKind};
use labchip_units::{GridCoord, GridDims};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of a tracked particle (cell or bead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ParticleId(pub u64);

/// Occupancy and geometry of the cage layer.
///
/// Particles are stored in an ordered map keyed by id, so every iteration —
/// [`CageGrid::iter_particles`] included — is deterministic (ascending id)
/// without collecting and sorting first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CageGrid {
    dims: GridDims,
    min_separation: u32,
    particles: BTreeMap<u64, GridCoord>,
}

impl CageGrid {
    /// Default minimum Chebyshev separation between occupied cages, in
    /// electrodes.
    pub const DEFAULT_MIN_SEPARATION: u32 = 2;

    /// Creates an empty cage grid over an electrode array of size `dims`.
    pub fn new(dims: GridDims) -> Self {
        Self::with_separation(dims, Self::DEFAULT_MIN_SEPARATION)
    }

    /// Creates a grid with an explicit minimum separation.
    ///
    /// # Panics
    ///
    /// Panics if `min_separation` is zero.
    pub fn with_separation(dims: GridDims, min_separation: u32) -> Self {
        assert!(min_separation >= 1, "separation must be at least 1");
        Self {
            dims,
            min_separation,
            particles: BTreeMap::new(),
        }
    }

    /// Grid dimensions (same as the electrode array).
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Minimum Chebyshev separation between occupied cages.
    pub fn min_separation(&self) -> u32 {
        self.min_separation
    }

    /// Number of particles currently tracked.
    pub fn particle_count(&self) -> usize {
        self.particles.len()
    }

    /// Position of a particle.
    ///
    /// # Errors
    ///
    /// Returns [`ManipulationError::UnknownParticle`] for an untracked id.
    pub fn position(&self, id: ParticleId) -> Result<GridCoord, ManipulationError> {
        self.particles
            .get(&id.0)
            .copied()
            .ok_or(ManipulationError::UnknownParticle { id: id.0 })
    }

    /// All `(particle, position)` pairs, sorted by particle id.
    ///
    /// Allocates a fresh `Vec` per call; hot paths that only need to walk
    /// the particles should prefer the borrowing
    /// [`CageGrid::iter_particles`].
    pub fn particles(&self) -> Vec<(ParticleId, GridCoord)> {
        self.iter_particles().collect()
    }

    /// Borrowing iterator over `(particle, position)` pairs in ascending id
    /// order — no allocation, same deterministic order as
    /// [`CageGrid::particles`].
    pub fn iter_particles(&self) -> impl Iterator<Item = (ParticleId, GridCoord)> + '_ {
        self.particles
            .iter()
            .map(|(id, pos)| (ParticleId(*id), *pos))
    }

    /// Returns `true` when `coord` is free for a new cage: inside the grid
    /// and at least `min_separation` away (Chebyshev) from every occupied
    /// cage, ignoring the particles listed in `ignoring`.
    pub fn is_free_for(&self, coord: GridCoord, ignoring: &[ParticleId]) -> bool {
        if !self.dims.contains(coord) {
            return false;
        }
        self.particles.iter().all(|(id, pos)| {
            ignoring.iter().any(|ig| ig.0 == *id) || pos.chebyshev(coord) >= self.min_separation
        })
    }

    /// Places a new particle in a cage at `coord`.
    ///
    /// # Errors
    ///
    /// Returns [`ManipulationError::OutOfBounds`] or
    /// [`ManipulationError::SiteConflict`] when the position is unusable, and
    /// [`ManipulationError::SiteConflict`] if the id is already tracked.
    pub fn place(&mut self, id: ParticleId, coord: GridCoord) -> Result<(), ManipulationError> {
        if !self.dims.contains(coord) {
            return Err(ManipulationError::OutOfBounds { coord });
        }
        if self.particles.contains_key(&id.0) {
            return Err(ManipulationError::SiteConflict {
                coord,
                reason: format!("particle #{} is already on the grid", id.0),
            });
        }
        if !self.is_free_for(coord, &[]) {
            return Err(ManipulationError::SiteConflict {
                coord,
                reason: format!("another cage within {} electrodes", self.min_separation),
            });
        }
        self.particles.insert(id.0, coord);
        Ok(())
    }

    /// Removes a particle (e.g. recovered through the outlet).
    ///
    /// # Errors
    ///
    /// Returns [`ManipulationError::UnknownParticle`] for an untracked id.
    pub fn remove(&mut self, id: ParticleId) -> Result<GridCoord, ManipulationError> {
        self.particles
            .remove(&id.0)
            .ok_or(ManipulationError::UnknownParticle { id: id.0 })
    }

    /// Moves a particle's cage to an adjacent (or identical) electrode.
    ///
    /// # Errors
    ///
    /// Returns an error when the particle is unknown, the step is longer than
    /// one electrode, the target is outside the grid, or the target violates
    /// the separation rule.
    pub fn step(&mut self, id: ParticleId, to: GridCoord) -> Result<(), ManipulationError> {
        let from = self.position(id)?;
        if from.chebyshev(to) > 1 {
            return Err(ManipulationError::SiteConflict {
                coord: to,
                reason: format!("cage can only move one electrode per step (from {from})"),
            });
        }
        if !self.dims.contains(to) {
            return Err(ManipulationError::OutOfBounds { coord: to });
        }
        if !self.is_free_for(to, &[id]) {
            return Err(ManipulationError::SiteConflict {
                coord: to,
                reason: "target cage too close to another occupied cage".into(),
            });
        }
        self.particles.insert(id.0, to);
        Ok(())
    }

    /// Places a particle *without* enforcing the separation rule. This is the
    /// merge primitive: the one situation in which two particles legitimately
    /// share a cage (their traps have been deliberately coalesced).
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the grid.
    pub fn place_merged(&mut self, id: ParticleId, coord: GridCoord) {
        assert!(self.dims.contains(coord), "merge target outside the grid");
        self.particles.insert(id.0, coord);
    }

    /// Exports the current occupancy as an electrode cage pattern.
    pub fn to_pattern(&self) -> CagePattern {
        let sites: Vec<GridCoord> = self.particles.values().copied().collect();
        CagePattern::new(self.dims, PatternKind::Custom(sites))
            .expect("tracked positions are always inside the grid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> CageGrid {
        CageGrid::new(GridDims::square(16))
    }

    #[test]
    fn place_and_query() {
        let mut g = grid();
        g.place(ParticleId(1), GridCoord::new(4, 4)).unwrap();
        assert_eq!(g.position(ParticleId(1)).unwrap(), GridCoord::new(4, 4));
        assert_eq!(g.particle_count(), 1);
        assert!(g.position(ParticleId(2)).is_err());
        assert_eq!(g.particles().len(), 1);
    }

    #[test]
    fn separation_rule_is_enforced_on_place() {
        let mut g = grid();
        g.place(ParticleId(1), GridCoord::new(4, 4)).unwrap();
        // Adjacent electrode: cages would merge.
        let err = g.place(ParticleId(2), GridCoord::new(5, 4)).unwrap_err();
        assert!(matches!(err, ManipulationError::SiteConflict { .. }));
        // Two electrodes away is allowed with the default separation of 2.
        g.place(ParticleId(2), GridCoord::new(6, 4)).unwrap();
        assert_eq!(g.particle_count(), 2);
    }

    #[test]
    fn duplicate_ids_and_out_of_bounds_are_rejected() {
        let mut g = grid();
        g.place(ParticleId(1), GridCoord::new(0, 0)).unwrap();
        assert!(g.place(ParticleId(1), GridCoord::new(8, 8)).is_err());
        assert!(matches!(
            g.place(ParticleId(2), GridCoord::new(16, 0)),
            Err(ManipulationError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn step_moves_one_electrode_at_a_time() {
        let mut g = grid();
        g.place(ParticleId(1), GridCoord::new(4, 4)).unwrap();
        g.step(ParticleId(1), GridCoord::new(5, 4)).unwrap();
        g.step(ParticleId(1), GridCoord::new(5, 5)).unwrap();
        assert_eq!(g.position(ParticleId(1)).unwrap(), GridCoord::new(5, 5));
        // Jumping two electrodes is not a physical cage move.
        assert!(g.step(ParticleId(1), GridCoord::new(8, 5)).is_err());
        // Staying put is allowed.
        g.step(ParticleId(1), GridCoord::new(5, 5)).unwrap();
    }

    #[test]
    fn step_respects_separation_from_other_cages() {
        let mut g = grid();
        g.place(ParticleId(1), GridCoord::new(4, 4)).unwrap();
        g.place(ParticleId(2), GridCoord::new(7, 4)).unwrap();
        // Moving particle 1 next to particle 2 would merge the cages.
        assert!(g.step(ParticleId(1), GridCoord::new(5, 4)).is_ok());
        assert!(g.step(ParticleId(1), GridCoord::new(6, 4)).is_err());
    }

    #[test]
    fn remove_frees_the_site() {
        let mut g = grid();
        g.place(ParticleId(1), GridCoord::new(4, 4)).unwrap();
        assert_eq!(g.remove(ParticleId(1)).unwrap(), GridCoord::new(4, 4));
        assert!(g.remove(ParticleId(1)).is_err());
        // The site is free again.
        g.place(ParticleId(2), GridCoord::new(4, 4)).unwrap();
    }

    #[test]
    fn pattern_round_trip() {
        let mut g = grid();
        g.place(ParticleId(1), GridCoord::new(2, 2)).unwrap();
        g.place(ParticleId(2), GridCoord::new(8, 8)).unwrap();
        let pattern = g.to_pattern();
        assert_eq!(pattern.cage_count(), 2);

        let mut g2 = CageGrid::new(GridDims::square(16));
        for (k, site) in pattern.cage_sites().iter().enumerate() {
            g2.place(ParticleId(100 + k as u64), *site).unwrap();
        }
        assert_eq!(g2.particle_count(), 2);
        assert_eq!(g2.to_pattern(), pattern);
    }

    #[test]
    fn custom_separation() {
        let mut g = CageGrid::with_separation(GridDims::square(16), 3);
        g.place(ParticleId(1), GridCoord::new(4, 4)).unwrap();
        assert!(g.place(ParticleId(2), GridCoord::new(6, 4)).is_err());
        assert!(g.place(ParticleId(2), GridCoord::new(7, 4)).is_ok());
    }

    #[test]
    #[should_panic(expected = "separation")]
    fn zero_separation_rejected() {
        let _ = CageGrid::with_separation(GridDims::square(8), 0);
    }
}
