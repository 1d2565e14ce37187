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
use std::collections::btree_map::{BTreeMap, Entry};

/// Identifier of a tracked particle (cell or bead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ParticleId(pub u64);

/// Occupancy and geometry of the cage layer.
///
/// Particles are stored in an ordered map keyed by id, so every iteration —
/// [`CageGrid::iter_particles`] included — is deterministic (ascending id)
/// without collecting and sorting first.
///
/// A sparse index of the occupied cells answers the separation test from
/// the cells near a site, so placing or stepping a particle costs
/// `O(separation · log particles)` instead of a walk over every particle.
/// It is derived from the particles: it is not serialized, and decoding
/// rebuilds it. Decoding also rejects a zero separation and any particle
/// outside `dims`, which no constructor can produce.
#[derive(Debug, Clone, PartialEq)]
pub struct CageGrid {
    dims: GridDims,
    min_separation: u32,
    particles: BTreeMap<u64, GridCoord>,
    /// How many particles sit on each occupied cell, keyed `(y, x)` so a
    /// row segment is one range. Merged particles share a cell.
    cells: BTreeMap<(u32, u32), u32>,
}

impl Serialize for CageGrid {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("dims", self.dims.to_value());
        map.insert("min_separation", self.min_separation.to_value());
        map.insert("particles", self.particles.to_value());
        serde::Value::Object(map)
    }
}

impl<'de> Deserialize<'de> for CageGrid {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        // The serialized fields, decoded as derived under the same name.
        #[derive(Deserialize)]
        struct CageGrid {
            dims: GridDims,
            min_separation: u32,
            particles: BTreeMap<u64, GridCoord>,
        }
        let fields: CageGrid = Deserialize::from_value(value)?;
        let dims = fields.dims;
        if fields.min_separation == 0 {
            return Err(serde::Error::custom("CageGrid: min_separation is 0"));
        }
        let mut grid = Self::with_separation(dims, fields.min_separation);
        for (id, &pos) in &fields.particles {
            if !dims.contains(pos) {
                return Err(serde::Error::custom(format!(
                    "CageGrid: particle {id} at {pos} lies outside the {dims} grid"
                )));
            }
            grid.occupy(pos);
        }
        grid.particles = fields.particles;
        Ok(grid)
    }
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
            cells: BTreeMap::new(),
        }
    }

    fn occupy(&mut self, c: GridCoord) {
        *self.cells.entry((c.y, c.x)).or_insert(0) += 1;
    }

    fn vacate(&mut self, c: GridCoord) {
        if let Entry::Occupied(mut cell) = self.cells.entry((c.y, c.x)) {
            *cell.get_mut() -= 1;
            if *cell.get() == 0 {
                cell.remove();
            }
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
        let Some(reach) = self.min_separation.checked_sub(1) else {
            return true;
        };
        // Where the distinct ignored particles sit: each one discounts a
        // particle of its cell.
        let ignored: Vec<GridCoord> = ignoring
            .iter()
            .enumerate()
            .filter(|&(k, id)| !ignoring[..k].contains(id))
            .filter_map(|(_, id)| self.particles.get(&id.0).copied())
            .collect();
        let (x0, x1) = (coord.x.saturating_sub(reach), coord.x.saturating_add(reach));
        let (y0, y1) = (coord.y.saturating_sub(reach), coord.y.saturating_add(reach));
        let clear = |(&(y, x), &count): (&(u32, u32), &u32)| {
            let here = ignored.iter().filter(|c| c.x == x && c.y == y).count();
            x < x0 || x > x1 || count as usize <= here
        };
        if (y1 - y0) as usize >= self.cells.len() {
            // A zone with more rows than the index has cells: one pass
            // over the band of rows instead of a range per row.
            self.cells.range((y0, 0)..=(y1, u32::MAX)).all(clear)
        } else {
            (y0..=y1).all(|y| self.cells.range((y, x0)..=(y, x1)).all(clear))
        }
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
        self.occupy(coord);
        Ok(())
    }

    /// Removes a particle (e.g. recovered through the outlet).
    ///
    /// # Errors
    ///
    /// Returns [`ManipulationError::UnknownParticle`] for an untracked id.
    pub fn remove(&mut self, id: ParticleId) -> Result<GridCoord, ManipulationError> {
        let pos = self
            .particles
            .remove(&id.0)
            .ok_or(ManipulationError::UnknownParticle { id: id.0 })?;
        self.vacate(pos);
        Ok(pos)
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
        self.vacate(from);
        self.occupy(to);
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
        if let Some(old) = self.particles.insert(id.0, coord) {
            self.vacate(old);
        }
        self.occupy(coord);
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

    #[test]
    fn decoding_rejects_a_zero_separation_and_an_off_grid_particle() {
        let mut grid = grid();
        grid.place(ParticleId(3), GridCoord::new(4, 5)).unwrap();
        let json = serde_json::to_string(&grid);
        let decode = |edited: String| serde_json::from_str::<CageGrid>(&edited).unwrap_err();
        let error = decode(json.replace("\"min_separation\":2", "\"min_separation\":0"));
        assert!(error.to_string().contains("min_separation"), "{error}");
        let error = decode(json.replace("\"x\":4", "\"x\":16"));
        assert!(
            error.to_string().contains("particle 3 at (16, 5)"),
            "{error}"
        );
    }

    use proptest::prelude::{prop_oneof, Just};

    /// The separation test as a walk over every particle: the reference
    /// the cell index must match.
    fn is_free_for_linear(grid: &CageGrid, coord: GridCoord, ignoring: &[ParticleId]) -> bool {
        grid.dims.contains(coord)
            && grid.particles.iter().all(|(id, pos)| {
                ignoring.iter().any(|ig| ig.0 == *id) || pos.chebyshev(coord) >= grid.min_separation
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// After every `place`, `remove`, `step` and `place_merged` of a
        /// random sequence, the indexed `is_free_for` answers exactly as
        /// the walk over every particle, on every cell, with and without
        /// ignored ids (repeated, unknown and merged ones included); a
        /// JSON round trip rebuilds the same grid.
        #[test]
        fn indexed_is_free_for_matches_a_linear_scan(
            side in 1u32..11,
            sep in prop_oneof![1u32..5, Just(u32::MAX)],
            ops in proptest::collection::vec((0u8..4, 0u64..8, 0u32..12, 0u32..12), 0..40),
            ignoring in proptest::collection::vec(0u64..10, 0..4),
        ) {
            let mut grid = CageGrid::with_separation(GridDims::square(side), sep);
            let ignoring: Vec<ParticleId> = ignoring.into_iter().map(ParticleId).collect();
            for (kind, id, x, y) in ops {
                let (id, c) = (ParticleId(id), GridCoord::new(x, y));
                match kind {
                    0 => drop(grid.place(id, c)),
                    1 => drop(grid.remove(id)),
                    2 => {
                        if let Ok(from) = grid.position(id) {
                            let to = from.offset(x as i32 % 3 - 1, y as i32 % 3 - 1).unwrap_or(from);
                            drop(grid.step(id, to));
                        }
                    }
                    _ => {
                        if grid.dims.contains(c) {
                            grid.place_merged(id, c);
                        }
                    }
                }
                for c in GridDims::new(side + 1, side + 1).iter() {
                    for ignored in [&[][..], &ignoring[..]] {
                        proptest::prop_assert_eq!(
                            grid.is_free_for(c, ignored),
                            is_free_for_linear(&grid, c, ignored),
                            "cell {} ignoring {:?} in {:?}", c, ignored, grid
                        );
                    }
                }
            }
            let json = serde_json::to_string(&grid);
            let decoded: CageGrid = serde_json::from_str(&json).unwrap();
            proptest::prop_assert_eq!(&decoded, &grid);
        }
    }
}
