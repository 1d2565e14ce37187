//! The force-feasibility envelope of cage motion.

use crate::biochip::Biochip;
use labchip_physics::dep::TrapAnalysis;
use labchip_physics::drag::StokesDrag;
use labchip_units::{GridCoord, MetersPerSecond, Newtons};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The force-feasibility envelope of cage motion: how fast a cage may be
/// stepped before the trapped cell falls out of the moving potential well.
///
/// Derived once per workload from the cached field engine: the DEP holding
/// force of a reference cage (sampled on a
/// [`FieldCache`](labchip_physics::field::cache::FieldCache) lattice)
/// balanced against Stokes drag gives the maximum speed at which the cell
/// still follows; every planned move is then a cheap comparison against the
/// envelope.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForceEnvelope {
    /// Maximum lateral restoring force of the reference cage.
    pub holding_force: Newtons,
    /// Maximum cage speed the holding force can drag a cell at.
    pub max_speed: MetersPerSecond,
    /// Electrode pitch of the array the envelope was derived for — one
    /// cage move covers exactly this distance.
    pub pitch: labchip_units::Meters,
}

impl ForceEnvelope {
    /// Builds the envelope for a chip's reference particle, medium and
    /// drive, probing a single cage at the centre of a small replica array
    /// through the cached field engine.
    pub fn from_reference_cage(side: u32) -> Self {
        let mut chip = Biochip::small_reference(side.max(8));
        let site = GridCoord::new(chip.array().dims().cols / 2, chip.array().dims().rows / 2);
        chip.program_single_cage(site)
            .expect("centre electrode exists");

        let cache = chip.field_cache();
        let dep = chip.dep_model();
        let pitch = chip.array().pitch().get();
        let center = chip.array().to_electrode_plane().electrode_center(site);
        let seed = labchip_units::Vec3::new(center.x, center.y, 1.2 * pitch);
        let chamber = chip.array().chamber_height().get();
        let analysis = TrapAnalysis::analyze(
            &cache,
            &dep,
            seed,
            pitch,
            (0.4 * pitch, chamber - 0.4 * pitch),
        );

        let drag = StokesDrag::new(chip.reference_particle(), chip.medium());
        Self {
            holding_force: analysis.holding_force,
            max_speed: drag.terminal_velocity(analysis.holding_force),
            pitch: chip.array().pitch(),
        }
    }

    /// The paper's reference envelope (20 µm pitch, 3.3 V, viable cell).
    /// It is a pure function of the code, so it is derived once per
    /// process and copied out on every later call.
    pub fn date05_reference() -> Self {
        static REFERENCE: OnceLock<ForceEnvelope> = OnceLock::new();
        *REFERENCE.get_or_init(|| Self::from_reference_cage(16))
    }

    /// Whether a cage step at `speed` keeps the cell trapped.
    pub fn permits(&self, speed: MetersPerSecond) -> bool {
        speed <= self.max_speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_is_physical() {
        let envelope = ForceEnvelope::date05_reference();
        // Tens of piconewtons of holding force, and a max speed comfortably
        // above the paper's 10–100 µm/s operating range.
        assert!(envelope.holding_force.get() > 1e-13);
        assert!(envelope.max_speed.as_micrometers_per_second() > 100.0);
        assert!(envelope.permits(MetersPerSecond::from_micrometers_per_second(50.0)));
        assert!(!envelope.permits(MetersPerSecond::new(1.0)));
    }
}
