//! The assembled biochip: array + chamber + packaging + medium + readout.

use crate::error::ChipError;
use labchip_array::addressing::ProgrammingInterface;
use labchip_array::chip::ActuatorArray;
use labchip_array::pattern::CagePattern;
use labchip_array::pixel::SensorSite;
use labchip_array::power::PowerModel;
use labchip_array::technology::TechnologyNode;
use labchip_fluidics::chamber::Microchamber;
use labchip_fluidics::packaging::PackagingStack;
use labchip_physics::dep::{DepForceModel, TrapAnalysis};
use labchip_physics::field::cache::FieldCache;
use labchip_physics::field::superposition::SuperpositionField;
use labchip_physics::field::{ElectrodePhase, FieldModel};
use labchip_physics::levitation::LevitationSolver;
use labchip_physics::medium::Medium;
use labchip_physics::particle::Particle;
use labchip_sensing::capacitive::CapacitiveSensor;
use labchip_sensing::scan::ScanTiming;
use labchip_units::{GridCoord, GridDims, Hertz, Meters, Newtons, Seconds, Volts, Watts};
use serde::{Deserialize, Serialize};

/// A fully assembled biochip system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Biochip {
    array: ActuatorArray,
    chamber: Microchamber,
    packaging: PackagingStack,
    medium: Medium,
    drive_frequency: Hertz,
    programming: ProgrammingInterface,
    scan_timing: ScanTiming,
    reference_particle: Particle,
}

/// Builder for a [`Biochip`].
#[derive(Debug, Clone)]
pub struct BiochipBuilder {
    dims: GridDims,
    technology: TechnologyNode,
    pitch: Option<Meters>,
    chamber: Microchamber,
    packaging: PackagingStack,
    medium: Medium,
    drive_frequency: Hertz,
    programming: ProgrammingInterface,
    scan_timing: ScanTiming,
    reference_particle: Particle,
    sensors: SensorSite,
    use_io_drivers: bool,
}

impl BiochipBuilder {
    /// Starts a builder with the DATE'05 reference defaults.
    pub fn new() -> Self {
        Self {
            dims: GridDims::new(320, 320),
            technology: TechnologyNode::cmos_350nm(),
            pitch: Some(Meters::from_micrometers(20.0)),
            chamber: Microchamber::date05_reference(),
            packaging: PackagingStack::date05_reference(),
            medium: Medium::physiological_low_conductivity(),
            drive_frequency: Hertz::from_kilohertz(10.0),
            programming: ProgrammingInterface::date05_reference(),
            scan_timing: ScanTiming::date05_reference(),
            reference_particle: Particle::viable_cell(Meters::from_micrometers(10.0)),
            sensors: SensorSite::Capacitive,
            use_io_drivers: false,
        }
    }

    /// Sets the array dimensions.
    pub fn dims(mut self, dims: GridDims) -> Self {
        self.dims = dims;
        self
    }

    /// Sets the technology node.
    pub fn technology(mut self, technology: TechnologyNode) -> Self {
        self.technology = technology;
        self
    }

    /// Sets an explicit electrode pitch (defaults to the node's cell-sized
    /// pitch).
    pub fn pitch(mut self, pitch: Meters) -> Self {
        self.pitch = Some(pitch);
        self
    }

    /// Sets the suspension medium.
    pub fn medium(mut self, medium: Medium) -> Self {
        self.medium = medium;
        self
    }

    /// Sets the DEP drive frequency.
    pub fn drive_frequency(mut self, frequency: Hertz) -> Self {
        self.drive_frequency = frequency;
        self
    }

    /// Sets the reference particle used by cage analyses.
    pub fn reference_particle(mut self, particle: Particle) -> Self {
        self.reference_particle = particle;
        self
    }

    /// Enables thick-oxide I/O drivers for the electrode drive.
    pub fn io_drivers(mut self, enabled: bool) -> Self {
        self.use_io_drivers = enabled;
        self
    }

    /// Sets the embedded sensor type.
    pub fn sensors(mut self, sensors: SensorSite) -> Self {
        self.sensors = sensors;
        self
    }

    /// Sets the microchamber.
    pub fn chamber(mut self, chamber: Microchamber) -> Self {
        self.chamber = chamber;
        self
    }

    /// Assembles the biochip.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::Configuration`] when the grid is empty or the
    /// packaging stack is inconsistent with the chamber, or
    /// [`ChipError::Fluidics`] when the stack itself is invalid.
    pub fn build(self) -> Result<Biochip, ChipError> {
        if self.dims.count() == 0 {
            return Err(ChipError::Configuration {
                reason: format!("a {} array has no electrode", self.dims),
            });
        }
        self.packaging.validate()?;
        let chamber_height = self.packaging.chamber_height();
        if (chamber_height.get() - self.chamber.height.get()).abs() > 1e-9 {
            return Err(ChipError::Configuration {
                reason: format!(
                    "packaging spacer ({:.0} um) and chamber height ({:.0} um) disagree",
                    chamber_height.as_micrometers(),
                    self.chamber.height.as_micrometers()
                ),
            });
        }
        let pitch = self.pitch.unwrap_or_else(|| {
            self.technology
                .electrode_pitch_for_cells(Meters::from_micrometers(25.0))
        });
        let mut array =
            ActuatorArray::with_geometry(self.dims, self.technology, pitch, chamber_height);
        array.install_sensors(self.sensors);
        array.set_io_drivers(self.use_io_drivers);
        Ok(Biochip {
            array,
            chamber: self.chamber,
            packaging: self.packaging,
            medium: self.medium,
            drive_frequency: self.drive_frequency,
            programming: self.programming,
            scan_timing: self.scan_timing,
            reference_particle: self.reference_particle,
        })
    }
}

impl Default for BiochipBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Summary of the trap programmed at one cage site.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CageSummary {
    /// Whether the site is a genuine trap for the reference particle
    /// (negative DEP, positive stiffness, stable levitation).
    pub is_trap: bool,
    /// Lateral holding force of the cage.
    pub holding_force: Newtons,
    /// Lateral stiffness (N/m).
    pub lateral_stiffness: f64,
    /// Levitation height of the reference particle, if it levitates.
    pub levitation_height: Option<Meters>,
}

impl Biochip {
    /// The paper's reference system: 320×320 electrodes at 20 µm pitch in
    /// 0.35 µm CMOS, 80 µm chamber under an ITO glass lid, low-conductivity
    /// buffer, 10 kHz drive, capacitive sensors.
    pub fn date05_reference() -> Self {
        BiochipBuilder::new()
            .build()
            .expect("the reference configuration is always valid")
    }

    /// A small chip (used by examples and tests that do not need 100k
    /// electrodes): 32×32 electrodes, same technology and stack.
    pub fn small_reference(side: u32) -> Self {
        BiochipBuilder::new()
            .dims(GridDims::square(side))
            .build()
            .expect("the reference configuration is always valid")
    }

    /// The actuation array.
    pub fn array(&self) -> &ActuatorArray {
        &self.array
    }

    /// Mutable access to the actuation array.
    pub fn array_mut(&mut self) -> &mut ActuatorArray {
        &mut self.array
    }

    /// The microchamber.
    pub fn chamber(&self) -> &Microchamber {
        &self.chamber
    }

    /// The packaging stack.
    pub fn packaging(&self) -> &PackagingStack {
        &self.packaging
    }

    /// The suspension medium.
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// The DEP drive frequency.
    pub fn drive_frequency(&self) -> Hertz {
        self.drive_frequency
    }

    /// The programming interface.
    pub fn programming(&self) -> &ProgrammingInterface {
        &self.programming
    }

    /// The sensor scan timing.
    pub fn scan_timing(&self) -> &ScanTiming {
        &self.scan_timing
    }

    /// The reference particle used for cage analyses.
    pub fn reference_particle(&self) -> &Particle {
        &self.reference_particle
    }

    /// The electrode drive amplitude.
    pub fn drive_voltage(&self) -> Volts {
        self.array.drive_voltage()
    }

    /// The per-electrode capacitive sensing channel implied by the geometry.
    pub fn capacitive_sensor(&self) -> CapacitiveSensor {
        CapacitiveSensor {
            electrode_size: self.array.pitch(),
            chamber_height: self.array.chamber_height(),
            particle_radius: self.reference_particle.radius,
            ..CapacitiveSensor::date05_reference()
        }
    }

    /// Programs a cage pattern onto the array.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::Array`] when the pattern does not fit the array.
    pub fn program_pattern(&mut self, pattern: &CagePattern) -> Result<(), ChipError> {
        pattern.apply_to(&mut self.array)?;
        Ok(())
    }

    /// Programs a single cage at the given electrode.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::Array`] for an out-of-range coordinate.
    pub fn program_single_cage(&mut self, at: GridCoord) -> Result<(), ChipError> {
        self.array.reset();
        self.array.set_phase(at, ElectrodePhase::CounterPhase)?;
        Ok(())
    }

    /// Number of cages currently programmed.
    pub fn cage_count(&self) -> usize {
        self.array.counter_phase_count()
    }

    /// Builds the fast field model for the current array state.
    pub fn field_model(&self) -> SuperpositionField {
        SuperpositionField::new(self.array.to_electrode_plane())
    }

    /// Samples the current field onto a [`FieldCache`] lattice for bulk
    /// particle stepping. See the cache module docs for the direct-vs-cached
    /// trade-off; after reprogramming, call this again for a new cache.
    pub fn field_cache(&self) -> FieldCache {
        FieldCache::build(&self.field_model())
    }

    /// The DEP force model of the reference particle in this chip's medium
    /// and drive.
    pub fn dep_model(&self) -> DepForceModel {
        DepForceModel::new(&self.reference_particle, &self.medium, self.drive_frequency)
    }

    /// Time to reprogram the whole array once.
    pub fn frame_program_time(&self) -> Seconds {
        self.programming.full_frame_time(self.array.dims())
    }

    /// Time to scan the whole sensor array once.
    pub fn frame_scan_time(&self) -> Seconds {
        self.scan_timing.frame_time(self.array.dims())
    }

    /// Total chip power at the current drive frequency.
    pub fn total_power(&self) -> Watts {
        PowerModel::new(self.drive_frequency).total_power(&self.array)
    }

    /// Analyses the cage programmed at `site` for the reference particle.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::Configuration`] when the site is not programmed
    /// as a cage, and [`ChipError::Array`] for out-of-range coordinates.
    pub fn cage_summary(&self, site: GridCoord) -> Result<CageSummary, ChipError> {
        if self.array.phase(site)? != ElectrodePhase::CounterPhase {
            return Err(ChipError::Configuration {
                reason: format!("electrode {site} is not programmed as a cage"),
            });
        }
        let field = self.field_model();
        let dep = self.dep_model();
        let pitch = self.array.pitch().get();
        let center = self.array.to_electrode_plane().electrode_center(site);
        let seed = labchip_units::Vec3::new(center.x, center.y, 1.2 * pitch);
        let chamber_height = self.array.chamber_height().get();
        let analysis = TrapAnalysis::analyze(
            &field,
            &dep,
            seed,
            pitch,
            (0.4 * pitch, chamber_height - 0.4 * pitch),
        );

        let levitation = LevitationSolver::new(
            &self.reference_particle,
            &self.medium,
            self.drive_frequency,
            Meters::new(self.reference_particle.radius.get() * 1.05),
            Meters::new(chamber_height - self.reference_particle.radius.get() * 1.05),
        )
        .solve(&field, (center.x, center.y));

        let is_trap = dep.is_negative_dep()
            && analysis.lateral_stiffness > 0.0
            && analysis.holding_force.get() > 0.0
            && levitation.is_some();

        Ok(CageSummary {
            is_trap,
            holding_force: analysis.holding_force,
            lateral_stiffness: analysis.lateral_stiffness,
            levitation_height: levitation.map(|p| p.height),
        })
    }

    /// Mean field magnitude |E| at mid-chamber height above the given
    /// electrode — a convenience probe used by examples and experiments.
    pub fn field_at_mid_height(&self, site: GridCoord) -> Result<f64, ChipError> {
        if !self.array.dims().contains(site) {
            return Err(ChipError::Array(labchip_array::ArrayError::OutOfBounds {
                coord: site,
                cols: self.array.dims().cols,
                rows: self.array.dims().rows,
            }));
        }
        let field = self.field_model();
        let center = self.array.to_electrode_plane().electrode_center(site);
        let probe =
            labchip_units::Vec3::new(center.x, center.y, 0.5 * self.array.chamber_height().get());
        Ok(field.e_squared(probe).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_chip_matches_paper_headline_numbers() {
        let chip = Biochip::date05_reference();
        assert!(chip.array().electrode_count() > 100_000);
        assert_eq!(chip.drive_voltage(), Volts::new(3.3));
        let vol = chip.chamber().volume().as_microliters();
        assert!(vol > 3.0 && vol < 5.0);
        assert!(chip.frame_program_time().as_millis() < 2.0);
        assert!(chip.total_power().as_milliwatts() < 200.0);
    }

    #[test]
    fn builder_rejects_inconsistent_chamber_and_packaging() {
        let chamber = Microchamber::new(
            Meters::from_millimeters(7.0),
            Meters::from_millimeters(7.0),
            Meters::from_micrometers(200.0),
        )
        .unwrap();
        let result = BiochipBuilder::new().chamber(chamber).build();
        assert!(matches!(result, Err(ChipError::Configuration { .. })));
    }

    #[test]
    fn single_cage_is_a_trap_for_a_viable_cell() {
        let mut chip = Biochip::small_reference(16);
        chip.program_single_cage(GridCoord::new(8, 8)).unwrap();
        assert_eq!(chip.cage_count(), 1);
        let summary = chip.cage_summary(GridCoord::new(8, 8)).unwrap();
        assert!(summary.is_trap);
        assert!(summary.holding_force.as_piconewtons() > 0.1);
        assert!(summary.lateral_stiffness > 0.0);
        let height = summary.levitation_height.expect("cell should levitate");
        assert!(height.as_micrometers() > 10.0 && height.as_micrometers() < 80.0);
    }

    #[test]
    fn cage_summary_requires_a_programmed_cage() {
        let chip = Biochip::small_reference(16);
        assert!(matches!(
            chip.cage_summary(GridCoord::new(8, 8)),
            Err(ChipError::Configuration { .. })
        ));
    }

    #[test]
    fn program_pattern_counts_cages() {
        use labchip_array::pattern::CagePattern;
        let mut chip = Biochip::small_reference(16);
        let pattern = CagePattern::standard_lattice(chip.array().dims()).unwrap();
        chip.program_pattern(&pattern).unwrap();
        assert_eq!(chip.cage_count(), pattern.cage_count());
    }

    #[test]
    fn io_drivers_change_drive_voltage() {
        let chip = BiochipBuilder::new()
            .dims(GridDims::square(16))
            .technology(TechnologyNode::cmos_180nm())
            .io_drivers(true)
            .build()
            .unwrap();
        assert_eq!(chip.drive_voltage(), Volts::new(3.3));
    }

    #[test]
    fn field_probe_is_positive_inside_the_array() {
        let mut chip = Biochip::small_reference(16);
        chip.program_single_cage(GridCoord::new(8, 8)).unwrap();
        let e = chip.field_at_mid_height(GridCoord::new(8, 8)).unwrap();
        assert!(e > 1e3, "field = {e} V/m");
        assert!(chip.field_at_mid_height(GridCoord::new(40, 0)).is_err());
    }
}
