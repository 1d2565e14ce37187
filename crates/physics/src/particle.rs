//! Particle (bead and cell) models.
//!
//! The paper's chip manipulates individual biological cells (20–30 µm) and,
//! during development, polystyrene calibration beads. For DEP the particle is
//! characterised by its radius, mass density and effective complex
//! permittivity; biological cells are modelled with the standard
//! **single-shell model** (insulating membrane around a conductive
//! cytoplasm).

use crate::complex::Complex;
use crate::dielectric::{clausius_mossotti, ComplexPermittivity};
use crate::medium::Medium;
use labchip_units::{
    Hertz, Kilograms, KilogramsPerCubicMeter, Meters, CELL_DENSITY, POLYSTYRENE_DENSITY,
};
use serde::{Deserialize, Serialize};

/// Dielectric description of a particle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ParticleKind {
    /// A homogeneous dielectric sphere (e.g. a polystyrene bead).
    Homogeneous {
        /// Relative permittivity of the bulk material.
        relative_permittivity: f64,
        /// Bulk conductivity in S/m (including surface conductance effects).
        conductivity: f64,
    },
    /// A single-shell model of a biological cell: conductive cytoplasm
    /// surrounded by a thin, poorly conducting membrane.
    ShelledCell(ShellModel),
}

/// Parameters of the single-shell cell model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShellModel {
    /// Membrane thickness.
    pub membrane_thickness: Meters,
    /// Relative permittivity of the membrane.
    pub membrane_permittivity: f64,
    /// Conductivity of the membrane in S/m.
    pub membrane_conductivity: f64,
    /// Relative permittivity of the cytoplasm.
    pub cytoplasm_permittivity: f64,
    /// Conductivity of the cytoplasm in S/m.
    pub cytoplasm_conductivity: f64,
}

impl ShellModel {
    /// Typical viable mammalian cell: intact, highly insulating membrane
    /// (σ ≈ 10⁻⁷ S/m) over a conductive cytoplasm (σ ≈ 0.4 S/m).
    pub fn viable_mammalian() -> Self {
        Self {
            membrane_thickness: Meters::from_nanometers(7.0),
            membrane_permittivity: 6.0,
            membrane_conductivity: 1e-7,
            cytoplasm_permittivity: 60.0,
            cytoplasm_conductivity: 0.4,
        }
    }

    /// Non-viable (membrane-compromised) cell: the membrane has become
    /// permeable, raising its effective conductivity by orders of magnitude.
    /// This is the dielectric signature used to discriminate live from dead
    /// cells on DEP chips.
    pub fn nonviable_mammalian() -> Self {
        Self {
            membrane_conductivity: 1e-3,
            ..Self::viable_mammalian()
        }
    }

    /// Effective complex permittivity of the shelled sphere of outer radius
    /// `radius` at angular frequency `omega` (rad/s), using the standard
    /// single-shell reduction.
    pub fn effective_permittivity(&self, radius: Meters, omega: f64) -> ComplexPermittivity {
        let r_out = radius.get();
        let r_in = (radius.get() - self.membrane_thickness.get()).max(radius.get() * 1e-3);
        let gamma = r_out / r_in;
        let eps_mem = ComplexPermittivity::new(
            self.membrane_permittivity,
            self.membrane_conductivity,
            omega,
        )
        .value();
        let eps_cyt = ComplexPermittivity::new(
            self.cytoplasm_permittivity,
            self.cytoplasm_conductivity,
            omega,
        )
        .value();
        let k1 = (eps_cyt - eps_mem) / (eps_cyt + eps_mem * 2.0);
        let g3 = Complex::from_real(gamma.powi(3));
        let eff = eps_mem * ((g3 + k1 * 2.0) / (g3 - k1));
        ComplexPermittivity::from_complex(eff)
    }
}

/// A spherical particle suspended in the chamber.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Particle {
    /// Radius of the (outer) sphere.
    pub radius: Meters,
    /// Mass density.
    pub density: KilogramsPerCubicMeter,
    /// Dielectric model.
    pub kind: ParticleKind,
}

impl Particle {
    /// Creates a particle from its parts.
    pub fn new(radius: Meters, density: KilogramsPerCubicMeter, kind: ParticleKind) -> Self {
        Self {
            radius,
            density,
            kind,
        }
    }

    /// A viable mammalian cell of the given radius (density ≈ 1050 kg/m³).
    pub fn viable_cell(radius: Meters) -> Self {
        Self {
            radius,
            density: KilogramsPerCubicMeter::new(CELL_DENSITY),
            kind: ParticleKind::ShelledCell(ShellModel::viable_mammalian()),
        }
    }

    /// A non-viable (membrane-compromised) mammalian cell.
    pub fn nonviable_cell(radius: Meters) -> Self {
        Self {
            radius,
            density: KilogramsPerCubicMeter::new(CELL_DENSITY),
            kind: ParticleKind::ShelledCell(ShellModel::nonviable_mammalian()),
        }
    }

    /// A polystyrene calibration bead of the given radius.
    pub fn polystyrene_bead(radius: Meters) -> Self {
        Self {
            radius,
            density: KilogramsPerCubicMeter::new(POLYSTYRENE_DENSITY),
            kind: ParticleKind::Homogeneous {
                relative_permittivity: 2.55,
                conductivity: 2e-4,
            },
        }
    }

    /// Particle volume.
    #[inline]
    pub fn volume(&self) -> f64 {
        4.0 / 3.0 * std::f64::consts::PI * self.radius.get().powi(3)
    }

    /// Particle mass.
    #[inline]
    pub fn mass(&self) -> Kilograms {
        Kilograms::new(self.volume() * self.density.get())
    }

    /// Effective complex permittivity at angular frequency `omega` (rad/s).
    pub fn effective_permittivity(&self, omega: f64) -> ComplexPermittivity {
        match self.kind {
            ParticleKind::Homogeneous {
                relative_permittivity,
                conductivity,
            } => ComplexPermittivity::new(relative_permittivity, conductivity, omega),
            ParticleKind::ShelledCell(shell) => shell.effective_permittivity(self.radius, omega),
        }
    }

    /// Clausius–Mossotti factor of this particle in `medium` at drive
    /// frequency `frequency`.
    pub fn clausius_mossotti(&self, medium: &Medium, frequency: Hertz) -> Complex {
        let omega = frequency.angular();
        clausius_mossotti(
            self.effective_permittivity(omega),
            medium.complex_permittivity(omega),
        )
    }

    /// Real part of the Clausius–Mossotti factor (the quantity the DEP force
    /// scales with).
    pub fn cm_re(&self, medium: &Medium, frequency: Hertz) -> f64 {
        self.clausius_mossotti(medium, frequency).re
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labchip_units::Hertz;

    fn low_cond_medium() -> Medium {
        Medium::physiological_low_conductivity()
    }

    #[test]
    fn viable_cell_is_negative_dep_at_low_frequency() {
        // Below ~50 kHz the intact membrane insulates the cell: nDEP.
        let cell = Particle::viable_cell(Meters::from_micrometers(10.0));
        let k = cell.cm_re(&low_cond_medium(), Hertz::from_kilohertz(10.0));
        assert!(k < 0.0, "expected nDEP, got K = {k}");
    }

    #[test]
    fn viable_cell_turns_positive_dep_at_intermediate_frequency() {
        // Between the two crossovers (~100 kHz .. ~100 MHz in low-conductivity
        // buffer) the conductive cytoplasm dominates: pDEP.
        let cell = Particle::viable_cell(Meters::from_micrometers(10.0));
        let k = cell.cm_re(&low_cond_medium(), Hertz::from_megahertz(5.0));
        assert!(k > 0.0, "expected pDEP, got K = {k}");
    }

    #[test]
    fn viable_and_nonviable_cells_differ() {
        // At ~10 kHz the viable/non-viable contrast is large (the intact
        // membrane insulates the viable cell, the leaky membrane of the dead
        // cell does not) — this is what makes DEP useful for viability
        // sorting.
        let viable = Particle::viable_cell(Meters::from_micrometers(10.0));
        let dead = Particle::nonviable_cell(Meters::from_micrometers(10.0));
        let f = Hertz::from_kilohertz(10.0);
        let kv = viable.cm_re(&low_cond_medium(), f);
        let kd = dead.cm_re(&low_cond_medium(), f);
        assert!(kv < 0.0, "viable cell should be nDEP at 10 kHz, got {kv}");
        assert!(
            kd > 0.0,
            "leaky dead cell should be pDEP at 10 kHz, got {kd}"
        );
        assert!((kv - kd).abs() > 0.5, "viable {kv} vs dead {kd}");
    }

    #[test]
    fn polystyrene_bead_is_negative_dep_in_buffer() {
        let bead = Particle::polystyrene_bead(Meters::from_micrometers(5.0));
        let k = bead.cm_re(&low_cond_medium(), Hertz::from_megahertz(1.0));
        assert!(k < 0.0);
        assert!(k > -0.5);
    }

    #[test]
    fn cm_factor_bounded_for_all_presets_and_frequencies() {
        let particles = [
            Particle::viable_cell(Meters::from_micrometers(8.0)),
            Particle::nonviable_cell(Meters::from_micrometers(8.0)),
            Particle::polystyrene_bead(Meters::from_micrometers(3.0)),
        ];
        let media = [
            Medium::deionized_water(),
            Medium::physiological_low_conductivity(),
            Medium::phosphate_buffered_saline(),
        ];
        for p in &particles {
            for m in &media {
                for exp in 3..9 {
                    let f = Hertz::new(10f64.powi(exp));
                    let k = p.cm_re(m, f);
                    assert!(k > -0.5 - 1e-6 && k < 1.0 + 1e-6, "K out of range: {k}");
                }
            }
        }
    }

    #[test]
    fn mass_and_volume_scale_with_radius_cubed() {
        let small = Particle::viable_cell(Meters::from_micrometers(5.0));
        let big = Particle::viable_cell(Meters::from_micrometers(10.0));
        assert!((big.volume() / small.volume() - 8.0).abs() < 1e-9);
        assert!((big.mass().get() / small.mass().get() - 8.0).abs() < 1e-9);
        // A 10 µm-radius cell weighs on the order of a few nanograms.
        assert!(big.mass().as_picograms() > 1_000.0);
    }

    #[test]
    fn cell_mass_exceeds_displaced_water_mass() {
        // Cells are slightly denser than the medium, so they sediment; this
        // is why the DEP cage must levitate them against gravity.
        let cell = Particle::viable_cell(Meters::from_micrometers(10.0));
        let medium = low_cond_medium();
        let displaced = cell.volume() * medium.density.get();
        assert!(cell.mass().get() > displaced);
    }
}
