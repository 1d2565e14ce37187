//! Sampled-lattice field cache for whole-array simulations.
//!
//! [`FieldCache`] samples a [`SuperpositionField`]'s potential, `|E|²` and
//! `∇|E|²` onto a regular 3-D lattice spanning the chamber and answers
//! queries by trilinear interpolation. One query costs eight lattice reads —
//! independent of the electrode cutoff — which is what makes thousand-cage,
//! thousand-particle runs cheap: the kernel sweep is paid once per lattice
//! node instead of once per particle per step.
//!
//! The lattice is sampled once, when the cache is built; a reprogrammed
//! array needs a new cache.
//!
//! Accuracy: values are exact (w.r.t. the analytic model) on lattice nodes
//! and trilinear between them, so the interpolation error is second order in
//! the node spacing. Use direct [`SuperpositionField`] evaluation for
//! accuracy-critical probes (trap stiffness, levitation equilibria); use the
//! cache for bulk particle stepping. See the module docs of
//! [`superposition`](super::superposition) for the full trade-off
//! discussion.

use super::superposition::SuperpositionField;
use super::FieldModel;
use labchip_units::Vec3;
use rayon::prelude::*;

/// Trilinearly interpolated samples of a [`SuperpositionField`].
#[derive(Debug, Clone)]
pub struct FieldCache {
    /// Lattice spacing in x and y (metres).
    spacing_xy: f64,
    /// Lattice spacing in z (metres).
    spacing_z: f64,
    /// Node counts.
    nx: usize,
    ny: usize,
    nz: usize,
    /// Sampled potential, index `x + nx*(y + ny*z)`.
    pot: Vec<f64>,
    /// Sampled `|E|²`.
    e2: Vec<f64>,
    /// Sampled `∇|E|²`.
    grad: Vec<Vec3>,
}

impl FieldCache {
    /// Default lateral sampling density.
    pub const DEFAULT_NODES_PER_PITCH: u32 = 4;
    /// Default number of z levels.
    pub const DEFAULT_Z_LEVELS: u32 = 9;

    /// Samples `field` on a lattice with the default resolution.
    pub fn build(field: &SuperpositionField) -> Self {
        Self::build_with(field, Self::DEFAULT_NODES_PER_PITCH, Self::DEFAULT_Z_LEVELS)
    }

    /// Samples `field` with `nodes_per_pitch` lateral nodes per electrode
    /// pitch and `z_levels` levels spanning the chamber height.
    ///
    /// # Panics
    ///
    /// Panics if `nodes_per_pitch` is zero or `z_levels < 2`.
    pub fn build_with(field: &SuperpositionField, nodes_per_pitch: u32, z_levels: u32) -> Self {
        assert!(nodes_per_pitch > 0, "need at least one node per pitch");
        assert!(z_levels >= 2, "need at least two z levels");
        let plane = field.plane();
        let pitch = plane.pitch().get();
        let dims = plane.dims();
        let nx = dims.cols as usize * nodes_per_pitch as usize + 1;
        let ny = dims.rows as usize * nodes_per_pitch as usize + 1;
        let nz = z_levels as usize;
        let spacing_xy = pitch / nodes_per_pitch as f64;
        let spacing_z = plane.chamber_height().get() / (nz - 1) as f64;
        let node_count = nx * ny * nz;
        let mut cache = Self {
            spacing_xy,
            spacing_z,
            nx,
            ny,
            nz,
            pot: vec![0.0; node_count],
            e2: vec![0.0; node_count],
            grad: vec![Vec3::ZERO; node_count],
        };
        cache.resample(field);
        cache
    }

    /// Node counts in (x, y, z).
    pub fn node_counts(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Samples every lattice node from `field`, in parallel over rows.
    fn resample(&mut self, field: &SuperpositionField) {
        let (nx, ny) = (self.nx, self.ny);
        let (sxy, sz) = (self.spacing_xy, self.spacing_z);
        // One work item per (z, y) row so the rayon chunks stay balanced;
        // row `r` holds the nodes `x + nx*r` with `r = y + ny*z`.
        struct Row<'a> {
            r: usize,
            pot: &'a mut [f64],
            e2: &'a mut [f64],
            grad: &'a mut [Vec3],
        }
        let mut rows: Vec<Row<'_>> = self
            .pot
            .chunks_mut(nx)
            .zip(self.e2.chunks_mut(nx))
            .zip(self.grad.chunks_mut(nx))
            .enumerate()
            .map(|(r, ((pot, e2), grad))| Row { r, pot, e2, grad })
            .collect();
        rows.par_iter_mut().for_each(|row| {
            let y = (row.r % ny) as f64 * sxy;
            let z = (row.r / ny) as f64 * sz;
            for xi in 0..nx {
                let p = Vec3::new(xi as f64 * sxy, y, z);
                let (e2, grad) = field.e_squared_with_gradient(p);
                row.pot[xi] = field.potential(p);
                row.e2[xi] = e2;
                row.grad[xi] = grad;
            }
        });
    }

    #[inline]
    fn node_index(&self, x: usize, y: usize, z: usize) -> usize {
        x + self.nx * (y + self.ny * z)
    }

    /// Trilinear interpolation weights: corner indices plus fractions.
    #[inline]
    fn cell_of(&self, p: Vec3) -> ([usize; 3], [usize; 3], [f64; 3]) {
        let fx = (p.x / self.spacing_xy).clamp(0.0, (self.nx - 1) as f64);
        let fy = (p.y / self.spacing_xy).clamp(0.0, (self.ny - 1) as f64);
        let fz = (p.z / self.spacing_z).clamp(0.0, (self.nz - 1) as f64);
        let x0 = fx as usize;
        let y0 = fy as usize;
        let z0 = fz as usize;
        let x1 = (x0 + 1).min(self.nx - 1);
        let y1 = (y0 + 1).min(self.ny - 1);
        let z1 = (z0 + 1).min(self.nz - 1);
        (
            [x0, y0, z0],
            [x1, y1, z1],
            [fx - x0 as f64, fy - y0 as f64, fz - z0 as f64],
        )
    }

    #[inline]
    fn trilerp_scalar(&self, values: &[f64], p: Vec3) -> f64 {
        let ([x0, y0, z0], [x1, y1, z1], [tx, ty, tz]) = self.cell_of(p);
        let lerp = |a: f64, b: f64, t: f64| a + (b - a) * t;
        let c00 = lerp(
            values[self.node_index(x0, y0, z0)],
            values[self.node_index(x1, y0, z0)],
            tx,
        );
        let c10 = lerp(
            values[self.node_index(x0, y1, z0)],
            values[self.node_index(x1, y1, z0)],
            tx,
        );
        let c01 = lerp(
            values[self.node_index(x0, y0, z1)],
            values[self.node_index(x1, y0, z1)],
            tx,
        );
        let c11 = lerp(
            values[self.node_index(x0, y1, z1)],
            values[self.node_index(x1, y1, z1)],
            tx,
        );
        lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz)
    }

    #[inline]
    fn trilerp_vec(&self, values: &[Vec3], p: Vec3) -> Vec3 {
        let ([x0, y0, z0], [x1, y1, z1], [tx, ty, tz]) = self.cell_of(p);
        let lerp = |a: Vec3, b: Vec3, t: f64| a + (b - a) * t;
        let c00 = lerp(
            values[self.node_index(x0, y0, z0)],
            values[self.node_index(x1, y0, z0)],
            tx,
        );
        let c10 = lerp(
            values[self.node_index(x0, y1, z0)],
            values[self.node_index(x1, y1, z0)],
            tx,
        );
        let c01 = lerp(
            values[self.node_index(x0, y0, z1)],
            values[self.node_index(x1, y0, z1)],
            tx,
        );
        let c11 = lerp(
            values[self.node_index(x0, y1, z1)],
            values[self.node_index(x1, y1, z1)],
            tx,
        );
        lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz)
    }
}

impl FieldModel for FieldCache {
    fn potential(&self, p: Vec3) -> f64 {
        self.trilerp_scalar(&self.pot, p)
    }

    fn differentiation_step(&self) -> f64 {
        self.spacing_xy * 0.5
    }

    fn e_squared(&self, p: Vec3) -> f64 {
        self.trilerp_scalar(&self.e2, p)
    }

    fn grad_e_squared(&self, p: Vec3) -> Vec3 {
        self.trilerp_vec(&self.grad, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{ElectrodePhase, ElectrodePlane};
    use labchip_units::{GridCoord, GridDims, Meters, Volts};

    fn cage_field(n: u32, cage: GridCoord) -> SuperpositionField {
        let mut plane = ElectrodePlane::new(
            GridDims::square(n),
            Meters::from_micrometers(20.0),
            Volts::new(3.3),
            Meters::from_micrometers(80.0),
        );
        plane.set_phase(cage, ElectrodePhase::CounterPhase);
        SuperpositionField::new(plane)
    }

    #[test]
    fn cache_matches_direct_evaluation_on_nodes() {
        let field = cage_field(9, GridCoord::new(4, 4));
        let cache = FieldCache::build_with(&field, 2, 5);
        // Lattice nodes are exact by construction.
        let p = Vec3::new(40e-6, 60e-6, 40e-6);
        assert!((cache.e_squared(p) - field.e_squared(p)).abs() <= 1e-6 * field.e_squared(p));
        assert!((cache.potential(p) - field.potential(p)).abs() < 1e-9);
    }

    #[test]
    fn cache_interpolates_between_nodes_reasonably() {
        let field = cage_field(9, GridCoord::new(4, 4));
        // |E|² decays steeply with z near the cage, so the z resolution
        // dominates the interpolation error; 17 levels = 5 µm spacing.
        let cache = FieldCache::build_with(&field, 4, 17);
        let c = field.plane().electrode_center(GridCoord::new(4, 4));
        for &(dx, dz) in &[(3.1e-6, 27e-6), (-6.7e-6, 41e-6), (11.3e-6, 59e-6)] {
            let p = Vec3::new(c.x + dx, c.y + 2.3e-6, dz);
            let exact = field.e_squared(p);
            let approx = cache.e_squared(p);
            assert!(
                (approx - exact).abs() <= 0.1 * exact.abs().max(1e3),
                "cache {approx:.4e} vs exact {exact:.4e} at {p:?}"
            );
        }
    }

    #[test]
    fn cached_gradient_preserves_trap_restoring_direction() {
        let field = cage_field(9, GridCoord::new(4, 4));
        let cache = FieldCache::build_with(&field, 4, 9);
        let c = field.plane().electrode_center(GridCoord::new(4, 4));
        let p = Vec3::new(c.x + 6e-6, c.y, 30e-6);
        assert!(cache.grad_e_squared(p).x > 0.0);
    }

    #[test]
    fn build_rejects_degenerate_resolutions() {
        let field = cage_field(5, GridCoord::new(2, 2));
        assert!(std::panic::catch_unwind(|| FieldCache::build_with(&field, 0, 5)).is_err());
        assert!(std::panic::catch_unwind(|| FieldCache::build_with(&field, 2, 1)).is_err());
    }
}
