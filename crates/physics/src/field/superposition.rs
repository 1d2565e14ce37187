//! Fast closed-form field approximation by patch superposition, with
//! **analytic gradients**.
//!
//! # Model
//!
//! Each electrode is treated as a square patch on the z = 0 plane held at its
//! programmed signed RMS voltage. The potential at a point inside the chamber
//! is approximated in two steps:
//!
//! 1. the **bottom-plane trace** at height `z` is the normalised half-space
//!    Poisson-kernel average of the nearby patches,
//!    `φ_b(x,y,z) = N/W = Σ_i w_i·V_i / Σ_i w_i` with
//!    `w_i = A_e · z / (2π (ρ_i² + z²)^{3/2})`, which reproduces the lateral
//!    smoothing of the electrode pattern with height;
//! 2. the chamber potential blends linearly towards the lid voltage,
//!    `Φ(p) = (1 − z/h)·φ_b(p) + (z/h)·V_lid`, which is exact for a uniform
//!    electrode pattern (parallel-plate field `2V/h` when the lid is driven in
//!    counter-phase) and keeps the potential bounded by the boundary voltages.
//!
//! The model reproduces the qualitative cage structure — a local minimum of
//! `|E|²` forms above a counter-phase electrode surrounded by in-phase
//! neighbours — and the exact `V²` scaling of `|E|²`. Absolute accuracy is
//! traded for speed; the finite-difference
//! [`LaplaceSolver`](super::laplace::LaplaceSolver) serves as the reference.
//!
//! Patches farther than `cutoff_cells` pitches from the query point are
//! ignored — the kernel decays as `ρ⁻³`, so the truncation error is small and
//! evaluation cost is independent of the array size. This is what makes
//! whole-array (>100,000 electrode) simulations tractable.
//!
//! # Analytic-gradient derivation
//!
//! The DEP force needs `∇|E|²`, i.e. third spatial derivatives of the
//! potential when done by nested finite differences — the seed implementation
//! evaluated the 169-cell kernel sum 36 times per force query. Because every
//! weight `w_i` is a closed-form function of the probe point, all derivatives
//! can instead be accumulated in **one pass** over the cells. With
//! `d = (dx, dy)` the offset from patch centre `i`, `s = dx² + dy² + z²`,
//! and `C = A_e/(2π)`:
//!
//! ```text
//! w    =  C z s^{-3/2}
//! ∂w/∂x = −3 C z dx s^{-5/2}            (same for y)
//! ∂w/∂z =  C (s − 3z²) s^{-5/2}
//! ∂²w/∂x²  = −3 C z (s − 5dx²) s^{-7/2}  (same for y)
//! ∂²w/∂x∂y = 15 C z dx dy s^{-7/2}
//! ∂²w/∂x∂z = −3 C dx (s − 5z²) s^{-7/2}  (same for y,z)
//! ∂²w/∂z²  =  3 C z (5z² − 3s) s^{-7/2}
//! ```
//!
//! (the trace `w_xx + w_yy + w_zz` vanishes: each patch kernel is harmonic
//! above the plane, a useful internal consistency check). The half-integer
//! powers are computed as `s·√s`, `s²·√s`, `s³·√s` — no `powf` in the hot
//! path — and the signed patch voltages are **cached in a flat buffer** at
//! construction, so the inner loop is pure float arithmetic with no enum
//! dispatch.
//!
//! Sums `W, N` and their first/second derivatives then give the quotient
//! `g = φ_b = N/W` via
//!
//! ```text
//! g_a  = (N_a − g W_a) / W
//! g_ab = (N_ab − g_a W_b − g_b W_a − g W_ab) / W
//! ```
//!
//! and the lid blend `Φ = (1 − z/h) g + (z/h) V_lid` contributes
//!
//! ```text
//! Φ_x = (1−t) g_x                Φ_xx = (1−t) g_xx        Φ_xy = (1−t) g_xy
//! Φ_z = (1−t) g_z + (V_lid−g)/h  Φ_xz = (1−t) g_xz − g_x/h
//!                                Φ_zz = (1−t) g_zz − 2 g_z/h
//! ```
//!
//! finally `|E|² = |∇Φ|²` and `∇|E|² = 2 H(Φ) ∇Φ` with `H` the Hessian.
//! The finite-difference path is kept as [`FieldModel::e_squared_fd`] /
//! [`FieldModel::grad_e_squared_fd`] and is the accuracy oracle in the
//! parity tests (`tests/analytic_parity.rs`).
//!
//! # When to use [`FieldCache`](super::cache::FieldCache) instead
//!
//! Direct evaluation costs one kernel sweep (`(2·cutoff+1)²` cells) per
//! query and is exact w.r.t. the model — use it for few particles, for
//! accuracy-sensitive probes (trap analysis, levitation solving), or when
//! the pattern changes every few steps. For whole-array runs with thousands
//! of particles stepping many times between reprograms, sample the field
//! once into a `FieldCache` lattice and pay one trilinear lookup per query;
//! after a reprogram, build a new cache.

use super::{ElectrodePlane, FieldModel};
use labchip_units::Vec3;
use std::ops::{Deref, DerefMut};

/// Superposition-of-patches field model over an [`ElectrodePlane`].
#[derive(Debug, Clone)]
pub struct SuperpositionField {
    plane: ElectrodePlane,
    cutoff_cells: u32,
    /// Cached signed electrode voltages (amplitude × phase sign), row-major —
    /// rebuilt by [`SuperpositionField::refresh_voltages`] and whenever a
    /// [`PlaneGuard`] from [`SuperpositionField::plane_mut`] is dropped.
    voltages: Vec<f64>,
}

/// Index layout of the derivative accumulators in [`Sums`]:
/// value, x, y, z, xx, xy, xz, yy, yz, zz.
const VAL: usize = 0;
const DX: usize = 1;
const DY: usize = 2;
const DZ: usize = 3;
const DXX: usize = 4;
const DXY: usize = 5;
const DXZ: usize = 6;
const DYY: usize = 7;
const DYZ: usize = 8;
const DZZ: usize = 9;

/// Kernel sums `W` (geometry weights) and `N` (voltage-weighted) together
/// with their spatial derivatives up to the requested order.
#[derive(Debug, Default, Clone, Copy)]
struct Sums {
    w: [f64; 10],
    n: [f64; 10],
}

impl SuperpositionField {
    /// Default truncation radius, in electrode pitches.
    pub const DEFAULT_CUTOFF_CELLS: u32 = 6;

    /// Creates a field model over the given programmed plane with the default
    /// truncation radius.
    pub fn new(plane: ElectrodePlane) -> Self {
        Self::with_cutoff(plane, Self::DEFAULT_CUTOFF_CELLS)
    }

    /// Creates a field model with an explicit truncation radius (in pitches).
    ///
    /// # Panics
    ///
    /// Panics if `cutoff_cells` is zero.
    pub fn with_cutoff(plane: ElectrodePlane, cutoff_cells: u32) -> Self {
        assert!(cutoff_cells > 0, "cutoff must be at least one cell");
        let mut field = Self {
            plane,
            cutoff_cells,
            voltages: Vec::new(),
        };
        field.refresh_voltages();
        field
    }

    /// The programmed electrode plane this model reads from.
    pub fn plane(&self) -> &ElectrodePlane {
        &self.plane
    }

    /// Mutable access to the plane, e.g. to reprogram phases between steps.
    /// The returned guard rebuilds the cached voltage buffer when dropped,
    /// so the field model always reflects the programmed state.
    pub fn plane_mut(&mut self) -> PlaneGuard<'_> {
        PlaneGuard { field: self }
    }

    /// Rebuilds the cached signed-voltage buffer from the plane. Called
    /// automatically by [`SuperpositionField::plane_mut`]'s guard; exposed
    /// for callers that mutate the plane through other means.
    pub fn refresh_voltages(&mut self) {
        let dims = self.plane.dims();
        let amplitude = self.plane.amplitude().get();
        self.voltages.clear();
        self.voltages.reserve(dims.count() as usize);
        self.voltages.extend(
            self.plane
                .phases_raw()
                .iter()
                .map(|phase| amplitude * phase.sign()),
        );
    }

    /// Truncation radius in cells.
    pub fn cutoff_cells(&self) -> u32 {
        self.cutoff_cells
    }

    /// Inclusive cell-index window `(x0, x1, y0, y1)` that contributes to a
    /// probe at `(x, y)`; empty (`x0 > x1`) when the probe is more than the
    /// cutoff outside the array.
    #[inline]
    fn window(&self, x: f64, y: f64) -> (usize, usize, usize, usize) {
        let pitch = self.plane.pitch().get();
        let dims = self.plane.dims();
        let cutoff = self.cutoff_cells as i64;
        let cx = (x / pitch).floor() as i64;
        let cy = (y / pitch).floor() as i64;
        let x0 = (cx - cutoff).max(0) as usize;
        let x1 = ((cx + cutoff).max(0) as u64).min(dims.cols as u64 - 1) as usize;
        let y0 = (cy - cutoff).max(0) as usize;
        let y1 = ((cy + cutoff).max(0) as u64).min(dims.rows as u64 - 1) as usize;
        (x0, x1, y0, y1)
    }

    /// One pass over the contributing cells, accumulating the kernel sums and
    /// their derivatives up to `ORDER` (0 = values, 1 = +gradient,
    /// 2 = +Hessian). Monomorphised per order, so lower-order paths carry no
    /// dead arithmetic.
    fn kernel_sums<const ORDER: usize>(&self, p: Vec3) -> Sums {
        let pitch = self.plane.pitch().get();
        let cols = self.plane.dims().cols as usize;
        let h = self.plane.chamber_height().get();
        // Clamp as the seed model did: probes outside the chamber see the
        // boundary value; the 1e-9 floor avoids the kernel singularity on the
        // electrode plane itself.
        let z = p.z.clamp(0.0, h).max(1e-9);
        let c = pitch * pitch / (2.0 * std::f64::consts::PI);
        let z_sq = z * z;

        let (x0, x1, y0, y1) = self.window(p.x, p.y);
        let mut sums = Sums::default();
        if x0 > x1 || y0 > y1 {
            return sums;
        }
        for yi in y0..=y1 {
            let dy = p.y - (yi as f64 + 0.5) * pitch;
            let row = yi * cols;
            for xi in x0..=x1 {
                let dx = p.x - (xi as f64 + 0.5) * pitch;
                let v = self.voltages[row + xi];
                let s = dx * dx + dy * dy + z_sq;
                // s^{3/2} etc. via multiply + sqrt — no powf in the hot path.
                let k3 = 1.0 / (s * s.sqrt());
                let w = c * z * k3;
                sums.w[VAL] += w;
                sums.n[VAL] += w * v;
                if ORDER >= 1 {
                    let k5 = k3 / s;
                    let wx = -3.0 * c * z * dx * k5;
                    let wy = -3.0 * c * z * dy * k5;
                    let wz = c * (s - 3.0 * z_sq) * k5;
                    sums.w[DX] += wx;
                    sums.w[DY] += wy;
                    sums.w[DZ] += wz;
                    sums.n[DX] += wx * v;
                    sums.n[DY] += wy * v;
                    sums.n[DZ] += wz * v;
                    if ORDER >= 2 {
                        let k7 = k5 / s;
                        let wxx = -3.0 * c * z * (s - 5.0 * dx * dx) * k7;
                        let wyy = -3.0 * c * z * (s - 5.0 * dy * dy) * k7;
                        let wxy = 15.0 * c * z * dx * dy * k7;
                        let wxz = -3.0 * c * dx * (s - 5.0 * z_sq) * k7;
                        let wyz = -3.0 * c * dy * (s - 5.0 * z_sq) * k7;
                        let wzz = 3.0 * c * z * (5.0 * z_sq - 3.0 * s) * k7;
                        sums.w[DXX] += wxx;
                        sums.w[DXY] += wxy;
                        sums.w[DXZ] += wxz;
                        sums.w[DYY] += wyy;
                        sums.w[DYZ] += wyz;
                        sums.w[DZZ] += wzz;
                        sums.n[DXX] += wxx * v;
                        sums.n[DXY] += wxy * v;
                        sums.n[DXZ] += wxz * v;
                        sums.n[DYY] += wyy * v;
                        sums.n[DYZ] += wyz * v;
                        sums.n[DZZ] += wzz * v;
                    }
                }
            }
        }
        sums
    }

    /// Bottom-trace value and first derivatives `(g, gx, gy, gz)` from sums.
    #[inline]
    fn trace_gradient(sums: &Sums) -> (f64, f64, f64, f64) {
        let w = sums.w[VAL];
        if w == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let g = sums.n[VAL] / w;
        let gx = (sums.n[DX] - g * sums.w[DX]) / w;
        let gy = (sums.n[DY] - g * sums.w[DY]) / w;
        let gz = (sums.n[DZ] - g * sums.w[DZ]) / w;
        (g, gx, gy, gz)
    }

    /// Fused single-pass evaluation of the potential and its spatial
    /// gradient `∇Φ` (both exact for the model, no finite differences).
    pub fn potential_and_gradient(&self, p: Vec3) -> (f64, Vec3) {
        let h = self.plane.chamber_height().get();
        let z = p.z.clamp(0.0, h);
        let t = z / h;
        let lid_v = self.plane.lid_voltage().get();
        let sums = self.kernel_sums::<1>(p);
        let (g, gx, gy, gz) = Self::trace_gradient(&sums);
        let phi = (1.0 - t) * g + t * lid_v;
        let grad = Vec3::new(
            (1.0 - t) * gx,
            (1.0 - t) * gy,
            (1.0 - t) * gz + (lid_v - g) / h,
        );
        (phi, grad)
    }

    /// Fused single-pass evaluation of `|E|²` and `∇|E|²` from the analytic
    /// gradient and Hessian of the potential.
    pub fn e_squared_with_gradient(&self, p: Vec3) -> (f64, Vec3) {
        let h = self.plane.chamber_height().get();
        let z = p.z.clamp(0.0, h);
        let t = z / h;
        let one_t = 1.0 - t;
        let lid_v = self.plane.lid_voltage().get();

        let sums = self.kernel_sums::<2>(p);
        let (g, gx, gy, gz) = Self::trace_gradient(&sums);
        let w = sums.w[VAL];
        let (gxx, gxy, gxz, gyy, gyz, gzz) = if w == 0.0 {
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        } else {
            (
                (sums.n[DXX] - 2.0 * gx * sums.w[DX] - g * sums.w[DXX]) / w,
                (sums.n[DXY] - gx * sums.w[DY] - gy * sums.w[DX] - g * sums.w[DXY]) / w,
                (sums.n[DXZ] - gx * sums.w[DZ] - gz * sums.w[DX] - g * sums.w[DXZ]) / w,
                (sums.n[DYY] - 2.0 * gy * sums.w[DY] - g * sums.w[DYY]) / w,
                (sums.n[DYZ] - gy * sums.w[DZ] - gz * sums.w[DY] - g * sums.w[DYZ]) / w,
                (sums.n[DZZ] - 2.0 * gz * sums.w[DZ] - g * sums.w[DZZ]) / w,
            )
        };

        // Gradient of Φ = (1−t) g + t V_lid.
        let px = one_t * gx;
        let py = one_t * gy;
        let pz = one_t * gz + (lid_v - g) / h;
        // Hessian of Φ.
        let pxx = one_t * gxx;
        let pxy = one_t * gxy;
        let pyy = one_t * gyy;
        let pxz = one_t * gxz - gx / h;
        let pyz = one_t * gyz - gy / h;
        let pzz = one_t * gzz - 2.0 * gz / h;

        let e2 = px * px + py * py + pz * pz;
        // ∇|∇Φ|² = 2 H ∇Φ.
        let grad = Vec3::new(
            2.0 * (px * pxx + py * pxy + pz * pxz),
            2.0 * (px * pxy + py * pyy + pz * pyz),
            2.0 * (px * pxz + py * pyz + pz * pzz),
        );
        (e2, grad)
    }
}

/// RAII guard for in-place plane edits: rebuilds the cached signed-voltage
/// buffer when dropped.
#[derive(Debug)]
pub struct PlaneGuard<'a> {
    field: &'a mut SuperpositionField,
}

impl Deref for PlaneGuard<'_> {
    type Target = ElectrodePlane;

    fn deref(&self) -> &ElectrodePlane {
        &self.field.plane
    }
}

impl DerefMut for PlaneGuard<'_> {
    fn deref_mut(&mut self) -> &mut ElectrodePlane {
        &mut self.field.plane
    }
}

impl Drop for PlaneGuard<'_> {
    fn drop(&mut self) {
        self.field.refresh_voltages();
    }
}

impl FieldModel for SuperpositionField {
    fn potential(&self, p: Vec3) -> f64 {
        let h = self.plane.chamber_height().get();
        let z = p.z.clamp(0.0, h);
        let t = z / h;
        let lid_v = self.plane.lid_voltage().get();
        let sums = self.kernel_sums::<0>(p);
        let phi_bottom = if sums.w[VAL] == 0.0 {
            0.0
        } else {
            sums.n[VAL] / sums.w[VAL]
        };
        (1.0 - t) * phi_bottom + t * lid_v
    }

    fn differentiation_step(&self) -> f64 {
        self.plane.pitch().get() * 0.05
    }

    fn field(&self, p: Vec3) -> Vec3 {
        let (_, grad) = self.potential_and_gradient(p);
        -grad
    }

    fn e_squared(&self, p: Vec3) -> f64 {
        let (_, grad) = self.potential_and_gradient(p);
        grad.norm_squared()
    }

    fn grad_e_squared(&self, p: Vec3) -> Vec3 {
        self.e_squared_with_gradient(p).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::ElectrodePhase;
    use labchip_units::{GridCoord, GridDims, Meters, Volts};

    fn cage_plane(n: u32) -> ElectrodePlane {
        let mut plane = ElectrodePlane::new(
            GridDims::square(n),
            Meters::from_micrometers(20.0),
            Volts::new(3.3),
            Meters::from_micrometers(80.0),
        );
        // Single cage at the array centre.
        let c = GridCoord::new(n / 2, n / 2);
        plane.set_phase(c, ElectrodePhase::CounterPhase);
        plane
    }

    fn cage_center_xy(plane: &ElectrodePlane) -> (f64, f64) {
        let n = plane.dims().cols;
        let c = GridCoord::new(n / 2, n / 2);
        let pos = plane.electrode_center(c);
        (pos.x, pos.y)
    }

    #[test]
    fn potential_is_bounded_by_boundary_voltages() {
        let plane = cage_plane(9);
        let model = SuperpositionField::new(plane);
        let v = model.plane().amplitude().get();
        for &z_frac in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            for &x_frac in &[0.2, 0.5, 0.8] {
                let p = Vec3::new(
                    x_frac * model.plane().width(),
                    0.5 * model.plane().height(),
                    z_frac * model.plane().chamber_height().get(),
                );
                let phi = model.potential(p);
                assert!(phi <= v + 1e-9 && phi >= -v - 1e-9, "phi = {phi}");
            }
        }
    }

    #[test]
    fn potential_near_electrode_approaches_its_voltage() {
        let plane = cage_plane(9);
        let (cx, cy) = cage_center_xy(&plane);
        let model = SuperpositionField::new(plane);
        // Just above the counter-phase electrode the potential should be
        // strongly negative (close to -V).
        let phi = model.potential(Vec3::new(cx, cy, 0.5e-6));
        assert!(phi < -0.8 * model.plane().amplitude().get(), "phi = {phi}");
        // Just above an in-phase electrode far from the cage it should be
        // strongly positive.
        let phi_in = model.potential(Vec3::new(
            cx + 3.0 * model.plane().pitch().get(),
            cy,
            0.5e-6,
        ));
        assert!(
            phi_in > 0.5 * model.plane().amplitude().get(),
            "phi = {phi_in}"
        );
    }

    #[test]
    fn cage_has_field_minimum_above_counter_phase_electrode() {
        let plane = cage_plane(9);
        let (cx, cy) = cage_center_xy(&plane);
        let model = SuperpositionField::new(plane);
        let pitch = model.plane().pitch().get();
        let z = 1.5 * pitch;
        let e_center = model.e_squared(Vec3::new(cx, cy, z));
        // |E|² above the cage centre must be lower than above the in-phase
        // neighbours at the same height: that is what makes it a trap for
        // negative-DEP particles.
        for &(dx, dy) in &[(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)] {
            let e_nb = model.e_squared(Vec3::new(cx + 1.5 * dx * pitch, cy + 1.5 * dy * pitch, z));
            assert!(
                e_center < e_nb,
                "cage centre |E|^2 {e_center:.3e} not below neighbour {e_nb:.3e}"
            );
        }
    }

    #[test]
    fn field_scales_linearly_with_voltage_so_e_squared_scales_quadratically() {
        // This is the paper's §2 argument: DEP force ∝ V², so halving the
        // supply voltage (newer technology node) costs 4× in force.
        let mut lo = cage_plane(9);
        lo.set_lid_voltage(Volts::new(-1.2));
        let hi = cage_plane(9);
        let lo = {
            let mut p =
                ElectrodePlane::new(lo.dims(), lo.pitch(), Volts::new(1.2), lo.chamber_height());
            p.set_phase(GridCoord::new(4, 4), ElectrodePhase::CounterPhase);
            p
        };
        let (cx, cy) = cage_center_xy(&hi);
        let m_hi = SuperpositionField::new(hi);
        let m_lo = SuperpositionField::new(lo);
        let probe = Vec3::new(cx + 10e-6, cy, 30e-6);
        let ratio_v = 3.3f64 / 1.2;
        let ratio_e2 = m_hi.e_squared(probe) / m_lo.e_squared(probe);
        assert!(
            (ratio_e2 / (ratio_v * ratio_v) - 1.0).abs() < 1e-6,
            "expected quadratic scaling, got ratio {ratio_e2}"
        );
    }

    #[test]
    fn grad_e_squared_points_away_from_cage_center_laterally() {
        let plane = cage_plane(9);
        let (cx, cy) = cage_center_xy(&plane);
        let model = SuperpositionField::new(plane);
        let pitch = model.plane().pitch().get();
        // A little off-centre, |E|² increases away from the cage, so the
        // lateral gradient points outward; nDEP force (−K∇|E|²) then points
        // back in. Restoring behaviour is what we check here.
        let p = Vec3::new(cx + 0.3 * pitch, cy, 1.5 * pitch);
        let g = model.grad_e_squared(p);
        assert!(g.x > 0.0, "expected outward gradient, got {}", g.x);
    }

    #[test]
    fn uniform_plane_has_negligible_lateral_field() {
        // With every electrode in phase the lateral field should nearly
        // vanish by symmetry (away from the array edges).
        let plane = ElectrodePlane::new(
            GridDims::square(15),
            Meters::from_micrometers(20.0),
            Volts::new(3.3),
            Meters::from_micrometers(80.0),
        );
        let model = SuperpositionField::new(plane);
        let p = Vec3::new(
            0.5 * model.plane().width(),
            0.5 * model.plane().height(),
            40e-6,
        );
        let e = model.field(p);
        assert!(e.x.abs() < 0.02 * e.z.abs() + 1.0);
        assert!(e.y.abs() < 0.02 * e.z.abs() + 1.0);
        // The vertical field should be roughly 2V / h.
        let expected = 2.0 * 3.3 / 80e-6;
        assert!(
            (e.z.abs() - expected).abs() / expected < 0.5,
            "Ez = {}",
            e.z
        );
    }

    #[test]
    fn cutoff_must_be_positive() {
        let plane = cage_plane(5);
        let result = std::panic::catch_unwind(|| SuperpositionField::with_cutoff(plane, 0));
        assert!(result.is_err());
    }

    #[test]
    fn evaluation_cost_is_independent_of_array_size() {
        // Not a timing test: just confirm large arrays are usable by
        // evaluating a point on a 200x200 (40,000 electrode) plane.
        let mut plane = ElectrodePlane::new(
            GridDims::square(200),
            Meters::from_micrometers(20.0),
            Volts::new(3.3),
            Meters::from_micrometers(80.0),
        );
        plane.set_phase(GridCoord::new(100, 100), ElectrodePhase::CounterPhase);
        let model = SuperpositionField::new(plane);
        let c = model.plane().electrode_center(GridCoord::new(100, 100));
        let e2 = model.e_squared(Vec3::new(c.x, c.y, 30e-6));
        assert!(e2.is_finite() && e2 > 0.0);
    }

    #[test]
    fn plane_guard_rebuilds_voltage_cache() {
        let plane = cage_plane(9);
        let mut model = SuperpositionField::new(plane);
        let (cx, cy) = cage_center_xy(model.plane());
        let probe = Vec3::new(cx, cy, 0.5e-6);
        let before = model.potential(probe);
        assert!(before < 0.0, "cage electrode reads negative, got {before}");
        // Flip the cage electrode back in phase through the guard; the
        // cached buffer must pick the change up.
        model
            .plane_mut()
            .set_phase(GridCoord::new(4, 4), ElectrodePhase::InPhase);
        let after = model.potential(probe);
        assert!(
            after > 0.0,
            "reprogrammed electrode reads positive, got {after}"
        );
    }

    #[test]
    fn fused_potential_matches_scalar_potential() {
        let plane = cage_plane(9);
        let model = SuperpositionField::new(plane);
        let (cx, cy) = cage_center_xy(model.plane());
        for &(dx, dz) in &[(0.0, 15e-6), (7e-6, 30e-6), (-13e-6, 55e-6)] {
            let p = Vec3::new(cx + dx, cy + 3e-6, dz);
            let (phi, _) = model.potential_and_gradient(p);
            assert!((phi - model.potential(p)).abs() < 1e-12 * phi.abs().max(1.0));
        }
    }

    #[test]
    fn analytic_field_matches_finite_differences() {
        let plane = cage_plane(9);
        let model = SuperpositionField::new(plane);
        let (cx, cy) = cage_center_xy(model.plane());
        let p = Vec3::new(cx + 6e-6, cy - 4e-6, 28e-6);
        let analytic = model.field(p);
        let fd = model.field_fd(p);
        let scale = fd.norm().max(1.0);
        // The default FD step (pitch/20) carries ~1e-3 relative truncation
        // error; the strict 1e-6 parity check with Richardson extrapolation
        // lives in tests/analytic_parity.rs.
        assert!(
            (analytic - fd).norm() / scale < 1e-2,
            "analytic {analytic:?} vs fd {fd:?}"
        );
    }

    #[test]
    fn kernel_hessian_trace_vanishes() {
        // Each patch kernel is harmonic above the plane, so the Hessian
        // accumulators of W must be traceless.
        let plane = cage_plane(9);
        let model = SuperpositionField::new(plane);
        let (cx, cy) = cage_center_xy(model.plane());
        let sums = model.kernel_sums::<2>(Vec3::new(cx + 5e-6, cy - 2e-6, 33e-6));
        let trace = sums.w[DXX] + sums.w[DYY] + sums.w[DZZ];
        let scale = sums.w[DXX].abs() + sums.w[DYY].abs() + sums.w[DZZ].abs();
        assert!(
            trace.abs() <= 1e-10 * scale.max(1e-300),
            "trace = {trace:.3e}"
        );
    }
}
