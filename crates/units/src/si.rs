//! SI quantity newtypes.
//!
//! Each quantity wraps an `f64` in base SI units and provides the arithmetic
//! that is physically meaningful for the workspace: addition/subtraction of
//! like quantities, scaling by dimensionless factors, and ratios of like
//! quantities (which are dimensionless `f64`s). Domain-specific helper
//! constructors (`from_micrometers`, `from_microliters`, …) cover the ranges
//! the paper talks about.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared newtype boilerplate for an SI quantity.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// Zero of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a value expressed in the base SI unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the base SI unit.
            #[inline]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the value to the inclusive range `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` when the underlying value is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Dimensionless ratio of two like quantities.
            ///
            /// Returns `self / other` as a plain `f64`.
            #[inline]
            pub fn ratio(self, other: Self) -> f64 {
                self.0 / other.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl From<$name> for f64 {
            #[inline]
            fn from(value: $name) -> f64 {
                value.0
            }
        }
    };
}

quantity!(
    /// Length in metres.
    Meters,
    "m"
);
quantity!(
    /// Velocity in metres per second.
    MetersPerSecond,
    "m/s"
);
quantity!(
    /// Time in seconds.
    Seconds,
    "s"
);
quantity!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
quantity!(
    /// Electric potential in volts.
    Volts,
    "V"
);
quantity!(
    /// Electric field magnitude in volts per metre.
    VoltsPerMeter,
    "V/m"
);
quantity!(
    /// Force in newtons.
    Newtons,
    "N"
);
quantity!(
    /// Mass in kilograms.
    Kilograms,
    "kg"
);
quantity!(
    /// Mass density in kilograms per cubic metre.
    KilogramsPerCubicMeter,
    "kg/m^3"
);
quantity!(
    /// Thermodynamic temperature in kelvin.
    Kelvin,
    "K"
);
quantity!(
    /// Temperature in degrees Celsius.
    Celsius,
    "degC"
);
quantity!(
    /// Capacitance in farads.
    Farads,
    "F"
);
quantity!(
    /// Electric current in amperes.
    Amperes,
    "A"
);
quantity!(
    /// Power in watts.
    Watts,
    "W"
);
quantity!(
    /// Pressure in pascals.
    Pascals,
    "Pa"
);
quantity!(
    /// Dynamic viscosity in pascal-seconds.
    PascalSeconds,
    "Pa*s"
);
quantity!(
    /// Electrical conductivity in siemens per metre.
    SiemensPerMeter,
    "S/m"
);
quantity!(
    /// Volume in cubic metres.
    CubicMeters,
    "m^3"
);

impl Meters {
    /// Creates a length expressed in micrometres.
    #[inline]
    pub fn from_micrometers(um: f64) -> Self {
        Self::new(um * 1e-6)
    }

    /// Creates a length expressed in millimetres.
    #[inline]
    pub fn from_millimeters(mm: f64) -> Self {
        Self::new(mm * 1e-3)
    }

    /// Creates a length expressed in nanometres.
    #[inline]
    pub fn from_nanometers(nm: f64) -> Self {
        Self::new(nm * 1e-9)
    }

    /// Returns the length in micrometres.
    #[inline]
    pub fn as_micrometers(self) -> f64 {
        self.get() * 1e6
    }

    /// Returns the length in millimetres.
    #[inline]
    pub fn as_millimeters(self) -> f64 {
        self.get() * 1e3
    }

    /// Returns the length in nanometres.
    #[inline]
    pub fn as_nanometers(self) -> f64 {
        self.get() * 1e9
    }

    /// Squares the length, returning the raw value in m².
    #[inline]
    pub fn squared(self) -> f64 {
        self.get() * self.get()
    }
}

impl MetersPerSecond {
    /// Creates a velocity expressed in micrometres per second.
    #[inline]
    pub fn from_micrometers_per_second(um_s: f64) -> Self {
        Self::new(um_s * 1e-6)
    }

    /// Returns the velocity in micrometres per second.
    #[inline]
    pub fn as_micrometers_per_second(self) -> f64 {
        self.get() * 1e6
    }
}

impl Seconds {
    /// Creates a duration expressed in milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::new(ms * 1e-3)
    }

    /// Creates a duration expressed in microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self::new(us * 1e-6)
    }

    /// Creates a duration expressed in minutes.
    #[inline]
    pub fn from_minutes(min: f64) -> Self {
        Self::new(min * 60.0)
    }

    /// Creates a duration expressed in days.
    #[inline]
    pub fn from_days(days: f64) -> Self {
        Self::new(days * 86_400.0)
    }

    /// Returns the duration in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.get() * 1e3
    }

    /// Returns the duration in microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.get() * 1e6
    }

    /// Returns the duration in minutes.
    #[inline]
    pub fn as_minutes(self) -> f64 {
        self.get() / 60.0
    }

    /// Returns the duration in hours.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.get() / 3600.0
    }

    /// Returns the duration in days.
    #[inline]
    pub fn as_days(self) -> f64 {
        self.get() / 86_400.0
    }
}

impl Hertz {
    /// Creates a frequency expressed in kilohertz.
    #[inline]
    pub fn from_kilohertz(khz: f64) -> Self {
        Self::new(khz * 1e3)
    }

    /// Creates a frequency expressed in megahertz.
    #[inline]
    pub fn from_megahertz(mhz: f64) -> Self {
        Self::new(mhz * 1e6)
    }

    /// Returns the period `1/f`.
    ///
    /// # Panics
    ///
    /// Does not panic; a zero frequency yields an infinite period.
    #[inline]
    pub fn period(self) -> Seconds {
        Seconds::new(1.0 / self.get())
    }

    /// Angular frequency `2*pi*f` in rad/s (raw `f64`).
    #[inline]
    pub fn angular(self) -> f64 {
        2.0 * std::f64::consts::PI * self.get()
    }
}

impl Volts {
    /// Creates a potential expressed in millivolts.
    #[inline]
    pub fn from_millivolts(mv: f64) -> Self {
        Self::new(mv * 1e-3)
    }

    /// Returns the potential in millivolts.
    #[inline]
    pub fn as_millivolts(self) -> f64 {
        self.get() * 1e3
    }

    /// Squared potential in V² — the quantity DEP force scales with.
    #[inline]
    pub fn squared(self) -> f64 {
        self.get() * self.get()
    }
}

impl Newtons {
    /// Creates a force expressed in piconewtons, the natural scale of DEP
    /// forces on single cells.
    #[inline]
    pub fn from_piconewtons(pn: f64) -> Self {
        Self::new(pn * 1e-12)
    }

    /// Returns the force in piconewtons.
    #[inline]
    pub fn as_piconewtons(self) -> f64 {
        self.get() * 1e12
    }
}

impl Kilograms {
    /// Creates a mass expressed in picograms (typical cell masses are
    /// hundreds of picograms).
    #[inline]
    pub fn from_picograms(pg: f64) -> Self {
        Self::new(pg * 1e-15)
    }

    /// Returns the mass in picograms.
    #[inline]
    pub fn as_picograms(self) -> f64 {
        self.get() * 1e15
    }
}

impl Kelvin {
    /// Creates a temperature from degrees Celsius.
    #[inline]
    pub fn from_celsius(c: f64) -> Self {
        Self::new(c + 273.15)
    }

    /// Returns the temperature in degrees Celsius.
    #[inline]
    pub fn as_celsius(self) -> f64 {
        self.get() - 273.15
    }
}

impl Celsius {
    /// Converts into [`Kelvin`].
    #[inline]
    pub fn to_kelvin(self) -> Kelvin {
        Kelvin::from_celsius(self.get())
    }
}

impl Farads {
    /// Creates a capacitance expressed in femtofarads, the natural scale of
    /// the per-electrode sense capacitances in the paper's chip.
    #[inline]
    pub fn from_femtofarads(ff: f64) -> Self {
        Self::new(ff * 1e-15)
    }

    /// Returns the capacitance in femtofarads.
    #[inline]
    pub fn as_femtofarads(self) -> f64 {
        self.get() * 1e15
    }
}

impl Watts {
    /// Returns the power in milliwatts.
    #[inline]
    pub fn as_milliwatts(self) -> f64 {
        self.get() * 1e3
    }
}

impl CubicMeters {
    /// Creates a volume expressed in microlitres (the paper's sample drop is
    /// about 4 µl).
    #[inline]
    pub fn from_microliters(ul: f64) -> Self {
        Self::new(ul * 1e-9)
    }

    /// Returns the volume in microlitres.
    #[inline]
    pub fn as_microliters(self) -> f64 {
        self.get() * 1e9
    }
}

impl Div<Seconds> for Meters {
    type Output = MetersPerSecond;
    #[inline]
    fn div(self, rhs: Seconds) -> MetersPerSecond {
        MetersPerSecond::new(self.get() / rhs.get())
    }
}

impl Mul<Seconds> for MetersPerSecond {
    type Output = Meters;
    #[inline]
    fn mul(self, rhs: Seconds) -> Meters {
        Meters::new(self.get() * rhs.get())
    }
}

impl Div<MetersPerSecond> for Meters {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: MetersPerSecond) -> Seconds {
        Seconds::new(self.get() / rhs.get())
    }
}

impl Div<Meters> for Volts {
    type Output = VoltsPerMeter;
    #[inline]
    fn div(self, rhs: Meters) -> VoltsPerMeter {
        VoltsPerMeter::new(self.get() / rhs.get())
    }
}

impl Mul<Seconds> for Watts {
    type Output = f64;
    /// Energy in joules.
    #[inline]
    fn mul(self, rhs: Seconds) -> f64 {
        self.get() * rhs.get()
    }
}

impl Mul<Volts> for Amperes {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Volts) -> Watts {
        Watts::new(self.get() * rhs.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_conversions_round_trip() {
        let l = Meters::from_micrometers(20.0);
        assert!((l.as_micrometers() - 20.0).abs() < 1e-9);
        assert!((l.as_millimeters() - 0.02).abs() < 1e-12);
        assert!((l.as_nanometers() - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn time_conversions_round_trip() {
        let t = Seconds::from_days(2.5);
        assert!((t.as_hours() - 60.0).abs() < 1e-9);
        assert!((t.as_days() - 2.5).abs() < 1e-12);
        let u = Seconds::from_micros(4.0);
        assert!((u.as_millis() - 0.004).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Volts::new(3.3);
        let b = Volts::new(1.2);
        assert!(((a + b).get() - 4.5).abs() < 1e-12);
        assert!(((a - b).get() - 2.1).abs() < 1e-12);
        assert!(((a * 2.0).get() - 6.6).abs() < 1e-12);
        assert!(((a / 2.0).get() - 1.65).abs() < 1e-12);
        assert!((a / b - 2.75).abs() < 1e-12);
        assert!(((-a).get() + 3.3).abs() < 1e-12);
    }

    #[test]
    fn velocity_relations() {
        let d = Meters::from_micrometers(100.0);
        let t = Seconds::new(2.0);
        let v = d / t;
        assert!((v.as_micrometers_per_second() - 50.0).abs() < 1e-9);
        let back = v * t;
        assert!((back.as_micrometers() - 100.0).abs() < 1e-9);
        let t2 = d / v;
        assert!((t2.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn temperature_conversion() {
        let k = Kelvin::from_celsius(25.0);
        assert!((k.get() - 298.15).abs() < 1e-12);
        assert!((k.as_celsius() - 25.0).abs() < 1e-12);
        assert!((Celsius::new(37.0).to_kelvin().get() - 310.15).abs() < 1e-12);
    }

    #[test]
    fn frequency_period_and_angular() {
        let f = Hertz::from_megahertz(1.0);
        assert!((f.period().as_micros() - 1.0).abs() < 1e-9);
        assert!((f.angular() - 2.0 * std::f64::consts::PI * 1e6).abs() < 1.0);
    }

    #[test]
    fn small_scale_helpers() {
        assert!((Newtons::from_piconewtons(3.0).as_piconewtons() - 3.0).abs() < 1e-12);
        assert!((Farads::from_femtofarads(12.0).as_femtofarads() - 12.0).abs() < 1e-9);
        assert!((CubicMeters::from_microliters(4.0).as_microliters() - 4.0).abs() < 1e-12);
        assert!((Kilograms::from_picograms(500.0).as_picograms() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_clamp() {
        let a = Meters::new(1.0);
        let b = Meters::new(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Meters::new(5.0).clamp(a, b), b);
        assert_eq!(Meters::new(0.5).clamp(a, b), a);
    }

    #[test]
    fn sum_and_display() {
        let total: Seconds = (0..4).map(|i| Seconds::new(i as f64)).sum();
        assert_eq!(total.get(), 6.0);
        assert_eq!(format!("{}", Volts::new(3.3)), "3.3 V");
    }

    #[test]
    fn power_relations() {
        let p = Amperes::new(0.01) * Volts::new(3.3);
        assert!((p.as_milliwatts() - 33.0).abs() < 1e-9);
        let energy = p * Seconds::new(2.0);
        assert!((energy - 0.066).abs() < 1e-12);
    }

    #[test]
    fn field_from_voltage_over_gap() {
        let e = Volts::new(5.0) / Meters::from_micrometers(25.0);
        assert!((e.get() - 200_000.0).abs() < 1e-6);
    }
}
