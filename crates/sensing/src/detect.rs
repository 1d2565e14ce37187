//! Occupancy detection: thresholds, error rates and occupancy maps.
//!
//! The readout's job is to answer, for every electrode, "is there a particle
//! in this cage?". The detector thresholds the (averaged) sensor output
//! halfway between the empty and occupied signal levels; its error rate
//! follows the Gaussian tail of the residual noise, which is what improves
//! when frames are averaged (paper §2, experiment E4).

use crate::error::SensingError;
use crate::noise::standard_normal;
use labchip_units::{GridCoord, GridDims};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Ground-truth or detected occupancy of one cage / electrode site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Occupancy {
    /// No particle present.
    #[default]
    Empty,
    /// A particle is present.
    Occupied,
}

impl Occupancy {
    /// Logical negation.
    pub fn toggled(self) -> Self {
        match self {
            Occupancy::Empty => Occupancy::Occupied,
            Occupancy::Occupied => Occupancy::Empty,
        }
    }
}

/// Complementary error function (Abramowitz & Stegun 7.1.26 approximation,
/// absolute error < 1.5e-7) — enough for detection-probability estimates.
fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x_abs = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x_abs);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let val = poly * (-x_abs * x_abs).exp();
    if sign_negative {
        2.0 - val
    } else {
        val
    }
}

/// Gaussian upper-tail probability `Q(x) = P(N(0,1) > x)`.
pub fn gaussian_tail(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// A two-level threshold detector for one sensing channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Detector {
    /// Output level corresponding to an empty site.
    pub empty_level: f64,
    /// Output level corresponding to an occupied site.
    pub occupied_level: f64,
}

impl Detector {
    /// Creates a detector from the two noise-free signal levels.
    ///
    /// # Errors
    ///
    /// Returns [`SensingError::InvalidConfiguration`] if the two levels
    /// coincide (no signal separation to threshold).
    pub fn new(empty_level: f64, occupied_level: f64) -> Result<Self, SensingError> {
        if empty_level == occupied_level {
            return Err(SensingError::InvalidConfiguration {
                name: "levels",
                reason: "empty and occupied levels must differ".into(),
            });
        }
        Ok(Self {
            empty_level,
            occupied_level,
        })
    }

    /// The decision threshold (midpoint of the two levels).
    pub fn threshold(&self) -> f64 {
        0.5 * (self.empty_level + self.occupied_level)
    }

    /// Signal separation between the two levels.
    pub fn separation(&self) -> f64 {
        (self.occupied_level - self.empty_level).abs()
    }

    /// Classifies a measured value.
    pub fn classify(&self, measured: f64) -> Occupancy {
        let towards_occupied = if self.occupied_level > self.empty_level {
            measured > self.threshold()
        } else {
            measured < self.threshold()
        };
        if towards_occupied {
            Occupancy::Occupied
        } else {
            Occupancy::Empty
        }
    }

    /// Theoretical per-site error probability given the RMS noise of the
    /// measurement: `Q(separation / (2·noise_rms))`.
    pub fn error_probability(&self, noise_rms: f64) -> f64 {
        if noise_rms <= 0.0 {
            0.0
        } else {
            gaussian_tail(self.separation() / (2.0 * noise_rms))
        }
    }

    /// Simulates `trials` detections of a site with true state `truth`,
    /// measurement noise `noise_rms`, returning the observed statistics.
    pub fn simulate<R: Rng + ?Sized>(
        &self,
        truth: Occupancy,
        noise_rms: f64,
        trials: u32,
        rng: &mut R,
    ) -> DetectionStats {
        let level = match truth {
            Occupancy::Empty => self.empty_level,
            Occupancy::Occupied => self.occupied_level,
        };
        let mut stats = DetectionStats::default();
        for _ in 0..trials {
            let measured = level + noise_rms * standard_normal(rng);
            stats.record(truth, self.classify(measured));
        }
        stats
    }
}

/// Confusion-matrix counts accumulated over detection trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DetectionStats {
    /// Occupied sites correctly detected.
    pub true_positives: u64,
    /// Empty sites incorrectly reported as occupied.
    pub false_positives: u64,
    /// Empty sites correctly reported empty.
    pub true_negatives: u64,
    /// Occupied sites missed.
    pub false_negatives: u64,
}

impl DetectionStats {
    /// Records one (truth, decision) pair.
    pub fn record(&mut self, truth: Occupancy, decision: Occupancy) {
        match (truth, decision) {
            (Occupancy::Occupied, Occupancy::Occupied) => self.true_positives += 1,
            (Occupancy::Occupied, Occupancy::Empty) => self.false_negatives += 1,
            (Occupancy::Empty, Occupancy::Occupied) => self.false_positives += 1,
            (Occupancy::Empty, Occupancy::Empty) => self.true_negatives += 1,
        }
    }

    /// Merges another set of counts into this one.
    pub fn merge(&mut self, other: &DetectionStats) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.true_negatives += other.true_negatives;
        self.false_negatives += other.false_negatives;
    }

    /// Total number of recorded trials.
    pub fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Overall error rate (wrong decisions over total).
    pub fn error_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.false_positives + self.false_negatives) as f64 / total as f64
        }
    }

    /// Sensitivity (true-positive rate).
    pub fn sensitivity(&self) -> f64 {
        let p = self.true_positives + self.false_negatives;
        if p == 0 {
            1.0
        } else {
            self.true_positives as f64 / p as f64
        }
    }

    /// Specificity (true-negative rate).
    pub fn specificity(&self) -> f64 {
        let n = self.true_negatives + self.false_positives;
        if n == 0 {
            1.0
        } else {
            self.true_negatives as f64 / n as f64
        }
    }
}

/// A per-electrode occupancy map, the end product of a sensor scan.
///
/// Decoding checks that `cells` holds exactly one entry per cell of
/// `dims`, so every map, decoded or built, indexes in bounds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct OccupancyMap {
    dims: GridDims,
    cells: Vec<Occupancy>,
}

impl<'de> Deserialize<'de> for OccupancyMap {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        // The serialized fields, decoded as derived under the same name.
        #[derive(Deserialize)]
        struct OccupancyMap {
            dims: GridDims,
            cells: Vec<Occupancy>,
        }
        let OccupancyMap { dims, cells } = Deserialize::from_value(value)?;
        if cells.len() as u64 != dims.count() {
            return Err(serde::Error::custom(format!(
                "OccupancyMap: {} cells for a {dims} map",
                cells.len()
            )));
        }
        Ok(Self { dims, cells })
    }
}

impl OccupancyMap {
    /// Creates an all-empty map.
    pub fn new(dims: GridDims) -> Self {
        Self {
            dims,
            cells: vec![Occupancy::Empty; dims.count() as usize],
        }
    }

    /// Map dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Occupancy at a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the map.
    pub fn get(&self, at: GridCoord) -> Occupancy {
        self.cells[self.dims.index_of(at)]
    }

    /// Sets the occupancy at a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the map.
    pub fn set(&mut self, at: GridCoord, value: Occupancy) {
        let idx = self.dims.index_of(at);
        self.cells[idx] = value;
    }

    /// Number of occupied sites.
    pub fn occupied_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| **c == Occupancy::Occupied)
            .count()
    }

    /// Coordinates of all occupied sites, row-major.
    pub fn occupied_sites(&self) -> Vec<GridCoord> {
        self.dims
            .iter()
            .filter(|c| self.get(*c) == Occupancy::Occupied)
            .collect()
    }

    /// Number of sites whose value differs from `other`.
    ///
    /// # Errors
    ///
    /// Returns [`SensingError::ShapeMismatch`] when the two maps have
    /// different dimensions.
    pub fn diff_count(&self, other: &OccupancyMap) -> Result<usize, SensingError> {
        if self.dims != other.dims {
            return Err(SensingError::ShapeMismatch {
                what: format!("occupancy maps {} vs {}", self.dims, other.dims),
            });
        }
        Ok(self
            .cells
            .iter()
            .zip(other.cells.iter())
            .filter(|(a, b)| a != b)
            .count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn gaussian_tail_reference_values() {
        assert!((gaussian_tail(0.0) - 0.5).abs() < 1e-6);
        assert!((gaussian_tail(1.0) - 0.1587).abs() < 1e-3);
        assert!((gaussian_tail(2.0) - 0.0228).abs() < 1e-3);
        assert!((gaussian_tail(3.0) - 0.00135).abs() < 2e-4);
        assert!((gaussian_tail(-1.0) - 0.8413).abs() < 1e-3);
    }

    #[test]
    fn detector_classifies_on_the_right_side_of_threshold() {
        let d = Detector::new(0.0, 1.0).unwrap();
        assert_eq!(d.threshold(), 0.5);
        assert_eq!(d.classify(0.9), Occupancy::Occupied);
        assert_eq!(d.classify(0.1), Occupancy::Empty);
        // Inverted polarity (occupied level below empty level) also works —
        // this is the capacitive channel, where a cell *reduces* the signal.
        let inv = Detector::new(0.0, -1.0).unwrap();
        assert_eq!(inv.classify(-0.9), Occupancy::Occupied);
        assert_eq!(inv.classify(-0.1), Occupancy::Empty);
        assert!(Detector::new(0.5, 0.5).is_err());
    }

    #[test]
    fn error_probability_falls_with_snr() {
        let d = Detector::new(0.0, 1.0).unwrap();
        let noisy = d.error_probability(0.5);
        let quiet = d.error_probability(0.1);
        assert!(quiet < noisy);
        assert_eq!(d.error_probability(0.0), 0.0);
        // separation/2sigma = 1 → Q(1) ≈ 0.159.
        assert!((d.error_probability(0.5) - 0.1587).abs() < 1e-3);
    }

    #[test]
    fn simulated_error_rate_matches_theory() {
        let d = Detector::new(0.0, 1.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let noise = 0.4;
        let mut stats = d.simulate(Occupancy::Occupied, noise, 20_000, &mut rng);
        stats.merge(&d.simulate(Occupancy::Empty, noise, 20_000, &mut rng));
        let theory = d.error_probability(noise);
        assert!(
            (stats.error_rate() - theory).abs() < 0.01,
            "simulated {} vs theory {}",
            stats.error_rate(),
            theory
        );
        assert_eq!(stats.total(), 40_000);
        assert!(stats.sensitivity() > 0.8);
        assert!(stats.specificity() > 0.8);
    }

    #[test]
    fn occupancy_map_set_get_and_count() {
        let mut map = OccupancyMap::new(GridDims::square(8));
        assert_eq!(map.occupied_count(), 0);
        map.set(GridCoord::new(2, 3), Occupancy::Occupied);
        map.set(GridCoord::new(5, 5), Occupancy::Occupied);
        assert_eq!(map.get(GridCoord::new(2, 3)), Occupancy::Occupied);
        assert_eq!(map.occupied_count(), 2);
        assert_eq!(map.occupied_sites().len(), 2);
    }

    #[test]
    fn occupancy_map_diff() {
        let mut a = OccupancyMap::new(GridDims::square(4));
        let b = OccupancyMap::new(GridDims::square(4));
        a.set(GridCoord::new(1, 1), Occupancy::Occupied);
        assert_eq!(a.diff_count(&b).unwrap(), 1);
        assert_eq!(a.diff_count(&a).unwrap(), 0);
        let c = OccupancyMap::new(GridDims::square(5));
        assert!(a.diff_count(&c).is_err());
    }

    #[test]
    fn occupancy_map_decoder_rejects_a_cell_count_off_its_dims() {
        let map = OccupancyMap::new(GridDims::square(4));
        assert_eq!(OccupancyMap::from_value(&map.to_value()), Ok(map.clone()));
        let mut value = map.to_value();
        let Some(serde::Value::Array(cells)) = value.as_object_mut().unwrap().get_mut("cells")
        else {
            panic!("cells encode as an array");
        };
        cells.pop();
        let error = OccupancyMap::from_value(&value).unwrap_err();
        assert_eq!(error.to_string(), "OccupancyMap: 15 cells for a 4x4 map");
    }

    #[test]
    fn occupancy_toggle() {
        assert_eq!(Occupancy::Empty.toggled(), Occupancy::Occupied);
        assert_eq!(Occupancy::Occupied.toggled(), Occupancy::Empty);
    }
}
