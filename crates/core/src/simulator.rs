//! Time-stepped full-chip simulation.
//!
//! The [`ChipSimulator`] carries a population of particles through the
//! chamber under the field of the currently programmed pattern: DEP,
//! gravity, drag and Brownian motion, with the pattern free to change between
//! steps (that is how cages — and the cells inside them — are dragged across
//! the chip).
//!
//! # Parallelism and determinism
//!
//! Particles do not interact, so [`ChipSimulator::run`] steps them in
//! parallel with rayon. Each particle owns an independent random stream
//! seeded deterministically from `config.seed` and the particle index, so a
//! run produces **bit-identical trajectories for any worker count** —
//! [`ChipSimulator::set_threads`] pins the count (0 = all cores), and the
//! integration-test suite asserts 1-thread/4-thread equality. The per-step
//! cost is dominated by one analytic `∇|E|²` kernel sweep per particle (see
//! [`labchip_physics::field::superposition`]); the [`ForceBalance`] and the
//! per-particle integrator are hoisted out of the step loop.

use crate::biochip::Biochip;
use crate::error::ChipError;
use labchip_manipulation::state::ChipState;
use labchip_physics::dynamics::{ForceBalance, OverdampedIntegrator, ParticleState};
use labchip_physics::field::superposition::SuperpositionField;
use labchip_physics::particle::Particle;
use labchip_sensing::detect::OccupancyMap;
use labchip_units::{GridCoord, Meters, Seconds, Vec3};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One batch of integration steps, as reported to a [`StepObserver`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepInfo {
    /// Steps advanced by this [`ChipSimulator::run`] call.
    pub steps: usize,
    /// Total simulated time elapsed after the batch.
    pub elapsed: Seconds,
    /// Number of particles being stepped.
    pub particles: usize,
}

/// Observer of simulator progress, called once per [`ChipSimulator::run`]
/// batch (after the particle loop completes, so it never sits on the hot
/// per-step path). The scenario engine bridges this into its streaming
/// [`Progress`](crate::scenario::Progress) sink via
/// [`ScenarioContext::step_observer`](crate::scenario::ScenarioContext::step_observer).
pub trait StepObserver: Send + Sync {
    /// Receives one completed step batch.
    fn on_steps(&self, info: &StepInfo);
}

/// Configuration of the time-stepped simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Integration time step.
    pub dt: Seconds,
    /// Whether Brownian motion is included.
    pub brownian: bool,
    /// RNG seed (simulations are reproducible for a given seed).
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            dt: Seconds::from_millis(1.0),
            brownian: true,
            seed: 0,
        }
    }
}

/// One simulated particle and its trajectory state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulatedParticle {
    /// The particle model.
    pub particle: Particle,
    /// Its current dynamic state.
    pub state: ParticleState,
}

/// The time-stepped chip simulator.
pub struct ChipSimulator {
    chip: Biochip,
    config: SimulationConfig,
    particles: Vec<SimulatedParticle>,
    /// Per-particle random streams, index-aligned with `particles`. Derived
    /// from `config.seed` + particle index so trajectories are reproducible
    /// regardless of how the parallel step loop schedules work.
    rngs: Vec<ChaCha8Rng>,
    field: SuperpositionField,
    elapsed: Seconds,
    /// Thread-count pin set by `set_threads`, built once so `run` (the hot
    /// path) never constructs one per invocation. `None` for 0: the
    /// ambient pool.
    pool: Option<rayon::ThreadPool>,
    /// Optional progress hook, notified once per `run` batch.
    observer: Option<Arc<dyn StepObserver>>,
}

impl fmt::Debug for ChipSimulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChipSimulator")
            .field("config", &self.config)
            .field("particles", &self.particles.len())
            .field("elapsed", &self.elapsed)
            .field("pool", &self.pool)
            .field("observer", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

impl ChipSimulator {
    /// Creates a simulator over a chip (the current pattern is captured; call
    /// [`ChipSimulator::refresh_field`] after reprogramming).
    pub fn new(chip: Biochip, config: SimulationConfig) -> Self {
        let field = chip.field_model();
        Self {
            chip,
            config,
            particles: Vec::new(),
            rngs: Vec::new(),
            field,
            elapsed: Seconds::ZERO,
            pool: None,
            observer: None,
        }
    }

    /// Pins the number of worker threads used by [`ChipSimulator::run`]
    /// (0 = all cores).
    ///
    /// # Determinism
    ///
    /// The thread count is a pure performance knob: every particle owns an
    /// independent random stream seeded from `(config.seed, index)`, so
    /// trajectories are **bit-identical for any setting** — 1 worker, all
    /// cores, or anything in between (the integration suite asserts
    /// 1-thread/4-thread equality). This is the single implementation;
    /// [`ChipSimulator::with_threads`] delegates here.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = (threads > 0).then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool construction cannot fail")
        });
    }

    /// Builder-style variant of (and a pure delegate to)
    /// [`ChipSimulator::set_threads`] — the thread count only affects
    /// wall-clock speed, never the trajectories (see the determinism note
    /// there).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// Installs a [`StepObserver`] notified once per [`ChipSimulator::run`]
    /// batch. Pass the bridge from
    /// [`ScenarioContext::step_observer`](crate::scenario::ScenarioContext::step_observer)
    /// to stream simulator liveness into a scenario progress sink.
    pub fn set_step_observer(&mut self, observer: Arc<dyn StepObserver>) {
        self.observer = Some(observer);
    }

    /// Removes the step observer.
    pub fn clear_step_observer(&mut self) {
        self.observer = None;
    }

    /// The deterministic random stream of particle `index`: the index is
    /// hashed with a SplitMix64 round and folded into the configured seed,
    /// giving well-separated ChaCha8 streams that are a pure function of
    /// `(config.seed, index)`. The mix is inlined (rather than taken from a
    /// rand helper) so it stays a stable part of this crate's reproducibility
    /// contract regardless of the rand version in use.
    fn stream_rng(seed: u64, index: usize) -> ChaCha8Rng {
        let mut z = (index as u64)
            .wrapping_add(1)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ChaCha8Rng::seed_from_u64(seed ^ z)
    }

    /// The chip under simulation.
    pub fn chip(&self) -> &Biochip {
        &self.chip
    }

    /// Mutable access to the chip (reprogram patterns between steps); call
    /// [`ChipSimulator::refresh_field`] afterwards.
    pub fn chip_mut(&mut self) -> &mut Biochip {
        &mut self.chip
    }

    /// Rebuilds the field model from the chip's current pattern.
    pub fn refresh_field(&mut self) {
        self.field = self.chip.field_model();
    }

    /// Simulated time elapsed so far.
    pub fn elapsed(&self) -> Seconds {
        self.elapsed
    }

    /// The simulated particles.
    pub fn particles(&self) -> &[SimulatedParticle] {
        &self.particles
    }

    /// Adds a particle at a position in chamber coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::Configuration`] when the position lies outside
    /// the chamber.
    pub fn add_particle(&mut self, particle: Particle, position: Vec3) -> Result<usize, ChipError> {
        let plane = self.chip.array().to_electrode_plane();
        let h = self.chip.array().chamber_height().get();
        if position.x < 0.0
            || position.y < 0.0
            || position.x > plane.width()
            || position.y > plane.height()
            || position.z < 0.0
            || position.z > h
        {
            return Err(ChipError::Configuration {
                reason: format!("particle position {position:?} outside the chamber"),
            });
        }
        self.rngs
            .push(Self::stream_rng(self.config.seed, self.particles.len()));
        self.particles.push(SimulatedParticle {
            particle,
            state: ParticleState::at(position),
        });
        Ok(self.particles.len() - 1)
    }

    /// Adds the chip's reference particle levitated above an electrode.
    ///
    /// # Errors
    ///
    /// See [`ChipSimulator::add_particle`].
    pub fn add_reference_particle_at(&mut self, site: GridCoord) -> Result<usize, ChipError> {
        let center = self
            .chip
            .array()
            .to_electrode_plane()
            .electrode_center(site);
        let z = 1.2 * self.chip.array().pitch().get();
        let particle = *self.chip.reference_particle();
        self.add_particle(particle, Vec3::new(center.x, center.y, z))
    }

    /// Advances the simulation by `steps` integration steps, parallelised
    /// over particles. Results are bit-identical for any thread count (each
    /// particle owns its random stream; see the module docs).
    pub fn run(&mut self, steps: usize) {
        if steps == 0 {
            return;
        }
        let chamber_height = self.chip.array().chamber_height().get();
        // The force balance and the vertical clamp depend only on the
        // particle, so both are hoisted out of the step loop. Each particle
        // is clamped by its *own* radius (the seed applied one shared clamp
        // from the largest radius to every particle).
        let contexts: Vec<(OverdampedIntegrator, ForceBalance)> = self
            .particles
            .iter()
            .map(|simulated| {
                let radius = simulated.particle.radius.get();
                let floor = radius.min(0.5 * chamber_height);
                let integrator = OverdampedIntegrator::new(
                    self.config.dt,
                    Meters::new(floor),
                    Meters::new((chamber_height - radius).max(floor * (1.0 + 1e-12))),
                );
                let mut balance = ForceBalance::new(
                    &simulated.particle,
                    self.chip.medium(),
                    self.chip.drive_frequency(),
                );
                balance.brownian_enabled = self.config.brownian;
                (integrator, balance)
            })
            .collect();

        let field = &self.field;
        let mut work: Vec<(usize, (&mut SimulatedParticle, &mut ChaCha8Rng))> = self
            .particles
            .iter_mut()
            .zip(self.rngs.iter_mut())
            .enumerate()
            .collect();
        // A 1-thread pin runs every item inline on this thread.
        let step_all = |work: &mut [(usize, (&mut SimulatedParticle, &mut ChaCha8Rng))]| {
            work.par_iter_mut().for_each(|(index, (simulated, rng))| {
                let (integrator, balance) = &contexts[*index];
                let mut state = simulated.state;
                for _ in 0..steps {
                    state = integrator.step(field, balance, &state, &mut **rng);
                }
                simulated.state = state;
            });
        };
        match &self.pool {
            Some(pool) => pool.install(|| step_all(&mut work)),
            None => step_all(&mut work),
        }
        self.elapsed += Seconds::new(self.config.dt.get() * steps as f64);
        if let Some(observer) = &self.observer {
            observer.on_steps(&StepInfo {
                steps,
                elapsed: self.elapsed,
                particles: self.particles.len(),
            });
        }
    }

    /// Advances the simulation by a wall-clock duration.
    pub fn run_for(&mut self, duration: Seconds) {
        let steps = (duration.get() / self.config.dt.get()).ceil() as usize;
        self.run(steps);
    }

    /// The electrode each particle currently sits above (`None` when it has
    /// drifted off the array).
    pub fn particle_sites(&self) -> Vec<Option<GridCoord>> {
        let plane = self.chip.array().to_electrode_plane();
        self.particles
            .iter()
            .map(|p| plane.electrode_at(p.state.position.x, p.state.position.y))
            .collect()
    }

    /// Builds the ground-truth occupancy map from the particle positions —
    /// what a perfect sensor would report. Shares the one truth-map builder
    /// on [`ChipState`] with the cage-grid-backed workload path.
    pub fn true_occupancy(&self) -> OccupancyMap {
        ChipState::occupancy_from_sites(
            self.chip.array().dims(),
            self.particle_sites().into_iter().flatten(),
        )
    }

    /// Lateral distance of particle `index` from the centre of electrode
    /// `site`, in metres.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn lateral_distance_from(&self, index: usize, site: GridCoord) -> f64 {
        let center = self
            .chip
            .array()
            .to_electrode_plane()
            .electrode_center(site);
        (self.particles[index].state.position.xy() - center.xy()).norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biochip::Biochip;

    fn simulator_with_cage() -> (ChipSimulator, GridCoord) {
        let mut chip = Biochip::small_reference(16);
        let site = GridCoord::new(8, 8);
        chip.program_single_cage(site).unwrap();
        let sim = ChipSimulator::new(
            chip,
            SimulationConfig {
                dt: Seconds::from_millis(0.5),
                brownian: true,
                seed: 42,
            },
        );
        (sim, site)
    }

    #[test]
    fn trapped_particle_stays_in_its_cage() {
        let (mut sim, site) = simulator_with_cage();
        let idx = sim.add_reference_particle_at(site).unwrap();
        sim.run_for(Seconds::new(1.0));
        let distance = sim.lateral_distance_from(idx, site);
        assert!(
            distance < 20e-6,
            "particle drifted {} um from its cage",
            distance * 1e6
        );
        assert!((sim.elapsed().get() - 1.0).abs() < 1e-3);
        // The occupancy map sees the particle at (or next to) the cage site.
        let occupancy = sim.true_occupancy();
        assert!(occupancy.occupied_count() >= 1);
    }

    #[test]
    fn cage_shift_drags_the_particle_along() {
        // The paper's C2 claim in miniature: shift the cage one electrode and
        // the trapped cell follows.
        let (mut sim, site) = simulator_with_cage();
        let idx = sim.add_reference_particle_at(site).unwrap();
        sim.run_for(Seconds::new(0.5));
        // Shift the cage one electrode in +x.
        let new_site = GridCoord::new(site.x + 1, site.y);
        sim.chip_mut().program_single_cage(new_site).unwrap();
        sim.refresh_field();
        sim.run_for(Seconds::new(1.5));
        let distance_new = sim.lateral_distance_from(idx, new_site);
        let distance_old = sim.lateral_distance_from(idx, site);
        assert!(
            distance_new < distance_old,
            "particle did not follow the cage: {} um from new site vs {} um from old",
            distance_new * 1e6,
            distance_old * 1e6
        );
        assert!(distance_new < 20e-6);
    }

    #[test]
    fn step_observer_sees_each_batch() {
        struct Recorder(std::sync::Mutex<Vec<StepInfo>>);
        impl StepObserver for Recorder {
            fn on_steps(&self, info: &StepInfo) {
                self.0.lock().unwrap().push(*info);
            }
        }
        let (mut sim, site) = simulator_with_cage();
        sim.add_reference_particle_at(site).unwrap();
        let recorder = Arc::new(Recorder(std::sync::Mutex::new(Vec::new())));
        sim.set_step_observer(recorder.clone());
        sim.run(10);
        sim.run(5);
        {
            let seen = recorder.0.lock().unwrap();
            assert_eq!(seen.len(), 2);
            assert_eq!(seen[0].steps, 10);
            assert_eq!(seen[1].steps, 5);
            assert_eq!(seen[1].particles, 1);
            assert!(seen[1].elapsed.get() > seen[0].elapsed.get());
        }
        sim.clear_step_observer();
        sim.run(1);
        assert_eq!(recorder.0.lock().unwrap().len(), 2);
    }

    #[test]
    fn particles_outside_the_chamber_are_rejected() {
        let (mut sim, _) = simulator_with_cage();
        let cell = *sim.chip().reference_particle();
        assert!(sim
            .add_particle(cell, Vec3::new(-1e-3, 0.0, 40e-6))
            .is_err());
        assert!(sim
            .add_particle(cell, Vec3::new(10e-6, 10e-6, 1e-3))
            .is_err());
    }

    #[test]
    fn untrapped_particle_sediments_without_brownian() {
        let mut chip = Biochip::small_reference(16);
        chip.array_mut().reset();
        let mut sim = ChipSimulator::new(
            chip,
            SimulationConfig {
                dt: Seconds::from_millis(0.5),
                brownian: false,
                seed: 1,
            },
        );
        let cell = *sim.chip().reference_particle();
        let idx = sim
            .add_particle(cell, Vec3::new(160e-6, 160e-6, 60e-6))
            .unwrap();
        sim.run_for(Seconds::new(2.0));
        assert!(sim.particles()[idx].state.position.z < 60e-6);
    }
}
