//! # labchip
//!
//! Facade crate of the `labchip` workspace: a digital twin of the CMOS
//! dielectrophoresis (DEP) biochip described in *"New Perspectives and
//! Opportunities From the Wild West of Microelectronic Biochips"* (Manaresi
//! et al., DATE 2005), together with the experiment harness that reproduces
//! every quantitative claim of that paper.
//!
//! The heavy lifting lives in the substrate crates —
//! [`labchip_physics`] (fields, DEP, particle dynamics),
//! [`labchip_array`] (the CMOS actuation array),
//! [`labchip_sensing`] (optical/capacitive readout),
//! [`labchip_fluidics`] (chambers, channels, fabrication, packaging),
//! [`labchip_manipulation`] (cage routing and assay protocols) and
//! [`labchip_designflow`] (Fig. 1 vs Fig. 2 flow comparison). This crate
//! composes them into a [`Biochip`](biochip::Biochip), a time-stepped
//! [`ChipSimulator`](simulator::ChipSimulator), the [`experiments`]
//! module (E1–E13), and the [`scenario`] engine — the unified
//! trait/registry/runner layer that makes every experiment enumerable,
//! parameterizable (serde-round-trippable configs, `key=value` overrides)
//! and runnable in bulk with streaming progress.
//!
//! ## Quickstart
//!
//! ```
//! use labchip::prelude::*;
//! use labchip_units::GridCoord;
//!
//! // The paper's reference chip: >100,000 electrodes, 0.35 µm CMOS.
//! let mut chip = Biochip::date05_reference();
//! assert!(chip.array().electrode_count() > 100_000);
//!
//! // Program a single cage and check that a viable cell is trapped there.
//! chip.program_single_cage(GridCoord::new(160, 160))?;
//! let summary = chip.cage_summary(GridCoord::new(160, 160))?;
//! assert!(summary.is_trap);
//! # Ok::<(), labchip::ChipError>(())
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod biochip;
pub mod error;
pub mod experiments;
pub mod scenario;
pub mod simulator;
pub mod workload;

/// Convenient re-exports of the most commonly used types across the whole
/// workspace.
pub mod prelude {
    pub use crate::biochip::{Biochip, BiochipBuilder, CageSummary};
    pub use crate::error::ChipError;
    pub use crate::experiments::ExperimentTable;
    pub use crate::scenario::{
        Progress, ProgressEvent, RunOutcome, Runner, Scenario, ScenarioContext, ScenarioError,
        ScenarioRegistry,
    };
    pub use crate::simulator::{
        ChipSimulator, SimulatedParticle, SimulationConfig, StepInfo, StepObserver,
    };
    pub use crate::workload::{
        BatchDriver, CycleReport, ForceEnvelope, PhaseReport, PhaseSpec, ProtocolOutcome,
        RecoveryPolicy, RouteTarget, WorkloadConfig,
    };
    pub use labchip_array::prelude::*;
    pub use labchip_designflow::prelude::*;
    pub use labchip_fluidics::prelude::*;
    pub use labchip_manipulation::prelude::*;
    pub use labchip_physics::prelude::*;
    pub use labchip_sensing::prelude::*;
}

pub use error::ChipError;
