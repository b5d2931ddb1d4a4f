//! A Community Earth System Model (CESM) execution simulator.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//!
//! The paper runs CESM 1.1.1 / 1.2 on Intrepid (IBM Blue Gene/P, 40,960
//! quad-core nodes) and observes, for each component and node count, a
//! wall-clock time per 5-day benchmark run. HSLB interacts with CESM
//! *only* through those timings, so this crate reproduces that observable
//! surface:
//!
//! * [`Component`] — the coupled model components (CAM atmosphere, POP
//!   ocean, CICE sea ice, CLM land, plus the small RTM/CPL7/CISM ones the
//!   paper excludes from optimization);
//! * [`Machine`] — the node/core/task/thread topology (Intrepid preset);
//! * [`Layout`] — the three sequential/concurrent component layouts of
//!   Figure 1, each one composition from which its makespan, node
//!   constraints, Table I rows and rank placement are derived;
//! * [`calib`] — ground-truth performance curves **fitted once to the
//!   paper's own published timings** (every `(nodes, seconds)` pair
//!   recoverable from Table III is embedded here) and committed as
//!   constants, so the simulator interpolates the real Intrepid behaviour
//!   rather than an invented one;
//! * [`decomp`] — the CICE decomposition strategies whose default
//!   selection makes the paper's sea-ice curve noisy (§IV-A);
//! * [`Simulator`] — deterministic, seeded noise on top of the calibrated
//!   curves; runs benchmark sweeps and full coupled cases.
//!
//! What is simulated vs real: the *shape* of every scaling curve comes
//! from published measurements; the noise model (σ ≈ 1 % for most
//! components, larger and decomposition-stepped for CICE) matches the
//! qualitative description in §III-C/IV-A. Absolute agreement with
//! Intrepid beyond the embedded points is neither claimed nor needed —
//! HSLB's job is to optimize whatever curves it is shown.

pub mod archive;
pub mod calib;
pub mod component;
pub mod decomp;
pub mod fault;
pub mod grid;
pub mod layout;
pub mod machine;
pub mod perf;
pub mod pes;
pub mod sim;
pub mod sweetspot;
pub mod timers;

pub use component::Component;
pub use fault::{BenchFault, FaultDomain, FaultOutcome, FaultSpec};
pub use grid::{parse_resolution, resolution_token, Resolution, ResolutionConfig};
pub use layout::{layout_token, parse_layout, Allocation, Layout};
pub use machine::Machine;
pub use perf::NoiseSpec;
pub use pes::{PesEntry, PesLayout};
pub use sim::{BenchPoint, RunResult, Simulator};
