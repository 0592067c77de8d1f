//! Independent verification for the PSP pipeline: a from-scratch schedule
//! validator, a coverage-guided fuzzer, and a minimizing reducer.
//!
//! Everything the repo's other crates *produce* — PSP schedules and their
//! tree-VLIW code, baseline compilations, fixed-II modulo schedules, exact
//! certificates — this crate *re-checks* with deliberately naive code that
//! shares no logic with the producers:
//!
//! * [`validate_vliw`] — structural, resource, and dispatch checks on any
//!   generated [`psp_machine::VliwLoop`];
//! * [`validate_schedule`] — dependence preservation, path coverage,
//!   speculation legality, and issue width on a [`psp_core::Schedule`];
//! * [`validate_modulo`] — the full re-derived constraint system of a
//!   [`psp_opt::ModuloSchedule`];
//! * [`fuzz`](mod@fuzz) — a corpus-driven mutation fuzzer whose oracle
//!   runs every technique through every validator and the differential
//!   simulator;
//! * [`reduce`] — delta-debugging any failing loop down to a locally
//!   minimal, replayable `.psp` reproducer.
//!
//! The producers never call back into this crate: a caller that wants a
//! result checked passes it to the validator explicitly, as the
//! per-producer tests, the fuzz oracle and the `psp-verify` binary do.

pub mod features;
pub mod fuzz;
pub mod grammar;
pub mod modulo;
pub mod reduce;
pub mod schedule;
pub mod violation;
pub mod vliw;

pub use features::Features;
pub use fuzz::{fuzz, run_oracle, run_oracle_with, Failure, Finding, FuzzConfig, FuzzOutcome};
pub use modulo::validate_modulo;
pub use reduce::{reduce_failure, reduce_with};
pub use schedule::validate_schedule;
pub use violation::{CycleSite, Violation};
pub use vliw::validate_vliw;
