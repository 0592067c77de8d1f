//! Exact initiation-interval certification for predicated loops.
//!
//! The PSP driver (`psp-core`) and the baselines (`psp-baselines`) are
//! heuristics: they produce *some* schedule and a score, but nothing says
//! how far that score sits from the optimum. This crate closes that gap
//! for the fixed-II modulo-scheduling model:
//!
//! * [`bounds`] — the shared lower bounds [`res_mii`] (resource) and
//!   [`rec_mii`] (recurrence, max-cycle-ratio by binary search), combined
//!   in [`mii_lower_bound`]. Both the greedy EMS baseline and the exact
//!   solver start from this floor.
//! * [`exact`] — a branch-and-bound modulo scheduler over exactly the
//!   same constraint system EMS uses ([`sched::all_edges`]), with
//!   longest-path window pruning, failed-state memoization, and an
//!   anytime node budget. [`certify`] returns either a proven-optimal
//!   `Certified(ii)` with a witness schedule or a sound interval
//!   `Bounded { lb, ub }` when the budget runs out.
//! * [`kernelgen`] — [`modulo_to_vliw`] compiles a verified
//!   [`ModuloSchedule`] into an executable `VliwLoop` (prologue + single
//!   kernel block), so exact schedules face the same differential
//!   equivalence check as every other technique in the repo.
//!
//! The if-conversion, induction-renaming, and dependence-graph passes
//! ([`ifconv`], [`rename`], [`depgraph`]) live here (moved from
//! `psp-baselines`, which re-exports them) because the constraint system
//! is now shared infrastructure rather than a baseline implementation
//! detail.
//!
//! A certified fixed-II optimum is a *floor for fixed-II schedulers
//! only*: PSP's variable per-path II can legitimately beat it on loops
//! with conditions — quantifying exactly that is experiment E8
//! (`psp-bench --bin table_gap`).

pub mod bounds;
pub mod depgraph;
pub mod exact;
pub mod ifconv;
pub mod kernelgen;
pub mod rename;
pub mod sched;

pub use bounds::{mii_lower_bound, rec_mii, res_mii};
pub use exact::{certify, Certification, ExactConfig, ExactResult};
pub use ifconv::{if_convert, IfConverted};
pub use kernelgen::modulo_to_vliw;
pub use rename::rename_inductions;
pub use sched::{all_edges, ModEdge, ModuloSchedule};
