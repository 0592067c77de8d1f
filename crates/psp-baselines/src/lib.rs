//! Baseline loop compilers the PSP technique is measured against.
//!
//! * [`seq::compile_sequential`] — one operation per cycle, structured CFG
//!   preserved: the paper's §1.1 sequential machine (vecmin II = 7/8);
//! * [`local::compile_local`] — "local scheduling with renaming, without
//!   moving operations across loop boundaries" (paper Fig. 1b, II = 3):
//!   if-conversion of one iteration into a single tree-VLIW block, induction
//!   renaming, and critical-path list scheduling;
//! * [`unroll::compile_unrolled`] — unroll-and-schedule: the same machinery
//!   over `U` concatenated iterations (scratch registers renamed per copy),
//!   amortizing the exit-test chain;
//! * [`ems::modulo_schedule`] — a representative of the single-fixed-II
//!   class the paper contrasts with (refs \[10]\[11]\[12]): if-conversion followed
//!   by iterative modulo scheduling. The modulo scheduler produces a
//!   verified schedule (dependences modulo II, modulo resource table) and an
//!   idealized cycle model; see DESIGN.md §4 for the scope of this
//!   substitution.
//!
//! Shared machinery: if-conversion (flattening + compound-guard
//! materialization), the dependence DAG with disjoint-path pruning, and
//! induction-variable renaming live in `psp-opt` (`psp_opt::ifconv`,
//! `psp_opt::depgraph`, `psp_opt::rename`) — they are the constraint
//! system shared between the greedy EMS baseline and the exact II
//! certifier. [`listsched`] (height-priority list scheduler) stays local.

pub mod ems;
pub mod listsched;
pub mod local;
pub mod seq;
pub mod unroll;

pub use ems::{modulo_schedule, ModuloSchedule};
pub use local::compile_local;
pub use seq::compile_sequential;
pub use unroll::compile_unrolled;
