//! Parametric model of the IBM-style tree-VLIW target machine assumed by
//! the paper (Ebcioglu \[2], Moon & Ebcioglu \[6]), plus the container type
//! for compiled pipelined loops.
//!
//! A *tree-VLIW instruction* executes, in a single cycle, a set of ALU and
//! LOAD/STORE operations together with IF operations that choose one path
//! down the instruction's tree. We model one instruction as one *cycle* — a
//! list of [`psp_ir::Operation`]s where operations carrying a [`psp_ir::Guard`]
//! sit on a subtree of the IF testing the same condition register. The
//! machine model bounds how many operations of each [`psp_ir::ResClass`]
//! fit in a cycle and assigns producer→consumer latencies, which one rule
//! enforces on each program path ([`InFlight`]).
//!
//! A compiled loop is a [`VliwLoop`]: prologue cycles, a body control-flow
//! graph of [`VliwBlock`]s with explicit back edges, and an epilogue, ready
//! for the `psp-sim` interpreter and for II (initiation-interval) analysis.

pub mod config;
pub mod dot;
pub mod resources;
pub mod vliw;

pub use config::{InFlight, MachineConfig};
pub use dot::to_dot;
pub use resources::{cycle_fits, cycle_use, ResourceUse};
pub use vliw::{BlockId, Succ, Utilization, VliwBlock, VliwLoop, VliwTerm};
