//! Execution substrate for the PSP reproduction.
//!
//! The paper evaluated its prototype on (a model of) the IBM tree-VLIW
//! architecture; no such hardware is available, so this crate provides a
//! deterministic, cycle-accurate *simulator* that measures exactly the
//! quantities the paper reports — per-path initiation intervals and dynamic
//! cycle counts — and additionally *verifies* that transformed loops are
//! semantically equivalent to their source loops.
//!
//! Execution services:
//!
//! * [`reference::run_reference`] — executes a structured [`psp_ir::LoopSpec`]
//!   with strict sequential semantics (one operation per cycle), producing
//!   the golden final state, the per-path sequential cycle counts, and the
//!   IF-outcome trace used for profiling;
//! * [`vliw_run::run_vliw`] — executes a compiled [`psp_machine::VliwLoop`]
//!   with parallel per-cycle semantics (all reads see pre-cycle state,
//!   guards resolve against pre-cycle condition registers, `BREAK` exits at
//!   end of cycle), counting body cycles and iterations;
//! * [`decode`] — the pre-decoded engine: both programs lowered once into
//!   flat struct-of-arrays micro-ops and run by a tight dispatch loop over
//!   reusable scratch, bit-identical to the interpreters but much faster;
//!   the default behind [`equiv::check_equivalence`] (pass
//!   [`equiv::EngineKind::Interpreter`] to pin the reference engine);
//! * [`equiv::check_equivalence`] — runs both sides on the same initial
//!   state and compares live-out registers and all array contents;
//!   [`equiv::check_equivalence_batch`] amortizes decoding over a whole
//!   [`equiv::EquivConfig`] trial set, sharded across threads;
//! * [`profile::BranchProfile`] — per-IF truth probabilities estimated from
//!   a reference trace, feeding the paper's §4 probability-driven
//!   heuristics.
//!
//! The crate keeps no process-global state: every run reports its own
//! cycle and iteration counts in its result, and callers time what they
//! call.

pub mod decode;
pub mod equiv;
pub mod profile;
pub mod reference;
pub mod state;
pub mod trace;
pub mod vliw_run;

pub use decode::{run_reference_decoded, run_vliw_decoded, DecodedRef, DecodedVliw, Scratch};
pub use equiv::{
    check_equivalence, check_equivalence_batch, check_equivalence_with, BatchError, BatchRun,
    EngineKind, EquivConfig, EquivEngine, EquivRun, EquivalenceError,
};
pub use profile::BranchProfile;
pub use reference::{run_reference, RefRun};
pub use state::{MachineState, SimError};
pub use trace::{trace_vliw, Phase, TraceEvent};
pub use vliw_run::{run_vliw, VliwRun};
