//! Register-level IR for loops with conditional branches, modeled on the
//! IBM tree-VLIW architecture assumed by Milicev & Jovanovic (IPPS 1998)
//! and the Ebcioglu/Moon line of work it builds on.
//!
//! The IR distinguishes:
//!
//! * general-purpose registers ([`Reg`]) and condition-code registers
//!   ([`CcReg`]) — compare operations write a `CC`, and the control
//!   operations `IF` and `BREAK` test one;
//! * ALU operations, `COPY`, `SELECT` (conditional move, used by the
//!   if-conversion baseline), compares, `LOAD`/`STORE` against named arrays,
//!   and the two control operations. `IF` chooses one of two paths *inside*
//!   the loop body; `BREAK` has one branch that *exits* the loop (the
//!   paper's §1.1 distinction);
//! * an optional per-operation [`Guard`] — tree-VLIW semantics let an
//!   operation execute in the *same cycle* as the IF computing its guard,
//!   on the matching subtree;
//! * one register map, [`Operation::try_map_regs`] /
//!   [`Operation::map_regs`], through which every rewrite of an operation's
//!   registers goes; each slot is visited as a [`Role::Def`] or a
//!   [`Role::Use`] (see [`op`] for why `defs`/`uses` stay hand-written).
//!
//! A source loop is a [`LoopSpec`]: a structured body (straight-line
//! operations, nested `if`/`else` regions, and `break` exit tests) plus
//! live-in/live-out information and array declarations. [`flatten()`](flatten::flatten) lowers
//! the structured body to a linear list of operations annotated with their
//! *initial predicate matrices* (control dependence expressed as column-0
//! constraints), the starting point of the PSP scheduler.

pub mod analysis;
pub mod flatten;
pub mod op;
pub mod operand;
pub mod print;
pub mod reg;
pub mod spec;

pub use analysis::{mem_access, AccessKind, MemAccess};
pub use flatten::{flatten, FlatOp};
pub use op::{AluOp, CmpOp, Guard, OpKind, Operation, ResClass, Role};
pub use operand::{Address, Operand};
pub use reg::{ArrayId, CcReg, Reg, RegList, RegRef};
pub use spec::{BreakItem, IfItem, Item, LoopBuilder, LoopSpec};
