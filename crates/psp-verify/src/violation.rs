//! Structured validator findings.
//!
//! Every check in this crate reports a [`Violation`] rather than panicking,
//! so callers (the fuzz oracle, the CLI, the tests) can decide what a
//! finding means in context. The `Display` form is the canonical message
//! surfaced in test failures and CI logs; it names the concrete
//! schedule coordinates involved so a failure is actionable without
//! re-running the validator.

use psp_ir::RegRef;
use std::fmt;

/// Where inside a compiled artifact a resource overflow happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CycleSite {
    /// `prologue[i]`.
    Prologue(usize),
    /// `blocks[b].cycles[i]`.
    Block(usize, usize),
    /// `epilogue[i]`.
    Epilogue(usize),
    /// Schedule row `i` (pre-codegen).
    Row(usize),
    /// Modulo slot `t mod II`.
    Slot(usize),
}

impl fmt::Display for CycleSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleSite::Prologue(i) => write!(f, "prologue cycle {i}"),
            CycleSite::Block(b, i) => write!(f, "block B{b} cycle {i}"),
            CycleSite::Epilogue(i) => write!(f, "epilogue cycle {i}"),
            CycleSite::Row(i) => write!(f, "schedule row {i}"),
            CycleSite::Slot(t) => write!(f, "modulo slot {t}"),
        }
    }
}

/// One defect found by an independent validator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A cycle needs more issue slots of one class than the machine has.
    Resource {
        /// Where the overflowing cycle lives.
        site: CycleSite,
        /// Resource class name (`ALU`/`MEM`/`BRANCH`).
        class: &'static str,
        /// Co-issuable operations of that class in the cycle.
        used: usize,
        /// The machine's per-cycle limit.
        limit: u32,
    },
    /// A same-iteration register dependence is not honored by placement.
    RegisterOrder {
        /// `flow`, `anti`, or `output`.
        kind: &'static str,
        /// The register carrying the dependence.
        reg: RegRef,
        /// Iteration index of the offending frame.
        index: i32,
        /// Row of the program-earlier endpoint.
        early_row: usize,
        /// Row of the program-later endpoint.
        late_row: usize,
        /// Human-readable rendering of the two operations.
        detail: String,
    },
    /// A memory dependence (same-iteration, possibly cross-frame) is
    /// reordered or co-issued against the naive ordering rules.
    MemoryOrder {
        /// `W->R`, `R->W`, or `W->W`.
        kind: &'static str,
        /// Rendering of the two operations with their frames and rows.
        detail: String,
    },
    /// The BREAK protocol is broken: an observable effect of a later
    /// iteration can execute before an earlier iteration's BREAK resolves,
    /// or two BREAKs / a BREAK and a program-earlier observable swapped.
    BreakProtocol {
        /// Which of the three rules failed.
        rule: &'static str,
        /// Rendering of the two instances.
        detail: String,
    },
    /// A non-speculable instance sits above the IF that computes one of
    /// its formal predicates (or a load does while the machine forbids
    /// speculative loads).
    Speculation {
        /// Predicate row and column the instance is constrained on.
        pred: (u32, i32),
        /// Row of the instance.
        row: usize,
        /// Rendering of the instance.
        detail: String,
    },
    /// A constrained predicate is computed by no IF instance in the
    /// schedule.
    UnresolvedPredicate {
        /// Predicate row and column.
        pred: (u32, i32),
        /// Rendering of the instance needing it.
        detail: String,
    },
    /// An original operation has no remaining instance in the schedule.
    DroppedOp {
        /// Flattened source position.
        origin: usize,
        /// Rendering of the original operation.
        detail: String,
    },
    /// Two instances of the same origin can execute on a shared path in
    /// the same iteration (double execution).
    DoubleExecution {
        /// Flattened source position.
        origin: usize,
        /// Rendering of the two instances.
        detail: String,
    },
    /// The union of an origin's instances misses a path the original
    /// operation executes on.
    Coverage {
        /// Flattened source position.
        origin: usize,
        /// A concrete uncovered outcome assignment.
        detail: String,
    },
    /// An IF instance is inconsistent with the source loop (missing
    /// `computes_if`, or condition register mismatch).
    IfLogMismatch {
        /// Explanation.
        detail: String,
    },
    /// A structural defect of the generated CFG (dangling successor,
    /// id mismatch, forward cycle, unreachable block, missing back edge,
    /// branch without a same-cycle IF).
    Structure {
        /// Explanation.
        detail: String,
    },
    /// A startup/steady-state contract defect (overlapping entry block
    /// matrices, schedule/program mismatch).
    Contract {
        /// Explanation.
        detail: String,
    },
    /// An operation of generated code issues, on some path of its control
    /// flow graph (back edges and the prologue included), while a write to
    /// a register it reads or writes is still in flight.
    Latency {
        /// Where the early operation issues.
        site: CycleSite,
        /// The register in flight.
        reg: RegRef,
        /// Cycles, at most, until the write lands.
        early_by: u32,
        /// Rendering of the operation.
        detail: String,
    },
    /// A modulo-schedule constraint `t[to] + II*dist >= t[from] + lat`
    /// does not hold for a re-derived dependence edge.
    ModuloEdge {
        /// `flow`/`anti`/`output`/`memory`/`break`.
        kind: &'static str,
        /// Cross-iteration distance of the edge.
        dist: u32,
        /// Rendering of both endpoints with their times.
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Resource {
                site,
                class,
                used,
                limit,
            } => write!(
                f,
                "resource oversubscription: {site} issues {used} {class} ops (limit {limit})"
            ),
            Violation::RegisterOrder {
                kind,
                reg,
                index,
                early_row,
                late_row,
                detail,
            } => write!(
                f,
                "{kind} dependence on {reg:?} broken in frame {index:+}: \
                 producer row {early_row} vs consumer row {late_row}: {detail}"
            ),
            Violation::MemoryOrder { kind, detail } => {
                write!(f, "memory {kind} dependence broken: {detail}")
            }
            Violation::BreakProtocol { rule, detail } => {
                write!(f, "BREAK protocol ({rule}): {detail}")
            }
            Violation::Speculation { pred, row, detail } => write!(
                f,
                "illegal speculation above IF ({},{}) at row {row}: {detail}",
                pred.0, pred.1
            ),
            Violation::UnresolvedPredicate { pred, detail } => write!(
                f,
                "predicate ({},{}) computed by no IF instance, needed by {detail}",
                pred.0, pred.1
            ),
            Violation::DroppedOp { origin, detail } => {
                write!(f, "origin {origin} has no instance left: {detail}")
            }
            Violation::DoubleExecution { origin, detail } => {
                write!(
                    f,
                    "origin {origin} executes twice on a shared path: {detail}"
                )
            }
            Violation::Coverage { origin, detail } => {
                write!(f, "origin {origin} not covered on path {detail}")
            }
            Violation::IfLogMismatch { detail } => write!(f, "IF log mismatch: {detail}"),
            Violation::Structure { detail } => write!(f, "structure: {detail}"),
            Violation::Contract { detail } => write!(f, "contract: {detail}"),
            Violation::Latency {
                site,
                reg,
                early_by,
                detail,
            } => write!(
                f,
                "latency: {site} touches {reg:?} up to {early_by} cycle(s) before its write lands: {detail}"
            ),
            Violation::ModuloEdge { kind, dist, detail } => {
                write!(f, "modulo {kind} edge (dist {dist}) violated: {detail}")
            }
        }
    }
}
