//! Loop code generation: reconstructing a control-flow graph from the
//! encoded schedule (paper §2, Figure 3).
//!
//! The generator walks the schedule row by row, maintaining a set of open
//! basic blocks, each labeled with the predicate matrix of its *actual*
//! paths:
//!
//! 1. the initial block set splits the universe on every *incoming*
//!    predicate — one whose outcome is computed in a previous transformed
//!    iteration (per the IFLog);
//! 2. every instance is placed in all open blocks with compatible
//!    (non-disjoint) matrices; an instance constrained on a predicate that
//!    an IF in the *same row* computes receives a guard (it sits on the
//!    matching subtree of the tree instruction); an instance constrained on
//!    a not-yet-computed predicate executes speculatively (its actual path
//!    set widens beyond its formal one);
//! 3. a block ends with the row in which an IF instance was placed; two
//!    successors are opened with the IF's matrix element set to `0` and
//!    `1` (several IFs in one row fan out through zero-cycle dispatch
//!    blocks);
//! 4. after the last row, every open block links back to the entry block
//!    whose matrix *subsumes its own left-shifted matrix* — the paper's
//!    loop-back linkage rule;
//! 5. empty jump-only blocks are deleted.
//!
//! Each block tracks the writes in flight on its path and applies the
//! machine's latency rule ([`InFlight`]): empty cycles before a row that
//! touches a register in flight, and at the end of a back-edge block until
//! nothing is in flight. A row the block skips takes no cycle, so latency
//! is counted in cycles on each path, not in rows.
//!
//! A placement is checked for speculative conflicts once, against the
//! placements before it on its block's path; children share their parent's
//! placement history instead of copying it. The generator refuses a
//! schedule that would open more than [`MAX_WALK_PATHS`] blocks in one row,
//! or more entry blocks than that, with the error the schedule walk that
//! scores it raises ([`score_schedule`](crate::heuristics::score_schedule)).
//!
//! The *preloop* (startup code) re-executes, once per level of pipelining,
//! the wrapped instances (operation index ≥ 1) that the steady state
//! assumes were issued by earlier iterations, with the waits of the latency
//! rule between its cycles and after them; a dispatch chain then enters
//! the steady state through the entry block selected by the predicates the
//! preloop computed. No postloop is needed: the transformation rules forbid
//! any motion that would require exit compensation.

use crate::instance::Instance;
use crate::schedule::Schedule;
use psp_ir::{Guard, Operation, RegList};
use psp_machine::{BlockId, InFlight, MachineConfig, Succ, VliwBlock, VliwLoop, VliwTerm};
use psp_predicate::{PredAvailability, PredicateMatrix};
use std::fmt;

/// Code-generation failure. The scheduling driver treats these as a signal
/// to discard the candidate transformation that led here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// A constrained predicate is computed by no IF instance.
    UnresolvedPredicate(u32, i32),
    /// A non-speculable instance could not be placed exactly on its formal
    /// paths.
    Unplaceable(&'static str),
    /// An instance would need guards from two IFs of the same row.
    MultiGuard,
    /// Two speculatively co-executing clones conflict on a destination.
    SpeculativeConflict,
    /// A loop-back edge found no entry block to link to.
    NoBackEdgeTarget,
    /// Deep pipelining produced two incoming predicates in one IF row; the
    /// single condition register cannot dispatch on both.
    DispatchUnsupported,
    /// A generated cycle exceeds the machine's resources.
    Resource(String),
    /// The startup contract cannot be established by the preloop emulator
    /// (see `preloop`); the driver discards the candidate.
    PreloopUnsupported(&'static str),
    /// The schedule's steady state has more than this many open paths at
    /// once ([`MAX_WALK_PATHS`]); the loop is refused before its code is
    /// generated.
    TooManyPaths(usize),
    /// An internal invariant of the generator did not hold. Reaching this
    /// indicates a bug in a transformation or in the generator itself, but
    /// it is reported as a typed error (the driver discards the candidate)
    /// instead of unwinding through the public API.
    Internal(&'static str),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::UnresolvedPredicate(r, c) => {
                write!(f, "predicate ({r},{c}) is never computed")
            }
            CodegenError::Unplaceable(s) => write!(f, "unplaceable instance: {s}"),
            CodegenError::MultiGuard => write!(f, "instance needs two same-row guards"),
            CodegenError::SpeculativeConflict => {
                write!(f, "speculative clones conflict on a destination")
            }
            CodegenError::NoBackEdgeTarget => write!(f, "no entry block subsumes a loop-back"),
            CodegenError::DispatchUnsupported => {
                write!(f, "multiple incoming columns for one IF row")
            }
            CodegenError::Resource(s) => write!(f, "resource overflow: {s}"),
            CodegenError::PreloopUnsupported(s) => {
                write!(f, "preloop cannot establish the entry contract: {s}")
            }
            CodegenError::TooManyPaths(n) => {
                write!(f, "more than {n} open steady-state paths (MAX_WALK_PATHS)")
            }
            CodegenError::Internal(s) => write!(f, "internal invariant violated: {s}"),
        }
    }
}

impl std::error::Error for CodegenError {}

/// Shared by [`generate`] and the schedule walk, which fail the same way.
pub(crate) const ENTRY_SPLIT: CodegenError =
    CodegenError::Internal("entry split on a constrained element");
pub(crate) const NO_IF_ROW: CodegenError =
    CodegenError::Internal("IF instance computes no predicate row");

/// Token identifying one logical block during construction.
type Token = usize;

/// An open (under-construction) block.
#[derive(Debug)]
struct OpenBlock {
    token: Token,
    matrix: PredicateMatrix,
    cycles: Vec<Vec<Operation>>,
    /// The last placement on this block's path, in [`generate`]'s
    /// placement history.
    placed: Option<usize>,
    /// The writes in flight at the end of the block's cycles.
    flight: InFlight,
}

/// One placed instance, as the conflict check reads it: an entry of the
/// placement history shared by every block of one [`generate`] call.
#[derive(Debug)]
struct Placed {
    formal: PredicateMatrix,
    defs: RegList,
    /// The *actual execution condition*: the block matrix at placement
    /// time conjoined with the guard's predicate.
    exec: PredicateMatrix,
    /// The placement before this one on the same path.
    prev: Option<usize>,
}

impl Placed {
    /// Whether `self` conflicts with a placement before it on its path:
    /// two placed instances whose formal path sets are disjoint must never
    /// *actually* co-execute while writing the same destination.
    fn conflicts(&self, history: &[Placed]) -> bool {
        let mut at = self.prev;
        while let Some(p) = at.and_then(|i| history.get(i)) {
            if self.defs.iter().any(|d| p.defs.contains(d))
                && self.formal.is_disjoint(&p.formal)
                && !self.exec.is_disjoint(&p.exec)
            {
                return true;
            }
            at = p.prev;
        }
        false
    }
}

/// A finished logical block.
#[derive(Debug)]
struct Done {
    token: Token,
    matrix: PredicateMatrix,
    cycles: Vec<Vec<Operation>>,
    term: DoneTerm,
}

#[derive(Debug)]
enum DoneTerm {
    /// Fan-out over IFs placed in the final row; `children` maps each leaf
    /// outcome matrix to the child's token.
    Splits {
        splits: Vec<(psp_ir::CcReg, u32, i32)>,
        children: Vec<(PredicateMatrix, Token)>,
    },
    /// Loop-back edge.
    Back,
}

/// The predicates the steady state dispatches on at block entry: those a
/// constrained instance needs from the *previous* iteration. Shared by
/// [`generate`] and the schedule walk, so both agree exactly on the entry
/// fan-out (and on the failure modes that precede it).
pub(crate) fn incoming_predicates(sched: &Schedule) -> Result<Vec<(u32, i32)>, CodegenError> {
    let iflog = sched.iflog();
    let mut incoming: Vec<(u32, i32)> = Vec::new();
    for inst in sched.instances() {
        for (r, c, _v) in inst.formal.constrained() {
            match iflog.availability(r, c) {
                PredAvailability::PreviousIteration { .. } if !incoming.contains(&(r, c)) => {
                    incoming.push((r, c));
                }
                PredAvailability::NotComputed => {
                    return Err(CodegenError::UnresolvedPredicate(r, c))
                }
                _ => {}
            }
        }
    }
    incoming.sort_unstable();
    // One incoming column per IF row (a single condition register cannot
    // hold two iterations' outcomes).
    for w in incoming.windows(2) {
        if w[0].0 == w[1].0 {
            return Err(CodegenError::DispatchUnsupported);
        }
    }
    Ok(incoming)
}

/// The steady state's entry matrices: the universe split on every
/// incoming predicate in turn. `None` when a split meets an element that
/// is already constrained.
pub(crate) fn entry_matrices(incoming: &[(u32, i32)]) -> Option<Vec<PredicateMatrix>> {
    let mut entries = vec![PredicateMatrix::universe()];
    for &(r, c) in incoming {
        let mut next = Vec::with_capacity(entries.len() * 2);
        for m in entries {
            let (f, t) = m.split(r, c)?;
            next.push(f);
            next.push(t);
        }
        entries = next;
    }
    Some(entries)
}

/// The successor matrices of a block with matrix `m` that ends in a row
/// whose IFs compute the predicates `splits`: `m` split on each in turn,
/// written to `out` in place of its contents. An outcome `m` already fixes
/// leaves one child. Splitting stops once `out` holds more than `cap`
/// matrices, which the caller refuses; returns `out.len()`.
pub(crate) fn fan_out(
    m: PredicateMatrix,
    splits: &[(u32, i32)],
    cap: usize,
    out: &mut Vec<PredicateMatrix>,
) -> usize {
    out.clear();
    out.push(m);
    for &(r, c) in splits {
        if out.len() > cap {
            break;
        }
        let n = out.len();
        for k in 0..n {
            let m = std::mem::take(&mut out[k]);
            match m.split(r, c) {
                Some((f, t)) => {
                    out.push(f);
                    out.push(t);
                }
                None => out.push(m),
            }
        }
        out.drain(..n);
    }
    out.len()
}

/// Open `block` in `open`, the blocks of the next row, unless that would
/// hold more than [`MAX_WALK_PATHS`] of them.
fn push_open(open: &mut Vec<OpenBlock>, block: OpenBlock) -> Result<(), CodegenError> {
    if open.len() >= MAX_WALK_PATHS {
        return Err(CodegenError::TooManyPaths(MAX_WALK_PATHS));
    }
    open.push(block);
    Ok(())
}

/// Generate executable code for a schedule.
pub fn generate(sched: &Schedule, machine: &MachineConfig) -> Result<VliwLoop, CodegenError> {
    let incoming = incoming_predicates(sched)?;

    // --- preloop -----------------------------------------------------------
    // Establish the steady-state entry contract by reaching-definition
    // analysis and emulation of the startup iterations (see `preloop`).
    // Depends only on the schedule and the incoming predicates, so it runs
    // *before* the exponential block walk: a schedule whose contract cannot
    // be established is rejected at linear cost.
    let (prologue, dispatch_map) = crate::preloop::build_preloop(sched, &incoming)?;
    let prologue = machine.with_waits(prologue);

    // --- entry blocks ------------------------------------------------------
    if incoming.len() > MAX_ENTRY_SPLITS {
        return Err(CodegenError::TooManyPaths(MAX_WALK_PATHS));
    }
    let mut next_token: Token = 0;
    let mut fresh = move || {
        let t = next_token;
        next_token += 1;
        t
    };
    let entries = entry_matrices(&incoming).ok_or(ENTRY_SPLIT)?;
    let mut open: Vec<OpenBlock> = entries
        .iter()
        .map(|m| OpenBlock {
            token: fresh(),
            matrix: m.clone(),
            cycles: Vec::new(),
            placed: None,
            flight: InFlight::default(),
        })
        .collect();
    let entry_tokens: Vec<Token> = open.iter().map(|b| b.token).collect();
    let mut done: Vec<Done> = Vec::new();
    let mut history: Vec<Placed> = Vec::new();
    let mut mats: Vec<PredicateMatrix> = Vec::new();

    // --- walk the rows ---------------------------------------------------
    for row in &sched.rows {
        let mut next_open = Vec::new();
        for mut block in open {
            let row_ifs: Vec<&Instance> = row
                .iter()
                .filter(|i| i.op().is_if() && !i.formal.is_disjoint(&block.matrix))
                .collect();
            let mut cycle: Vec<Operation> = Vec::new();
            let mut conflict = false;
            for inst in row {
                if inst.formal.is_disjoint(&block.matrix) {
                    continue;
                }
                let (guard, guard_pred) = guard_for(inst, &block.matrix, &row_ifs)?;
                let mut op = *inst.op();
                op.guard = guard;
                cycle.push(op);
                let exec = match guard_pred {
                    Some((r, c, v)) => {
                        block
                            .matrix
                            .with(r, c, psp_predicate::PredElem::from_bool(v))
                    }
                    None => block.matrix.clone(),
                };
                let placed = Placed {
                    formal: inst.formal.clone(),
                    defs: inst.op().defs(),
                    exec,
                    prev: block.placed,
                };
                conflict = conflict || placed.conflicts(&history);
                block.placed = Some(history.len());
                history.push(placed);
            }
            // Reported after the row's placements, so a guard error later
            // in the row takes precedence.
            if conflict {
                return Err(CodegenError::SpeculativeConflict);
            }
            if !cycle.is_empty() {
                let wait = block.flight.issue(&cycle, machine);
                push_empty(&mut block.cycles, wait);
                block.cycles.push(cycle);
            }
            if row_ifs.is_empty() {
                push_open(&mut next_open, block)?;
                continue;
            }
            // Block ends: fan out over the IFs placed in this row.
            let mut splits: Vec<(psp_ir::CcReg, u32, i32)> = Vec::with_capacity(row_ifs.len());
            for i in &row_ifs {
                let psp_ir::OpKind::If { cc } = i.op().kind else {
                    return Err(CodegenError::Internal("row_ifs holds a non-IF instance"));
                };
                let r = i.computes_if.ok_or(NO_IF_ROW)?;
                splits.push((cc, r, i.index));
            }
            let keys: Vec<(u32, i32)> = splits.iter().map(|&(_cc, r, c)| (r, c)).collect();
            // Past the room left under the cap, `push_open` refuses.
            let room = MAX_WALK_PATHS.saturating_sub(next_open.len());
            fan_out(block.matrix.clone(), &keys, room, &mut mats);
            let mut children = Vec::with_capacity(mats.len());
            for m in mats.drain(..) {
                let token = fresh();
                children.push((m.clone(), token));
                push_open(
                    &mut next_open,
                    OpenBlock {
                        token,
                        matrix: m,
                        cycles: Vec::new(),
                        placed: block.placed,
                        flight: block.flight.clone(),
                    },
                )?;
            }
            done.push(Done {
                token: block.token,
                matrix: block.matrix,
                cycles: block.cycles,
                term: DoneTerm::Splits { splits, children },
            });
        }
        open = next_open;
    }
    for mut block in open {
        push_empty(&mut block.cycles, block.flight.drain());
        done.push(Done {
            token: block.token,
            matrix: block.matrix,
            cycles: block.cycles,
            term: DoneTerm::Back,
        });
    }

    // --- materialize VliwBlocks --------------------------------------------
    let mut blocks: Vec<VliwBlock> = Vec::new();
    let mut id_of_token: Vec<Option<BlockId>> = Vec::new();
    for d in &done {
        let id = blocks.len();
        blocks.push(VliwBlock {
            id,
            matrix: d.matrix.clone(),
            cycles: d.cycles.clone(),
            term: VliwTerm::Exit, // placeholder
        });
        if id_of_token.len() <= d.token {
            id_of_token.resize(d.token + 1, None);
        }
        id_of_token[d.token] = Some(id);
    }
    let block_of = |t: Token| -> Result<BlockId, CodegenError> {
        id_of_token
            .get(t)
            .copied()
            .flatten()
            .ok_or(CodegenError::Internal("block token was never finished"))
    };

    let entry_ids: Vec<BlockId> = entry_tokens
        .iter()
        .map(|&t| block_of(t))
        .collect::<Result<_, _>>()?;

    for (di, d) in done.iter().enumerate() {
        let my_id = block_of(done[di].token)?;
        match &d.term {
            DoneTerm::Back => {
                let shifted = d.matrix.shifted(-1);
                let target = entries
                    .iter()
                    .position(|e| e.subsumes(&shifted))
                    .ok_or(CodegenError::NoBackEdgeTarget)?;
                blocks[my_id].term = VliwTerm::Jump(Succ::back(entry_ids[target]));
            }
            DoneTerm::Splits { splits, children } => {
                let lookup = |m: &PredicateMatrix| -> Option<BlockId> {
                    children
                        .iter()
                        .find(|(cm, _)| cm == m)
                        .and_then(|&(_, t)| block_of(t).ok())
                };
                let term = build_dispatch(&mut blocks, &d.matrix, splits, &lookup)?;
                blocks[my_id].term = term;
            }
        }
    }

    // --- entry dispatch ------------------------------------------------------
    let entry = if incoming.is_empty() {
        entry_ids[0]
    } else {
        let splits: Vec<(psp_ir::CcReg, u32, i32)> = incoming
            .iter()
            .map(|&(r, c)| {
                let cc = dispatch_map
                    .get(&(r, c))
                    .copied()
                    .ok_or(CodegenError::UnresolvedPredicate(r, c))?;
                Ok((cc, r, c))
            })
            .collect::<Result<_, CodegenError>>()?;
        let lookup = |m: &PredicateMatrix| -> Option<BlockId> {
            entries.iter().position(|e| e == m).map(|i| entry_ids[i])
        };
        let root_matrix = PredicateMatrix::universe();
        let root_id = blocks.len();
        blocks.push(VliwBlock {
            id: root_id,
            matrix: root_matrix.clone(),
            cycles: Vec::new(),
            term: VliwTerm::Exit,
        });
        let term = build_dispatch(&mut blocks, &root_matrix, &splits, &lookup)?;
        blocks[root_id].term = term;
        root_id
    };

    let mut result = VliwLoop {
        name: format!("{}-psp", sched.source.name),
        prologue,
        blocks,
        entry,
        epilogue: Vec::new(),
    };
    cleanup_empty_jump_blocks(&mut result);
    result.validate(machine).map_err(CodegenError::Resource)?;
    Ok(result)
}

/// Append `n` empty cycles: waits of the latency rule.
fn push_empty(cycles: &mut Vec<Vec<Operation>>, n: u32) {
    cycles.extend(std::iter::repeat_with(Vec::new).take(n as usize));
}

/// The most open paths the steady-state walk that scores a schedule
/// ([`score_schedule`](crate::heuristics::score_schedule)) counts after any
/// row, and the most open blocks [`generate`] holds. The walk merges paths
/// whose futures agree, but code generation still builds one block per
/// path, so a schedule past this cap could not be generated in reasonable
/// time; both refuse it with [`CodegenError::TooManyPaths`].
pub const MAX_WALK_PATHS: usize = 1 << 18;

/// The most incoming predicates whose 2^n entry paths fit under
/// [`MAX_WALK_PATHS`].
pub(crate) const MAX_ENTRY_SPLITS: usize = MAX_WALK_PATHS.trailing_zeros() as usize;

/// Terminator (possibly via zero-cycle dispatch blocks) implementing a
/// sequence of matrix splits from `base`, resolving leaves with `lookup`.
fn build_dispatch(
    blocks: &mut Vec<VliwBlock>,
    base: &PredicateMatrix,
    splits: &[(psp_ir::CcReg, u32, i32)],
    lookup: &dyn Fn(&PredicateMatrix) -> Option<BlockId>,
) -> Result<VliwTerm, CodegenError> {
    let (cc, r, c) = splits[0];
    let rest = &splits[1..];
    let mut child = |outcome: bool| -> Result<Succ, CodegenError> {
        // If the base already fixes the outcome, both branch directions
        // continue on the single consistent path.
        let m = if base.get(r, c).is_constrained() {
            base.clone()
        } else {
            base.with(r, c, psp_predicate::PredElem::from_bool(outcome))
        };
        if rest.is_empty() {
            let id = lookup(&m).ok_or(CodegenError::NoBackEdgeTarget)?;
            Ok(Succ::fall(id))
        } else {
            let id = blocks.len();
            blocks.push(VliwBlock {
                id,
                matrix: m.clone(),
                cycles: Vec::new(),
                term: VliwTerm::Exit,
            });
            let t = build_dispatch(blocks, &m, rest, lookup)?;
            blocks[id].term = t;
            Ok(Succ::fall(id))
        }
    };
    let on_false = child(false)?;
    let on_true = child(true)?;
    Ok(VliwTerm::Branch {
        cc,
        on_true,
        on_false,
    })
}

/// The guard an instance needs inside a block, if any, together with the
/// predicate position the guard tests (for exec-condition tracking).
#[allow(clippy::type_complexity)]
fn guard_for(
    inst: &Instance,
    block: &PredicateMatrix,
    row_ifs: &[&Instance],
) -> Result<(Option<Guard>, Option<(u32, i32, bool)>), CodegenError> {
    let mut guard: Option<Guard> = None;
    let mut guard_pred: Option<(u32, i32, bool)> = None;
    for (r, c, v) in inst.formal.constrained() {
        if block.get(r, c).is_constrained() {
            // The block preselects the path (values agree, else the
            // matrices would be disjoint).
            continue;
        }
        // Does an IF in this very row compute the predicate?
        let same_row_if = row_ifs
            .iter()
            .find(|i| i.computes_if == Some(r) && i.index == c);
        if let Some(ifinst) = same_row_if {
            let psp_ir::OpKind::If { cc } = ifinst.op().kind else {
                return Err(CodegenError::Internal(
                    "computes_if set on a non-IF instance",
                ));
            };
            if guard.is_some() {
                return Err(CodegenError::MultiGuard);
            }
            guard = Some(Guard { cc, on_true: v });
            guard_pred = Some((r, c, v));
            continue;
        }
        // Unresolved here: speculative execution — legal only for
        // speculable operations. (Also covers predicates computed earlier
        // whose blocks did not split because the computing IF was itself
        // conditional.)
        if !inst.op().is_speculable() {
            return Err(CodegenError::Unplaceable(
                "non-speculable instance on an unresolved predicate",
            ));
        }
    }
    Ok((guard, guard_pred))
}

/// Delete empty jump-only blocks by redirecting their predecessors
/// (dispatch blocks — empty with a branch — are kept).
fn cleanup_empty_jump_blocks(prog: &mut VliwLoop) {
    fn resolve(prog: &VliwLoop, mut s: Succ) -> Succ {
        let mut hops = 0;
        while let VliwTerm::Jump(next) = prog.blocks[s.block].term {
            if !prog.blocks[s.block].cycles.is_empty() {
                break;
            }
            s = Succ {
                block: next.block,
                back_edge: s.back_edge || next.back_edge,
            };
            hops += 1;
            if hops > prog.blocks.len() {
                break; // cycle of empty blocks: leave as is
            }
        }
        s
    }
    // Every chain is resolved against the unchanged blocks, then written.
    let terms: Vec<VliwTerm> = prog
        .blocks
        .iter()
        .map(|b| map_succs(b.term, |s| resolve(prog, s)))
        .collect();
    prog.entry = resolve(prog, Succ::fall(prog.entry)).block;
    for (b, term) in prog.blocks.iter_mut().zip(terms) {
        b.term = term;
    }
    // Garbage-collect unreachable blocks, remapping ids.
    let mut reach = vec![false; prog.blocks.len()];
    let mut stack = vec![prog.entry];
    while let Some(b) = stack.pop() {
        if reach[b] {
            continue;
        }
        reach[b] = true;
        for s in prog.blocks[b].term.succs() {
            stack.push(s.block);
        }
    }
    let mut remap = vec![usize::MAX; prog.blocks.len()];
    let mut kept = Vec::new();
    for (i, b) in prog.blocks.drain(..).enumerate() {
        if reach[i] {
            remap[i] = kept.len();
            kept.push(b);
        }
    }
    let fix = |s: Succ| Succ {
        block: remap[s.block],
        back_edge: s.back_edge,
    };
    for (new_id, b) in kept.iter_mut().enumerate() {
        b.id = new_id;
        b.term = map_succs(b.term, fix);
    }
    prog.blocks = kept;
    prog.entry = remap[prog.entry];
}

/// `term` with every successor edge passed through `f`.
fn map_succs(term: VliwTerm, f: impl Fn(Succ) -> Succ) -> VliwTerm {
    match term {
        VliwTerm::Jump(s) => VliwTerm::Jump(f(s)),
        VliwTerm::Branch {
            cc,
            on_true,
            on_false,
        } => VliwTerm::Branch {
            cc,
            on_true: f(on_true),
            on_false: f(on_false),
        },
        VliwTerm::Exit => VliwTerm::Exit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::score_schedule;
    use psp_kernels::{by_name, KernelData};
    use psp_sim::check_equivalence;

    fn m() -> MachineConfig {
        MachineConfig::paper_default()
    }

    #[test]
    fn initial_schedule_generates_sequential_equivalent() {
        for kernel in psp_kernels::all_kernels() {
            let sched = Schedule::initial(&kernel.spec);
            let prog = generate(&sched, &m()).unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            for seed in 0..3u64 {
                let data = KernelData::random(seed + 5, 29);
                let init = kernel.initial_state(&data);
                let (_, run) = check_equivalence(&kernel.spec, &prog, &init, 1_000_000)
                    .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
                kernel.check(&run.state, &data).unwrap();
            }
        }
    }

    #[test]
    fn initial_vecmin_codegen_has_paper_iis() {
        // Unscheduled: one op per row → per-path II 7 (False) and 8 (True).
        let kernel = by_name("vecmin").unwrap();
        let sched = Schedule::initial(&kernel.spec);
        let prog = generate(&sched, &m()).unwrap();
        assert_eq!(prog.ii_range(), Some((7, 8)));
    }

    #[test]
    fn variable_ii_blocks_skip_disjoint_rows() {
        // The COPY row issues nothing on the False path: the False path is
        // one cycle shorter, in the walk and in the generated loop alike.
        let kernel = by_name("vecmin").unwrap();
        let sched = Schedule::initial(&kernel.spec);
        let walked = |p: f64| score_schedule(&sched, &m(), Some(&[p])).unwrap().primary;
        assert_eq!((walked(0.0), walked(1.0)), (7.0, 8.0));
        assert_eq!(generate(&sched, &m()).unwrap().ii_range(), Some((7, 8)));
    }

    #[test]
    fn no_incoming_predicates_means_single_entry() {
        let kernel = by_name("vecmin").unwrap();
        let sched = Schedule::initial(&kernel.spec);
        let prog = generate(&sched, &m()).unwrap();
        assert!(prog.prologue.is_empty());
        assert_eq!(prog.steady_entries().len(), 1);
    }
}
