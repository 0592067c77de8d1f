//! Loop code generation: reconstructing a control-flow graph from the
//! encoded schedule (paper §2, Figure 3).
//!
//! The schedule walk that scores a schedule
//! ([`score_schedule`](crate::heuristics::score_schedule)) enumerates the
//! paths; run with its merging off, it opens one block per path, labeled
//! with the predicate matrix of its *actual* paths, and hands each block to
//! the generator as it goes:
//!
//! 1. the entry blocks split the universe on every *incoming* predicate —
//!    one whose outcome is computed in a previous transformed iteration
//!    (per the IFLog);
//! 2. in each row, a block issues every instance compatible (non-disjoint)
//!    with its matrix, after the waits of the machine's latency rule
//!    ([`InFlight`](psp_machine::InFlight)); the generator places them:
//!    an instance constrained on a predicate that an IF in the *same row*
//!    computes receives a guard (it sits on the matching subtree of the
//!    tree instruction); an instance constrained on a not-yet-computed
//!    predicate executes speculatively (its actual path set widens beyond
//!    its formal one);
//! 3. a block ends with the row in which it issues an IF; its successors
//!    have the IF's matrix element set to `0` and `1` (several IFs in one
//!    row fan out through zero-cycle dispatch blocks);
//! 4. after the last row, every block waits until nothing is in flight and
//!    links back to the entry block whose matrix *subsumes its own
//!    left-shifted matrix* — the paper's loop-back linkage rule;
//! 5. empty jump-only blocks are deleted.
//!
//! A row a block skips takes no cycle, so latency is counted in cycles on
//! each path, not in rows. A placement is checked for speculative conflicts
//! once, against the placements before it on its block's path; children
//! share their parent's placement history instead of copying it. The
//! walk's refusals, past [`MAX_WALK_PATHS`] paths among them, are the
//! generator's.
//!
//! The *preloop* (startup code) re-executes, once per level of pipelining,
//! the wrapped instances (operation index ≥ 1) that the steady state
//! assumes were issued by earlier iterations, with the waits of the latency
//! rule between its cycles and after them; a dispatch chain then enters
//! the steady state through the entry block selected by the predicates the
//! preloop computed. No postloop is needed: the transformation rules forbid
//! any motion that would require exit compensation.

use crate::heuristics::{incoming_predicates, steady_states};
use crate::instance::Instance;
use crate::schedule::Schedule;
use psp_ir::{CcReg, Guard, OpKind, Operation, RegList};
use psp_machine::{BlockId, MachineConfig, Succ, VliwBlock, VliwLoop, VliwTerm};
use psp_predicate::{PredElem, PredicateMatrix};
use std::fmt;
use std::ops::Range;

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

/// One placed instance, as the conflict check reads it: an entry of the
/// placement history shared by every block of one [`generate`] call
/// ([`Blocks`]).
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

/// The blocks of one [`generate`] call: one per path of the schedule walk
/// ([`steady_states`]), numbered in the order the walk opens them, with
/// the instances placed in them as the walk issues each row.
#[derive(Debug, Default)]
pub(crate) struct Blocks {
    blocks: Vec<Block>,
    /// How many entry blocks there are; they come first.
    entries: usize,
    /// The blocks that ended, with their ends, in the order they ended: the
    /// order of the generated program's blocks.
    done: Vec<(usize, End)>,
    /// Every placement of the call.
    history: Vec<Placed>,
}

#[derive(Debug)]
struct Block {
    matrix: PredicateMatrix,
    cycles: Vec<Vec<Operation>>,
    /// The last placement on this block's path, in [`Blocks::history`].
    placed: Option<usize>,
}

#[derive(Debug)]
enum End {
    /// Fan-out over the IFs of the block's last row to the blocks
    /// `children`.
    Fork {
        splits: Vec<(CcReg, u32, i32)>,
        children: Range<usize>,
    },
    /// Loop-back edge to an entry block.
    Back(usize),
}

impl Blocks {
    /// Open the entry blocks, one per matrix of `entries`.
    pub(crate) fn enter(&mut self, entries: &[PredicateMatrix]) {
        self.entries = entries.len();
        self.open(entries, None);
    }

    /// Open one block per matrix of `mats`, on a path whose last placement
    /// is `placed`; returns the first one's number.
    fn open(&mut self, mats: &[PredicateMatrix], placed: Option<usize>) -> usize {
        let first = self.blocks.len();
        self.blocks.extend(mats.iter().map(|m| Block {
            matrix: m.clone(),
            cycles: Vec::new(),
            placed,
        }));
        first
    }

    /// Block `b` issues `cycle`, the instances of a row compatible with its
    /// matrix in row order, after `wait` empty cycles.
    pub(crate) fn issue(
        &mut self,
        b: usize,
        cycle: &[&Instance],
        wait: u32,
    ) -> Result<(), CodegenError> {
        let block = &mut self.blocks[b];
        let mut ops = Vec::with_capacity(cycle.len());
        let mut conflict = false;
        for inst in cycle {
            let (guard, guard_pred) = guard_for(inst, &block.matrix, cycle)?;
            let mut op = *inst.op();
            op.guard = guard;
            ops.push(op);
            let exec = match guard_pred {
                Some((r, c, v)) => block.matrix.with(r, c, PredElem::from_bool(v)),
                None => block.matrix.clone(),
            };
            let placed = Placed {
                formal: inst.formal.clone(),
                defs: inst.op().defs(),
                exec,
                prev: block.placed,
            };
            conflict = conflict || placed.conflicts(&self.history);
            block.placed = Some(self.history.len());
            self.history.push(placed);
        }
        // Reported after the row's placements, so a guard error later in
        // the row takes precedence.
        if conflict {
            return Err(CodegenError::SpeculativeConflict);
        }
        push_empty(&mut block.cycles, wait);
        block.cycles.push(ops);
        Ok(())
    }

    /// End block `b` at the IFs `splits` of its last row, with one child
    /// per matrix of `mats`; returns the first child's number.
    pub(crate) fn fork(
        &mut self,
        b: usize,
        splits: &[(CcReg, u32, i32)],
        mats: &[PredicateMatrix],
    ) -> usize {
        let first = self.open(mats, self.blocks[b].placed);
        let children = first..self.blocks.len();
        let splits = splits.to_vec();
        self.done.push((b, End::Fork { splits, children }));
        first
    }

    /// End block `b` with `drain` empty cycles and a back edge to entry
    /// block `entry`.
    pub(crate) fn back(&mut self, b: usize, drain: u32, entry: usize) {
        push_empty(&mut self.blocks[b].cycles, drain);
        self.done.push((b, End::Back(entry)));
    }
}

/// Generate executable code for a schedule.
pub fn generate(sched: &Schedule, machine: &MachineConfig) -> Result<VliwLoop, CodegenError> {
    let incoming = incoming_predicates(sched)?;

    // --- preloop -----------------------------------------------------------
    // Establish the steady-state entry contract by reaching-definition
    // analysis and emulation of the startup iterations (see `preloop`).
    // Depends only on the schedule and the incoming predicates, so it runs
    // *before* the exponential schedule walk: a schedule whose contract
    // cannot be established is rejected at linear cost.
    let (prologue, dispatch_map) = crate::preloop::build_preloop(sched, &incoming)?;
    let prologue = machine.with_waits(prologue);

    // --- the walk: one block per path, placed row by row ---------------------
    let mut walk = Blocks::default();
    steady_states(sched, machine, &incoming, None, Some(&mut walk))?;
    let Blocks {
        mut blocks,
        entries,
        done,
        ..
    } = walk;

    // --- materialize VliwBlocks, in the order the blocks ended ---------------
    let mut id: Vec<BlockId> = vec![0; blocks.len()];
    for (k, &(b, _)) in done.iter().enumerate() {
        id[b] = k;
    }
    let mut program: Vec<VliwBlock> = done
        .iter()
        .enumerate()
        .map(|(k, &(b, _))| VliwBlock {
            id: k,
            matrix: blocks[b].matrix.clone(),
            cycles: std::mem::take(&mut blocks[b].cycles),
            term: VliwTerm::Exit, // placeholder
        })
        .collect();
    // The program block of the block among `range` whose matrix is `m`.
    let find = |mut range: Range<usize>, m: &PredicateMatrix| {
        range.find(|&c| blocks[c].matrix == *m).map(|c| id[c])
    };
    for (k, (b, end)) in done.iter().enumerate() {
        program[k].term = match end {
            End::Back(entry) => VliwTerm::Jump(Succ::back(id[*entry])),
            End::Fork { splits, children } => {
                let lookup = |m: &PredicateMatrix| find(children.clone(), m);
                build_dispatch(&mut program, &blocks[*b].matrix, splits, &lookup)?
            }
        };
    }

    // --- entry dispatch ------------------------------------------------------
    let entry = if incoming.is_empty() {
        id[0]
    } else {
        let splits: Vec<(CcReg, u32, i32)> = incoming
            .iter()
            .map(|&(r, c)| {
                let cc = dispatch_map
                    .get(&(r, c))
                    .copied()
                    .ok_or(CodegenError::UnresolvedPredicate(r, c))?;
                Ok((cc, r, c))
            })
            .collect::<Result<_, CodegenError>>()?;
        let lookup = |m: &PredicateMatrix| find(0..entries, m);
        let root_matrix = PredicateMatrix::universe();
        let root_id = program.len();
        program.push(VliwBlock {
            id: root_id,
            matrix: root_matrix.clone(),
            cycles: Vec::new(),
            term: VliwTerm::Exit,
        });
        let term = build_dispatch(&mut program, &root_matrix, &splits, &lookup)?;
        program[root_id].term = term;
        root_id
    };

    let mut result = VliwLoop {
        name: format!("{}-psp", sched.source.name),
        prologue,
        blocks: program,
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

/// The most open paths the schedule walk counts after any row, when it
/// scores a schedule
/// ([`score_schedule`](crate::heuristics::score_schedule)) and when it
/// hands [`generate`] its blocks. Scoring merges paths whose futures
/// agree, but code generation builds one block per path, so a schedule
/// past this cap could not be generated in reasonable time; both refuse it
/// with [`CodegenError::TooManyPaths`].
pub const MAX_WALK_PATHS: usize = 1 << 18;

/// Terminator (possibly via zero-cycle dispatch blocks) implementing a
/// sequence of matrix splits from `base`, resolving leaves with `lookup`.
fn build_dispatch(
    blocks: &mut Vec<VliwBlock>,
    base: &PredicateMatrix,
    splits: &[(CcReg, u32, i32)],
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
            base.with(r, c, PredElem::from_bool(outcome))
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
/// `cycle` is the row's instances the block issues.
#[allow(clippy::type_complexity)]
fn guard_for(
    inst: &Instance,
    block: &PredicateMatrix,
    cycle: &[&Instance],
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
        let same_row_if = cycle.iter().find_map(|i| match i.op().kind {
            OpKind::If { cc } if i.computes_if == Some(r) && i.index == c => Some(cc),
            _ => None,
        });
        if let Some(cc) = same_row_if {
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
