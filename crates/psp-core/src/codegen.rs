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
//! 5. the finished blocks are shared bottom-up, so the body is a DAG, not
//!    a decision tree: blocks with equal cycles and successors merge where
//!    the merged matrix still admits exactly the paths that reach it, a
//!    branch whose successors coincide becomes a jump, and empty jump-only
//!    blocks are deleted.
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
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
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
/// the instances placed in them as the walk issues each row. They form a
/// decision tree; [`generate`] shares them afterwards.
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

    // --- share equal blocks: the decision tree becomes a DAG -----------------
    let mut result = VliwLoop {
        name: format!("{}-psp", sched.source.name),
        prologue,
        blocks: program,
        entry,
        epilogue: Vec::new(),
    };
    share_blocks(&mut result);
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
/// agree, but code generation opens one block per path before it shares
/// them, so a schedule past this cap could not be generated in reasonable
/// time; both refuse it with [`CodegenError::TooManyPaths`].
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

/// A multiply-rotate hasher (FxHash's step) for [`share_blocks`]' table of
/// block code: it takes an operation's small integer fields one multiply
/// each, where the default SipHash cost the pass about a third of its time.
#[derive(Default)]
struct Fx(u64);

impl Hasher for Fx {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

type BuildFx = BuildHasherDefault<Fx>;

/// Share equal blocks: hash-cons the program bottom-up into a DAG whose
/// block matrices stay exact, delete empty jump-only blocks, and drop
/// unreachable blocks, renumbering the rest in order.
///
/// Blocks are visited by height over forward edges, lowest first, so a
/// block's forward successors are final when it is visited. Its terminator
/// is read through the shared successors: a branch whose two successors
/// coincide becomes a jump (its IF stays: the guards of its row sit on it),
/// and an empty jump block becomes its target. The blocks of one height
/// with equal cycles and terminator then merge, but only into a matrix that
/// admits exactly the outcomes under which control reaches the merged block
/// ([`exact_merges`]). Back edges are resolved once every height is done.
fn share_blocks(prog: &mut VliwLoop) {
    let n = prog.blocks.len();
    let height = forward_heights(&prog.blocks);
    let mut order: Vec<BlockId> = (0..n).collect();
    order.sort_by_key(|&b| height[b]);
    // `to[b]`: the edge that replaces an edge into block `b`; `fall(b)`
    // while `b` is kept.
    let mut to: Vec<Succ> = (0..n).map(Succ::fall).collect();
    let mut terms: Vec<VliwTerm> = prog.blocks.iter().map(|b| b.term).collect();
    let mut merged: Vec<(BlockId, PredicateMatrix)> = Vec::new();
    let mut index: HashMap<(&[Vec<Operation>], VliwTerm), usize, BuildFx> = HashMap::default();
    let mut groups: Vec<Vec<BlockId>> = Vec::new();
    for level in order.chunk_by(|&a, &b| height[a] == height[b]) {
        index.clear();
        groups.clear();
        for &b in level {
            let mut term = map_succs(terms[b], |s| if s.back_edge { s } else { to[s.block] });
            if let VliwTerm::Branch {
                on_true, on_false, ..
            } = term
            {
                if on_true == on_false {
                    term = VliwTerm::Jump(on_true);
                }
            }
            terms[b] = term;
            let cycles = &prog.blocks[b].cycles;
            match term {
                VliwTerm::Jump(s) if cycles.is_empty() => to[b] = s,
                _ => {
                    let g = *index.entry((cycles, term)).or_insert_with(|| {
                        groups.push(Vec::new());
                        groups.len() - 1
                    });
                    groups[g].push(b);
                }
            }
        }
        for group in groups.iter().filter(|g| g.len() > 1) {
            let mats: Vec<&PredicateMatrix> =
                group.iter().map(|&b| &prog.blocks[b].matrix).collect();
            for (members, matrix) in exact_merges(&mats) {
                let leader = group[members[0]];
                for &m in &members[1..] {
                    to[group[m]] = Succ::fall(leader);
                }
                merged.push((leader, matrix));
            }
        }
    }
    // An edge into a removed block follows the replacements, each hop
    // keeping a back edge a back edge; a cycle of empty blocks is left as
    // it is.
    let resolve = |mut s: Succ| {
        for _ in 0..=n {
            let next = to[s.block];
            if next == Succ::fall(s.block) {
                break;
            }
            s = Succ {
                block: next.block,
                back_edge: s.back_edge || next.back_edge,
            };
        }
        s
    };
    prog.entry = resolve(Succ::fall(prog.entry)).block;
    for (b, term) in prog.blocks.iter_mut().zip(terms) {
        if to[b.id] == Succ::fall(b.id) {
            b.term = map_succs(term, resolve);
        }
    }
    for (leader, matrix) in merged {
        prog.blocks[leader].matrix = matrix;
    }
    // Garbage-collect unreachable blocks, remapping ids.
    let mut reach = vec![false; n];
    let mut stack = vec![prog.entry];
    while let Some(b) = stack.pop() {
        if !std::mem::replace(&mut reach[b], true) {
            stack.extend(edges(prog.blocks[b].term).map(|s| s.block));
        }
    }
    let mut remap = vec![usize::MAX; n];
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

/// Each block's height over forward edges: 0 for a block with no forward
/// successor, else one more than its highest forward successor's.
fn forward_heights(blocks: &[VliwBlock]) -> Vec<usize> {
    const UNKNOWN: usize = usize::MAX;
    let mut height = vec![UNKNOWN; blocks.len()];
    let mut stack = Vec::new();
    for root in 0..blocks.len() {
        stack.push(root);
        while let Some(&b) = stack.last() {
            if height[b] != UNKNOWN {
                stack.pop();
                continue;
            }
            let (mut h, mut pending) = (0, false);
            for s in edges(blocks[b].term).filter(|s| !s.back_edge) {
                match height[s.block] {
                    UNKNOWN => {
                        stack.push(s.block);
                        pending = true;
                    }
                    below => h = h.max(below + 1),
                }
            }
            if !pending {
                height[b] = h;
                stack.pop();
            }
        }
    }
    height
}

/// The successor edges of `term`, without allocating.
fn edges(term: VliwTerm) -> impl Iterator<Item = Succ> {
    let pair = match term {
        VliwTerm::Jump(s) => [Some(s), None],
        VliwTerm::Branch {
            on_true, on_false, ..
        } => [Some(on_true), Some(on_false)],
        VliwTerm::Exit => [None, None],
    };
    pair.into_iter().flatten()
}

/// The merges of a group of blocks with equal code and terminator whose
/// matrices are `mats`: classes of indices into `mats`, each with the
/// matrix of the merged block. Only classes of two or more are listed.
///
/// Every matrix is exact, and the members reach pairwise disjoint outcome
/// sets (none lies on another's path: they share their successors), so the
/// union of their sets is a subset of their *join* `J`, the elements on
/// which all of them agree. `J` is exact iff the union fills it, that is
/// iff Σ 2^-(|keysᵢ| − |keys_J|) = 1 ([`fills`]). A group that fails the
/// test merges pairwise by [`PredicateMatrix::unify`], the paper's unify
/// rule, until no two classes unify.
fn exact_merges(mats: &[&PredicateMatrix]) -> Vec<(Vec<usize>, PredicateMatrix)> {
    let Some((first, rest)) = mats.split_first() else {
        return Vec::new();
    };
    let join = PredicateMatrix::from_entries(
        first
            .constrained()
            .filter(|&(r, c, v)| rest.iter().all(|m| m.get(r, c).as_bool() == Some(v))),
    );
    let base = join.constrained_len();
    if fills(mats.iter().map(|m| m.constrained_len() - base)) {
        return vec![((0..mats.len()).collect(), join)];
    }
    let mut classes: Vec<(Vec<usize>, PredicateMatrix)> = mats
        .iter()
        .enumerate()
        .map(|(i, &m)| (vec![i], m.clone()))
        .collect();
    while let Some((i, j, unified)) = (0..classes.len()).find_map(|i| {
        (i + 1..classes.len()).find_map(|j| Some((i, j, classes[i].1.unify(&classes[j].1)?)))
    }) {
        let (members, _) = classes.remove(j);
        classes[i].0.extend(members);
        classes[i].1 = unified;
    }
    classes.retain(|(members, _)| members.len() > 1);
    classes
}

/// Whether Σ 2^-d over `depths` is exactly 1, counted without rounding:
/// pairs of equal depth carry one level up, and exactly one term must
/// reach depth 0.
fn fills(depths: impl Iterator<Item = usize>) -> bool {
    let mut count: Vec<usize> = Vec::new();
    for d in depths {
        if count.len() <= d {
            count.resize(d + 1, 0);
        }
        count[d] += 1;
    }
    for d in (1..count.len()).rev() {
        if count[d] % 2 == 1 {
            return false;
        }
        count[d - 1] += count[d] / 2;
    }
    count.first() == Some(&1)
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

    /// Blocks and operations of the PSP program of `spec` on the paper
    /// machine.
    fn size(spec: &psp_ir::LoopSpec) -> (usize, usize) {
        let res = crate::pipeline_loop(spec, &crate::PspConfig::default()).unwrap();
        let ops = res.program.blocks.iter().map(VliwBlock::op_count).sum();
        (res.program.blocks.len(), ops)
    }

    #[test]
    fn synthetic_programs_share_their_blocks() {
        // One block per path would be 2^b leaves and more.
        let sizes: Vec<_> = [4, 6, 8]
            .into_iter()
            .map(|b| size(&psp_kernels::synthetic(b)))
            .collect();
        assert_eq!(sizes, [(2, 18), (2, 24), (4, 39)]);
    }

    #[test]
    fn clamp_stores_three_equal_tails_become_one_block() {
        let kernel = by_name("clamp_store").unwrap();
        let mut sched = Schedule::initial(&kernel.spec);
        crate::compact::compact(&mut sched, &m(), true);
        let prog = generate(&sched, &m()).unwrap();
        // The paths 1, 00 and 01 end with the same store, increment and
        // BREAK; their union is every path.
        assert_eq!(prog.blocks.len(), 3);
        let tail = &prog.blocks[2];
        assert!(tail.matrix.is_universe());
        assert_eq!(tail.term, VliwTerm::Jump(Succ::back(0)));
        // The inner IF's branch lost its fork but keeps the IF its guard
        // reads.
        let inner = &prog.blocks[1];
        assert_eq!(inner.term, VliwTerm::Jump(Succ::fall(2)));
        assert!(inner.cycles.concat().iter().any(|op| op.is_if()));
    }

    /// A block with the key-value entries `m` (IF row, column 0).
    fn block(id: BlockId, m: &[(u32, bool)], cycle: Vec<Operation>, term: VliwTerm) -> VliwBlock {
        VliwBlock {
            id,
            matrix: PredicateMatrix::from_entries(m.iter().map(|&(r, v)| (r, 0, v))),
            cycles: if cycle.is_empty() {
                vec![]
            } else {
                vec![cycle]
            },
            term,
        }
    }

    fn branch(cc: u32, on_true: BlockId, on_false: BlockId) -> VliwTerm {
        VliwTerm::Branch {
            cc: CcReg(cc),
            on_true: Succ::fall(on_true),
            on_false: Succ::fall(on_false),
        }
    }

    fn body(blocks: Vec<VliwBlock>) -> VliwLoop {
        VliwLoop {
            name: "shared".into(),
            prologue: vec![],
            blocks,
            entry: 0,
            epilogue: vec![],
        }
    }

    #[test]
    fn equal_blocks_whose_matrices_join_inexactly_stay_apart() {
        use psp_ir::op::build::{add, if_};
        use psp_ir::Reg;
        let inc = |r: u32| vec![add(Reg(r), Reg(r), 1i64)];
        let back = VliwTerm::Jump(Succ::back(0));
        let mut prog = body(vec![
            block(0, &[], vec![if_(CcReg(0))], branch(0, 1, 2)),
            block(1, &[(0, true)], vec![if_(CcReg(1))], branch(1, 3, 4)),
            block(2, &[(0, false)], vec![if_(CcReg(1))], branch(1, 5, 6)),
            block(3, &[(0, true), (1, true)], inc(1), back),
            block(4, &[(0, true), (1, false)], inc(2), back),
            block(5, &[(0, false), (1, true)], inc(3), back),
            block(6, &[(0, false), (1, false)], inc(1), back),
        ]);
        let before = prog.clone();
        share_blocks(&mut prog);
        // [1 1] and [0 0] have the same code, but `[b b]` would admit the
        // paths 10 and 01, which never reach it.
        assert_eq!(prog, before);
        let (m00, m11) = (&prog.blocks[6].matrix, &prog.blocks[3].matrix);
        assert!(exact_merges(&[m11, m00]).is_empty());
    }

    #[test]
    fn a_group_that_joins_inexactly_merges_by_unify() {
        let m = |a, b| PredicateMatrix::from_entries([(0, 0, a), (1, 0, b)]);
        let (m00, m01, m11) = (m(false, false), m(false, true), m(true, true));
        // [b b] would admit 10; [0 0] and [0 1] unify to [0 b].
        let merges = exact_merges(&[&m00, &m01, &m11]);
        assert_eq!(merges, [(vec![0, 1], PredicateMatrix::single(0, 0, false))]);
        // With 10 present the join is exact.
        let m10 = m(true, false);
        let merges = exact_merges(&[&m00, &m01, &m11, &m10]);
        assert_eq!(merges, [(vec![0, 1, 2, 3], PredicateMatrix::universe())]);
    }

    #[test]
    fn a_dispatch_block_whose_successors_coincide_is_removed() {
        use psp_ir::op::build::{add, if_};
        use psp_ir::Reg;
        let inc = |r: u32| vec![add(Reg(r), Reg(r), 1i64)];
        let back = VliwTerm::Jump(Succ::back(0));
        let mut prog = body(vec![
            block(0, &[], vec![if_(CcReg(0)), if_(CcReg(1))], branch(0, 1, 2)),
            block(1, &[(0, true)], vec![], branch(1, 3, 4)),
            block(2, &[(0, false)], vec![], branch(1, 5, 6)),
            block(3, &[(0, true), (1, true)], inc(2), back),
            block(4, &[(0, true), (1, false)], inc(3), back),
            block(5, &[(0, false), (1, true)], inc(1), back),
            block(6, &[(0, false), (1, false)], inc(1), back),
        ]);
        share_blocks(&mut prog);
        // 00 and 01 merge into [0 b], so the dispatch on CC1 under [0 b]
        // has one successor and goes: B0 branches straight to the merged
        // block.
        assert_eq!(prog.blocks.len(), 5);
        let VliwTerm::Branch { on_false, .. } = prog.blocks[0].term else {
            panic!("B0 still branches on CC0");
        };
        let merged = &prog.blocks[on_false.block];
        assert_eq!(merged.matrix, PredicateMatrix::single(0, 0, false));
        assert_eq!(merged.cycles, vec![inc(1)]);
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
