//! Compiled pipelined-loop container: prologue, body CFG, epilogue.
//!
//! The body is a control-flow graph of [`VliwBlock`]s; without its back
//! edges it is a DAG, in which a block may be shared by several paths. Each
//! block carries the predicate matrix of the *actual* paths it lies on: it
//! admits exactly the outcomes under which control reaches the block
//! (reconstructed by the PSP code generator; baselines use the universe
//! matrix). A block also has a list of cycles (each cycle = one tree-VLIW
//! instruction), and a terminator whose edges are explicitly marked as
//! loop back edges or intra-iteration edges.
//!
//! `BREAK` operations appearing inside a cycle exit to the epilogue when
//! their condition is true (the end-of-cycle semantics are implemented by
//! the `psp-sim` interpreter); the block terminator describes fallthrough
//! control flow otherwise.

use crate::config::MachineConfig;
use crate::resources::cycle_fits;
use psp_ir::{CcReg, Operation};
use psp_predicate::PredicateMatrix;
use std::fmt;

/// Index of a block within [`VliwLoop::blocks`].
pub type BlockId = usize;

/// A successor edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Succ {
    /// Target block.
    pub block: BlockId,
    /// Whether this edge closes the loop (starts the next transformed
    /// iteration).
    pub back_edge: bool,
}

impl Succ {
    /// Intra-iteration edge.
    pub fn fall(block: BlockId) -> Self {
        Self {
            block,
            back_edge: false,
        }
    }

    /// Loop back edge.
    pub fn back(block: BlockId) -> Self {
        Self {
            block,
            back_edge: true,
        }
    }
}

/// Block terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VliwTerm {
    /// Unconditional transfer.
    Jump(Succ),
    /// Two-way branch on the last IF of the block.
    Branch {
        /// Condition register tested by the ending IF.
        cc: CcReg,
        /// Successor when true.
        on_true: Succ,
        /// Successor when false.
        on_false: Succ,
    },
    /// Leave the loop (to the epilogue).
    Exit,
}

impl VliwTerm {
    /// All successor edges.
    pub fn succs(&self) -> Vec<Succ> {
        match *self {
            VliwTerm::Jump(s) => vec![s],
            VliwTerm::Branch {
                on_true, on_false, ..
            } => vec![on_true, on_false],
            VliwTerm::Exit => vec![],
        }
    }
}

/// One basic block of the compiled loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct VliwBlock {
    /// Block id (index in [`VliwLoop::blocks`]).
    pub id: BlockId,
    /// Actual-path predicate matrix of the block: its reach set, the
    /// outcome assignments under which control reaches the block, exactly.
    /// A block shared by several paths has the matrix of their union.
    pub matrix: PredicateMatrix,
    /// Tree-VLIW instructions, one per cycle.
    pub cycles: Vec<Vec<Operation>>,
    /// Terminator.
    pub term: VliwTerm,
}

impl VliwBlock {
    /// Total operations in the block.
    pub fn op_count(&self) -> usize {
        self.cycles.iter().map(Vec::len).sum()
    }
}

/// A compiled, possibly software-pipelined loop.
#[derive(Debug, Clone, PartialEq)]
pub struct VliwLoop {
    /// Kernel name.
    pub name: String,
    /// Startup cycles executed once before entering the body (the paper's
    /// *preloop*).
    pub prologue: Vec<Vec<Operation>>,
    /// Body blocks.
    pub blocks: Vec<VliwBlock>,
    /// Block entered after the prologue (a dispatch block when the body
    /// entry depends on predicates computed in the prologue).
    pub entry: BlockId,
    /// Wind-down cycles executed once after a BREAK fires (the paper's
    /// *postloop*).
    pub epilogue: Vec<Vec<Operation>>,
}

impl VliwLoop {
    /// Structural and resource validation.
    pub fn validate(&self, m: &MachineConfig) -> Result<(), String> {
        if self.entry >= self.blocks.len() {
            return Err(format!("entry block {} out of range", self.entry));
        }
        for (i, b) in self.blocks.iter().enumerate() {
            if b.id != i {
                return Err(format!("block {i} has inconsistent id {}", b.id));
            }
            for s in b.term.succs() {
                if s.block >= self.blocks.len() {
                    return Err(format!("block {i} targets out-of-range block {}", s.block));
                }
            }
            for (c, cycle) in b.cycles.iter().enumerate() {
                if !cycle_fits(cycle, m) {
                    return Err(format!(
                        "block {i} cycle {c} exceeds machine resources ({} ops)",
                        cycle.len()
                    ));
                }
            }
            if let VliwTerm::Branch { .. } = b.term {
                // A branching block must end with the IF that computes the
                // branch — by construction the IF sits in the last cycle.
                // Zero-cycle *dispatch* blocks are the exception: they
                // route on a condition register computed elsewhere (entry
                // dispatch after the preloop, multi-IF fan-out) and cost no
                // cycle.
                let has_if = b
                    .cycles
                    .last()
                    .map(|c| c.iter().any(|o| o.is_if()))
                    .unwrap_or(true);
                if !has_if {
                    return Err(format!("block {i} branches without an ending IF"));
                }
            }
        }
        for cycle in self.prologue.iter().chain(self.epilogue.iter()) {
            if !cycle_fits(cycle, m) {
                return Err("prologue/epilogue cycle exceeds machine resources".into());
            }
        }
        Ok(())
    }

    /// Blocks that are targets of back edges — the steady-state iteration
    /// entry points.
    pub fn steady_entries(&self) -> Vec<BlockId> {
        let mut out: Vec<BlockId> = self
            .blocks
            .iter()
            .flat_map(|b| b.term.succs())
            .filter(|s| s.back_edge)
            .map(|s| s.block)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Minimum and maximum II over all steady-state paths.
    ///
    /// A path starts at a back-edge target and follows terminator edges
    /// until it traverses a back edge (paths reaching `Exit` terminate the
    /// loop and are not IIs). One pass over the body DAG in reverse
    /// topological order gives each block the fewest and most cycles from
    /// its start to a back edge. `None` when no steady-state path exists,
    /// when an edge targets a missing block, or when the body minus its back
    /// edges has a cycle.
    pub fn ii_range(&self) -> Option<(usize, usize)> {
        type Range = Option<(usize, usize)>;
        const BACK: Range = Some((0, 0));
        fn join(a: Range, b: Range) -> Range {
            match (a, b) {
                (Some((lo, hi)), Some((l, h))) => Some((lo.min(l), hi.max(h))),
                _ => a.or(b),
            }
        }
        let forward = |b: &VliwBlock| b.term.succs().into_iter().filter(|s| !s.back_edge);
        let mut preds = vec![0usize; self.blocks.len()];
        for s in self.blocks.iter().flat_map(forward) {
            *preds.get_mut(s.block)? += 1;
        }
        // Kahn's algorithm: a block is ordered once all its forward
        // predecessors are.
        let mut order: Vec<BlockId> = (0..preds.len()).filter(|&b| preds[b] == 0).collect();
        let mut next = 0;
        while let Some(&b) = order.get(next) {
            next += 1;
            for s in forward(&self.blocks[b]) {
                preds[s.block] -= 1;
                if preds[s.block] == 0 {
                    order.push(s.block);
                }
            }
        }
        if order.len() < self.blocks.len() {
            return None; // a forward cycle
        }
        let mut tail: Vec<Range> = vec![None; self.blocks.len()];
        for &b in order.iter().rev() {
            let block = &self.blocks[b];
            // A back edge ends the path with no further cycles.
            let to_back = |s: Succ| if s.back_edge { BACK } else { tail[s.block] };
            let n = block.cycles.len();
            let r = block.term.succs().into_iter().map(to_back).fold(None, join);
            tail[b] = r.map(|(lo, hi)| (lo + n, hi + n));
        }
        self.steady_entries()
            .into_iter()
            .try_fold(None, |r, e| Some(join(r, *tail.get(e)?)))?
    }

    /// Total static operation count (body only).
    pub fn body_op_count(&self) -> usize {
        self.blocks.iter().map(VliwBlock::op_count).sum()
    }

    /// Static issue-slot utilization of the body: operations issued divided
    /// by available slots (cycles × machine width), per resource class and
    /// overall. A measure of how much instruction-level parallelism the
    /// schedule actually extracts.
    pub fn utilization(&self, m: &crate::MachineConfig) -> Utilization {
        let mut used = crate::ResourceUse::empty();
        for b in &self.blocks {
            for c in &b.cycles {
                for op in c {
                    used.add(op);
                }
            }
        }
        let cycles = self.body_cycle_count() as f64;
        let frac = |u: u32, w: u32| {
            if cycles == 0.0 || w == 0 {
                0.0
            } else {
                u as f64 / (cycles * w as f64)
            }
        };
        Utilization {
            alu: frac(used.alu, m.n_alu),
            mem: frac(used.mem, m.n_mem),
            branch: frac(used.branch, m.n_branch),
            overall: frac(used.total(), m.n_alu + m.n_mem + m.n_branch),
            ops_per_cycle: if cycles == 0.0 {
                0.0
            } else {
                used.total() as f64 / cycles
            },
        }
    }

    /// Total static cycle count (body only).
    pub fn body_cycle_count(&self) -> usize {
        self.blocks.iter().map(|b| b.cycles.len()).sum()
    }

    /// How many general-purpose and condition registers executing this
    /// loop requires: one past the highest register referenced by any
    /// operation (prologue, body, or epilogue) or dispatch terminator.
    /// Compiled code routinely uses renamed registers beyond the source
    /// loop's count, so size the [machine state] to at least this before
    /// running.
    ///
    /// [machine state]: https://docs.rs/psp-sim
    pub fn register_demand(&self) -> (u32, u32) {
        let mut regs = 0;
        let mut ccs = 0;
        let cycles = self
            .prologue
            .iter()
            .chain(self.blocks.iter().flat_map(|b| b.cycles.iter()))
            .chain(self.epilogue.iter());
        for op in cycles.flatten() {
            for r in op.defs().into_iter().chain(op.uses()) {
                match r {
                    psp_ir::RegRef::Gpr(g) => regs = regs.max(g.0 + 1),
                    psp_ir::RegRef::Cc(c) => ccs = ccs.max(c.0 + 1),
                }
            }
        }
        for b in &self.blocks {
            if let VliwTerm::Branch { cc, .. } = b.term {
                ccs = ccs.max(cc.0 + 1);
            }
        }
        (regs, ccs)
    }
}

/// Issue-slot utilization fractions (see [`VliwLoop::utilization`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// ALU slots used / available.
    pub alu: f64,
    /// Memory slots used / available.
    pub mem: f64,
    /// Branch slots used / available.
    pub branch: f64,
    /// All slots used / available.
    pub overall: f64,
    /// Mean operations issued per cycle.
    pub ops_per_cycle: f64,
}

impl fmt::Display for VliwLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "vliw loop {} (entry B{})", self.name, self.entry)?;
        if !self.prologue.is_empty() {
            writeln!(f, " prologue:")?;
            for (i, c) in self.prologue.iter().enumerate() {
                write!(f, "  P{i}:")?;
                for op in c {
                    write!(f, "  {op};")?;
                }
                writeln!(f)?;
            }
        }
        for b in &self.blocks {
            writeln!(f, " B{} {}:", b.id, b.matrix)?;
            for (i, c) in b.cycles.iter().enumerate() {
                write!(f, "  C{i}:")?;
                for op in c {
                    write!(f, "  {op};")?;
                }
                writeln!(f)?;
            }
            match b.term {
                VliwTerm::Jump(s) => writeln!(
                    f,
                    "  -> B{}{}",
                    s.block,
                    if s.back_edge { " (back)" } else { "" }
                )?,
                VliwTerm::Branch {
                    cc,
                    on_true,
                    on_false,
                } => writeln!(
                    f,
                    "  {cc}? -> B{}{} : B{}{}",
                    on_true.block,
                    if on_true.back_edge { " (back)" } else { "" },
                    on_false.block,
                    if on_false.back_edge { " (back)" } else { "" },
                )?,
                VliwTerm::Exit => writeln!(f, "  -> exit")?,
            }
        }
        if !self.epilogue.is_empty() {
            writeln!(f, " epilogue:")?;
            for (i, c) in self.epilogue.iter().enumerate() {
                write!(f, "  E{i}:")?;
                for op in c {
                    write!(f, "  {op};")?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_ir::op::build::*;
    use psp_ir::{CcReg, Reg};

    /// Two-block steady state: B0 `[0 b]` (2 cycles), B1 `[1 b]` (2 cycles),
    /// each branching back to B0/B1 — the shape of the paper's Figure 3.
    fn fig3_like() -> VliwLoop {
        let mk_block = |id: usize, outcome: bool| VliwBlock {
            id,
            matrix: PredicateMatrix::single(0, -1, outcome),
            cycles: vec![
                vec![add(Reg(2), Reg(2), Reg(0)), lt(CcReg(0), Reg(4), Reg(5))],
                vec![if_(CcReg(0)), break_(CcReg(1))],
            ],
            term: VliwTerm::Branch {
                cc: CcReg(0),
                on_true: Succ::back(1),
                on_false: Succ::back(0),
            },
        };
        VliwLoop {
            name: "fig3".into(),
            prologue: vec![vec![lt(CcReg(0), Reg(4), Reg(5))]],
            blocks: vec![mk_block(0, false), mk_block(1, true)],
            entry: 0,
            epilogue: vec![],
        }
    }

    #[test]
    fn validate_ok() {
        let l = fig3_like();
        assert!(l.validate(&MachineConfig::paper_default()).is_ok());
    }

    #[test]
    fn validate_rejects_bad_target() {
        let mut l = fig3_like();
        l.blocks[0].term = VliwTerm::Jump(Succ::fall(9));
        assert!(l.validate(&MachineConfig::paper_default()).is_err());
    }

    #[test]
    fn validate_rejects_resource_overflow() {
        let l = fig3_like();
        assert!(l.validate(&MachineConfig::narrow(1, 1, 1)).is_err());
    }

    #[test]
    fn validate_rejects_branch_without_if() {
        let mut l = fig3_like();
        l.blocks[0].cycles = vec![vec![add(Reg(2), Reg(2), Reg(0))]];
        assert!(l.validate(&MachineConfig::paper_default()).is_err());
    }

    #[test]
    fn steady_entries_are_back_targets() {
        let l = fig3_like();
        assert_eq!(l.steady_entries(), vec![0, 1]);
    }

    #[test]
    fn ii_range_of_two_block_kernel() {
        // Both entries, each one block long, 2 cycles each.
        assert_eq!(fig3_like().ii_range(), Some((2, 2)));
    }

    /// A universe-matrix block of `cycles` one-op cycles.
    fn block(id: usize, cycles: usize, term: VliwTerm) -> VliwBlock {
        VliwBlock {
            id,
            matrix: PredicateMatrix::universe(),
            cycles: vec![vec![add(Reg(0), Reg(0), Reg(1))]; cycles],
            term,
        }
    }

    fn body(blocks: Vec<VliwBlock>) -> VliwLoop {
        VliwLoop {
            name: "body".into(),
            prologue: vec![],
            blocks,
            entry: 0,
            epilogue: vec![],
        }
    }

    /// B0 (1 cycle) branches on CC0 to `on_true` or `on_false`.
    fn branch(on_true: Succ, on_false: Succ) -> VliwBlock {
        VliwBlock {
            id: 0,
            matrix: PredicateMatrix::universe(),
            cycles: vec![vec![if_(CcReg(0))]],
            term: VliwTerm::Branch {
                cc: CcReg(0),
                on_true,
                on_false,
            },
        }
    }

    #[test]
    fn variable_ii_paths() {
        // B0 (1 cycle) branches: true -> B1 (2 more cycles) -> back B0;
        // false -> back to B0 directly. IIs: 1 and 3.
        let l = body(vec![
            branch(Succ::fall(1), Succ::back(0)),
            block(1, 2, VliwTerm::Jump(Succ::back(0))),
        ]);
        assert!(l.validate(&MachineConfig::paper_default()).is_ok());
        assert_eq!(l.ii_range(), Some((1, 3)));
    }

    #[test]
    fn shared_blocks_are_walked_once_per_path() {
        // A diamond: B0 -> {B1 (1 cycle), B2 (3 cycles)} -> B3 (2 cycles)
        // -> back B0. IIs: 1 + 1 + 2 and 1 + 3 + 2.
        let l = body(vec![
            branch(Succ::fall(1), Succ::fall(2)),
            block(1, 1, VliwTerm::Jump(Succ::fall(3))),
            block(2, 3, VliwTerm::Jump(Succ::fall(3))),
            block(3, 2, VliwTerm::Jump(Succ::back(0))),
        ]);
        assert_eq!(l.ii_range(), Some((4, 6)));
    }

    #[test]
    fn exit_paths_are_not_iis() {
        let l = body(vec![
            branch(Succ::fall(1), Succ::back(0)),
            block(1, 0, VliwTerm::Exit),
        ]);
        assert_eq!(l.ii_range(), Some((1, 1)));
        // Only exits: no steady-state path at all.
        let l = body(vec![block(0, 1, VliwTerm::Exit)]);
        assert_eq!(l.ii_range(), None);
    }

    #[test]
    fn forward_cycles_and_missing_blocks_have_no_range() {
        // B0 -> B1 -> B0 without a back edge; B0 is a steady entry
        // through B1's other edge.
        let l = body(vec![
            block(0, 1, VliwTerm::Jump(Succ::fall(1))),
            VliwBlock {
                id: 1,
                ..branch(Succ::fall(0), Succ::back(0))
            },
        ]);
        assert_eq!(l.ii_range(), None);
        // A back edge into a block that does not exist.
        let l = body(vec![block(0, 1, VliwTerm::Jump(Succ::back(5)))]);
        assert_eq!(l.ii_range(), None);
        // A forward edge into a block that does not exist.
        let l = body(vec![branch(Succ::fall(5), Succ::back(0))]);
        assert_eq!(l.ii_range(), None);
    }

    #[test]
    fn utilization_fractions() {
        let l = fig3_like();
        let u = l.utilization(&MachineConfig::narrow(2, 1, 2));
        // 4 cycles; per block: 2 alu + 2 branch over 2 cycles.
        assert!((u.alu - 4.0 / 8.0).abs() < 1e-9);
        assert!((u.branch - 4.0 / 8.0).abs() < 1e-9);
        assert!((u.mem - 0.0).abs() < 1e-9);
        assert!((u.ops_per_cycle - 2.0).abs() < 1e-9);
    }

    #[test]
    fn register_demand_spans_all_phases_and_terminators() {
        let mut l = fig3_like();
        // Highest GPR anywhere: put R9 in the epilogue, CC3 in a prologue
        // guard-free compare; the branch terminator contributes its CC.
        l.prologue = vec![vec![lt(CcReg(3), Reg(1), Reg(0))]];
        l.epilogue = vec![vec![copy(Reg(9), Reg(0))]];
        let (regs, ccs) = l.register_demand();
        assert_eq!(regs, 10, "one past the highest GPR (epilogue R9)");
        assert_eq!(ccs, 4, "one past the highest CC (prologue CC3)");

        let empty = VliwLoop {
            name: "empty".into(),
            prologue: vec![],
            blocks: vec![],
            entry: 0,
            epilogue: vec![],
        };
        assert_eq!(empty.register_demand(), (0, 0));
    }

    #[test]
    fn counters_and_display() {
        let l = fig3_like();
        assert_eq!(l.body_op_count(), 8);
        assert_eq!(l.body_cycle_count(), 4);
        let s = l.to_string();
        assert!(s.contains("B0"));
        assert!(s.contains("(back)"));
        assert!(s.contains("prologue:"));
    }
}
