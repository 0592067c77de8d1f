//! Interpreter for compiled [`VliwLoop`]s.
//!
//! Per-cycle semantics: every operation of a cycle reads the pre-cycle
//! state (including guard condition registers — the tree-VLIW property that
//! lets an operation share a cycle with the IF resolving its guard), all
//! writes commit at end of cycle, and a fired `BREAK` transfers control to
//! the epilogue after the cycle completes.
//!
//! Branch terminators test the value the ending IF *saw* (the pre-cycle
//! value of its condition register), so a compare writing the same register
//! in the IF's own cycle does not affect the taken direction.

use crate::state::{Effect, MachineState, SimError};
use crate::trace::Phase;
use psp_ir::Operation;
use psp_machine::{VliwLoop, VliwTerm};

/// Result of running a compiled loop.
#[derive(Debug, Clone)]
pub struct VliwRun {
    /// Final architectural state.
    pub state: MachineState,
    /// Cycles spent in the body (steady state), excluding prologue/epilogue.
    pub body_cycles: u64,
    /// Prologue + body + epilogue cycles.
    pub total_cycles: u64,
    /// Number of transformed-loop iterations entered (back edges + 1).
    pub iterations: u64,
}

impl VliwRun {
    /// Mean body cycles per transformed iteration.
    pub fn cycles_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.body_cycles as f64 / self.iterations as f64
        }
    }
}

/// Sees every prologue and body cycle of a [`run_observed`] run; epilogue
/// cycles are not observed. Both methods default to no-ops.
pub(crate) trait CycleObserver {
    /// Called just before a cycle executes, with the pre-cycle state. An
    /// error aborts the run.
    fn before(
        &mut self,
        _phase: Phase,
        _cycle: usize,
        _ops: &[Operation],
        _pre: &MachineState,
    ) -> Result<(), SimError> {
        Ok(())
    }

    /// Called after the cycle last passed to `before` fired a `BREAK`.
    fn broke(&mut self) {}
}

/// The observer of a plain run.
impl CycleObserver for () {}

/// Cycle and iteration counters of a run, carried across its prologue,
/// body and epilogue, whichever engine runs each part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VliwCounts {
    /// Cycles spent in the body, excluding prologue/epilogue.
    pub body_cycles: u64,
    /// Prologue + body + epilogue cycles.
    pub total_cycles: u64,
    /// Transformed-loop iterations entered (back edges + 1).
    pub iterations: u64,
}

impl VliwCounts {
    /// The counters of a run that has not started: the body's first
    /// iteration counts as entered.
    pub(crate) const START: VliwCounts = VliwCounts {
        body_cycles: 0,
        total_cycles: 0,
        iterations: 1,
    };
}

/// Execute the loop to completion (at most `max_cycles` body cycles).
pub fn run_vliw(
    prog: &VliwLoop,
    state: MachineState,
    max_cycles: u64,
) -> Result<VliwRun, SimError> {
    run_observed(prog, state, max_cycles, &mut ())
}

/// [`run_vliw`]'s control flow, reporting each cycle to `obs`.
pub(crate) fn run_observed(
    prog: &VliwLoop,
    mut state: MachineState,
    max_cycles: u64,
    obs: &mut impl CycleObserver,
) -> Result<VliwRun, SimError> {
    let mut c = VliwCounts::START;
    // One effect buffer for the whole run; every cycle reuses it.
    let mut effects: Vec<Effect> = Vec::new();
    if !run_prologue(prog, &mut state, &mut c, &mut effects, obs)? {
        run_body(
            prog,
            &mut state,
            prog.entry,
            max_cycles,
            &mut c,
            &mut effects,
            obs,
        )?;
    }
    run_epilogue(prog, &mut state, &mut c, &mut effects)?;
    Ok(VliwRun {
        state,
        body_cycles: c.body_cycles,
        total_cycles: c.total_cycles,
        iterations: c.iterations,
    })
}

/// Execute the prologue. Returns whether a `BREAK` fired in it, in which
/// case the body is skipped and the run counts no iteration.
pub(crate) fn run_prologue(
    prog: &VliwLoop,
    state: &mut MachineState,
    c: &mut VliwCounts,
    effects: &mut Vec<Effect>,
    obs: &mut impl CycleObserver,
) -> Result<bool, SimError> {
    for (i, cycle) in prog.prologue.iter().enumerate() {
        obs.before(Phase::Prologue, i, cycle, state)?;
        c.total_cycles += 1;
        let (broke, _) = state.step_cycle_into(cycle, effects)?;
        if broke {
            obs.broke();
            // A BREAK may legitimately fire during startup for very short
            // trip counts.
            c.iterations = 0;
            return Ok(true);
        }
    }
    Ok(false)
}

/// Execute body blocks from block `from` until a `BREAK` fires or an
/// `Exit` terminator is dispatched. `from` is the program's entry or, when
/// a run in progress is continued, the head of a block where no
/// condition-register snapshot is pending; `c` carries the counters so
/// far. Empty blocks change no state, so dispatching more of them in a row
/// than the program has blocks means control cycles through them for
/// ever; that is an error.
pub(crate) fn run_body(
    prog: &VliwLoop,
    state: &mut MachineState,
    from: usize,
    max_cycles: u64,
    c: &mut VliwCounts,
    effects: &mut Vec<Effect>,
    obs: &mut impl CycleObserver,
) -> Result<(), SimError> {
    let mut block = prog
        .blocks
        .get(from)
        .ok_or_else(|| SimError::Malformed(format!("entry block {from} missing")))?;
    // Condition-register snapshot taken just before a block's branching
    // cycle executes. A row with several IFs fans out through zero-cycle
    // dispatch blocks, and the whole multiway decision belongs to that one
    // tree instruction: every dispatch level must test the *pre-cycle*
    // values, even if the cycle itself overwrote a condition register
    // (e.g. recomputing a predicate for the next iteration). The snapshot
    // buffer is reused across blocks.
    let mut snap: Vec<bool> = Vec::new();
    let mut have_snap = false;
    // Empty blocks dispatched since the last cycle.
    let mut idle = 0;

    loop {
        for (i, cycle) in block.cycles.iter().enumerate() {
            if c.body_cycles >= max_cycles {
                return Err(SimError::CycleBudgetExceeded(max_cycles));
            }
            if i + 1 == block.cycles.len() {
                snap.clear();
                snap.extend_from_slice(&state.ccs);
                have_snap = true;
            }
            obs.before(Phase::Body(block.id), i, cycle, state)?;
            c.body_cycles += 1;
            c.total_cycles += 1;
            let (broke, _) = state.step_cycle_into(cycle, effects)?;
            if broke {
                obs.broke();
                return Ok(());
            }
        }
        let succ = match block.term {
            VliwTerm::Jump(s) => s,
            VliwTerm::Branch {
                cc,
                on_true,
                on_false,
            } => {
                let v = if have_snap {
                    *snap
                        .get(cc.0 as usize)
                        .ok_or_else(|| SimError::BadRegister(format!("{cc}")))?
                } else {
                    // No snapshot yet (entry dispatch before any body
                    // cycle): the committed state is the right one.
                    state.cc(cc)?
                };
                if v {
                    on_true
                } else {
                    on_false
                }
            }
            VliwTerm::Exit => return Ok(()),
        };
        if succ.back_edge {
            c.iterations += 1;
        }
        block = prog
            .blocks
            .get(succ.block)
            .ok_or_else(|| SimError::Malformed(format!("block {} missing", succ.block)))?;
        if !block.cycles.is_empty() {
            // Leaving the dispatch fan-out: the next decision belongs to
            // the next branching cycle.
            have_snap = false;
            idle = 0;
        } else if idle == prog.blocks.len() {
            return Err(SimError::ZeroCycleLoop("a cycle of empty blocks"));
        } else {
            idle += 1;
        }
    }
}

/// Execute the epilogue; epilogue cycles are not observed.
pub(crate) fn run_epilogue(
    prog: &VliwLoop,
    state: &mut MachineState,
    c: &mut VliwCounts,
    effects: &mut Vec<Effect>,
) -> Result<(), SimError> {
    for cycle in &prog.epilogue {
        c.total_cycles += 1;
        state.step_cycle_into(cycle, effects)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_ir::op::build::*;
    use psp_ir::{ArrayId, CcReg, CmpOp, Guard, Operation, Reg};
    use psp_machine::{Succ, VliwBlock, VliwTerm};
    use psp_predicate::PredicateMatrix;

    /// Hand-compiled Figure 1(b): local schedule of vecmin, II = 3.
    ///
    /// Registers: R0=1, R1=n, R2=k, R3=m, R4=x[k], R5=x[m].
    /// C1: LOAD R4,x[R2]; LOAD R5,x[R3]; ADD R6,R2,R0   (renamed k')
    /// C2: LT CC0,R4,R5; GE CC1,R6,R1; COPY R2,R6
    /// C3: IF CC0 {COPY R3,R2old?…}
    /// For simulator testing we keep the untransformed order:
    /// C1: loads + ADD into R6; C2: compares (on old k for COPY);
    /// C3: guarded COPY m=k_old, BREAK, commit k=R6.
    fn fig1b() -> psp_machine::VliwLoop {
        let x = ArrayId(0);
        let c1 = vec![
            load(Reg(4), x, Reg(2)),
            load(Reg(5), x, Reg(3)),
            add(Reg(6), Reg(2), Reg(0)),
        ];
        let c2 = vec![
            cmp(CmpOp::Lt, CcReg(0), Reg(4), Reg(5)),
            cmp(CmpOp::Ge, CcReg(1), Reg(6), Reg(1)),
        ];
        let c3 = vec![
            if_(CcReg(0)),
            Operation {
                guard: Some(Guard::when(CcReg(0))),
                ..copy(Reg(3), Reg(2))
            },
            break_(CcReg(1)),
            copy(Reg(2), Reg(6)),
        ];
        let b0 = VliwBlock {
            id: 0,
            matrix: PredicateMatrix::universe(),
            cycles: vec![c1, c2, c3],
            term: VliwTerm::Branch {
                cc: CcReg(0),
                on_true: Succ::back(0),
                on_false: Succ::back(0),
            },
        };
        psp_machine::VliwLoop {
            name: "fig1b".into(),
            prologue: vec![],
            blocks: vec![b0],
            entry: 0,
            epilogue: vec![],
        }
    }

    fn initial(data: Vec<i64>) -> MachineState {
        let mut s = MachineState::new(8, 2);
        s.regs[0] = 1;
        s.regs[1] = data.len() as i64;
        s.regs[2] = 0;
        s.regs[3] = 0;
        s.push_array(data);
        s
    }

    #[test]
    fn fig1b_computes_vecmin_at_ii_3() {
        let prog = fig1b();
        assert_eq!(prog.ii_range(), Some((3, 3)));
        let run = run_vliw(&prog, initial(vec![5, 3, 8, 1, 9, 1]), 100_000).unwrap();
        assert_eq!(run.state.regs[3], 3);
        assert_eq!(run.iterations, 6);
        assert_eq!(run.body_cycles, 18); // 6 iterations × II 3
        assert!((run.cycles_per_iteration() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn break_mid_block_goes_to_epilogue() {
        // Loop whose BREAK fires in cycle 1 of 3; the remaining cycles of
        // the block must not execute.
        let b0 = VliwBlock {
            id: 0,
            matrix: PredicateMatrix::universe(),
            cycles: vec![vec![break_(CcReg(0))], vec![copy(Reg(0), 42i64)]],
            term: VliwTerm::Jump(Succ::back(0)),
        };
        let prog = psp_machine::VliwLoop {
            name: "brk".into(),
            prologue: vec![],
            blocks: vec![b0],
            entry: 0,
            epilogue: vec![vec![copy(Reg(1), 7i64)]],
        };
        let mut s = MachineState::new(2, 1);
        s.ccs[0] = true;
        let run = run_vliw(&prog, s, 100).unwrap();
        assert_eq!(run.state.regs[0], 0); // squashed by break
        assert_eq!(run.state.regs[1], 7); // epilogue ran
        assert_eq!(run.body_cycles, 1);
        assert_eq!(run.total_cycles, 2);
    }

    #[test]
    fn branch_uses_pre_cycle_cc_value() {
        // Last cycle both tests CC0 (IF) and overwrites it (CMP). The
        // branch must follow the old value.
        let b0 = VliwBlock {
            id: 0,
            matrix: PredicateMatrix::universe(),
            cycles: vec![vec![
                if_(CcReg(0)),
                cmp(CmpOp::Lt, CcReg(0), Reg(0), Reg(0)), // writes false
            ]],
            term: VliwTerm::Branch {
                cc: CcReg(0),
                on_true: Succ::fall(1),
                on_false: Succ::fall(2),
            },
        };
        let done = |id: usize, v: i64| VliwBlock {
            id,
            matrix: PredicateMatrix::universe(),
            cycles: vec![vec![copy(Reg(1), v)]],
            term: VliwTerm::Exit,
        };
        let prog = psp_machine::VliwLoop {
            name: "precc".into(),
            prologue: vec![],
            blocks: vec![b0, done(1, 111), done(2, 222)],
            entry: 0,
            epilogue: vec![],
        };
        let mut s = MachineState::new(2, 1);
        s.ccs[0] = true; // pre-cycle value
        let run = run_vliw(&prog, s, 100).unwrap();
        assert_eq!(run.state.regs[1], 111);
        assert!(!run.state.ccs[0]); // the overwrite did commit
    }

    #[test]
    fn prologue_break_short_circuits() {
        let b0 = VliwBlock {
            id: 0,
            matrix: PredicateMatrix::universe(),
            cycles: vec![vec![copy(Reg(0), 1i64)]],
            term: VliwTerm::Jump(Succ::back(0)),
        };
        let prog = psp_machine::VliwLoop {
            name: "pb".into(),
            prologue: vec![vec![break_(CcReg(0))]],
            blocks: vec![b0],
            entry: 0,
            epilogue: vec![],
        };
        let mut s = MachineState::new(1, 1);
        s.ccs[0] = true;
        let run = run_vliw(&prog, s, 100).unwrap();
        assert_eq!(run.state.regs[0], 0); // body never ran
        assert_eq!(run.body_cycles, 0);
    }

    #[test]
    fn cycle_budget_enforced() {
        let b0 = VliwBlock {
            id: 0,
            matrix: PredicateMatrix::universe(),
            cycles: vec![vec![copy(Reg(0), 1i64)]],
            term: VliwTerm::Jump(Succ::back(0)),
        };
        let prog = psp_machine::VliwLoop {
            name: "inf".into(),
            prologue: vec![],
            blocks: vec![b0],
            entry: 0,
            epilogue: vec![],
        };
        let res = run_vliw(&prog, MachineState::new(1, 1), 50);
        assert!(matches!(res, Err(SimError::CycleBudgetExceeded(_))));
    }

    #[test]
    fn dispatch_chain_uses_pre_cycle_ccs() {
        // Regression: a branching cycle that *recomputes* a condition
        // register used by a later dispatch level (multi-IF tree
        // instruction). The whole multiway decision must see pre-cycle
        // values.
        let b0 = VliwBlock {
            id: 0,
            matrix: PredicateMatrix::universe(),
            cycles: vec![vec![
                if_(CcReg(0)),
                if_(CcReg(1)),
                // Overwrites CC1 for the "next iteration".
                cmp(CmpOp::Lt, CcReg(1), Reg(0), Reg(0)), // false
            ]],
            term: VliwTerm::Branch {
                cc: CcReg(0),
                on_true: Succ::fall(1),
                on_false: Succ::fall(2),
            },
        };
        // Dispatch level 2 on CC1.
        let dispatch = |id: usize, t: usize, f: usize| VliwBlock {
            id,
            matrix: PredicateMatrix::universe(),
            cycles: vec![],
            term: VliwTerm::Branch {
                cc: CcReg(1),
                on_true: Succ::fall(t),
                on_false: Succ::fall(f),
            },
        };
        let leaf = |id: usize, v: i64| VliwBlock {
            id,
            matrix: PredicateMatrix::universe(),
            cycles: vec![vec![copy(Reg(1), v)]],
            term: VliwTerm::Exit,
        };
        let prog = psp_machine::VliwLoop {
            name: "dispatch2".into(),
            prologue: vec![],
            blocks: vec![
                b0,
                dispatch(1, 3, 4),
                dispatch(2, 5, 6),
                leaf(3, 11),
                leaf(4, 10),
                leaf(5, 1),
                leaf(6, 0),
            ],
            entry: 0,
            epilogue: vec![],
        };
        // CC0 = true, CC1 = true before the cycle; the cycle sets CC1 to
        // false, but the decision must use the old true → leaf 3 (11).
        let mut s = MachineState::new(2, 2);
        s.ccs[0] = true;
        s.ccs[1] = true;
        let run = run_vliw(&prog, s, 100).unwrap();
        assert_eq!(run.state.regs[1], 11);
        assert!(!run.state.ccs[1], "the overwrite itself committed");
    }

    #[test]
    fn empty_dispatch_block_reads_committed_cc() {
        // Dispatch block with no cycles branches on the current state.
        let dispatch = VliwBlock {
            id: 0,
            matrix: PredicateMatrix::universe(),
            cycles: vec![],
            term: VliwTerm::Branch {
                cc: CcReg(0),
                on_true: Succ::fall(1),
                on_false: Succ::fall(2),
            },
        };
        let done = |id: usize, v: i64| VliwBlock {
            id,
            matrix: PredicateMatrix::universe(),
            cycles: vec![vec![copy(Reg(0), v)]],
            term: VliwTerm::Exit,
        };
        let prog = psp_machine::VliwLoop {
            name: "disp".into(),
            prologue: vec![],
            blocks: vec![dispatch, done(1, 1), done(2, 2)],
            entry: 0,
            epilogue: vec![],
        };
        let mut s = MachineState::new(1, 1);
        s.ccs[0] = false;
        let run = run_vliw(&prog, s, 100).unwrap();
        assert_eq!(run.state.regs[0], 2);
    }
}
