//! Cycle-by-cycle execution tracing.
//!
//! [`trace_vliw`] runs a compiled loop through [`crate::run_vliw`]'s own
//! control flow while recording, for every prologue and body cycle, which
//! operations issued, which were squashed by their guards, and where
//! control went. Indispensable when staring at a miscompiled pipeline.

use crate::state::{MachineState, SimError};
use crate::vliw_run::{run_observed, CycleObserver, VliwRun};
use psp_ir::Operation;
use psp_machine::{BlockId, VliwLoop};
use std::fmt;

/// Which part of the loop a cycle belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Startup (preloop) cycle.
    Prologue,
    /// Steady-state body cycle, with its block.
    Body(BlockId),
    /// Wind-down cycle.
    Epilogue,
}

/// One traced cycle.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Global cycle number (prologue + body + epilogue).
    pub time: u64,
    /// Phase / block.
    pub phase: Phase,
    /// Cycle index within the block (or prologue/epilogue).
    pub cycle: usize,
    /// Operations with their execution status (`false` = guard squashed).
    pub ops: Vec<(Operation, bool)>,
    /// Whether a `BREAK` fired at the end of this cycle.
    pub broke: bool,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.phase {
            Phase::Prologue => write!(f, "t{:<4} pre  C{:<2}", self.time, self.cycle)?,
            Phase::Body(b) => write!(f, "t{:<4} B{b:<3} C{:<2}", self.time, self.cycle)?,
            Phase::Epilogue => write!(f, "t{:<4} epi  C{:<2}", self.time, self.cycle)?,
        }
        for (op, executed) in &self.ops {
            if *executed {
                write!(f, "  {op};")?;
            } else {
                write!(f, "  ~~{op}~~;")?;
            }
        }
        if self.broke {
            write!(f, "  → EXIT")?;
        }
        Ok(())
    }
}

/// Records one [`TraceEvent`] per observed cycle, up to `max_events`.
struct Recorder {
    events: Vec<TraceEvent>,
    max_events: usize,
    /// Cycles observed so far: the global time of the next one.
    time: u64,
}

impl CycleObserver for Recorder {
    fn before(
        &mut self,
        phase: Phase,
        cycle: usize,
        ops: &[Operation],
        pre: &MachineState,
    ) -> Result<(), SimError> {
        // Squash status against the pre-cycle state. Guards are read even
        // past the recording cap, so a bad condition register fails the
        // run the same way whether or not its cycle is recorded.
        let mut statuses = Vec::with_capacity(ops.len());
        for op in ops {
            let executed = match op.guard {
                Some(g) => pre.cc(g.cc)? == g.on_true,
                None => true,
            };
            statuses.push((*op, executed));
        }
        if self.events.len() < self.max_events {
            self.events.push(TraceEvent {
                time: self.time,
                phase,
                cycle,
                ops: statuses,
                broke: false,
            });
        }
        self.time += 1;
        Ok(())
    }

    fn broke(&mut self) {
        // Only if the breaking cycle made it under the cap.
        if let Some(ev) = self.events.last_mut().filter(|e| e.time + 1 == self.time) {
            ev.broke = true;
        }
    }
}

/// Execute with tracing; also returns the normal run result. Events cover
/// prologue and body cycles; `max_events` bounds the recorded trace
/// (execution continues untraced past it).
pub fn trace_vliw(
    prog: &VliwLoop,
    state: MachineState,
    max_cycles: u64,
    max_events: usize,
) -> Result<(VliwRun, Vec<TraceEvent>), SimError> {
    let mut rec = Recorder {
        events: Vec::new(),
        max_events,
        time: 0,
    };
    let run = run_observed(prog, state, max_cycles, &mut rec)?;
    Ok((run, rec.events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vliw_run::run_vliw;
    use psp_ir::op::build::*;
    use psp_ir::{CcReg, Guard, Operation, Reg};
    use psp_machine::{Succ, VliwBlock, VliwTerm};
    use psp_predicate::PredicateMatrix;

    fn counting_loop() -> VliwLoop {
        let b0 = VliwBlock {
            id: 0,
            matrix: PredicateMatrix::universe(),
            cycles: vec![
                vec![
                    add(Reg(0), Reg(0), 1i64),
                    Operation {
                        guard: Some(Guard::when(CcReg(0))),
                        ..copy(Reg(1), Reg(0))
                    },
                ],
                vec![ge(CcReg(0), Reg(0), Reg(2)), break_(CcReg(1))],
                vec![ge(CcReg(1), Reg(0), Reg(3))],
            ],
            term: VliwTerm::Jump(Succ::back(0)),
        };
        VliwLoop {
            name: "count".into(),
            prologue: vec![vec![copy(Reg(0), 0i64)]],
            blocks: vec![b0],
            entry: 0,
            epilogue: vec![],
        }
    }

    #[test]
    fn trace_matches_untraced_run() {
        let prog = counting_loop();
        let mut st = MachineState::new(4, 2);
        st.regs[2] = 3;
        st.regs[3] = 5;
        let plain = run_vliw(&prog, st.clone(), 10_000).unwrap();
        let (traced, events) = trace_vliw(&prog, st, 10_000, usize::MAX).unwrap();
        assert_eq!(plain.state, traced.state);
        assert_eq!(plain.body_cycles, traced.body_cycles);
        assert_eq!(plain.total_cycles, traced.total_cycles);
        assert_eq!(events.len() as u64, traced.total_cycles);
        // First event is the prologue.
        assert_eq!(events[0].phase, Phase::Prologue);
        // The guarded copy is squashed until CC0 becomes true.
        let squashed = events
            .iter()
            .filter(|e| e.ops.iter().any(|(o, ex)| o.guard.is_some() && !ex))
            .count();
        assert!(squashed >= 1);
        // Exactly one event carries the exit.
        assert_eq!(events.iter().filter(|e| e.broke).count(), 1);
    }

    #[test]
    fn event_display_marks_squashes_and_exit() {
        let prog = counting_loop();
        let mut st = MachineState::new(4, 2);
        st.regs[2] = 1;
        st.regs[3] = 1;
        let (_, events) = trace_vliw(&prog, st, 10_000, usize::MAX).unwrap();
        let text: Vec<String> = events.iter().map(|e| e.to_string()).collect();
        assert!(text.iter().any(|l| l.contains("~~")), "squash markers");
        assert!(text.iter().any(|l| l.contains("→ EXIT")));
        assert!(text[0].contains("pre"));
    }

    #[test]
    fn max_events_truncates_recording_not_execution() {
        let prog = counting_loop();
        let mut st = MachineState::new(4, 2);
        st.regs[2] = 50;
        st.regs[3] = 80;
        let (run, events) = trace_vliw(&prog, st, 100_000, 5).unwrap();
        assert_eq!(events.len(), 5);
        assert!(run.total_cycles > 5);
    }
}
