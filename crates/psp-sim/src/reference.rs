//! Reference interpreter: strict sequential execution of a structured loop.
//!
//! One operation costs one cycle, mirroring the paper's §1.1 sequential
//! baseline ("if executed on a sequential machine, the latency of one loop
//! iteration … is 7 and 8 clock cycles for the two paths"). The interpreter
//! produces the golden final state for equivalence checking, cycle counts,
//! and a per-iteration trace of IF outcomes for profiling.

use crate::state::{MachineState, SimError};
use psp_ir::{Item, LoopSpec};
use std::collections::BTreeMap;

/// Result of a reference run.
#[derive(Debug, Clone)]
pub struct RefRun {
    /// Final architectural state.
    pub state: MachineState,
    /// Completed iterations (the iteration in which `BREAK` fires counts).
    pub iterations: u64,
    /// Total sequential cycles (= executed operations).
    pub cycles: u64,
    /// Per-iteration IF outcomes: `trace[i][if_id]` is the outcome of IF
    /// `if_id` in iteration `i`, absent when the IF did not execute.
    pub trace: Vec<BTreeMap<u32, bool>>,
}

impl RefRun {
    /// Mean sequential cycles per iteration.
    pub fn cycles_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.cycles as f64 / self.iterations as f64
        }
    }
}

/// Execute the loop until a `BREAK` fires, at most `max_cycles` operations.
pub fn run_reference(
    spec: &LoopSpec,
    mut state: MachineState,
    max_cycles: u64,
) -> Result<RefRun, SimError> {
    state.grow(spec.n_regs, spec.n_ccs);
    let mut cycles: u64 = 0;
    let mut iterations: u64 = 0;
    let mut trace = Vec::new();

    'outer: loop {
        iterations += 1;
        let mut outcomes = BTreeMap::new();
        let broke = run_items(
            &spec.items,
            &mut state,
            &mut cycles,
            max_cycles,
            &mut outcomes,
        )?;
        trace.push(outcomes);
        if broke {
            break 'outer;
        }
        if cycles > max_cycles {
            return Err(SimError::CycleBudgetExceeded(max_cycles));
        }
    }

    Ok(RefRun {
        state,
        iterations,
        cycles,
        trace,
    })
}

/// Execute a list of items; returns whether a `BREAK` fired.
fn run_items(
    items: &[Item],
    state: &mut MachineState,
    cycles: &mut u64,
    max_cycles: u64,
    outcomes: &mut BTreeMap<u32, bool>,
) -> Result<bool, SimError> {
    for item in items {
        if *cycles > max_cycles {
            return Err(SimError::CycleBudgetExceeded(max_cycles));
        }
        match item {
            Item::Op(op) => {
                *cycles += 1;
                // A bare op's BREAK/IF outcome is deliberately discarded,
                // exactly as `commit` discarded it here before.
                state.step_op(op)?;
            }
            Item::If(i) => {
                *cycles += 1; // the IF itself costs a cycle
                let taken = state.cc(i.cc)?;
                outcomes.insert(i.if_id, taken);
                let branch = if taken { &i.then_items } else { &i.else_items };
                if run_items(branch, state, cycles, max_cycles, outcomes)? {
                    return Ok(true);
                }
            }
            Item::Break(b) => {
                *cycles += 1;
                if state.cc(b.cc)? {
                    return Ok(true);
                }
            }
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_ir::op::build::*;
    use psp_ir::{CmpOp, LoopBuilder};

    /// The paper's vecmin loop.
    fn vecmin() -> LoopSpec {
        let mut b = LoopBuilder::new("vecmin");
        let x = b.array("x");
        let one = b.named_reg("one");
        let n = b.named_reg("n");
        let k = b.named_reg("k");
        let m = b.named_reg("m");
        let xk = b.reg();
        let xm = b.reg();
        let cc0 = b.cc();
        let cc1 = b.cc();
        b.op(load(xk, x, k));
        b.op(load(xm, x, m));
        b.op(cmp(CmpOp::Lt, cc0, xk, xm));
        b.if_else(
            cc0,
            |b| {
                b.op(copy(m, k));
            },
            |_| {},
        );
        b.op(add(k, k, one));
        b.op(cmp(CmpOp::Ge, cc1, k, n));
        b.break_(cc1);
        b.finish([one, n, k, m], [m])
    }

    fn initial(data: Vec<i64>) -> MachineState {
        let mut s = MachineState::new(8, 2);
        s.regs[0] = 1; // one
        s.regs[1] = data.len() as i64; // n
        s.regs[2] = 0; // k
        s.regs[3] = 0; // m
        s.push_array(data);
        s
    }

    #[test]
    fn vecmin_finds_minimum_index() {
        let data = vec![5, 3, 8, 1, 9, 1];
        let run = run_reference(&vecmin(), initial(data), 10_000).unwrap();
        assert_eq!(run.state.regs[3], 3); // first minimum at index 3
        assert_eq!(run.iterations, 6);
    }

    #[test]
    fn paper_cycle_counts_per_path() {
        // One iteration costs 8 cycles on the True path, 7 on the False
        // path (paper §1.1). Construct single-iteration runs for each.
        // True path: x[0] < x[m=0] is false on iteration with equal elems…
        // use 2-element arrays to pin the outcomes.
        let run = run_reference(&vecmin(), initial(vec![5, 9]), 10_000).unwrap();
        // iter1: x[0]<x[0] false -> 7 cycles; iter2: x[1]<x[0] false -> 7.
        assert_eq!(run.cycles, 14);
        let run = run_reference(&vecmin(), initial(vec![5, 2]), 10_000).unwrap();
        // iter1 false (7), iter2: 2<5 true -> 8 cycles.
        assert_eq!(run.cycles, 15);
        assert_eq!(run.state.regs[3], 1);
    }

    #[test]
    fn trace_records_if_outcomes() {
        let run = run_reference(&vecmin(), initial(vec![5, 2, 7]), 10_000).unwrap();
        assert_eq!(run.trace.len(), 3);
        assert_eq!(run.trace[0].get(&0), Some(&false)); // 5<5 false
        assert_eq!(run.trace[1].get(&0), Some(&true)); // 2<5 true
        assert_eq!(run.trace[2].get(&0), Some(&false)); // 7<2 false
    }

    #[test]
    fn budget_guard_catches_infinite_loops() {
        let mut b = LoopBuilder::new("inf");
        let cc = b.cc();
        let r = b.reg();
        b.op(cmp(CmpOp::Lt, cc, r, -1i64)); // always false
        b.break_(cc);
        let spec = b.finish([r], [r]);
        let st = MachineState::new(1, 1);
        let res = run_reference(&spec, st, 100);
        assert!(matches!(res, Err(SimError::CycleBudgetExceeded(_))));
    }

    #[test]
    fn cycles_per_iteration_average() {
        let run = run_reference(&vecmin(), initial(vec![5, 9]), 10_000).unwrap();
        assert!((run.cycles_per_iteration() - 7.0).abs() < 1e-9);
    }
}
