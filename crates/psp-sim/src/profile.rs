//! Branch profiling — the paper's §4 extension.
//!
//! "The probabilities could be obtained by profiling, and a mapping from
//! path sets … to their probabilities would enable exact calculation of
//! estimated mean (dynamic) II of each intermediate schedule." A
//! [`BranchProfile`] holds per-IF truth probabilities counted over one
//! reference run, in memory bounded by the IF count. The profile-driven
//! scorer in `psp-core` measures a path's matrix as the product of its
//! constrained outcomes' probabilities, assuming outcomes independent
//! across iterations (a stationary model).

use crate::reference::run_observed;
use crate::state::{MachineState, SimError};
use psp_ir::LoopSpec;

/// Per-IF probability of the True outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchProfile {
    /// `p_true[i]` is the estimated probability that IF `i` takes its True
    /// branch.
    pub p_true: Vec<f64>,
    /// Number of iterations observed.
    pub samples: u64,
}

impl BranchProfile {
    /// Run the reference interpreter on `initial`, as
    /// [`crate::reference::run_reference`] does, counting how often each
    /// IF executed and took its True branch. IFs that never executed get
    /// probability 0.5.
    pub fn measure(
        spec: &LoopSpec,
        mut initial: MachineState,
        max_cycles: u64,
    ) -> Result<Self, SimError> {
        initial.grow(spec.n_regs, spec.n_ccs);
        let (mut cycles, mut samples) = (0, 0);
        // `(seen, taken)` per IF.
        let mut counts = vec![(0u64, 0u64); spec.n_ifs as usize];
        let mut count = |if_id: u32, outcome: bool| {
            if let Some((seen, taken)) = counts.get_mut(if_id as usize) {
                *seen += 1;
                *taken += u64::from(outcome);
            }
        };
        run_observed(
            &spec.items,
            &mut initial,
            max_cycles,
            &mut cycles,
            &mut samples,
            &mut count,
        )?;
        let p_true = counts
            .iter()
            .map(|&(s, t)| if s == 0 { 0.5 } else { t as f64 / s as f64 })
            .collect();
        Ok(Self { p_true, samples })
    }

    /// Probability that IF `row` is True (any iteration column — the model
    /// is stationary).
    pub fn prob(&self, row: u32) -> f64 {
        self.p_true.get(row as usize).copied().unwrap_or(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_ir::op::build::*;
    use psp_ir::{CmpOp, LoopBuilder};

    #[test]
    fn prob_defaults_out_of_range_rows_to_half() {
        let p = BranchProfile {
            p_true: vec![0.9, 0.2],
            samples: 0,
        };
        assert_eq!(p.prob(1), 0.2);
        assert_eq!(p.prob(9), 0.5);
    }

    /// `if (x[k] > 0) acc += x[k]; k += 1; break if (k <op> n)`.
    fn positive_sum(exit: CmpOp) -> LoopSpec {
        let mut b = LoopBuilder::new("p");
        let x = b.array("x");
        let one = b.reg();
        let n = b.reg();
        let k = b.reg();
        let acc = b.reg();
        let xk = b.reg();
        let cc0 = b.cc();
        let cc1 = b.cc();
        b.op(load(xk, x, k));
        b.op(cmp(CmpOp::Gt, cc0, xk, 0i64));
        b.if_else(
            cc0,
            |b| {
                b.op(add(acc, acc, xk));
            },
            |_| {},
        );
        b.op(add(k, k, one));
        b.op(cmp(exit, cc1, k, n));
        b.break_(cc1);
        b.finish([one, n, k, acc], [acc])
    }

    fn initial(n: i64, data: Vec<i64>) -> MachineState {
        let mut s = MachineState::new(8, 2);
        s.regs[0] = 1;
        s.regs[1] = n;
        s.push_array(data);
        s
    }

    #[test]
    fn measure_counts_outcomes() {
        // 3 of 4 elements positive.
        let spec = positive_sum(CmpOp::Ge);
        let prof = BranchProfile::measure(&spec, initial(4, vec![5, -2, 3, 7]), 10_000).unwrap();
        assert_eq!(prof.samples, 4);
        assert!((prof.prob(0) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn measure_of_a_loop_that_never_exits_hits_the_budget() {
        // `break if (k == -1)` with k counting up from 0 never fires.
        let spec = positive_sum(CmpOp::Eq);
        let res = BranchProfile::measure(&spec, initial(-1, vec![5, -2, 3, 7]), 1_000_000);
        assert_eq!(res, Err(SimError::CycleBudgetExceeded(1_000_000)));
    }
}
