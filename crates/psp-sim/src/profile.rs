//! Branch profiling — the paper's §4 extension.
//!
//! "The probabilities could be obtained by profiling, and a mapping from
//! path sets … to their probabilities would enable exact calculation of
//! estimated mean (dynamic) II of each intermediate schedule." A
//! [`BranchProfile`] holds per-IF truth probabilities estimated from a
//! reference-run trace. The profile-driven scorer in `psp-core` measures a
//! path's matrix as the product of its constrained outcomes'
//! probabilities, assuming outcomes independent across iterations (a
//! stationary model).

use crate::reference::RefRun;

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
    /// Estimate from a reference-run trace. IFs that never executed get
    /// probability 0.5.
    pub fn from_run(run: &RefRun, n_ifs: u32) -> Self {
        let mut taken = vec![0u64; n_ifs as usize];
        let mut seen = vec![0u64; n_ifs as usize];
        for iter in &run.trace {
            for (&if_id, &outcome) in iter {
                if (if_id as usize) < seen.len() {
                    seen[if_id as usize] += 1;
                    if outcome {
                        taken[if_id as usize] += 1;
                    }
                }
            }
        }
        let p_true = taken
            .iter()
            .zip(&seen)
            .map(|(&t, &s)| if s == 0 { 0.5 } else { t as f64 / s as f64 })
            .collect();
        Self {
            p_true,
            samples: run.trace.len() as u64,
        }
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
    use crate::reference::run_reference;
    use crate::state::MachineState;
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

    #[test]
    fn from_run_counts_outcomes() {
        // Loop over x: if (x[k] > 0) taken; 3 of 4 elements positive.
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
        b.op(cmp(CmpOp::Ge, cc1, k, n));
        b.break_(cc1);
        let spec = b.finish([one, n, k, acc], [acc]);

        let mut s = MachineState::new(8, 2);
        s.regs[0] = 1;
        s.regs[1] = 4;
        s.push_array(vec![5, -2, 3, 7]);
        let run = run_reference(&spec, s, 10_000).unwrap();
        let prof = BranchProfile::from_run(&run, 1);
        assert_eq!(prof.samples, 4);
        assert!((prof.prob(0) - 0.75).abs() < 1e-9);
    }
}
