//! Candidate scoring.
//!
//! The paper's technique evaluates candidate transformations heuristically
//! and applies the best (§3). Our evaluation is *semantic*: a candidate is
//! tried on a clone of the schedule, compacted, run through code
//! generation, and scored on the resulting per-path initiation intervals —
//! either by worst-case II (the static, data-dependence-driven mode) or by
//! the expected mean dynamic II under a branch profile (the §4 extension:
//! "heuristics driven by dynamic probabilities of path sets").

use crate::codegen::generate;
use crate::schedule::Schedule;
use psp_machine::{MachineConfig, VliwLoop};
use psp_predicate::PathSet;

/// A schedule's figure of merit. Lower is better, compared
/// lexicographically.
#[derive(Debug, Clone, PartialEq)]
pub struct Score {
    /// Primary: expected (profile mode) or maximal (static mode) II.
    pub primary: f64,
    /// Rows of the schedule (static code length of the body).
    pub rows: usize,
    /// Instances (code size; splits and renames grow it).
    pub instances: usize,
}

impl Score {
    /// Strictly better than `other`.
    pub fn better_than(&self, other: &Score) -> bool {
        const EPS: f64 = 1e-9;
        if self.primary + EPS < other.primary {
            return true;
        }
        if self.primary > other.primary + EPS {
            return false;
        }
        (self.rows, self.instances) < (other.rows, other.instances)
    }
}

/// Per-IF-row probability of the True outcome (stationary model).
pub type BranchProbs = Vec<f64>;

/// The probability of one steady-state path of the generated loop: conjoin
/// the matrices of its blocks and measure under the profile.
fn path_probability(prog: &VliwLoop, blocks: &[usize], probs: &[f64]) -> f64 {
    let mut m = psp_predicate::PredicateMatrix::universe();
    for &b in blocks {
        match m.conjoin(&prog.blocks[b].matrix) {
            Some(x) => m = x,
            None => return 0.0,
        }
    }
    PathSet::from_matrix(m).probability(|row, _| probs.get(row as usize).copied().unwrap_or(0.5))
}

/// Expected steady-state II of a generated loop under a branch profile.
pub fn expected_ii(prog: &VliwLoop, probs: &[f64]) -> f64 {
    let iis = prog.path_iis();
    if iis.is_empty() {
        return 0.0;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for p in &iis {
        let w = path_probability(prog, &p.blocks, probs);
        num += w * p.cycles as f64;
        den += w;
    }
    if den <= 0.0 {
        // Degenerate profile: fall back to the unweighted mean.
        iis.iter().map(|p| p.cycles as f64).sum::<f64>() / iis.len() as f64
    } else {
        num / den
    }
}

/// Score an already-generated loop against the schedule it came from.
/// Split out of [`score`] so the driver can time code generation and
/// scoring as separate phases.
pub fn score_program(prog: &VliwLoop, sched: &Schedule, probs: Option<&BranchProbs>) -> Score {
    let primary = match probs {
        Some(p) => expected_ii(prog, p),
        None => prog.ii_range().map(|(_, max)| max as f64).unwrap_or(0.0),
    };
    Score {
        primary,
        rows: sched.n_rows(),
        instances: sched.n_instances(),
    }
}

/// Score a schedule by generating code for it. `None` when code generation
/// fails (the candidate that produced this schedule must be discarded).
pub fn score(
    sched: &Schedule,
    machine: &MachineConfig,
    probs: Option<&BranchProbs>,
) -> Option<(Score, VliwLoop)> {
    let prog = generate(sched, machine).ok()?;
    let s = score_program(&prog, sched, probs);
    Some((s, prog))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_ordering_is_lexicographic() {
        let a = Score {
            primary: 2.0,
            rows: 3,
            instances: 9,
        };
        let b = Score {
            primary: 3.0,
            rows: 2,
            instances: 8,
        };
        assert!(a.better_than(&b));
        assert!(!b.better_than(&a));
        let c = Score {
            primary: 2.0,
            rows: 3,
            instances: 8,
        };
        assert!(c.better_than(&a));
        assert!(!a.better_than(&a));
    }

    #[test]
    fn initial_vecmin_scores_with_paper_iis() {
        let kernel = psp_kernels::by_name("vecmin").unwrap();
        let sched = Schedule::initial(&kernel.spec);
        let m = MachineConfig::paper_default();
        let (s, prog) = score(&sched, &m, None).unwrap();
        assert_eq!(s.primary, 8.0); // max II of the unscheduled loop
        assert_eq!(prog.ii_range(), Some((7, 8)));
        // Profiled: True branch taken with probability 0.25 → E[II] =
        // 0.25·8 + 0.75·7 = 7.25.
        let probs = vec![0.25];
        let (s, _) = score(&sched, &m, Some(&probs)).unwrap();
        assert!((s.primary - 7.25).abs() < 1e-9, "{}", s.primary);
    }

    #[test]
    fn expected_ii_uniform_matches_mean_for_symmetric_loop() {
        let kernel = psp_kernels::by_name("vecmin").unwrap();
        let sched = Schedule::initial(&kernel.spec);
        let m = MachineConfig::paper_default();
        let prog = generate(&sched, &m).unwrap();
        let e = expected_ii(&prog, &[0.5]);
        assert!((e - 7.5).abs() < 1e-9);
    }
}
