//! Candidate scoring.
//!
//! The paper's technique evaluates candidate transformations heuristically
//! and applies the best (§3). Our evaluation is *semantic*: a candidate is
//! tried on a clone of the schedule, compacted, and scored exactly on the
//! initiation intervals of the loop code generation would build from it —
//! either by worst-case II (the static, data-dependence-driven mode) or by
//! the expected mean dynamic II under a branch profile (the §4 extension:
//! "heuristics driven by dynamic probabilities of path sets"). Both come
//! from one walk of the schedule's steady state (`codegen::steady_paths`),
//! which yields every steady-state path with its final predicate matrix and
//! cycle count, so scoring never needs the generated program.

use crate::codegen::{steady_paths, CodegenError, SteadyPath};
use crate::schedule::Schedule;
use psp_predicate::PredicateMatrix;

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

/// The measure of a matrix's path set: the product, over its constrained
/// elements in key order, of the row's True probability (clamped to
/// `[0, 1]`; rows beyond `probs` count as 0.5) or its complement.
fn measure(m: &PredicateMatrix, probs: &[f64]) -> f64 {
    m.constrained()
        .map(|(row, _, v)| {
            let p = probs.get(row as usize).map_or(0.5, |p| p.clamp(0.0, 1.0));
            if v {
                p
            } else {
                1.0 - p
            }
        })
        .product()
}

/// The primary objective over a loop's steady-state paths: the maximal II,
/// or under a profile the expected II, each path weighted by the measure
/// of its final matrix. The expected II is computed as `II_min + Σw·(II −
/// II_min) / Σw`, so a loop whose paths share one II scores exactly that
/// II; a profile that gives every path weight 0 falls back to the
/// unweighted mean.
fn objective(paths: &[SteadyPath], probs: Option<&[f64]>) -> f64 {
    let Some(min) = paths.iter().map(|p| p.cycles).min() else {
        return 0.0;
    };
    let Some(probs) = probs else {
        return paths.iter().map(|p| p.cycles).max().unwrap_or(min) as f64;
    };
    let (mut num, mut den) = (0.0, 0.0);
    for p in paths {
        let w = measure(&p.matrix, probs);
        num += w * (p.cycles - min) as f64;
        den += w;
    }
    let excess = if den > 0.0 {
        num / den
    } else {
        paths.iter().map(|p| (p.cycles - min) as f64).sum::<f64>() / paths.len() as f64
    };
    min as f64 + excess
}

/// Score a schedule exactly without generating its code: walk the steady
/// state of the loop [`generate`](crate::codegen::generate) would build and
/// reduce its paths to the objective (`probs: None` is the static mode).
/// Fails when code generation would fail for a reason the walk can see, or
/// past the walk's path cap.
pub fn score_schedule(sched: &Schedule, probs: Option<&[f64]>) -> Result<Score, CodegenError> {
    let paths = steady_paths(sched)?;
    Ok(Score {
        primary: objective(&paths, probs),
        rows: sched.n_rows(),
        instances: sched.n_instances(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::generate;
    use psp_machine::MachineConfig;

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
        let s = score_schedule(&sched, None).unwrap();
        assert_eq!(s.primary, 8.0); // max II of the unscheduled loop
        let prog = generate(&sched, &MachineConfig::paper_default()).unwrap();
        assert_eq!(prog.ii_range(), Some((7, 8)));
        // Profiled: True branch taken with probability 0.25 → E[II] =
        // 0.25·8 + 0.75·7 = 7.25.
        let s = score_schedule(&sched, Some(&[0.25])).unwrap();
        assert!((s.primary - 7.25).abs() < 1e-9, "{}", s.primary);
    }

    #[test]
    fn expected_ii_uniform_matches_mean_for_symmetric_loop() {
        let kernel = psp_kernels::by_name("vecmin").unwrap();
        let sched = Schedule::initial(&kernel.spec);
        let e = score_schedule(&sched, Some(&[0.5])).unwrap().primary;
        assert!((e - 7.5).abs() < 1e-9);
    }

    #[test]
    fn equal_iis_score_exactly_and_dead_profiles_fall_back() {
        let kernel = psp_kernels::by_name("vecmin").unwrap();
        let sched = Schedule::initial(&kernel.spec);
        // A certain branch weights one path only.
        assert_eq!(score_schedule(&sched, Some(&[1.0])).unwrap().primary, 8.0);
        assert_eq!(score_schedule(&sched, Some(&[0.0])).unwrap().primary, 7.0);
        let path = |outcome, cycles| SteadyPath {
            matrix: PredicateMatrix::single(0, 0, outcome),
            cycles,
        };
        // Paths sharing one II score exactly it under any profile.
        let even = [path(false, 2), path(true, 2)];
        assert_eq!(objective(&even, Some(&[0.3])), 2.0);
        // Every path of weight 0: the unweighted mean.
        assert_eq!(
            objective(&[path(true, 2), path(true, 3)], Some(&[0.0])),
            2.5
        );
        assert_eq!(objective(&[], Some(&[0.5])), 0.0);
    }
}
