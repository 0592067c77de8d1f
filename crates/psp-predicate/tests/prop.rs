//! Property-based tests for the predicate-matrix algebra.
//!
//! Strategy: generate small random matrices over a bounded window of rows
//! and columns, plus total outcome assignments over the same window, and
//! check the set operations against their membership semantics.

#[path = "../../psp-kernels/tests/cases/mod.rs"]
mod cases;

use cases::check_cases;
use psp_kernels::SplitMix64;
use psp_predicate::{OutcomeMap, PredElem, PredicateMatrix};

const ROWS: u32 = 3;
const COL_LO: i32 = -2;
const COL_HI: i32 = 2;

/// An entry `(row, col, value)` inside the window.
fn entry(rng: &mut SplitMix64) -> (u32, i32, bool) {
    let col = COL_LO + rng.below((COL_HI - COL_LO + 1) as usize) as i32;
    (rng.below(ROWS as usize) as u32, col, rng.below(2) == 1)
}

fn matrix(rng: &mut SplitMix64) -> PredicateMatrix {
    PredicateMatrix::from_entries((0..rng.below(6)).map(|_| entry(rng)))
}

fn outcomes(rng: &mut SplitMix64) -> OutcomeMap {
    let mut o = OutcomeMap::new();
    for r in 0..ROWS {
        for c in COL_LO..=COL_HI {
            o.set(r, c, rng.below(2) == 1);
        }
    }
    o
}

/// Enumerate all total outcome assignments over the window restricted to the
/// given support keys (exhaustive model checking on the relevant predicates).
fn outcomes_over(keys: &[(u32, i32)]) -> Vec<OutcomeMap> {
    let n = keys.len();
    assert!(n <= 12, "support too large for exhaustive enumeration");
    (0..(1usize << n))
        .map(|bits| {
            let mut o = OutcomeMap::new();
            for (i, &(r, c)) in keys.iter().enumerate() {
                o.set(r, c, bits & (1 << i) != 0);
            }
            o
        })
        .collect()
}

fn support_of(ms: &[&PredicateMatrix]) -> Vec<(u32, i32)> {
    let mut keys: Vec<(u32, i32)> = ms.iter().flat_map(|m| m.keys()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

#[test]
fn conjoin_is_commutative() {
    check_cases("conjoin_is_commutative", None, |rng| {
        let (a, b) = (matrix(rng), matrix(rng));
        assert_eq!(a.conjoin(&b), b.conjoin(&a));
    });
}

#[test]
fn conjoin_with_universe_is_identity() {
    check_cases("conjoin_with_universe_is_identity", None, |rng| {
        let a = matrix(rng);
        assert_eq!(a.conjoin(&PredicateMatrix::universe()), Some(a.clone()));
    });
}

#[test]
fn conjoin_is_associative() {
    check_cases("conjoin_is_associative", None, |rng| {
        let (a, b, c) = (matrix(rng), matrix(rng), matrix(rng));
        let left = a.conjoin(&b).and_then(|ab| ab.conjoin(&c));
        let right = b.conjoin(&c).and_then(|bc| a.conjoin(&bc));
        assert_eq!(left, right);
    });
}

#[test]
fn disjoint_iff_conjoin_none() {
    check_cases("disjoint_iff_conjoin_none", None, |rng| {
        let (a, b) = (matrix(rng), matrix(rng));
        assert_eq!(a.is_disjoint(&b), a.conjoin(&b).is_none());
    });
}

#[test]
fn conjoin_models_intersection() {
    check_cases("conjoin_models_intersection", None, |rng| {
        let (a, b, o) = (matrix(rng), matrix(rng), outcomes(rng));
        let both = a.admits(&o) && b.admits(&o);
        match a.conjoin(&b) {
            Some(c) => assert_eq!(c.admits(&o), both),
            None => assert!(!both),
        }
    });
}

#[test]
fn subsumes_models_superset() {
    check_cases("subsumes_models_superset", None, |rng| {
        let (a, b, o) = (matrix(rng), matrix(rng), outcomes(rng));
        if a.subsumes(&b) && b.admits(&o) {
            assert!(a.admits(&o));
        }
    });
}

#[test]
fn subsumes_matches_exhaustive_model() {
    check_cases("subsumes_matches_exhaustive_model", None, |rng| {
        let (a, b) = (matrix(rng), matrix(rng));
        let model = outcomes_over(&support_of(&[&a, &b]))
            .iter()
            .all(|o| !b.admits(o) || a.admits(o));
        assert_eq!(a.subsumes(&b), model);
    });
}

#[test]
fn disjoint_matches_exhaustive_model() {
    check_cases("disjoint_matches_exhaustive_model", None, |rng| {
        let (a, b) = (matrix(rng), matrix(rng));
        let model = outcomes_over(&support_of(&[&a, &b]))
            .iter()
            .all(|o| !(a.admits(o) && b.admits(o)));
        assert_eq!(a.is_disjoint(&b), model);
    });
}

/// A shift distance in `-3..=3`.
fn shift(rng: &mut SplitMix64) -> i32 {
    rng.below(7) as i32 - 3
}

#[test]
fn shift_roundtrip() {
    check_cases("shift_roundtrip", None, |rng| {
        let (a, d) = (matrix(rng), shift(rng));
        assert_eq!(a.shifted(d).shifted(-d), a);
    });
}

#[test]
fn shift_commutes_with_conjoin() {
    check_cases("shift_commutes_with_conjoin", None, |rng| {
        let (a, b, d) = (matrix(rng), matrix(rng), shift(rng));
        let lhs = a.conjoin(&b).map(|m| m.shifted(d));
        let rhs = a.shifted(d).conjoin(&b.shifted(d));
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn split_partitions_the_matrix() {
    check_cases("split_partitions_the_matrix", None, |rng| {
        let (a, (row, col, _)) = (matrix(rng), entry(rng));
        if let Some((f, t)) = a.split(row, col) {
            assert!(f.is_disjoint(&t));
            assert_eq!(f.get(row, col), PredElem::False);
            assert_eq!(t.get(row, col), PredElem::True);
            // The halves' union is the original set: `a` admits an outcome
            // iff `f` or `t` does.
            for o in outcomes_over(&support_of(&[&a, &f, &t])) {
                assert_eq!(a.admits(&o), f.admits(&o) || t.admits(&o));
            }
            // unify is the inverse.
            assert_eq!(f.unify(&t), Some(a.clone()));
        } else {
            assert!(a.get(row, col).is_constrained());
        }
    });
}
