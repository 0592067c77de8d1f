//! Property-based tests for the predicate-matrix algebra.
//!
//! Strategy: generate small random matrices over a bounded window of rows
//! and columns, plus total outcome assignments over the same window, and
//! check the set operations against their membership semantics.

use proptest::prelude::*;
use psp_predicate::{OutcomeMap, PredElem, PredicateMatrix};

const ROWS: u32 = 3;
const COL_LO: i32 = -2;
const COL_HI: i32 = 2;

fn arb_matrix() -> impl Strategy<Value = PredicateMatrix> {
    proptest::collection::vec(((0..ROWS), (COL_LO..=COL_HI), any::<bool>()), 0..6)
        .prop_map(PredicateMatrix::from_entries)
}

fn arb_outcomes() -> impl Strategy<Value = OutcomeMap> {
    proptest::collection::vec(
        any::<bool>(),
        (ROWS as usize) * ((COL_HI - COL_LO + 1) as usize),
    )
    .prop_map(|bits| {
        let mut o = OutcomeMap::new();
        let mut bits = bits.into_iter();
        for r in 0..ROWS {
            for c in COL_LO..=COL_HI {
                o.set(r, c, bits.next().unwrap());
            }
        }
        o
    })
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

proptest! {
    #[test]
    fn conjoin_is_commutative(a in arb_matrix(), b in arb_matrix()) {
        prop_assert_eq!(a.conjoin(&b), b.conjoin(&a));
    }

    #[test]
    fn conjoin_with_universe_is_identity(a in arb_matrix()) {
        prop_assert_eq!(a.conjoin(&PredicateMatrix::universe()), Some(a.clone()));
    }

    #[test]
    fn conjoin_is_associative(a in arb_matrix(), b in arb_matrix(), c in arb_matrix()) {
        let left = a.conjoin(&b).and_then(|ab| ab.conjoin(&c));
        let right = b.conjoin(&c).and_then(|bc| a.conjoin(&bc));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn disjoint_iff_conjoin_none(a in arb_matrix(), b in arb_matrix()) {
        prop_assert_eq!(a.is_disjoint(&b), a.conjoin(&b).is_none());
    }

    #[test]
    fn conjoin_models_intersection(a in arb_matrix(), b in arb_matrix(), o in arb_outcomes()) {
        let both = a.admits(&o) && b.admits(&o);
        match a.conjoin(&b) {
            Some(c) => prop_assert_eq!(c.admits(&o), both),
            None => prop_assert!(!both),
        }
    }

    #[test]
    fn subsumes_models_superset(a in arb_matrix(), b in arb_matrix(), o in arb_outcomes()) {
        if a.subsumes(&b) && b.admits(&o) {
            prop_assert!(a.admits(&o));
        }
    }

    #[test]
    fn subsumes_matches_exhaustive_model(a in arb_matrix(), b in arb_matrix()) {
        let model = outcomes_over(&support_of(&[&a, &b]))
            .iter()
            .all(|o| !b.admits(o) || a.admits(o));
        prop_assert_eq!(a.subsumes(&b), model);
    }

    #[test]
    fn disjoint_matches_exhaustive_model(a in arb_matrix(), b in arb_matrix()) {
        let model = outcomes_over(&support_of(&[&a, &b]))
            .iter()
            .all(|o| !(a.admits(o) && b.admits(o)));
        prop_assert_eq!(a.is_disjoint(&b), model);
    }

    #[test]
    fn shift_roundtrip(a in arb_matrix(), d in -3i32..=3) {
        prop_assert_eq!(a.shifted(d).shifted(-d), a);
    }

    #[test]
    fn shift_commutes_with_conjoin(a in arb_matrix(), b in arb_matrix(), d in -3i32..=3) {
        let lhs = a.conjoin(&b).map(|m| m.shifted(d));
        let rhs = a.shifted(d).conjoin(&b.shifted(d));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn split_partitions_the_matrix(a in arb_matrix(), row in 0..ROWS, col in COL_LO..=COL_HI) {
        if let Some((f, t)) = a.split(row, col) {
            prop_assert!(f.is_disjoint(&t));
            prop_assert_eq!(f.get(row, col), PredElem::False);
            prop_assert_eq!(t.get(row, col), PredElem::True);
            // The halves' union is the original set: `a` admits an outcome
            // iff `f` or `t` does.
            for o in outcomes_over(&support_of(&[&a, &f, &t])) {
                prop_assert_eq!(a.admits(&o), f.admits(&o) || t.admits(&o));
            }
            // unify is the inverse.
            prop_assert_eq!(f.unify(&t), Some(a.clone()));
        } else {
            prop_assert!(a.get(row, col).is_constrained());
        }
    }
}
