//! Packed-vs-sparse differential suite.
//!
//! Every operation of the predicate algebra must produce *identical*
//! results under the packed bitplane backend and the sparse `BTreeMap`
//! reference — including observable representation details (equality,
//! ordering, hashing, `Debug`) that the scheduler's determinism rests on.
//! Key ranges deliberately straddle the packed window so the spill
//! fallback is exercised alongside the word-op fast paths.

use proptest::prelude::*;
use psp_predicate::backend::with_backend;
use psp_predicate::matrix::{PACKED_COL_HI, PACKED_COL_LO, PACKED_ROWS};
use psp_predicate::{PathSet, PredElem, PredicateMatrix};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Entry keys straddling the packed window: rows up to `PACKED_ROWS + 2`,
/// columns past both window edges.
fn arb_entries() -> impl Strategy<Value = Vec<(u32, i32, bool)>> {
    proptest::collection::vec(
        (
            0..PACKED_ROWS + 3,
            PACKED_COL_LO - 4..PACKED_COL_HI + 5,
            any::<bool>(),
        ),
        0..8,
    )
}

/// In-window-only entries (the pure word-op path).
fn arb_entries_inwindow() -> impl Strategy<Value = Vec<(u32, i32, bool)>> {
    proptest::collection::vec(
        (
            0..PACKED_ROWS,
            PACKED_COL_LO..PACKED_COL_HI + 1,
            any::<bool>(),
        ),
        0..8,
    )
}

fn both_modes(entries: &[(u32, i32, bool)]) -> (PredicateMatrix, PredicateMatrix) {
    let packed = with_backend(true, || {
        PredicateMatrix::from_entries(entries.iter().copied())
    });
    let sparse = with_backend(false, || {
        PredicateMatrix::from_entries(entries.iter().copied())
    });
    (packed, sparse)
}

fn hash_of(m: &PredicateMatrix) -> u64 {
    let mut h = DefaultHasher::new();
    m.hash(&mut h);
    h.finish()
}

/// The full observable surface of one matrix.
fn observe(m: &PredicateMatrix) -> (Vec<(u32, i32, bool)>, usize, bool, String, String, u64) {
    (
        m.constrained().collect(),
        m.constrained_len(),
        m.is_universe(),
        format!("{m:?}"),
        format!("{m}"),
        hash_of(m),
    )
}

fn assert_same(p: &PredicateMatrix, s: &PredicateMatrix) {
    assert_eq!(p, s);
    assert_eq!(observe(p), observe(s));
}

proptest! {
    #[test]
    fn construction_is_mode_independent(e in arb_entries()) {
        let (p, s) = both_modes(&e);
        assert_same(&p, &s);
        for &(r, c, _) in &e {
            prop_assert_eq!(p.get(r, c), s.get(r, c));
        }
    }

    #[test]
    fn binary_ops_are_mode_independent(ea in arb_entries(), eb in arb_entries()) {
        let (pa, sa) = both_modes(&ea);
        let (pb, sb) = both_modes(&eb);
        prop_assert_eq!(pa.is_disjoint(&pb), sa.is_disjoint(&sb));
        prop_assert_eq!(pa.subsumes(&pb), sa.subsumes(&sb));
        prop_assert_eq!(pb.subsumes(&pa), sb.subsumes(&sa));
        prop_assert_eq!(pa.unify(&pb), sa.unify(&sb));
        match (pa.conjoin(&pb), sa.conjoin(&sb)) {
            (Some(pc), Some(sc)) => assert_same(&pc, &sc),
            (None, None) => {}
            (pc, sc) => prop_assert!(false, "conjoin diverged: {:?} vs {:?}", pc, sc),
        }
        // Interchangeability: mixed-representation operands agree too.
        prop_assert_eq!(pa.is_disjoint(&sb), sa.is_disjoint(&pb));
        prop_assert_eq!(pa.subsumes(&sb), sa.subsumes(&pb));
        prop_assert_eq!(pa.conjoin(&sb), sa.conjoin(&pb));
        // Ordering is content-based — PathSet normalization sorts by it.
        prop_assert_eq!(pa.cmp(&pb), sa.cmp(&sb));
        prop_assert_eq!(pa.cmp(&sb), std::cmp::Ordering::Equal.then(pa.cmp(&pb)));
    }

    #[test]
    fn shift_is_mode_independent(e in arb_entries(), d in -20i32..=20) {
        let (p, s) = both_modes(&e);
        assert_same(&p.shifted(d), &s.shifted(d));
        assert_same(&p.shifted(d).shifted(-d), &s);
    }

    #[test]
    fn shift_within_window_uses_same_results(e in arb_entries_inwindow(), d in -3i32..=3) {
        // The lane-shift fast path vs the sparse rebuild.
        let (p, s) = both_modes(&e);
        assert_same(&p.shifted(d), &s.shifted(d));
    }

    #[test]
    fn split_is_mode_independent(e in arb_entries(), r in 0..PACKED_ROWS + 3, c in -10i32..=10) {
        let (p, s) = both_modes(&e);
        match (p.split(r, c), s.split(r, c)) {
            (Some((pf, pt)), Some((sf, st))) => {
                assert_same(&pf, &sf);
                assert_same(&pt, &st);
                prop_assert_eq!(pf.unify(&pt), sf.unify(&st));
            }
            (None, None) => {}
            _ => prop_assert!(false, "split diverged"),
        }
    }

    #[test]
    fn with_and_set_are_mode_independent(e in arb_entries(), r in 0..PACKED_ROWS + 3, c in -10i32..=10, v in any::<bool>()) {
        let (p, s) = both_modes(&e);
        assert_same(&p.with(r, c, PredElem::from_bool(v)), &s.with(r, c, PredElem::from_bool(v)));
        assert_same(&p.with(r, c, PredElem::Both), &s.with(r, c, PredElem::Both));
    }

    #[test]
    fn pathset_algebra_is_mode_independent(
        es_a in proptest::collection::vec(arb_entries(), 0..4),
        es_b in proptest::collection::vec(arb_entries(), 0..4),
    ) {
        let build = |packed: bool, es: &[Vec<(u32, i32, bool)>]| {
            with_backend(packed, || {
                PathSet::from_matrices(
                    es.iter().map(|e| PredicateMatrix::from_entries(e.iter().copied())),
                )
            })
        };
        let (pa, sa) = (build(true, &es_a), build(false, &es_a));
        let (pb, sb) = (build(true, &es_b), build(false, &es_b));
        // PathSet equality is member-wise matrix equality, which is
        // content-based; normalization must have produced the same members
        // in the same (sorted) order.
        prop_assert_eq!(&pa, &sa);
        prop_assert_eq!(&pb, &sb);
        prop_assert_eq!(pa.union(&pb), sa.union(&sb));
        prop_assert_eq!(pa.intersect(&pb), sa.intersect(&sb));
        prop_assert_eq!(pa.subtract(&pb), sa.subtract(&sb));
        prop_assert_eq!(pa.subsumes(&pb), sa.subsumes(&sb));
        prop_assert_eq!(pb.subsumes(&pa), sb.subsumes(&sa));
        prop_assert_eq!(pa.is_universe(), sa.is_universe());
        prop_assert_eq!(pa.disjointify(), sa.disjointify());
        if let Some(m) = pb.matrices().first() {
            prop_assert_eq!(pa.intersect_matrix(m), sa.intersect_matrix(m));
        }
        // Probability sums f64 terms in member order; identical members in
        // identical order make it bit-identical, which candidate scoring
        // relies on.
        let prob = |r: u32, c: i32| 1.0 / (2.0 + r as f64 + (c.unsigned_abs() % 3) as f64);
        prop_assert_eq!(pa.probability(prob).to_bits(), sa.probability(prob).to_bits());
    }
}

#[test]
fn window_edges_spill_exactly_outside() {
    let inside = [
        (0u32, PACKED_COL_LO, true),
        (0, PACKED_COL_HI, false),
        (PACKED_ROWS - 1, 0, true),
    ];
    let (p, s) = both_modes(&inside);
    assert!(p.is_word_packed(), "window-edge keys must not spill");
    assert_same(&p, &s);

    let outside = [
        (0u32, PACKED_COL_LO - 1, true),
        (0, PACKED_COL_HI + 1, false),
        (PACKED_ROWS, 0, true),
    ];
    let (p, s) = both_modes(&outside);
    assert!(!p.is_word_packed(), "out-of-window keys must spill");
    assert_same(&p, &s);
}

#[test]
fn subtract_matrix_pieces_match_across_modes() {
    // The staircase decomposition drives subtract/disjointify/covers; pin
    // one overlapping case in both modes, with one spilled key.
    let mk = |packed| {
        with_backend(packed, || {
            let a = PredicateMatrix::from_entries([(0, 0, true), (1, PACKED_COL_HI + 2, true)]);
            let b = PredicateMatrix::from_entries([(0, 0, true), (2, 0, false)]);
            PathSet::from_matrix(a).subtract(&PathSet::from_matrix(b))
        })
    };
    let (p, s) = (mk(true), mk(false));
    assert_eq!(p, s);
    assert_eq!(p.len(), 1);
    assert_eq!(
        p.matrices()[0],
        PredicateMatrix::from_entries([(0, 0, true), (1, PACKED_COL_HI + 2, true), (2, 0, true)])
    );
}
