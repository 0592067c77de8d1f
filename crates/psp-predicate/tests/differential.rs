//! Packed-vs-sparse differential suite.
//!
//! Every operation of the predicate algebra must produce *identical*
//! results under the packed bitplane backend and the sparse `BTreeMap`
//! reference — including observable representation details (equality,
//! ordering, hashing, `Debug`) that the scheduler's determinism rests on.
//! Key ranges deliberately straddle the packed window, so matrices that
//! leave it (and turn sparse on a packed thread) and mixed operand pairs
//! are exercised alongside the word-op fast paths.

#[path = "../../psp-kernels/tests/cases/mod.rs"]
mod cases;

use cases::check_cases;
use psp_kernels::SplitMix64;
use psp_predicate::backend::with_backend;
use psp_predicate::matrix::{PACKED_COL_HI, PACKED_COL_LO, PACKED_ROWS};
use psp_predicate::{PredElem, PredicateMatrix};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A value in `lo..hi`.
fn int(rng: &mut SplitMix64, lo: i32, hi: i32) -> i32 {
    lo + rng.below((hi - lo) as usize) as i32
}

/// Up to 7 entries with rows below `rows` and columns in `lo..hi`.
fn entries(rng: &mut SplitMix64, rows: u32, (lo, hi): (i32, i32)) -> Vec<(u32, i32, bool)> {
    let row = |rng: &mut SplitMix64| rng.below(rows as usize) as u32;
    (0..rng.below(8))
        .map(|_| (row(rng), int(rng, lo, hi), rng.below(2) == 1))
        .collect()
}

/// Entry keys straddling the packed window: rows up to `PACKED_ROWS + 2`,
/// columns past both window edges.
fn straddling(rng: &mut SplitMix64) -> Vec<(u32, i32, bool)> {
    entries(rng, PACKED_ROWS + 3, (PACKED_COL_LO - 4, PACKED_COL_HI + 5))
}

/// In-window-only entries (the pure word-op path).
fn in_window(rng: &mut SplitMix64) -> Vec<(u32, i32, bool)> {
    entries(rng, PACKED_ROWS, (PACKED_COL_LO, PACKED_COL_HI + 1))
}

/// A row past the packed window and a column in `-10..=10`.
fn key(rng: &mut SplitMix64) -> (u32, i32) {
    let row = rng.below(PACKED_ROWS as usize + 3) as u32;
    (row, int(rng, -10, 11))
}

fn both_modes(entries: &[(u32, i32, bool)]) -> (PredicateMatrix, PredicateMatrix) {
    let build = |packed| {
        with_backend(packed, || {
            PredicateMatrix::from_entries(entries.iter().copied())
        })
    };
    (build(true), build(false))
}

fn hash_of(m: &PredicateMatrix) -> u64 {
    let mut h = DefaultHasher::new();
    m.hash(&mut h);
    h.finish()
}

/// The full observable surface of one matrix: its constrained entries,
/// their count, universality, `Debug` and `Display` text, and hash.
type Observed = (Vec<(u32, i32, bool)>, usize, bool, String, String, u64);

fn observe(m: &PredicateMatrix) -> Observed {
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

#[test]
fn construction_is_mode_independent() {
    check_cases("construction_is_mode_independent", None, |rng| {
        let e = straddling(rng);
        let (p, s) = both_modes(&e);
        assert_same(&p, &s);
        for &(r, c, _) in &e {
            assert_eq!(p.get(r, c), s.get(r, c));
        }
    });
}

#[test]
fn binary_ops_are_mode_independent() {
    check_cases("binary_ops_are_mode_independent", None, |rng| {
        let (pa, sa) = both_modes(&straddling(rng));
        let (pb, sb) = both_modes(&straddling(rng));
        assert_eq!(pa.is_disjoint(&pb), sa.is_disjoint(&sb));
        // Straddling operands take the element-wise path, in-window ones
        // the word path.
        let (wa, wb) = (both_modes(&in_window(rng)), both_modes(&in_window(rng)));
        for ((pa, sa), (pb, sb)) in [((&pa, &sa), (&pb, &sb)), ((&wa.0, &wa.1), (&wb.0, &wb.1))] {
            let (pk, sk) = both_modes(&in_window(rng));
            let outside = pa.is_disjoint_outside(pb, &pk);
            assert_eq!(outside, sa.is_disjoint_outside(sb, &sk));
            assert_eq!(outside, pa.is_disjoint_outside(sb, &pk));
            let universe = PredicateMatrix::universe();
            assert_eq!(pa.is_disjoint_outside(pb, &universe), pa.is_disjoint(pb));
            assert!(!outside || pa.is_disjoint(pb));
            // Every conflict lies at a key of either operand.
            assert!(!pa.is_disjoint_outside(pb, pa) && !sa.is_disjoint_outside(sb, sb));
        }
        assert_eq!(pa.subsumes(&pb), sa.subsumes(&sb));
        assert_eq!(pb.subsumes(&pa), sb.subsumes(&sa));
        assert_eq!(pa.unify(&pb), sa.unify(&sb));
        match (pa.conjoin(&pb), sa.conjoin(&sb)) {
            (Some(pc), Some(sc)) => assert_same(&pc, &sc),
            (None, None) => {}
            (pc, sc) => panic!("conjoin diverged: {pc:?} vs {sc:?}"),
        }
        // Interchangeability: mixed-representation operands agree too.
        assert_eq!(pa.is_disjoint(&sb), sa.is_disjoint(&pb));
        assert_eq!(pa.subsumes(&sb), sa.subsumes(&pb));
        assert_eq!(pa.conjoin(&sb), sa.conjoin(&pb));
        // Ordering is content-based.
        assert_eq!(pa.cmp(&pb), sa.cmp(&sb));
        assert_eq!(pa.cmp(&sb), std::cmp::Ordering::Equal.then(pa.cmp(&pb)));
    });
}

#[test]
fn shift_is_mode_independent() {
    check_cases("shift_is_mode_independent", None, |rng| {
        let (p, s) = both_modes(&straddling(rng));
        let d = int(rng, -20, 21);
        assert_same(&p.shifted(d), &s.shifted(d));
        assert_same(&p.shifted(d).shifted(-d), &s);
    });
}

#[test]
fn shift_within_window_uses_same_results() {
    check_cases("shift_within_window_uses_same_results", None, |rng| {
        // The lane-shift fast path vs the sparse rebuild.
        let (p, s) = both_modes(&in_window(rng));
        let d = int(rng, -3, 4);
        assert_same(&p.shifted(d), &s.shifted(d));
    });
}

#[test]
fn split_is_mode_independent() {
    check_cases("split_is_mode_independent", None, |rng| {
        let (p, s) = both_modes(&straddling(rng));
        let (r, c) = key(rng);
        match (p.split(r, c), s.split(r, c)) {
            (Some((pf, pt)), Some((sf, st))) => {
                assert_same(&pf, &sf);
                assert_same(&pt, &st);
                assert_eq!(pf.unify(&pt), sf.unify(&st));
            }
            (None, None) => {}
            _ => panic!("split diverged"),
        }
    });
}

#[test]
fn restriction_is_mode_independent() {
    check_cases("restriction_is_mode_independent", None, |rng| {
        let (ea, ek) = (straddling(rng), straddling(rng));
        let (wa, wk) = (in_window(rng), in_window(rng));
        // Straddling operands cover the spilled and sparse element-wise
        // path, in-window ones the word path, and mixed pairs both.
        for (ea, ek) in [(&ea, &ek), (&wa, &wk), (&wa, &ek), (&ea, &wk)] {
            let (pa, sa) = both_modes(ea);
            let (pk, sk) = both_modes(ek);
            let restricted = pa.restricted_to(&pk);
            assert_same(&restricted, &sa.restricted_to(&sk));
            assert_same(&pa.restricted_to(&sk), &sa.restricted_to(&pk));
            let model: Vec<_> = pa
                .constrained()
                .filter(|&(r, c, _)| pk.get(r, c).is_constrained())
                .collect();
            // A packed result spills exactly the out-of-window keys it keeps.
            let in_window = |&(r, c, _): &(u32, i32, bool)| {
                r < PACKED_ROWS && (PACKED_COL_LO..=PACKED_COL_HI).contains(&c)
            };
            assert_eq!(restricted.is_word_packed(), model.iter().all(in_window));
            assert_eq!(restricted.constrained().collect::<Vec<_>>(), model);
        }
    });
}

#[test]
fn with_and_set_are_mode_independent() {
    check_cases("with_and_set_are_mode_independent", None, |rng| {
        let (p, s) = both_modes(&straddling(rng));
        let ((r, c), v) = (key(rng), PredElem::from_bool(rng.below(2) == 1));
        assert_same(&p.with(r, c, v), &s.with(r, c, v));
        assert_same(&p.with(r, c, PredElem::Both), &s.with(r, c, PredElem::Both));
    });
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
