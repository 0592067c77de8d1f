//! The paper's concrete artifacts as executable assertions — the canonical
//! record behind EXPERIMENTS.md.

use psp::core::transform::{moveup, wrap_up};
use psp::machine::VliwTerm;
use psp::predicate::OutcomeMap;
use psp::prelude::*;

/// Figure 1(a): sequential II is 7 and 8 cycles for the two paths.
#[test]
fn fig1a_sequential_ii_7_and_8() {
    let kernel = by_name("vecmin").unwrap();
    let prog = compile_sequential(&kernel.spec);
    assert_eq!(prog.ii_range(), Some((7, 8)));
}

/// Figure 1(b): local scheduling with renaming reaches II = 3.
#[test]
fn fig1b_local_ii_3() {
    let kernel = by_name("vecmin").unwrap();
    let prog = compile_local(&kernel.spec, &MachineConfig::paper_default());
    assert_eq!(prog.ii_range(), Some((3, 3)));
}

/// Figure 1(c): software pipelining reaches II = 2.
#[test]
fn fig1c_psp_ii_2() {
    let kernel = by_name("vecmin").unwrap();
    let res = pipeline_loop(&kernel.spec, &PspConfig::default()).unwrap();
    assert_eq!(res.program.ii_range(), Some((2, 2)));
    // And the pipelined loop is dynamically 3.5x the sequential machine.
    let data = KernelData::random(1, 400);
    let init = kernel.initial_state(&data);
    let (gold, run) = check_equivalence(&kernel.spec, &res.program, &init, 1_000_000).unwrap();
    let speedup = gold.cycles as f64 / run.body_cycles as f64;
    assert!(speedup > 3.4, "speedup {speedup}");
}

/// Figure 2: wrapping the first four operations produces the paper's
/// 7-cycle schedule with indices (0,0,0,0,1+1,1,1).
#[test]
fn fig2_schedule_shape() {
    let kernel = by_name("vecmin").unwrap();
    let machine = MachineConfig::paper_default();
    let mut sched = Schedule::initial(&kernel.spec);
    for _ in 0..4 {
        let id = sched.rows[0][0].id;
        wrap_up(&mut sched, id, &machine).unwrap();
        sched.prune_empty_rows();
    }
    let row = sched
        .rows
        .iter()
        .position(|r| r.iter().any(|i| i.index == 1))
        .unwrap();
    let id = sched.rows[row + 1][0].id;
    moveup(&mut sched, id, row, &machine).unwrap();
    sched.prune_empty_rows();

    assert_eq!(sched.n_rows(), 7);
    let indices: Vec<Vec<i32>> = sched
        .rows
        .iter()
        .map(|r| r.iter().map(|i| i.index).collect())
        .collect();
    assert_eq!(
        indices,
        vec![
            vec![0],
            vec![0],
            vec![0],
            vec![0],
            vec![1, 1],
            vec![1],
            vec![1]
        ]
    );
    // The COPY keeps its formal matrix [1] at column 0 while the wrapped
    // IF computes p(+1): speculation-free cross-iteration control.
    assert_eq!(sched.rows[0][0].formal, PredicateMatrix::single(0, 0, true));
    let log = sched.iflog();
    assert!(log.available_before(0, 0, 0), "p(0) known at loop entry");
}

/// Figure 3: code generation reconstructs two blocks [0 b] and [1 b], the
/// COPY lives only in [1 b], blocks end with the IF, and back edges follow
/// the superset-of-left-shifted-matrix rule.
#[test]
fn fig3_codegen_structure() {
    let kernel = by_name("vecmin").unwrap();
    let machine = MachineConfig::paper_default();
    let mut sched = Schedule::initial(&kernel.spec);
    for _ in 0..4 {
        let id = sched.rows[0][0].id;
        wrap_up(&mut sched, id, &machine).unwrap();
        sched.prune_empty_rows();
    }
    let prog = generate(&sched, &machine).unwrap();

    let entries = prog.steady_entries();
    assert_eq!(entries.len(), 2);
    let m0 = PredicateMatrix::single(0, 0, false);
    let m1 = PredicateMatrix::single(0, 0, true);
    let b1 = entries
        .iter()
        .copied()
        .find(|&b| prog.blocks[b].matrix == m1)
        .unwrap();
    let b0 = entries
        .iter()
        .copied()
        .find(|&b| prog.blocks[b].matrix == m0)
        .unwrap();
    let has_copy = |b: usize| {
        prog.blocks[b]
            .cycles
            .iter()
            .flatten()
            .any(|op| matches!(op.kind, psp::ir::OpKind::Copy { .. }))
    };
    assert!(has_copy(b1) && !has_copy(b0));
    for &b in &[b0, b1] {
        match prog.blocks[b].term {
            VliwTerm::Branch {
                on_true, on_false, ..
            } => {
                assert!(on_true.back_edge && on_false.back_edge);
            }
            _ => panic!("Figure 3 blocks end in branches"),
        }
    }
    // Preloop = the operations "pushed into the previous iteration".
    assert!(!prog.prologue.is_empty());
    // And the whole construction executes correctly.
    let data = KernelData::random(9, 100);
    let init = kernel.initial_state(&data);
    let (_, run) = check_equivalence(&kernel.spec, &prog, &init, 1_000_000).unwrap();
    kernel.check(&run.state, &data).unwrap();
}

/// §2's initial assignment: every operation [b] except the COPY with [1].
#[test]
fn section2_initial_assignment() {
    let kernel = by_name("vecmin").unwrap();
    let sched = Schedule::initial(&kernel.spec);
    let constrained: Vec<_> = sched
        .instances()
        .filter(|i| !i.formal.is_universe())
        .collect();
    assert_eq!(constrained.len(), 1);
    assert!(matches!(
        constrained[0].op().kind,
        psp::ir::OpKind::Copy { .. }
    ));
    assert_eq!(constrained[0].formal, PredicateMatrix::single(0, 0, true));
}

/// §2's speculative example: two matrices [1 b] ∪ [0 1] describe an actual
/// path set that strictly contains the formal set [b 1]. Checked on every
/// outcome of the two predicates involved.
#[test]
fn section2_actual_vs_formal_paths() {
    let formal = PredicateMatrix::single(0, 0, true);
    let actual = [
        PredicateMatrix::single(0, -1, true),
        PredicateMatrix::from_entries([(0, -1, false), (0, 0, true)]),
    ];
    let mut wider = false;
    for (prev, cur) in [(false, false), (false, true), (true, false), (true, true)] {
        let mut o = OutcomeMap::new();
        o.set(0, -1, prev);
        o.set(0, 0, cur);
        let in_actual = actual.iter().any(|m| m.admits(&o));
        assert!(in_actual || !formal.admits(&o), "formal path outside {o:?}");
        wider |= in_actual && !formal.admits(&o);
    }
    assert!(wider, "the actual set is not strictly wider");
}

/// Deep pipelining: with the reaching-definition preloop, guarded
/// reductions retire one original iteration per cycle (II = 1) at depth
/// 2–3 on the wide machine — the limit case of the technique.
#[test]
fn deep_pipelining_reaches_ii_1() {
    for (name, max_ii) in [
        ("cond_sum", 1),
        ("sign_store", 1),
        ("dot_cond", 1),
        ("mac_cond", 1),
        ("threshold_store", 1),
        ("two_cond", 2),
        ("bubble_pass", 2),
    ] {
        let kernel = by_name(name).unwrap();
        let res = pipeline_loop(&kernel.spec, &PspConfig::default()).unwrap();
        let (_, got) = res.program.ii_range().unwrap();
        assert!(got <= max_ii, "{name}: II {got} > {max_ii}");
        // And, as everywhere, only verified code counts.
        for len in [1usize, 2, 5, 40] {
            let data = KernelData::random(21, len);
            let init = kernel.initial_state(&data);
            let (_, run) =
                check_equivalence(&kernel.spec, &res.program, &init, 10_000_000).unwrap();
            kernel.check(&run.state, &data).unwrap();
        }
    }
}
