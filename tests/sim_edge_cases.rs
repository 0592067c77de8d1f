//! Simulator edge cases checked differentially across every technique:
//! do-while loops whose BREAK fires on the very first iteration (including
//! `n = 0` and negative trip counts), and a store feeding a load of the
//! same address within one iteration.
//!
//! These are the boundary shapes most likely to expose prologue/epilogue
//! bugs: pipelined code must tear down speculative work when the loop
//! exits before the pipeline ever fills. Every case runs through *both*
//! execution engines — the `step_cycle` interpreter and the pre-decoded
//! engine — so the decoded fast paths see the same boundary shapes.

use psp::ir::op::build::copy;
use psp::ir::{CcReg, CmpOp, Reg, RegRef};
use psp::machine::{Succ, VliwBlock, VliwTerm};
use psp::prelude::*;
use psp::sim::{
    check_equivalence_with, run_reference_decoded, run_vliw_decoded, trace_vliw, EquivalenceError,
    MachineState, Phase, SimError,
};

const ENGINES: [EngineKind; 2] = [EngineKind::Interpreter, EngineKind::Decoded];

/// Every compilation technique × both execution engines, checked against
/// the reference on one initial state.
fn check_all(spec: &LoopSpec, init: &MachineState, label: &str) {
    let wide = MachineConfig::paper_default();
    let narrow = MachineConfig::narrow(2, 1, 1);
    let progs = [
        ("seq", psp::baselines::compile_sequential(spec)),
        ("local", psp::baselines::compile_local(spec, &wide)),
        ("unroll3", psp::baselines::compile_unrolled(spec, 3, &wide)),
        (
            "psp",
            pipeline_loop(spec, &PspConfig::default())
                .expect("psp pipelines")
                .program,
        ),
        (
            "psp-narrow",
            pipeline_loop(spec, &PspConfig::with_machine(narrow))
                .expect("psp pipelines")
                .program,
        ),
    ];
    for (tech, prog) in &progs {
        for engine in ENGINES {
            check_equivalence_with(spec, prog, init, 1_000_000, engine).unwrap_or_else(|e| {
                panic!("[{label}/{tech}/{}] {e}\n{spec}\n{prog}", engine.label())
            });
        }
    }
}

fn vecmin_state(n: i64, x: Vec<i64>) -> MachineState {
    let spec = by_name("vecmin").unwrap().spec;
    let mut st = MachineState::new(spec.n_regs.max(8), spec.n_ccs.max(4));
    st.regs[0] = n; // n
    st.regs[1] = 0; // k
    st.regs[2] = 0; // m
    st.push_array(x);
    st
}

/// `n = 0`: the do-while body runs exactly once and the BREAK fires
/// immediately — the pipelined prologue must unwind before a single
/// steady-state pass.
#[test]
fn break_taken_on_first_iteration() {
    let spec = by_name("vecmin").unwrap().spec;
    check_all(&spec, &vecmin_state(0, vec![7]), "n=0");
    check_all(&spec, &vecmin_state(1, vec![7]), "n=1");
}

/// Negative trip count: `k >= n` is true from the start for any negative
/// `n`, same single-iteration shape with a different comparison sign.
#[test]
fn negative_trip_count() {
    let spec = by_name("vecmin").unwrap().spec;
    check_all(&spec, &vecmin_state(-3, vec![7]), "n=-3");
}

/// A store feeding a load of the *same address* in the same iteration:
/// the scheduler must keep the W→R pair ordered even across pipelining,
/// and the simulator's memory model must agree with the reference.
#[test]
fn store_then_load_same_address() {
    let spec = psp::lang::compile(
        "kernel storeload(n, k, acc, s0; y[]) -> acc {
            y[k] = acc + 1;
            s0 = y[k];
            acc = acc + s0;
            k = k + 1;
            break if (k >= n);
        }",
    )
    .unwrap();
    for n in [1i64, 2, 7] {
        let mut st = MachineState::new(spec.n_regs.max(8), spec.n_ccs.max(4));
        st.regs[0] = n;
        st.push_array(vec![0; n.max(1) as usize]);
        check_all(&spec, &st, &format!("storeload n={n}"));
    }
}

/// Load before a store to the same address (anti-dependence in memory):
/// the load must see the previous iteration's value, not this one's.
#[test]
fn load_then_store_same_address() {
    let spec = psp::lang::compile(
        "kernel loadstore(n, k, acc, s0; y[]) -> acc {
            s0 = y[k];
            y[k] = s0 + 1;
            acc = acc + s0;
            k = k + 1;
            break if (k >= n);
        }",
    )
    .unwrap();
    for n in [1i64, 5] {
        let mut st = MachineState::new(spec.n_regs.max(8), spec.n_ccs.max(4));
        st.regs[0] = n;
        st.push_array((0..n.max(1)).collect());
        check_all(&spec, &st, &format!("loadstore n={n}"));
    }
}

/// Zero-length data with an immediate exit: the compiled loop must not
/// touch memory past the break on any path the reference never takes.
/// (Array accesses still happen in iteration 0, so the array has one cell.)
#[test]
fn single_cell_arrays_across_all_kernels_smallest_input() {
    for kernel in all_kernels() {
        let data = KernelData::random(99, 1);
        let init = kernel.initial_state(&data);
        let wide = MachineConfig::paper_default();
        let progs = [
            ("seq", psp::baselines::compile_sequential(&kernel.spec)),
            (
                "psp",
                pipeline_loop(&kernel.spec, &PspConfig::default())
                    .expect("psp pipelines")
                    .program,
            ),
            ("local", psp::baselines::compile_local(&kernel.spec, &wide)),
        ];
        for (tech, prog) in &progs {
            for engine in ENGINES {
                check_equivalence_with(&kernel.spec, prog, &init, 1_000_000, engine)
                    .unwrap_or_else(|e| panic!("[{}/{tech}/{}] {e}", kernel.name, engine.label()));
            }
        }
    }
}

/// The tracer runs `run_vliw`'s own control flow: on every kernel's PSP
/// program it must end in the same state with the same counts, record one
/// event per prologue and body cycle in time order, and flag a BREAK only
/// on the last recorded cycle.
#[test]
fn trace_matches_untraced_run_on_all_kernels() {
    for kernel in all_kernels() {
        let prog = pipeline_loop(&kernel.spec, &PspConfig::default())
            .expect("psp pipelines")
            .program;
        let (regs, ccs) = prog.register_demand();
        for (seed, len) in [(3, 1), (5, 2), (7, 33)] {
            let label = format!("{}/len {len}", kernel.name);
            let mut init = kernel.initial_state(&KernelData::random(seed, len));
            init.grow(regs, ccs);
            let plain = run_vliw(&prog, init.clone(), 1_000_000).unwrap();
            let (traced, events) = trace_vliw(&prog, init, 1_000_000, usize::MAX).unwrap();
            assert_eq!(plain.state, traced.state, "[{label}] state");
            assert_eq!(plain.body_cycles, traced.body_cycles, "[{label}] body");
            assert_eq!(plain.total_cycles, traced.total_cycles, "[{label}] total");
            assert_eq!(plain.iterations, traced.iterations, "[{label}] iterations");
            let epilogue = prog.epilogue.len() as u64;
            assert_eq!(
                events.len() as u64,
                traced.total_cycles - epilogue,
                "[{label}] one event per prologue and body cycle"
            );
            assert!(
                events.iter().enumerate().all(|(i, e)| e.time == i as u64),
                "[{label}] event times"
            );
            let body = events
                .iter()
                .filter(|e| matches!(e.phase, Phase::Body(_)))
                .count() as u64;
            assert_eq!(body, traced.body_cycles, "[{label}] body events");
            let breaks: Vec<usize> = (0..events.len()).filter(|&i| events[i].broke).collect();
            assert!(
                breaks.is_empty() || breaks == [events.len() - 1],
                "[{label}] BREAK flagged at {breaks:?} of {} events",
                events.len()
            );
        }
    }
}

/// `s += x[k]; k = k - i64::MIN; break if k >= n`: the induction stride is
/// `i64::MIN`, whose negation overflows. Folding it into a displacement
/// must wrap (as the ALU does), not panic, and the pipelined code must
/// still match the reference: k runs 0, i64::MIN, 0, so with `n = 0` the
/// loop exits in its second iteration after one out-of-range load.
#[test]
fn stride_of_i64_min_folds_without_overflow() {
    use psp::ir::op::build;
    let mut b = LoopBuilder::new("stride_min");
    let x = b.array("x");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let s = b.named_reg("s");
    let xk = b.reg();
    b.op(build::load(xk, x, k));
    b.op(build::add(s, s, xk));
    b.op(build::sub(k, k, i64::MIN));
    let cc = b.cc();
    b.op(build::cmp(psp::ir::CmpOp::Ge, cc, k, n));
    b.break_(cc);
    let spec = b.finish([n, k, s], [s]);
    for n in [0i64, -1] {
        let mut st = MachineState::new(spec.n_regs.max(8), spec.n_ccs.max(4));
        st.regs[0] = n;
        st.push_array(vec![5, 7]);
        check_all(&spec, &st, &format!("stride_min n={n}"));
    }
}

/// Loading `x[k+1]` with `k = i64::MAX`: the element index overflows.
/// Both reference engines wrap it (as the ALU does) and read the
/// out-of-range element as 0, identically, and so does compiled code.
#[test]
fn displaced_index_past_i64_max_wraps() {
    let spec = psp::lang::compile(
        "kernel edge(n, k, s, v; x[]) -> s {
            v = x[k + 1];
            s = s + v;
            break if (k >= n);
        }",
    )
    .unwrap();
    let mut st = MachineState::new(spec.n_regs.max(8), spec.n_ccs.max(4));
    st.regs[0] = 0; // n
    st.regs[1] = i64::MAX; // k
    st.regs[2] = 3; // s
    st.push_array(vec![5, 7]);
    let slow = run_reference(&spec, st.clone(), 1_000).unwrap();
    let fast = psp::sim::run_reference_decoded(&spec, st.clone(), 1_000).unwrap();
    assert_eq!(slow.state, fast.state);
    assert_eq!(slow.state.regs[2], 3, "an out-of-range load reads 0");
    check_all(&spec, &st, "x[k+1] at k = i64::MAX");
}

/// A body with no items spends no cycle, so neither a BREAK nor the cycle
/// budget can end it, and a run would never stop. Both reference engines
/// refuse it by name.
#[test]
fn empty_body_is_a_zero_cycle_loop() {
    let mut b = LoopBuilder::new("empty");
    let n = b.named_reg("n");
    let spec = b.finish([n], [n]);
    let want = SimError::ZeroCycleLoop("the empty loop body");
    let st = MachineState::new(1, 1);
    assert_eq!(run_reference(&spec, st.clone(), 1_000).unwrap_err(), want);
    assert_eq!(run_reference_decoded(&spec, st, 1_000).unwrap_err(), want);
}

/// A cycle of empty blocks never spends a body cycle; one empty block
/// whose `Jump` targets itself is enough. Both VLIW engines refuse it by
/// name, whether the cycle is the entry or is reached after body cycles.
#[test]
fn cycle_of_empty_blocks_is_a_zero_cycle_loop() {
    let block = |id, cycles, term| VliwBlock {
        id,
        matrix: PredicateMatrix::universe(),
        cycles,
        term,
    };
    let prog = |blocks| VliwLoop {
        name: "spin".into(),
        prologue: vec![],
        blocks,
        entry: 0,
        epilogue: vec![],
    };
    let cc = CcReg(0);
    let self_loop = prog(vec![block(0, vec![], VliwTerm::Jump(Succ::back(0)))]);
    // One cycle of work, then a branch into two empty blocks that jump to
    // each other.
    let after_work = prog(vec![
        block(
            0,
            vec![vec![copy(Reg(0), 7i64)]],
            VliwTerm::Branch {
                cc,
                on_true: Succ::fall(1),
                on_false: Succ::back(0),
            },
        ),
        block(1, vec![], VliwTerm::Jump(Succ::fall(2))),
        block(2, vec![], VliwTerm::Jump(Succ::back(1))),
    ]);
    let want = SimError::ZeroCycleLoop("a cycle of empty blocks");
    let mut st = MachineState::new(1, 1);
    st.ccs[0] = true;
    for p in [&self_loop, &after_work] {
        assert_eq!(run_vliw(p, st.clone(), 1_000).unwrap_err(), want, "{p}");
        assert_eq!(
            run_vliw_decoded(p, st.clone(), 1_000).unwrap_err(),
            want,
            "{p}"
        );
    }
}

/// A live-out past the spec's register file, a GPR or a CC, passes
/// `LoopSpec::validate` and pipelines, but neither run defines it. Both
/// engines report it as a bad register instead of indexing past the state.
#[test]
fn live_out_past_the_register_file_is_a_bad_register() {
    use psp::ir::op::build;
    for live_out in [RegRef::Gpr(Reg(1000)), RegRef::Cc(CcReg(1000))] {
        let mut b = LoopBuilder::new("far_live_out");
        let n = b.named_reg("n");
        let k = b.named_reg("k");
        b.op(build::add(k, k, 1i64));
        let cc = b.cc();
        b.op(build::cmp(CmpOp::Ge, cc, k, n));
        b.break_(cc);
        let spec = b.finish([n, k], [live_out]);
        spec.validate().expect("the spec validates");
        let prog = pipeline_loop(&spec, &PspConfig::default())
            .expect("psp pipelines")
            .program;
        let st = MachineState::new(spec.n_regs, spec.n_ccs);
        let want = EquivalenceError::Sim(SimError::BadRegister(live_out.to_string()));
        for engine in ENGINES {
            let got = check_equivalence_with(&spec, &prog, &st, 1_000, engine);
            assert_eq!(got.unwrap_err(), want, "{}", engine.label());
        }
    }
}
