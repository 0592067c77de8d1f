//! Differential suite for the pre-decoded execution engine: every
//! observable the oracle compares — final registers, condition codes,
//! arrays, cycle counts, iteration counts, and the reference IF-outcome
//! trace — must be bit-identical between the `step_cycle`/`run_items`
//! interpreters (the trusted base) and the decoded engine.
//!
//! The decoded engine is one safe generic evaluator plus three unsafe
//! steady-state loops (VLIW superloop, VLIW dispatch loop, fused
//! reference loop) that hand the tail of a run back to the generic
//! evaluator when the budget runs low. Coverage is four-layered:
//!
//! 1. all 16 paper kernels × both predicate backends × several compiled
//!    forms (PSP pipeline, local compaction, unrolled) through the full
//!    trace-materializing path (`check_equivalence_with`), where the
//!    reference runs on the generic evaluator;
//! 2. the same kernels through the no-trace batch path
//!    (`EquivEngine::check`), the only path that engages the fused
//!    reference loop — the counters it returns must equal the
//!    interpreter's run observables;
//! 3. a proptest over the psp-verify fuzz grammar (random nested-If
//!    bodies with breaks), so the decoded engine is exercised on loop
//!    shapes no hand-written kernel covers;
//! 4. a cycle-budget sweep around the end of real runs, so every fast
//!    loop's handoff to the generic evaluator is checked at every budget
//!    where it can happen.

mod common;

use common::{arb_body, build_spec, initial, CASES};
use proptest::prelude::*;
use psp::predicate::backend::with_backend;
use psp::prelude::*;
use psp::sim::{check_equivalence_with, run_vliw_decoded, EquivEngine, MachineState};

const MAX_CYCLES: u64 = 10_000_000;

/// Run one trial through both engines' full (trace-materializing) paths
/// and demand field-for-field identical `RefRun`/`VliwRun` observables —
/// or the exact same error.
fn assert_full_identical(spec: &LoopSpec, prog: &VliwLoop, init: &MachineState, label: &str) {
    let interp = check_equivalence_with(spec, prog, init, MAX_CYCLES, EngineKind::Interpreter);
    let decoded = check_equivalence_with(spec, prog, init, MAX_CYCLES, EngineKind::Decoded);
    match (interp, decoded) {
        (Ok((ri, vi)), Ok((rd, vd))) => {
            assert_eq!(ri.state, rd.state, "[{label}] ref state diverged");
            assert_eq!(ri.cycles, rd.cycles, "[{label}] ref cycles diverged");
            assert_eq!(
                ri.iterations, rd.iterations,
                "[{label}] ref iterations diverged"
            );
            assert_eq!(ri.trace, rd.trace, "[{label}] ref trace diverged");
            assert_eq!(vi.state, vd.state, "[{label}] vliw state diverged");
            assert_eq!(
                vi.body_cycles, vd.body_cycles,
                "[{label}] vliw body cycles diverged"
            );
            assert_eq!(
                vi.total_cycles, vd.total_cycles,
                "[{label}] vliw total cycles diverged"
            );
            assert_eq!(
                vi.iterations, vd.iterations,
                "[{label}] vliw iterations diverged"
            );
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "[{label}] errors diverged");
        }
        (Ok(_), Err(e)) => panic!("[{label}] interpreter passed, decoded failed: {e}"),
        (Err(e), Ok(_)) => panic!("[{label}] decoded passed, interpreter failed: {e}"),
    }
}

/// Run one trial through the decoded engine's no-trace batch path (the
/// one the benchmark and the batched oracle use — it is the only path
/// that engages the fused reference loop) and demand its compact counters
/// match the interpreter's runs.
fn assert_batch_path_identical(
    spec: &LoopSpec,
    prog: &VliwLoop,
    eng: &mut EquivEngine,
    init: &MachineState,
    label: &str,
) {
    let interp = check_equivalence_with(spec, prog, init, MAX_CYCLES, EngineKind::Interpreter);
    let fast = eng.check(init, MAX_CYCLES);
    match (interp, fast) {
        (Ok((ri, vi)), Ok(er)) => {
            assert_eq!(ri.cycles, er.ref_cycles, "[{label}] batch ref cycles");
            assert_eq!(
                ri.iterations, er.ref_iterations,
                "[{label}] batch ref iterations"
            );
            assert_eq!(
                vi.body_cycles, er.body_cycles,
                "[{label}] batch body cycles"
            );
            assert_eq!(
                vi.total_cycles, er.total_cycles,
                "[{label}] batch total cycles"
            );
            assert_eq!(
                vi.iterations, er.vliw_iterations,
                "[{label}] batch vliw iterations"
            );
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                a.to_string(),
                b.to_string(),
                "[{label}] batch errors diverged"
            );
        }
        (Ok(_), Err(e)) => panic!("[{label}] interpreter passed, batch path failed: {e}"),
        (Err(e), Ok(_)) => panic!("[{label}] batch path passed, interpreter failed: {e}"),
    }
}

/// Trial inputs for the kernel sweeps: the small-trip-count ladder the
/// correctness suites use, plus one long input so the decoded engine's
/// steady-state loops (superloop / dispatch loop / fused reference) run
/// for thousands of iterations rather than bailing into the generic
/// paths after the pipeline drains.
fn kernel_trials() -> Vec<(u64, usize)> {
    let mut trials = EquivConfig::new(4, 11).trial_inputs();
    trials.push((17, 257));
    trials
}

/// All 16 kernels × both predicate backends, through the full
/// trace-materializing path, on the PSP-pipelined program.
#[test]
fn kernels_identical_across_engines_and_backends() {
    for kernel in all_kernels() {
        for packed in [false, true] {
            with_backend(packed, || {
                let res = pipeline_loop(&kernel.spec, &PspConfig::default())
                    .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
                for (seed, len) in kernel_trials() {
                    let data = KernelData::random(seed, len);
                    let init = kernel.initial_state(&data);
                    let label = format!(
                        "{}/{}/len={len}",
                        kernel.name,
                        if packed { "packed" } else { "sparse" }
                    );
                    assert_full_identical(&kernel.spec, &res.program, &init, &label);
                }
            });
        }
    }
}

/// The no-trace batch path (fused reference loop + VLIW fast loops) over
/// all kernels: compact counters must equal the interpreter's.
#[test]
fn kernels_identical_on_batch_fast_path() {
    for kernel in all_kernels() {
        let res = pipeline_loop(&kernel.spec, &PspConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        let mut eng = EquivEngine::new(&kernel.spec, &res.program);
        for (seed, len) in kernel_trials() {
            let data = KernelData::random(seed, len);
            let init = kernel.initial_state(&data);
            let label = format!("{}/len={len}", kernel.name);
            assert_batch_path_identical(&kernel.spec, &res.program, &mut eng, &init, &label);
        }
    }
}

/// CFG variety beyond the pipelined programs: baseline compilers emit
/// different block shapes (sequential chains, locally compacted blocks,
/// unrolled multi-iteration bodies), exercising the decoded VLIW
/// engine's dispatch loop and snapshot/bail machinery.
#[test]
fn kernels_identical_across_compiled_forms() {
    let wide = MachineConfig::paper_default();
    for kernel in all_kernels() {
        let progs = [
            ("seq", compile_sequential(&kernel.spec)),
            ("local", compile_local(&kernel.spec, &wide)),
            ("unroll3", compile_unrolled(&kernel.spec, 3, &wide)),
        ];
        for (tech, prog) in &progs {
            let mut eng = EquivEngine::new(&kernel.spec, prog);
            for (seed, len) in EquivConfig::new(3, 23).trial_inputs() {
                let data = KernelData::random(seed, len);
                let init = kernel.initial_state(&data);
                let label = format!("{}/{tech}/len={len}", kernel.name);
                assert_full_identical(&kernel.spec, prog, &init, &label);
                assert_batch_path_identical(&kernel.spec, prog, &mut eng, &init, &label);
            }
        }
    }
}

/// Budgets from a few dozen cycles before `c` to just past it: the last
/// steady-state iterations, where a fast loop stops and the generic
/// evaluator takes over, and the exact cycle where exhaustion fires.
fn budget_window(c: u64) -> std::ops::RangeInclusive<u64> {
    c.saturating_sub(48)..=c + 2
}

/// The handoff from each fast loop to the generic evaluator: at every
/// `max_cycles` around the end of a run, the decoded engine must give the
/// interpreter's counters or its exact error. The batched check runs the
/// reference first, so its sweep (around the reference cycle count)
/// covers the fused reference loop; the VLIW side is swept on its own
/// around the body cycle count. Programs: vecmin (a self-loop block, the
/// superloop), clamp_store (multi-block, the dispatch loop), find_first
/// (a fused reference body with a mid-body break), and unrolled vecmin,
/// whose mid-block BREAKs keep it off both VLIW fast loops.
#[test]
fn budget_sweep_identical_across_engines() {
    let mut cases = Vec::new();
    for name in ["vecmin", "clamp_store", "find_first"] {
        let kernel = by_name(name).unwrap();
        let prog = pipeline_loop(&kernel.spec, &PspConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .program;
        cases.push((format!("{name}/psp"), kernel, prog));
    }
    let kernel = by_name("vecmin").unwrap();
    let prog = compile_unrolled(&kernel.spec, 3, &MachineConfig::paper_default());
    cases.push(("vecmin/unroll3".into(), kernel, prog));

    for (label, kernel, prog) in &cases {
        let init = kernel.initial_state(&KernelData::random(5, 64));
        let batch = |engine, max_cycles| {
            let cfg = EquivConfig::fixed(1, 0)
                .with_engine(engine)
                .with_max_cycles(max_cycles);
            check_equivalence_batch(&kernel.spec, prog, &cfg, |_, _| &init)
                .map(|run| run.trials)
                .map_err(|e| e.to_string())
        };
        let full = batch(EngineKind::Interpreter, MAX_CYCLES).unwrap()[0];
        for max_cycles in budget_window(full.ref_cycles) {
            assert_eq!(
                batch(EngineKind::Interpreter, max_cycles),
                batch(EngineKind::Decoded, max_cycles),
                "[{label}] batch diverged at max_cycles={max_cycles}"
            );
        }

        let (regs, ccs) = prog.register_demand();
        let mut start = init.clone();
        start.grow(regs.max(kernel.spec.n_regs), ccs.max(kernel.spec.n_ccs));
        let observe =
            |run: psp::sim::VliwRun| (run.state, run.body_cycles, run.total_cycles, run.iterations);
        for max_cycles in budget_window(full.body_cycles) {
            assert_eq!(
                run_vliw(prog, start.clone(), max_cycles).map(observe),
                run_vliw_decoded(prog, start.clone(), max_cycles).map(observe),
                "[{label}] vliw diverged at max_cycles={max_cycles}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: CASES,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    /// Random loops from the psp-verify fuzz grammar: nested conditions,
    /// clobbered condition codes, store/load aliasing — shapes the fused
    /// reference builder must either handle bit-identically or decline.
    #[test]
    fn fuzz_grammar_identical_across_engines(body in arb_body(), packed in any::<bool>()) {
        let spec = build_spec(&body);
        let Ok(res) = with_backend(packed, || pipeline_loop(&spec, &PspConfig::default())) else {
            return Ok(());
        };
        let mut eng = EquivEngine::new(&spec, &res.program);
        for (seed, len) in EquivConfig::new(3, 29).trial_inputs() {
            let init = initial(&spec, len, seed);
            assert_full_identical(&spec, &res.program, &init, "fuzz");
            assert_batch_path_identical(&spec, &res.program, &mut eng, &init, "fuzz");
        }
    }
}
