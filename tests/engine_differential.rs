//! Differential suite for the pre-decoded execution engine: every
//! observable the oracle compares — final registers, condition codes,
//! arrays, cycle counts and iteration counts — must be bit-identical
//! between the `step_cycle`/`run_items` interpreters (the trusted base)
//! and the decoded engine.
//!
//! The decoded engine is three unsafe steady-state loops (VLIW
//! superloop, VLIW dispatch loop, fused reference loop); every other
//! cycle — prologue, epilogue, programs that fit no fast loop, and the
//! budget tail after a fast loop stops — runs on the interpreters
//! themselves, which continue the run in progress. Coverage is
//! four-layered:
//!
//! 1. all 16 paper kernels × both predicate backends × several compiled
//!    forms (PSP pipeline, local compaction, unrolled) through the full
//!    state-materializing path (`check_equivalence_with`), where both
//!    final states are compared whole;
//! 2. the same kernels through the batch path (`EquivEngine::check`, one
//!    engine reused across trials) — the counters it returns must equal
//!    the interpreter's run observables;
//! 3. a property test over the psp-verify fuzz grammar (random nested-If
//!    bodies with breaks), so the decoded engine is exercised on loop
//!    shapes no hand-written kernel covers;
//! 4. a cycle-budget sweep around the end of real runs, so every fast
//!    loop's handoff to the interpreter is checked at every budget where
//!    it can happen.

mod common;

use common::{check_cases, random_body, CASES};
use psp::predicate::backend::with_backend;
use psp::prelude::*;
use psp::sim::{check_equivalence_with, run_vliw_decoded, EquivEngine, EquivRun, MachineState};
use psp::verify::grammar::{build_spec, initial};

const MAX_CYCLES: u64 = 10_000_000;

/// One trial through `engine`'s full (state-materializing) path: every
/// `RefRun`/`VliwRun` observable, or the error's text.
type Observed = (MachineState, u64, u64, MachineState, u64, u64, u64);

fn run_full(
    spec: &LoopSpec,
    prog: &VliwLoop,
    init: &MachineState,
    engine: EngineKind,
) -> Result<Observed, String> {
    check_equivalence_with(spec, prog, init, MAX_CYCLES, engine)
        .map(|(r, v)| {
            (
                r.state,
                r.cycles,
                r.iterations,
                v.state,
                v.body_cycles,
                v.total_cycles,
                v.iterations,
            )
        })
        .map_err(|e| e.to_string())
}

/// Run one trial through both engines' full paths and demand identical
/// observables, or the exact same error.
fn assert_full_identical(spec: &LoopSpec, prog: &VliwLoop, init: &MachineState, label: &str) {
    assert_eq!(
        run_full(spec, prog, init, EngineKind::Interpreter),
        run_full(spec, prog, init, EngineKind::Decoded),
        "[{label}] engines diverged"
    );
}

/// Run one trial through the decoded engine's batch path (the one the
/// benchmark and the batched oracle use) and demand its compact counters
/// match the interpreter's runs, or its exact error.
fn assert_batch_path_identical(
    spec: &LoopSpec,
    prog: &VliwLoop,
    eng: &mut EquivEngine,
    init: &MachineState,
    label: &str,
) {
    let interp = run_full(spec, prog, init, EngineKind::Interpreter).map(|o| EquivRun {
        ref_cycles: o.1,
        ref_iterations: o.2,
        body_cycles: o.4,
        total_cycles: o.5,
        vliw_iterations: o.6,
    });
    let fast = eng.check(init, MAX_CYCLES).map_err(|e| e.to_string());
    assert_eq!(interp, fast, "[{label}] batch path diverged");
}

/// Trial inputs for the kernel sweeps: the small-trip-count ladder the
/// correctness suites use, plus one long input so the decoded engine's
/// steady-state loops (superloop / dispatch loop / fused reference) run
/// for thousands of iterations rather than handing over to the
/// interpreter after the pipeline drains.
fn kernel_trials() -> Vec<(u64, usize)> {
    let mut trials = EquivConfig::fixed(4, 11).trial_inputs();
    trials.push((17, 257));
    trials
}

/// All 16 kernels × both predicate backends, through the full
/// state-materializing path, on the PSP-pipelined program.
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

/// The batch path (fused reference loop + VLIW fast loops) over
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
            for (seed, len) in EquivConfig::fixed(3, 23).trial_inputs() {
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
/// steady-state iterations, where a fast loop stops and the interpreter
/// takes over, and the exact cycle where exhaustion fires.
fn budget_window(c: u64) -> std::ops::RangeInclusive<u64> {
    c.saturating_sub(48)..=c + 2
}

/// The handoff from each fast loop to the interpreter: at every
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

/// Random loops from the psp-verify fuzz grammar: nested conditions,
/// clobbered condition codes, store/load aliasing — shapes the fused
/// reference builder must either handle bit-identically or decline.
#[test]
fn fuzz_grammar_identical_across_engines() {
    check_cases("fuzz_grammar_identical_across_engines", CASES, |rng| {
        let spec = build_spec(&random_body(rng));
        let packed = rng.below(2) == 1;
        let Ok(res) = with_backend(packed, || pipeline_loop(&spec, &PspConfig::default())) else {
            return;
        };
        let mut eng = EquivEngine::new(&spec, &res.program);
        for (seed, len) in EquivConfig::fixed(3, 29).trial_inputs() {
            let init = initial(&spec, len, seed);
            assert_full_identical(&spec, &res.program, &init, "fuzz");
            assert_batch_path_identical(&spec, &res.program, &mut eng, &init, "fuzz");
        }
    });
}
