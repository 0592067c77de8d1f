//! Experiment E11 — the simulation-engine benchmark.
//!
//! Every legality claim in the repo bottoms out in `check_equivalence`, so
//! this binary measures the oracle itself: for each kernel it compiles the
//! PSP-pipelined loop, then runs the same batched trial set three ways —
//!
//! 1. **interp** — the trusted `step_cycle`/`run_items` interpreters;
//! 2. **decoded** — the pre-decoded engine, single thread (the headline:
//!    the acceptance bar is a ≥5× geomean speedup over the interpreter);
//! 3. **decoded-mt** — the same batch sharded across all available
//!    threads, one scoped thread per contiguous shard.
//!
//! Each pair is also a differential check: the per-trial cycle/iteration
//! observables of all three runs must match exactly. `--json` writes
//! BENCH_sim.json; `--smoke` trims trials and repetitions for the
//! time-boxed CI job.

use psp_core::{json_object, pipeline_loop, PspConfig};
use psp_kernels::{all_kernels, Kernel, KernelData};
use psp_sim::{check_equivalence_batch, BatchRun, EngineKind, EquivConfig};
use std::collections::HashMap;
use std::time::Instant;

/// Fixed trial sets: benchmarks must stay comparable across runs.
const FULL_TRIALS: usize = 12;
const SMOKE_TRIALS: usize = 6;
const SEED: u64 = 5;

/// Simulation-bound trial lengths. The default `TRIAL_LENS` ladder starts
/// at trip counts of 1–7, where a trial is over in a few hundred
/// simulated cycles and the measurement degenerates into timing random
/// input generation (paid identically by both engines). The correctness
/// suites keep those tiny trip counts; the benchmark measures the
/// regime the oracle actually spends its time in.
const BENCH_LENS: [usize; 3] = [257, 1024, 4096];

/// Pre-built initial states keyed by trial input: input construction is
/// engine-independent and stays outside the measurement; the oracle
/// borrows each trial's input (its internal reusable-state copies are
/// what checking inherently pays, and they stay inside).
type Inputs = HashMap<(u64, usize), psp_sim::MachineState>;

fn build_inputs(kernel: &Kernel, cfg: &EquivConfig) -> Inputs {
    cfg.trial_inputs()
        .into_iter()
        .map(|(seed, len)| {
            let data = KernelData::random(seed, len);
            ((seed, len), kernel.initial_state(&data))
        })
        .collect()
}

fn run_batch(
    kernel: &Kernel,
    prog: &psp_machine::VliwLoop,
    cfg: &EquivConfig,
    inputs: &Inputs,
) -> BatchRun {
    check_equivalence_batch(&kernel.spec, prog, cfg, |seed, len| &inputs[&(seed, len)])
        .unwrap_or_else(|e| panic!("{} [{}]: {e}", kernel.name, cfg.engine.label()))
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trials = if smoke { SMOKE_TRIALS } else { FULL_TRIALS };
    let runs = if smoke { 1 } else { 3 };

    println!("E11 — simulation engines: pre-decoded batch vs step_cycle interpreter");
    println!("({trials} trials per kernel, best of {runs} runs)\n");
    println!(
        "{:<16} {:>7} {:>11} {:>11} {:>11} {:>9} {:>9} {:>12}",
        "kernel", "II", "interp ms", "decoded ms", "dec-mt ms", "speedup", "mt-spdup", "sim cycles"
    );

    let cfg = PspConfig::default();
    let mut records = Vec::new();
    let mut log_speedup_sum = 0.0f64;
    let mut worst = f64::MAX;
    // Simulated cycles and best-run milliseconds summed over the suite.
    let (mut all_cycles, mut all_interp_ms, mut all_dec_ms) = (0u64, 0.0f64, 0.0f64);
    let kernels = all_kernels();
    for kernel in &kernels {
        let res =
            pipeline_loop(&kernel.spec, &cfg).unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        let prog = &res.program;
        let interp_cfg = EquivConfig::fixed(trials, SEED)
            .with_lens(&BENCH_LENS)
            .with_engine(EngineKind::Interpreter);
        let dec_cfg = EquivConfig::fixed(trials, SEED)
            .with_lens(&BENCH_LENS)
            .with_engine(EngineKind::Decoded);
        let dec_mt_cfg = EquivConfig::fixed(trials, SEED)
            .with_lens(&BENCH_LENS)
            .with_engine(EngineKind::Decoded)
            .with_threads(0);
        let inputs = build_inputs(kernel, &interp_cfg);

        let mut interp_ms = f64::MAX;
        let mut dec_ms = f64::MAX;
        let mut dec_mt_ms = f64::MAX;
        let mut reference: Option<BatchRun> = None;
        for _ in 0..runs {
            let t = Instant::now();
            let bi = run_batch(kernel, prog, &interp_cfg, &inputs);
            interp_ms = interp_ms.min(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let bd = run_batch(kernel, prog, &dec_cfg, &inputs);
            dec_ms = dec_ms.min(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let bm = run_batch(kernel, prog, &dec_mt_cfg, &inputs);
            dec_mt_ms = dec_mt_ms.min(t.elapsed().as_secs_f64() * 1e3);
            // The engines must agree trial by trial, run after run.
            assert_eq!(bi.trials, bd.trials, "{}: decoded diverged", kernel.name);
            assert_eq!(bi.trials, bm.trials, "{}: sharded diverged", kernel.name);
            reference = Some(bd);
        }
        let batch = reference.unwrap();
        let cycles = batch.total_cycles();
        all_cycles += cycles;
        all_interp_ms += interp_ms;
        all_dec_ms += dec_ms;
        let speedup = interp_ms / dec_ms;
        let mt_speedup = interp_ms / dec_mt_ms;
        log_speedup_sum += speedup.ln();
        worst = worst.min(speedup);
        let ii = psp_bench::ii_string(prog);
        println!(
            "{:<16} {:>7} {:>11.3} {:>11.3} {:>11.3} {:>8.2}x {:>8.2}x {:>12}",
            kernel.name, ii, interp_ms, dec_ms, dec_mt_ms, speedup, mt_speedup, cycles
        );
        records.push(json_object! {
            "kernel": kernel.name, "ii": ii.as_str(), "trials": trials, "sim_cycles": cycles,
            "interp_ms": interp_ms, "decoded_ms": dec_ms, "decoded_mt_ms": dec_mt_ms,
            "speedup_1t": speedup, "speedup_mt": mt_speedup,
        });
    }

    let geomean = (log_speedup_sum / kernels.len() as f64).exp();
    println!("\ngeomean single-thread speedup: {geomean:.2}x (worst kernel {worst:.2}x)");

    let per_sec = |ms: f64| all_cycles as f64 / (ms / 1e3);
    let (dec_rate, interp_rate) = (per_sec(all_dec_ms), per_sec(all_interp_ms));
    println!(
        "throughput: decoded {:.1}M cycles/sec vs interpreter {:.1}M cycles/sec",
        dec_rate / 1e6,
        interp_rate / 1e6,
    );

    if json {
        let doc = json_object! {
            "trials": trials, "runs": runs, "geomean_speedup_1t": geomean,
            "worst_speedup_1t": worst, "decoded_cycles_per_sec": dec_rate,
            "interp_cycles_per_sec": interp_rate, "kernels": records,
        };
        std::fs::write("BENCH_sim.json", doc.document()).expect("write BENCH_sim.json");
        println!("wrote BENCH_sim.json");
    }
}
