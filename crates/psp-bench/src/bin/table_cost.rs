//! Experiment E5 — scheduling cost (the paper's "efficient code at
//! acceptable cost"). Per kernel: wall-clock to pipeline, candidate
//! evaluations, applied transformations, and code growth — plus a
//! one-thread-vs-parallel comparison on synthetic scaling loops, where
//! candidate evaluation dominates.

use psp_bench::synthetic;
use psp_core::{json_object, pipeline_loop, PspConfig, Schedule};
use psp_kernels::all_kernels;
use std::time::Instant;

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    println!("E5 — scheduling cost of the PSP technique (wide machine)\n");
    println!(
        "{:<16} {:>8} {:>10} {:>7} {:>6} {:>7} {:>9} {:>9} {:>10}",
        "kernel", "src ops", "final ops", "moves", "wraps", "splits", "cands", "time(ms)", "growth"
    );

    let cfg = PspConfig::default();
    let mut total_ms = 0.0;
    let mut phase = psp_core::PhaseTimes::default();
    for kernel in all_kernels() {
        let src_ops = Schedule::initial(&kernel.spec).n_instances();
        let t0 = Instant::now();
        let res = pipeline_loop(&kernel.spec, &cfg).expect("pipelines");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        total_ms += ms;
        let final_ops = res.schedule.n_instances();
        println!(
            "{:<16} {:>8} {:>10} {:>7} {:>6} {:>7} {:>9} {:>9.2} {:>9.2}x",
            kernel.name,
            src_ops,
            final_ops,
            res.stats.moves,
            res.stats.wraps,
            res.stats.splits,
            res.stats.candidates,
            ms,
            final_ops as f64 / src_ops as f64,
        );
        if json {
            let doc = json_object! { "kernel": kernel.name, "stats": &res.stats };
            println!("{}", doc.document());
        }
        phase.candidate_gen += res.stats.times.candidate_gen;
        phase.apply += res.stats.times.apply;
        phase.compact += res.stats.times.compact;
        phase.codegen += res.stats.times.codegen;
        phase.score += res.stats.times.score;
        phase.total += res.stats.times.total;
    }
    println!(
        "\ntotal: {:.1} ms for {} kernels — the technique is iterative with \
         no backtracking (candidate trials are clone+compact+score).",
        total_ms,
        all_kernels().len()
    );
    println!(
        "aggregate phase work (summed across worker threads): candidate-gen \
         {:.1} ms, apply {:.1} ms, compact {:.1} ms, codegen {:.1} ms, score \
         {:.1} ms — with exact scores deferring codegen to step winners, compaction \
         is the main cost.",
        phase.candidate_gen.as_secs_f64() * 1e3,
        phase.apply.as_secs_f64() * 1e3,
        phase.compact.as_secs_f64() * 1e3,
        phase.codegen.as_secs_f64() * 1e3,
        phase.score.as_secs_f64() * 1e3,
    );

    // Scaling sweep: synthetic loops with a growing chain of conditional
    // blocks (codegen block count is exponential in live IFs), comparing
    // a one-thread run against the default thread count. Results are
    // bit-identical by construction; only wall-clock differs.
    println!("\nscaling (synthetic loops, b conditional blocks each with 3 ops):");
    println!(
        "{:>4} {:>8} {:>9} {:>11} {:>11} {:>8} {:>10}",
        "b", "src ops", "cands", "seq(ms)", "par(ms)", "speedup", "final II"
    );
    let seq_cfg = PspConfig {
        threads: 1,
        ..PspConfig::default()
    };
    for blocks in [1usize, 2, 4, 6, 8] {
        let spec = synthetic(blocks);
        let src_ops = Schedule::initial(&spec).n_instances();
        let t0 = Instant::now();
        let seq = pipeline_loop(&spec, &seq_cfg).expect("pipelines");
        let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let par = pipeline_loop(&spec, &cfg).expect("pipelines");
        let par_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            seq.stats.counters(),
            par.stats.counters(),
            "parallel driver diverged at b={blocks}"
        );
        assert_eq!(seq.program.ii_range(), par.program.ii_range());
        let ii = psp_bench::ii_string(&par.program);
        println!(
            "{:>4} {:>8} {:>9} {:>11.2} {:>11.2} {:>7.2}x {:>10}",
            blocks,
            src_ops,
            par.stats.candidates,
            seq_ms,
            par_ms,
            seq_ms / par_ms,
            ii
        );
        if json {
            let doc = json_object! { "blocks": blocks, "seq": &seq.stats, "par": &par.stats };
            println!("{}", doc.document());
        }
    }
}
