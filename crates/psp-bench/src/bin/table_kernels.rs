//! Experiment E4 — the kernel-suite comparison table (the paper's §3
//! "preliminary experimental results" expanded into a full evaluation).
//!
//! Every kernel × every compiler: static II, verified dynamic cycles per
//! iteration, and speedup over the sequential reference. EMS reports its
//! verified single II with the idealized cycle model (DESIGN.md §4).

use psp_baselines::{compile_local, compile_sequential, compile_unrolled, modulo_schedule};
use psp_bench::measure;
use psp_core::json::Json;
use psp_core::{json_object, pipeline_loop, PspConfig};
use psp_kernels::{all_kernels, KernelData};
use psp_machine::MachineConfig;
use psp_opt::{certify, Certification, ExactConfig};
use psp_sim::run_reference;
use std::time::Instant;

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let machine = MachineConfig::paper_default();
    let len = 1024;

    println!("E4 — kernel suite, machine = wide tree-VLIW, n = {len}");
    println!("cells: II | cycles/iter | speedup vs sequential\n");
    println!(
        "{:<16} {:>14} {:>16} {:>16} {:>15} {:>16} {:>7}",
        "kernel", "seq", "local", "unroll x4", "ems (1 II)", "psp", "ops/cy"
    );

    let mut geo: Vec<f64> = Vec::new();
    let mut records = Vec::new();
    for kernel in all_kernels() {
        let t_kernel = Instant::now();
        let data = KernelData::random(2024, len);
        let golden =
            run_reference(&kernel.spec, kernel.initial_state(&data), 1_000_000_000).unwrap();

        let seq = measure(&kernel, &compile_sequential(&kernel.spec), &data);
        let local = measure(&kernel, &compile_local(&kernel.spec, &machine), &data);
        let unroll = measure(&kernel, &compile_unrolled(&kernel.spec, 4, &machine), &data);
        let ems = modulo_schedule(&kernel.spec, &machine);
        ems.verify(&machine).expect("modulo schedule verifies");
        let ems_cycles = ems.estimated_cycles(golden.iterations);
        let ems_speedup = golden.cycles as f64 / ems_cycles as f64;
        let psp = pipeline_loop(&kernel.spec, &PspConfig::with_machine(machine.clone()))
            .expect("psp pipelines");
        let pspm = measure(&kernel, &psp.program, &data);
        geo.push(pspm.speedup);

        let cell = |m: &psp_bench::Measured| {
            format!("{}|{:.2}|{:.2}x", m.ii, m.cycles_per_iter, m.speedup)
        };
        let util = psp.program.utilization(&machine);
        println!(
            "{:<16} {:>14} {:>16} {:>16} {:>15} {:>16} {:>7.2}",
            kernel.name,
            cell(&seq),
            cell(&local),
            cell(&unroll),
            format!(
                "{}|{:.2}|{:.2}x",
                ems.ii,
                ems_cycles as f64 / golden.iterations as f64,
                ems_speedup
            ),
            cell(&pspm),
            util.ops_per_cycle,
        );
        // Sanity: the paper's claim — PSP at least matches local scheduling.
        assert!(
            pspm.body_cycles <= local.body_cycles + golden.iterations / 8,
            "{}: psp regressed vs local",
            kernel.name
        );
        if json {
            let exact = certify(
                &kernel.spec,
                &machine,
                &ExactConfig::default(),
                Some(ems.ii),
            );
            let lb = exact.outcome.lb();
            records.push(json_object! {
                "kernel": kernel.name, "ems_ii": ems.ii, "certified_lb": lb,
                "certified": matches!(exact.outcome, Certification::Certified(_)),
                "ems_gap": ems.ii - lb, "psp_ii": pspm.ii.as_str(), "psp_speedup": pspm.speedup,
                "wall_ms": t_kernel.elapsed().as_secs_f64() * 1e3, "pred": &psp.stats.pred,
            });
        }
    }
    let g = geo.iter().map(|s| s.ln()).sum::<f64>() / geo.len() as f64;
    println!(
        "\nPSP geometric-mean speedup over sequential: {:.2}x",
        g.exp()
    );
    if json {
        let n = records.len();
        let payload = Json::from(records).document();
        std::fs::write("BENCH_kernels.json", payload).expect("write BENCH_kernels.json");
        println!("wrote BENCH_kernels.json ({n} records)");
    }
}
