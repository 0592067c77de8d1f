//! Experiment E8 — the optimality-gap table.
//!
//! For every kernel: the greedy EMS II, the certified optimal fixed II (or
//! a sound `[lb,ub]` interval when the budget runs out), the heuristic gap,
//! the PSP driver's maximal per-path II and its gap to the certified fixed
//! floor, and the solver's cost (branch-and-bound nodes, wall time). The
//! PSP gap may be *negative*: variable per-path II is allowed to beat the
//! best single fixed II — that asymmetry is the paper's central claim, and
//! this table quantifies it per kernel.
//!
//! Certified witness schedules are compiled to kernel code
//! (`psp_opt::modulo_to_vliw`) and run through the differential equivalence
//! check, so every "certified" cell is backed by executable, verified code.
//!
//! Flags: `--smoke` caps the node budget for the CI smoke job; `--json`
//! additionally writes a `BENCH_gap.json` artifact.

use psp_baselines::modulo_schedule;
use psp_bench::measure;
use psp_core::json::Json;
use psp_core::{json_object, pipeline_loop, PspConfig};
use psp_kernels::{all_kernels, KernelData};
use psp_machine::MachineConfig;
use psp_opt::{certify, mii_lower_bound, modulo_to_vliw, Certification, ExactConfig};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json = std::env::args().any(|a| a == "--json");
    let machine = MachineConfig::paper_default();
    let cfg = ExactConfig {
        max_nodes: if smoke { 20_000 } else { 200_000 },
    };

    println!(
        "E8 — optimality gap, machine = wide tree-VLIW, node budget = {}{}",
        cfg.max_nodes,
        if smoke { " (smoke)" } else { "" }
    );
    println!("exact = certified optimal fixed II ([lb,ub] when the budget ran out)");
    println!("psp gap may be negative: variable per-path II can beat any fixed II\n");
    println!(
        "{:<16} {:>7} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8}",
        "kernel", "ems II", "exact", "ems gap", "psp max", "psp gap", "nodes", "ms"
    );

    let mut certified = 0usize;
    let mut records = Vec::new();
    let kernels = all_kernels();
    let total = kernels.len();

    for kernel in &kernels {
        let ems = modulo_schedule(&kernel.spec, &machine);
        ems.verify(&machine).expect("greedy schedule verifies");
        let lb0 = mii_lower_bound(&kernel.spec, &machine);
        assert!(
            lb0 <= ems.ii,
            "{}: floor {lb0} above greedy II {}",
            kernel.name,
            ems.ii
        );

        let res = certify(&kernel.spec, &machine, &cfg, Some(ems.ii));
        let lb = res.outcome.lb();
        assert!(
            lb >= lb0 && lb <= ems.ii,
            "{}: unsound interval",
            kernel.name
        );
        let (exact_cell, ems_gap) = match res.outcome {
            Certification::Certified(ii) => {
                certified += 1;
                (format!("{ii}"), format!("{}", ems.ii - ii))
            }
            Certification::Bounded { .. } => (res.outcome.display(), format!("≤{}", ems.ii - lb)),
        };

        // A certified witness must survive codegen + differential check.
        if let Some(sched) = &res.schedule {
            let prog = modulo_to_vliw(sched, format!("{}_exact", kernel.name));
            prog.validate(&machine)
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            let data = KernelData::random(2024, 256);
            let _ = measure(kernel, &prog, &data);
        }

        let psp = pipeline_loop(&kernel.spec, &PspConfig::with_machine(machine.clone()))
            .expect("psp pipelines");

        let psp_max = psp.program.ii_range().map(|(_, b)| b).unwrap_or(0);
        let psp_gap = psp_max as i64 - lb as i64;
        let ms = res.elapsed.as_secs_f64() * 1e3;
        println!(
            "{:<16} {:>7} {:>8} {:>8} {:>8} {:>+8} {:>9} {:>8.2}",
            kernel.name, ems.ii, exact_cell, ems_gap, psp_max, psp_gap, res.nodes, ms
        );
        records.push(json_object! {
            "kernel": kernel.name, "ems_ii": ems.ii, "exact_lb": lb, "exact_ub": res.outcome.ub(),
            "certified": matches!(res.outcome, Certification::Certified(_)),
            "psp_max_ii": psp_max, "psp_gap": psp_gap, "nodes": res.nodes, "wall_ms": ms,
        });
    }

    println!(
        "\ncertified optimal: {certified}/{total} kernels \
         (the rest carry sound intervals)"
    );
    if !smoke {
        assert!(
            certified * 4 >= total * 3,
            "acceptance: only {certified}/{total} certified within the default budget"
        );
    }

    if json {
        let payload = Json::from(records).document();
        std::fs::write("BENCH_gap.json", payload).expect("write BENCH_gap.json");
        println!("wrote BENCH_gap.json ({total} records)");
    }
}
