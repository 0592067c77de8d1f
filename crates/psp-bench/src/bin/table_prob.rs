//! Experiment E7 — the paper's §4 future-work extension: heuristics driven
//! by dynamic probabilities of path sets, obtained by profiling.
//!
//! Sweeps the branch probability of the skewed kernel on a narrow machine
//! and compares static (worst-path) PSP, profile-guided PSP, and the
//! single-II EMS baseline. The guided scorer's estimated mean dynamic II
//! is printed next to the measured cycles per iteration — the estimator
//! the paper proposes ("a mapping from path sets … to their probabilities
//! would enable exact calculation of estimated mean (dynamic) II").

use psp_baselines::modulo_schedule;
use psp_bench::measure;
use psp_core::{pipeline_loop, PspConfig};
use psp_kernels::{by_name, KernelData};
use psp_machine::MachineConfig;
use psp_sim::BranchProfile;

fn main() {
    let machine = MachineConfig::narrow(2, 1, 1);
    let len = 4000;

    println!("E7 — probability-driven heuristics (skewed kernel, 2alu/1mem/1br)\n");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "p", "static c/i", "guided c/i", "E[II] est", "ems c/i", "guided win"
    );

    for name in ["skewed", "two_cond"] {
        println!("kernel: {name}");
        let kernel = by_name(name).unwrap();
        for q in [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95] {
            let data = KernelData::random(31, len).with_taken_fraction(q);
            let init = kernel.initial_state(&data);
            let profile = BranchProfile::measure(&kernel.spec, init, 1_000_000_000).unwrap();

            let s = pipeline_loop(&kernel.spec, &PspConfig::with_machine(machine.clone())).unwrap();
            let sm = measure(&kernel, &s.program, &data);

            let cfg = PspConfig {
                probs: Some(profile.p_true.clone()),
                ..PspConfig::with_machine(machine.clone())
            };
            let g = pipeline_loop(&kernel.spec, &cfg).unwrap();
            let gm = measure(&kernel, &g.program, &data);

            let ems = modulo_schedule(&kernel.spec, &machine);
            ems.verify(&machine).unwrap();
            let ems_ci = ems.estimated_cycles(profile.samples) as f64 / profile.samples as f64;

            println!(
                "{:>6.2} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>11.1}%",
                q,
                sm.cycles_per_iter,
                gm.cycles_per_iter,
                g.score.primary,
                ems_ci,
                100.0 * (1.0 - gm.cycles_per_iter / sm.cycles_per_iter)
            );
            // The estimator must track reality closely (stationary model).
            assert!(
                (g.score.primary - gm.cycles_per_iter).abs() < 0.35,
                "estimated mean II diverged from measurement"
            );
        }
        println!();
    }
}
