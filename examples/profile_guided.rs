//! The paper's §4 extension: probability-driven heuristics.
//!
//! Profiles a skewed-branch kernel with the reference interpreter, feeds
//! the branch probabilities into the PSP scorer (which then minimizes the
//! *expected mean dynamic II* over path sets instead of the worst-case II),
//! and compares static vs profile-guided pipelining across branch biases.
//!
//! ```sh
//! cargo run --example profile_guided --release
//! ```

use psp::prelude::*;

fn main() {
    let kernel = by_name("skewed").expect("skewed kernel exists");
    // A narrow machine (2 ALUs, 1 memory port, 1 branch) creates the
    // resource pressure that makes path-weighted choices matter: on the
    // paper's wide default everything fits and both objectives coincide.
    let machine = MachineConfig::narrow(2, 1, 1);
    let len = 2000;

    println!(
        "kernel: {} — if (x[k] > t) {{ acc += x[k]; cnt += 1; }}",
        kernel.name
    );
    println!(
        "{:>6} {:>10} {:>16} {:>16} {:>16}",
        "p", "profiled", "static cyc/iter", "guided cyc/iter", "E[II] (guided)"
    );

    for q in [0.05, 0.25, 0.5, 0.75, 0.95] {
        let data = KernelData::random(11, len).with_taken_fraction(q);
        let init = kernel.initial_state(&data);

        // Profile with the reference interpreter.
        let profile = BranchProfile::measure(&kernel.spec, init.clone(), 100_000_000).unwrap();

        // Static PSP (worst-path objective).
        let s = pipeline_loop(&kernel.spec, &PspConfig::with_machine(machine.clone())).unwrap();
        let (_, run_s) = check_equivalence(&kernel.spec, &s.program, &init, 100_000_000).unwrap();

        // Profile-guided PSP (expected-II objective, paper §4).
        let cfg = PspConfig {
            probs: Some(profile.p_true.clone()),
            ..PspConfig::with_machine(machine.clone())
        };
        let g = pipeline_loop(&kernel.spec, &cfg).unwrap();
        let (_, run_g) = check_equivalence(&kernel.spec, &g.program, &init, 100_000_000).unwrap();
        kernel
            .check(&run_g.state, &data)
            .expect("guided result correct");

        println!(
            "{:>6.2} {:>10.3} {:>16.3} {:>16.3} {:>16.3}",
            q,
            profile.prob(0),
            run_s.cycles_per_iteration(),
            run_g.cycles_per_iteration(),
            g.score.primary,
        );
    }

    println!("\nThe guided scorer weights each reconstructed path by its measured");
    println!("probability (the product of its branch outcomes' probabilities under the");
    println!("profile), so transformations that shorten the hot path win even when they");
    println!("lengthen the cold one.");
}
