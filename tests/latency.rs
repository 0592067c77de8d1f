//! The machine's latency rule (`psp_machine::InFlight`) on four machines
//! with multi-cycle latencies. PSP code generation emits the rule's waits,
//! and the independent latency pass of `validate_vliw` checks every path of
//! the result, back edges and the prologue included:
//!
//! - `psp_programs_keep_every_latency_on_four_machines`: every PSP program
//!   of the kernels, `synthetic(4..=6)` and the E12 corpus has no latency
//!   violation and stays equivalent to its source loop; the max-II sums
//!   are pinned;
//! - `baseline_latency_violations_are_pinned`: the baselines do not apply
//!   the rule across iterations, and the pass flags some of their programs
//!   (ROADMAP, "Baselines that read a value before it lands"). The counts
//!   are pinned so that a fix shows here;
//! - `combining_past_one_clone_of_a_split_update_stays_equivalent`: a
//!   grammar loop whose latency-aware search once combined a load past
//!   only one clone of a split induction update.

mod common;

use common::{check_prog, fuzz_corpus};
use psp::prelude::*;

/// The four machines, by label.
fn machines() -> [(&'static str, MachineConfig); 4] {
    [
        (
            "paper, load 2",
            MachineConfig {
                load_latency: 2,
                ..MachineConfig::paper_default()
            },
        ),
        (
            "paper, load 4",
            MachineConfig {
                load_latency: 4,
                ..MachineConfig::paper_default()
            },
        ),
        (
            "4/2/1, load 3, cmp 2",
            MachineConfig {
                load_latency: 3,
                cmp_latency: 2,
                ..MachineConfig::narrow(4, 2, 1)
            },
        ),
        (
            "2/1/1, alu 2, load 3, cmp 2",
            MachineConfig {
                alu_latency: 2,
                load_latency: 3,
                cmp_latency: 2,
                ..MachineConfig::narrow(2, 1, 1)
            },
        ),
    ]
}

/// The kernels, `synthetic(4..=6)` when `synthetic` holds, and the corpus.
fn loops(synthetic: bool) -> Vec<LoopSpec> {
    let mut loops: Vec<LoopSpec> = all_kernels().into_iter().map(|k| k.spec).collect();
    if synthetic {
        loops.extend((4..=6).map(psp_bench::synthetic));
    }
    loops.extend(fuzz_corpus());
    loops
}

fn max_ii(prog: &VliwLoop) -> usize {
    prog.ii_range().map_or(0, |(_, hi)| hi)
}

fn latency_violations(spec: &LoopSpec, m: &MachineConfig, prog: &VliwLoop) -> Vec<Violation> {
    validate_vliw(spec, m, prog)
        .into_iter()
        .filter(|v| matches!(v, Violation::Latency { .. }))
        .collect()
}

#[test]
fn psp_programs_keep_every_latency_on_four_machines() {
    let loops = loops(true);
    let mut sums = Vec::new();
    for (label, machine) in machines() {
        let mut sum = 0;
        for spec in &loops {
            let what = format!("{} on {label}", spec.name);
            let res = pipeline_loop(spec, &PspConfig::with_machine(machine.clone()))
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let v = latency_violations(spec, &machine, &res.program);
            assert!(v.is_empty(), "{what}: {v:?}\n{}", res.program);
            match by_name(&spec.name) {
                Some(kernel) => {
                    let data = KernelData::random(11, 13);
                    let init = kernel.initial_state(&data);
                    let (_, run) = check_equivalence(spec, &res.program, &init, 10_000_000)
                        .unwrap_or_else(|e| panic!("{what}: {e}\n{}", res.program));
                    kernel.check(&run.state, &data).unwrap();
                }
                None => check_prog(spec, &res.program, &what),
            }
            sum += max_ii(&res.program);
        }
        sums.push(sum);
    }
    assert_eq!(
        sums,
        vec![460, 712, 721, 1006],
        "PSP max-II sums per machine"
    );
}

#[test]
fn baseline_latency_violations_are_pinned() {
    // (local, unrolled twice, modulo) programs flagged per machine.
    let loops = loops(false);
    let mut flagged = Vec::new();
    for (_, machine) in machines() {
        let mut counts = [0usize; 3];
        for spec in &loops {
            let programs = [
                compile_local(spec, &machine),
                compile_unrolled(spec, 2, &machine),
                modulo_to_vliw(&modulo_schedule(spec, &machine), spec.name.clone()),
            ];
            for (count, prog) in counts.iter_mut().zip(&programs) {
                if !latency_violations(spec, &machine, prog).is_empty() {
                    *count += 1;
                }
            }
        }
        flagged.push(counts);
    }
    assert_eq!(
        flagged,
        vec![[41, 49, 36], [58, 58, 50], [44, 50, 42], [77, 55, 49]],
        "flagged (local, unrolled, modulo) of {} loops",
        loops.len()
    );
}

/// A grammar loop on `narrow(1,1,1)` with ALU 3, load 5 and compare 4. The
/// latency-aware scores steer the search to a wrapped `LOAD R5, a0[R1+1]`
/// landing in the row of the [0] clone of a split `ADD R1, R1, #1`, below
/// its [1] clone. Combining that one clone's stride read `x[k + 2]` on the
/// [1] paths, and four of these six trials failed. Combining now needs the
/// crossed update on every path of the mover, which no single clone is.
#[test]
fn combining_past_one_clone_of_a_split_update_stays_equivalent() {
    let spec = psp::lang::compile(
        "kernel fuzz(n, k, acc, s0, s1, s2; x[], y[]) -> acc {
            s2 = x[k]; y[k] = s1;
            if (s2 < s1) { acc = acc + s2;
                if (s0 != 0) { acc = acc + s2; } else { acc = acc + s0; } }
            if ((-2) <= k) { s1 = y[k]; y[k] = k; } else { s1 = x[k]; }
            if (s2 < s1) { s2 = s0 & s2; s2 = x[k]; } else { acc = acc + 1; }
            s0 = x[k]; k = k + 1;
            break if (k >= n);
        }",
    )
    .unwrap();
    let machine = MachineConfig {
        alu_latency: 3,
        load_latency: 5,
        cmp_latency: 4,
        ..MachineConfig::narrow(1, 1, 1)
    };
    let res = pipeline_loop(&spec, &PspConfig::with_machine(machine.clone())).unwrap();
    assert_eq!(latency_violations(&spec, &machine, &res.program), []);
    let failures: Vec<String> = psp::sim::EquivConfig::fixed(6, 1)
        .trial_inputs()
        .into_iter()
        .filter_map(|(seed, len)| {
            let init = psp::verify::grammar::initial(&spec, len, seed);
            check_equivalence(&spec, &res.program, &init, 10_000_000)
                .err()
                .map(|e| format!("len {len} seed {seed}: {e}"))
        })
        .collect();
    assert!(failures.is_empty(), "{failures:#?}\n{}", res.program);
}
