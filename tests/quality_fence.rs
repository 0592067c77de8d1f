//! Quality fence: PSP's maximal II against local scheduling's.
//!
//! Local scheduling (`compile_local`: if-convert, then list-schedule one
//! block) is the floor any pipeliner should clear, and PSP's first phase
//! reproduces it (compaction with renaming). This suite runs PSP and local
//! scheduling on every kernel, `synthetic(4..=8)` and the 96-loop E12
//! `fuzz` corpus, on the paper machine and on `narrow(2,1,1)`, and pins:
//!
//! - no kernel or synthetic loop has a PSP max II above local's;
//! - the corpus's max-II sums, PSP's and local's;
//! - every corpus run where PSP loses to local, with both IIs;
//! - on `narrow(2,1,2)`, `narrow(2,2,1)` and `narrow(3,1,1)`, every kernel
//!   or synthetic run where PSP loses to local, with both IIs;
//! - every register the scheduler introduced (`source.n_regs..n_regs()`)
//!   is defined by some instance of the final schedule: a refused move
//!   takes no fresh name.
//!
//! Every run starts from the compacted seed: `pipeline_loop` has no
//! fallback, so a seed that code generation refuses fails the run, and the
//! suite with it.
//!
//! A change that wins or loses quality re-pins the tables; the failure
//! message prints what it observed in source form.

mod common;

use common::fuzz_corpus;
use psp::ir::{Reg, RegRef};
use psp::prelude::*;

/// One pipelined loop on one machine.
struct Run {
    name: String,
    machine: &'static str,
    psp: usize,
    local: usize,
}

fn max_ii(prog: &VliwLoop) -> usize {
    prog.ii_range().map_or(0, |(_, hi)| hi)
}

/// Every kernel and `synthetic(4..=8)`.
fn named_loops() -> Vec<LoopSpec> {
    let mut named: Vec<LoopSpec> = all_kernels().into_iter().map(|k| k.spec).collect();
    named.extend((4..=8).map(psp_bench::synthetic));
    named
}

fn runs(loops: &[LoopSpec], machines: &[(&'static str, MachineConfig)]) -> Vec<Run> {
    let mut out = Vec::new();
    for spec in loops {
        for (label, machine) in machines {
            let res = pipeline_loop(spec, &PspConfig::with_machine(machine.clone()))
                .unwrap_or_else(|e| panic!("{} on {label}: {e}", spec.name));
            let sched = &res.schedule;
            let undefined: Vec<u32> = (sched.source.n_regs..sched.n_regs())
                .filter(|&r| {
                    !sched
                        .instances()
                        .any(|i| i.def() == Some(RegRef::Gpr(Reg(r))))
                })
                .collect();
            assert!(
                undefined.is_empty(),
                "{} on {label}: no instance defines fresh registers {undefined:?}",
                spec.name
            );
            out.push(Run {
                name: spec.name.clone(),
                machine: label,
                psp: max_ii(&res.program),
                local: max_ii(&compile_local(spec, machine)),
            });
        }
    }
    out
}

/// `(loop, machine, PSP max II, local max II)` for every corpus run where
/// PSP's max II is above local scheduling's.
#[rustfmt::skip]
const CORPUS_LOSSES: &[(&str, &str, usize, usize)] = &[
    ("fuzz66", "narrow211", 6, 5),
    ("fuzz82", "narrow211", 5, 4),
];

/// `(loop, machine, PSP max II, local max II)` for every kernel or
/// synthetic run on the three other narrow machines where PSP's max II is
/// above local scheduling's.
#[rustfmt::skip]
const NARROW_LOSSES: &[(&str, &str, usize, usize)] = &[
    ("synthetic5", "narrow311", 6, 5),
    ("synthetic6", "narrow311", 7, 6),
    ("synthetic7", "narrow311", 8, 7),
    ("synthetic8", "narrow311", 9, 7),
];

/// The runs of `runs` where PSP's max II is above local's.
fn losses(runs: &[Run]) -> Vec<(&str, &'static str, usize, usize)> {
    runs.iter()
        .filter(|r| r.psp > r.local)
        .map(|r| (r.name.as_str(), r.machine, r.psp, r.local))
        .collect()
}

/// `losses` in source form, for a failure message.
fn listed(losses: &[(&str, &str, usize, usize)]) -> String {
    losses.iter().map(|l| format!("    {l:?},\n")).collect()
}

#[test]
fn psp_max_ii_is_fenced_by_local_scheduling() {
    let machines = [
        ("paper", MachineConfig::paper_default()),
        ("narrow211", MachineConfig::narrow(2, 1, 1)),
    ];
    let named = runs(&named_loops(), &machines);
    let corpus = runs(&fuzz_corpus(), &machines);

    for r in &named {
        assert!(
            r.psp <= r.local,
            "{} on {}: PSP max II {} above local's {}",
            r.name,
            r.machine,
            r.psp,
            r.local
        );
    }

    let sum = |f: fn(&Run) -> usize| corpus.iter().map(f).sum::<usize>();
    assert_eq!(
        (sum(|r| r.psp), sum(|r| r.local)),
        (740, 943),
        "corpus max-II sums (PSP, local)"
    );

    let losses = losses(&corpus);
    let listed = listed(&losses);
    assert_eq!(losses, CORPUS_LOSSES, "observed losses:\n{listed}");
    let lost: usize = losses.iter().map(|l| l.2 - l.3).sum();
    assert_eq!((losses.len(), lost), (2, 2), "(losing runs, cycles lost)");
}

#[test]
fn kernel_and_synthetic_losses_on_three_more_narrow_machines_are_pinned() {
    let machines = [
        ("narrow212", MachineConfig::narrow(2, 1, 2)),
        ("narrow221", MachineConfig::narrow(2, 2, 1)),
        ("narrow311", MachineConfig::narrow(3, 1, 1)),
    ];
    let named = runs(&named_loops(), &machines);
    let losses = losses(&named);
    let listed = listed(&losses);
    assert_eq!(losses, NARROW_LOSSES, "observed losses:\n{listed}");
}
