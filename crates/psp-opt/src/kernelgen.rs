//! Kernel code generation for verified modulo schedules.
//!
//! DESIGN.md §4 originally scoped EMS out of executable code ("modulo
//! variable expansion is out of scope") and scored it with an idealized
//! cycle model. The constraint system of [`crate::sched::all_edges`] makes
//! expansion unnecessary: the distance-1 anti edges over *all* register
//! pairs force every write of a register to land no earlier than one II
//! after each of the previous iteration's reads, so a value's lifetime
//! never exceeds one II and no rotating copies are needed. (The equality
//! case — write and last read in the same cycle — is safe under the
//! simulator's pre-cycle-read / end-of-cycle-commit semantics.)
//!
//! The layout is the textbook one. With `P = (stages − 1) · II` prologue
//! cycles, absolute cycle `c` executes operation `i` of source iteration
//! `j` whenever `time[i] + j·II = c`:
//!
//! * **prologue** — absolute cycles `0 .. P`, filling the pipeline;
//! * **kernel** — a single block of `II` cycles (cycle `s` holds every op
//!   with `time[i] mod II = s`) ending in an unconditional back edge; each
//!   pass retires exactly one source iteration;
//! * **epilogue** — empty: a fired BREAK's cycle still commits, and the
//!   edge system guarantees every observable of completed iterations has
//!   committed by then while no observable of a later iteration has
//!   issued (see the observable↔BREAK distance-1 edges in `all_edges`).
//!
//! Short trip counts exit from inside the prologue; the simulator
//! ([`psp-sim`]'s `run_vliw`) handles that uniformly.

use crate::sched::ModuloSchedule;
use psp_machine::{Succ, VliwBlock, VliwLoop, VliwTerm};
use psp_predicate::PredicateMatrix;

/// Compile a verified modulo schedule into an executable [`VliwLoop`].
///
/// The caller is expected to have checked [`ModuloSchedule::verify`]; the
/// construction here preserves exactly the properties that check
/// establishes (per-slot resource fit, all dependence inequalities).
pub fn modulo_to_vliw(sched: &ModuloSchedule, name: impl Into<String>) -> VliwLoop {
    let ii = sched.ii as usize;
    let prologue_cycles = (sched.stages.saturating_sub(1) as usize) * ii;

    // Prologue: cycle c holds op i of iteration j = (c − time[i]) / II for
    // every i with time[i] ≤ c and time[i] ≡ c (mod II).
    let mut prologue = vec![Vec::new(); prologue_cycles];
    #[allow(clippy::needless_range_loop)]
    for c in 0..prologue_cycles {
        for (i, &t) in sched.time.iter().enumerate() {
            if t <= c && (c - t) % ii == 0 {
                prologue[c].push(sched.ops[i].0);
            }
        }
    }

    // Kernel: one block of II cycles; slot s holds every op with
    // time[i] mod II = s. The first pass already runs each op with a
    // non-negative iteration index because time[i] < stages · II.
    let mut cycles = vec![Vec::new(); ii];
    for (i, &t) in sched.time.iter().enumerate() {
        cycles[t % ii].push(sched.ops[i].0);
    }

    VliwLoop {
        name: name.into(),
        prologue,
        blocks: vec![VliwBlock {
            id: 0,
            matrix: PredicateMatrix::universe(),
            cycles,
            term: VliwTerm::Jump(Succ::back(0)),
        }],
        entry: 0,
        epilogue: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{certify, Certification, ExactConfig};
    use psp_kernels::{all_kernels, by_name, KernelData};
    use psp_machine::MachineConfig;
    use psp_sim::{check_equivalence, EquivConfig};

    fn exact_program(name: &str, m: &MachineConfig) -> (psp_ir::LoopSpec, VliwLoop) {
        let kernel = by_name(name).unwrap();
        let res = certify(&kernel.spec, m, &ExactConfig::default(), None);
        let sched = res.schedule.expect("kernel certifies with a witness");
        sched.verify(m).unwrap();
        (kernel.spec.clone(), modulo_to_vliw(&sched, name))
    }

    #[test]
    fn vecmin_exact_kernel_structure() {
        let m = MachineConfig::paper_default();
        let (_, prog) = exact_program("vecmin", &m);
        prog.validate(&m).unwrap();
        assert_eq!(prog.blocks.len(), 1);
        assert_eq!(prog.blocks[0].cycles.len(), 3, "II = 3 kernel");
        assert_eq!(prog.ii_range(), Some((3, 3)));
        assert!(prog.epilogue.is_empty());
    }

    #[test]
    fn exact_kernels_are_equivalent_to_the_reference() {
        let m = MachineConfig::paper_default();
        for kernel in all_kernels() {
            let res = certify(&kernel.spec, &m, &ExactConfig::default(), None);
            let Certification::Certified(_) = res.outcome else {
                continue; // interval-only outcomes carry no witness
            };
            let sched = res.schedule.expect("certified search keeps its witness");
            let prog = modulo_to_vliw(&sched, kernel.name);
            prog.validate(&m)
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            for (seed, len) in EquivConfig::fixed(4, 21).trial_inputs() {
                let data = KernelData::random(seed, len);
                let init = kernel.initial_state(&data);
                let (_, run) = check_equivalence(&kernel.spec, &prog, &init, 10_000_000)
                    .unwrap_or_else(|e| panic!("{} len {len}: {e}\n{prog}", kernel.name));
                kernel.check(&run.state, &data).unwrap();
            }
        }
    }

    #[test]
    fn narrow_machine_exact_kernels_stay_equivalent() {
        let m = MachineConfig::narrow(2, 1, 1);
        for name in ["vecmin", "cond_sum", "sign_store"] {
            let (spec, prog) = exact_program(name, &m);
            prog.validate(&m).unwrap();
            let kernel = by_name(name).unwrap();
            for (seed, len) in EquivConfig::fixed(3, 31).trial_inputs() {
                let data = KernelData::random(seed, len);
                let init = kernel.initial_state(&data);
                let (_, run) = check_equivalence(&spec, &prog, &init, 10_000_000)
                    .unwrap_or_else(|e| panic!("{name} len {len}: {e}\n{prog}"));
                kernel.check(&run.state, &data).unwrap();
            }
        }
    }
}
