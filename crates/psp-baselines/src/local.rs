//! Local (single-iteration) scheduling with renaming — the paper's Fig. 1b
//! baseline.
//!
//! Pipeline: if-convert the body, rename induction updates, build the
//! dependence graph, list-schedule into tree-VLIW cycles, and wrap the
//! result in a single-block loop that jumps back to itself.

use crate::listsched::list_schedule;
use psp_ir::LoopSpec;
use psp_machine::{MachineConfig, Succ, VliwBlock, VliwLoop, VliwTerm};
use psp_opt::depgraph::build_deps;
use psp_opt::ifconv::if_convert;
use psp_opt::rename::rename_inductions;
use psp_predicate::PredicateMatrix;

/// Compile one iteration into a single tree-VLIW block (no motion across
/// the loop boundary).
pub fn compile_local(spec: &LoopSpec, m: &MachineConfig) -> VliwLoop {
    let mut ic = if_convert(spec);
    rename_inductions(&mut ic.ops, &mut ic.spec);
    let deps = build_deps(&ic.ops, &ic.spec.live_out, m);
    let cycles = list_schedule(&ic.ops, &deps, m);
    let block = VliwBlock {
        id: 0,
        matrix: PredicateMatrix::universe(),
        cycles,
        term: VliwTerm::Jump(Succ::back(0)),
    };
    VliwLoop {
        name: format!("{}-local", spec.name),
        prologue: vec![],
        blocks: vec![block],
        entry: 0,
        epilogue: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_kernels::{all_kernels, by_name, KernelData};
    use psp_sim::{check_equivalence, EquivConfig};

    #[test]
    fn vecmin_local_ii_is_3() {
        let kernel = by_name("vecmin").unwrap();
        let prog = compile_local(&kernel.spec, &MachineConfig::paper_default());
        prog.validate(&MachineConfig::paper_default()).unwrap();
        assert_eq!(prog.ii_range(), Some((3, 3)), "paper Fig. 1b");
    }

    #[test]
    fn all_kernels_locally_scheduled_equivalent() {
        let m = MachineConfig::paper_default();
        for kernel in all_kernels() {
            let prog = compile_local(&kernel.spec, &m);
            prog.validate(&m)
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            for (seed, len) in EquivConfig::fixed(4, 1).trial_inputs() {
                let data = KernelData::random(seed * 13 + 1, len);
                let init = kernel.initial_state(&data);
                let (_, run) = check_equivalence(&kernel.spec, &prog, &init, 1_000_000)
                    .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
                kernel.check(&run.state, &data).unwrap();
            }
        }
    }

    #[test]
    fn local_is_never_slower_than_sequential() {
        let m = MachineConfig::paper_default();
        for kernel in all_kernels() {
            let seqp = crate::seq::compile_sequential(&kernel.spec);
            let locp = compile_local(&kernel.spec, &m);
            let data = KernelData::random(99, 64);
            let init = kernel.initial_state(&data);
            let (_, seq_run) = check_equivalence(&kernel.spec, &seqp, &init, 1_000_000).unwrap();
            let (_, loc_run) = check_equivalence(&kernel.spec, &locp, &init, 1_000_000).unwrap();
            assert!(
                loc_run.body_cycles <= seq_run.body_cycles,
                "{}: local {} > seq {}",
                kernel.name,
                loc_run.body_cycles,
                seq_run.body_cycles
            );
        }
    }

    #[test]
    fn narrow_machine_still_correct() {
        let m = MachineConfig::narrow(1, 1, 1);
        for kernel in all_kernels() {
            let prog = compile_local(&kernel.spec, &m);
            prog.validate(&m).unwrap();
            let data = KernelData::random(5, 23);
            let init = kernel.initial_state(&data);
            let (_, run) = check_equivalence(&kernel.spec, &prog, &init, 1_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            kernel.check(&run.state, &data).unwrap();
        }
    }

    #[test]
    fn single_iteration_loops_work() {
        let m = MachineConfig::paper_default();
        for kernel in all_kernels() {
            let prog = compile_local(&kernel.spec, &m);
            let data = KernelData::random(77, 1);
            let init = kernel.initial_state(&data);
            check_equivalence(&kernel.spec, &prog, &init, 1_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        }
    }
}
