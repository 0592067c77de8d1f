//! Sequential baseline: one operation per cycle, structured control flow
//! preserved as a block CFG (the paper's §1.1 sequential machine).

use psp_ir::{op::build, Item, LoopSpec};
use psp_machine::{BlockId, Succ, VliwBlock, VliwLoop, VliwTerm};
use psp_predicate::{PredElem, PredicateMatrix};

/// Compile a loop for a strictly sequential machine.
///
/// Every operation, including IFs and BREAKs, occupies its own cycle. The
/// per-path II of the result equals the paper's sequential iteration
/// latencies (7 and 8 cycles for vecmin).
pub fn compile_sequential(spec: &LoopSpec) -> VliwLoop {
    let mut blocks: Vec<VliwBlock> = Vec::new();
    let entry = new_block(&mut blocks, PredicateMatrix::universe());
    let last = emit_items(
        &spec.items,
        entry,
        &PredicateMatrix::universe(),
        &mut blocks,
    );
    blocks[last].term = VliwTerm::Jump(Succ::back(entry));
    VliwLoop {
        name: format!("{}-seq", spec.name),
        prologue: vec![],
        blocks,
        entry,
        epilogue: vec![],
    }
}

fn new_block(blocks: &mut Vec<VliwBlock>, matrix: PredicateMatrix) -> BlockId {
    let id = blocks.len();
    blocks.push(VliwBlock {
        id,
        matrix,
        cycles: Vec::new(),
        term: VliwTerm::Exit, // replaced by the caller
    });
    id
}

fn emit_items(
    items: &[Item],
    mut cur: BlockId,
    ctrl: &PredicateMatrix,
    blocks: &mut Vec<VliwBlock>,
) -> BlockId {
    for item in items {
        match item {
            Item::Op(op) => blocks[cur].cycles.push(vec![*op]),
            Item::Break(b) => blocks[cur].cycles.push(vec![build::break_(b.cc)]),
            Item::If(i) => {
                blocks[cur].cycles.push(vec![build::if_(i.cc)]);
                let then_ctrl = ctrl.with(i.if_id, 0, PredElem::True);
                let else_ctrl = ctrl.with(i.if_id, 0, PredElem::False);
                let then_b = new_block(blocks, then_ctrl.clone());
                let else_b = new_block(blocks, else_ctrl.clone());
                blocks[cur].term = VliwTerm::Branch {
                    cc: i.cc,
                    on_true: Succ::fall(then_b),
                    on_false: Succ::fall(else_b),
                };
                let then_end = emit_items(&i.then_items, then_b, &then_ctrl, blocks);
                let else_end = emit_items(&i.else_items, else_b, &else_ctrl, blocks);
                let cont = new_block(blocks, ctrl.clone());
                blocks[then_end].term = VliwTerm::Jump(Succ::fall(cont));
                blocks[else_end].term = VliwTerm::Jump(Succ::fall(cont));
                cur = cont;
            }
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_machine::MachineConfig;

    #[test]
    fn vecmin_sequential_ii_is_7_and_8() {
        let k = psp_kernels::by_name("vecmin").unwrap();
        let prog = compile_sequential(&k.spec);
        prog.validate(&MachineConfig::sequential()).unwrap();
        let (min, max) = prog.ii_range().unwrap();
        assert_eq!((min, max), (7, 8), "paper §1.1: II = 7 and 8");
    }

    #[test]
    fn all_kernels_sequentially_equivalent() {
        for kernel in psp_kernels::all_kernels() {
            let prog = compile_sequential(&kernel.spec);
            prog.validate(&MachineConfig::sequential()).unwrap();
            for (seed, len) in psp_sim::EquivConfig::fixed(3, 100).trial_inputs() {
                let data = psp_kernels::KernelData::random(seed, len);
                let init = kernel.initial_state(&data);
                let (_, run) = psp_sim::check_equivalence(&kernel.spec, &prog, &init, 1_000_000)
                    .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
                kernel.check(&run.state, &data).unwrap();
            }
        }
    }

    #[test]
    fn sequential_cycles_match_reference_cycles() {
        // The sequential VLIW encoding spends exactly as many body cycles
        // as the reference interpreter spends operations.
        let kernel = psp_kernels::by_name("vecmin").unwrap();
        let prog = compile_sequential(&kernel.spec);
        let data = psp_kernels::KernelData::random(5, 50);
        let init = kernel.initial_state(&data);
        let (gold, run) =
            psp_sim::check_equivalence(&kernel.spec, &prog, &init, 1_000_000).unwrap();
        assert_eq!(gold.cycles, run.body_cycles);
        assert_eq!(gold.iterations, run.iterations);
    }

    #[test]
    fn branch_blocks_carry_path_matrices() {
        let kernel = psp_kernels::by_name("clamp_store").unwrap();
        let prog = compile_sequential(&kernel.spec);
        // Some block must carry the nested matrix [0 ; 1] (outer False,
        // inner True).
        let want = PredicateMatrix::from_entries([(0, 0, false), (1, 0, true)]);
        assert!(prog.blocks.iter().any(|b| b.matrix == want));
    }
}
