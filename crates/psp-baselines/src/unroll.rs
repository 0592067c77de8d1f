//! Unroll-and-schedule baseline.
//!
//! `U` if-converted copies of the body are concatenated into one
//! straight-line region and list-scheduled together. Scratch registers
//! (defined before use within an iteration) are renamed per copy so copies
//! can overlap; loop-carried registers keep their architectural names and
//! serialize naturally. Each copy's control matrices are shifted one column
//! so that predicates of different copies are distinct — complementary
//! branches prune dependences only *within* a copy.
//!
//! The BREAK protocol of [`psp_opt::depgraph`] keeps early exits correct
//! for trip counts not divisible by `U`.

use crate::listsched::list_schedule;
use psp_ir::{CcReg, LoopSpec, Operation, Reg, RegRef};
use psp_machine::{MachineConfig, Succ, VliwBlock, VliwLoop, VliwTerm};
use psp_opt::depgraph::build_deps;
use psp_opt::ifconv::if_convert;
use psp_predicate::PredicateMatrix;
use std::collections::BTreeMap;

/// Registers whose first occurrence in the op list is a pure definition
/// and which are neither live-in nor live-out (safe to rename per copy —
/// a live-out register written before ever being read, like a search
/// result, must keep its architectural name).
fn def_first_regs(ops: &[(Operation, PredicateMatrix)], spec: &LoopSpec) -> (Vec<Reg>, Vec<CcReg>) {
    let mut seen_use: Vec<RegRef> = Vec::new();
    let mut first_def: Vec<RegRef> = Vec::new();
    for (op, _) in ops {
        let defs = op.defs();
        for u in op.uses() {
            if !first_def.contains(&u) && !seen_use.contains(&u) {
                seen_use.push(u);
            }
        }
        for d in defs {
            // `r = r + 1` uses r first — uses() above already recorded it.
            if !seen_use.contains(&d) && !first_def.contains(&d) {
                first_def.push(d);
            }
        }
    }
    let mut gprs = Vec::new();
    let mut ccs = Vec::new();
    for r in first_def {
        if spec.live_in.contains(&r) || spec.live_out.contains(&r) {
            continue;
        }
        match r {
            RegRef::Gpr(g) => gprs.push(g),
            RegRef::Cc(c) => ccs.push(c),
        }
    }
    (gprs, ccs)
}

/// Unroll the loop `factor` times and schedule the result as one block.
pub fn compile_unrolled(spec: &LoopSpec, factor: u32, m: &MachineConfig) -> VliwLoop {
    assert!(factor >= 1, "unroll factor must be at least 1");
    let ic = if_convert(spec);
    let mut bank = ic.spec.clone();
    let (scratch_gprs, scratch_ccs) = def_first_regs(&ic.ops, &ic.spec);

    let mut all_ops: Vec<(Operation, PredicateMatrix)> = Vec::new();
    for u in 0..factor {
        let mut gmap: BTreeMap<Reg, Reg> = BTreeMap::new();
        let mut cmap: BTreeMap<CcReg, CcReg> = BTreeMap::new();
        if u > 0 {
            for &r in &scratch_gprs {
                gmap.insert(r, bank.fresh_reg());
            }
            for &c in &scratch_ccs {
                cmap.insert(c, bank.fresh_cc());
            }
        }
        for (op, ctrl) in &ic.ops {
            // Fresh names never collide with scratch names, so one lookup
            // per slot renames every scratch register at once.
            let o = op.map_regs(
                |r, _| gmap.get(&r).copied().unwrap_or(r),
                |c, _| cmap.get(&c).copied().unwrap_or(c),
            );
            // Copy u's predicates live in column u: distinct instances.
            all_ops.push((o, ctrl.shifted(u as i32)));
        }
    }

    let deps = build_deps(&all_ops, &bank.live_out, m);
    let cycles = list_schedule(&all_ops, &deps, m);
    let block = VliwBlock {
        id: 0,
        matrix: PredicateMatrix::universe(),
        cycles,
        term: VliwTerm::Jump(Succ::back(0)),
    };
    VliwLoop {
        name: format!("{}-unroll{}", spec.name, factor),
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
    fn unroll1_equals_local_shape() {
        let kernel = by_name("vecmin").unwrap();
        let m = MachineConfig::paper_default();
        let prog = compile_unrolled(&kernel.spec, 1, &m);
        prog.validate(&m).unwrap();
        // Without induction renaming the single-copy schedule may take one
        // extra cycle vs compile_local; it must still be well-formed and
        // correct.
        let data = KernelData::random(3, 20);
        let init = kernel.initial_state(&data);
        check_equivalence(&kernel.spec, &prog, &init, 1_000_000).unwrap();
    }

    #[test]
    fn all_kernels_unrolled_equivalent() {
        let m = MachineConfig::paper_default();
        for factor in [2u32, 4] {
            for kernel in all_kernels() {
                let prog = compile_unrolled(&kernel.spec, factor, &m);
                prog.validate(&m)
                    .unwrap_or_else(|e| panic!("{} x{factor}: {e}", kernel.name));
                for (seed, len) in EquivConfig::fixed(3, factor as u64 * 100).trial_inputs() {
                    let data = KernelData::random(seed, len);
                    let init = kernel.initial_state(&data);
                    let (_, run) = check_equivalence(&kernel.spec, &prog, &init, 1_000_000)
                        .unwrap_or_else(|e| panic!("{} x{factor} len{len}: {e}", kernel.name));
                    kernel.check(&run.state, &data).unwrap();
                }
            }
        }
    }

    #[test]
    fn unrolling_amortizes_cycles_per_iteration() {
        let m = MachineConfig::paper_default();
        let kernel = by_name("cond_sum").unwrap();
        let u1 = compile_unrolled(&kernel.spec, 1, &m);
        let u4 = compile_unrolled(&kernel.spec, 4, &m);
        let data = KernelData::random(9, 256);
        let init = kernel.initial_state(&data);
        let (_, r1) = check_equivalence(&kernel.spec, &u1, &init, 10_000_000).unwrap();
        let (_, r4) = check_equivalence(&kernel.spec, &u4, &init, 10_000_000).unwrap();
        assert!(
            r4.body_cycles < r1.body_cycles,
            "x4 {} !< x1 {}",
            r4.body_cycles,
            r1.body_cycles
        );
    }

    #[test]
    fn early_exit_live_out_survives_unrolling() {
        // Regression: `found` in find_first is live-out but written before
        // any read, so a naive def-first analysis renamed it per copy and
        // lost results from copies 1..U-1.
        let kernel = by_name("find_first").unwrap();
        let m = MachineConfig::paper_default();
        let prog = compile_unrolled(&kernel.spec, 4, &m);
        for pos in 0..8usize {
            let mut data = KernelData::random(1, 8);
            for v in data.x.iter_mut() {
                *v = 5;
            }
            data.x[pos] = 0;
            let data = data.with_threshold(0);
            let init = kernel.initial_state(&data);
            let (_, run) = check_equivalence(&kernel.spec, &prog, &init, 1_000_000)
                .unwrap_or_else(|e| panic!("pos {pos}: {e}"));
            kernel
                .check(&run.state, &data)
                .unwrap_or_else(|e| panic!("pos {pos}: {e}"));
        }
    }

    #[test]
    fn def_first_analysis_separates_scratch_from_carried() {
        let kernel = by_name("vecmin").unwrap();
        let ic = if_convert(&kernel.spec);
        let (gprs, ccs) = def_first_regs(&ic.ops, &ic.spec);
        // xk, xm are scratch; n, k, m are used first (live-in / carried).
        assert_eq!(gprs.len(), 2);
        assert_eq!(ccs.len(), 2); // cc0, cc1 defined before use
    }
}
