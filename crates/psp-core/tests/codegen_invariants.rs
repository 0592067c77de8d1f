//! Structural invariants of generated code, checked over every kernel ×
//! machine: properties the paper's code-generation algorithm guarantees by
//! construction.

mod reach_sets;

use psp_core::{pipeline_loop, PspConfig};
use psp_kernels::all_kernels;
use psp_machine::{MachineConfig, VliwTerm};
use psp_predicate::OutcomeMap;

fn machines() -> Vec<MachineConfig> {
    vec![
        MachineConfig::paper_default(),
        MachineConfig::narrow(2, 1, 1),
        MachineConfig::narrow(1, 1, 1),
    ]
}

#[test]
fn steady_entries_partition_the_incoming_paths() {
    for kernel in all_kernels() {
        for m in machines() {
            let res = pipeline_loop(&kernel.spec, &PspConfig::with_machine(m)).unwrap();
            let prog = &res.program;
            let entries: Vec<_> = prog
                .steady_entries()
                .iter()
                .map(|&b| &prog.blocks[b].matrix)
                .collect();
            // Every outcome of the predicates the entries constrain is
            // admitted by exactly one entry block: the entries are
            // pairwise disjoint and jointly cover all paths.
            let mut keys: Vec<(u32, i32)> = entries.iter().flat_map(|m| m.keys()).collect();
            keys.sort_unstable();
            keys.dedup();
            assert!(keys.len() <= 12, "{}: entry support too large", kernel.name);
            for bits in 0u32..1 << keys.len() {
                let mut o = OutcomeMap::new();
                for (j, &(r, c)) in keys.iter().enumerate() {
                    o.set(r, c, bits >> j & 1 == 1);
                }
                let admitting = entries.iter().filter(|m| m.admits(&o)).count();
                assert_eq!(admitting, 1, "{}: outcome {o:?}", kernel.name);
            }
        }
    }
}

#[test]
fn back_edges_respect_the_superset_linkage_rule() {
    for kernel in all_kernels() {
        let res = pipeline_loop(&kernel.spec, &PspConfig::default()).unwrap();
        let prog = &res.program;
        for b in &prog.blocks {
            for s in b.term.succs() {
                if s.back_edge {
                    // The paper's rule: successor matrix ⊇ left-shifted
                    // predecessor matrix (the predecessor's matrix already
                    // includes the branch outcome when it ends in an IF —
                    // conservatively check with the plain matrix, which is
                    // weaker but must still not be *disjoint*).
                    let shifted = b.matrix.shifted(-1);
                    assert!(
                        !prog.blocks[s.block].matrix.is_disjoint(&shifted),
                        "{}: back edge contradicts linkage rule",
                        kernel.name
                    );
                }
            }
        }
    }
}

#[test]
fn prologue_is_never_observable() {
    // The preloop executes speculatively: no stores, no BREAK side effects
    // on memory, no writes to live-out registers.
    for kernel in all_kernels() {
        for m in machines() {
            let res = pipeline_loop(&kernel.spec, &PspConfig::with_machine(m)).unwrap();
            for cycle in &res.program.prologue {
                for op in cycle {
                    assert!(!op.is_store(), "{}: store in the preloop", kernel.name);
                    assert!(!op.is_if() && !op.is_break());
                    for d in op.defs() {
                        assert!(
                            !kernel.spec.live_out.contains(&d),
                            "{}: preloop writes live-out {d}",
                            kernel.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn branch_blocks_end_with_the_tested_if_or_are_dispatch() {
    for kernel in all_kernels() {
        let res = pipeline_loop(&kernel.spec, &PspConfig::default()).unwrap();
        for b in &res.program.blocks {
            if let VliwTerm::Branch { cc, .. } = b.term {
                // Zero-cycle dispatch blocks have no cycles.
                if let Some(last) = b.cycles.last() {
                    assert!(
                        last.iter()
                            .any(|o| matches!(o.kind, psp_ir::OpKind::If { cc: c } if c == cc)),
                        "{}: block branches on {cc} without that IF",
                        kernel.name
                    );
                }
            }
        }
    }
}

#[test]
fn no_empty_jump_blocks_survive_cleanup() {
    for kernel in all_kernels() {
        let res = pipeline_loop(&kernel.spec, &PspConfig::default()).unwrap();
        for b in &res.program.blocks {
            if b.cycles.is_empty() {
                assert!(
                    matches!(b.term, VliwTerm::Branch { .. }),
                    "{}: empty non-dispatch block survived",
                    kernel.name
                );
            }
        }
    }
}

#[test]
fn every_block_is_reachable_and_cfg_is_closed() {
    for kernel in all_kernels() {
        let res = pipeline_loop(&kernel.spec, &PspConfig::default()).unwrap();
        let prog = &res.program;
        let mut reach = vec![false; prog.blocks.len()];
        let mut stack = vec![prog.entry];
        while let Some(x) = stack.pop() {
            if reach[x] {
                continue;
            }
            reach[x] = true;
            for s in prog.blocks[x].term.succs() {
                assert!(s.block < prog.blocks.len());
                stack.push(s.block);
            }
        }
        assert!(
            reach.iter().all(|&r| r),
            "{}: unreachable block after GC",
            kernel.name
        );
    }
}

#[test]
fn pipelined_ii_never_exceeds_schedule_rows() {
    for kernel in all_kernels() {
        for m in machines() {
            let res = pipeline_loop(&kernel.spec, &PspConfig::with_machine(m.clone())).unwrap();
            let (_, max_ii) = res.program.ii_range().unwrap();
            assert!(
                max_ii <= res.schedule.n_rows(),
                "{}: II {} > rows {}",
                kernel.name,
                max_ii,
                res.schedule.n_rows()
            );
            res.program.validate(&m).unwrap();
        }
    }
}

/// Every block's matrix is *exact*: it admits an outcome assignment if and
/// only if control reaches the block under it ([`reach_sets::assert_exact`]).
#[test]
fn block_matrices_are_exactly_their_reach_sets() {
    let mut loops: Vec<(psp_ir::LoopSpec, MachineConfig)> = Vec::new();
    for kernel in all_kernels() {
        for m in machines() {
            loops.push((kernel.spec.clone(), m));
        }
    }
    for b in 4..=6 {
        loops.push((psp_kernels::synthetic(b), MachineConfig::paper_default()));
    }
    for (spec, m) in loops {
        let res = pipeline_loop(&spec, &PspConfig::with_machine(m)).unwrap();
        reach_sets::assert_exact(&res.program);
    }
}
