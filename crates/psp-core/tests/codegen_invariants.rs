//! Structural invariants of generated code, checked over every kernel ×
//! machine: properties the paper's code-generation algorithm guarantees by
//! construction.

use psp_core::{pipeline_loop, PspConfig};
use psp_kernels::all_kernels;
use psp_machine::{MachineConfig, VliwLoop, VliwTerm};
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
/// only if control reaches the block under it. For each assignment σ of the
/// keys the steady blocks constrain, the blocks (forward-reachable from the
/// steady entries) whose matrix admits σ form one path: it starts at the
/// one steady entry that admits σ, each block is a forward successor of the
/// one before, and the last block ends the iteration on a back edge.
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
        let prog = &res.program;
        let what = &prog.name;
        let forward = |b: usize| {
            prog.blocks[b]
                .term
                .succs()
                .into_iter()
                .filter(|s| !s.back_edge)
                .map(|s| s.block)
        };
        // The steady blocks, and their heights over forward edges (a
        // forward successor is always lower, so sorting by height
        // descending is a topological order).
        let entries = prog.steady_entries();
        let mut steady = vec![false; prog.blocks.len()];
        let mut stack = entries.clone();
        while let Some(b) = stack.pop() {
            if !std::mem::replace(&mut steady[b], true) {
                stack.extend(forward(b));
            }
        }
        let mut height = vec![None::<usize>; prog.blocks.len()];
        fn measure(b: usize, prog: &VliwLoop, h: &mut [Option<usize>]) -> usize {
            if let Some(x) = h[b] {
                return x;
            }
            let x = prog.blocks[b]
                .term
                .succs()
                .into_iter()
                .filter(|s| !s.back_edge)
                .map(|s| measure(s.block, prog, h) + 1)
                .max()
                .unwrap_or(0);
            h[b] = Some(x);
            x
        }
        let mut order: Vec<usize> = (0..prog.blocks.len()).filter(|&b| steady[b]).collect();
        for &b in &order {
            measure(b, prog, &mut height);
        }
        order.sort_by_key(|&b| std::cmp::Reverse(height[b]));
        let mut keys: Vec<(u32, i32)> = order
            .iter()
            .flat_map(|&b| prog.blocks[b].matrix.keys())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert!(keys.len() <= 12, "{what}: {} keys", keys.len());
        for bits in 0u32..1 << keys.len() {
            let mut o = OutcomeMap::new();
            for (j, &(r, c)) in keys.iter().enumerate() {
                o.set(r, c, bits >> j & 1 == 1);
            }
            let path: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&b| prog.blocks[b].matrix.admits(&o))
                .collect();
            let admitting_entries: Vec<usize> = entries
                .iter()
                .copied()
                .filter(|&e| prog.blocks[e].matrix.admits(&o))
                .collect();
            assert_eq!(admitting_entries.len(), 1, "{what}: entries for {o:?}");
            assert_eq!(path.first(), admitting_entries.first(), "{what}: {o:?}");
            for w in path.windows(2) {
                assert!(
                    forward(w[0]).any(|s| s == w[1]),
                    "{what}: B{} admits {o:?} but is no successor of B{}",
                    w[1],
                    w[0]
                );
            }
            let last = *path.last().unwrap();
            assert!(
                prog.blocks[last].term.succs().iter().any(|s| s.back_edge),
                "{what}: the path of {o:?} ends at B{last} without a back edge"
            );
        }
    }
}
