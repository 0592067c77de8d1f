//! Independent validation of generated tree-VLIW loop code.
//!
//! Deliberately naive: every check below re-derives its facts from the
//! [`VliwLoop`] alone with first-principles code — per-cycle slot counting,
//! an explicit DFS for forward-acyclicity and reachability — and shares
//! nothing with the scheduler or `VliwLoop::validate` (which the code
//! generator itself calls and therefore cannot be trusted to catch the
//! generator's own bugs). The one matrix test, steady-entry disjointness,
//! runs on sparse reference copies inside `with_backend(false, ..)`, so
//! the bit-packed algebra stays out of the trusted base.

use crate::schedule::reference_copy;
use crate::violation::{CycleSite, Violation};
use psp_ir::{LoopSpec, OpKind, Operation, ResClass};
use psp_machine::{MachineConfig, VliwLoop, VliwTerm};
use psp_predicate::backend::with_backend;
use psp_predicate::PredicateMatrix;

/// Validate a compiled loop against the machine and its source spec.
///
/// Checks, in order: structural well-formedness of the block graph,
/// per-cycle resource budgets (prologue, every block, epilogue), branch
/// terminators backed by a same-cycle IF, and the steady-state entry
/// contract (pairwise-disjoint entry matrices).
pub fn validate_vliw(_spec: &LoopSpec, machine: &MachineConfig, prog: &VliwLoop) -> Vec<Violation> {
    let mut out = Vec::new();
    structure(prog, &mut out);
    // Structural damage makes the remaining passes index out of bounds;
    // report it alone.
    if !out.is_empty() {
        return out;
    }
    resources(machine, prog, &mut out);
    branches(prog, &mut out);
    entry_contract(prog, &mut out);
    out
}

/// Count the operations of `class` in one cycle.
fn class_count(cycle: &[Operation], class: ResClass) -> usize {
    cycle.iter().filter(|op| op.res_class() == class).count()
}

fn class_name(class: ResClass) -> &'static str {
    match class {
        ResClass::Alu => "ALU",
        ResClass::Mem => "MEM",
        ResClass::Branch => "BRANCH",
    }
}

fn check_cycle(
    machine: &MachineConfig,
    cycle: &[Operation],
    site: impl Fn() -> CycleSite,
    out: &mut Vec<Violation>,
) {
    for class in [ResClass::Alu, ResClass::Mem, ResClass::Branch] {
        let used = class_count(cycle, class);
        let limit = machine.limit(class);
        if used > limit as usize {
            out.push(Violation::Resource {
                site: site(),
                class: class_name(class),
                used,
                limit,
            });
        }
    }
}

fn resources(machine: &MachineConfig, prog: &VliwLoop, out: &mut Vec<Violation>) {
    for (i, cycle) in prog.prologue.iter().enumerate() {
        check_cycle(machine, cycle, || CycleSite::Prologue(i), out);
    }
    for block in &prog.blocks {
        for (i, cycle) in block.cycles.iter().enumerate() {
            check_cycle(machine, cycle, || CycleSite::Block(block.id, i), out);
        }
    }
    for (i, cycle) in prog.epilogue.iter().enumerate() {
        check_cycle(machine, cycle, || CycleSite::Epilogue(i), out);
    }
}

fn structure(prog: &VliwLoop, out: &mut Vec<Violation>) {
    let n = prog.blocks.len();
    if n == 0 {
        out.push(Violation::Structure {
            detail: "loop has no blocks".into(),
        });
        return;
    }
    if prog.entry >= n {
        out.push(Violation::Structure {
            detail: format!("entry block {} out of range (0..{n})", prog.entry),
        });
        return;
    }
    for (i, b) in prog.blocks.iter().enumerate() {
        if b.id != i {
            out.push(Violation::Structure {
                detail: format!("block at position {i} carries id {}", b.id),
            });
        }
        for s in b.term.succs() {
            if s.block >= n {
                out.push(Violation::Structure {
                    detail: format!("block B{i} jumps to missing block {}", s.block),
                });
            }
        }
    }
    if !out.is_empty() {
        return;
    }

    // Forward edges (back edges removed) must form a DAG; every block must
    // be reachable from the entry; some back edge must exist so the loop
    // actually loops.
    let mut state = vec![0u8; n]; // 0 = unseen, 1 = on stack, 2 = done
    fn dfs(b: usize, prog: &VliwLoop, state: &mut [u8], out: &mut Vec<Violation>) {
        state[b] = 1;
        for s in prog.blocks[b].term.succs() {
            if s.back_edge {
                continue;
            }
            match state[s.block] {
                0 => dfs(s.block, prog, state, out),
                1 => out.push(Violation::Structure {
                    detail: format!("forward cycle through B{} -> B{}", b, s.block),
                }),
                _ => {}
            }
        }
        state[b] = 2;
    }
    dfs(prog.entry, prog, &mut state, out);

    let mut reach = vec![false; n];
    let mut stack = vec![prog.entry];
    while let Some(b) = stack.pop() {
        if reach[b] {
            continue;
        }
        reach[b] = true;
        for s in prog.blocks[b].term.succs() {
            stack.push(s.block);
        }
    }
    for (i, r) in reach.iter().enumerate() {
        if !r {
            out.push(Violation::Structure {
                detail: format!("block B{i} unreachable from the entry"),
            });
        }
    }
    let has_back = prog
        .blocks
        .iter()
        .flat_map(|b| b.term.succs())
        .any(|s| s.back_edge);
    if !has_back {
        out.push(Violation::Structure {
            detail: "no back edge: the loop never loops".into(),
        });
    }
}

fn branches(prog: &VliwLoop, out: &mut Vec<Violation>) {
    for b in &prog.blocks {
        if let VliwTerm::Branch { cc, .. } = b.term {
            // A branch dispatches on a condition an IF in the final cycle
            // computes; empty blocks are zero-cycle dispatch nodes reusing
            // a condition register an earlier block's IF wrote.
            if let Some(last) = b.cycles.last() {
                let has_if = last
                    .iter()
                    .any(|op| matches!(op.kind, OpKind::If { cc: c } if c == cc));
                if !has_if {
                    out.push(Violation::Structure {
                        detail: format!(
                            "block B{} branches on {cc:?} without an IF in its final cycle",
                            b.id
                        ),
                    });
                }
            }
        }
    }
}

fn entry_contract(prog: &VliwLoop, out: &mut Vec<Violation>) {
    // Back edges land on steady-state entry blocks; their path matrices
    // must be pairwise disjoint, otherwise two entries claim the same
    // incoming-predicate outcome and the dispatch is ambiguous. The test
    // runs on sparse copies, as in `validate_schedule`.
    let entries = prog.steady_entries();
    with_backend(false, || {
        let mats: Vec<PredicateMatrix> = entries
            .iter()
            .map(|&e| reference_copy(&prog.blocks[e].matrix, 0))
            .collect();
        for (i, (&a, ma)) in entries.iter().zip(&mats).enumerate() {
            for (&b, mb) in entries.iter().zip(&mats).skip(i + 1) {
                if !ma.is_disjoint(mb) {
                    out.push(Violation::Contract {
                        detail: format!("steady entries B{a} [{ma}] and B{b} [{mb}] overlap"),
                    });
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_core::{pipeline_loop, PspConfig};

    #[test]
    fn entry_verdicts_match_on_packed_and_sparse_threads() {
        // Every kernel program with two or more steady entries, as
        // generated and with its first entry widened to the universe, so
        // that it overlaps the others.
        let wide = MachineConfig::paper_default();
        let mut programs = Vec::new();
        for k in psp_kernels::all_kernels() {
            let prog = pipeline_loop(&k.spec, &PspConfig::with_machine(wide.clone()))
                .unwrap()
                .program;
            let entries = prog.steady_entries();
            if entries.len() < 2 {
                continue;
            }
            assert!(prog.blocks[entries[0]].matrix.is_word_packed());
            let mut widened = prog.clone();
            widened.blocks[entries[0]].matrix = PredicateMatrix::universe();
            programs.push((k.spec.clone(), prog, false));
            programs.push((k.spec, widened, true));
        }
        assert!(programs.len() >= 2, "a kernel with two steady entries");
        for (spec, prog, overlaps) in &programs {
            let verdict = |packed| with_backend(packed, || validate_vliw(spec, &wide, prog));
            let (packed, sparse) = (verdict(true), verdict(false));
            assert_eq!(packed, sparse, "{}", spec.name);
            assert_eq!(
                packed
                    .iter()
                    .any(|v| matches!(v, Violation::Contract { .. })),
                *overlaps,
                "{}: {packed:?}",
                spec.name
            );
        }
    }
}
