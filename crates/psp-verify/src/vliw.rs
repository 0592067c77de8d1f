//! Independent validation of generated tree-VLIW loop code.
//!
//! Deliberately naive: every check below re-derives its facts from the
//! [`VliwLoop`] alone with first-principles code — per-cycle slot counting,
//! an explicit DFS for forward-acyclicity and reachability, a forward
//! dataflow for latencies — and shares nothing with the scheduler,
//! `VliwLoop::validate` or `psp_machine::InFlight` (which the code
//! generator itself calls and therefore cannot be trusted to catch the
//! generator's own bugs). The one matrix test, steady-entry disjointness,
//! runs on sparse reference copies inside `with_backend(false, ..)`, so
//! the bit-packed algebra stays out of the trusted base.

use crate::schedule::reference_copy;
use crate::violation::{CycleSite, Violation};
use psp_ir::{LoopSpec, OpKind, Operation, RegRef, ResClass};
use psp_machine::{MachineConfig, VliwLoop, VliwTerm};
use psp_predicate::backend::with_backend;
use psp_predicate::PredicateMatrix;
use std::collections::BTreeMap;

/// Validate a compiled loop against the machine and its source spec.
///
/// Checks, in order: structural well-formedness of the block graph,
/// per-cycle resource budgets (prologue, every block, epilogue), branch
/// terminators backed by a same-cycle IF, the steady-state entry
/// contract (pairwise-disjoint entry matrices), and latencies: no
/// operation of the prologue or the body reads or writes a register while
/// a write to it is in flight, on any path of the control-flow graph, back
/// edges included ([`Violation::Latency`]).
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
    latencies(machine, prog, &mut out);
    out
}

/// Writes in flight at a program point: per register, the most cycles
/// until its write lands over the paths that reach the point.
type Flight = BTreeMap<RegRef, u32>;

/// The registers `op` reads or writes, each once.
fn touched(op: &Operation) -> Vec<RegRef> {
    let mut regs: Vec<RegRef> = op.defs().iter().chain(op.uses().iter()).copied().collect();
    regs.sort_unstable();
    regs.dedup();
    regs
}

/// One cycle passes on a path with `flight` in flight: each write comes a
/// cycle nearer, and the cycle's writes slower than one cycle (latency
/// `L` lands `L` cycles after issue) go in flight. Guarded operations count
/// as writing.
fn advance(flight: &mut Flight, cycle: &[Operation], machine: &MachineConfig) {
    flight.retain(|_, n| {
        *n -= 1;
        *n > 0
    });
    for op in cycle {
        let latency = machine.latency(op);
        if latency > 1 {
            for d in op.defs().iter() {
                let n = flight.entry(*d).or_insert(0);
                *n = (*n).max(latency - 1);
            }
        }
    }
}

/// Raise `into` to the most of it and `from`; whether it changed.
fn join(into: &mut Option<Flight>, from: &Flight) -> bool {
    let Some(into) = into else {
        *into = Some(from.clone());
        return true;
    };
    let mut changed = false;
    for (&r, &n) in from {
        let m = into.entry(r).or_insert(0);
        if n > *m {
            *m = n;
            changed = true;
        }
    }
    changed
}

/// Report every operation in `cycle` that reads or writes a register in
/// `flight`.
fn check_flight(
    flight: &Flight,
    cycle: &[Operation],
    site: impl Fn() -> CycleSite,
    out: &mut Vec<Violation>,
) {
    if flight.is_empty() {
        return;
    }
    for op in cycle {
        for r in touched(op) {
            if let Some(&early_by) = flight.get(&r) {
                out.push(Violation::Latency {
                    site: site(),
                    reg: r,
                    early_by,
                    detail: op.to_string(),
                });
            }
        }
    }
}

/// The latency pass: a forward max-dataflow of the writes in flight over
/// the prologue, then the body's control-flow graph from the entry block,
/// back edges included, to a fixpoint (each count only grows and is below
/// the largest latency). An operation that reads or writes a register with
/// a write in flight at its cycle, on some path, is a violation. Nothing is
/// checked after an exit.
fn latencies(machine: &MachineConfig, prog: &VliwLoop, out: &mut Vec<Violation>) {
    let body = prog.blocks.iter().flat_map(|b| b.cycles.iter());
    if !prog
        .prologue
        .iter()
        .chain(body)
        .flatten()
        .any(|op| machine.latency(op) > 1)
    {
        return; // nothing is ever in flight
    }
    let mut flight = Flight::new();
    for (i, cycle) in prog.prologue.iter().enumerate() {
        check_flight(&flight, cycle, || CycleSite::Prologue(i), out);
        advance(&mut flight, cycle, machine);
    }
    let mut at_entry: Vec<Option<Flight>> = vec![None; prog.blocks.len()];
    at_entry[prog.entry] = Some(flight);
    let mut work = vec![prog.entry];
    while let Some(b) = work.pop() {
        let Some(mut flight) = at_entry[b].clone() else {
            continue;
        };
        for cycle in &prog.blocks[b].cycles {
            advance(&mut flight, cycle, machine);
        }
        for s in prog.blocks[b].term.succs() {
            if join(&mut at_entry[s.block], &flight) {
                work.push(s.block);
            }
        }
    }
    for (b, entry) in at_entry.into_iter().enumerate() {
        let Some(mut flight) = entry else { continue };
        for (i, cycle) in prog.blocks[b].cycles.iter().enumerate() {
            check_flight(&flight, cycle, || CycleSite::Block(b, i), out);
            advance(&mut flight, cycle, machine);
        }
    }
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
    use psp_ir::op::build::{add, copy, load};
    use psp_ir::{ArrayId, Reg};
    use psp_machine::{Succ, VliwBlock};

    /// One block of `cycles` that jumps back to itself, after `prologue`.
    fn self_loop(prologue: Vec<Vec<Operation>>, cycles: Vec<Vec<Operation>>) -> VliwLoop {
        VliwLoop {
            name: "latency".into(),
            prologue,
            blocks: vec![VliwBlock {
                id: 0,
                matrix: PredicateMatrix::universe(),
                cycles,
                term: VliwTerm::Jump(Succ::back(0)),
            }],
            entry: 0,
            epilogue: vec![],
        }
    }

    /// The latency violations of `prog` on the paper machine with
    /// two-cycle loads: `(site, register, cycles early)`.
    fn early(prog: &VliwLoop) -> Vec<(CycleSite, RegRef, u32)> {
        let machine = MachineConfig {
            load_latency: 2,
            ..MachineConfig::paper_default()
        };
        let spec = psp_kernels::by_name("vecmin").unwrap().spec;
        validate_vliw(&spec, &machine, prog)
            .into_iter()
            .map(|v| match v {
                Violation::Latency {
                    site,
                    reg,
                    early_by,
                    ..
                } => (site, reg, early_by),
                other => panic!("not a latency violation: {other}"),
            })
            .collect()
    }

    fn ld(dst: u32) -> Operation {
        load(Reg(dst), ArrayId(0), Reg(0))
    }

    const R1: RegRef = RegRef::Gpr(Reg(1));

    #[test]
    fn a_read_inside_a_block_waits_for_its_load() {
        let read = || vec![add(Reg(2), Reg(1), 1i64)];
        let prog = self_loop(vec![], vec![vec![ld(1)], read(), vec![]]);
        assert_eq!(early(&prog), vec![(CycleSite::Block(0, 1), R1, 1)]);
        let prog = self_loop(vec![], vec![vec![ld(1)], vec![], read()]);
        assert_eq!(early(&prog), vec![]);
    }

    #[test]
    fn a_read_across_the_back_edge_waits_for_its_load() {
        let prog = self_loop(vec![], vec![vec![add(Reg(2), Reg(1), 1i64)], vec![ld(1)]]);
        assert_eq!(early(&prog), vec![(CycleSite::Block(0, 0), R1, 1)]);
        let prog = self_loop(
            vec![],
            vec![vec![add(Reg(2), Reg(1), 1i64)], vec![ld(1)], vec![]],
        );
        assert_eq!(early(&prog), vec![]);
    }

    #[test]
    fn a_read_from_the_prologue_into_the_entry_waits_for_its_load() {
        let body = || vec![vec![add(Reg(2), Reg(1), 1i64)]];
        let prog = self_loop(vec![vec![ld(1)]], body());
        assert_eq!(early(&prog), vec![(CycleSite::Block(0, 0), R1, 1)]);
        let prog = self_loop(vec![vec![ld(1)], vec![]], body());
        assert_eq!(early(&prog), vec![]);
        // Within the prologue too.
        let prog = self_loop(vec![vec![ld(1)], vec![copy(Reg(2), Reg(1))]], body());
        assert_eq!(early(&prog), vec![(CycleSite::Prologue(1), R1, 1)]);
    }

    #[test]
    fn a_write_over_an_in_flight_write_waits_for_it() {
        let prog = self_loop(vec![], vec![vec![ld(1)], vec![copy(Reg(1), 0i64)]]);
        assert_eq!(early(&prog), vec![(CycleSite::Block(0, 1), R1, 1)]);
        let prog = self_loop(vec![], vec![vec![ld(1)], vec![], vec![copy(Reg(1), 0i64)]]);
        assert_eq!(early(&prog), vec![]);
    }

    #[test]
    fn unit_latencies_are_never_in_flight() {
        let prog = self_loop(
            vec![vec![ld(1)]],
            vec![vec![ld(1)], vec![copy(Reg(1), 0i64)]],
        );
        let spec = psp_kernels::by_name("vecmin").unwrap().spec;
        assert_eq!(
            validate_vliw(&spec, &MachineConfig::paper_default(), &prog),
            vec![]
        );
    }

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
