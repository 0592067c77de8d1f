//! Preloop (startup) generation by reaching-definition analysis.
//!
//! The steady-state body assumes, at entry of every transformed iteration,
//! that registers carry the values a *previous* transformed iteration
//! committed. At loop entry no previous iteration exists, so the preloop
//! must establish the same contract from the architectural initial state.
//!
//! The contract is computed from the schedule and its source loop:
//!
//! 1. **Entry-live registers** — those the body reads (pre-cycle, in row
//!    order) before an earlier row writes them on every path the read runs
//!    on (a writer whose formal subsumes the reader's), and the live-out
//!    registers, which every loop exit reads at the end of its cycle on the
//!    paths it exits on;
//! 2. for each, its **writers** in the body: an instance with operation
//!    index `i` supplies, across the back edge, the value of its *original
//!    source operation* for original iteration `i - 1` (index-0 writers
//!    supply the architectural initial value — the fictitious iteration
//!    `-1` never ran);
//! 3. the preloop **emulates** the original flattened program for the
//!    required startup iterations into fresh temporaries — loads read the
//!    pristine memory, conditional operations carry guards, stores and
//!    exits are skipped — and materializes each required `(source
//!    operation, iteration)` value into the contract register, in original
//!    program order so later writers override earlier ones exactly like
//!    the fictitious iteration would have.
//!
//! Shapes the emulation cannot reproduce are *refused* (a
//! [`CodegenError::PreloopUnsupported`]), which makes the scheduling driver
//! discard the candidate transformation rather than miscompile: loads that
//! would observe skipped stores, operations under multiple nested
//! predicates, guarded compares (no conditional-move for condition
//! registers), and non-architectural contract registers with no
//! unconditional writer.

use crate::codegen::CodegenError;
use crate::schedule::Schedule;

/// Preloop cycles plus the dispatch map (see [`build_preloop`]).
pub type PreloopResult = (Vec<Vec<Operation>>, BTreeMap<(u32, i32), psp_ir::CcReg>);
use psp_ir::{flatten, op::build, FlatOp, Guard, OpKind, Operand, Operation, Reg, RegRef, Role};
use psp_predicate::PredicateMatrix;
use std::collections::{BTreeMap, BTreeSet};

/// Value location of an original register during emulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// Still the architectural register itself (never written).
    Arch,
    /// Current holder.
    At(RegRef),
    /// Unknown (skipped producer); any emitted reader must refuse.
    Poisoned,
}

/// Build the preloop cycles for a schedule, plus the *dispatch map*: for
/// every incoming predicate `(row, col)` the steady state branches on at
/// entry, the (possibly temporary) condition register that holds its
/// startup value — the architectural register may have been retargeted to
/// a deeper level by the instance contract.
pub fn build_preloop(
    sched: &Schedule,
    incoming: &[(u32, i32)],
) -> Result<PreloopResult, CodegenError> {
    let body: Vec<&crate::instance::Instance> = sched.instances().collect();

    // --- entry-live registers (pre-cycle read semantics per row) --------
    // A write kills a later read on the paths its formal admits: a read is
    // covered when an earlier row writes the register under a formal that
    // subsumes the reader's (an unconditional write covers every read). A
    // writer on fewer paths leaves the entry value observable on the rest.
    type Writers<'a> = BTreeMap<RegRef, Vec<&'a PredicateMatrix>>;
    let mut written: Writers = BTreeMap::new();
    let mut entry_live: BTreeSet<RegRef> = BTreeSet::new();
    let mut read = |written: &Writers, r: RegRef, on: &PredicateMatrix| {
        if !written
            .get(&r)
            .is_some_and(|ws| ws.iter().any(|w| w.subsumes(on)))
        {
            entry_live.insert(r);
        }
    };
    for row in &sched.rows {
        for inst in row {
            for u in inst.op().uses() {
                read(&written, u, &inst.formal);
            }
        }
        for inst in row {
            for d in inst.op().defs() {
                written.entry(d).or_default().push(&inst.formal);
            }
        }
        // A loop exit reads every live-out register at the end of its
        // cycle, on the paths it exits on. A write the body wraps past the
        // exit leaves the first pass's exit observing the startup value.
        for exit in row.iter().filter(|inst| inst.op().is_break()) {
            for &r in &sched.source.live_out {
                read(&written, r, &exit.formal);
            }
        }
    }

    let is_arch = |r: RegRef| match r {
        RegRef::Gpr(g) => g.0 < sched.source.n_regs,
        RegRef::Cc(c) => c.0 < sched.source.n_ccs,
    };

    // --- required (origin, level) → contract targets ---------------------
    // level = writer.index - 1; level -1 contributes the architectural
    // initial value (no emission).
    let mut needed: BTreeMap<(i32, usize), Vec<RegRef>> = BTreeMap::new();
    for &r in &entry_live {
        let writers: Vec<_> = body.iter().filter(|i| i.op().defs().contains(&r)).collect();
        if writers.is_empty() {
            continue; // pure live-in: architectural initial value
        }
        let mut has_emitted_writer = false;
        let mut has_unconditional = false;
        for w in &writers {
            let level = w.index - 1;
            if level < 0 {
                // Fictitious iteration -1 never ran: base value = initial.
                continue;
            }
            has_emitted_writer = true;
            if w.formal.is_universe() {
                has_unconditional = true;
            }
            let targets = needed.entry((level, w.origin)).or_default();
            if !targets.contains(&r) {
                targets.push(r);
            }
        }
        if !is_arch(r) {
            if !has_emitted_writer {
                return Err(CodegenError::PreloopUnsupported(
                    "temporary register is entry-live with only index-0 writers",
                ));
            }
            if !has_unconditional {
                return Err(CodegenError::PreloopUnsupported(
                    "temporary contract register has no unconditional writer",
                ));
            }
        }
        // Live-out contract registers would make the startup observable on
        // very short trips where a BREAK skips the body's writer.
        if sched.source.live_out.contains(&r) && has_emitted_writer {
            return Err(CodegenError::PreloopUnsupported(
                "live-out register would be written by the preloop",
            ));
        }
    }

    // The entry dispatch needs predicate (r, c)'s value for the *first*
    // body iteration, i.e. original iteration c → emulation level c.
    let dispatch_levels = incoming.iter().map(|&(_, c)| c + 1).max().unwrap_or(0);
    let levels = needed
        .keys()
        .map(|&(l, _)| l + 1)
        .max()
        .unwrap_or(0)
        .max(dispatch_levels);
    let mut dispatch_map: BTreeMap<(u32, i32), psp_ir::CcReg> = BTreeMap::new();
    if levels == 0 {
        return Ok((Vec::new(), dispatch_map));
    }

    // --- emulation --------------------------------------------------------
    let flat: Vec<FlatOp> = flatten(&sched.source);
    // Arrays that the loop stores into: loads from them can observe skipped
    // stores and must be refused past the first store in fictitious order.
    let stored_arrays: BTreeSet<_> = flat
        .iter()
        .filter_map(|f| match f.op.kind {
            OpKind::Store { addr, .. } => Some(addr.array),
            _ => None,
        })
        .collect();

    let mut env: BTreeMap<RegRef, Loc> = BTreeMap::new();
    let mut next_reg = sched.n_regs();
    let mut next_cc = sched.source.n_ccs;
    let mut out: Vec<Operation> = Vec::new();

    let loc_of = |env: &BTreeMap<RegRef, Loc>, r: RegRef| *env.get(&r).unwrap_or(&Loc::Arch);

    for level in 0..levels {
        // Guard base per IF row at this level (the compare's current cc).
        let mut guard_cc: BTreeMap<u32, psp_ir::CcReg> = BTreeMap::new();
        let mut store_seen: BTreeSet<psp_ir::ArrayId> = BTreeSet::new();
        for f in &flat {
            let orig_dst = f.op.defs().first().copied();
            let needed_targets = needed.get(&(level, f.pos)).cloned().unwrap_or_default();

            // Resolve this op's guard from its control matrix.
            let ctrl: Vec<(u32, i32, bool)> = f.ctrl.constrained().collect();
            let guard: Option<Guard> = match ctrl.len() {
                0 => None,
                1 => {
                    let (row, _c, v) = ctrl[0];
                    match guard_cc.get(&row) {
                        Some(&cc) => Some(Guard { cc, on_true: v }),
                        None => {
                            // Controlling compare was poisoned.
                            poison(&mut env, orig_dst);
                            refuse_if_needed(&needed_targets, "guard unavailable")?;
                            continue;
                        }
                    }
                }
                _ => {
                    poison(&mut env, orig_dst);
                    refuse_if_needed(&needed_targets, "nested predicates")?;
                    continue;
                }
            };

            match f.op.kind {
                OpKind::If { cc } => {
                    // Record the guard base for this predicate row, and the
                    // dispatch location of this level's predicate value.
                    let row = f.computes_if.ok_or(CodegenError::Internal(
                        "IF instance computes no predicate row",
                    ))?;
                    match loc_of(&env, RegRef::Cc(cc)) {
                        Loc::At(RegRef::Cc(t)) => {
                            guard_cc.insert(row, t);
                            dispatch_map.insert((row, level), t);
                        }
                        Loc::Arch => {
                            guard_cc.insert(row, cc);
                            dispatch_map.insert((row, level), cc);
                        }
                        _ => {}
                    }
                    continue;
                }
                OpKind::Break { .. } => continue,
                OpKind::Store { addr, .. } => {
                    store_seen.insert(addr.array);
                    continue;
                }
                OpKind::Load { addr, .. } => {
                    let unsafe_load = (level > 0 && stored_arrays.contains(&addr.array))
                        || store_seen.contains(&addr.array);
                    if unsafe_load {
                        poison(&mut env, orig_dst);
                        refuse_if_needed(&needed_targets, "load would observe a skipped store")?;
                        continue;
                    }
                }
                OpKind::Cmp { .. } if guard.is_some() => {
                    // No conditional move for condition registers.
                    poison(&mut env, orig_dst);
                    refuse_if_needed(&needed_targets, "guarded compare")?;
                    continue;
                }
                _ => {}
            }

            // Remap the operation's uses through the environment. The guard
            // was re-derived from the control matrix above.
            let remapped = Operation {
                guard: None,
                ..f.op
            }
            .try_map_regs(
                |g, role| match (role, loc_of(&env, RegRef::Gpr(g))) {
                    (Role::Def, _) | (Role::Use, Loc::Arch) => Ok(g),
                    (Role::Use, Loc::At(RegRef::Gpr(t))) => Ok(t),
                    _ => Err(()),
                },
                |c, role| match (role, loc_of(&env, RegRef::Cc(c))) {
                    (Role::Def, _) | (Role::Use, Loc::Arch) => Ok(c),
                    (Role::Use, Loc::At(RegRef::Cc(t))) => Ok(t),
                    _ => Err(()),
                },
            );
            let Ok(mut op) = remapped else {
                poison(&mut env, orig_dst);
                refuse_if_needed(&needed_targets, "operand depends on an unavailable value")?;
                continue;
            };

            // Choose the destination: a contract register when required at
            // this (level, origin), otherwise a fresh temporary.
            let Some(orig_dst) = orig_dst else { continue };
            let (primary, extra): (RegRef, Vec<RegRef>) = match needed_targets.split_first() {
                Some((&first, rest)) => (first, rest.to_vec()),
                None => {
                    let t = match orig_dst {
                        RegRef::Gpr(_) => {
                            let t = RegRef::Gpr(Reg(next_reg));
                            next_reg += 1;
                            t
                        }
                        RegRef::Cc(_) => {
                            let t = RegRef::Cc(psp_ir::CcReg(next_cc));
                            next_cc += 1;
                            t
                        }
                    };
                    (t, Vec::new())
                }
            };

            // Conditional definitions preserve the prior value when the
            // guard fails: seed the destination with it first.
            if let Some(g) = guard {
                match (primary, loc_of(&env, orig_dst)) {
                    (RegRef::Gpr(p), prior) => {
                        let prior_operand = match (prior, orig_dst) {
                            (Loc::Arch, RegRef::Gpr(o)) => Operand::Reg(o),
                            (Loc::At(RegRef::Gpr(t)), _) => Operand::Reg(t),
                            _ => {
                                // Covers poisoned priors and — should the
                                // destination class ever disagree with the
                                // contract register class (a transform bug)
                                // — refuses rather than panics.
                                poison(&mut env, Some(orig_dst));
                                refuse_if_needed(&needed_targets, "prior value unavailable")?;
                                continue;
                            }
                        };
                        if prior_operand != Operand::Reg(p) {
                            out.push(build::copy(p, prior_operand));
                        }
                    }
                    _ => {
                        poison(&mut env, Some(orig_dst));
                        refuse_if_needed(&needed_targets, "guarded compare")?;
                        continue;
                    }
                }
                op.guard = Some(g);
            }

            // Retarget the destination; a class mismatch between it and the
            // contract register (a transform bug) refuses.
            let retargeted = op.try_map_regs(
                |g, role| match (role, primary) {
                    (Role::Use, _) => Ok(g),
                    (Role::Def, RegRef::Gpr(p)) => Ok(p),
                    (Role::Def, RegRef::Cc(_)) => Err(()),
                },
                |c, role| match (role, primary) {
                    (Role::Use, _) => Ok(c),
                    (Role::Def, RegRef::Cc(p)) => Ok(p),
                    (Role::Def, RegRef::Gpr(_)) => Err(()),
                },
            );
            let Ok(op) = retargeted else {
                refuse_if_needed(&needed_targets, "destination kind mismatch")?;
                continue;
            };
            out.push(op);
            // Extra contract targets receive copies of the same value.
            for e in extra {
                match (e, primary) {
                    (RegRef::Gpr(t), RegRef::Gpr(p)) => out.push(build::copy(t, p)),
                    _ => {
                        return Err(CodegenError::PreloopUnsupported(
                            "condition register needed in two places",
                        ))
                    }
                }
            }
            env.insert(orig_dst, Loc::At(primary));
        }
    }

    // Every incoming predicate must have resolved to a live register.
    for key in incoming {
        if !dispatch_map.contains_key(key) {
            return Err(CodegenError::PreloopUnsupported(
                "incoming predicate has no startup value",
            ));
        }
    }

    // Dead-code elimination: the emulation computed every chain value; keep
    // only the backward slice of the contract targets and dispatch
    // registers (standard reverse liveness over the straight-line list;
    // guarded definitions do not kill).
    let mut live: BTreeSet<RegRef> = needed.values().flatten().copied().collect();
    for (&(r, c), &cc) in &dispatch_map {
        if incoming.contains(&(r, c)) {
            live.insert(RegRef::Cc(cc));
        }
    }
    let mut keep = vec![false; out.len()];
    for (i, op) in out.iter().enumerate().rev() {
        let defines_live = op.defs().iter().any(|d| live.contains(d));
        if !defines_live {
            continue;
        }
        keep[i] = true;
        if op.guard.is_none() {
            for d in op.defs() {
                live.remove(&d);
            }
        }
        for u in op.uses() {
            live.insert(u);
        }
    }
    let out: Vec<Operation> = out
        .into_iter()
        .zip(keep)
        .filter_map(|(op, k)| k.then_some(op))
        .collect();

    // One operation per startup cycle: trivially correct issue order; the
    // cost is a one-time constant.
    Ok((out.into_iter().map(|op| vec![op]).collect(), dispatch_map))
}

fn poison(env: &mut BTreeMap<RegRef, Loc>, dst: Option<RegRef>) {
    if let Some(d) = dst {
        env.insert(d, Loc::Poisoned);
    }
}

fn refuse_if_needed(targets: &[RegRef], why: &'static str) -> Result<(), CodegenError> {
    if targets.is_empty() {
        Ok(())
    } else {
        Err(CodegenError::PreloopUnsupported(why))
    }
}
