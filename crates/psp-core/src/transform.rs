//! The four elementary transformations: moveup (including wrapping across
//! the loop boundary), movedown, split, and unify.
//!
//! All transformations are checked: they refuse to produce an incorrect
//! schedule. `moveup` applies the fixes demanded by the pair checks —
//! renaming (fresh destination plus a `COPY` left at the original slot),
//! combining (folding crossed induction updates into memory displacements)
//! and copy substitution. [`check_pair`] grants a positional fix only when
//! the instance demanding it executes on every formal path of the mover,
//! so a plan applies every stride a crossed row demands and keeps no
//! record of what it crossed: clones of one split update lie on disjoint
//! paths, and at most one of them covers the mover.
//! None of them reads a latency: a row is not a cycle on every path, so the
//! machine's latency rule is applied per path by code generation
//! ([`psp_machine::InFlight`]).
//!
//! Wrapping (`WrapUp`) is restricted to instances in row 0: the instance
//! leaves through the top of the schedule and re-enters at a fresh bottom
//! row with its operation index incremented and its predicate matrix
//! shifted one column right (paper §2), jumping over no other instance in
//! the unrolled timeline. Pipelining arises from alternating wraps and
//! compaction.

use crate::deps::{check_pair, is_flow, writes_read_by, Fix, PairCheck, Permission};
use crate::instance::{InstId, Instance};
use crate::schedule::{row_fits, Schedule};
use psp_ir::op::build;
use psp_ir::{OpKind, Operation, Reg, RegRef, Role};
use psp_machine::MachineConfig;
use psp_predicate::PredElem;
use std::fmt;

/// Why a transformation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoveError {
    /// Unknown instance id.
    NotFound,
    /// Ill-formed request (e.g. moveup to a later row).
    BadTarget,
    /// A pair check failed.
    Blocked {
        /// The instance in the way.
        by: InstId,
        /// The failing rule.
        reason: &'static str,
    },
    /// The target row cannot accept the instance's resource class.
    Resource,
    /// Split preconditions not met (element constrained, or predicate not
    /// yet computed at the instance's cycle).
    BadSplit,
    /// Unify preconditions not met.
    BadUnify,
}

impl fmt::Display for MoveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoveError::NotFound => write!(f, "instance not found"),
            MoveError::BadTarget => write!(f, "bad target row"),
            MoveError::Blocked { by, reason } => {
                write!(f, "blocked by instance {}: {reason}", by.0)
            }
            MoveError::Resource => write!(f, "target row out of resources"),
            MoveError::BadSplit => write!(f, "split preconditions not met"),
            MoveError::BadUnify => write!(f, "unify preconditions not met"),
        }
    }
}

/// A transformation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transformation {
    /// Move an instance to an earlier row.
    MoveUp {
        /// The instance.
        id: InstId,
        /// Target row (must be earlier than the current row).
        target: usize,
    },
    /// Move an instance from row 0 across the loop boundary into the
    /// previous transformed iteration (index + 1, matrix shifted right,
    /// re-inserted at a fresh bottom row).
    WrapUp {
        /// The instance (must sit in row 0).
        id: InstId,
    },
    /// Move an instance to a later row.
    MoveDown {
        /// The instance.
        id: InstId,
        /// Target row (must be later than the current row).
        target: usize,
    },
    /// Split one `b` element of an instance's matrix into two clones.
    Split {
        /// The instance.
        id: InstId,
        /// Predicate row.
        row: u32,
        /// Predicate column.
        col: i32,
    },
    /// Merge two clones whose matrices differ in one complementary element.
    Unify {
        /// First clone.
        a: InstId,
        /// Second clone.
        b: InstId,
    },
}

/// Apply a transformation, mutating the schedule on success.
pub fn apply(
    sched: &mut Schedule,
    t: &Transformation,
    machine: &MachineConfig,
) -> Result<(), MoveError> {
    match *t {
        Transformation::MoveUp { id, target } => moveup(sched, id, target, machine),
        Transformation::WrapUp { id } => wrap_up(sched, id, machine),
        Transformation::MoveDown { id, target } => movedown(sched, id, target, machine),
        Transformation::Split { id, row, col } => split(sched, id, row, col),
        Transformation::Unify { a, b } => unify(sched, a, b),
    }
}

/// What fixes a motion pass may apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MovePolicy {
    /// Allow data renaming (anti/output/cross-iteration flow).
    pub rename: bool,
    /// Allow speculation renaming (crossing the mover's own computing IF).
    pub speculate: bool,
}

impl MovePolicy {
    /// Everything allowed.
    pub const FULL: MovePolicy = MovePolicy {
        rename: true,
        speculate: true,
    };
    /// Only free / combining / substitution fixes.
    pub const FREE: MovePolicy = MovePolicy {
        rename: false,
        speculate: false,
    };
    /// Data renaming but no speculation.
    pub const RENAME: MovePolicy = MovePolicy {
        rename: true,
        speculate: false,
    };
}

/// The evolving state of an upward plan: the rewritten mover and the
/// `COPY` demanded by a rename (if any).
#[derive(Clone)]
struct PlanState {
    work: Instance,
    leftover: Option<Instance>,
}

/// An upward plan's view of the schedule: the rows it reads in place and
/// the register and id a rename would take ([`Schedule::next_fresh`]).
/// The borrow keeps a plan from moving anything; the caller commits the
/// move once the view is dropped, and only then takes the rename's names.
///
/// A plan processes the jumped rows bottom-up, one row at a time,
/// accumulating and applying fixes compositionally. Within a row, all pair
/// checks are evaluated against the mover's state *at row entry* (the row's
/// operations read pre-cycle state simultaneously) and the row's fixes are
/// applied together afterwards: [`Planner::row_fixes`] collects them
/// without touching the state, and [`Planner::apply_fixes`] applies them,
/// so a caller can skip copying a state that a row leaves unchanged.
struct Planner<'a> {
    rows: &'a [Vec<Instance>],
    live_out: &'a [RegRef],
    fresh: (Reg, InstId),
    policy: MovePolicy,
    machine: &'a MachineConfig,
    /// Whether the policy refused a rename fix at some point of the plan.
    rename_refused: bool,
}

impl<'a> Planner<'a> {
    fn new(sched: &'a Schedule, policy: MovePolicy, machine: &'a MachineConfig) -> Self {
        Self {
            rows: &sched.rows,
            live_out: &sched.source.live_out,
            fresh: sched.next_fresh(),
            policy,
            machine,
            rename_refused: false,
        }
    }

    fn apply_fixes(&mut self, state: &mut PlanState, fixes: Vec<RowFix>) -> Result<(), MoveError> {
        // Substitutions in one row must not disagree on a source register.
        let mut substs: Vec<(psp_ir::Reg, psp_ir::Reg)> = Vec::new();
        let mut disp: i64 = 0;
        let mut rename = false;
        for (by, f) in fixes {
            match f {
                Fix::CombineDisp(d) => disp = disp.wrapping_add(d),
                Fix::Subst { from, to } => {
                    if substs.iter().any(|&(f2, t2)| f2 == from && t2 != to) {
                        return Err(MoveError::Blocked {
                            by,
                            reason: "ambiguous copy substitution",
                        });
                    }
                    if !substs.contains(&(from, to)) {
                        substs.push((from, to));
                    }
                }
                Fix::Rename => {
                    if !self.policy.rename {
                        self.rename_refused = true;
                        return Err(MoveError::Blocked {
                            by,
                            reason: "rename disabled in this pass",
                        });
                    }
                    rename = true;
                }
                Fix::SpeculateRename => {
                    if !self.policy.speculate {
                        return Err(MoveError::Blocked {
                            by,
                            reason: "speculation disabled in this pass",
                        });
                    }
                    rename = true;
                }
            }
        }
        for (from, to) in substs {
            let op = state.work.op().map_regs(
                |r, role| match role {
                    Role::Use if r == from => to,
                    _ => r,
                },
                |c, _| c,
            );
            state.work.set_op(op);
        }
        if disp != 0 {
            let mut op = *state.work.op();
            op.kind = match op.kind {
                OpKind::Load { dst, addr } => OpKind::Load {
                    dst,
                    addr: addr.displaced(disp),
                },
                OpKind::Store { src, addr } => OpKind::Store {
                    src,
                    addr: addr.displaced(disp),
                },
                _ => return Err(MoveError::BadTarget),
            };
            state.work.set_op(op);
        }
        if rename && state.leftover.is_none() {
            let Some(RegRef::Gpr(old)) = state.work.def() else {
                return Err(MoveError::BadTarget);
            };
            let (fresh, id) = self.fresh;
            state.work.set_op(renamed_dst(state.work.op(), fresh));
            // Planning rewrites only the mover's operation, so its other
            // fields are still the original instance's.
            state.leftover = Some(leftover_copy(&state.work, id, old, fresh));
        }
        Ok(())
    }

    /// Partners of the mover's own row `r`: leaving a shared cycle upward
    /// preserves pre-cycle read semantics, so positional fixes (combining,
    /// substitution) demanded by the pair check are *already incorporated*
    /// in the mover's operation and must not be re-applied; only renames (a
    /// same-row reader that would start seeing the write) are genuinely
    /// new.
    fn own_row(&mut self, x: &Instance, r: usize) -> Result<PlanState, MoveError> {
        let mut state = PlanState {
            work: x.clone(),
            leftover: None,
        };
        let mut fixes = self.row_fixes(&state, r, |c| c.above)?;
        fixes.retain(|&(_, f)| matches!(f, Fix::Rename | Fix::SpeculateRename));
        self.apply_fixes(&mut state, fixes)?;
        Ok(state)
    }

    /// Cross the jumped row `r` (full `above` permissions).
    fn cross_row(&mut self, state: &mut PlanState, r: usize) -> Result<(), MoveError> {
        let fixes = self.row_fixes(state, r, |c| c.above)?;
        self.apply_fixes(state, fixes)
    }

    /// Land in the target row `r` (cycle-sharing `same` permissions).
    fn land_row(&mut self, state: &mut PlanState, r: usize) -> Result<(), MoveError> {
        let fixes = self.row_fixes(state, r, |c| c.same)?;
        self.apply_fixes(state, fixes)
    }

    /// The fixes row `r` demands of the mover in `state`, each with the
    /// instance demanding it; none means the row leaves the state as it
    /// is. Reads only.
    fn row_fixes(
        &self,
        state: &PlanState,
        r: usize,
        permission: fn(PairCheck) -> Permission,
    ) -> Result<Vec<RowFix>, MoveError> {
        let mut fixes = Vec::new();
        for y in &self.rows[r] {
            if y.id == state.work.id {
                continue;
            }
            match permission(check_pair(&state.work, y, self.live_out, self.machine)) {
                Permission::Yes => {}
                Permission::WithFixes(fs) => fixes.extend(fs.into_iter().map(|f| (y.id, f))),
                Permission::No(reason) => return Err(MoveError::Blocked { by: y.id, reason }),
            }
        }
        Ok(fixes)
    }
}

/// A fix one row demands: the instance demanding it, and the fix.
type RowFix = (InstId, Fix);

/// The `COPY old, fresh` a rename of `x`'s destination leaves at its
/// original slot: on `x`'s paths, just after `x` in program order.
fn leftover_copy(x: &Instance, id: InstId, old: Reg, fresh: Reg) -> Instance {
    let mut copy = Instance::new(id, build::copy(old, fresh), x.formal.clone(), x.origin);
    copy.index = x.index;
    copy.late = x.late + 1;
    copy
}

/// `op` with its GPR destination renamed to `to` (renaming at definition).
fn renamed_dst(op: &Operation, to: Reg) -> Operation {
    op.map_regs(|r, role| if role == Role::Def { to } else { r }, |c, _| c)
}

/// Resource feasibility of adding `x` to `row`.
fn resource_ok(rows: &[Vec<Instance>], x: &Instance, row: usize, machine: &MachineConfig) -> bool {
    match rows.get(row) {
        Some(r) => row_fits(r, None, Some(x), machine),
        None => true,
    }
}

/// Whether the planned mover (and its leftover `COPY`, if renamed) can be
/// placed: `x` at `target`, the copy at the mover's current row `cur`.
fn placement_ok(
    rows: &[Vec<Instance>],
    state: &PlanState,
    target: usize,
    cur: usize,
    machine: &MachineConfig,
) -> Result<(), MoveError> {
    let moved = &state.work;
    if !resource_ok(rows, moved, target, machine) {
        return Err(MoveError::Resource);
    }
    if let Some(copy) = &state.leftover {
        // The leftover copy needs a slot at the original row: the mover's
        // own, which it frees.
        if !row_fits(&rows[cur], Some(moved.id), Some(copy), machine) {
            return Err(MoveError::Resource);
        }
    }
    Ok(())
}

/// Replace the instance at `(cur, pos)` by the planned mover at `target`,
/// leaving the rename's `COPY` (if any) in row `cur`.
fn commit(sched: &mut Schedule, cur: usize, pos: usize, target: usize, state: PlanState) {
    sched.rows[cur].remove(pos);
    sched.insert(target, state.work);
    if let Some(copy) = state.leftover {
        sched.insert_leftover(cur, copy);
    }
}

/// Move an instance to an earlier row (all fixes allowed).
pub fn moveup(
    sched: &mut Schedule,
    id: InstId,
    target: usize,
    machine: &MachineConfig,
) -> Result<(), MoveError> {
    let (cur, pos) = sched.find(id).ok_or(MoveError::NotFound)?;
    if target >= cur {
        return Err(MoveError::BadTarget);
    }
    let mut plan = Planner::new(sched, MovePolicy::FULL, machine);
    let rows = plan.rows;
    // The mover's own row first (fixes for those pairs are already
    // incorporated), then the jumped rows (target, cur) nearest first, then
    // the target row.
    let mut state = plan.own_row(&rows[cur][pos], cur)?;
    for k in (target + 1..cur).rev() {
        plan.cross_row(&mut state, k)?;
    }
    plan.land_row(&mut state, target)?;
    placement_ok(rows, &state, target, cur, machine)?;
    commit(sched, cur, pos, target, state);
    Ok(())
}

/// Move an instance to the *earliest* feasible row, equivalent to trying
/// a moveup at targets `0..cur` in order and taking the first success —
/// but in one pass instead of a quadratic re-plan per target.
///
/// The plan state for target `t` is the own-row state extended by crossing
/// rows `cur-1, cur-2, …, t+1`: a shared suffix across targets. One
/// descending sweep builds every per-target state incrementally (a crossing
/// failure at row `k` blocks all targets below `k`, exactly as each
/// individual plan would fail at that same row). Most crossed rows demand
/// no fix, so the sweep stores a new state only at a row whose fixes apply;
/// the targets between two such rows share one. An ascending scan then
/// branches each state through the target row's cycle-sharing checks and
/// the placement checks, returning on the first success; a landing copies
/// its state only when that row's own fixes apply.
///
/// Returns the rows `(cur, target)` the instance moved between, or what the
/// refused attempt read.
pub(crate) fn moveup_earliest(
    sched: &mut Schedule,
    id: InstId,
    machine: &MachineConfig,
    policy: MovePolicy,
) -> Result<(usize, usize), Refusal> {
    let Some((cur, pos)) = sched.find(id) else {
        // Nothing was read; a refusal that any move invalidates.
        return Err(Refusal {
            lo: 0,
            hi: usize::MAX,
            rename_refused: true,
        });
    };
    let mut refusal = Refusal {
        lo: cur,
        hi: cur,
        rename_refused: false,
    };
    if cur == 0 {
        return Err(refusal);
    }
    let mut plan = Planner::new(sched, policy, machine);
    let rows = plan.rows;
    let Ok(own) = plan.own_row(&rows[cur][pos], cur) else {
        refusal.rename_refused = plan.rename_refused;
        return Err(refusal);
    };
    // `(t, state)`: the state after crossing rows (t, cur), ready to land
    // in row t and in every row below it down to the next entry's `t`
    // (exclusive). Entries descend in `t`; the first crosses nothing.
    let mut plans = vec![(cur - 1, own)];
    refusal.lo = 0;
    for k in (1..cur).rev() {
        let last = &plans[plans.len() - 1].1;
        let crossed = match plan.row_fixes(last, k, |c| c.above) {
            Ok(fixes) if fixes.is_empty() => continue,
            Ok(fixes) => {
                let mut next = last.clone();
                plan.apply_fixes(&mut next, fixes).map(|()| next)
            }
            Err(e) => Err(e),
        };
        match crossed {
            Ok(next) => plans.push((k - 1, next)),
            Err(_) => {
                // Every target below row k is blocked by row k.
                refusal.lo = k;
                break;
            }
        }
    }

    let mut i = plans.len() - 1;
    for target in refusal.lo..cur {
        if target > plans[i].0 {
            i -= 1;
        }
        let base = &plans[i].1;
        let landed = match plan.row_fixes(base, target, |c| c.same) {
            Ok(fixes) if fixes.is_empty() => None,
            Ok(fixes) => {
                let mut st = base.clone();
                if plan.apply_fixes(&mut st, fixes).is_err() {
                    continue;
                }
                Some(st)
            }
            Err(_) => continue,
        };
        let st = landed.as_ref().unwrap_or(base);
        if placement_ok(rows, st, target, cur, machine).is_err() {
            continue;
        }
        let st = landed.unwrap_or_else(|| plans.swap_remove(i).1);
        commit(sched, cur, pos, target, st);
        return Ok((cur, target));
    }
    refusal.rename_refused = plan.rename_refused;
    Err(refusal)
}

/// What a refused [`moveup_earliest`] read: the same attempt on an
/// unchanged view is refused again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Refusal {
    /// The attempt read rows `lo..=hi` (`hi` is the mover's row).
    pub(crate) lo: usize,
    /// The mover's row.
    pub(crate) hi: usize,
    /// The policy refused a rename fix somewhere in the attempt.
    pub(crate) rename_refused: bool,
}

impl Refusal {
    /// Whether the attempt read row `r`.
    pub(crate) fn reads(&self, r: usize) -> bool {
        (self.lo..=self.hi).contains(&r)
    }
}

/// Move an instance from row 0 across the loop boundary.
pub fn wrap_up(sched: &mut Schedule, id: InstId, machine: &MachineConfig) -> Result<(), MoveError> {
    let (cur, pos) = sched.find(id).ok_or(MoveError::NotFound)?;
    if cur != 0 {
        return Err(MoveError::BadTarget);
    }
    let x = sched.rows[cur][pos].clone();

    // Memory and exit effects cannot be replayed by the preloop, so a
    // wrapped store/BREAK would silently lose original iteration 0's
    // effect.
    if x.op().is_store() || x.op().is_break() {
        return Err(MoveError::Blocked {
            by: id,
            reason: "stores and exits do not wrap",
        });
    }

    // Preloop contract: the preloop executes the wrapped instance's source
    // operation once before the loop, writing its (possibly renamed)
    // destination. Any *program-earlier* reader left in the body expects
    // the pre-update value of an architectural destination, so such a
    // destination must be renamed away (or the wrap refused for
    // un-renamable definitions).
    let has_earlier_reader = sched
        .instances()
        .any(|y| y.id != id && y.prog_order() < x.prog_order() && writes_read_by(&x, y));
    if has_earlier_reader {
        let renameable =
            matches!(x.def(), Some(RegRef::Gpr(_))) && !matches!(x.op().kind, OpKind::Copy { .. });
        if !renameable {
            return Err(MoveError::Blocked {
                by: id,
                reason: "wrap would expose an un-renamable definition to earlier readers",
            });
        }
    }

    // The wrapped instance ends up strictly earlier than its former row-0
    // partners (checked in the pre-wrap frame).
    let PlanState {
        work: mut moved,
        mut leftover,
    } = Planner::new(sched, MovePolicy::FULL, machine).own_row(&x, 0)?;
    if has_earlier_reader && leftover.is_none() {
        // Force the rename the partners did not demand.
        let Some(RegRef::Gpr(old)) = moved.def() else {
            return Err(MoveError::BadTarget);
        };
        let (fresh, copy_id) = sched.next_fresh();
        moved.set_op(renamed_dst(moved.op(), fresh));
        leftover = Some(leftover_copy(&x, copy_id, old, fresh));
    }

    // The preloop computes the startup values the new index calls for
    // from the source loop (see `preloop`): the wrap only shifts the
    // instance's index and matrix.
    moved.index += 1;
    moved.formal = moved.formal.shifted(1);

    if let Some(copy) = &leftover {
        // The copy sits in row 0, consuming the value the wrapped instance
        // produced at the bottom of the previous iteration, and needs a
        // free slot there, beside the wrapped instance. It could take the
        // wrapped instance's own slot, as a moveup's copy does; but the
        // wraps that this admits out of a full row 0 won no cycle on the
        // kernels or the E12 corpus, cost `count_above` a cycle on narrow
        // machines and slowed E12 `wide` (EXPERIMENTS E12).
        if !resource_ok(&sched.rows, copy, 0, machine) {
            return Err(MoveError::Resource);
        }
    }

    sched.remove(id);
    let bottom = sched.n_rows(); // recompute: row 0 may still hold others
    sched.insert(bottom, moved);
    if let Some(copy) = leftover {
        sched.insert_leftover(0, copy);
    }
    Ok(())
}

/// Move an instance to a later row. Conservative: only applied when every
/// jumped instance may legally sit above the mover without fixes.
pub fn movedown(
    sched: &mut Schedule,
    id: InstId,
    target: usize,
    machine: &MachineConfig,
) -> Result<(), MoveError> {
    let (cur, pos) = sched.find(id).ok_or(MoveError::NotFound)?;
    if target <= cur || target >= sched.n_rows() {
        return Err(MoveError::BadTarget);
    }
    let x = sched.rows[cur][pos].clone();
    let live_out = &sched.source.live_out;

    for y in sched.rows[cur..target].iter().flatten() {
        if y.id == id {
            continue;
        }
        // y ends up above x: ask whether y-above-x is legal with no fixes
        // (fixes would have to rewrite the stationary instance).
        let c = check_pair(y, &x, live_out, machine);
        if c.above != Permission::Yes {
            return Err(MoveError::Blocked {
                by: y.id,
                reason: "movedown would need to rewrite a stationary instance",
            });
        }
        // A consumer of x must not end up above it.
        if is_flow(&x, y) {
            return Err(MoveError::Blocked {
                by: y.id,
                reason: "movedown past a consumer",
            });
        }
    }
    for y in sched.rows[target].iter() {
        let c = check_pair(&x, y, live_out, machine);
        if c.same != Permission::Yes {
            return Err(MoveError::Blocked {
                by: y.id,
                reason: "movedown same-cycle conflict",
            });
        }
        // Sharing a cycle with a same-iteration consumer would redirect its
        // pre-cycle read to the previous iteration's value.
        if is_flow(&x, y) {
            return Err(MoveError::Blocked {
                by: y.id,
                reason: "movedown into a consumer's cycle",
            });
        }
    }
    if !resource_ok(&sched.rows, &x, target, machine) {
        return Err(MoveError::Resource);
    }
    sched.remove(id);
    sched.insert(target, x);
    Ok(())
}

/// Split one `b` element of an instance into two complementary clones.
///
/// The predicate must already be computed when the instance issues (in an
/// earlier cycle or a previous iteration); otherwise the clones would
/// co-execute speculatively and conflict.
pub fn split(sched: &mut Schedule, id: InstId, row: u32, col: i32) -> Result<(), MoveError> {
    let (cur, pos) = sched.find(id).ok_or(MoveError::NotFound)?;
    let x = sched.rows[cur][pos].clone();
    if x.formal.get(row, col).is_constrained() {
        return Err(MoveError::BadSplit);
    }
    if !sched.iflog().available_before(row, col, cur) {
        return Err(MoveError::BadSplit);
    }
    let (f, t) = x.formal.split(row, col).ok_or(MoveError::BadSplit)?;
    let id_f = sched.fresh_id();
    let id_t = sched.fresh_id();
    let mk = |id: InstId, formal| {
        let mut clone = x.clone();
        clone.id = id;
        clone.formal = formal;
        clone
    };
    sched.rows[cur][pos] = mk(id_f, f);
    sched.rows[cur].insert(pos + 1, mk(id_t, t));
    Ok(())
}

/// Merge two clones back (inverse of split). Requires the same operation,
/// index, origin and row, and matrices differing in exactly one
/// complementary element.
pub fn unify(sched: &mut Schedule, a: InstId, b: InstId) -> Result<(), MoveError> {
    let (ra, pa) = sched.find(a).ok_or(MoveError::NotFound)?;
    let (rb, pb) = sched.find(b).ok_or(MoveError::NotFound)?;
    if ra != rb {
        return Err(MoveError::BadUnify);
    }
    let (ia, ib) = (&sched.rows[ra][pa], &sched.rows[rb][pb]);
    if ia.op() != ib.op() || ia.index != ib.index || ia.origin != ib.origin {
        return Err(MoveError::BadUnify);
    }
    let merged = ia.formal.unify(&ib.formal).ok_or(MoveError::BadUnify)?;
    let mut kept = ia.clone();
    kept.id = a.min(b);
    kept.formal = merged;
    sched.rows[ra][pa.min(pb)] = kept;
    sched.rows[ra].remove(pa.max(pb));
    Ok(())
}

/// Split helper: candidate `(row, col)` positions that could disjoin `x`
/// from `blocker` (constrained in the blocker, `b` in `x`).
pub fn split_candidates(x: &Instance, blocker: &Instance) -> Vec<(u32, i32)> {
    blocker
        .formal
        .constrained()
        .filter(|&(r, c, _)| x.formal.get(r, c) == PredElem::Both)
        .map(|(r, c, _)| (r, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_ir::{CcReg, OpKind, Reg};
    use psp_predicate::PredicateMatrix;

    fn vecmin_sched() -> Schedule {
        Schedule::initial(&psp_kernels::by_name("vecmin").unwrap().spec)
    }

    fn m() -> MachineConfig {
        MachineConfig::paper_default()
    }

    fn id_at(s: &Schedule, row: usize) -> InstId {
        s.rows[row][0].id
    }

    #[test]
    fn moveup_packs_independent_loads() {
        // LOAD xm (row 1) can join LOAD xk (row 0).
        let mut s = vecmin_sched();
        let id = id_at(&s, 1);
        moveup(&mut s, id, 0, &m()).unwrap();
        assert_eq!(s.rows[0].len(), 2);
        assert!(s.rows[1].is_empty());
    }

    #[test]
    fn moveup_respects_true_dependence() {
        // LT (row 2) reads both loads: cannot reach row 0 or row 1.
        let mut s = vecmin_sched();
        let lt = id_at(&s, 2);
        assert!(matches!(
            moveup(&mut s, lt, 0, &m()),
            Err(MoveError::Blocked { .. })
        ));
        assert!(matches!(
            moveup(&mut s, lt, 1, &m()),
            Err(MoveError::Blocked { .. })
        ));
    }

    #[test]
    fn moveup_with_rename_leaves_copy() {
        // ADD k,k,1 (row 5) wants row 0; the COPY m,k (row 4) and LOAD x[k]
        // (row 0) read k. Crossing the COPY is an anti-dependence → rename;
        // landing in row 0 with LOAD (also reads k) is same-cycle → fine.
        let mut s = vecmin_sched();
        let add = id_at(&s, 5);
        let n_before = s.n_instances();
        moveup(&mut s, add, 0, &m()).unwrap();
        assert_eq!(s.n_instances(), n_before + 1, "copy left behind");
        // The moved ADD writes a fresh register now.
        let moved = s.rows[0]
            .iter()
            .find(|i| matches!(i.op().kind, OpKind::Alu { .. }))
            .unwrap();
        let fresh = match moved.op().kind {
            OpKind::Alu { dst, .. } => dst,
            _ => unreachable!(),
        };
        assert!(fresh.0 >= psp_kernels::by_name("vecmin").unwrap().spec.n_regs);
        // And a COPY k, fresh sits at the original row.
        let leftover = s.rows[5]
            .iter()
            .find(|i| matches!(i.op().kind, OpKind::Copy { .. }))
            .unwrap();
        assert_eq!(leftover.op().uses(), vec![psp_ir::RegRef::Gpr(fresh)]);
    }

    /// vecmin with `COPY R2, R1` and `ADD R1, R1, #1` in the IF row: on
    /// `narrow(2,1,1)` they take both ALUs of the row.
    fn vecmin_full_if_row() -> Schedule {
        let mut s = vecmin_sched();
        let add = s.rows.remove(5).remove(0);
        let copy = s.rows.remove(4).remove(0);
        s.rows[3].extend([copy, add]);
        s
    }

    #[test]
    fn a_renamed_move_frees_its_own_slot() {
        let narrow = MachineConfig::narrow(2, 1, 1);
        let mut s = vecmin_full_if_row();
        let add = s.rows[3][2].id;
        s.validate_resources(&narrow).unwrap();
        // Crossing `COPY R2, R1` renames the ADD; the leftover `COPY R1,
        // R5` takes the ADD's slot in the IF row, so the row stays full
        // but within the machine.
        moveup(&mut s, add, 0, &narrow).unwrap();
        let moved = s.instance(add).unwrap();
        assert_eq!(s.find(add).unwrap().0, 0, "\n{s}");
        assert_ne!(moved.def(), Some(RegRef::Gpr(Reg(1))), "\n{s}");
        assert_eq!(s.rows[3].len(), 3, "\n{s}");
        assert!(
            matches!(s.rows[3][2].op().kind, OpKind::Copy { .. }),
            "\n{s}"
        );
        s.validate_resources(&narrow).unwrap();
    }

    #[test]
    fn a_move_that_does_not_rename_into_a_full_row_is_refused() {
        // LOAD R4 needs no fix to join LOAD R3, but 2/1/1 has one memory
        // unit.
        let narrow = MachineConfig::narrow(2, 1, 1);
        let mut s = vecmin_sched();
        let load = id_at(&s, 1);
        assert_eq!(moveup(&mut s, load, 0, &narrow), Err(MoveError::Resource));
        assert_eq!(s.render(), vecmin_sched().render());
        // The renamed ADD still needs a free slot where it lands: with both
        // ALUs of row 0 taken, it is refused there.
        let mut s = vecmin_full_if_row();
        let add = s.rows[3][2].id;
        for (i, value) in [7i64, 8].into_iter().enumerate() {
            let filler = Instance::new(
                InstId(100 + i as u64),
                build::copy(Reg(9 + i as u32), value),
                PredicateMatrix::universe(),
                0,
            );
            s.rows[0].push(filler);
        }
        assert_eq!(moveup(&mut s, add, 0, &narrow), Err(MoveError::Resource));
    }

    #[test]
    fn a_renamed_wrap_out_of_a_full_row_zero_is_refused() {
        // `ADD s, s, k` and `ADD k, k, #1` fill row 0's two ALUs. Wrapping
        // the second renames it (the first reads k earlier in program
        // order), and its leftover `COPY k, k'` would need a third ALU in
        // row 0: `wrap_up` counts the wrapped instance too. With a third
        // ALU the wrap goes through.
        let mut b = psp_ir::LoopBuilder::new("full_row0");
        let k = b.named_reg("k");
        let n = b.named_reg("n");
        let s_reg = b.named_reg("s");
        let cc = b.cc();
        b.op(build::add(s_reg, s_reg, k));
        b.op(build::add(k, k, 1i64));
        b.op(build::ge(cc, k, n));
        b.break_(cc);
        let spec = b.finish([k, n, s_reg], [s_reg]);
        let narrow = MachineConfig::narrow(2, 1, 1);
        let mut s = Schedule::initial(&spec);
        let inc = id_at(&s, 1);
        moveup(&mut s, inc, 0, &narrow).unwrap();
        s.prune_empty_rows();
        assert_eq!(s.rows[0].len(), 2, "\n{s}");
        let full = s.render();
        assert_eq!(wrap_up(&mut s, inc, &narrow), Err(MoveError::Resource));
        assert_eq!(s.render(), full);
        let wider = MachineConfig::narrow(3, 1, 1);
        wrap_up(&mut s, inc, &wider).unwrap();
        assert_eq!(s.find(inc).unwrap().0, s.n_rows() - 1, "\n{s}");
        assert_eq!(s.instance(inc).unwrap().index, 1);
        assert!(
            s.rows[0]
                .iter()
                .any(|i| matches!(i.op().kind, OpKind::Copy { .. })),
            "\n{s}"
        );
        s.validate_resources(&wider).unwrap();
    }

    #[test]
    fn moveup_combining_folds_stride() {
        // Move LOAD x[k] below… rather: wrap it and move it up past ADD.
        // Simpler: construct directly — LOAD at row 1 under ADD at row 0 —
        // crossing requires displacement +1.
        let kernel = psp_kernels::by_name("vecmin").unwrap();
        let mut s = Schedule::initial(&kernel.spec);
        // Move ADD (row 5) to row 1 is blocked by COPY m,k? COPY is at row
        // 4 with matrix [1]; ADD universe: not disjoint → anti → rename.
        // Instead test combine directly: wrap LOAD x[k], then move it up
        // across the ADD.
        let load_id = id_at(&s, 0);
        wrap_up(&mut s, load_id, &m()).unwrap();
        // The wrapped load sits at the bottom with index +1.
        let (row, _) = s.find(load_id).unwrap();
        assert_eq!(row, s.n_rows() - 1);
        let inst = s.instance(load_id).unwrap().clone();
        assert_eq!(inst.index, 1);
        // Move it up across BREAK (7→6 after row-0 removal shifts? rows:
        // original row 0 is now empty) — prune first.
        s.prune_empty_rows();
        let (row, _) = s.find(load_id).unwrap();
        // Rows now: LOADxm, LT, IF, COPY, ADD, GE, BREAK, LOAD(+1).
        assert_eq!(row, 7);
        // Crossing BREAK (row 6) and GE (row 5) is free (not observable);
        // joining ADD's cycle (row 4) combines its stride into the
        // displacement (pre-cycle reads see the not-yet-updated index).
        moveup(&mut s, load_id, 4, &m()).unwrap();
        let inst = s.instance(load_id).unwrap();
        match inst.op().kind {
            OpKind::Load { addr, .. } => assert_eq!(addr.disp, 1, "combined +1"),
            _ => panic!("not a load"),
        }
        // Leaving the shared cycle upward must NOT re-apply the combine.
        moveup(&mut s, load_id, 3, &m()).unwrap();
        let inst = s.instance(load_id).unwrap();
        match inst.op().kind {
            OpKind::Load { addr, .. } => assert_eq!(addr.disp, 1, "no double combine"),
            _ => panic!("not a load"),
        }
    }

    #[test]
    fn combining_past_one_clone_of_a_split_update_is_refused() {
        // vecmin with `ADD R1, R1, #1` split on the IF's outcome and its
        // [1] clone moved up beside `COPY R2, R1`, and `LOAD x[k]` wrapped
        // to the bottom, where it reads the next iteration's k.
        let mut s = vecmin_sched();
        let add = id_at(&s, 5);
        split(&mut s, add, 0, 0).unwrap();
        let on_true = s.rows[5][1].id;
        moveup(&mut s, on_true, 4, &m()).unwrap();
        let load = id_at(&s, 0);
        wrap_up(&mut s, load, &m()).unwrap();
        s.prune_empty_rows();
        // Rows: LOAD xm, LT, IF, COPY + ADD [1], ADD [0], GE, BREAK, LOAD.
        assert_eq!(s.find(load).unwrap().0, 7, "\n{s}");
        // In the [0] clone's row, a combined load would read k + 2 on the
        // [1] paths, whose update has already run a row earlier.
        let before = s.render();
        assert!(
            matches!(
                moveup(&mut s, load, 4, &m()),
                Err(MoveError::Blocked { .. })
            ),
            "\n{s}"
        );
        assert_eq!(s.render(), before);
        // Below both clones it needs no fix.
        moveup(&mut s, load, 5, &m()).unwrap();
        match s.instance(load).unwrap().op().kind {
            OpKind::Load { addr, .. } => assert_eq!(addr.disp, 0, "\n{s}"),
            _ => panic!("not a load"),
        }
    }

    #[test]
    fn wrap_increments_index_and_keeps_the_operation() {
        let mut s = vecmin_sched();
        let id = id_at(&s, 0);
        let original_op = *s.instance(id).unwrap().op();
        wrap_up(&mut s, id, &m()).unwrap();
        let inst = s.instance(id).unwrap();
        assert_eq!(inst.index, 1);
        assert_eq!(*inst.op(), original_op);
    }

    #[test]
    fn conditional_instances_wrap_with_shifted_matrix() {
        // The reaching-definition preloop can establish contracts for
        // single-level conditional instances, so conditional wraps are
        // legal; the matrix shifts one column right.
        let mut s = vecmin_sched();
        s.rows[0][0].formal = PredicateMatrix::single(0, 0, true);
        let id = id_at(&s, 0);
        wrap_up(&mut s, id, &m()).unwrap();
        let inst = s.instance(id).unwrap();
        assert_eq!(inst.index, 1);
        assert_eq!(inst.formal, PredicateMatrix::single(0, 1, true));
    }

    #[test]
    fn wrap_requires_row_zero() {
        let mut s = vecmin_sched();
        let id = id_at(&s, 3);
        assert_eq!(wrap_up(&mut s, id, &m()), Err(MoveError::BadTarget));
    }

    #[test]
    fn store_cannot_wrap_past_break() {
        // sign_store: the store sits under an IF; move it to row 0 is
        // blocked anyway (control dep, store not speculable). Check that a
        // store at row 0 cannot wrap past a BREAK: build a toy schedule.
        let kernel = psp_kernels::by_name("sign_store").unwrap();
        let mut s = Schedule::initial(&kernel.spec);
        // Find the store instance and try to wrap whatever reaches row 0 —
        // instead directly: wrapping the row-0 LOAD is fine.
        let id = id_at(&s, 0);
        assert!(wrap_up(&mut s, id, &m()).is_ok());
    }

    #[test]
    fn movedown_simple() {
        let mut s = vecmin_sched();
        // Move LOAD xk (row 0) down to row 1 (with LOAD xm): same-cycle ok.
        let id = id_at(&s, 0);
        movedown(&mut s, id, 1, &m()).unwrap();
        assert_eq!(s.rows[1].len(), 2);
    }

    #[test]
    fn movedown_blocked_past_consumer() {
        let mut s = vecmin_sched();
        let id = id_at(&s, 0); // LOAD xk feeds LT at row 2
        assert!(matches!(
            movedown(&mut s, id, 3, &m()),
            Err(MoveError::Blocked { .. })
        ));
    }

    #[test]
    fn split_requires_available_predicate() {
        let mut s = vecmin_sched();
        // GE at row 6: predicate (0,0) is computed by IF at row 3 < 6 → ok.
        let ge = id_at(&s, 6);
        split(&mut s, ge, 0, 0).unwrap();
        assert_eq!(s.rows[6].len(), 2);
        assert!(s.rows[6][0].formal.is_disjoint(&s.rows[6][1].formal));
        // LOAD at row 0: predicate not yet computed → refuse.
        let ld = id_at(&s, 0);
        assert_eq!(split(&mut s, ld, 0, 0), Err(MoveError::BadSplit));
        // Splitting a constrained element refuses.
        let copy_m = id_at(&s, 4);
        assert_eq!(split(&mut s, copy_m, 0, 0), Err(MoveError::BadSplit));
    }

    #[test]
    fn split_then_unify_roundtrip() {
        let mut s = vecmin_sched();
        let ge = id_at(&s, 6);
        let before = s.rows[6][0].clone();
        split(&mut s, ge, 0, 0).unwrap();
        let a = s.rows[6][0].id;
        let b = s.rows[6][1].id;
        unify(&mut s, a, b).unwrap();
        assert_eq!(s.rows[6].len(), 1);
        assert_eq!(s.rows[6][0].formal, before.formal);
        assert_eq!(s.rows[6][0].op(), before.op());
    }

    #[test]
    fn unify_rejects_mismatched_instances() {
        let mut s = vecmin_sched();
        let a = id_at(&s, 0);
        let b = id_at(&s, 1);
        assert_eq!(unify(&mut s, a, b), Err(MoveError::BadUnify));
    }

    #[test]
    fn split_candidates_finds_disjoining_positions() {
        let mut x = vecmin_sched().rows[6][0].clone();
        x.formal = PredicateMatrix::universe();
        let mut blocker = x.clone();
        blocker.formal = PredicateMatrix::single(0, 0, true);
        assert_eq!(split_candidates(&x, &blocker), vec![(0, 0)]);
        let same = split_candidates(&blocker, &blocker);
        assert!(same.is_empty());
    }

    #[test]
    fn break_cannot_pass_observable_store() {
        let kernel = psp_kernels::by_name("clamp_store").unwrap();
        let mut s = Schedule::initial(&kernel.spec);
        // Find BREAK (last row) and the STORE row.
        let break_row = s.n_rows() - 1;
        let brk = s.rows[break_row][0].id;
        let store_row = s
            .rows
            .iter()
            .position(|r| r.iter().any(|i| i.op().is_store()))
            .unwrap();
        // Moving BREAK above the store row must fail; to the store row
        // itself would be fine pairwise but is blocked by the flow from GE
        // anyway. Target one above the store:
        let r = moveup(&mut s, brk, store_row.saturating_sub(1), &m());
        assert!(r.is_err());
        let _ = CcReg(0);
        let _ = Reg(0);
    }
}
