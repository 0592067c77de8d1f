//! The four elementary transformations: moveup (including wrapping across
//! the loop boundary), movedown, split, and unify.
//!
//! All transformations are checked: they refuse to produce an incorrect
//! schedule. `moveup` applies the fixes demanded by the pair checks —
//! renaming (fresh destination plus a `COPY` left at the original slot) and
//! combining (folding crossed induction updates into memory displacements).
//!
//! Wrapping (`WrapUp`) is restricted to instances in row 0: the instance
//! leaves through the top of the schedule and re-enters at a fresh bottom
//! row with its operation index incremented and its predicate matrix
//! shifted one column right (paper §2), jumping over no other instance in
//! the unrolled timeline. Pipelining arises from alternating wraps and
//! compaction.

use crate::deps::{check_pair, flow_latency, is_flow, writes_read_by, Fix, PairCheck, Permission};
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
    /// A producer latency would be violated.
    Latency,
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
            MoveError::Latency => write!(f, "producer latency violated"),
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

/// The evolving state of an upward plan: the rewritten mover, the `COPY`
/// demanded by a rename (if any), and the combining keys already folded in.
/// Complementary clones of one original operation (same origin and index)
/// execute on disjoint paths: crossing several of them must apply their
/// positional compensation exactly once, which is what `combined_from`
/// tracks.
#[derive(Clone)]
struct PlanState {
    work: Instance,
    leftover: Option<Instance>,
    combined_from: Vec<(usize, i32)>,
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
        for (by, blocker, f) in fixes {
            match f {
                Fix::CombineDisp(d) => {
                    if !state.combined_from.contains(&blocker) {
                        state.combined_from.push(blocker);
                        disp = disp.wrapping_add(d);
                    }
                }
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
    /// new. The already-incorporated combines are recorded so jumped clones
    /// of the same update are not double-counted.
    fn own_row(&mut self, x: &Instance, r: usize) -> Result<PlanState, MoveError> {
        let mut state = PlanState {
            work: x.clone(),
            leftover: None,
            combined_from: Vec::new(),
        };
        let mut fixes: Vec<RowFix> = Vec::new();
        for y in &self.rows[r] {
            if y.id == x.id {
                continue;
            }
            let c = check_pair(&state.work, y, self.live_out, self.machine);
            match c.above {
                Permission::Yes => {}
                Permission::WithFixes(fs) => {
                    for f in fs {
                        match f {
                            Fix::Rename | Fix::SpeculateRename => {
                                fixes.push((y.id, (y.origin, y.index), f))
                            }
                            Fix::CombineDisp(_) => {
                                let key = (y.origin, y.index);
                                if !state.combined_from.contains(&key) {
                                    state.combined_from.push(key);
                                }
                            }
                            Fix::Subst { .. } => {}
                        }
                    }
                }
                Permission::No(reason) => return Err(MoveError::Blocked { by: y.id, reason }),
            }
        }
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
    /// instance demanding it and that instance's combining key; none
    /// means the row leaves the state as it is. Reads only.
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
                Permission::WithFixes(fs) => {
                    fixes.extend(fs.into_iter().map(|f| (y.id, (y.origin, y.index), f)))
                }
                Permission::No(reason) => return Err(MoveError::Blocked { by: y.id, reason }),
            }
        }
        Ok(fixes)
    }
}

/// A fix one row demands: the instance demanding it, that instance's
/// combining key `(origin, index)`, and the fix.
type RowFix = (InstId, (usize, i32), Fix);

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

/// Latency feasibility of `x` sitting at `row`, for every producer in the
/// schedule: program-order producers above supply within the iteration;
/// writers at or below supply across the back edge (previous transformed
/// iteration), including program-later writers whose previous instance
/// reaches `x`.
fn latency_ok(rows: &[Vec<Instance>], x: &Instance, row: usize, machine: &MachineConfig) -> bool {
    let n_rows = rows.len().max(row + 1);
    for (ry, r) in rows.iter().enumerate() {
        for y in r {
            // A one-cycle latency holds between any two rows (same-row
            // reads need none), so only slower producers can violate it.
            let lat = flow_latency(y, machine);
            if lat <= 1 || y.id == x.id || !writes_read_by(y, x) {
                continue;
            }
            if ry < row {
                // Same-iteration supply exists only for program-order
                // producers on overlapping paths.
                if row - ry < lat && is_flow(y, x) {
                    return false;
                }
            } else if ry > row {
                // The value crosses the back edge.
                if row + n_rows - ry < lat {
                    return false;
                }
            }
            // Same row: either forbidden by the pair checks (true flow) or
            // a pre-cycle read (no latency applies).
        }
    }
    true
}

/// Resource feasibility of adding `x` to `row`.
fn resource_ok(rows: &[Vec<Instance>], x: &Instance, row: usize, machine: &MachineConfig) -> bool {
    match rows.get(row) {
        Some(r) => row_fits(r, Some(x), machine),
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
    if !latency_ok(rows, moved, target, machine) {
        return Err(MoveError::Latency);
    }
    if let Some(copy) = &state.leftover {
        // The leftover copy consumes the renamed value at the original row.
        if cur - target < flow_latency(moved, machine) {
            return Err(MoveError::Latency);
        }
        // It also needs a slot there.
        if !resource_ok(rows, copy, cur, machine) {
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
            hi: 0,
            placed: true,
            rename_refused: true,
        });
    };
    let mut refusal = Refusal {
        lo: cur,
        hi: cur,
        placed: false,
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
        refusal.placed = true;
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
    /// Some landing reached [`placement_ok`], whose latency check reads
    /// every producer in the schedule.
    pub(crate) placed: bool,
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
        ..
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

    let bottom = sched.n_rows();
    if !latency_ok(&sched.rows, &moved, bottom, machine) {
        return Err(MoveError::Latency);
    }
    if let Some(copy) = &leftover {
        // The copy would sit in row 0 consuming a value produced at the
        // very bottom of the same iteration — one full loop behind, which
        // is exactly what renaming preserves; latency is n_rows ≥ 1.
        if sched.n_rows() < flow_latency(&moved, machine) {
            return Err(MoveError::Latency);
        }
        // And it needs a free slot there.
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
    // Consumers strictly below the new position keep their latency.
    for (rz, r) in sched.rows.iter().enumerate() {
        for z in r {
            if z.id != id && is_flow(&x, z) {
                let lat = flow_latency(&x, machine);
                if rz > target {
                    if rz - target < lat {
                        return Err(MoveError::Latency);
                    }
                } else if rz + sched.n_rows() - target < lat {
                    return Err(MoveError::Latency);
                }
            }
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

/// Remove empty rows, first to last, stopping at the first one whose stall
/// a flow latency needs (a schedule that already violates a latency keeps
/// every stall). Each removal is tested against the latency edges
/// `latency_ok` checks, collected once per call with their rows shifted
/// as stalls go, instead of re-checking every pair of the schedule.
pub fn prune_stalls(sched: &mut Schedule, machine: &MachineConfig) {
    let Some(mut empty) = sched.rows.iter().position(Vec::is_empty) else {
        return;
    };
    let mut edges = latency_edges(&sched.rows, machine);
    loop {
        // Rows below the stall move up one; the schedule loses one row.
        let up = |r: usize| if r > empty { r - 1 } else { r };
        let n_rows = sched.rows.len() - 1;
        if !edges.iter().all(|e| e.holds(up, n_rows)) {
            return; // keep remaining stalls
        }
        sched.rows.remove(empty);
        for e in &mut edges {
            e.producer = up(e.producer);
            e.consumer = up(e.consumer);
        }
        match sched.rows[empty..].iter().position(Vec::is_empty) {
            Some(p) => empty += p,
            None => return,
        }
    }
}

/// A producer → consumer pair whose latency [`latency_ok`] checks.
struct LatencyEdge {
    producer: usize,
    consumer: usize,
    latency: usize,
}

impl LatencyEdge {
    /// Whether the consumer still issues at least `latency` cycles after
    /// the producer once rows are renumbered by `up` in a schedule of
    /// `n_rows` rows (within the iteration, or across the back edge).
    fn holds(&self, up: impl Fn(usize) -> usize, n_rows: usize) -> bool {
        let (p, c) = (up(self.producer), up(self.consumer));
        let distance = if p < c { c - p } else { c + n_rows - p };
        distance >= self.latency
    }
}

/// Every latency edge [`latency_ok`] can find violated: a producer slower
/// than one cycle in another row than its reader, supplying it within the
/// iteration if above it and a program-order flow, across the back edge if
/// below it.
fn latency_edges(rows: &[Vec<Instance>], machine: &MachineConfig) -> Vec<LatencyEdge> {
    let mut edges = Vec::new();
    for (rx, row_x) in rows.iter().enumerate() {
        for x in row_x {
            for (ry, row_y) in rows.iter().enumerate() {
                if ry == rx {
                    continue;
                }
                for y in row_y {
                    let latency = flow_latency(y, machine);
                    if latency > 1 && writes_read_by(y, x) && (ry > rx || is_flow(y, x)) {
                        edges.push(LatencyEdge {
                            producer: ry,
                            consumer: rx,
                            latency,
                        });
                    }
                }
            }
        }
    }
    edges
}

/// The stall pruning the latency edge list replaced, kept as the test
/// reference for [`prune_stalls`]: remove the first empty row, re-check
/// every latency in the schedule, and put the row back on a violation.
#[cfg(test)]
pub(crate) fn prune_stalls_reference(sched: &mut Schedule, machine: &MachineConfig) {
    while let Some(empty) = sched.rows.iter().position(Vec::is_empty) {
        let stall = sched.rows.remove(empty);
        if latency_violation(&sched.rows, machine).is_some() {
            sched.rows.insert(empty, stall);
            return; // keep remaining stalls
        }
    }
}

/// The first instance, in schedule order, whose flow latency is violated.
fn latency_violation(rows: &[Vec<Instance>], machine: &MachineConfig) -> Option<InstId> {
    rows.iter().enumerate().find_map(|(r, row)| {
        row.iter()
            .find(|x| !latency_ok(rows, x, r, machine))
            .map(|x| x.id)
    })
}

/// Check every flow latency in the schedule (used by tests and debugging).
pub fn validate_latencies(sched: &Schedule, machine: &MachineConfig) -> Result<(), String> {
    match latency_violation(&sched.rows, machine) {
        Some(id) => Err(format!("latency violated at instance {}", id.0)),
        None => Ok(()),
    }
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
        prune_stalls(&mut s, &m());
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
            Err(MoveError::Blocked { .. }) | Err(MoveError::Latency)
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
    fn prune_stalls_keeps_latency_gaps() {
        let slow = MachineConfig {
            load_latency: 3,
            ..m()
        };
        let kernel = psp_kernels::by_name("vecmin").unwrap();
        let mut s = Schedule::initial(&kernel.spec);
        // Empty a row between LOAD and LT by moving LOAD xm into row 0.
        let id = id_at(&s, 1);
        moveup(&mut s, id, 0, &slow).unwrap();
        assert!(s.rows[1].is_empty());
        // With load latency 3 the stall must be kept (LT at row 2 needs
        // LOAD + 3 ≤ … wait: LT at row 2 already violates? LOAD row 0 +
        // 3 > 2 — the initial schedule with this machine would itself be
        // invalid; use unit-latency machine to check pruning works, and a
        // synthetic gap for keeping.
        let mut s2 = vecmin_sched();
        let id2 = id_at(&s2, 1);
        moveup(&mut s2, id2, 0, &m()).unwrap();
        let before = s2.n_rows();
        prune_stalls(&mut s2, &m());
        assert_eq!(s2.n_rows(), before - 1);
        let _ = s;
    }

    /// The paper machine with two-cycle loads.
    fn slow_loads() -> MachineConfig {
        MachineConfig {
            load_latency: 2,
            ..m()
        }
    }

    /// The initial schedule of a straight-line body, with an empty row
    /// inserted at each of `stalls` (row numbers of the result, ascending).
    fn with_stalls(spec: &psp_ir::LoopSpec, stalls: &[usize]) -> Schedule {
        let mut s = Schedule::initial(spec);
        for &r in stalls {
            s.rows.insert(r, Vec::new());
        }
        s
    }

    /// Prune `s`, check the result against the reference pruning, and
    /// check that every stall left is one a latency needs.
    fn prune_and_check(mut s: Schedule, machine: &MachineConfig) -> Schedule {
        let mut reference = s.clone();
        prune_stalls_reference(&mut reference, machine);
        prune_stalls(&mut s, machine);
        assert_eq!(s.render(), reference.render());
        if let Some(empty) = s.rows.iter().position(Vec::is_empty) {
            let mut without = s.clone();
            without.rows.remove(empty);
            assert!(validate_latencies(&without, machine).is_err(), "\n{s}");
        }
        s
    }

    #[test]
    fn prune_stalls_stops_at_the_first_needed_stall() {
        // LOAD a; LOAD c; s = a + c — with a stall after each load. The
        // first stall is slack (a stays three cycles ahead of its use); the
        // second is what gives c its two cycles.
        let mut b = psp_ir::LoopBuilder::new("two_loads");
        let x = b.array("x");
        let k = b.named_reg("k");
        let s_reg = b.named_reg("s");
        let (a, c) = (b.reg(), b.reg());
        b.op(build::load(a, x, k));
        b.op(build::load(c, x, k));
        b.op(build::add(s_reg, a, c));
        let spec = b.finish([k, s_reg], [s_reg]);
        let machine = slow_loads();
        let s = prune_and_check(with_stalls(&spec, &[1, 3]), &machine);
        assert_eq!(s.n_rows(), 4, "\n{s}");
        assert!(s.rows[2].is_empty(), "\n{s}");
        validate_latencies(&s, &machine).unwrap();
    }

    #[test]
    fn prune_stalls_keeps_a_stall_needed_across_the_back_edge() {
        // s = s + a reads the a loaded one row below it in the previous
        // iteration: only the trailing stall gives that load two cycles.
        let mut b = psp_ir::LoopBuilder::new("carried");
        let x = b.array("x");
        let k = b.named_reg("k");
        let s_reg = b.named_reg("s");
        let a = b.named_reg("a");
        b.op(build::add(s_reg, s_reg, a));
        b.op(build::load(a, x, k));
        let spec = b.finish([k, s_reg, a], [s_reg]);
        let machine = slow_loads();
        let s = prune_and_check(with_stalls(&spec, &[2]), &machine);
        assert_eq!(s.n_rows(), 3, "\n{s}");
        validate_latencies(&s, &machine).unwrap();
        // On unit latencies the same stall goes.
        let s = prune_and_check(with_stalls(&spec, &[2]), &m());
        assert_eq!(s.n_rows(), 2, "\n{s}");
    }

    #[test]
    fn prune_stalls_keeps_every_stall_of_a_violating_schedule() {
        // The load's consumer sits right below it: the schedule already
        // violates the two-cycle latency, so no removal is accepted.
        let mut b = psp_ir::LoopBuilder::new("violating");
        let x = b.array("x");
        let k = b.named_reg("k");
        let s_reg = b.named_reg("s");
        let a = b.reg();
        b.op(build::load(a, x, k));
        b.op(build::add(s_reg, s_reg, a));
        b.op(build::add(k, k, 1i64));
        let spec = b.finish([k, s_reg], [s_reg]);
        let machine = slow_loads();
        let before = with_stalls(&spec, &[2, 4]);
        assert!(validate_latencies(&before, &machine).is_err());
        let s = prune_and_check(before.clone(), &machine);
        assert_eq!(s.render(), before.render());
        assert!(validate_latencies(&s, &machine).is_err());
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
