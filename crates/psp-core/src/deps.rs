//! Pairwise legality of instance reorderings.
//!
//! [`check_pair`] answers, for a moving instance `x` and a stationary
//! instance `y` *expressed in the same iteration frame*: may `x` be placed
//! strictly above `y`, and may it share `y`'s cycle? Possible answers are
//! yes, yes-with-fix (renaming the moved definition, or combining an
//! induction update into a memory displacement), or no.
//!
//! The paper's central efficiency rule comes first: instances with
//! *disjoined* predicate matrices lie on different formal paths and are
//! never tested for data or control dependence at all.
//!
//! Cycle-sharing semantics follow the tree-VLIW model: reads see pre-cycle
//! state (so anti-dependences allow cycle sharing), an operation may share
//! a cycle with the IF resolving its control dependence (executing on the
//! matching subtree), and a `BREAK` exits only at end of cycle (so
//! observable operations ordered before it may share its cycle).

use crate::instance::Instance;
use psp_ir::{mem_access, AccessKind, AluOp, OpKind, Operand, Reg, RegRef};
use psp_machine::MachineConfig;

/// A fix that makes an otherwise illegal reordering legal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fix {
    /// Rename the moved instance's destination register and leave a copy
    /// at its original slot (Moon & Ebcioglu-style renaming).
    Rename,
    /// Add the induction update's stride to the moved memory operation's
    /// address displacement (the paper's "combining").
    CombineDisp(i64),
    /// Copy-propagation combining: the mover crosses `COPY from, to`'s
    /// definition and reads `to` directly instead (legal when the copy
    /// executes on every formal path of the mover).
    Subst {
        /// Register the mover currently reads (the copy's destination).
        from: Reg,
        /// Register it reads after the substitution (the copy's source).
        to: Reg,
    },
    /// Like [`Fix::Rename`], but required because the mover crosses the IF
    /// computing one of its controlling predicates — it becomes
    /// *speculative*. Kept distinct so policies can allow data renaming
    /// while refusing speculation.
    SpeculateRename,
}

/// Verdict for one placement question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Permission {
    /// Legal as is.
    Yes,
    /// Legal if the fixes are applied to the moving instance.
    WithFixes(Vec<Fix>),
    /// Illegal.
    No(&'static str),
}

impl Permission {
    /// Merge two independent requirements.
    fn and(self, other: Permission) -> Permission {
        match (self, other) {
            (Permission::No(r), _) | (_, Permission::No(r)) => Permission::No(r),
            (Permission::Yes, b) => b,
            (a, Permission::Yes) => a,
            (Permission::WithFixes(mut a), Permission::WithFixes(b)) => {
                for f in b {
                    match f {
                        // Combines and substitutions accumulate (crossing
                        // several producers); renames collapse to one.
                        Fix::CombineDisp(_) | Fix::Subst { .. } => a.push(f),
                        Fix::Rename | Fix::SpeculateRename if !a.contains(&f) => a.push(f),
                        _ => {}
                    }
                }
                Permission::WithFixes(a)
            }
        }
    }

    /// Whether the placement is possible at all.
    pub fn allowed(&self) -> bool {
        !matches!(self, Permission::No(_))
    }
}

/// Answers for "x above y" and "x in the same cycle as y".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairCheck {
    /// x strictly above y.
    pub above: Permission,
    /// x in y's cycle.
    pub same: Permission,
}

impl PairCheck {
    fn free() -> Self {
        Self {
            above: Permission::Yes,
            same: Permission::Yes,
        }
    }

    fn and(self, other: PairCheck) -> Self {
        Self {
            above: self.above.and(other.above),
            same: self.same.and(other.same),
        }
    }
}

/// Whether `y` is an induction update `r = r ± imm` whose stride can be
/// folded into `x`'s address displacement when `x` moves above it.
fn combine_stride(y: &Instance, x: &Instance) -> Option<i64> {
    let (r, stride) = match y.op.kind {
        OpKind::Alu {
            op: AluOp::Add,
            dst,
            a: Operand::Reg(s),
            b: Operand::Imm(c),
        } if dst == s => (dst, c),
        OpKind::Alu {
            op: AluOp::Add,
            dst,
            a: Operand::Imm(c),
            b: Operand::Reg(s),
        } if dst == s => (dst, c),
        OpKind::Alu {
            op: AluOp::Sub,
            dst,
            a: Operand::Reg(s),
            b: Operand::Imm(c),
        } if dst == s => (dst, -c),
        _ => return None,
    };
    // x must use r exclusively as a memory index.
    match x.op.kind {
        OpKind::Load { addr, dst } if addr.index == Some(r) && dst != r => Some(stride),
        OpKind::Store { addr, src } if addr.index == Some(r) && src != Operand::Reg(r) => {
            Some(stride)
        }
        _ => None,
    }
}

/// Whether `y` is a register-to-register copy whose destination `x` reads,
/// such that `x` may read the source directly after crossing above `y`.
///
/// Legality requires the copy to execute on every formal path of the mover
/// (`y.formal ⊇ x.formal`): on exactly those paths the copied value *is*
/// the source's value at the copy's cycle, and crossing rows is handled
/// compositionally by the mover's planning loop (any redefinition of the
/// source between the new and old position is itself crossed and fixed or
/// refused).
fn copy_subst(y: &Instance, x: &Instance) -> Option<(Reg, Reg)> {
    if let OpKind::Copy {
        dst,
        src: Operand::Reg(s),
    } = y.op.kind
    {
        if x.op.uses().contains(&RegRef::Gpr(dst)) && y.formal.subsumes(&x.formal) {
            return Some((dst, s));
        }
    }
    None
}

/// Full pair check; `x` is the mover.
pub fn check_pair(
    x: &Instance,
    y: &Instance,
    live_out: &[RegRef],
    machine: &MachineConfig,
) -> PairCheck {
    // Disjoined matrices: no dependence testing at all (paper §2).
    if x.formal.is_disjoint(&y.formal) {
        return PairCheck::free();
    }

    let mut check = PairCheck::free();
    let x_defs = x.op.defs();
    let x_uses = x.op.uses();
    let y_defs = y.op.defs();
    let y_uses = y.op.uses();
    // Original program order decides the *kind* of each register relation:
    // the same def/use overlap is a true dependence one way and an
    // anti-dependence the other. Leftover copies from renaming inherit
    // their origin, so program-later definitions never masquerade as
    // producers for program-earlier readers.
    let x_first = x.prog_order() < y.prog_order();

    // y defines a register x reads.
    if y_defs.iter().any(|d| x_uses.contains(d)) {
        if x_first {
            // Program anti x → y: x reads before y overwrites. Moving x
            // above (or beside — reads see pre-cycle state) restores
            // program order. Free.
        } else {
            // Program flow y → x: x consumes y's value. Combining and copy
            // substitution legalize both crossing *and* cycle sharing: the
            // rewritten operand reads pre-cycle state, which holds exactly
            // the value the producer sees/copies in that cycle.
            let (above, same) = if let Some(c) = combine_stride(y, x) {
                (
                    Permission::WithFixes(vec![Fix::CombineDisp(c)]),
                    Permission::WithFixes(vec![Fix::CombineDisp(c)]),
                )
            } else if let Some((from, to)) = copy_subst(y, x) {
                (
                    Permission::WithFixes(vec![Fix::Subst { from, to }]),
                    Permission::WithFixes(vec![Fix::Subst { from, to }]),
                )
            } else {
                (
                    Permission::No("true dependence"),
                    Permission::No("producer latency"),
                )
            };
            check = check.and(PairCheck { above, same });
        }
    }

    // y reads a register x defines.
    if y_uses.iter().any(|u| x_defs.contains(u)) {
        // Program anti y → x (x later): renaming the moved definition
        // legalizes going above; sharing a cycle is free (pre-cycle reads).
        // Program flow x → y (x earlier): y is consuming x's
        // previous-iteration value through this register; moving x above
        // would change that to the same-iteration value — renaming with a
        // leftover copy preserves the old reaching definition. Same fix,
        // same cycle-sharing freedom, in both directions.
        let fix = rename_permission(x, live_out);
        check = check.and(PairCheck {
            above: fix,
            same: Permission::Yes,
        });
    }

    // Both define the same register.
    if y_defs.iter().any(|d| x_defs.contains(d)) {
        let fix = rename_permission(x, live_out);
        let above = if x_first {
            // Moving x above restores program write order.
            Permission::Yes
        } else {
            fix.clone()
        };
        check = check.and(PairCheck {
            above,
            // Same-cycle double writes conflict regardless of order.
            same: fix,
        });
    }

    // Control: y computes a predicate x's formal matrix constrains.
    if let Some(if_row) = y.computes_if {
        if x.formal.get(if_row, y.index).is_constrained() {
            let above = if !x.op.is_speculable() {
                Permission::No("operation may not execute speculatively")
            } else if matches!(x.op.kind, OpKind::Load { .. }) && !machine.speculative_loads {
                Permission::No("speculative loads disabled")
            } else {
                // Speculative execution writes x's destination on paths
                // outside its formal set; renaming confines the effect.
                match rename_permission(x, live_out) {
                    Permission::WithFixes(_) => Permission::WithFixes(vec![Fix::SpeculateRename]),
                    Permission::Yes => Permission::WithFixes(vec![Fix::SpeculateRename]),
                    no => no,
                }
            };
            check = check.and(PairCheck {
                above,
                // Same cycle: x sits on the matching subtree of the tree
                // instruction (a guard at code generation).
                same: Permission::Yes,
            });
        }
    }
    // x is an IF: it may never become speculative with respect to its own
    // controlling predicates (paper §2) — handled above since IFs are not
    // speculable. Nothing extra here.

    // Memory.
    if let (Some(ax), Some(ay)) = (mem_access(&x.op), mem_access(&y.op)) {
        if ax.interferes(&ay) {
            let delta = (x.index - y.index) as i64;
            // Strides: the only registers appearing as indices in scheduled
            // code are unit inductions (the scheduler folds everything else
            // conservatively); derive from y/x themselves is impossible
            // here, so use the conservative "unknown" unless the addresses
            // match syntactically.
            let alias = ax.may_alias(&ay, delta, |_| None) || ax.may_alias(&ay, delta, |_| Some(0));
            if alias {
                let perm = match (ay.kind, ax.kind) {
                    (AccessKind::Write, AccessKind::Read) if !x_first => PairCheck {
                        above: Permission::No("load may not pass aliasing store"),
                        same: Permission::No("load may not share a cycle with aliasing store"),
                    },
                    // Program-earlier load moving back above a later store:
                    // restores order (same cycle reads pre-cycle memory).
                    (AccessKind::Write, AccessKind::Read) => PairCheck::free(),
                    (AccessKind::Read, AccessKind::Write) if !x_first => PairCheck {
                        above: Permission::No("store may not pass aliasing load"),
                        same: Permission::Yes, // load reads pre-cycle memory
                    },
                    // Program-earlier store under a later load: the load is
                    // consuming the previous-iteration store; moving the
                    // store above would redirect it to this iteration's.
                    (AccessKind::Read, AccessKind::Write) => PairCheck {
                        above: Permission::No("store may not pass its cross-iteration consumer"),
                        same: Permission::Yes,
                    },
                    (AccessKind::Write, AccessKind::Write) => PairCheck {
                        above: Permission::No("stores to aliasing addresses keep order"),
                        same: Permission::No("aliasing stores may not share a cycle"),
                    },
                    (AccessKind::Read, AccessKind::Read) => PairCheck::free(),
                };
                check = check.and(perm);
            }
        }
    }

    // BREAK protocol, in original program order.
    let x_first = x.prog_order() < y.prog_order();
    if y.op.is_break() && !x_first {
        if x.is_observable(live_out) {
            // Program: BREAK, then x. x must stay strictly below.
            check = check.and(PairCheck {
                above: Permission::No("observable op may not pass a loop exit"),
                same: Permission::No("observable op may not share the exit's cycle"),
            });
        }
        if x.op.is_break() {
            check = check.and(PairCheck {
                above: Permission::No("loop exits keep their order"),
                same: Permission::Yes,
            });
        }
    }
    if x.op.is_break() && x_first {
        // Program: x (BREAK), then y. Moving the BREAK above y is a
        // reordering *towards* program order — but y observable must not
        // end up in or after the exit's cycle… y is stationary below, so
        // the exit would fire before y executes, which is exactly the
        // original semantics. Fine.
    }
    if x.op.is_break() && !x_first && y.is_observable(live_out) {
        // Program: y (observable), then x (BREAK). y must have executed by
        // the time the exit fires: same cycle is fine (exit at end of
        // cycle), above is not.
        check = check.and(PairCheck {
            above: Permission::No("loop exit may not pass an observable op"),
            same: Permission::Yes,
        });
    }
    if !x.op.is_break() && x_first && y.op.is_break() && x.is_observable(live_out) {
        // Program: x (observable), then y (BREAK); x currently below is
        // already wrong-side — moving it above or into y's cycle restores
        // order.
        // (No constraint: both placements are legal.)
    }

    check
}

/// Renaming permission for the mover: only single-GPR definitions can be
/// renamed (there is no condition-register copy operation). Renaming a
/// `COPY` is refused — it merely replaces one copy by another at the
/// original slot, seeding unbounded copy chains; consumers reach through
/// copies via substitution instead. The leftover copy preserves the
/// architectural value at the original program point, so live-out
/// destinations are safe to rename.
fn rename_permission(x: &Instance, live_out: &[RegRef]) -> Permission {
    let _ = live_out;
    if matches!(x.op.kind, OpKind::Copy { .. }) {
        return Permission::No("copies are never renamed");
    }
    match x.op.defs().as_slice() {
        [RegRef::Gpr(_)] => Permission::WithFixes(vec![Fix::Rename]),
        [RegRef::Cc(_)] => Permission::No("condition-register definitions cannot be renamed"),
        [] => Permission::Yes,
        _ => Permission::No("multi-definition operations cannot be renamed"),
    }
}

/// Producer latency check helper: the earliest row `x` may occupy given a
/// flow producer `y` at `row_y` (same iteration frame).
pub fn flow_latency(y: &Instance, machine: &MachineConfig) -> usize {
    machine.latency(&y.op) as usize
}

/// Whether `y` produces a register value that `x` consumes *in program
/// order* (y precedes x and their path sets overlap).
pub fn is_flow(y: &Instance, x: &Instance) -> bool {
    if x.formal.is_disjoint(&y.formal) {
        return false;
    }
    if y.prog_order() >= x.prog_order() {
        return false;
    }
    let x_uses = x.op.uses();
    y.op.defs().iter().any(|d| x_uses.contains(d))
}

/// Whether `y` defines a register that `x` reads, regardless of program
/// order — the conservative relation used for latency accounting (a
/// consumer must issue at least the producer's latency after *any* write
/// that may reach it, including cross-iteration supplies).
pub fn writes_read_by(y: &Instance, x: &Instance) -> bool {
    let x_uses = x.op.uses();
    y.op.defs().iter().any(|d| x_uses.contains(d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstId;
    use psp_ir::op::build::*;
    use psp_ir::{ArrayId, CcReg, CmpOp};
    use psp_predicate::PredicateMatrix;

    fn inst(op: psp_ir::Operation, origin: usize) -> Instance {
        Instance {
            id: InstId(origin as u64),
            op,
            index: 0,
            formal: PredicateMatrix::universe(),
            computes_if: None,
            origin,
            late: 0,
            snapshots: Vec::new(),
        }
    }

    fn m() -> MachineConfig {
        MachineConfig::paper_default()
    }

    #[test]
    fn disjoint_instances_are_free() {
        let mut a = inst(copy(Reg(0), 1i64), 0);
        a.formal = PredicateMatrix::single(0, 0, true);
        let mut b = inst(copy(Reg(0), 2i64), 1);
        b.formal = PredicateMatrix::single(0, 0, false);
        let c = check_pair(&b, &a, &[], &m());
        assert_eq!(c, PairCheck::free());
    }

    #[test]
    fn flow_blocks_above_and_same() {
        let y = inst(add(Reg(0), Reg(1), 1i64), 0);
        let x = inst(copy(Reg(2), Reg(0)), 1);
        let c = check_pair(&x, &y, &[], &m());
        assert!(!c.above.allowed());
        assert!(!c.same.allowed());
    }

    #[test]
    fn combining_legalizes_crossing_an_induction_update() {
        let y = inst(add(Reg(0), Reg(0), 1i64), 5); // k = k + 1
        let x = inst(load(Reg(2), ArrayId(0), Reg(0)), 6);
        let c = check_pair(&x, &y, &[], &m());
        assert_eq!(c.above, Permission::WithFixes(vec![Fix::CombineDisp(1)]));
        // A non-memory consumer cannot combine.
        let x2 = inst(cmp(CmpOp::Ge, CcReg(1), Reg(0), Reg(3)), 6);
        let c2 = check_pair(&x2, &y, &[], &m());
        assert!(!c2.above.allowed());
    }

    #[test]
    fn anti_allows_same_cycle_and_rename_above() {
        let y = inst(copy(Reg(2), Reg(0)), 0); // reads R0
        let x = inst(add(Reg(0), Reg(3), 1i64), 1); // writes R0
        let c = check_pair(&x, &y, &[], &m());
        assert_eq!(c.same, Permission::Yes);
        assert_eq!(c.above, Permission::WithFixes(vec![Fix::Rename]));
    }

    #[test]
    fn output_requires_rename_even_same_cycle() {
        let y = inst(copy(Reg(0), 1i64), 0);
        let x = inst(add(Reg(0), Reg(1), 2i64), 1);
        let c = check_pair(&x, &y, &[], &m());
        assert_eq!(c.above, Permission::WithFixes(vec![Fix::Rename]));
        assert_eq!(c.same, Permission::WithFixes(vec![Fix::Rename]));
    }

    #[test]
    fn copies_are_never_renamed() {
        // Renaming a copy only spawns another copy: refused.
        let y = inst(copy(Reg(0), 1i64), 0);
        let x = inst(copy(Reg(0), 2i64), 1);
        let c = check_pair(&x, &y, &[], &m());
        assert!(!c.above.allowed());
        assert!(!c.same.allowed());
        // But a program-earlier copy moving back above is free on the
        // output side (restores write order).
        let c = check_pair(&y.clone(), &x, &[], &m());
        let _ = c;
    }

    #[test]
    fn cc_defs_cannot_rename() {
        let y = inst(if_(CcReg(0)), 0); // uses CC0
        let x = inst(cmp(CmpOp::Lt, CcReg(0), Reg(0), Reg(1)), 1); // writes CC0
        let c = check_pair(&x, &y, &[], &m());
        assert!(!c.above.allowed());
        assert_eq!(c.same, Permission::Yes); // anti: IF reads pre-cycle CC
    }

    #[test]
    fn control_dependence_speculation() {
        let mut y = inst(if_(CcReg(0)), 3);
        y.computes_if = Some(0);
        // Speculable consumer constrained on the predicate.
        let mut x = inst(add(Reg(3), Reg(2), 0i64), 4);
        x.formal = PredicateMatrix::single(0, 0, true);
        let c = check_pair(&x, &y, &[], &m());
        assert_eq!(c.above, Permission::WithFixes(vec![Fix::SpeculateRename]));
        assert_eq!(c.same, Permission::Yes, "tree instruction subtree");
        // A store on the predicate may not speculate.
        let mut st = inst(store(ArrayId(0), Reg(1), Reg(2)), 4);
        st.formal = PredicateMatrix::single(0, 0, true);
        let c = check_pair(&st, &y, &[], &m());
        assert!(!c.above.allowed());
        assert_eq!(c.same, Permission::Yes);
        // Speculative loads can be disabled.
        let mut ld = inst(load(Reg(3), ArrayId(0), Reg(1)), 4);
        ld.formal = PredicateMatrix::single(0, 0, true);
        let no_spec = MachineConfig {
            speculative_loads: false,
            ..m()
        };
        assert!(!check_pair(&ld, &y, &[], &no_spec).above.allowed());
        assert!(check_pair(&ld, &y, &[], &m()).above.allowed());
    }

    #[test]
    fn ifs_never_speculative() {
        let mut y = inst(if_(CcReg(0)), 3);
        y.computes_if = Some(0);
        let mut x = inst(if_(CcReg(1)), 5);
        x.computes_if = Some(1);
        x.formal = PredicateMatrix::single(0, 0, false);
        let c = check_pair(&x, &y, &[], &m());
        assert!(!c.above.allowed());
        assert_eq!(c.same, Permission::Yes);
    }

    #[test]
    fn unrelated_if_crossing_is_free() {
        // "This does not mean that we prohibit moving IFs across unrelated
        // IFs" (paper §2).
        let mut y = inst(if_(CcReg(0)), 3);
        y.computes_if = Some(0);
        let mut x = inst(if_(CcReg(1)), 5);
        x.computes_if = Some(1);
        let c = check_pair(&x, &y, &[], &m());
        assert_eq!(c, PairCheck::free());
    }

    #[test]
    fn memory_ordering() {
        let st = inst(store(ArrayId(0), Reg(0), Reg(1)), 0);
        let ld = inst(load(Reg(2), ArrayId(0), Reg(0)), 1);
        // Load moving above aliasing store: never.
        let c = check_pair(&ld, &st, &[], &m());
        assert!(!c.above.allowed());
        assert!(!c.same.allowed());
        // Store moving above aliasing load: same cycle fine.
        let c = check_pair(&st, &ld, &[], &m());
        assert!(!c.above.allowed());
        assert_eq!(c.same, Permission::Yes);
        // Different arrays: free.
        let ld2 = inst(load(Reg(2), ArrayId(1), Reg(0)), 1);
        assert_eq!(check_pair(&ld2, &st, &[], &m()), PairCheck::free());
    }

    #[test]
    fn break_protocol() {
        let live_out = vec![RegRef::Gpr(Reg(5))];
        let brk = inst(break_(CcReg(1)), 3);
        // Observable after the break in program order.
        let obs = inst(copy(Reg(5), Reg(1)), 4);
        let c = check_pair(&obs, &brk, &live_out, &m());
        assert!(!c.above.allowed());
        assert!(!c.same.allowed());
        // Scratch op passes freely.
        let scratch = inst(copy(Reg(6), Reg(1)), 4);
        assert_eq!(
            check_pair(&scratch, &brk, &live_out, &m()),
            PairCheck::free()
        );
        // Break moving up to an observable that precedes it in program
        // order: same cycle ok, above not.
        let obs_before = inst(store(ArrayId(0), Reg(0), Reg(1)), 2);
        let c = check_pair(&brk, &obs_before, &live_out, &m());
        assert!(!c.above.allowed());
        assert_eq!(c.same, Permission::Yes);
    }

    #[test]
    fn break_order_between_iterations() {
        // BREAK(0) precedes a wrapped observable with index 1.
        let live_out = vec![RegRef::Gpr(Reg(5))];
        let brk = inst(break_(CcReg(1)), 7);
        let mut obs = inst(copy(Reg(5), Reg(1)), 2);
        obs.index = 1; // next original iteration: later in program order
        let c = check_pair(&obs, &brk, &live_out, &m());
        assert!(!c.above.allowed(), "wrap of a live-out def past the exit");
    }

    #[test]
    fn is_flow_helper() {
        let y = inst(add(Reg(0), Reg(1), 1i64), 0);
        let x = inst(copy(Reg(2), Reg(0)), 1);
        assert!(is_flow(&y, &x));
        assert!(!is_flow(&x, &y));
    }
}
