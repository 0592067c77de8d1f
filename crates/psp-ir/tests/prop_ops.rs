//! Property tests for operation algebra: the register map, renaming and
//! def/use reporting must agree, and opcode evaluation must match a direct
//! i64 model.

#[path = "../../psp-kernels/tests/cases/mod.rs"]
mod cases;
mod strategies;

use cases::check_cases;
use psp_ir::{AluOp, CcReg, CmpOp, Guard, OpKind, Operand, Operation, Reg, RegList, RegRef, Role};
use strategies::*;

/// The executable spec of `Operation::uses`: the `Vec`-based computation
/// it replaced.
fn uses_spec(op: &Operation) -> Vec<RegRef> {
    let gpr = |o: Operand| o.reg().map(RegRef::Gpr);
    let cc = |c| Some(RegRef::Cc(c));
    let mut out: Vec<RegRef> = match op.kind {
        OpKind::Alu { a, b, .. } | OpKind::Cmp { a, b, .. } => vec![gpr(a), gpr(b)],
        OpKind::Copy { src, .. } => vec![gpr(src)],
        OpKind::Select {
            cc: c,
            on_true: t,
            on_false: f,
            ..
        } => vec![cc(c), gpr(t), gpr(f)],
        OpKind::Load { addr, .. } => vec![addr.index.map(RegRef::Gpr)],
        OpKind::Store { src, addr } => vec![gpr(src), addr.index.map(RegRef::Gpr)],
        OpKind::CcAnd { a, b, .. } => vec![cc(a), cc(b)],
        OpKind::If { cc: c } | OpKind::Break { cc: c } => vec![cc(c)],
    }
    .into_iter()
    .chain([op.guard.map(|g| RegRef::Cc(g.cc))])
    .flatten()
    .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Rename GPR `from` to `to` in every slot.
fn renamed_gpr(op: &Operation, from: Reg, to: Reg) -> Operation {
    op.map_regs(|r, _| if r == from { to } else { r }, |c, _| c)
}

/// Rename CC register `from` to `to` in every slot.
fn renamed_cc(op: &Operation, from: CcReg, to: CcReg) -> Operation {
    op.map_regs(|r, _| r, |c, _| if c == from { to } else { c })
}

/// The registers `map_regs` visits in `role`, sorted and deduplicated.
fn visited(op: &Operation, role: Role) -> Vec<RegRef> {
    let (mut gprs, mut ccs) = (Vec::new(), Vec::new());
    op.map_regs(
        |r, got| {
            if got == role {
                gprs.push(RegRef::Gpr(r));
            }
            r
        },
        |c, got| {
            if got == role {
                ccs.push(RegRef::Cc(c));
            }
            c
        },
    );
    let mut out: Vec<RegRef> = gprs.into_iter().chain(ccs).collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[test]
fn map_regs_roles_match_defs_and_uses() {
    check_cases("map_regs_roles_match_defs_and_uses", None, |rng| {
        let op = any_op(rng);
        assert_eq!(visited(&op, Role::Def), op.defs().to_vec());
        assert_eq!(visited(&op, Role::Use), op.uses().to_vec());
    });
}

#[test]
fn identity_map_returns_the_operation_unchanged() {
    let name = "identity_map_returns_the_operation_unchanged";
    check_cases(name, None, |rng| {
        let op = any_op(rng);
        assert_eq!(op.map_regs(|r, _| r, |c, _| c), op);
        assert_eq!(op.try_map_regs::<()>(|r, _| Ok(r), |c, _| Ok(c)), Ok(op));
    });
}

#[test]
fn reg_lists_are_sorted_deduplicated_and_match_the_vec_spec() {
    let name = "reg_lists_are_sorted_deduplicated_and_match_the_vec_spec";
    check_cases(name, None, |rng| {
        let op = any_op(rng);
        let uses = op.uses();
        assert!(uses.len() <= RegList::CAPACITY);
        assert!(
            uses.windows(2).all(|w| w[0] < w[1]),
            "sorted, no duplicates"
        );
        assert_eq!(uses, uses_spec(&op));
        assert!(op.defs().len() <= 1);
    });
}

#[test]
fn rename_gpr_is_consistent_with_defs_uses() {
    check_cases("rename_gpr_is_consistent_with_defs_uses", None, |rng| {
        let (op, from, to) = (any_op(rng), reg(rng), Reg(int(rng, 10, 14) as u32));
        let renamed = renamed_gpr(&op, from, to);
        // After renaming, `from` appears nowhere.
        assert!(!renamed.defs().contains(&RegRef::Gpr(from)));
        assert!(!renamed.uses().contains(&RegRef::Gpr(from)));
        // Registers unrelated to the rename are untouched.
        let kept = |regs: RegList, now: RegList| {
            regs.iter()
                .all(|r| *r == RegRef::Gpr(from) || now.contains(r))
        };
        assert!(kept(op.defs(), renamed.defs()) && kept(op.uses(), renamed.uses()));
        // Renaming to a fresh register is reversible.
        assert_eq!(renamed_gpr(&renamed, to, from), op);
    });
}

#[test]
fn uses_only_rename_preserves_destination() {
    check_cases("uses_only_rename_preserves_destination", None, |rng| {
        let (op, from, to) = (any_op(rng), reg(rng), Reg(20));
        let rename = |r: Reg, role: Role| {
            if (r, role) == (from, Role::Use) {
                to
            } else {
                r
            }
        };
        let renamed = op.map_regs(rename, |c, _| c);
        assert_eq!(renamed.defs(), op.defs(), "destination untouched");
        assert!(
            !renamed.uses().contains(&RegRef::Gpr(from)),
            "source still used"
        );
    });
}

#[test]
fn rename_cc_is_consistent() {
    check_cases("rename_cc_is_consistent", None, |rng| {
        let (op, from, to) = (any_op(rng), CcReg(rng.below(3) as u32), CcReg(9));
        let renamed = renamed_cc(&op, from, to);
        assert!(!renamed.defs().contains(&RegRef::Cc(from)));
        assert!(!renamed.uses().contains(&RegRef::Cc(from)));
        assert_eq!(renamed.defs().len(), op.defs().len());
        assert_eq!(renamed.uses().len(), op.uses().len());
    });
}

#[test]
fn alu_eval_matches_model() {
    check_cases("alu_eval_matches_model", None, |rng| {
        let (op, a, b) = (alu(rng), int(rng, -1000, 1000), int(rng, -1000, 1000));
        let model = match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Min => std::cmp::min(a, b),
            AluOp::Max => std::cmp::max(a, b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
        };
        assert_eq!(op.eval(a, b), model);
    });
}

#[test]
fn cmp_eval_matches_model() {
    check_cases("cmp_eval_matches_model", None, |rng| {
        let (op, a, b) = (cmp(rng), int(rng, -50, 50), int(rng, -50, 50));
        let model = match op {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        };
        assert_eq!(op.eval(a, b), model);
    });
}

#[test]
fn with_dst_gpr_changes_exactly_the_destination() {
    let name = "with_dst_gpr_changes_exactly_the_destination";
    check_cases(name, None, |rng| {
        let (op, to) = (any_op(rng), Reg(21));
        let changed = op.map_regs(|r, role| if role == Role::Def { to } else { r }, |c, _| c);
        match op.defs().as_slice() {
            [RegRef::Gpr(_)] => {
                assert_eq!(changed.defs(), vec![RegRef::Gpr(to)]);
                // Uses that are not the destination register survive.
                assert!(op.uses().iter().all(|u| changed.uses().contains(u)));
            }
            _ => assert_eq!(changed, op),
        }
    });
}

#[test]
fn guards_add_their_cc_to_uses() {
    check_cases("guards_add_their_cc_to_uses", None, |rng| {
        let op = strategies::op(rng);
        if let Some(g) = op.guard {
            assert!(op.uses().contains(&RegRef::Cc(g.cc)));
        }
        let bare = Operation { guard: None, ..op };
        let guarded = Operation {
            guard: Some(Guard::when(CcReg(2))),
            ..bare
        };
        assert!(guarded.uses().contains(&RegRef::Cc(CcReg(2))));
        assert_eq!(guarded.defs(), bare.defs());
    });
}

#[test]
fn builders_roundtrip_display() {
    check_cases("builders_roundtrip_display", None, |rng| {
        // Display never panics and always names the mnemonic.
        assert!(!strategies::op(rng).to_string().is_empty());
    });
}
