//! Property tests for operation algebra: the register map, renaming and
//! def/use reporting must agree, and opcode evaluation must match a direct
//! i64 model.

mod strategies;

use proptest::prelude::*;
use psp_ir::op::build;
use psp_ir::{AluOp, CcReg, CmpOp, Guard, OpKind, Operand, Operation, Reg, RegList, RegRef, Role};
use strategies::*;

/// The executable spec of `Operation::uses`: the `Vec`-based computation
/// it replaced.
fn uses_spec(op: &Operation) -> Vec<RegRef> {
    let mut out = Vec::new();
    let push_operand = |o: Operand, out: &mut Vec<RegRef>| {
        if let Some(r) = o.reg() {
            out.push(RegRef::Gpr(r));
        }
    };
    match op.kind {
        OpKind::Alu { a, b, .. } | OpKind::Cmp { a, b, .. } => {
            push_operand(a, &mut out);
            push_operand(b, &mut out);
        }
        OpKind::Copy { src, .. } => push_operand(src, &mut out),
        OpKind::Select {
            cc,
            on_true,
            on_false,
            ..
        } => {
            out.push(RegRef::Cc(cc));
            push_operand(on_true, &mut out);
            push_operand(on_false, &mut out);
        }
        OpKind::Load { addr, .. } => out.extend(addr.index.map(RegRef::Gpr)),
        OpKind::Store { src, addr } => {
            push_operand(src, &mut out);
            out.extend(addr.index.map(RegRef::Gpr));
        }
        OpKind::CcAnd { a, b, .. } => {
            out.push(RegRef::Cc(a));
            out.push(RegRef::Cc(b));
        }
        OpKind::If { cc } | OpKind::Break { cc } => out.push(RegRef::Cc(cc)),
    }
    if let Some(g) = op.guard {
        out.push(RegRef::Cc(g.cc));
    }
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

proptest! {
    #[test]
    fn map_regs_roles_match_defs_and_uses(op in arb_any_op()) {
        prop_assert_eq!(visited(&op, Role::Def), op.defs().to_vec());
        prop_assert_eq!(visited(&op, Role::Use), op.uses().to_vec());
    }

    #[test]
    fn identity_map_returns_the_operation_unchanged(op in arb_any_op()) {
        prop_assert_eq!(op.map_regs(|r, _| r, |c, _| c), op);
        prop_assert_eq!(op.try_map_regs::<()>(|r, _| Ok(r), |c, _| Ok(c)), Ok(op));
    }

    #[test]
    fn reg_lists_are_sorted_deduplicated_and_match_the_vec_spec(op in arb_any_op()) {
        let uses = op.uses();
        prop_assert!(uses.len() <= RegList::CAPACITY);
        prop_assert!(uses.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
        prop_assert_eq!(uses, uses_spec(&op));
        prop_assert!(op.defs().len() <= 1);
    }

    #[test]
    fn rename_gpr_is_consistent_with_defs_uses(op in arb_any_op(), from in arb_reg(), to in 10u32..14) {
        let to = Reg(to);
        let renamed = renamed_gpr(&op, from, to);
        // After renaming, `from` appears nowhere.
        prop_assert!(!renamed.defs().contains(&RegRef::Gpr(from)) || from == to);
        prop_assert!(!renamed.uses().contains(&RegRef::Gpr(from)) || from == to);
        // Registers unrelated to the rename are untouched.
        for r in op.defs() {
            if r != RegRef::Gpr(from) {
                prop_assert!(renamed.defs().contains(&r));
            }
        }
        for r in op.uses() {
            if r != RegRef::Gpr(from) {
                prop_assert!(renamed.uses().contains(&r));
            }
        }
        // Renaming to a fresh register is reversible.
        prop_assert_eq!(renamed_gpr(&renamed, to, from), renamed_gpr(&op, from, from));
    }

    #[test]
    fn uses_only_rename_preserves_destination(op in arb_any_op(), from in arb_reg()) {
        let to = Reg(20);
        let renamed = op.map_regs(
            |r, role| if role == Role::Use && r == from { to } else { r },
            |c, _| c,
        );
        prop_assert_eq!(renamed.defs(), op.defs(), "destination untouched");
        prop_assert!(
            !renamed.uses().contains(&RegRef::Gpr(from)),
            "no remaining use of the source"
        );
    }

    #[test]
    fn rename_cc_is_consistent(op in arb_any_op(), from in 0u32..3) {
        let from = CcReg(from);
        let to = CcReg(9);
        let renamed = renamed_cc(&op, from, to);
        prop_assert!(!renamed.defs().contains(&RegRef::Cc(from)));
        prop_assert!(!renamed.uses().contains(&RegRef::Cc(from)));
        prop_assert_eq!(
            renamed.defs().len(), op.defs().len()
        );
        prop_assert_eq!(renamed.uses().len(), op.uses().len());
    }

    #[test]
    fn alu_eval_matches_model(op in arb_alu(), a in -1000i64..1000, b in -1000i64..1000) {
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
        prop_assert_eq!(op.eval(a, b), model);
    }

    #[test]
    fn cmp_eval_matches_model(op in arb_cmp(), a in -50i64..50, b in -50i64..50) {
        let model = match op {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        };
        prop_assert_eq!(op.eval(a, b), model);
    }

    #[test]
    fn with_dst_gpr_changes_exactly_the_destination(op in arb_any_op()) {
        let to = Reg(21);
        let changed = op.map_regs(|r, role| if role == Role::Def { to } else { r }, |c, _| c);
        match op.defs().as_slice() {
            [RegRef::Gpr(_)] => {
                prop_assert_eq!(changed.defs(), vec![RegRef::Gpr(to)]);
                // Uses that are not the destination register survive.
                for u in op.uses() {
                    if u != RegRef::Gpr(to) {
                        prop_assert!(changed.uses().contains(&u));
                    }
                }
            }
            _ => prop_assert_eq!(changed, op),
        }
    }

    #[test]
    fn guards_add_their_cc_to_uses(op in arb_op()) {
        if let Some(g) = op.guard {
            prop_assert!(op.uses().contains(&RegRef::Cc(g.cc)));
        }
        let bare = Operation { guard: None, ..op };
        let guarded = Operation {
            guard: Some(Guard::when(CcReg(2))),
            ..bare
        };
        prop_assert!(guarded.uses().contains(&RegRef::Cc(CcReg(2))));
        prop_assert_eq!(guarded.defs(), bare.defs());
    }

    #[test]
    fn builders_roundtrip_display(op in arb_op()) {
        // Display never panics and always names the mnemonic.
        let s = op.to_string();
        prop_assert!(!s.is_empty());
        let _ = build::if_(CcReg(0)); // keep the import exercised
    }
}
