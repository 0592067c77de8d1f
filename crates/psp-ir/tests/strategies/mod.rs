//! Proptest strategies for operations, shared by the operation property
//! tests here and psp-core's instance footprint test (which includes this
//! file by path).

use proptest::prelude::*;
use psp_ir::{Address, AluOp, ArrayId, CcReg, CmpOp, Guard, OpKind, Operand, Operation, Reg};

pub fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u32..6).prop_map(Reg)
}

pub fn arb_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        arb_reg().prop_map(Operand::Reg),
        (-100i64..100).prop_map(Operand::Imm),
    ]
}

pub fn arb_alu() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Mul),
        Just(AluOp::Min),
        Just(AluOp::Max),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Shl),
        Just(AluOp::Shr),
    ]
}

pub fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ]
}

pub fn arb_guard() -> impl Strategy<Value = Option<Guard>> {
    prop_oneof![
        Just(None),
        (0u32..3, any::<bool>()).prop_map(|(c, v)| Some(Guard {
            cc: CcReg(c),
            on_true: v
        })),
    ]
}

pub fn arb_op() -> impl Strategy<Value = Operation> {
    let kind = prop_oneof![
        (arb_alu(), arb_reg(), arb_operand(), arb_operand())
            .prop_map(|(op, dst, a, b)| OpKind::Alu { op, dst, a, b }),
        (arb_reg(), arb_operand()).prop_map(|(dst, src)| OpKind::Copy { dst, src }),
        (
            arb_cmp(),
            (0u32..3).prop_map(CcReg),
            arb_operand(),
            arb_operand()
        )
            .prop_map(|(op, dst, a, b)| OpKind::Cmp { op, dst, a, b }),
        (arb_reg(), arb_reg(), -2i64..3).prop_map(|(dst, idx, d)| OpKind::Load {
            dst,
            addr: Address::indexed(ArrayId(0), idx).displaced(d),
        }),
        (arb_operand(), arb_reg(), -2i64..3).prop_map(|(src, idx, d)| OpKind::Store {
            src,
            addr: Address::indexed(ArrayId(0), idx).displaced(d),
        }),
        (0u32..3).prop_map(|c| OpKind::If { cc: CcReg(c) }),
        (0u32..3).prop_map(|c| OpKind::Break { cc: CcReg(c) }),
    ];
    (kind, arb_guard()).prop_map(|(kind, guard)| Operation { kind, guard })
}

/// Every `OpKind`, including the if-conversion forms (`SELECT`, `CCAND`)
/// and an unindexed load, with or without a guard.
pub fn arb_any_op() -> impl Strategy<Value = Operation> {
    let extra = prop_oneof![
        (arb_reg(), 0u32..3, arb_operand(), arb_operand()).prop_map(
            |(dst, cc, on_true, on_false)| OpKind::Select {
                dst,
                cc: CcReg(cc),
                on_true,
                on_false,
            }
        ),
        (0u32..3, 0u32..3, any::<bool>(), 0u32..3, any::<bool>()).prop_map(
            |(dst, a, a_val, b, b_val)| OpKind::CcAnd {
                dst: CcReg(dst),
                a: CcReg(a),
                a_val,
                b: CcReg(b),
                b_val,
            }
        ),
        (arb_reg(), -2i64..3).prop_map(|(dst, d)| OpKind::Load {
            dst,
            addr: Address::constant(ArrayId(0), d),
        }),
    ];
    prop_oneof![
        arb_op(),
        (extra, arb_guard()).prop_map(|(kind, guard)| Operation { kind, guard }),
    ]
}
