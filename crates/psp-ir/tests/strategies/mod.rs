//! Random operations for the operation property tests here and psp-core's
//! instance footprint test (which includes this file by path).

use psp_ir::op::build;
use psp_ir::{Address, AluOp, ArrayId, CcReg, CmpOp, Guard, Operand, Operation, Reg};
use psp_kernels::SplitMix64;

/// A value in `lo..hi`.
pub fn int(rng: &mut SplitMix64, lo: i64, hi: i64) -> i64 {
    lo + rng.below((hi - lo) as usize) as i64
}

pub fn coin(rng: &mut SplitMix64) -> bool {
    rng.below(2) == 1
}

pub fn reg(rng: &mut SplitMix64) -> Reg {
    Reg(rng.below(6) as u32)
}

fn cc(rng: &mut SplitMix64) -> CcReg {
    CcReg(rng.below(3) as u32)
}

pub fn operand(rng: &mut SplitMix64) -> Operand {
    if coin(rng) {
        Operand::Reg(reg(rng))
    } else {
        Operand::Imm(int(rng, -100, 100))
    }
}

pub fn alu(rng: &mut SplitMix64) -> AluOp {
    use AluOp::*;
    [Add, Sub, Mul, Min, Max, And, Or, Xor, Shl, Shr][rng.below(10)]
}

pub fn cmp(rng: &mut SplitMix64) -> CmpOp {
    use CmpOp::*;
    [Lt, Le, Gt, Ge, Eq, Ne][rng.below(6)]
}

fn guard(rng: &mut SplitMix64) -> Option<Guard> {
    coin(rng).then(|| Guard {
        cc: cc(rng),
        on_true: coin(rng),
    })
}

/// An indexed address into array 0, displaced by `-2..3`.
fn indexed(rng: &mut SplitMix64) -> Address {
    Address::indexed(ArrayId(0), reg(rng)).displaced(int(rng, -2, 3))
}

/// Every `OpKind` but the if-conversion forms, with or without a guard.
pub fn op(rng: &mut SplitMix64) -> Operation {
    let op = match rng.below(7) {
        0 => build::alu(alu(rng), reg(rng), operand(rng), operand(rng)),
        1 => build::copy(reg(rng), operand(rng)),
        2 => build::cmp(cmp(rng), cc(rng), operand(rng), operand(rng)),
        3 => build::load_addr(reg(rng), indexed(rng)),
        4 => build::store_addr(indexed(rng), operand(rng)),
        5 => build::if_(cc(rng)),
        _ => build::break_(cc(rng)),
    };
    Operation {
        guard: guard(rng),
        ..op
    }
}

/// Every `OpKind`, including the if-conversion forms (`SELECT`, `CCAND`)
/// and an unindexed load, with or without a guard.
pub fn any_op(rng: &mut SplitMix64) -> Operation {
    let op = match rng.below(6) {
        0..=2 => return op(rng),
        3 => build::select(reg(rng), cc(rng), operand(rng), operand(rng)),
        4 => build::cc_and(cc(rng), cc(rng), coin(rng), cc(rng), coin(rng)),
        _ => build::load_addr(reg(rng), Address::constant(ArrayId(0), int(rng, -2, 3))),
    };
    Operation {
        guard: guard(rng),
        ..op
    }
}
