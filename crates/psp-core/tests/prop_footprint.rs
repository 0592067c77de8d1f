//! Property test for an instance's cached register footprint: it must be
//! its operation's `defs()`/`uses()` after construction and after every
//! rewrite, including the rewrites move planning applies.

#[path = "../../psp-kernels/tests/cases/mod.rs"]
mod cases;
#[path = "../../psp-ir/tests/strategies/mod.rs"]
mod strategies;

use cases::check_cases;
use psp_core::{InstId, Instance};
use psp_ir::{Operation, Reg, Role};
use psp_predicate::PredicateMatrix;
use strategies::{any_op, int, reg};

fn assert_footprint(inst: &Instance) {
    let op = inst.op();
    assert_eq!(inst.def().as_slice(), op.defs().as_slice(), "defs of {op}");
    assert_eq!(inst.uses(), op.uses().as_slice(), "uses of {op}");
}

/// The rename at a definition and the substitution in uses that move
/// planning applies.
fn rewrites(op: &Operation, from: Reg, to: Reg) -> [Operation; 2] {
    [
        op.map_regs(|r, role| if role == Role::Def { to } else { r }, |c, _| c),
        op.map_regs(
            |r, role| {
                if role == Role::Use && r == from {
                    to
                } else {
                    r
                }
            },
            |c, _| c,
        ),
    ]
}

#[test]
fn footprint_tracks_every_rewrite() {
    check_cases("footprint_tracks_every_rewrite", None, |rng| {
        let op = any_op(rng);
        let next: Vec<_> = (0..rng.below(4)).map(|_| any_op(rng)).collect();
        let (from, to) = (reg(rng), Reg(int(rng, 10, 14) as u32));
        let mut inst = Instance::new(InstId(0), op, PredicateMatrix::universe(), 0);
        assert_footprint(&inst);
        for op in rewrites(&op, from, to).into_iter().chain(next) {
            inst.set_op(op);
            assert_footprint(&inst);
        }
    });
}
