//! Operations: ALU, moves, compares, memory, and the control operations
//! `IF` and `BREAK`.
//!
//! Every rewrite of an operation's registers (renaming at a definition,
//! substitution in uses, per-copy renaming when unrolling, the preloop's
//! remapping) goes through [`Operation::try_map_regs`] or its infallible
//! form [`Operation::map_regs`], which visit each register slot with its
//! [`Role`]. [`Operation::defs`] and [`Operation::uses`] spell the same slot
//! layout out by hand: they are the hot read-only views behind every
//! dependence check, and deriving them from the map made compaction
//! measurably slower. A property test pins the two to agree.

use crate::operand::{Address, Operand};
use crate::reg::{CcReg, Reg, RegList, RegRef};
use std::convert::Infallible;

/// Binary ALU opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (by the low 6 bits of the second operand).
    Shl,
    /// Arithmetic right shift.
    Shr,
}

impl AluOp {
    /// Evaluate the opcode on concrete values (wrapping arithmetic).
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Min => a.min(b),
            AluOp::Max => a.max(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
        }
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "ADD",
            AluOp::Sub => "SUB",
            AluOp::Mul => "MULT",
            AluOp::Min => "MIN",
            AluOp::Max => "MAX",
            AluOp::And => "AND",
            AluOp::Or => "OR",
            AluOp::Xor => "XOR",
            AluOp::Shl => "SHL",
            AluOp::Shr => "SHR",
        }
    }
}

/// Compare opcodes (write a condition register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `a < b`.
    Lt,
    /// `a <= b`.
    Le,
    /// `a > b`.
    Gt,
    /// `a >= b`.
    Ge,
    /// `a == b`.
    Eq,
    /// `a != b`.
    Ne,
}

impl CmpOp {
    /// Evaluate the comparison.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Lt => "LT",
            CmpOp::Le => "LE",
            CmpOp::Gt => "GT",
            CmpOp::Ge => "GE",
            CmpOp::Eq => "EQ",
            CmpOp::Ne => "NE",
        }
    }
}

/// Resource class an operation occupies in one tree-VLIW cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResClass {
    /// ALU / move / compare slot.
    Alu,
    /// Memory port.
    Mem,
    /// Branch (IF / BREAK) slot of the tree instruction.
    Branch,
}

/// Execution guard: run the operation only when `cc == on_true`.
///
/// Guards express the tree structure of a VLIW instruction (an operation on
/// one subtree of an IF resolved in the same cycle) and, for the
/// if-conversion baseline, ordinary predication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// Tested condition register.
    pub cc: CcReg,
    /// Required value.
    pub on_true: bool,
}

impl Guard {
    /// Guard requiring `cc` to be true.
    pub fn when(cc: CcReg) -> Self {
        Self { cc, on_true: true }
    }

    /// Guard requiring `cc` to be false.
    pub fn unless(cc: CcReg) -> Self {
        Self { cc, on_true: false }
    }
}

/// Whether a register slot is written or read (see
/// [`Operation::try_map_regs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The destination.
    Def,
    /// A source, address index, selecting or tested condition register, or
    /// the guard.
    Use,
}

/// The operation payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `dst = op(a, b)`.
    Alu {
        /// Opcode.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
    },
    /// `dst = src`.
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = cc ? on_true : on_false` (conditional move; used by the
    /// if-conversion baseline).
    Select {
        /// Destination register.
        dst: Reg,
        /// Selecting condition.
        cc: CcReg,
        /// Value when the condition is true.
        on_true: Operand,
        /// Value when the condition is false.
        on_false: Operand,
    },
    /// `dst = (a op b)` into a condition register.
    Cmp {
        /// Comparison.
        op: CmpOp,
        /// Destination condition register.
        dst: CcReg,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
    },
    /// `dst = mem[addr]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Source address.
        addr: Address,
    },
    /// `mem[addr] = src`.
    Store {
        /// Stored operand.
        src: Operand,
        /// Target address.
        addr: Address,
    },
    /// Condition combine: `dst = (a == a_val) && (b == b_val)`.
    ///
    /// Used by if-conversion (the local-scheduling and EMS baselines) to
    /// materialize compound predicates for operations nested under several
    /// IFs; the PSP technique itself never needs it (nesting lives in the
    /// predicate matrices).
    CcAnd {
        /// Destination condition register.
        dst: CcReg,
        /// First source condition.
        a: CcReg,
        /// Required value of `a`.
        a_val: bool,
        /// Second source condition.
        b: CcReg,
        /// Required value of `b`.
        b_val: bool,
    },
    /// Two-way branch *inside* the loop body, testing `cc`.
    If {
        /// Tested condition register.
        cc: CcReg,
    },
    /// Loop-exit test: leaves the loop when `cc` is true.
    Break {
        /// Tested condition register.
        cc: CcReg,
    },
}

/// An operation: payload plus optional guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operation {
    /// What the operation does.
    pub kind: OpKind,
    /// Optional execution guard (tree-VLIW subtree / predication).
    pub guard: Option<Guard>,
}

impl Operation {
    /// Unguarded operation.
    pub fn new(kind: OpKind) -> Self {
        Self { kind, guard: None }
    }

    /// Guarded operation.
    pub fn guarded(kind: OpKind, guard: Guard) -> Self {
        Self {
            kind,
            guard: Some(guard),
        }
    }

    /// Registers written (at most one).
    pub fn defs(&self) -> RegList {
        let mut out = RegList::EMPTY;
        match self.kind {
            OpKind::Alu { dst, .. }
            | OpKind::Copy { dst, .. }
            | OpKind::Select { dst, .. }
            | OpKind::Load { dst, .. } => out.insert(RegRef::Gpr(dst)),
            OpKind::Cmp { dst, .. } | OpKind::CcAnd { dst, .. } => out.insert(RegRef::Cc(dst)),
            OpKind::Store { .. } | OpKind::If { .. } | OpKind::Break { .. } => {}
        }
        out
    }

    /// Registers read (including the guard's condition register), sorted
    /// and deduplicated.
    pub fn uses(&self) -> RegList {
        let mut out = RegList::EMPTY;
        let push_operand = |o: Operand, out: &mut RegList| {
            if let Some(r) = o.reg() {
                out.insert(RegRef::Gpr(r));
            }
        };
        match self.kind {
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
                out.insert(RegRef::Cc(cc));
                push_operand(on_true, &mut out);
                push_operand(on_false, &mut out);
            }
            OpKind::Load { addr, .. } => {
                if let Some(r) = addr.index {
                    out.insert(RegRef::Gpr(r));
                }
            }
            OpKind::Store { src, addr } => {
                push_operand(src, &mut out);
                if let Some(r) = addr.index {
                    out.insert(RegRef::Gpr(r));
                }
            }
            OpKind::CcAnd { a, b, .. } => {
                out.insert(RegRef::Cc(a));
                out.insert(RegRef::Cc(b));
            }
            OpKind::If { cc } | OpKind::Break { cc } => out.insert(RegRef::Cc(cc)),
        }
        if let Some(g) = self.guard {
            out.insert(RegRef::Cc(g.cc));
        }
        out
    }

    /// Resource class occupied in a tree-VLIW cycle.
    pub fn res_class(&self) -> ResClass {
        match self.kind {
            OpKind::Load { .. } | OpKind::Store { .. } => ResClass::Mem,
            OpKind::If { .. } | OpKind::Break { .. } => ResClass::Branch,
            _ => ResClass::Alu,
        }
    }

    /// Whether this is an `IF` operation.
    pub fn is_if(&self) -> bool {
        matches!(self.kind, OpKind::If { .. })
    }

    /// Whether this is a `BREAK` operation.
    pub fn is_break(&self) -> bool {
        matches!(self.kind, OpKind::Break { .. })
    }

    /// Whether this is a memory store.
    pub fn is_store(&self) -> bool {
        matches!(self.kind, OpKind::Store { .. })
    }

    /// Whether the operation may be executed speculatively (before the IF
    /// computing one of its controlling predicates).
    ///
    /// Stores and `BREAK`s have irreversible side effects; IFs are never
    /// speculative in this framework (paper §2).
    pub fn is_speculable(&self) -> bool {
        !matches!(
            self.kind,
            OpKind::Store { .. } | OpKind::If { .. } | OpKind::Break { .. }
        )
    }

    /// Rewrite every register slot through `gpr` and `cc`, stopping at the
    /// first `Err`.
    ///
    /// The destination is visited as [`Role::Def`]; sources, the address
    /// index, the selecting or tested condition register and the guard as
    /// [`Role::Use`]. Slots are visited in field order, the guard last. This
    /// is the one place that knows each kind's slot layout for rewriting;
    /// [`Operation::defs`] and [`Operation::uses`] repeat it by hand because
    /// they are the hot read-only views behind dependence checks.
    pub fn try_map_regs<E>(
        &self,
        mut gpr: impl FnMut(Reg, Role) -> Result<Reg, E>,
        mut cc: impl FnMut(CcReg, Role) -> Result<CcReg, E>,
    ) -> Result<Operation, E> {
        fn operand<E>(
            o: Operand,
            gpr: &mut impl FnMut(Reg, Role) -> Result<Reg, E>,
        ) -> Result<Operand, E> {
            Ok(match o {
                Operand::Reg(r) => Operand::Reg(gpr(r, Role::Use)?),
                imm => imm,
            })
        }
        fn address<E>(
            a: Address,
            gpr: &mut impl FnMut(Reg, Role) -> Result<Reg, E>,
        ) -> Result<Address, E> {
            Ok(Address {
                index: a.index.map(|r| gpr(r, Role::Use)).transpose()?,
                ..a
            })
        }
        let kind = match self.kind {
            OpKind::Alu { op, dst, a, b } => OpKind::Alu {
                op,
                dst: gpr(dst, Role::Def)?,
                a: operand(a, &mut gpr)?,
                b: operand(b, &mut gpr)?,
            },
            OpKind::Copy { dst, src } => OpKind::Copy {
                dst: gpr(dst, Role::Def)?,
                src: operand(src, &mut gpr)?,
            },
            OpKind::Select {
                dst,
                cc: sel,
                on_true,
                on_false,
            } => OpKind::Select {
                dst: gpr(dst, Role::Def)?,
                cc: cc(sel, Role::Use)?,
                on_true: operand(on_true, &mut gpr)?,
                on_false: operand(on_false, &mut gpr)?,
            },
            OpKind::Cmp { op, dst, a, b } => OpKind::Cmp {
                op,
                dst: cc(dst, Role::Def)?,
                a: operand(a, &mut gpr)?,
                b: operand(b, &mut gpr)?,
            },
            OpKind::Load { dst, addr } => OpKind::Load {
                dst: gpr(dst, Role::Def)?,
                addr: address(addr, &mut gpr)?,
            },
            OpKind::Store { src, addr } => OpKind::Store {
                src: operand(src, &mut gpr)?,
                addr: address(addr, &mut gpr)?,
            },
            OpKind::CcAnd {
                dst,
                a,
                a_val,
                b,
                b_val,
            } => OpKind::CcAnd {
                dst: cc(dst, Role::Def)?,
                a: cc(a, Role::Use)?,
                a_val,
                b: cc(b, Role::Use)?,
                b_val,
            },
            OpKind::If { cc: t } => OpKind::If {
                cc: cc(t, Role::Use)?,
            },
            OpKind::Break { cc: t } => OpKind::Break {
                cc: cc(t, Role::Use)?,
            },
        };
        let guard = self
            .guard
            .map(|g| cc(g.cc, Role::Use).map(|cc| Guard { cc, ..g }));
        Ok(Operation {
            kind,
            guard: guard.transpose()?,
        })
    }

    /// [`Operation::try_map_regs`] with maps that cannot fail.
    pub fn map_regs(
        &self,
        mut gpr: impl FnMut(Reg, Role) -> Reg,
        mut cc: impl FnMut(CcReg, Role) -> CcReg,
    ) -> Operation {
        let Ok(op) =
            self.try_map_regs::<Infallible>(|r, role| Ok(gpr(r, role)), |c, role| Ok(cc(c, role)));
        op
    }
}

impl From<OpKind> for Operation {
    fn from(kind: OpKind) -> Self {
        Operation::new(kind)
    }
}

/// Convenience constructors mirroring the paper's assembly.
pub mod build {
    use super::*;
    use crate::reg::ArrayId;

    /// `ADD dst, a, b`.
    pub fn add(dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> Operation {
        Operation::new(OpKind::Alu {
            op: AluOp::Add,
            dst,
            a: a.into(),
            b: b.into(),
        })
    }

    /// `SUB dst, a, b`.
    pub fn sub(dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> Operation {
        Operation::new(OpKind::Alu {
            op: AluOp::Sub,
            dst,
            a: a.into(),
            b: b.into(),
        })
    }

    /// Generic binary ALU operation.
    pub fn alu(op: AluOp, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> Operation {
        Operation::new(OpKind::Alu {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        })
    }

    /// `COPY dst, src`.
    pub fn copy(dst: Reg, src: impl Into<Operand>) -> Operation {
        Operation::new(OpKind::Copy {
            dst,
            src: src.into(),
        })
    }

    /// `SELECT dst, cc, on_true, on_false`.
    pub fn select(
        dst: Reg,
        cc: CcReg,
        on_true: impl Into<Operand>,
        on_false: impl Into<Operand>,
    ) -> Operation {
        Operation::new(OpKind::Select {
            dst,
            cc,
            on_true: on_true.into(),
            on_false: on_false.into(),
        })
    }

    /// `CCAND dst, (a == a_val) && (b == b_val)`.
    pub fn cc_and(dst: CcReg, a: CcReg, a_val: bool, b: CcReg, b_val: bool) -> Operation {
        Operation::new(OpKind::CcAnd {
            dst,
            a,
            a_val,
            b,
            b_val,
        })
    }

    /// `cmp dst, a, b` for an arbitrary comparison.
    pub fn cmp(op: CmpOp, dst: CcReg, a: impl Into<Operand>, b: impl Into<Operand>) -> Operation {
        Operation::new(OpKind::Cmp {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        })
    }

    /// `LT dst, a, b`.
    pub fn lt(dst: CcReg, a: impl Into<Operand>, b: impl Into<Operand>) -> Operation {
        cmp(CmpOp::Lt, dst, a, b)
    }

    /// `GE dst, a, b`.
    pub fn ge(dst: CcReg, a: impl Into<Operand>, b: impl Into<Operand>) -> Operation {
        cmp(CmpOp::Ge, dst, a, b)
    }

    /// `LOAD dst, array[index]`.
    pub fn load(dst: Reg, array: ArrayId, index: Reg) -> Operation {
        Operation::new(OpKind::Load {
            dst,
            addr: Address::indexed(array, index),
        })
    }

    /// `LOAD dst, addr` for an arbitrary address.
    pub fn load_addr(dst: Reg, addr: Address) -> Operation {
        Operation::new(OpKind::Load { dst, addr })
    }

    /// `STORE array[index], src`.
    pub fn store(array: ArrayId, index: Reg, src: impl Into<Operand>) -> Operation {
        Operation::new(OpKind::Store {
            src: src.into(),
            addr: Address::indexed(array, index),
        })
    }

    /// `STORE addr, src` for an arbitrary address.
    pub fn store_addr(addr: Address, src: impl Into<Operand>) -> Operation {
        Operation::new(OpKind::Store {
            src: src.into(),
            addr,
        })
    }

    /// `IF cc`.
    pub fn if_(cc: CcReg) -> Operation {
        Operation::new(OpKind::If { cc })
    }

    /// `BREAK cc`.
    pub fn break_(cc: CcReg) -> Operation {
        Operation::new(OpKind::Break { cc })
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;
    use crate::reg::ArrayId;

    #[test]
    fn alu_eval() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Sub.eval(2, 3), -1);
        assert_eq!(AluOp::Mul.eval(4, -3), -12);
        assert_eq!(AluOp::Min.eval(4, -3), -3);
        assert_eq!(AluOp::Max.eval(4, -3), 4);
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Shl.eval(1, 4), 16);
        assert_eq!(AluOp::Shr.eval(-16, 2), -4);
        assert_eq!(AluOp::Add.eval(i64::MAX, 1), i64::MIN);
    }

    #[test]
    fn cmp_eval() {
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(!CmpOp::Lt.eval(2, 2));
        assert!(CmpOp::Le.eval(2, 2));
        assert!(CmpOp::Gt.eval(3, 2));
        assert!(CmpOp::Ge.eval(2, 2));
        assert!(CmpOp::Eq.eval(5, 5));
        assert!(CmpOp::Ne.eval(5, 6));
    }

    #[test]
    fn defs_and_uses() {
        let x = ArrayId(0);
        let op = add(Reg(2), Reg(2), Reg(0));
        assert_eq!(op.defs(), vec![RegRef::Gpr(Reg(2))]);
        assert_eq!(op.uses(), vec![RegRef::Gpr(Reg(0)), RegRef::Gpr(Reg(2))]);

        let c = lt(CcReg(0), Reg(4), Reg(5));
        assert_eq!(c.defs(), vec![RegRef::Cc(CcReg(0))]);
        assert_eq!(c.uses(), vec![RegRef::Gpr(Reg(4)), RegRef::Gpr(Reg(5))]);

        let ld = load(Reg(4), x, Reg(2));
        assert_eq!(ld.defs(), vec![RegRef::Gpr(Reg(4))]);
        assert_eq!(ld.uses(), vec![RegRef::Gpr(Reg(2))]);

        let st = store(x, Reg(2), Reg(4));
        assert!(st.defs().is_empty());
        assert_eq!(st.uses(), vec![RegRef::Gpr(Reg(2)), RegRef::Gpr(Reg(4))]);

        let br = break_(CcReg(1));
        assert!(br.defs().is_empty());
        assert_eq!(br.uses(), vec![RegRef::Cc(CcReg(1))]);

        let sel = select(Reg(3), CcReg(0), Reg(2), Reg(3));
        assert_eq!(sel.defs(), vec![RegRef::Gpr(Reg(3))]);
        assert_eq!(
            sel.uses(),
            vec![
                RegRef::Gpr(Reg(2)),
                RegRef::Gpr(Reg(3)),
                RegRef::Cc(CcReg(0))
            ]
        );
    }

    #[test]
    fn guard_adds_cc_use() {
        let g = Operation {
            guard: Some(Guard::when(CcReg(0))),
            ..copy(Reg(3), Reg(2))
        };
        assert!(g.uses().contains(&RegRef::Cc(CcReg(0))));
    }

    #[test]
    fn resource_classes() {
        assert_eq!(add(Reg(0), Reg(1), Reg(2)).res_class(), ResClass::Alu);
        assert_eq!(copy(Reg(0), Reg(1)).res_class(), ResClass::Alu);
        assert_eq!(lt(CcReg(0), Reg(0), Reg(1)).res_class(), ResClass::Alu);
        assert_eq!(load(Reg(0), ArrayId(0), Reg(1)).res_class(), ResClass::Mem);
        assert_eq!(store(ArrayId(0), Reg(1), Reg(0)).res_class(), ResClass::Mem);
        assert_eq!(if_(CcReg(0)).res_class(), ResClass::Branch);
        assert_eq!(break_(CcReg(0)).res_class(), ResClass::Branch);
    }

    #[test]
    fn speculability() {
        assert!(add(Reg(0), Reg(1), Reg(2)).is_speculable());
        assert!(load(Reg(0), ArrayId(0), Reg(1)).is_speculable());
        assert!(!store(ArrayId(0), Reg(1), Reg(0)).is_speculable());
        assert!(!if_(CcReg(0)).is_speculable());
        assert!(!break_(CcReg(0)).is_speculable());
    }

    /// Rename `from` to `to` in every GPR slot.
    fn gpr_renamed(op: Operation, from: Reg, to: Reg) -> Operation {
        op.map_regs(|r, _| if r == from { to } else { r }, |c, _| c)
    }

    /// Rename `from` to `to` in every CC slot.
    fn cc_renamed(op: Operation, from: CcReg, to: CcReg) -> Operation {
        op.map_regs(|r, _| r, |c, _| if c == from { to } else { c })
    }

    #[test]
    fn rename_gpr_everywhere() {
        let op = gpr_renamed(add(Reg(2), Reg(2), Reg(0)), Reg(2), Reg(9));
        assert_eq!(op, add(Reg(9), Reg(9), Reg(0)));
        let ld = gpr_renamed(load(Reg(4), ArrayId(0), Reg(2)), Reg(2), Reg(9));
        assert_eq!(ld, load(Reg(4), ArrayId(0), Reg(9)));
        let st = gpr_renamed(store(ArrayId(0), Reg(2), Reg(2)), Reg(2), Reg(9));
        assert_eq!(st, store(ArrayId(0), Reg(9), Reg(9)));
    }

    #[test]
    fn rename_cc_everywhere() {
        assert_eq!(cc_renamed(if_(CcReg(0)), CcReg(0), CcReg(5)), if_(CcReg(5)));
        let c = cc_renamed(lt(CcReg(0), Reg(1), Reg(2)), CcReg(0), CcReg(5));
        assert_eq!(c, lt(CcReg(5), Reg(1), Reg(2)));
        let and = cc_renamed(
            cc_and(CcReg(0), CcReg(0), true, CcReg(0), false),
            CcReg(0),
            CcReg(5),
        );
        assert_eq!(and, cc_and(CcReg(5), CcReg(5), true, CcReg(5), false));
        let g = Operation {
            guard: Some(Guard::when(CcReg(0))),
            ..copy(Reg(3), Reg(2))
        };
        assert_eq!(
            cc_renamed(g, CcReg(0), CcReg(5)).guard,
            Some(Guard::when(CcReg(5)))
        );
    }

    #[test]
    fn with_uses_renamed_keeps_destination() {
        let uses = |op: Operation| {
            op.map_regs(
                |r, role| {
                    if role == Role::Use && r == Reg(2) {
                        Reg(9)
                    } else {
                        r
                    }
                },
                |c, _| c,
            )
        };
        // ADD m, m, 1 substituting m→k in uses only.
        assert_eq!(uses(add(Reg(2), Reg(2), 1i64)), add(Reg(2), Reg(9), 1i64));
        // The load's index substitutes; its destination stays.
        assert_eq!(
            uses(load(Reg(2), ArrayId(0), Reg(2))),
            load(Reg(2), ArrayId(0), Reg(9))
        );
        assert_eq!(
            uses(store(ArrayId(0), Reg(1), Reg(2))),
            store(ArrayId(0), Reg(1), Reg(9))
        );
    }

    #[test]
    fn with_dst_gpr_changes_only_destination() {
        let dst = |op: Operation, to: Reg| {
            op.map_regs(|r, role| if role == Role::Def { to } else { r }, |c, _| c)
        };
        assert_eq!(
            dst(add(Reg(2), Reg(2), Reg(0)), Reg(9)),
            add(Reg(9), Reg(2), Reg(0))
        );
        assert_eq!(
            dst(load(Reg(4), ArrayId(0), Reg(2)), Reg(8)),
            load(Reg(8), ArrayId(0), Reg(2))
        );
        // No GPR destination: unchanged.
        assert_eq!(dst(break_(CcReg(1)), Reg(8)), break_(CcReg(1)));
        assert_eq!(
            dst(lt(CcReg(0), Reg(1), Reg(2)), Reg(8)),
            lt(CcReg(0), Reg(1), Reg(2))
        );
    }

    #[test]
    fn map_regs_visits_each_slot_with_its_role() {
        let visits = |op: Operation| {
            let mut seen = Vec::new();
            let mut cc_seen = Vec::new();
            op.map_regs(
                |r, role| {
                    seen.push((r, role));
                    r
                },
                |c, role| {
                    cc_seen.push((c, role));
                    c
                },
            );
            (seen, cc_seen)
        };
        // A store's source and index are both reads; an immediate and an
        // unindexed address have no slot.
        let st = store_addr(Address::indexed(ArrayId(0), Reg(1)).displaced(2), Reg(4));
        assert_eq!(visits(st).0, vec![(Reg(4), Role::Use), (Reg(1), Role::Use)]);
        let st = store_addr(Address::constant(ArrayId(0), 3), 7i64);
        assert_eq!(visits(st), (vec![], vec![]));
        // SELECT writes its GPR and reads the selecting condition.
        let (g, c) = visits(select(Reg(3), CcReg(1), Reg(2), 0i64));
        assert_eq!(g, vec![(Reg(3), Role::Def), (Reg(2), Role::Use)]);
        assert_eq!(c, vec![(CcReg(1), Role::Use)]);
        // CCAND writes one condition register and reads two.
        let (g, c) = visits(cc_and(CcReg(2), CcReg(0), true, CcReg(1), false));
        assert!(g.is_empty());
        assert_eq!(
            c,
            vec![
                (CcReg(2), Role::Def),
                (CcReg(0), Role::Use),
                (CcReg(1), Role::Use)
            ]
        );
        // The guard is a read, visited last.
        let guarded = Operation::guarded(build::copy(Reg(3), Reg(2)).kind, Guard::unless(CcReg(4)));
        assert_eq!(visits(guarded).1, vec![(CcReg(4), Role::Use)]);
    }

    #[test]
    fn try_map_regs_stops_at_the_first_err() {
        let op = add(Reg(2), Reg(3), Reg(4));
        let mut seen = Vec::new();
        let out = op.try_map_regs(
            |r, _| {
                seen.push(r);
                if r == Reg(3) {
                    Err(r)
                } else {
                    Ok(Reg(r.0 + 10))
                }
            },
            |c, _| Ok(c),
        );
        assert_eq!(out, Err(Reg(3)));
        assert_eq!(seen, vec![Reg(2), Reg(3)], "Reg(4) is never visited");
        let ok: Result<Operation, ()> = op.try_map_regs(|r, _| Ok(r), |c, _| Ok(c));
        assert_eq!(ok, Ok(op));
    }
}
