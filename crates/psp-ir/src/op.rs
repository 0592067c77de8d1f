//! Operations: ALU, moves, compares, memory, and the control operations
//! `IF` and `BREAK`.

use crate::operand::{Address, Operand};
use crate::reg::{CcReg, Reg, RegList, RegRef};

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

    /// Rename every occurrence of GPR `from` (in defs and uses) to `to`.
    pub fn renamed_gpr(&self, from: Reg, to: Reg) -> Self {
        let kind = match self.kind {
            OpKind::Alu { op, dst, a, b } => OpKind::Alu {
                op,
                dst: if dst == from { to } else { dst },
                a: a.rename(from, to),
                b: b.rename(from, to),
            },
            OpKind::Copy { dst, src } => OpKind::Copy {
                dst: if dst == from { to } else { dst },
                src: src.rename(from, to),
            },
            OpKind::Select {
                dst,
                cc,
                on_true,
                on_false,
            } => OpKind::Select {
                dst: if dst == from { to } else { dst },
                cc,
                on_true: on_true.rename(from, to),
                on_false: on_false.rename(from, to),
            },
            OpKind::Cmp { op, dst, a, b } => OpKind::Cmp {
                op,
                dst,
                a: a.rename(from, to),
                b: b.rename(from, to),
            },
            OpKind::Load { dst, addr } => OpKind::Load {
                dst: if dst == from { to } else { dst },
                addr: addr.rename(from, to),
            },
            OpKind::Store { src, addr } => OpKind::Store {
                src: src.rename(from, to),
                addr: addr.rename(from, to),
            },
            k @ (OpKind::If { .. } | OpKind::Break { .. } | OpKind::CcAnd { .. }) => k,
        };
        Self {
            kind,
            guard: self.guard,
        }
    }

    /// Rename every occurrence of CC register `from` to `to`.
    pub fn renamed_cc(&self, from: CcReg, to: CcReg) -> Self {
        let sub = |c: CcReg| if c == from { to } else { c };
        let kind = match self.kind {
            OpKind::Cmp { op, dst, a, b } => OpKind::Cmp {
                op,
                dst: sub(dst),
                a,
                b,
            },
            OpKind::Select {
                dst,
                cc,
                on_true,
                on_false,
            } => OpKind::Select {
                dst,
                cc: sub(cc),
                on_true,
                on_false,
            },
            OpKind::CcAnd {
                dst,
                a,
                a_val,
                b,
                b_val,
            } => OpKind::CcAnd {
                dst: sub(dst),
                a: sub(a),
                a_val,
                b: sub(b),
                b_val,
            },
            OpKind::If { cc } => OpKind::If { cc: sub(cc) },
            OpKind::Break { cc } => OpKind::Break { cc: sub(cc) },
            k => k,
        };
        let guard = self.guard.map(|g| Guard {
            cc: sub(g.cc),
            on_true: g.on_true,
        });
        Self { kind, guard }
    }

    /// Rename GPR `from` to `to` in *uses only* (sources and address
    /// indices), leaving the destination untouched — the substitution step
    /// of copy-propagation combining.
    pub fn with_uses_renamed(&self, from: Reg, to: Reg) -> Self {
        let dst_of = |k: &OpKind| -> Option<Reg> {
            match *k {
                OpKind::Alu { dst, .. }
                | OpKind::Copy { dst, .. }
                | OpKind::Select { dst, .. }
                | OpKind::Load { dst, .. } => Some(dst),
                _ => None,
            }
        };
        let old_dst = dst_of(&self.kind);
        let mut renamed = self.renamed_gpr(from, to);
        // Restore the destination if the blanket rename touched it.
        if let (Some(d), Some(nd)) = (old_dst, dst_of(&renamed.kind)) {
            if d != nd {
                renamed = renamed.with_dst_gpr(d);
            }
        }
        renamed
    }

    /// Replace the destination GPR only (for renaming-at-definition).
    pub fn with_dst_gpr(&self, to: Reg) -> Self {
        let kind = match self.kind {
            OpKind::Alu { op, a, b, .. } => OpKind::Alu { op, dst: to, a, b },
            OpKind::Copy { src, .. } => OpKind::Copy { dst: to, src },
            OpKind::Select {
                cc,
                on_true,
                on_false,
                ..
            } => OpKind::Select {
                dst: to,
                cc,
                on_true,
                on_false,
            },
            OpKind::Load { addr, .. } => OpKind::Load { dst: to, addr },
            k => k,
        };
        Self {
            kind,
            guard: self.guard,
        }
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

    #[test]
    fn rename_gpr_everywhere() {
        let op = add(Reg(2), Reg(2), Reg(0)).renamed_gpr(Reg(2), Reg(9));
        assert_eq!(op, add(Reg(9), Reg(9), Reg(0)));
        let ld = load(Reg(4), ArrayId(0), Reg(2)).renamed_gpr(Reg(2), Reg(9));
        assert_eq!(ld, load(Reg(4), ArrayId(0), Reg(9)));
    }

    #[test]
    fn rename_cc_everywhere() {
        let op = if_(CcReg(0)).renamed_cc(CcReg(0), CcReg(5));
        assert_eq!(op, if_(CcReg(5)));
        let c = lt(CcReg(0), Reg(1), Reg(2)).renamed_cc(CcReg(0), CcReg(5));
        assert_eq!(c, lt(CcReg(5), Reg(1), Reg(2)));
        let g = Operation {
            guard: Some(Guard::when(CcReg(0))),
            ..copy(Reg(3), Reg(2))
        }
        .renamed_cc(CcReg(0), CcReg(5));
        assert_eq!(g.guard, Some(Guard::when(CcReg(5))));
    }

    #[test]
    fn with_uses_renamed_keeps_destination() {
        // ADD m, m, 1 substituting m→k in uses only.
        let op = add(Reg(2), Reg(2), 1i64).with_uses_renamed(Reg(2), Reg(9));
        assert_eq!(op, add(Reg(2), Reg(9), 1i64));
        // Load address index substitutes; destination register stays.
        let ld = load(Reg(2), ArrayId(0), Reg(2)).with_uses_renamed(Reg(2), Reg(9));
        assert_eq!(ld, load(Reg(2), ArrayId(0), Reg(9)));
        // Plain use-only op.
        let st = store(ArrayId(0), Reg(1), Reg(2)).with_uses_renamed(Reg(2), Reg(9));
        assert_eq!(st, store(ArrayId(0), Reg(1), Reg(9)));
    }

    #[test]
    fn with_dst_gpr_changes_only_destination() {
        let op = add(Reg(2), Reg(2), Reg(0)).with_dst_gpr(Reg(9));
        assert_eq!(op, add(Reg(9), Reg(2), Reg(0)));
        let ld = load(Reg(4), ArrayId(0), Reg(2)).with_dst_gpr(Reg(8));
        assert_eq!(ld, load(Reg(8), ArrayId(0), Reg(2)));
        // No GPR destination: unchanged.
        let br = break_(CcReg(1)).with_dst_gpr(Reg(8));
        assert_eq!(br, break_(CcReg(1)));
    }
}
