//! Operation instances: the unit the PSP scheduler moves around.

use psp_ir::Operation;
use psp_predicate::PredicateMatrix;
use std::fmt;

/// Stable identity of an instance within one [`crate::Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u64);

/// One operation instance: an operation, its *operation index* (the
/// original iteration it belongs to, relative to the current transformed
/// iteration), and its *formal* predicate matrix (the set of paths on which
/// it should execute).
///
/// The paper's notation `COPY (…) (+1) [b 1]` maps to
/// `op = COPY …, index = 1, formal = [b 1]`. The other fields are
/// bookkeeping the paper leaves implicit: an identity, the IF row an IF
/// instance computes, and the source order that dependence checks rank by.
/// The preloop derives its startup code from the schedule and the source
/// loop, so an instance needs no record of its moves.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Stable id.
    pub id: InstId,
    /// The operation (guards are a code-generation artifact and never
    /// appear here).
    pub op: Operation,
    /// Operation index: original iteration relative to the current
    /// transformed iteration. Incremented when the instance moves across
    /// the loop boundary into the previous iteration.
    pub index: i32,
    /// Formal path set.
    pub formal: PredicateMatrix,
    /// For IF operations: the predicate *row* this instance computes — the
    /// column it computes is [`Instance::index`].
    pub computes_if: Option<u32>,
    /// Position of the operation in the flattened source body; together
    /// with `index` this gives the original program order.
    pub origin: usize,
    /// Sub-position after `origin`: rename-leftover copies logically sit
    /// *just after* the operation they write back for (chains increment).
    /// Breaks program-order ties between a renamed instance and its copy.
    pub late: u16,
}

impl Instance {
    /// Original-program order key: `(original iteration, source position)`.
    ///
    /// Instance A precedes instance B in the source program iff
    /// `A.prog_order() < B.prog_order()`.
    pub fn prog_order(&self) -> (i32, usize, u16) {
        (self.index, self.origin, self.late)
    }

    /// Whether this instance has observable effects past a loop exit:
    /// memory stores and definitions of live-out registers must never
    /// execute speculatively with respect to a `BREAK`.
    pub fn is_observable(&self, live_out: &[psp_ir::RegRef]) -> bool {
        self.op.is_store() || self.op.defs().iter().any(|d| live_out.contains(d))
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:+}) {}", self.op, self.index, self.formal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_ir::op::build::*;
    use psp_ir::{ArrayId, CcReg, Reg, RegRef};

    fn inst(op: Operation, index: i32) -> Instance {
        Instance {
            id: InstId(0),
            op,
            index,
            formal: PredicateMatrix::universe(),
            computes_if: None,
            origin: 3,
            late: 0,
        }
    }

    #[test]
    fn prog_order_is_iteration_major() {
        let a = inst(copy(Reg(0), 1i64), 0);
        let mut b = inst(copy(Reg(0), 1i64), 1);
        b.origin = 0;
        assert!(a.prog_order() < b.prog_order());
    }

    #[test]
    fn observability() {
        let live_out = vec![RegRef::Gpr(Reg(5))];
        assert!(inst(store(ArrayId(0), Reg(0), Reg(1)), 0).is_observable(&live_out));
        assert!(inst(copy(Reg(5), Reg(1)), 0).is_observable(&live_out));
        assert!(!inst(copy(Reg(4), Reg(1)), 0).is_observable(&live_out));
        assert!(!inst(break_(CcReg(0)), 0).is_observable(&live_out));
    }

    #[test]
    fn display_matches_paper_notation() {
        let mut i = inst(copy(Reg(3), Reg(2)), 1);
        i.formal = PredicateMatrix::single(0, 1, true);
        assert_eq!(i.to_string(), "COPY R3, R2 (+1) [_b_ 1]");
    }
}
