//! Operation instances: the unit the PSP scheduler moves around.

use psp_ir::{Operation, RegList, RegRef};
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
///
/// The operation is private: an instance caches the registers it defines
/// and reads (its *footprint*), which every dependence check reads, and
/// [`Instance::new`] and [`Instance::set_op`] are the only writers of the
/// operation, so the footprint always matches it.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Stable id.
    pub id: InstId,
    /// The operation (guards are a code-generation artifact and never
    /// appear here).
    op: Operation,
    /// `op.defs()`: no operation defines more than one register.
    def: Option<RegRef>,
    /// `op.uses()`.
    uses: RegList,
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
    /// An instance of `op` with index 0, no IF row and no late offset.
    pub fn new(id: InstId, op: Operation, formal: PredicateMatrix, origin: usize) -> Self {
        let (def, uses) = footprint(&op);
        Self {
            id,
            op,
            def,
            uses,
            index: 0,
            formal,
            computes_if: None,
            origin,
            late: 0,
        }
    }

    /// The operation.
    pub fn op(&self) -> &Operation {
        &self.op
    }

    /// Replace the operation, refreshing the cached footprint.
    pub fn set_op(&mut self, op: Operation) {
        (self.def, self.uses) = footprint(&op);
        self.op = op;
    }

    /// The register the operation defines, if any (`op().defs()`).
    pub fn def(&self) -> Option<RegRef> {
        self.def
    }

    /// The registers the operation reads, sorted (`op().uses()`).
    pub fn uses(&self) -> &[RegRef] {
        &self.uses
    }

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
    pub fn is_observable(&self, live_out: &[RegRef]) -> bool {
        self.op.is_store() || self.def.is_some_and(|d| live_out.contains(&d))
    }
}

/// The cached footprint of `op`: its one definition and its reads.
fn footprint(op: &Operation) -> (Option<RegRef>, RegList) {
    let defs = op.defs();
    debug_assert!(defs.len() <= 1, "{op} defines more than one register");
    (defs.first().copied(), op.uses())
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
    use psp_ir::{ArrayId, CcReg, Reg};

    fn inst(op: Operation, index: i32) -> Instance {
        let mut i = Instance::new(InstId(0), op, PredicateMatrix::universe(), 3);
        i.index = index;
        i
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
    fn the_cached_footprint_stays_small() {
        // Every schedule clone copies each instance. The footprint cache
        // adds 48 bytes to the 128 of the operation, matrix and indices.
        assert!(std::mem::size_of::<Instance>() <= 128 + 48);
    }

    #[test]
    fn display_matches_paper_notation() {
        let mut i = inst(copy(Reg(3), Reg(2)), 1);
        i.formal = PredicateMatrix::single(0, 1, true);
        assert_eq!(i.to_string(), "COPY R3, R2 (+1) [_b_ 1]");
    }
}
