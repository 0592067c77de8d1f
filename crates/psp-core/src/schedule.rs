//! The schedule: a list of rows (cycles) of operation instances, with the
//! flow of control implicitly encoded in their predicate matrices.

use crate::instance::{InstId, Instance};
use psp_ir::{flatten, CcReg, Item, LoopSpec, OpKind, ResClass};
use psp_machine::MachineConfig;
use psp_predicate::{IfLog, IfLogEntry};
use std::fmt;

/// A PSP schedule. Row `r` is the set of instances issued in cycle `r` of
/// the transformed loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The rows (cycles).
    pub rows: Vec<Vec<Instance>>,
    /// The loop being scheduled; owns register allocation, so renaming
    /// during transformations draws fresh registers from here.
    pub spec: LoopSpec,
    /// Register-file sizes of the *original* program (before any renaming):
    /// the boundary between architectural registers — whose initial values
    /// are meaningful at loop entry — and scheduler-introduced temporaries.
    pub orig_n_regs: u32,
    /// Original condition-register count.
    pub orig_n_ccs: u32,
    next_id: u64,
}

impl Schedule {
    /// The initial schedule: one instance per row, in flattened source
    /// order, all indices 0, formal matrices = initial control dependence
    /// (paper §2's "initial assignment").
    pub fn initial(spec: &LoopSpec) -> Self {
        let flat = flatten(spec);
        let rows = flat
            .iter()
            .enumerate()
            .map(|(i, f)| {
                vec![Instance {
                    id: InstId(i as u64),
                    op: f.op,
                    index: 0,
                    formal: f.ctrl.clone(),
                    computes_if: f.computes_if,
                    origin: f.pos,
                    late: 0,
                    snapshots: Vec::new(),
                }]
            })
            .collect::<Vec<_>>();
        let next_id = flat.len() as u64;
        Self {
            rows,
            spec: spec.clone(),
            orig_n_regs: spec.n_regs,
            orig_n_ccs: spec.n_ccs,
            next_id,
        }
    }

    /// Allocate a fresh instance id.
    pub fn fresh_id(&mut self) -> InstId {
        let id = InstId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Number of rows (the static II upper bound).
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Total instance count.
    pub fn n_instances(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Locate an instance: `(row, position-in-row)`.
    pub fn find(&self, id: InstId) -> Option<(usize, usize)> {
        for (r, row) in self.rows.iter().enumerate() {
            if let Some(p) = row.iter().position(|i| i.id == id) {
                return Some((r, p));
            }
        }
        None
    }

    /// Borrow an instance by id.
    pub fn instance(&self, id: InstId) -> Option<&Instance> {
        let (r, p) = self.find(id)?;
        Some(&self.rows[r][p])
    }

    /// Remove an instance.
    pub fn remove(&mut self, id: InstId) -> Option<Instance> {
        let (r, p) = self.find(id)?;
        Some(self.rows[r].remove(p))
    }

    /// Insert an instance into row `r` (extending the schedule as needed).
    pub fn insert(&mut self, r: usize, inst: Instance) {
        while self.rows.len() <= r {
            self.rows.push(Vec::new());
        }
        self.rows[r].push(inst);
    }

    /// Drop empty rows (shortening the II).
    pub fn prune_empty_rows(&mut self) {
        self.rows.retain(|r| !r.is_empty());
    }

    /// All instances in schedule order.
    pub fn instances(&self) -> impl Iterator<Item = &Instance> {
        self.rows.iter().flatten()
    }

    /// Largest operation index (pipeline depth; determines preloop length).
    pub fn max_index(&self) -> i32 {
        self.instances().map(|i| i.index).max().unwrap_or(0)
    }

    /// The IFLog of this schedule: where every IF instance sits.
    pub fn iflog(&self) -> IfLog {
        let mut log = IfLog::new();
        for (r, row) in self.rows.iter().enumerate() {
            for inst in row {
                if let Some(if_row) = inst.computes_if {
                    log.record(IfLogEntry {
                        if_row,
                        index: inst.index,
                        cycle: r,
                        matrix: inst.formal.clone(),
                    });
                }
            }
        }
        log
    }

    /// The condition register tested by IF instances of predicate row `r`.
    pub fn cc_of_if_row(&self, if_row: u32) -> Option<CcReg> {
        for inst in self.instances() {
            if inst.computes_if == Some(if_row) {
                if let OpKind::If { cc } = inst.op.kind {
                    return Some(cc);
                }
            }
        }
        // Fall back to the source body (an IF could in principle be absent
        // from a partially built schedule).
        fn scan(items: &[Item], if_row: u32) -> Option<CcReg> {
            for item in items {
                if let Item::If(i) = item {
                    if i.if_id == if_row {
                        return Some(i.cc);
                    }
                    if let Some(cc) =
                        scan(&i.then_items, if_row).or_else(|| scan(&i.else_items, if_row))
                    {
                        return Some(cc);
                    }
                }
            }
            None
        }
        scan(&self.spec.items, if_row)
    }

    /// Resource feasibility of row `r`: instances whose matrices are
    /// pairwise disjoint lie on different paths and can share a machine
    /// slot, so the binding quantity per resource class is the largest set
    /// of pairwise-*compatible* instances (a clique in the compatibility
    /// graph — a safe upper bound on the largest set that is jointly on one
    /// path).
    pub fn row_resource_ok(&self, r: usize, m: &MachineConfig) -> bool {
        let row = match self.rows.get(r) {
            Some(x) => x,
            None => return true,
        };
        for class in [ResClass::Alu, ResClass::Mem, ResClass::Branch] {
            let members: Vec<&Instance> =
                row.iter().filter(|i| i.op.res_class() == class).collect();
            let limit = m.limit(class) as usize;
            if members.len() > limit && compatible_clique_exceeds(&members, limit) {
                return false;
            }
        }
        true
    }

    /// Full resource validation.
    pub fn validate_resources(&self, m: &MachineConfig) -> Result<(), String> {
        for r in 0..self.rows.len() {
            if !self.row_resource_ok(r, m) {
                return Err(format!("row {r} exceeds machine resources"));
            }
        }
        Ok(())
    }

    /// Pretty-print in the paper's Figure 2 style.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (r, row) in self.rows.iter().enumerate() {
            s.push_str(&format!("Cycle{}:", r + 1));
            for inst in row {
                s.push_str(&format!("  {inst};"));
            }
            s.push('\n');
        }
        s
    }
}

/// Whether a clique of pairwise non-disjoint instances larger than `limit`
/// exists. Branch-and-bound DFS: returns as soon as a clique of size
/// `limit + 1` is found, and prunes branches that cannot reach it — this is
/// the decision form of the max-clique question (the only form resource
/// validation needs), far cheaper than computing the maximum exactly.
///
/// The pairwise disjointness tests are hoisted into one adjacency bitset
/// per member, computed once up front: the DFS re-reads each pair many
/// times, and over a row check this is the memoized form of the old
/// per-node `is_disjoint` chain (each pair tested exactly once). The DFS
/// explores the same tree and returns the same boolean.
fn compatible_clique_exceeds(members: &[&Instance], limit: usize) -> bool {
    let n = members.len();
    if n > 128 {
        return clique_exceeds_general(members, limit);
    }
    let mut adj = vec![0u128; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if !members[i].formal.is_disjoint(&members[j].formal) {
                adj[i] |= 1 << j;
                adj[j] |= 1 << i;
            }
        }
    }
    fn go(adj: &[u128], chosen: u128, size: usize, from: usize, limit: usize) -> bool {
        if size > limit {
            return true;
        }
        if size + (adj.len() - from) <= limit {
            return false; // too few candidates left to exceed the limit
        }
        for i in from..adj.len() {
            // Compatible with every chosen member: chosen ⊆ neighbors(i).
            if chosen & !adj[i] == 0 && go(adj, chosen | 1 << i, size + 1, i + 1, limit) {
                return true;
            }
        }
        false
    }
    go(&adj, 0, 0, 0, limit)
}

/// Fallback for rows wider than the bitset (never hit by the kernel suite;
/// kept so pathological inputs stay correct rather than fast).
fn clique_exceeds_general(members: &[&Instance], limit: usize) -> bool {
    fn go(members: &[&Instance], chosen: &mut Vec<usize>, from: usize, limit: usize) -> bool {
        if chosen.len() > limit {
            return true;
        }
        if chosen.len() + (members.len() - from) <= limit {
            return false;
        }
        for i in from..members.len() {
            if chosen
                .iter()
                .all(|&j| !members[i].formal.is_disjoint(&members[j].formal))
            {
                chosen.push(i);
                if go(members, chosen, i + 1, limit) {
                    return true;
                }
                chosen.pop();
            }
        }
        false
    }
    go(members, &mut Vec::new(), 0, limit)
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_predicate::PredicateMatrix;

    fn vecmin() -> Schedule {
        Schedule::initial(&psp_kernels::by_name("vecmin").unwrap().spec)
    }

    #[test]
    fn initial_schedule_is_one_op_per_row() {
        let s = vecmin();
        assert_eq!(s.n_rows(), 8);
        assert_eq!(s.n_instances(), 8);
        assert!(s.rows.iter().all(|r| r.len() == 1));
        // Paper §2: only COPY carries [1]; everything else [b].
        let constrained: Vec<_> = s.instances().filter(|i| !i.formal.is_universe()).collect();
        assert_eq!(constrained.len(), 1);
        assert_eq!(constrained[0].formal, PredicateMatrix::single(0, 0, true));
    }

    #[test]
    fn iflog_records_if_instances() {
        let s = vecmin();
        let log = s.iflog();
        assert_eq!(log.entries().len(), 1);
        let e = &log.entries()[0];
        assert_eq!(e.if_row, 0);
        assert_eq!(e.index, 0);
        assert_eq!(e.cycle, 3); // IF is the 4th flattened op
    }

    #[test]
    fn find_remove_insert_roundtrip() {
        let mut s = vecmin();
        let id = s.rows[0][0].id;
        let (r, p) = s.find(id).unwrap();
        assert_eq!((r, p), (0, 0));
        let inst = s.remove(id).unwrap();
        assert!(s.find(id).is_none());
        s.insert(10, inst);
        assert_eq!(s.find(id), Some((10, 0)));
        assert_eq!(s.n_rows(), 11);
        s.remove(id);
        s.prune_empty_rows();
        assert_eq!(s.n_rows(), 7);
    }

    #[test]
    fn cc_of_if_row_resolves() {
        let s = vecmin();
        assert_eq!(s.cc_of_if_row(0), Some(CcReg(0)));
        assert_eq!(s.cc_of_if_row(9), None);
    }

    #[test]
    fn disjoint_instances_share_resource_slots() {
        let mut s = vecmin();
        let m = MachineConfig::narrow(1, 1, 1);
        // Two disjoint copies in one row: fits a 1-ALU machine.
        let a = Instance {
            id: s.fresh_id(),
            op: psp_ir::op::build::copy(psp_ir::Reg(9), 1i64),
            index: 0,
            formal: PredicateMatrix::single(0, 0, true),
            computes_if: None,
            origin: 0,
            late: 0,
            snapshots: Vec::new(),
        };
        let b = Instance {
            formal: PredicateMatrix::single(0, 0, false),
            id: s.fresh_id(),
            ..a.clone()
        };
        s.insert(20, a.clone());
        s.rows[20].push(b.clone());
        assert!(s.row_resource_ok(20, &m));
        // A third, compatible with both, overflows.
        let c = Instance {
            formal: PredicateMatrix::universe(),
            id: InstId(999),
            ..a
        };
        s.rows[20].push(c);
        assert!(!s.row_resource_ok(20, &m));
        assert!(s.validate_resources(&m).is_err());
    }

    #[test]
    fn render_matches_fig2_style() {
        let s = vecmin();
        let r = s.render();
        assert!(r.starts_with("Cycle1:"));
        assert!(r.contains("COPY"));
        assert!(r.contains("(+0)"));
    }

    #[test]
    fn max_index_of_initial_is_zero() {
        assert_eq!(vecmin().max_index(), 0);
    }
}
