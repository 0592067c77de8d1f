//! The schedule: a list of rows (cycles) of operation instances, with the
//! flow of control implicitly encoded in their predicate matrices.

use crate::instance::{InstId, Instance};
use psp_ir::{flatten, LoopSpec, Reg, ResClass};
use psp_machine::MachineConfig;
use psp_predicate::{IfLog, IfLogEntry, PredicateMatrix};
use std::fmt;
use std::sync::Arc;

/// A PSP schedule. Row `r` is the set of instances issued in cycle `r` of
/// the transformed loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The rows (cycles).
    pub rows: Vec<Vec<Instance>>,
    /// The loop being scheduled, unchanged and shared by every clone. Its
    /// `n_regs`/`n_ccs` mark where the architectural registers — whose
    /// initial values are meaningful at loop entry — end and
    /// scheduler-introduced temporaries begin.
    pub source: Arc<LoopSpec>,
    /// The next fresh register number.
    next_reg: u32,
    /// The next fresh instance id.
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
                let mut inst = Instance::new(InstId(i as u64), f.op, f.ctrl.clone(), f.pos);
                inst.computes_if = f.computes_if;
                vec![inst]
            })
            .collect::<Vec<_>>();
        Self {
            rows,
            source: Arc::new(spec.clone()),
            next_reg: spec.n_regs,
            next_id: flat.len() as u64,
        }
    }

    /// Allocate a fresh instance id.
    pub fn fresh_id(&mut self) -> InstId {
        self.next_id += 1;
        InstId(self.next_id - 1)
    }

    /// General-purpose registers in use: the source's, then one per
    /// committed rename.
    pub fn n_regs(&self) -> u32 {
        self.next_reg
    }

    /// The register and instance id the next rename takes. A move plans
    /// against them without taking them; only
    /// [`Schedule::insert_leftover`] does, so a refused plan draws nothing.
    pub(crate) fn next_fresh(&self) -> (Reg, InstId) {
        (Reg(self.next_reg), InstId(self.next_id))
    }

    /// Insert a committed rename's leftover `COPY` into row `r`, taking
    /// the fresh register and id it was planned against.
    pub(crate) fn insert_leftover(&mut self, r: usize, copy: Instance) {
        debug_assert_eq!(copy.id, InstId(self.next_id));
        self.next_reg += 1;
        self.next_id += 1;
        self.insert(r, copy);
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
                    });
                }
            }
        }
        log
    }

    /// Resource feasibility of row `r`: instances whose matrices are
    /// pairwise disjoint lie on different paths and can share a machine
    /// slot, so the binding quantity per resource class is the largest set
    /// of pairwise-*compatible* instances (a clique in the compatibility
    /// graph — a safe upper bound on the largest set that is jointly on one
    /// path). Keys an IF of the row computes do not count (see `row_fits`).
    pub fn row_resource_ok(&self, r: usize, m: &MachineConfig) -> bool {
        match self.rows.get(r) {
            Some(row) => row_fits(row, None, None, m),
            None => true,
        }
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

/// Resource feasibility of `row` without the instance `without` and with
/// `extra` added to it (see [`Schedule::row_resource_ok`]). A class's
/// members are counted first; the clique search runs only when they
/// outnumber the class's slots.
///
/// A predicate an IF of this row computes (`extra` included) is dispatched
/// only after the row has issued, so the clique search ignores its key:
/// instances disjoint only there sit on two subtrees of one tree
/// instruction, and both take a slot.
pub(crate) fn row_fits(
    row: &[Instance],
    without: Option<InstId>,
    extra: Option<&Instance>,
    m: &MachineConfig,
) -> bool {
    let all = || {
        row.iter()
            .filter(move |i| Some(i.id) != without)
            .chain(extra)
    };
    let row_keys = || {
        PredicateMatrix::from_entries(all().filter_map(|i| Some((i.computes_if?, i.index, true))))
    };
    for class in [ResClass::Alu, ResClass::Mem, ResClass::Branch] {
        let members = all().filter(|i| i.op().res_class() == class);
        let n = members.clone().count();
        let limit = m.limit(class) as usize;
        if n > limit && compatible_clique_exceeds(members, n, limit, &row_keys()) {
            return false;
        }
    }
    true
}

/// Whether a clique of pairwise non-disjoint instances larger than `limit`
/// exists, ignoring the positions `row_keys` constrains. Branch-and-bound
/// DFS: returns as soon as a clique of size `limit + 1` is found, and
/// prunes branches that cannot reach it — this is the decision form of the
/// max-clique question (the only form resource validation needs), far
/// cheaper than computing the maximum exactly.
///
/// The pairwise disjointness tests are hoisted into one adjacency bitset
/// per member, computed once up front: the DFS re-reads each pair many
/// times, and over a row check this is the memoized form of the old
/// per-node `is_disjoint` chain (each pair tested exactly once). The DFS
/// explores the same tree and returns the same boolean. The `n` members
/// are walked in place; only rows wider than the bitset are collected.
fn compatible_clique_exceeds<'a>(
    members: impl Iterator<Item = &'a Instance> + Clone,
    n: usize,
    limit: usize,
    row_keys: &PredicateMatrix,
) -> bool {
    const BITS: usize = u128::BITS as usize;
    if n > BITS {
        return clique_exceeds_general(&members.collect::<Vec<_>>(), limit, row_keys);
    }
    let mut adj = [0u128; BITS];
    for (i, a) in members.clone().enumerate() {
        for (j, b) in members.clone().enumerate().skip(i + 1) {
            if !a.formal.is_disjoint_outside(&b.formal, row_keys) {
                adj[i] |= 1 << j;
                adj[j] |= 1 << i;
            }
        }
    }
    let adj = &adj[..n];
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
    go(adj, 0, 0, 0, limit)
}

/// Fallback for rows wider than the bitset (never hit by the kernel suite;
/// kept so pathological inputs stay correct rather than fast).
fn clique_exceeds_general(members: &[&Instance], limit: usize, row_keys: &PredicateMatrix) -> bool {
    fn go(
        members: &[&Instance],
        row_keys: &PredicateMatrix,
        chosen: &mut Vec<usize>,
        from: usize,
        limit: usize,
    ) -> bool {
        if chosen.len() > limit {
            return true;
        }
        if chosen.len() + (members.len() - from) <= limit {
            return false;
        }
        for i in from..members.len() {
            if chosen.iter().all(|&j| {
                !members[i]
                    .formal
                    .is_disjoint_outside(&members[j].formal, row_keys)
            }) {
                chosen.push(i);
                if go(members, row_keys, chosen, i + 1, limit) {
                    return true;
                }
                chosen.pop();
            }
        }
        false
    }
    go(members, row_keys, &mut Vec::new(), 0, limit)
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn disjoint_instances_share_resource_slots() {
        let mut s = vecmin();
        let m = MachineConfig::narrow(1, 1, 1);
        // Two disjoint copies in one row: fits a 1-ALU machine.
        let a = Instance::new(
            s.fresh_id(),
            psp_ir::op::build::copy(psp_ir::Reg(9), 1i64),
            PredicateMatrix::single(0, 0, true),
            0,
        );
        let mut b = a.clone();
        b.formal = PredicateMatrix::single(0, 0, false);
        b.id = s.fresh_id();
        s.insert(20, a.clone());
        s.rows[20].push(b.clone());
        assert!(s.row_resource_ok(20, &m));
        // A third, compatible with both, overflows.
        let mut c = a;
        c.formal = PredicateMatrix::universe();
        c.id = InstId(999);
        s.rows[20].push(c);
        assert!(!s.row_resource_ok(20, &m));
        assert!(s.validate_resources(&m).is_err());
    }

    #[test]
    fn instances_disjoint_on_a_same_row_if_take_a_slot_each() {
        let m = MachineConfig::narrow(1, 1, 1);
        let copy = |id, v| {
            Instance::new(
                InstId(id),
                psp_ir::op::build::copy(psp_ir::Reg(9), 1i64),
                PredicateMatrix::single(0, 0, v),
                0,
            )
        };
        let mut iff = Instance::new(
            InstId(2),
            psp_ir::op::build::if_(psp_ir::CcReg(0)),
            PredicateMatrix::universe(),
            0,
        );
        iff.computes_if = Some(0);
        let pair = [copy(0, true), copy(1, false)];
        // The IF sits in an earlier row: the pair lies in two blocks.
        assert!(row_fits(&pair, None, None, &m));
        // The IF computes the key in this row, in the row or as `extra`:
        // both subtrees of one tree instruction issue, two ALU slots.
        let with_if = [pair[0].clone(), pair[1].clone(), iff.clone()];
        assert!(!row_fits(&with_if, None, None, &m));
        assert!(!row_fits(&pair, None, Some(&iff), &m));
        // An IF of this row computing another key changes nothing.
        iff.computes_if = Some(1);
        assert!(row_fits(&pair, None, Some(&iff), &m));
        // Nor does one computing the same row of another iteration.
        iff.computes_if = Some(0);
        iff.index = 1;
        assert!(row_fits(&pair, None, Some(&iff), &m));
    }

    #[test]
    fn row_fits_past_the_bitset_width() {
        // Same-class rows of 128 members take the bitset clique search;
        // 130 take the general fallback. Both must give the same answers.
        let row = |formals: Vec<PredicateMatrix>| -> Vec<Instance> {
            (0..)
                .zip(formals)
                .map(|(i, formal)| {
                    Instance::new(
                        InstId(i),
                        psp_ir::op::build::copy(psp_ir::Reg(9), 1i64),
                        formal,
                        0,
                    )
                })
                .collect()
        };
        for n in [128, 130] {
            let shapes = [
                // Distinct outcomes of 8 IFs: pairwise disjoint, clique 1.
                (
                    "disjoint clones",
                    (0..n)
                        .map(|i| {
                            PredicateMatrix::from_entries((0..8).map(|b| (b, 0, i >> b & 1 == 1)))
                        })
                        .collect(),
                    true,
                ),
                ("all-universe", vec![PredicateMatrix::universe(); n], false),
                // Two complementary halves: the clique is half the row.
                (
                    "complementary halves",
                    (0..n)
                        .map(|i| PredicateMatrix::single(0, 0, i < n / 2))
                        .collect(),
                    false,
                ),
            ];
            for (label, formals, fits) in shapes {
                let r = row(formals);
                for m in [
                    MachineConfig::paper_default(),
                    MachineConfig::narrow(1, 1, 1),
                ] {
                    assert_eq!(
                        row_fits(&r, None, None, &m),
                        fits,
                        "{label}, {n} members, {m:?}"
                    );
                }
            }
        }
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
