//! Dependence graph over a straight-line list of (guarded) operations.
//!
//! Edge latencies follow the tree-VLIW parallel-cycle semantics:
//!
//! * flow (def → use): the producer's latency (consumer strictly later for
//!   unit latency);
//! * anti (use → def): 0 — reads see pre-cycle state, so writer and reader
//!   may share a cycle but the writer may not come earlier;
//! * output (def → def): 1 — two same-cycle writes to one register are a
//!   conflict (unless the writers' path matrices are disjoint, in which
//!   case at most one commits and *no* edge is needed);
//! * memory: store→load 1, load→store 0, store→store 1, pruned by
//!   [`psp_ir::MemAccess::may_alias`] with induction-stride knowledge;
//! * `BREAK` protocol: observable operations (stores, live-out defs)
//!   textually before a BREAK must not sink past it (edge, latency 0);
//!   observable operations after a BREAK must come strictly later (edge,
//!   latency 1); BREAKs keep their relative order (latency 0).
//!
//! Operations whose control matrices are disjoint lie on different paths
//! and never interfere — no edges at all, the PSP insight reused here.

use psp_ir::{mem_access, AluOp, OpKind, Operand, Operation, Reg, RegRef};
use psp_machine::MachineConfig;
use psp_predicate::PredicateMatrix;
use std::collections::BTreeMap;

/// A dependence DAG in adjacency-list form.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// Number of operations.
    pub n: usize,
    /// `succs[i]` = `(j, latency)` edges.
    pub succs: Vec<Vec<(usize, u32)>>,
    /// `preds[j]` = `(i, latency)` edges.
    pub preds: Vec<Vec<(usize, u32)>>,
}

impl DepGraph {
    fn new(n: usize) -> Self {
        Self {
            n,
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        }
    }

    fn add(&mut self, i: usize, j: usize, lat: u32) {
        debug_assert!(i < j, "edges follow program order");
        if let Some(e) = self.succs[i].iter_mut().find(|(t, _)| *t == j) {
            e.1 = e.1.max(lat);
            if let Some(p) = self.preds[j].iter_mut().find(|(s, _)| *s == i) {
                p.1 = p.1.max(lat);
            }
            return;
        }
        self.succs[i].push((j, lat));
        self.preds[j].push((i, lat));
    }

    /// Longest-path height of each node to any sink (sum of latencies,
    /// counting each node's own unit slot) — the list-scheduling priority.
    pub fn heights(&self) -> Vec<u32> {
        let mut h = vec![0u32; self.n];
        for i in (0..self.n).rev() {
            let mut best = 0;
            for &(j, lat) in &self.succs[i] {
                best = best.max(lat + h[j]);
            }
            h[i] = best;
        }
        h
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }
}

/// Per-iteration stride of unit-induction registers: a register with
/// exactly one unguarded definition of the form `r = r ± imm`.
pub fn induction_strides(ops: &[(Operation, PredicateMatrix)]) -> BTreeMap<Reg, i64> {
    let mut defs: BTreeMap<Reg, Vec<usize>> = BTreeMap::new();
    for (i, (op, _)) in ops.iter().enumerate() {
        for d in op.defs() {
            if let RegRef::Gpr(r) = d {
                defs.entry(r).or_default().push(i);
            }
        }
    }
    let mut out = BTreeMap::new();
    for (r, sites) in defs {
        if sites.len() != 1 {
            continue;
        }
        let (op, ctrl) = &ops[sites[0]];
        if op.guard.is_some() || !ctrl.is_universe() {
            continue;
        }
        if let OpKind::Alu { op: alu, dst, a, b } = op.kind {
            if dst != r {
                continue;
            }
            let stride = match (alu, a, b) {
                (AluOp::Add, Operand::Reg(x), Operand::Imm(c)) if x == r => Some(c),
                (AluOp::Add, Operand::Imm(c), Operand::Reg(x)) if x == r => Some(c),
                (AluOp::Sub, Operand::Reg(x), Operand::Imm(c)) if x == r => Some(-c),
                _ => None,
            };
            if let Some(s) = stride {
                out.insert(r, s);
            }
        }
    }
    out
}

/// Whether `op` must stay ordered relative to BREAKs: it has an observable
/// side effect if the loop exits (store or definition of a live-out
/// register).
fn is_observable(op: &Operation, live_out: &[RegRef]) -> bool {
    if op.is_store() {
        return true;
    }
    op.defs().iter().any(|d| live_out.contains(d))
}

/// Build the dependence graph for one straight-line iteration.
pub fn build_deps(
    ops: &[(Operation, PredicateMatrix)],
    live_out: &[RegRef],
    m: &MachineConfig,
) -> DepGraph {
    let strides = induction_strides(ops);
    let stride_of = |r: Reg| strides.get(&r).copied();
    let mut g = DepGraph::new(ops.len());

    #[allow(clippy::needless_range_loop)]
    for j in 0..ops.len() {
        let (opj, mj) = &ops[j];
        for i in 0..j {
            let (opi, mi) = &ops[i];
            if mi.is_disjoint(mj) {
                continue; // different paths never co-execute
            }
            let defs_i = opi.defs();
            let uses_i = opi.uses();
            let defs_j = opj.defs();
            let uses_j = opj.uses();
            // Flow: i defines something j reads.
            if defs_i.iter().any(|d| uses_j.contains(d)) {
                g.add(i, j, m.latency(opi));
            }
            // Anti: i reads something j overwrites.
            if uses_i.iter().any(|u| defs_j.contains(u)) {
                g.add(i, j, 0);
            }
            // Output: both write the same register.
            if defs_i.iter().any(|d| defs_j.contains(d)) {
                g.add(i, j, 1);
            }
            // Memory.
            if let (Some(ai), Some(aj)) = (mem_access(opi), mem_access(opj)) {
                if ai.interferes(&aj) && ai.may_alias(&aj, 0, stride_of) {
                    let lat = match (ai.kind, aj.kind) {
                        (psp_ir::AccessKind::Write, psp_ir::AccessKind::Read) => 1,
                        (psp_ir::AccessKind::Read, psp_ir::AccessKind::Write) => 0,
                        _ => 1, // write-write
                    };
                    g.add(i, j, lat);
                }
            }
            // BREAK protocol.
            match (opi.is_break(), opj.is_break()) {
                (false, true) if is_observable(opi, live_out) => g.add(i, j, 0),
                (true, false) if is_observable(opj, live_out) => g.add(i, j, 1),
                (true, true) => g.add(i, j, 0),
                _ => {}
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ifconv::if_convert;
    use psp_ir::op::build::*;
    use psp_ir::{ArrayId, CcReg, CmpOp};

    fn u() -> PredicateMatrix {
        PredicateMatrix::universe()
    }

    #[test]
    fn flow_anti_output_edges() {
        let m = MachineConfig::paper_default();
        let ops = vec![
            (add(Reg(0), Reg(1), 1i64), u()), // 0: def R0
            (add(Reg(2), Reg(0), 1i64), u()), // 1: use R0 (flow from 0)
            (add(Reg(0), Reg(3), 1i64), u()), // 2: redef R0 (anti from 1, output from 0)
        ];
        let g = build_deps(&ops, &[], &m);
        assert!(g.succs[0].contains(&(1, 1)), "flow lat 1");
        assert!(g.succs[1].contains(&(2, 0)), "anti lat 0");
        assert!(g.succs[0].contains(&(2, 1)), "output lat 1");
    }

    #[test]
    fn disjoint_paths_have_no_edges() {
        let m = MachineConfig::paper_default();
        let t = PredicateMatrix::single(0, 0, true);
        let f = PredicateMatrix::single(0, 0, false);
        let ops = vec![
            (copy(Reg(0), 1i64), t),
            (copy(Reg(0), 2i64), f), // same destination, opposite path
        ];
        let g = build_deps(&ops, &[], &m);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn memory_edges_respect_strides() {
        let m = MachineConfig::paper_default();
        let x = ArrayId(0);
        // k is a unit induction register here.
        let ops = vec![
            (store(x, Reg(0), Reg(1)), u()),
            (load(Reg(2), x, Reg(0)), u()), // same address: flow lat 1
            (add(Reg(0), Reg(0), 1i64), u()),
        ];
        let g = build_deps(&ops, &[], &m);
        assert!(g.succs[0].contains(&(1, 1)));
        // load -> induction add: anti on R0? no — add reads/writes R0, load
        // reads R0: anti edge exists from store/load to add (use->def).
        assert!(g.succs[1].contains(&(2, 0)));
    }

    #[test]
    fn break_protocol_edges() {
        let m = MachineConfig::paper_default();
        let x = ArrayId(0);
        let live_out = vec![RegRef::Gpr(Reg(5))];
        let ops = vec![
            (store(x, Reg(0), Reg(1)), u()), // 0: observable
            (break_(CcReg(0)), u()),         // 1
            (copy(Reg(5), Reg(2)), u()),     // 2: live-out def
            (copy(Reg(6), Reg(2)), u()),     // 3: scratch
        ];
        let g = build_deps(&ops, &live_out, &m);
        assert!(g.succs[0].contains(&(1, 0)), "store before break, lat 0");
        assert!(g.succs[1].contains(&(2, 1)), "live-out after break, lat 1");
        assert!(
            !g.succs[1].iter().any(|&(t, _)| t == 3),
            "scratch may float above the break"
        );
    }

    #[test]
    fn induction_stride_detection() {
        let ops = vec![
            (add(Reg(0), Reg(0), 1i64), u()),
            (sub(Reg(1), Reg(1), 2i64), u()),
            (add(Reg(2), Reg(3), 1i64), u()), // not self-increment
            (
                add(Reg(4), Reg(4), 1i64),
                PredicateMatrix::single(0, 0, true),
            ), // conditional
        ];
        let s = induction_strides(&ops);
        assert_eq!(s.get(&Reg(0)), Some(&1));
        assert_eq!(s.get(&Reg(1)), Some(&-2));
        assert_eq!(s.get(&Reg(2)), None);
        assert_eq!(s.get(&Reg(4)), None);
    }

    #[test]
    fn heights_accumulate_latencies() {
        let m = MachineConfig::paper_default();
        let ops = vec![
            (load(Reg(0), ArrayId(0), Reg(1)), u()),
            (cmp(CmpOp::Lt, CcReg(0), Reg(0), Reg(2)), u()),
            (break_(CcReg(0)), u()),
        ];
        let g = build_deps(&ops, &[], &m);
        let h = g.heights();
        assert_eq!(h, vec![2, 1, 0]);
    }

    #[test]
    fn vecmin_ifconverted_graph_has_expected_chains() {
        // Without renaming, the anti-dependence COPY m,k → ADD k,k,1 chains
        // the exit test behind the compare: LOAD → LT → COPY → ADD → GE →
        // BREAK gives the loads height 4.
        let spec = psp_kernels::by_name("vecmin").unwrap().spec;
        let ic = if_convert(&spec);
        let g = build_deps(&ic.ops, &ic.spec.live_out, &MachineConfig::paper_default());
        let h = g.heights();
        assert_eq!(h[0], 4);
        assert_eq!(h[1], 4);
        // Renaming breaks the anti-dependence and shortens the chain to 2.
        let mut ic = if_convert(&spec);
        let mut spec2 = ic.spec.clone();
        crate::rename::rename_inductions(&mut ic.ops, &mut spec2);
        let g = build_deps(&ic.ops, &spec2.live_out, &MachineConfig::paper_default());
        let h = g.heights();
        assert_eq!(h[0], 2);
        assert_eq!(h[1], 2);
    }
}
