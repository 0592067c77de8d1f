//! The fixed-II modulo-scheduling constraint system: dependence edges with
//! iteration distances over the if-converted, induction-renamed body, and
//! the verified [`ModuloSchedule`] container.
//!
//! Both the greedy EMS baseline (`psp-baselines::ems`) and the exact
//! branch-and-bound certifier ([`crate::exact`]) schedule against *this*
//! constraint system, so their IIs are directly comparable: the greedy
//! solution is a feasible point of the exact solver's search space, which
//! makes `exact II ≤ heuristic II` structural rather than empirical.
//!
//! The edge set is strong enough to make any satisfying assignment
//! *executable*: [`crate::kernelgen::modulo_to_vliw`] turns a verified
//! schedule into kernel code without modulo variable expansion, because the
//! distance-1 anti edges over all register pairs bound every value's
//! lifetime to one II (under the simulator's pre-cycle-read /
//! end-of-cycle-write semantics the equality case is safe).

use crate::depgraph::{build_deps, induction_strides, is_observable};
use psp_ir::{mem_access, Operation, RegRef};
use psp_machine::{MachineConfig, ResourceUse};
use psp_predicate::PredicateMatrix;

/// A dependence edge with iteration distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModEdge {
    /// Source operation index.
    pub from: usize,
    /// Target operation index.
    pub to: usize,
    /// Latency.
    pub lat: u32,
    /// Iteration distance (0 = same iteration).
    pub dist: u32,
}

/// A verified modulo schedule.
#[derive(Debug, Clone)]
pub struct ModuloSchedule {
    /// The initiation interval.
    pub ii: u32,
    /// Absolute issue slot of each operation within one iteration's
    /// schedule (slot / ii = stage).
    pub time: Vec<usize>,
    /// Number of overlapped stages.
    pub stages: u32,
    /// The scheduled operations (if-converted, renamed).
    pub ops: Vec<(Operation, PredicateMatrix)>,
    /// All dependence edges used.
    pub edges: Vec<ModEdge>,
}

impl ModuloSchedule {
    /// Check every dependence (`t_to + II·dist ≥ t_from + lat`) and the
    /// modulo resource table.
    pub fn verify(&self, m: &MachineConfig) -> Result<(), String> {
        for e in &self.edges {
            let lhs = self.time[e.to] as i64 + (self.ii as i64) * e.dist as i64;
            let rhs = self.time[e.from] as i64 + e.lat as i64;
            if lhs < rhs {
                return Err(format!(
                    "edge {}→{} (lat {}, dist {}) violated: {} < {}",
                    e.from, e.to, e.lat, e.dist, lhs, rhs
                ));
            }
        }
        let mut table = vec![ResourceUse::empty(); self.ii as usize];
        for (i, &t) in self.time.iter().enumerate() {
            table[t % self.ii as usize].add(&self.ops[i].0);
        }
        for (slot, u) in table.iter().enumerate() {
            if !u.fits(m) {
                return Err(format!("modulo slot {slot} over-subscribed"));
            }
        }
        Ok(())
    }

    /// Idealized dynamic cycles for `iterations` iterations: fill the
    /// pipeline once, then one II per iteration.
    pub fn estimated_cycles(&self, iterations: u64) -> u64 {
        (self.stages.saturating_sub(1) as u64) * self.ii as u64 + iterations * self.ii as u64
    }
}

/// All edges: intra-iteration (from [`build_deps`]) plus distance-1
/// cross-iteration register, memory, and BREAK-speculation edges.
pub fn all_edges(
    ops: &[(Operation, PredicateMatrix)],
    live_out: &[RegRef],
    m: &MachineConfig,
) -> Vec<ModEdge> {
    let intra = build_deps(ops, live_out, m);
    let mut edges: Vec<ModEdge> = Vec::new();
    for (i, succ) in intra.succs.iter().enumerate() {
        for &(j, lat) in succ {
            edges.push(ModEdge {
                from: i,
                to: j,
                lat,
                dist: 0,
            });
        }
    }
    let strides = induction_strides(ops);
    let stride_of = |r: psp_ir::Reg| strides.get(&r).copied();
    // Cross-iteration edges (distance 1). No disjointness pruning: the
    // predicates of different iterations are distinct instances.
    for i in 0..ops.len() {
        for j in 0..ops.len() {
            let (a, _) = &ops[i];
            let (b, _) = &ops[j];
            // Flow: def in iteration k, use in iteration k+1 that reads it
            // (uses at positions ≤ i read the previous iteration's value).
            if j <= i && a.defs().iter().any(|d| b.uses().contains(d)) {
                edges.push(ModEdge {
                    from: i,
                    to: j,
                    lat: m.latency(a),
                    dist: 1,
                });
            }
            // Anti and output, distance 1 (usually slack, kept for rigor).
            if a.uses().iter().any(|u| b.defs().contains(u)) {
                edges.push(ModEdge {
                    from: i,
                    to: j,
                    lat: 0,
                    dist: 1,
                });
            }
            if a.defs().iter().any(|d| b.defs().contains(d)) {
                edges.push(ModEdge {
                    from: i,
                    to: j,
                    lat: 1,
                    dist: 1,
                });
            }
            // Memory at distance 1 (kernel addresses are unit-stride
            // affine with zero displacement, so distance ≥ 2 cannot alias
            // when distance 1 does not).
            if let (Some(ma), Some(mb)) = (mem_access(a), mem_access(b)) {
                if ma.interferes(&mb) && ma.may_alias(&mb, 1, stride_of) {
                    let lat = match (ma.kind, mb.kind) {
                        (psp_ir::AccessKind::Write, psp_ir::AccessKind::Read) => 1,
                        (psp_ir::AccessKind::Read, psp_ir::AccessKind::Write) => 0,
                        _ => 1,
                    };
                    edges.push(ModEdge {
                        from: i,
                        to: j,
                        lat,
                        dist: 1,
                    });
                }
            }
            // No speculation across the exit: observables of iteration k+1
            // wait for iteration k's BREAKs.
            if a.is_break() && (is_observable(b, live_out) || b.is_break()) {
                edges.push(ModEdge {
                    from: i,
                    to: j,
                    lat: 1,
                    dist: 1,
                });
            }
            // A BREAK of iteration k+1 only fires after iteration k ran to
            // completion, so every observable of iteration k must already
            // have committed (same cycle is fine: a fired BREAK still
            // commits its own cycle). Without this edge a schedule could
            // place an observable of iteration k *after* the next
            // iteration's exit and silently lose its effect in generated
            // kernel code.
            if is_observable(a, live_out) && b.is_break() {
                edges.push(ModEdge {
                    from: i,
                    to: j,
                    lat: 0,
                    dist: 1,
                });
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ifconv::if_convert;
    use psp_ir::op::build::*;
    use psp_ir::{ArrayId, CcReg, Reg};

    fn u() -> PredicateMatrix {
        PredicateMatrix::universe()
    }

    #[test]
    fn observable_to_break_edge_present() {
        let x = ArrayId(0);
        let live_out = vec![RegRef::Gpr(Reg(5))];
        let ops = vec![
            (store(x, Reg(0), Reg(1)), u()), // 0: observable
            (copy(Reg(6), Reg(2)), u()),     // 1: scratch
            (break_(CcReg(0)), u()),         // 2
        ];
        let edges = all_edges(&ops, &live_out, &MachineConfig::paper_default());
        let has = |from, to, lat, dist| {
            edges.contains(&ModEdge {
                from,
                to,
                lat,
                dist,
            })
        };
        assert!(has(0, 2, 0, 1), "store must commit before the next break");
        assert!(
            !has(1, 2, 0, 1),
            "scratch defs owe the next break nothing (only an anti/flow edge could)"
        );
    }

    #[test]
    fn verified_schedule_respects_obs_break_edge() {
        // A source-after-break store must land within one II of the break:
        // the next iteration's BREAK may only fire once it has committed.
        // Placing it two cycles down at II=1 satisfies every older edge
        // (break→store intra lat 1, break→observable dist 1) but not the
        // new store→break distance-1 edge.
        let x = ArrayId(0);
        let ops = vec![(break_(CcReg(0)), u()), (store(x, Reg(0), Reg(1)), u())];
        let edges = all_edges(&ops, &[], &MachineConfig::paper_default());
        let bad = ModuloSchedule {
            ii: 1,
            time: vec![0, 2],
            stages: 3,
            ops: ops.clone(),
            edges: edges.clone(),
        };
        assert!(bad.verify(&MachineConfig::paper_default()).is_err());
        let good = ModuloSchedule {
            ii: 1,
            time: vec![0, 1],
            stages: 2,
            ops,
            edges,
        };
        good.verify(&MachineConfig::paper_default()).unwrap();
    }

    #[test]
    fn vecmin_edges_cover_the_renamed_body() {
        let spec = psp_kernels::by_name("vecmin").unwrap().spec;
        let mut ic = if_convert(&spec);
        crate::rename::rename_inductions(&mut ic.ops, &mut ic.spec);
        let edges = all_edges(&ic.ops, &ic.spec.live_out, &MachineConfig::paper_default());
        // The recurrence m → load x[m] → cmp → copy m must appear: a
        // distance-1 flow edge from the guarded COPY back to the load.
        let copy_idx = ic
            .ops
            .iter()
            .position(|(o, _)| o.guard.is_some())
            .expect("guarded copy");
        assert!(edges
            .iter()
            .any(|e| e.from == copy_idx && e.dist == 1 && e.lat >= 1));
    }
}
