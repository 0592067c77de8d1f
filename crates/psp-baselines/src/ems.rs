//! EMS-style baseline: if-conversion + iterative modulo scheduling with a
//! single fixed initiation interval.
//!
//! Represents the single-II technique class the paper contrasts with
//! (Warter et al.'s Enhanced Modulo Scheduling \[12], GURPR* \[10], GPMB
//! \[11]). The scheduler finds the smallest II for which a modulo schedule
//! of the if-converted body exists under the machine's resources and all
//! dependences — including the cross-iteration constraint that observable
//! operations (stores, live-out definitions) of iteration `i+1` may not
//! execute before iteration `i`'s `BREAK` resolves, which is precisely the
//! handicap variable-II techniques avoid.
//!
//! The constraint system ([`psp_opt::all_edges`]), the verified
//! [`ModuloSchedule`] container, and the search floor
//! (`max(res_mii, rec_mii)`, see [`psp_opt::bounds`]) are shared with the
//! exact branch-and-bound certifier in `psp-opt`, so the greedy II found
//! here is a feasible point of the exact solver's search space and
//! `exact II ≤ EMS II` holds by construction. Executable kernel code for a
//! verified schedule comes from [`psp_opt::modulo_to_vliw`].

use psp_opt::depgraph::build_deps;
use psp_opt::ifconv::if_convert;
use psp_opt::rename::rename_inductions;
pub use psp_opt::ModuloSchedule;
use psp_opt::{all_edges, ModEdge};

use psp_ir::{LoopSpec, Operation};
use psp_machine::{MachineConfig, ResourceUse};
use psp_predicate::PredicateMatrix;

/// Find the smallest feasible single II by iterative modulo scheduling.
pub fn modulo_schedule(spec: &LoopSpec, m: &MachineConfig) -> ModuloSchedule {
    let mut ic = if_convert(spec);
    rename_inductions(&mut ic.ops, &mut ic.spec);
    let ops = ic.ops;
    let live_out = &ic.spec.live_out;
    let edges = all_edges(&ops, live_out, m);
    let intra = build_deps(&ops, live_out, m);
    let heights = intra.heights();

    let mii = psp_opt::res_mii(&ops, m).max(psp_opt::rec_mii(ops.len(), &edges));
    let max_ii = (4 * ops.len() as u32).max(mii + 8);
    for ii in mii..=max_ii {
        if let Some(time) = try_schedule(&ops, &edges, &heights, ii, m) {
            let stages = time.iter().map(|&t| t as u32 / ii).max().unwrap_or(0) + 1;
            let sched = ModuloSchedule {
                ii,
                time,
                stages,
                ops,
                edges,
            };
            debug_assert!(sched.verify(m).is_ok());
            return sched;
        }
    }
    unreachable!("modulo scheduling must succeed at II = schedule length");
}

/// One greedy placement attempt at a fixed II.
fn try_schedule(
    ops: &[(Operation, PredicateMatrix)],
    edges: &[ModEdge],
    heights: &[u32],
    ii: u32,
    m: &MachineConfig,
) -> Option<Vec<usize>> {
    let n = ops.len();
    // Topological order of the distance-0 subgraph = program order (edges
    // only go forward), prioritized by height within ready sets is not
    // needed for feasibility; schedule in order of decreasing height with
    // program order as tiebreak, but never before intra-iteration preds.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(heights[i]), i));

    let mut time: Vec<Option<usize>> = vec![None; n];
    let mut table = vec![ResourceUse::empty(); ii as usize];
    let horizon = 4 * n + 4 * ii as usize + 16;

    // Respect program order among dependent ops: process in program order
    // (simple and always feasible for a large-enough II), refining by
    // height only among independent ops is omitted for determinism.
    let _ = order;
    for i in 0..n {
        let mut est: i64 = 0;
        for e in edges.iter().filter(|e| e.to == i) {
            if let Some(tf) = time[e.from] {
                est = est.max(tf as i64 + e.lat as i64 - (ii as i64) * e.dist as i64);
            }
        }
        let start = est.max(0) as usize;
        let mut placed = false;
        for t in start..start + ii as usize {
            if t > horizon {
                break;
            }
            let slot = t % ii as usize;
            if table[slot].can_accept(ops[i].0.res_class(), m) {
                table[slot].add(&ops[i].0);
                time[i] = Some(t);
                placed = true;
                break;
            }
        }
        if !placed {
            return None;
        }
    }
    let time: Vec<usize> = time.into_iter().map(Option::unwrap).collect();
    // Verify all edges (cross edges to later-scheduled ops were unknown at
    // placement time).
    for e in edges {
        if (time[e.to] as i64 + (ii as i64) * e.dist as i64) < (time[e.from] as i64 + e.lat as i64)
        {
            return None;
        }
    }
    Some(time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_kernels::{all_kernels, by_name};

    #[test]
    fn vecmin_single_ii_is_small_and_verified() {
        let kernel = by_name("vecmin").unwrap();
        let m = MachineConfig::paper_default();
        let s = modulo_schedule(&kernel.spec, &m);
        s.verify(&m).unwrap();
        assert!(s.ii >= 1 && s.ii <= 4, "got II {}", s.ii);
    }

    #[test]
    fn all_kernels_schedule_and_verify() {
        let m = MachineConfig::paper_default();
        for kernel in all_kernels() {
            let s = modulo_schedule(&kernel.spec, &m);
            s.verify(&m)
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            assert!(s.stages >= 1);
        }
    }

    #[test]
    fn narrow_machine_raises_ii() {
        let kernel = by_name("vecmin").unwrap();
        let wide = modulo_schedule(&kernel.spec, &MachineConfig::paper_default());
        let narrow = modulo_schedule(&kernel.spec, &MachineConfig::narrow(1, 1, 1));
        assert!(narrow.ii > wide.ii);
        narrow.verify(&MachineConfig::narrow(1, 1, 1)).unwrap();
    }

    #[test]
    fn res_mii_lower_bound_holds() {
        let m = MachineConfig::narrow(2, 1, 1);
        for kernel in all_kernels() {
            let s = modulo_schedule(&kernel.spec, &m);
            let ic = if_convert(&kernel.spec);
            assert!(s.ii >= psp_opt::res_mii(&ic.ops, &m), "{}", kernel.name);
        }
    }

    #[test]
    fn greedy_ii_never_beats_the_certified_floor() {
        let m = MachineConfig::paper_default();
        for kernel in all_kernels() {
            let s = modulo_schedule(&kernel.spec, &m);
            let lb = psp_opt::mii_lower_bound(&kernel.spec, &m);
            assert!(s.ii >= lb, "{}: II {} < floor {lb}", kernel.name, s.ii);
        }
    }

    #[test]
    fn estimated_cycles_scale_with_ii() {
        let kernel = by_name("vecmin").unwrap();
        let m = MachineConfig::paper_default();
        let s = modulo_schedule(&kernel.spec, &m);
        let c100 = s.estimated_cycles(100);
        let c200 = s.estimated_cycles(200);
        assert_eq!(c200 - c100, 100 * s.ii as u64);
    }

    #[test]
    fn store_kernels_pay_the_exit_speculation_tax() {
        // With stores forced behind the previous iteration's BREAK, the
        // single II of a store kernel cannot reach the no-store bound.
        let m = MachineConfig::paper_default();
        let s = modulo_schedule(&by_name("sign_store").unwrap().spec, &m);
        assert!(s.ii >= 2, "exit speculation constraint should bind");
    }
}
