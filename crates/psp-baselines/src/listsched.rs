//! Height-priority cycle-by-cycle list scheduler.

use psp_ir::Operation;
use psp_machine::{MachineConfig, ResourceUse};
use psp_opt::depgraph::DepGraph;
use psp_predicate::PredicateMatrix;

/// Schedule `ops` into cycles honoring `deps` and the machine's per-cycle
/// resource limits. Returns one operation list per cycle (no empty trailing
/// cycles; intermediate cycles may be empty when latencies force gaps).
pub fn list_schedule(
    ops: &[(Operation, PredicateMatrix)],
    deps: &DepGraph,
    m: &MachineConfig,
) -> Vec<Vec<Operation>> {
    let n = ops.len();
    let heights = deps.heights();
    let mut cycle_of: Vec<Option<usize>> = vec![None; n];
    let mut unscheduled: Vec<usize> = (0..n).collect();
    let mut cycles: Vec<Vec<Operation>> = Vec::new();
    let mut uses: Vec<ResourceUse> = Vec::new();
    let mut t = 0usize;

    while !unscheduled.is_empty() {
        if cycles.len() <= t {
            cycles.push(Vec::new());
            uses.push(ResourceUse::empty());
        }
        // Fixpoint within the cycle: placing an operation can make its
        // latency-0 successors ready in the same cycle (e.g. a BREAK that
        // may share a cycle with the store it is ordered after).
        loop {
            // Ready at t: all predecessors scheduled with satisfied latency.
            let mut ready: Vec<usize> = unscheduled
                .iter()
                .copied()
                .filter(|&i| {
                    deps.preds[i]
                        .iter()
                        .all(|&(p, lat)| cycle_of[p].is_some_and(|cp| cp + lat as usize <= t))
                })
                .collect();
            // Highest first; ties broken by source order for determinism.
            ready.sort_by_key(|&i| (std::cmp::Reverse(heights[i]), i));
            let mut placed_any = false;
            for i in ready {
                let class = ops[i].0.res_class();
                if uses[t].can_accept(class, m) {
                    uses[t].add(&ops[i].0);
                    cycles[t].push(ops[i].0);
                    cycle_of[i] = Some(t);
                    unscheduled.retain(|&j| j != i);
                    placed_any = true;
                }
            }
            if !placed_any {
                break;
            }
        }
        t += 1;
        assert!(
            t <= 4 * n + 64,
            "list scheduler failed to converge (cyclic dependence graph?)"
        );
    }
    while cycles.last().is_some_and(Vec::is_empty) {
        cycles.pop();
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_ir::op::build::*;
    use psp_ir::Reg;
    use psp_opt::depgraph::build_deps;
    use psp_opt::ifconv::if_convert;
    use psp_opt::rename::rename_inductions;

    fn u() -> PredicateMatrix {
        PredicateMatrix::universe()
    }

    #[test]
    fn independent_ops_pack_into_one_cycle() {
        let m = MachineConfig::paper_default();
        let ops: Vec<_> = (0..4).map(|i| (copy(Reg(i), 1i64), u())).collect();
        let deps = build_deps(&ops, &[], &m);
        let cycles = list_schedule(&ops, &deps, &m);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 4);
    }

    #[test]
    fn resource_limits_split_cycles() {
        let m = MachineConfig::narrow(2, 1, 1);
        let ops: Vec<_> = (0..4).map(|i| (copy(Reg(i), 1i64), u())).collect();
        let deps = build_deps(&ops, &[], &m);
        let cycles = list_schedule(&ops, &deps, &m);
        assert_eq!(cycles.len(), 2);
        assert!(cycles.iter().all(|c| c.len() <= 2));
    }

    #[test]
    fn chain_respects_latency() {
        let m = MachineConfig::paper_default();
        let ops = vec![
            (add(Reg(0), Reg(1), 1i64), u()),
            (add(Reg(2), Reg(0), 1i64), u()),
            (add(Reg(3), Reg(2), 1i64), u()),
        ];
        let deps = build_deps(&ops, &[], &m);
        let cycles = list_schedule(&ops, &deps, &m);
        assert_eq!(cycles.len(), 3);
    }

    #[test]
    fn two_cycle_load_latency_creates_gap() {
        let m = MachineConfig {
            load_latency: 3,
            ..MachineConfig::paper_default()
        };
        let ops = vec![
            (load(Reg(0), psp_ir::ArrayId(0), Reg(1)), u()),
            (add(Reg(2), Reg(0), 1i64), u()),
        ];
        let deps = build_deps(&ops, &[], &m);
        let cycles = list_schedule(&ops, &deps, &m);
        assert_eq!(cycles.len(), 4);
        assert!(cycles[1].is_empty() && cycles[2].is_empty());
    }

    #[test]
    fn vecmin_local_pipeline_is_three_cycles() {
        // The paper's Fig. 1b: with renaming and sufficient hardware the
        // single-iteration schedule reaches II = 3.
        let kernel = psp_kernels::by_name("vecmin").unwrap();
        let mut ic = if_convert(&kernel.spec);
        rename_inductions(&mut ic.ops, &mut ic.spec);
        let m = MachineConfig::paper_default();
        let deps = build_deps(&ic.ops, &ic.spec.live_out, &m);
        let cycles = list_schedule(&ic.ops, &deps, &m);
        assert_eq!(cycles.len(), 3, "paper Fig. 1b: II = 3");
    }
}
