//! Exact II certification by branch and bound.
//!
//! [`certify`] searches, for each candidate II ascending from the
//! [`crate::bounds::mii_lower_bound`] floor, for *any* assignment of issue
//! times satisfying every dependence edge modulo II and the modulo resource
//! table — the same constraint system the greedy EMS baseline schedules
//! against, so a certified II is a true optimum for that system and
//! `exact ≤ heuristic` holds by construction.
//!
//! ## Completeness of the bounded horizon
//!
//! The search restricts times to `[0, n·(II + L))` with `L` the largest
//! edge latency. This loses nothing: take any feasible schedule minimizing
//! `Σtᵢ`. If the sorted times had a gap `> II + L`, shifting everything
//! above the gap down by II would preserve all residues (the resource
//! table is untouched), all constraints inside and out of the shifted set
//! (a gap `> II + L` leaves slack for every incoming edge), and decrease
//! the sum — contradiction. The same shift applied to all ops bounds the
//! minimum below II. Hence every op fits under `(II−1) + (n−1)(II+L)`,
//! and an exhausted search is a sound infeasibility certificate.
//!
//! ## Pruning
//!
//! * **Instant recurrence check** — Floyd–Warshall longest paths `D` under
//!   `lat − II·dist`; a positive diagonal kills the II without search.
//! * **Window propagation** — placing op `k` at `t` tightens every
//!   unplaced `j` to `[max(est_j, t + D[k][j]), min(lst_j, t − D[j][k])]`;
//!   an empty window backtracks immediately. Because `D` is transitively
//!   closed, pairwise consistency among placed ops is implied.
//! * **Most-constrained-first** — the op with the smallest window is
//!   branched on next (deterministic index tiebreak).
//! * **Failed-state memoization** — the pair (windows of unplaced ops,
//!   modulo resource table) is a *sufficient* summary of a partial state:
//!   placed ops influence the future only through those two. Failed
//!   summaries are stored (full keys, no hash truncation) and re-entered
//!   subtrees are cut.
//! * **Anytime node budget** — the search is abandoned (soundly: outcome
//!   [`Certification::Bounded`]) when the budget runs out.

use crate::bounds::{longest_paths, res_mii, NEG_INF};
use crate::ifconv::if_convert;
use crate::rename::rename_inductions;
use crate::sched::{all_edges, ModEdge, ModuloSchedule};
use psp_ir::LoopSpec;
use psp_machine::{MachineConfig, ResourceUse};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Configuration of the exact certifier.
#[derive(Debug, Clone)]
pub struct ExactConfig {
    /// Search-node budget shared across all candidate IIs (a node = one
    /// attempted placement). Exhaustion yields a sound interval instead of
    /// a certificate.
    pub max_nodes: u64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        Self { max_nodes: 200_000 }
    }
}

/// The largest candidate II the search tries for `n` ops, a safety net for
/// hint-less runs: at `4·n + 16` a schedule always exists.
const fn ii_cap(n: usize) -> u32 {
    4 * n as u32 + 16
}

/// Outcome of a certification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certification {
    /// The optimal fixed II of the constraint system is exactly this.
    Certified(u32),
    /// Budget ran out: the optimum lies in `[lb, ub]` (`ub` is `None` when
    /// no feasible II is known yet — no hint was given and none was found).
    Bounded {
        /// Greatest II proven infeasible, plus one.
        lb: u32,
        /// Smallest II known feasible, if any.
        ub: Option<u32>,
    },
}

impl Certification {
    /// The certified lower bound (`lb` of the interval, or the certified
    /// value itself).
    pub fn lb(&self) -> u32 {
        match *self {
            Certification::Certified(ii) => ii,
            Certification::Bounded { lb, .. } => lb,
        }
    }

    /// The known upper bound, if any.
    pub fn ub(&self) -> Option<u32> {
        match *self {
            Certification::Certified(ii) => Some(ii),
            Certification::Bounded { ub, .. } => ub,
        }
    }

    /// Display form: `"3"` or `"[3,5]"` / `"[3,?]"`.
    pub fn display(&self) -> String {
        match *self {
            Certification::Certified(ii) => format!("{ii}"),
            Certification::Bounded { lb, ub: Some(ub) } => format!("[{lb},{ub}]"),
            Certification::Bounded { lb, ub: None } => format!("[{lb},?]"),
        }
    }
}

/// Result of [`certify`].
#[derive(Debug, Clone)]
pub struct ExactResult {
    /// Certificate or sound interval.
    pub outcome: Certification,
    /// A verified schedule at the best feasible II the search itself found
    /// (`None` when certification closed via the caller's hint or the
    /// budget expired before any feasible placement).
    pub schedule: Option<ModuloSchedule>,
    /// The analytic floor `max(res_mii, rec_mii)` the search started from.
    pub mii: u32,
    /// Branch-and-bound nodes expended.
    pub nodes: u64,
    /// Wall-clock spent certifying.
    pub elapsed: Duration,
}

/// Certify the optimal fixed II for `spec` on `m`, optionally seeded with
/// a known-feasible `ub_hint` (e.g. the greedy EMS II): with a hint the
/// solver only needs infeasibility proofs below it, and certification
/// closes as soon as the proven floor meets the hint.
pub fn certify(
    spec: &LoopSpec,
    m: &MachineConfig,
    cfg: &ExactConfig,
    ub_hint: Option<u32>,
) -> ExactResult {
    let t0 = Instant::now();
    let mut ic = if_convert(spec);
    rename_inductions(&mut ic.ops, &mut ic.spec);
    let ops = ic.ops;
    let edges = all_edges(&ops, &ic.spec.live_out, m);
    let n = ops.len();

    let mii = res_mii(&ops, m).max(crate::bounds::rec_mii(n, &edges));
    let cap = ii_cap(n);
    let mut nodes_left = cfg.max_nodes;
    let mut nodes_used = 0u64;
    let mut lb = mii;
    let mut ub = ub_hint;

    let finish = |outcome, schedule, nodes, elapsed| ExactResult {
        outcome,
        schedule,
        mii,
        nodes,
        elapsed,
    };

    loop {
        if let Some(u) = ub {
            if lb >= u {
                // Everything below the known-feasible ub is proven
                // infeasible: ub is the optimum. Spend remaining budget on
                // a witness schedule of our own (useful for code
                // generation); the hint certifies either way — unless the
                // search *disproves* the hint, in which case it was bogus
                // and is dropped.
                let before = nodes_left;
                let attempt = search_ii(&ops, &edges, u, m, &mut nodes_left);
                nodes_used += before - nodes_left;
                match attempt {
                    SearchOutcome::Feasible(time) => {
                        let stages = time.iter().map(|&t| t as u32 / u).max().unwrap_or(0) + 1;
                        let sched = ModuloSchedule {
                            ii: u,
                            time,
                            stages,
                            ops,
                            edges,
                        };
                        debug_assert!(sched.verify(m).is_ok());
                        return finish(
                            Certification::Certified(u),
                            Some(sched),
                            nodes_used,
                            t0.elapsed(),
                        );
                    }
                    SearchOutcome::Budget => {
                        return finish(Certification::Certified(u), None, nodes_used, t0.elapsed());
                    }
                    SearchOutcome::Infeasible => {
                        debug_assert!(false, "ub hint {u} proven infeasible");
                        ub = None;
                        lb = u + 1;
                        continue;
                    }
                }
            }
        }
        if lb > cap {
            return finish(
                Certification::Bounded { lb, ub },
                None,
                nodes_used,
                t0.elapsed(),
            );
        }
        let before = nodes_left;
        match search_ii(&ops, &edges, lb, m, &mut nodes_left) {
            SearchOutcome::Feasible(time) => {
                nodes_used += before - nodes_left;
                let stages = time.iter().map(|&t| t as u32 / lb).max().unwrap_or(0) + 1;
                let sched = ModuloSchedule {
                    ii: lb,
                    time,
                    stages,
                    ops,
                    edges,
                };
                debug_assert!(sched.verify(m).is_ok());
                return finish(
                    Certification::Certified(lb),
                    Some(sched),
                    nodes_used,
                    t0.elapsed(),
                );
            }
            SearchOutcome::Infeasible => {
                nodes_used += before - nodes_left;
                lb += 1;
            }
            SearchOutcome::Budget => {
                nodes_used += before - nodes_left;
                return finish(
                    Certification::Bounded { lb, ub },
                    None,
                    nodes_used,
                    t0.elapsed(),
                );
            }
        }
    }
}

enum SearchOutcome {
    Feasible(Vec<usize>),
    Infeasible,
    Budget,
}

/// Exhaustive (up to the node budget) search for a feasible schedule at a
/// fixed `ii`.
fn search_ii(
    ops: &[(psp_ir::Operation, psp_predicate::PredicateMatrix)],
    edges: &[ModEdge],
    ii: u32,
    m: &MachineConfig,
    nodes_left: &mut u64,
) -> SearchOutcome {
    let n = ops.len();
    if n == 0 {
        return SearchOutcome::Feasible(Vec::new());
    }
    let Some(d) = longest_paths(n, edges, ii) else {
        return SearchOutcome::Infeasible; // positive recurrence cycle
    };
    let max_lat = edges.iter().map(|e| e.lat as i64).max().unwrap_or(0).max(1);
    let horizon = n as i64 * (ii as i64 + max_lat); // exclusive

    // Initial windows from the closure: t_j ≥ 0 + D[i][j], t_j ≤ (T−1) − D[j][i].
    let mut est = vec![0i64; n];
    let mut lst = vec![horizon - 1; n];
    for j in 0..n {
        for i in 0..n {
            if d[i * n + j] > est[j] {
                est[j] = d[i * n + j].max(est[j]);
            }
            if d[j * n + i] != NEG_INF {
                lst[j] = lst[j].min(horizon - 1 - d[j * n + i]);
            }
        }
        if est[j] > lst[j] {
            return SearchOutcome::Infeasible;
        }
    }

    let mut st = Search {
        n,
        ii: ii as usize,
        m,
        ops,
        d: &d,
        placed: vec![None; n],
        table: vec![ResourceUse::empty(); ii as usize],
        failed: HashSet::new(),
        nodes_left,
    };
    match st.dfs(&est, &lst, 0) {
        Dfs::Found => SearchOutcome::Feasible(
            st.placed
                .iter()
                .map(|t| t.expect("all ops placed") as usize)
                .collect(),
        ),
        Dfs::Exhausted => SearchOutcome::Infeasible,
        Dfs::Budget => SearchOutcome::Budget,
    }
}

enum Dfs {
    Found,
    Exhausted,
    Budget,
}

/// Memo key: which ops remain, their windows, and the residual resource
/// table — a sufficient summary of a partial state (see module docs).
/// Stored in full; a truncated hash could collide and unsoundly prune a
/// feasible subtree.
type StateKey = (Vec<(u32, i64, i64)>, Vec<(u32, u32, u32)>);

struct Search<'a> {
    n: usize,
    ii: usize,
    m: &'a MachineConfig,
    ops: &'a [(psp_ir::Operation, psp_predicate::PredicateMatrix)],
    d: &'a [i64],
    placed: Vec<Option<i64>>,
    table: Vec<ResourceUse>,
    failed: HashSet<StateKey>,
    nodes_left: &'a mut u64,
}

impl Search<'_> {
    fn state_key(&self, est: &[i64], lst: &[i64]) -> StateKey {
        let windows = (0..self.n)
            .filter(|&j| self.placed[j].is_none())
            .map(|j| (j as u32, est[j], lst[j]))
            .collect();
        let table = self
            .table
            .iter()
            .map(|u| (u.alu, u.mem, u.branch))
            .collect();
        (windows, table)
    }

    fn dfs(&mut self, est: &[i64], lst: &[i64], depth: usize) -> Dfs {
        if depth == self.n {
            return Dfs::Found;
        }
        let key = self.state_key(est, lst);
        if self.failed.contains(&key) {
            return Dfs::Exhausted;
        }
        // Most constrained first: smallest window, lowest index breaks ties.
        let pick = (0..self.n)
            .filter(|&j| self.placed[j].is_none())
            .min_by_key(|&j| (lst[j] - est[j], j))
            .expect("unplaced op exists below depth n");

        for t in est[pick]..=lst[pick] {
            if *self.nodes_left == 0 {
                return Dfs::Budget;
            }
            *self.nodes_left -= 1;
            let slot = (t as usize) % self.ii;
            if !self.table[slot].can_accept(self.ops[pick].0.res_class(), self.m) {
                continue;
            }
            // Tighten the remaining windows through the closure.
            let mut est2 = est.to_vec();
            let mut lst2 = lst.to_vec();
            let mut empty = false;
            for j in 0..self.n {
                if self.placed[j].is_some() || j == pick {
                    continue;
                }
                let fwd = self.d[pick * self.n + j];
                if fwd != NEG_INF {
                    est2[j] = est2[j].max(t + fwd);
                }
                let back = self.d[j * self.n + pick];
                if back != NEG_INF {
                    lst2[j] = lst2[j].min(t - back);
                }
                if est2[j] > lst2[j] {
                    empty = true;
                    break;
                }
            }
            if empty {
                continue;
            }
            self.placed[pick] = Some(t);
            self.table[slot].add(&self.ops[pick].0);
            est2[pick] = t;
            lst2[pick] = t;
            match self.dfs(&est2, &lst2, depth + 1) {
                Dfs::Found => return Dfs::Found,
                Dfs::Budget => return Dfs::Budget,
                Dfs::Exhausted => {}
            }
            self.table[slot].sub(&self.ops[pick].0);
            self.placed[pick] = None;
        }
        self.failed.insert(key);
        Dfs::Exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_kernels::{all_kernels, by_name};

    #[test]
    fn vecmin_certifies_at_three_wide() {
        let kernel = by_name("vecmin").unwrap();
        let m = MachineConfig::paper_default();
        let res = certify(&kernel.spec, &m, &ExactConfig::default(), None);
        assert_eq!(res.outcome, Certification::Certified(3), "{:?}", res);
        let sched = res.schedule.expect("witness schedule");
        sched.verify(&m).unwrap();
        assert_eq!(sched.ii, 3);
        assert_eq!(res.mii, 3, "floor met: zero search needed beyond it");
    }

    #[test]
    fn hint_closes_certification_at_the_floor() {
        // With ub_hint equal to the analytic floor no infeasibility proofs
        // are needed; only the witness search at the certified II runs.
        let kernel = by_name("vecmin").unwrap();
        let m = MachineConfig::paper_default();
        let res = certify(&kernel.spec, &m, &ExactConfig::default(), Some(3));
        assert_eq!(res.outcome, Certification::Certified(3));
        let sched = res.schedule.expect("witness at the certified II");
        sched.verify(&m).unwrap();
    }

    #[test]
    fn budget_exhaustion_is_a_sound_interval() {
        let kernel = by_name("vecmin").unwrap();
        let m = MachineConfig::paper_default();
        let cfg = ExactConfig { max_nodes: 0 };
        let res = certify(&kernel.spec, &m, &cfg, Some(9));
        match res.outcome {
            Certification::Bounded { lb, ub } => {
                assert_eq!(lb, 3, "the analytic floor survives a zero budget");
                assert_eq!(ub, Some(9));
            }
            other => panic!("expected interval, got {other:?}"),
        }
    }

    #[test]
    fn all_kernels_certify_within_default_budget() {
        // The acceptance bar: the default budget certifies (not merely
        // bounds) the paper kernels.
        let m = MachineConfig::paper_default();
        let mut certified = 0usize;
        let total = all_kernels().len();
        for kernel in all_kernels() {
            let res = certify(&kernel.spec, &m, &ExactConfig::default(), None);
            match res.outcome {
                Certification::Certified(ii) => {
                    certified += 1;
                    assert!(ii >= res.mii, "{}", kernel.name);
                    let sched = res.schedule.expect("search found its own witness");
                    sched
                        .verify(&m)
                        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
                }
                Certification::Bounded { lb, ub } => {
                    assert!(ub.is_none_or(|u| lb <= u), "{}", kernel.name);
                }
            }
        }
        assert!(
            certified * 4 >= total * 3,
            "only {certified}/{total} kernels certified"
        );
    }

    #[test]
    fn narrow_machine_raises_the_certified_ii() {
        let kernel = by_name("vecmin").unwrap();
        let wide = certify(
            &kernel.spec,
            &MachineConfig::paper_default(),
            &ExactConfig::default(),
            None,
        );
        let narrow = certify(
            &kernel.spec,
            &MachineConfig::narrow(1, 1, 1),
            &ExactConfig::default(),
            None,
        );
        let (Some(w), Some(n)) = (wide.outcome.ub(), narrow.outcome.ub()) else {
            panic!("both should certify");
        };
        assert!(n > w, "narrow {n} vs wide {w}");
    }
}
