//! Compaction: repeated moveup to the earliest feasible row.
//!
//! This is the intra-body percolation pass. Run on the initial schedule it
//! is PSP's counterpart of local scheduling with renaming (paper Fig. 1b);
//! run after each wrap it re-packs the freed rows, which is where the
//! pipelining payoff appears.
//!
//! It takes the instances in program order, with no priority, and moves
//! each as early as it can. On the paper machine its rows never exceed
//! local scheduling's cycles on the kernels and the E12 corpus. On a
//! narrow machine they can: an instance early in program order may take
//! the last slot of a row that an instance on the critical path needed.
//! On `narrow(2,1,1)` the compacted seed has more rows than local
//! scheduling's maximal II in 29 of the 112 kernel and corpus loops.
//!
//! Renaming is powerful but produces a leftover `COPY` each time, so it is
//! applied judiciously: every round first exhausts rename-free moves
//! (including combining and copy substitution), then allows renames. A
//! renamed `COPY`'s consumers later substitute through it, so the rename is
//! effectively consumer-rewriting without a second traversal.
//!
//! Most moveup attempts are refused and most sweeps move nothing, so one
//! compaction remembers each refusal (`Refusal`): the rows the attempt
//! read, from the row that blocked it down to the mover's own, and whether
//! the policy refused a rename. The instance is not planned again until a
//! move changes a row the refusal read; a pruned empty row forgets them
//! all (row numbers shift). This is exact because a plan's verdict on a
//! row depends only on the mover and that row: each pair check reads its
//! two instances alone, combining's coverage rule included (the crossed
//! update must execute on every formal path of the mover), and no plan
//! remembers which instances it crossed before.
//!
//! Compaction knows no latency: rows are packed as if every result were
//! ready in the next cycle. The latency rule ([`psp_machine::InFlight`])
//! is applied per path, where code generation emits its waits and the
//! schedule walk counts them.

use crate::instance::InstId;
use crate::schedule::Schedule;
use crate::transform::{moveup_earliest, MovePolicy, Refusal};
use psp_machine::MachineConfig;

/// A refused moveup remembered within one [`compact`] call: the policy it
/// ran under and what it read.
#[derive(Clone, Copy)]
struct Refused {
    policy: MovePolicy,
    read: Refusal,
}

/// The refusals of one compaction, by instance id.
#[derive(Default)]
struct Refusals(Vec<Option<Refused>>);

impl Refusals {
    /// Whether `id`'s attempt under `policy` is known to be refused again.
    fn replay(&self, id: InstId, policy: MovePolicy) -> bool {
        // Compaction's two policies differ only in renaming. Without renames
        // the plan is a prefix of the renaming plan, cut at its first rename;
        // with renames it equals the rename-free plan when that plan met no
        // rename.
        self.0
            .get(id.0 as usize)
            .copied()
            .flatten()
            .is_some_and(|r| r.policy == policy || r.policy.rename || !r.read.rename_refused)
    }

    fn record(&mut self, id: InstId, r: Refused) {
        let i = id.0 as usize;
        if self.0.len() <= i {
            self.0.resize(i + 1, None);
        }
        self.0[i] = Some(r);
    }

    /// Forget every refusal that read a row a move from `cur` to `target`
    /// changed.
    fn moved(&mut self, cur: usize, target: usize) {
        for slot in &mut self.0 {
            if slot.is_some_and(|r| r.read.reads(cur) || r.read.reads(target)) {
                *slot = None;
            }
        }
    }
}

/// One sweep over all instances, moving each to the earliest feasible row
/// (one incremental plan per instance rather than a re-plan per candidate
/// target). An instance whose remembered refusal still holds is not
/// re-planned. Returns the number of moves.
fn sweep(
    sched: &mut Schedule,
    machine: &MachineConfig,
    policy: MovePolicy,
    refusals: &mut Refusals,
) -> usize {
    let mut moves = 0;
    let ids: Vec<InstId> = sched.instances().map(|i| i.id).collect();
    for id in ids {
        if refusals.replay(id, policy) {
            continue;
        }
        match moveup_earliest(sched, id, machine, policy) {
            Ok((cur, target)) => {
                moves += 1;
                refusals.moved(cur, target);
            }
            Err(read) => refusals.record(id, Refused { policy, read }),
        }
    }
    moves
}

/// Drop empty rows; row numbers shift when one goes, so every remembered
/// refusal is forgotten.
fn prune(sched: &mut Schedule, refusals: &mut Refusals) {
    let n_rows = sched.n_rows();
    sched.prune_empty_rows();
    if sched.n_rows() != n_rows {
        refusals.0.clear();
    }
}

/// Move every instance as early as dependences, speculation rules, and
/// resources allow; drop empty rows. Returns the number of moves applied.
/// `allow_rename: false` is the ablation of the paper's "local scheduling
/// *with renaming*".
pub fn compact(sched: &mut Schedule, machine: &MachineConfig, allow_rename: bool) -> usize {
    let cap = 16 * sched.n_instances().max(8) * sched.n_rows().max(1);
    let mut total = 0usize;
    let mut refusals = Refusals::default();
    loop {
        // Exhaust rename-free motion first.
        loop {
            let n = sweep(sched, machine, MovePolicy::FREE, &mut refusals);
            total += n;
            prune(sched, &mut refusals);
            if n == 0 || total >= cap {
                break;
            }
        }
        if total >= cap || !allow_rename {
            return total;
        }
        // One rename-allowed sweep; if it finds nothing, we are done.
        let n = sweep(sched, machine, MovePolicy::RENAME, &mut refusals);
        total += n;
        prune(sched, &mut refusals);
        if n == 0 || total >= cap {
            return total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use crate::transform::{apply, split_candidates, Transformation};
    use psp_ir::op::build;
    use psp_ir::{LoopBuilder, LoopSpec, Reg, RegRef};
    use psp_kernels::synthetic;

    fn m() -> MachineConfig {
        MachineConfig::paper_default()
    }

    /// Compaction without the refusal memo: every instance is re-planned on
    /// every sweep. [`compact`] must reproduce the reference move for move.
    fn reference_compact(
        sched: &mut Schedule,
        machine: &MachineConfig,
        allow_rename: bool,
    ) -> usize {
        let sweep = |sched: &mut Schedule, policy| {
            let ids: Vec<InstId> = sched.instances().map(|i| i.id).collect();
            ids.into_iter()
                .filter(|&id| moveup_earliest(sched, id, machine, policy).is_ok())
                .count()
        };
        let cap = 16 * sched.n_instances().max(8) * sched.n_rows().max(1);
        let mut total = 0usize;
        loop {
            loop {
                let n = sweep(sched, MovePolicy::FREE);
                total += n;
                sched.prune_empty_rows();
                if n == 0 || total >= cap {
                    break;
                }
            }
            if total >= cap || !allow_rename {
                return total;
            }
            let n = sweep(sched, MovePolicy::RENAME);
            total += n;
            sched.prune_empty_rows();
            if n == 0 || total >= cap {
                return total;
            }
        }
    }

    /// Compact `s` both ways and demand the same schedule, fresh counters
    /// and move count, and a definition of every fresh register; returns
    /// the compacted schedule.
    fn compact_both(
        s: &Schedule,
        machine: &MachineConfig,
        allow_rename: bool,
        what: &str,
    ) -> Schedule {
        let mut fast = s.clone();
        let mut slow = s.clone();
        let moves = compact(&mut fast, machine, allow_rename);
        let want = reference_compact(&mut slow, machine, allow_rename);
        assert_eq!(fast.render(), slow.render(), "{what}");
        assert_eq!(fast.next_fresh(), slow.next_fresh(), "{what}");
        assert_eq!(moves, want, "{what}");
        for r in fast.source.n_regs..fast.n_regs() {
            let def = Some(RegRef::Gpr(Reg(r)));
            assert!(
                fast.instances().any(|i| i.def() == def),
                "{what}: R{r} undefined"
            );
        }
        fast
    }

    /// Every wrap and split the driver would try on `s`.
    fn candidates(s: &Schedule) -> Vec<Transformation> {
        let mut out: Vec<Transformation> = s.rows[0]
            .iter()
            .map(|i| Transformation::WrapUp { id: i.id })
            .collect();
        for (r, row) in s.rows.iter().enumerate() {
            for x in row {
                for y in s.rows[..r].iter().flatten() {
                    for (row, col) in split_candidates(x, y) {
                        let t = Transformation::Split { id: x.id, row, col };
                        if !out.contains(&t) {
                            out.push(t);
                        }
                    }
                }
            }
        }
        out
    }

    /// Rows `[f] [e] [b c] [x]`, where a refusal must not outlive a pruned
    /// row. The first sweep moves e into row 0 and c (which reads the r
    /// that b writes) above b; b, which could only pass c with a rename,
    /// and x, which reads b's r, are refused. Pruning row 1 shifts b to row
    /// 1 and x to row 2; the second sweep moves b to row 0, and x, whose
    /// refusal read row 1, must be planned again to follow b into row 1.
    fn stale_refusal_start() -> Schedule {
        let mut b = LoopBuilder::new("stale");
        let arr = b.array("x");
        let k = b.named_reg("k");
        let [p, q, r, s, t, u] = ["p", "q", "r", "s", "t", "u"].map(|n| b.named_reg(n));
        b.op(build::load(p, arr, k));
        b.op(build::load(q, arr, k));
        b.op(build::add(s, s, r));
        b.op(build::add(r, t, 1i64));
        b.op(build::add(u, u, r));
        let spec = b.finish([k, r, s, t, u], [p, q, s, u]);
        let mut sched = Schedule::initial(&spec);
        let writer = sched.rows[3].remove(0);
        sched.rows[2].insert(0, writer);
        sched.prune_empty_rows();
        sched
    }

    #[test]
    fn memoized_compaction_matches_the_reference() {
        const STEPS: usize = 6;
        let mut loops: Vec<(String, LoopSpec)> = psp_kernels::all_kernels()
            .into_iter()
            .map(|k| (k.name.to_string(), k.spec))
            .collect();
        for blocks in [4, 6] {
            loops.push((format!("synthetic{blocks}"), synthetic(blocks)));
        }
        let machines = [
            ("paper", m()),
            ("narrow211", MachineConfig::narrow(2, 1, 1)),
            ("narrow111", MachineConfig::narrow(1, 1, 1)),
        ];
        let stale = stale_refusal_start();
        for allow_rename in [false, true] {
            let out = compact_both(&stale, &m(), allow_rename, "stale refusal");
            assert_eq!(out.n_rows(), 2, "\n{out}");
        }
        for (name, spec) in &loops {
            for (label, machine) in &machines {
                let initial = Schedule::initial(spec);
                compact_both(
                    &initial,
                    machine,
                    false,
                    &format!("{name} on {label}, no renames"),
                );
                // Walks through the driver's trials: every candidate of a
                // step is compacted both ways, and the walk goes on from
                // the shortest trial (as the driver would) or a seeded one.
                for greedy in [true, false] {
                    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
                    let mut s =
                        compact_both(&initial, machine, true, &format!("{name} on {label}"));
                    for step in 0..STEPS {
                        let mut trials = Vec::new();
                        for t in candidates(&s) {
                            let mut next = s.clone();
                            if apply(&mut next, &t, machine).is_ok() {
                                let what = format!("{name} on {label}, step {step}, {t:?}");
                                trials.push(compact_both(&next, machine, true, &what));
                            }
                        }
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let pick = if greedy {
                            (0..trials.len()).min_by_key(|&i| trials[i].n_rows())
                        } else {
                            (!trials.is_empty()).then(|| rng as usize % trials.len())
                        };
                        let Some(pick) = pick else { break };
                        s = trials.swap_remove(pick);
                    }
                }
            }
        }
    }

    #[test]
    fn compacting_vecmin_reaches_three_rows() {
        // Fig. 1b: local scheduling with renaming reaches II = 3.
        let kernel = psp_kernels::by_name("vecmin").unwrap();
        let mut s = Schedule::initial(&kernel.spec);
        let moves = compact(&mut s, &m(), true);
        assert!(moves > 0);
        assert_eq!(s.n_rows(), 3, "\n{s}");
    }

    #[test]
    fn compaction_is_idempotent() {
        let kernel = psp_kernels::by_name("vecmin").unwrap();
        let mut s = Schedule::initial(&kernel.spec);
        compact(&mut s, &m(), true);
        let snapshot = s.render();
        let more = compact(&mut s, &m(), true);
        assert_eq!(more, 0);
        assert_eq!(s.render(), snapshot);
    }

    #[test]
    fn narrow_machine_limits_compaction() {
        let kernel = psp_kernels::by_name("vecmin").unwrap();
        let mut wide = Schedule::initial(&kernel.spec);
        compact(&mut wide, &m(), true);
        let mut narrow = Schedule::initial(&kernel.spec);
        compact(&mut narrow, &MachineConfig::narrow(1, 1, 1), true);
        assert!(narrow.n_rows() > wide.n_rows());
        narrow
            .validate_resources(&MachineConfig::narrow(1, 1, 1))
            .unwrap();
    }

    #[test]
    fn all_kernels_compact_and_stay_valid() {
        for kernel in psp_kernels::all_kernels() {
            let mut s = Schedule::initial(&kernel.spec);
            let initial_rows = s.n_rows();
            compact(&mut s, &m(), true);
            assert!(s.n_rows() <= initial_rows, "{}", kernel.name);
            s.validate_resources(&m())
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        }
    }
}
