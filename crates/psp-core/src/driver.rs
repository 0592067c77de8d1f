//! The iterative PSP technique (paper §3).
//!
//! Each step generates a set of candidate transformations directed at
//! shortening the II (wraps of row-0 instances, splits that disjoin blocked
//! movers), evaluates each candidate on a clone of the schedule (apply +
//! compact + code generation + score), applies the best strictly-improving
//! one, and repeats. There is no backtracking: a candidate that fails to
//! improve — or whose code generation fails — is simply discarded.
//!
//! Candidate trials within a step are independent, so they are evaluated
//! **in parallel** (see [`PspConfig::threads`]) with a deterministic
//! index-ordered reduction: transformation counts, final IIs, and generated
//! code are bit-identical to the sequential driver regardless of thread
//! count. Every phase is **instrumented** ([`PspStats`]: per-phase
//! wall-clock, transformation counters, JSON dump).

use crate::codegen::{generate, CodegenError};
use crate::compact::compact_ext;
use crate::heuristics::{score_program, BranchProbs, Score};
use crate::instance::InstId;
use crate::schedule::Schedule;
use crate::transform::{self, split_candidates, Transformation};
use psp_ir::LoopSpec;
use psp_machine::{MachineConfig, VliwLoop};
use psp_predicate::{PredOpStats, PredicateMatrix};
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Configuration of the PSP pipeliner.
#[derive(Debug, Clone)]
pub struct PspConfig {
    /// Target machine.
    pub machine: MachineConfig,
    /// Maximum pipelining depth: rounds of wrapping the whole first row
    /// across the loop boundary (each round can add one level of overlap).
    pub max_depth: usize,
    /// Maximum number of strictly improving refinement steps afterwards, a
    /// safeguard against pathological growth.
    pub max_steps: usize,
    /// Whether split candidates are generated.
    pub enable_split: bool,
    /// Whether compaction may rename (ablation of "local scheduling with
    /// renaming"; wrapping still renames where correctness demands it).
    pub enable_rename: bool,
    /// Optional branch profile for the §4 probability-driven heuristics;
    /// `None` selects the static (worst-path) objective.
    pub probs: Option<BranchProbs>,
    /// Worker threads for candidate evaluation: `1` forces the sequential
    /// path, `0` uses all available parallelism, any other value caps the
    /// pool. The reduction is deterministic (best score, ties broken by
    /// candidate index), so results are bit-identical for every setting.
    pub threads: usize,
    /// Discard candidate trials by a sound score lower bound before code
    /// generation (branch-and-bound admission). A trial's `rows` and
    /// `instances` are exact after compaction, and under the static
    /// objective the maximal II itself is computed exactly from the
    /// schedule without generating code (`max_steady_path_cycles`; the
    /// expected-II objective falls back to a universe-row lower bound).
    /// Trials that cannot strictly beat the current score are discarded
    /// before codegen; trials with an exactly-known score defer codegen
    /// until the reduction picks them as the step winner. The chosen
    /// candidate is provably identical to the exhaustive scan
    /// ([`PspStats::counters`] stays bit-identical; only wall-clock and
    /// the `pruned` counter change).
    pub enable_prune: bool,
    /// Stop refining as soon as the primary score (maximal or expected II)
    /// reaches this floor — typically a certified fixed-II optimum from
    /// `psp_opt::certify`. Opt-in speed/quality trade, **not** a sound
    /// bound on PSP itself: variable per-path II can legitimately beat the
    /// best *fixed* II on loops with conditions (vecmin: certified fixed
    /// floor 3, PSP reaches max II 2), so a floor equal to the fixed-II
    /// optimum may stop the search early with a worse result than the
    /// unrestricted run. [`PspStats::floor_hit`] records whether the stop
    /// triggered.
    pub exact_floor: Option<f64>,
}

impl Default for PspConfig {
    fn default() -> Self {
        Self {
            machine: MachineConfig::paper_default(),
            max_depth: 4,
            max_steps: 32,
            enable_split: true,
            enable_rename: true,
            probs: None,
            threads: 0,
            enable_prune: true,
            exact_floor: None,
        }
    }
}

impl PspConfig {
    /// Config with a specific machine.
    pub fn with_machine(machine: MachineConfig) -> Self {
        Self {
            machine,
            ..Self::default()
        }
    }

    /// The reference configuration for cross-checking: single-threaded,
    /// no pruning — the exact shape of the original sequential driver,
    /// which exhaustively code-generates every candidate trial.
    pub fn sequential(mut self) -> Self {
        self.threads = 1;
        self.enable_prune = false;
        self
    }
}

/// Cumulative wall-clock spent in each phase of the pipeliner. In parallel
/// runs the per-trial phases (apply, compact, codegen, score) are summed
/// across worker threads, so they measure aggregate work and can exceed
/// `total` (which is elapsed wall-clock of the whole run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Candidate generation (wraps, unifies, split discovery).
    pub candidate_gen: Duration,
    /// Schedule cloning + transformation application.
    pub apply: Duration,
    /// Compaction (moveup to fixpoint).
    pub compact: Duration,
    /// Loop code generation (the exponential phase).
    pub codegen: Duration,
    /// Scoring of generated programs (II extraction / expected II).
    pub score: Duration,
    /// Whole-run elapsed wall-clock.
    pub total: Duration,
}

impl PhaseTimes {
    fn absorb(&mut self, other: &PhaseTimes) {
        self.candidate_gen += other.candidate_gen;
        self.apply += other.apply;
        self.compact += other.compact;
        self.codegen += other.codegen;
        self.score += other.score;
        // `total` is set once by the driver, not summed.
    }
}

/// Statistics of one pipelining run (the paper's "acceptable cost" claim is
/// measured from these). Counters are deterministic; timers vary run to
/// run, so cross-run comparisons should use [`PspStats::counters`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PspStats {
    /// Moveups applied by compaction.
    pub moves: usize,
    /// Cross-boundary wraps applied.
    pub wraps: usize,
    /// Splits applied.
    pub splits: usize,
    /// Candidates evaluated (each evaluation = clone + compact + codegen,
    /// unless pruning decides the trial first).
    pub candidates: usize,
    /// Improvement rounds taken.
    pub rounds: usize,
    /// Candidate trials that never ran code generation: rejected by the
    /// score lower bound, or exactly scored from the schedule but out-ranked
    /// by the step winner (see [`PspConfig::enable_prune`]). Deterministic,
    /// but configuration-dependent: the exhaustive reference prunes nothing.
    pub pruned: usize,
    /// Whether refinement stopped early because the score reached
    /// [`PspConfig::exact_floor`].
    pub floor_hit: bool,
    /// Predicate-algebra work done by this run (conjoins, disjoint/subsume
    /// tests, interner memo hit rate). Process-global counters sampled
    /// around the run, so they are excluded from
    /// [`counters`](Self::counters) — concurrent runs in the same process
    /// bleed into each other's deltas.
    pub pred: PredOpStats,
    /// Per-phase wall-clock.
    pub times: PhaseTimes,
}

impl PspStats {
    /// The deterministic counters: `[moves, wraps, splits, candidates,
    /// rounds]`. Bit-identical across thread counts; excludes timers.
    pub fn counters(&self) -> [usize; 5] {
        [
            self.moves,
            self.wraps,
            self.splits,
            self.candidates,
            self.rounds,
        ]
    }

    /// Machine-readable dump (hand-rolled JSON; the build container has no
    /// crates.io access, so `serde` is unavailable — the format is stable
    /// and documented in README.md). Times are microseconds.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"moves\":{},\"wraps\":{},\"splits\":{},\"candidates\":{},",
                "\"rounds\":{},\"pruned\":{},",
                "\"floor_hit\":{},\"pred\":{},",
                "\"times_us\":{{\"candidate_gen\":{},",
                "\"apply\":{},\"compact\":{},\"codegen\":{},\"score\":{},",
                "\"total\":{}}}}}"
            ),
            self.moves,
            self.wraps,
            self.splits,
            self.candidates,
            self.rounds,
            self.pruned,
            self.floor_hit,
            self.pred.to_json(),
            self.times.candidate_gen.as_micros(),
            self.times.apply.as_micros(),
            self.times.compact.as_micros(),
            self.times.codegen.as_micros(),
            self.times.score.as_micros(),
            self.times.total.as_micros(),
        )
    }
}

/// Result of pipelining one loop.
#[derive(Debug, Clone)]
pub struct PspResult {
    /// The final schedule (for display à la Figure 2).
    pub schedule: Schedule,
    /// The generated loop (paper Figure 3 / Figure 1c).
    pub program: VliwLoop,
    /// Cost counters.
    pub stats: PspStats,
    /// Final score.
    pub score: Score,
}

/// Outcome of one candidate trial.
struct Trial {
    t: Transformation,
    /// Moveups compaction applied to this trial (counted into stats only
    /// if the trial is chosen, matching the sequential driver).
    moves: usize,
    /// The compacted trial schedule; `None` when `apply` rejected it.
    sched: Option<Schedule>,
    scored: Option<(Score, VliwLoop)>,
    /// The exact score of this trial, known without generating code (see
    /// [`max_steady_path_cycles`]). Code generation is deferred until the
    /// reduction picks this trial as the step winner.
    bound: Option<Score>,
    times: PhaseTimes,
    /// Discarded by the score lower bound without running codegen.
    pruned: bool,
}

impl Trial {
    /// The score this trial competes with in the reduction: the generated
    /// program's when available, the (exact) deferred bound otherwise.
    fn competing_score(&self) -> Option<&Score> {
        self.scored.as_ref().map(|(s, _)| s).or(self.bound.as_ref())
    }
}

/// Abort the path enumeration in [`max_steady_path_cycles`] past this many
/// concurrent chains; the caller falls back to a weaker bound. Code
/// generation enumerates exactly the same chains as blocks but does an
/// order of magnitude more work per block (instance placement, conflict
/// validation, per-child deep clones), so the cap can sit well above any
/// block count codegen itself could digest.
const MAX_BOUND_CHAINS: usize = 1 << 18;

/// The maximal steady-state-path II of any successful code generation of
/// `sched`, computed without generating code.
///
/// Replays exactly the generator's block-matrix evolution — the universe
/// split on every incoming predicate at entry, one cycle per row holding a
/// compatible instance, a fan-out on every compatible IF of a row, a back
/// edge resolved by matching the `shifted(-1)` final matrix against the
/// entry matrices — but tracks only (matrix, cycle count) per chain:
/// no instance placement, guard assignment, or conflict validation. The
/// generator enumerates every *syntactic* outcome combination and wires
/// every entry block from the first-iteration dispatch, so each enumerated
/// chain exists verbatim in the generated program; a chain is a steady-state
/// path iff its entry receives some back edge, so the maximum over those
/// chains is exactly `ii_range().1` (empty-block cleanup only rewires
/// zero-cycle blocks and cannot change any chain's cycle count).
///
/// `None` when code generation would fail before the walk diverges from it
/// (unresolved or colliding incoming predicates, a constrained entry split,
/// an IF computing no predicate row, a chain with no back-edge target) or
/// when the enumeration exceeds [`MAX_BOUND_CHAINS`].
fn max_steady_path_cycles(sched: &Schedule) -> Option<usize> {
    let incoming = crate::codegen::incoming_predicates(sched).ok()?;
    let mut entries = vec![PredicateMatrix::universe()];
    for &(r, c) in &incoming {
        let mut next = Vec::with_capacity(entries.len() * 2);
        for m in entries {
            let (f, t) = m.split(r, c)?;
            next.push(f);
            next.push(t);
        }
        entries = next;
    }

    // (entry index, current matrix, non-empty cycles so far) per open chain.
    let mut chains: Vec<(usize, PredicateMatrix, usize)> = entries
        .iter()
        .enumerate()
        .map(|(e, m)| (e, m.clone(), 0))
        .collect();
    for row in &sched.rows {
        let mut next = Vec::with_capacity(chains.len());
        for (e, m, mut cycles) in chains {
            if row.iter().any(|i| !i.formal.is_disjoint(&m)) {
                cycles += 1;
            }
            let mut splits = Vec::new();
            for i in row {
                if i.op.is_if() && !i.formal.is_disjoint(&m) {
                    splits.push((i.computes_if?, i.index));
                }
            }
            let mut mats = vec![m];
            for &(r, c) in &splits {
                let mut nx = Vec::with_capacity(mats.len() * 2);
                for mm in mats {
                    match mm.split(r, c) {
                        Some((f, t)) => {
                            nx.push(f);
                            nx.push(t);
                        }
                        // Outcome already known on these paths: one child.
                        None => nx.push(mm),
                    }
                }
                mats = nx;
            }
            for mm in mats {
                next.push((e, mm, cycles));
            }
        }
        if next.len() > MAX_BOUND_CHAINS {
            return None;
        }
        chains = next;
    }

    // A chain is a steady-state path iff its entry is some chain's
    // back-edge target.
    let mut is_steady = vec![false; entries.len()];
    let mut finals = Vec::with_capacity(chains.len());
    for (e, m, cycles) in chains {
        let shifted = m.shifted(-1);
        let target = entries.iter().position(|x| x.subsumes(&shifted))?;
        is_steady[target] = true;
        finals.push((e, cycles));
    }
    finals
        .into_iter()
        .filter(|&(e, _)| is_steady[e])
        .map(|(_, cycles)| cycles)
        .max()
}

/// A lower bound on the primary score that holds for *every* objective: a
/// row holding a universe-predicate instance emits a non-empty cycle on
/// every steady-state path, so the count of such rows bounds each path's
/// II — and hence both the maximal and the expected II — from below.
fn universe_row_bound(sched: &Schedule) -> usize {
    sched
        .rows
        .iter()
        .filter(|row| row.iter().any(|i| i.formal.is_universe()))
        .count()
}

/// Generate + score `sched`; `None` when code generation fails.
fn score(sched: &Schedule, cfg: &PspConfig, times: &mut PhaseTimes) -> Option<(Score, VliwLoop)> {
    let t0 = Instant::now();
    let prog = generate(sched, &cfg.machine).ok();
    times.codegen += t0.elapsed();
    let t1 = Instant::now();
    let scored = prog.map(|p| (score_program(&p, sched, cfg.probs.as_ref()), p));
    times.score += t1.elapsed();
    scored
}

/// Evaluate one candidate transformation on a clone of `sched`. `cur` is
/// the score a chosen candidate must strictly beat; when pruning is on, a
/// trial whose best-possible score cannot beat it is discarded before the
/// exponential code-generation step.
fn eval_candidate(
    sched: &Schedule,
    t: Transformation,
    cfg: &PspConfig,
    cur: Option<&Score>,
) -> Trial {
    let mut times = PhaseTimes::default();
    let t0 = Instant::now();
    let mut trial = sched.clone();
    let applied = transform::apply(&mut trial, &t, &cfg.machine).is_ok();
    times.apply += t0.elapsed();
    if !applied {
        return Trial {
            t,
            moves: 0,
            sched: None,
            scored: None,
            bound: None,
            times,
            pruned: false,
        };
    }
    let t1 = Instant::now();
    let moves = compact_ext(&mut trial, &cfg.machine, cfg.enable_rename);
    times.compact += t1.elapsed();
    if cfg.enable_prune {
        let t2 = Instant::now();
        let exact = if cfg.probs.is_none() {
            max_steady_path_cycles(&trial)
        } else {
            None
        };
        times.score += t2.elapsed();
        let primary = exact.unwrap_or_else(|| universe_row_bound(&trial)) as f64;
        let potential = Score {
            primary,
            rows: trial.n_rows(),
            instances: trial.n_instances(),
        };
        // The bound only depends on the step-entry score, never on the
        // other trials, so pruning is order-independent (deterministic
        // under any thread count).
        if let Some(cur) = cur {
            if !potential.better_than(cur) {
                return Trial {
                    t,
                    moves,
                    sched: Some(trial),
                    scored: None,
                    bound: None,
                    times,
                    pruned: true,
                };
            }
        }
        if exact.is_some() {
            // The exact score is known without generating code: defer the
            // exponential codegen to the reduction, which runs it only for
            // the trial that wins the step.
            return Trial {
                t,
                moves,
                sched: Some(trial),
                scored: None,
                bound: Some(potential),
                times,
                pruned: false,
            };
        }
    }
    let scored = score(&trial, cfg, &mut times);
    Trial {
        t,
        moves,
        sched: Some(trial),
        scored,
        bound: None,
        times,
        pruned: false,
    }
}

/// Evaluate all candidates of one step — concurrently unless
/// [`PspConfig::threads`] is `1`. Trials return in candidate order either
/// way, so the reduction below is deterministic.
fn evaluate_candidates(
    sched: &Schedule,
    candidates: Vec<Transformation>,
    cfg: &PspConfig,
    cur: Option<&Score>,
) -> Vec<Trial> {
    if cfg.threads == 1 || candidates.len() <= 1 {
        candidates
            .into_iter()
            .map(|t| eval_candidate(sched, t, cfg, cur))
            .collect()
    } else {
        candidates
            .into_par_iter()
            .with_threads(cfg.threads)
            .map(|t| eval_candidate(sched, t, cfg, cur))
            .collect()
    }
}

/// Pipeline a loop with the PSP technique.
///
/// Phase A compacts the initial schedule (reproducing local scheduling
/// with renaming). Phase B performs pipelining rounds: each round wraps
/// every wrappable row-0 instance across the loop boundary and recompacts;
/// the best schedule seen (by [`Score`]) is retained — a single wrap is
/// rarely an immediate win, so rounds are speculative up to
/// [`PspConfig::max_depth`]. Phase C greedily applies strictly improving
/// split / wrap candidates until fixpoint.
pub fn pipeline_loop(spec: &LoopSpec, cfg: &PspConfig) -> Result<PspResult, CodegenError> {
    let t_total = Instant::now();
    let pred_before = psp_predicate::stats::snapshot();
    let mut stats = PspStats::default();

    let mut sched = Schedule::initial(spec);
    let t0 = Instant::now();
    stats.moves += compact_ext(&mut sched, &cfg.machine, cfg.enable_rename);
    stats.times.compact += t0.elapsed();

    let (s0, p0) = match score(&sched, cfg, &mut stats.times) {
        Some(x) => x,
        None => {
            // The compacted schedule should always be generatable; fall
            // back to the raw initial schedule if a corner case breaks it.
            sched = Schedule::initial(spec);
            let t1 = Instant::now();
            let prog = generate(&sched, &cfg.machine)?;
            stats.times.codegen += t1.elapsed();
            let primary = prog.ii_range().map(|(_, m)| m as f64).unwrap_or(0.0);
            (
                Score {
                    primary,
                    rows: sched.n_rows(),
                    instances: sched.n_instances(),
                },
                prog,
            )
        }
    };
    let mut best: (Score, Schedule, VliwLoop) = (s0.clone(), sched.clone(), p0);
    // Score of the schedule currently being extended (may transiently be
    // worse than the best seen — a wrap round alone rarely pays off until
    // the following refinement).
    let mut cur_score = Some(s0);

    'depth: for _depth in 0..cfg.max_depth {
        // Covers the initial score and the post-deepening score of the
        // previous round.
        if let (Some(f), Some(c)) = (cfg.exact_floor, cur_score.as_ref()) {
            if c.primary <= f {
                stats.floor_hit = true;
                break 'depth;
            }
        }
        // Refinement: strictly improving split/wrap steps on the current
        // schedule, each step's trials evaluated in parallel.
        for _step in 0..cfg.max_steps {
            let t1 = Instant::now();
            let candidates = generate_candidates(&sched, cfg);
            stats.times.candidate_gen += t1.elapsed();
            stats.candidates += candidates.len();

            let mut trials = evaluate_candidates(&sched, candidates, cfg, cur_score.as_ref());
            for trial in &trials {
                stats.times.absorb(&trial.times);
                stats.pruned += trial.pruned as usize;
            }

            // Deterministic reduction: first strict improvement in
            // candidate order wins ties, exactly like the sequential scan.
            // Deferred trials compete with their bound score — which equals
            // the score their generated program would get — so the scan
            // picks the same winner as the exhaustive sequential pass. The
            // winner's code is then generated; if that fails (a placement-
            // level failure the bound cannot rule out), the trial is
            // discarded exactly as the sequential scan would have
            // discarded it, and the scan repeats without it.
            let round_best: Option<(Transformation, Score, Schedule, VliwLoop, usize)> = loop {
                let mut best: Option<usize> = None;
                for (i, trial) in trials.iter().enumerate() {
                    let Some(s) = trial.competing_score() else {
                        continue;
                    };
                    let improves_current = match &cur_score {
                        Some(c) => s.better_than(c),
                        None => true,
                    };
                    if improves_current
                        && best
                            .map(|b| s.better_than(trials[b].competing_score().unwrap()))
                            .unwrap_or(true)
                    {
                        best = Some(i);
                    }
                }
                let Some(i) = best else { break None };
                if trials[i].scored.is_none() {
                    let deferred = trials[i].sched.as_ref().expect("deferred trial applied");
                    match score(deferred, cfg, &mut stats.times) {
                        Some(sp) => trials[i].scored = Some(sp),
                        None => {
                            trials[i].bound = None;
                            continue;
                        }
                    }
                }
                let trial = trials.swap_remove(i);
                // Deferred losers never ran the exponential codegen either.
                stats.pruned += trials
                    .iter()
                    .filter(|t| t.bound.is_some() && t.scored.is_none())
                    .count();
                let (Some((s, prog)), Some(trial_sched)) = (trial.scored, trial.sched) else {
                    unreachable!("winner was scored above");
                };
                break Some((trial.t, s, trial_sched, prog, trial.moves));
            };
            match round_best {
                Some((t, s, trial, prog, moves)) => {
                    match &t {
                        Transformation::WrapUp { .. } => stats.wraps += 1,
                        Transformation::Split { .. } => stats.splits += 1,
                        _ => {}
                    }
                    stats.moves += moves;
                    stats.rounds += 1;
                    sched = trial.clone();
                    if s.better_than(&best.0) {
                        best = (s.clone(), trial, prog);
                    }
                    let hit = cfg.exact_floor.is_some_and(|f| s.primary <= f);
                    cur_score = Some(s);
                    if hit {
                        stats.floor_hit = true;
                        break 'depth;
                    }
                }
                None => break, // local fixpoint
            }
        }

        // Deepen the pipeline: wrap the whole first row.
        let row0: Vec<InstId> = sched
            .rows
            .first()
            .map(|r| r.iter().map(|i| i.id).collect())
            .unwrap_or_default();
        let mut wrapped = 0;
        let t2 = Instant::now();
        for id in row0 {
            if transform::wrap_up(&mut sched, id, &cfg.machine).is_ok() {
                wrapped += 1;
            }
        }
        stats.times.apply += t2.elapsed();
        if wrapped == 0 {
            break;
        }
        stats.wraps += wrapped;
        stats.rounds += 1;
        let t3 = Instant::now();
        stats.moves += compact_ext(&mut sched, &cfg.machine, cfg.enable_rename);
        stats.times.compact += t3.elapsed();
        match score(&sched, cfg, &mut stats.times) {
            Some((s, prog)) => {
                stats.candidates += 1;
                if s.better_than(&best.0) {
                    best = (s.clone(), sched.clone(), prog);
                }
                cur_score = Some(s);
            }
            None => {
                cur_score = None; // keep refining; codegen may recover
            }
        }
    }

    stats.pred = psp_predicate::stats::snapshot().delta(&pred_before);
    stats.times.total = t_total.elapsed();
    crate::hook::check(spec, &cfg.machine, &best.1, &best.2);
    Ok(PspResult {
        schedule: best.1,
        program: best.2,
        stats,
        score: best.0,
    })
}

/// Candidate transformations directed at shortening the II.
fn generate_candidates(sched: &Schedule, cfg: &PspConfig) -> Vec<Transformation> {
    let mut out = Vec::new();
    // Wraps: every row-0 instance is a pipelining candidate.
    if let Some(row0) = sched.rows.first() {
        for inst in row0 {
            out.push(Transformation::WrapUp { id: inst.id });
        }
    }
    // Unifies: clone pairs that ended up side by side merge back,
    // shrinking code (strictly better via the tertiary score component
    // when the II and row count hold).
    for row in &sched.rows {
        for i in 0..row.len() {
            for j in (i + 1)..row.len() {
                let (a, b) = (&row[i], &row[j]);
                if a.op == b.op
                    && a.index == b.index
                    && a.origin == b.origin
                    && a.formal.unify(&b.formal).is_some()
                {
                    out.push(Transformation::Unify { a: a.id, b: b.id });
                }
            }
        }
    }
    // Splits: instances blocked from moving up by a constrained instance
    // may become movable once disjoined from it.
    if cfg.enable_split {
        let ids: Vec<InstId> = sched.instances().map(|i| i.id).collect();
        for id in ids {
            let Some((cur, pos)) = sched.find(id) else {
                continue;
            };
            if cur == 0 {
                continue;
            }
            let x = &sched.rows[cur][pos];
            // Blockers anywhere above with constrained matrices.
            for row in &sched.rows[..cur] {
                for y in row {
                    for (r, c) in split_candidates(x, y) {
                        let t = Transformation::Split { id, row: r, col: c };
                        if !out.contains(&t) {
                            out.push(t);
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_kernels::{all_kernels, by_name, KernelData};
    use psp_sim::{check_equivalence, EquivConfig};

    #[test]
    fn vecmin_pipelines_to_ii_2() {
        // The paper's headline result (Fig. 1c): II = 2 on both paths.
        let kernel = by_name("vecmin").unwrap();
        let cfg = PspConfig::default();
        let res = pipeline_loop(&kernel.spec, &cfg).unwrap();
        let (min, max) = res.program.ii_range().unwrap();
        assert!(
            max <= 2,
            "expected II ≤ 2, got ({min},{max})\n{}\n{}",
            res.schedule,
            res.program
        );
        assert!(res.stats.wraps >= 1);
    }

    #[test]
    fn vecmin_pipelined_is_equivalent() {
        let kernel = by_name("vecmin").unwrap();
        let res = pipeline_loop(&kernel.spec, &PspConfig::default()).unwrap();
        for (seed, len) in EquivConfig::new(5, 1).trial_inputs() {
            let data = KernelData::random(seed, len);
            let init = kernel.initial_state(&data);
            let (_, run) = check_equivalence(&kernel.spec, &res.program, &init, 10_000_000)
                .unwrap_or_else(|e| panic!("len {len}: {e}\n{}", res.program));
            kernel.check(&run.state, &data).unwrap();
        }
    }

    #[test]
    fn all_kernels_pipeline_correctly() {
        let cfg = PspConfig::default();
        for kernel in all_kernels() {
            let res = pipeline_loop(&kernel.spec, &cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            for (seed, len) in EquivConfig::new(3, 11).trial_inputs() {
                let data = KernelData::random(seed, len);
                let init = kernel.initial_state(&data);
                let (_, run) = check_equivalence(&kernel.spec, &res.program, &init, 10_000_000)
                    .unwrap_or_else(|e| panic!("{} len {len}: {e}\n{}", kernel.name, res.program));
                kernel.check(&run.state, &data).unwrap();
            }
        }
    }

    #[test]
    fn pipelining_beats_or_matches_local_schedule() {
        let cfg = PspConfig::default();
        for kernel in all_kernels() {
            let res = pipeline_loop(&kernel.spec, &cfg).unwrap();
            let local = psp_baselines::compile_local(&kernel.spec, &cfg.machine);
            let data = KernelData::random(42, 128);
            let init = kernel.initial_state(&data);
            let (_, psp_run) =
                check_equivalence(&kernel.spec, &res.program, &init, 10_000_000).unwrap();
            let (_, loc_run) = check_equivalence(&kernel.spec, &local, &init, 10_000_000).unwrap();
            assert!(
                psp_run.body_cycles <= loc_run.body_cycles + loc_run.iterations / 8,
                "{}: psp {} vs local {}",
                kernel.name,
                psp_run.body_cycles,
                loc_run.body_cycles
            );
        }
    }

    #[test]
    fn stats_are_populated() {
        let kernel = by_name("vecmin").unwrap();
        let res = pipeline_loop(&kernel.spec, &PspConfig::default()).unwrap();
        assert!(res.stats.moves > 0);
        assert!(res.stats.candidates > 0);
        assert!(res.stats.rounds > 0);
        assert!(res.stats.times.total > Duration::ZERO);
        assert!(res.stats.times.codegen > Duration::ZERO);
    }

    #[test]
    fn stats_json_is_machine_readable() {
        let kernel = by_name("vecmin").unwrap();
        let res = pipeline_loop(&kernel.spec, &PspConfig::default()).unwrap();
        let json = res.stats.to_json();
        // Shape checks (no JSON parser in the offline container): balanced
        // braces, all keys present, numeric values.
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"moves\":",
            "\"wraps\":",
            "\"splits\":",
            "\"candidates\":",
            "\"rounds\":",
            "\"pruned\":",
            "\"floor_hit\":",
            "\"pred\":",
            "\"conjoins\":",
            "\"disjoint_tests\":",
            "\"memo_hit_rate\":",
            "\"times_us\":",
            "\"candidate_gen\":",
            "\"codegen\":",
            "\"total\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The run must have done (and counted) real predicate work.
        assert!(res.stats.pred.disjoint_tests > 0);
        assert!(res.stats.pred.subsume_tests > 0);
    }

    #[test]
    fn exact_floor_stops_refinement_early() {
        let kernel = by_name("vecmin").unwrap();
        // The certified optimal *fixed* II of vecmin on the paper machine
        // is 3; PSP's variable II reaches max 2 when unrestricted. With the
        // certified floor installed the driver must stop at 3 and say so.
        let floor = psp_opt::mii_lower_bound(&kernel.spec, &MachineConfig::paper_default());
        assert_eq!(floor, 3);
        let cfg = PspConfig {
            exact_floor: Some(floor as f64),
            ..PspConfig::default()
        };
        let res = pipeline_loop(&kernel.spec, &cfg).unwrap();
        assert!(res.stats.floor_hit, "floor 3 is reachable, must trigger");
        let (_, max) = res.program.ii_range().unwrap();
        assert!(max <= 3);
        // The early stop trades quality for time but never correctness.
        let data = KernelData::random(9, 41);
        let init = kernel.initial_state(&data);
        let (_, run) = check_equivalence(&kernel.spec, &res.program, &init, 10_000_000).unwrap();
        kernel.check(&run.state, &data).unwrap();

        let unrestricted = pipeline_loop(&kernel.spec, &PspConfig::default()).unwrap();
        assert!(!unrestricted.stats.floor_hit);
        assert!(unrestricted.score.primary <= 2.0, "paper Fig. 1c: II = 2");
    }

    #[test]
    fn probability_mode_runs() {
        let kernel = by_name("skewed").unwrap();
        let cfg = PspConfig {
            probs: Some(vec![0.1]),
            ..PspConfig::default()
        };
        let res = pipeline_loop(&kernel.spec, &cfg).unwrap();
        let data = KernelData::random(7, 50).with_taken_fraction(0.1);
        let init = kernel.initial_state(&data);
        let (_, run) = check_equivalence(&kernel.spec, &res.program, &init, 10_000_000).unwrap();
        kernel.check(&run.state, &data).unwrap();
    }
}
