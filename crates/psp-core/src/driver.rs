//! The iterative PSP technique (paper §3).
//!
//! Each step generates a set of candidate transformations directed at
//! shortening the II (wraps of row-0 instances, splits that disjoin blocked
//! movers), evaluates each candidate on a clone of the schedule (apply +
//! compact + exact score from the steady-state walk), applies the best
//! strictly-improving one, and repeats. There is no backtracking: a
//! candidate that fails to improve — or whose code generation fails — is
//! simply discarded.
//!
//! Candidate trials within a step are independent, so they are evaluated
//! **in parallel** (see [`PspConfig::threads`]) with a deterministic
//! index-ordered reduction: transformation counts, final IIs, and generated
//! code are bit-identical to the sequential driver regardless of thread
//! count. Every phase is **instrumented** ([`PspStats`]: per-phase
//! wall-clock, transformation counters, JSON dump).

use crate::codegen::{generate, CodegenError};
use crate::compact::compact_ext;
use crate::heuristics::{score_schedule, BranchProbs, Score};
use crate::instance::InstId;
use crate::json::Json;
use crate::json_object;
use crate::schedule::Schedule;
use crate::transform::{self, split_candidates, Transformation};
use psp_ir::LoopSpec;
use psp_machine::{MachineConfig, VliwLoop};
use psp_predicate::PredOpStats;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Maximum number of strictly improving refinement steps per pipelining
/// round, a safeguard against pathological growth.
const MAX_STEPS: usize = 32;

/// Configuration of the PSP pipeliner.
#[derive(Debug, Clone)]
pub struct PspConfig {
    /// Target machine.
    pub machine: MachineConfig,
    /// Maximum pipelining depth: rounds of wrapping the whole first row
    /// across the loop boundary (each round can add one level of overlap).
    pub max_depth: usize,
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
    /// Generate code only for the trial that wins a step. Every trial is
    /// scored exactly from its schedule, without generating code
    /// ([`score_schedule`]), under either objective. With pruning on, a
    /// trial that cannot strictly beat the current score is discarded, and
    /// the rest defer code generation until the reduction picks one as
    /// the step winner; off, every scored trial generates its code. The
    /// chosen candidate is identical either way ([`PspStats::counters`]
    /// stays bit-identical; only wall-clock, the predicate counts and the
    /// `pruned` counter change).
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
    /// which code-generates every candidate trial.
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
    /// Scoring: the steady-state walks of trial, seed and deepened
    /// schedules.
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
    /// Candidates evaluated (each evaluation = clone + compact + score,
    /// plus code generation for the step winner or, without pruning, for
    /// every trial).
    pub candidates: usize,
    /// Improvement rounds taken.
    pub rounds: usize,
    /// Scored candidate trials that never ran code generation: unable to
    /// beat the current score, or out-ranked by the step winner (see
    /// [`PspConfig::enable_prune`]). Deterministic, but
    /// configuration-dependent: the exhaustive reference prunes nothing.
    pub pruned: usize,
    /// Whether refinement stopped early because the score reached
    /// [`PspConfig::exact_floor`].
    pub floor_hit: bool,
    /// Predicate-algebra work done by this run (conjoins, disjoint/subsume
    /// tests): the calling thread's counters sampled around the run plus
    /// each worker trial's own delta. Deterministic: the same for every
    /// thread count and predicate backend, whatever else the process runs.
    /// Reported apart from [`counters`](Self::counters).
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

    /// Machine-readable dump: one [`json`](crate::json) document, with the
    /// keys README.md documents. Times are microseconds.
    pub fn to_json(&self) -> String {
        Json::from(self).document()
    }
}

impl From<&PspStats> for Json {
    fn from(s: &PspStats) -> Json {
        let t = &s.times;
        json_object! {
            "moves": s.moves, "wraps": s.wraps, "splits": s.splits,
            "candidates": s.candidates, "rounds": s.rounds, "pruned": s.pruned,
            "floor_hit": s.floor_hit, "pred": &s.pred,
            "times_us": json_object! {
                "candidate_gen": t.candidate_gen.as_micros(), "apply": t.apply.as_micros(),
                "compact": t.compact.as_micros(), "codegen": t.codegen.as_micros(),
                "score": t.score.as_micros(), "total": t.total.as_micros(),
            },
        }
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
    /// The scored trial; `None` when `apply`, the walk or code generation
    /// rejected it, or pruning discarded it.
    scored: Option<Scored>,
    times: PhaseTimes,
    /// Discarded without running codegen: it cannot beat the current score.
    pruned: bool,
    /// Predicate work of this trial when it ran on a worker thread (the
    /// caller thread's own counters already hold the trials it ran).
    pred: PredOpStats,
}

/// A trial that competes in the step's reduction.
struct Scored {
    t: Transformation,
    /// Moveups compaction applied to this trial (counted into stats only
    /// if the trial is chosen, matching the sequential driver).
    moves: usize,
    /// The compacted trial schedule.
    sched: Schedule,
    /// Its exact score.
    score: Score,
    /// Its generated program; `None` until it is generated.
    prog: Option<VliwLoop>,
}

/// Score `sched` exactly from its steady-state walk.
fn score(sched: &Schedule, cfg: &PspConfig, times: &mut PhaseTimes) -> Result<Score, CodegenError> {
    let t0 = Instant::now();
    let s = score_schedule(sched, cfg.probs.as_deref());
    times.score += t0.elapsed();
    s
}

/// Generate the code of `sched`.
fn codegen(
    sched: &Schedule,
    cfg: &PspConfig,
    times: &mut PhaseTimes,
) -> Result<VliwLoop, CodegenError> {
    let t0 = Instant::now();
    let prog = generate(sched, &cfg.machine);
    times.codegen += t0.elapsed();
    prog
}

/// Walk, then generate: the walk refuses a loop past its path cap before
/// the exponential code generation starts.
fn score_and_generate(
    sched: &Schedule,
    cfg: &PspConfig,
    times: &mut PhaseTimes,
) -> Result<(Score, VliwLoop), CodegenError> {
    let s = score(sched, cfg, times)?;
    Ok((s, codegen(sched, cfg, times)?))
}

/// Evaluate one candidate transformation on a clone of `sched`. `cur` is
/// the score a chosen candidate must strictly beat; when pruning is on, a
/// trial that cannot beat it is discarded, and the others defer code
/// generation to the reduction.
fn eval_candidate(
    sched: &Schedule,
    t: Transformation,
    cfg: &PspConfig,
    cur: Option<&Score>,
) -> Trial {
    let mut times = PhaseTimes::default();
    let mut pruned = false;
    let t0 = Instant::now();
    let mut next = sched.clone();
    let applied = transform::apply(&mut next, &t, &cfg.machine).is_ok();
    times.apply += t0.elapsed();
    let mut scored = None;
    if applied {
        let t1 = Instant::now();
        let moves = compact_ext(&mut next, &cfg.machine, cfg.enable_rename);
        times.compact += t1.elapsed();
        if let Ok(s) = score(&next, cfg, &mut times) {
            let mut trial = Scored {
                t,
                moves,
                sched: next,
                score: s,
                prog: None,
            };
            if !cfg.enable_prune {
                trial.prog = codegen(&trial.sched, cfg, &mut times).ok();
                scored = trial.prog.is_some().then_some(trial);
            } else if cur.is_none_or(|c| trial.score.better_than(c)) {
                scored = Some(trial);
            } else {
                // Pruning only depends on the step-entry score, never on
                // the other trials, so pruning is order-independent
                // (deterministic under any thread count).
                pruned = true;
            }
        }
    }
    Trial {
        scored,
        times,
        pruned,
        pred: PredOpStats::default(),
    }
}

/// Evaluate all candidates of one step — concurrently unless
/// [`PspConfig::threads`] is `1` or there is one candidate, in which case
/// the map runs inline on the caller. Trials return in candidate order
/// either way, so the reduction below is deterministic. Worker threads
/// build their matrices in the caller's predicate backend, which is a
/// per-thread choice, and report their predicate-op counts in the trial;
/// the caller's own cells count the trials it runs.
fn evaluate_candidates(
    sched: &Schedule,
    candidates: Vec<Transformation>,
    cfg: &PspConfig,
    cur: Option<&Score>,
) -> Vec<Trial> {
    let caller = std::thread::current().id();
    let packed = psp_predicate::backend::is_packed();
    candidates
        .into_par_iter()
        .with_threads(cfg.threads)
        .map(|t| {
            if std::thread::current().id() == caller {
                return eval_candidate(sched, t, cfg, cur);
            }
            let before = psp_predicate::stats::snapshot();
            let mut trial =
                psp_predicate::backend::with_backend(packed, || eval_candidate(sched, t, cfg, cur));
            trial.pred = psp_predicate::stats::snapshot().delta(&before);
            trial
        })
        .collect()
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

    let (s0, p0) = match score_and_generate(&sched, cfg, &mut stats.times) {
        Ok(x) => x,
        Err(_) => {
            // The compacted schedule should always be generatable; fall
            // back to the raw initial schedule if a corner case breaks it.
            sched = Schedule::initial(spec);
            score_and_generate(&sched, cfg, &mut stats.times)?
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
        for _step in 0..MAX_STEPS {
            let t1 = Instant::now();
            let candidates = generate_candidates(&sched, cfg);
            stats.times.candidate_gen += t1.elapsed();
            stats.candidates += candidates.len();

            let trials = evaluate_candidates(&sched, candidates, cfg, cur_score.as_ref());
            let mut scored = Vec::with_capacity(trials.len());
            for trial in trials {
                stats.times.absorb(&trial.times);
                stats.pred += trial.pred;
                stats.pruned += trial.pruned as usize;
                scored.extend(trial.scored);
            }

            // Deterministic reduction: first strict improvement in
            // candidate order wins ties, exactly like the sequential scan.
            // Every trial competes with its exact score, so the scan picks
            // the same winner whether or not its code was generated yet.
            // The winner's code is generated now if it was deferred; if
            // that fails (a placement-level failure the walk cannot see),
            // the trial is discarded exactly as the sequential scan would
            // have discarded it, and the scan repeats without it.
            let round_best = loop {
                let mut best: Option<usize> = None;
                for (i, c) in scored.iter().enumerate() {
                    let improves_current = cur_score
                        .as_ref()
                        .is_none_or(|cur| c.score.better_than(cur));
                    if improves_current
                        && best.is_none_or(|b| c.score.better_than(&scored[b].score))
                    {
                        best = Some(i);
                    }
                }
                let Some(i) = best else { break None };
                // `remove`, not `swap_remove`: a rescan must see the other
                // trials in candidate order.
                let mut win = scored.remove(i);
                let prog = match win.prog.take() {
                    Some(prog) => prog,
                    None => match codegen(&win.sched, cfg, &mut stats.times) {
                        Ok(prog) => prog,
                        Err(_) => continue,
                    },
                };
                // Deferred losers never ran the exponential codegen either.
                stats.pruned += scored.iter().filter(|c| c.prog.is_none()).count();
                break Some((win, prog));
            };
            match round_best {
                Some((win, prog)) => {
                    match &win.t {
                        Transformation::WrapUp { .. } => stats.wraps += 1,
                        Transformation::Split { .. } => stats.splits += 1,
                        _ => {}
                    }
                    stats.moves += win.moves;
                    stats.rounds += 1;
                    sched = win.sched.clone();
                    let s = win.score;
                    if s.better_than(&best.0) {
                        best = (s.clone(), win.sched, prog);
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
        match score_and_generate(&sched, cfg, &mut stats.times) {
            Ok((s, prog)) => {
                stats.candidates += 1;
                if s.better_than(&best.0) {
                    best = (s.clone(), sched.clone(), prog);
                }
                cur_score = Some(s);
            }
            Err(_) => {
                cur_score = None; // keep refining; codegen may recover
            }
        }
    }

    stats.pred += psp_predicate::stats::snapshot().delta(&pred_before);
    stats.times.total = t_total.elapsed();
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
        for (seed, len) in EquivConfig::fixed(5, 1).trial_inputs() {
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
            for (seed, len) in EquivConfig::fixed(3, 11).trial_inputs() {
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
        use crate::json::parse::{get, keys, parse};
        let kernel = by_name("vecmin").unwrap();
        let res = pipeline_loop(&kernel.spec, &PspConfig::default()).unwrap();
        let json = res.stats.to_json();
        let doc = parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        assert_eq!(
            keys(&doc),
            [
                "schema",
                "moves",
                "wraps",
                "splits",
                "candidates",
                "rounds",
                "pruned",
                "floor_hit",
                "pred",
                "times_us"
            ]
        );
        assert_eq!(get(&doc, "schema"), Some(&Json::from(crate::json::SCHEMA)));
        assert_eq!(get(&doc, "moves"), Some(&Json::from(res.stats.moves)));
        let pred = get(&doc, "pred").unwrap();
        assert_eq!(keys(pred), ["conjoins", "disjoint_tests", "subsume_tests"]);
        assert_eq!(
            get(pred, "disjoint_tests"),
            Some(&Json::from(res.stats.pred.disjoint_tests))
        );
        assert_eq!(
            keys(get(&doc, "times_us").unwrap()),
            [
                "candidate_gen",
                "apply",
                "compact",
                "codegen",
                "score",
                "total"
            ]
        );
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
