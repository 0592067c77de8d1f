//! The iterative PSP technique (paper §3).
//!
//! Each step generates a set of candidate transformations directed at
//! shortening the II (wraps of row-0 instances, and splits that disjoin a
//! mover from an instance above it that blocks it), evaluates each
//! candidate on a clone of the schedule (apply + compact + exact score from
//! the steady-state walk), applies the best strictly-improving one, and
//! repeats. There is no backtracking: a candidate that fails to improve —
//! or whose code generation fails — is simply discarded.
//!
//! Candidate trials within a step are independent, so they are evaluated
//! **in parallel** (see [`PspConfig::threads`]) with a deterministic
//! index-ordered reduction: transformation counts, final IIs, and generated
//! code are bit-identical to the sequential driver regardless of thread
//! count. Every phase is **instrumented** ([`PspStats`]: per-phase
//! wall-clock, transformation counters, JSON dump).

use crate::codegen::{generate, CodegenError};
use crate::compact::compact;
use crate::deps::{check_pair, Permission};
use crate::heuristics::{score_schedule, BranchProbs, Score};
use crate::instance::InstId;
use crate::json::Json;
use crate::json_object;
use crate::schedule::Schedule;
use crate::transform::{self, split_candidates, Transformation};
use psp_ir::LoopSpec;
use psp_machine::{MachineConfig, VliwLoop};
use psp_predicate::PredOpStats;
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::Scope;
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
    /// Threads that evaluate candidates, the caller included: `1` forces
    /// the sequential path, `0` uses all available parallelism, any other
    /// value caps the run's pool at `threads - 1` helpers. The reduction is
    /// deterministic (best score, ties broken by candidate index), so
    /// results are bit-identical for every setting. Every trial is scored
    /// exactly from its schedule ([`score_schedule`]) on the thread that
    /// claimed it; only the step winner's code is generated, on the caller.
    pub threads: usize,
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
}

/// Cumulative wall-clock spent in each phase of the pipeliner. In parallel
/// runs the per-trial phases (apply, compact, codegen, score) are summed
/// across the caller and its helper threads, so they measure aggregate
/// work and can exceed `total` (which is elapsed wall-clock of the whole
/// run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Candidate generation (wraps and split discovery).
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
    /// plus code generation for the step winner).
    pub candidates: usize,
    /// Improvement rounds taken.
    pub rounds: usize,
    /// Scored candidate trials that never ran code generation: unable to
    /// beat the current score, or out-ranked by the step winner.
    /// Deterministic: the same for every thread count.
    pub pruned: usize,
    /// Predicate-algebra work done by this run (conjoins, disjoint/subsume
    /// tests): the calling thread's counters sampled around the run plus
    /// each helper trial's own delta. Deterministic: the same for every
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
            "pred": &s.pred,
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
    /// The scored trial; `None` when `apply` or the walk rejected it, or
    /// it cannot beat the current score.
    scored: Option<Scored>,
    times: PhaseTimes,
    /// Discarded without running codegen: it cannot beat the current score.
    pruned: bool,
    /// Predicate work of this trial when it ran on a helper thread (the
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
/// the score a chosen candidate must strictly beat; a trial that cannot
/// beat it is pruned, and the others leave code generation to the
/// reduction.
fn eval_candidate(
    sched: &Schedule,
    t: &Transformation,
    cfg: &PspConfig,
    cur: Option<&Score>,
) -> Trial {
    let mut times = PhaseTimes::default();
    let mut pruned = false;
    let t0 = Instant::now();
    let mut next = sched.clone();
    let applied = transform::apply(&mut next, t, &cfg.machine).is_ok();
    times.apply += t0.elapsed();
    let mut scored = None;
    if applied {
        let t1 = Instant::now();
        let moves = compact(&mut next, &cfg.machine, cfg.enable_rename);
        times.compact += t1.elapsed();
        if let Ok(s) = score(&next, cfg, &mut times) {
            if cur.is_none_or(|c| s.better_than(c)) {
                scored = Some(Scored {
                    t: t.clone(),
                    moves,
                    sched: next,
                    score: s,
                });
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

/// Evaluate all candidates of one step on the run's pool. Trials return in
/// candidate order, so the reduction below is deterministic. Helpers build
/// their matrices in the caller's predicate backend, which is a per-thread
/// choice, and report their predicate-op counts in the trial; the caller's
/// own cells count the trials it runs.
fn evaluate_candidates<'scope>(
    pool: &mut Pool<'scope, '_, Trial>,
    sched: &Schedule,
    candidates: Vec<Transformation>,
    cfg: &'scope PspConfig,
    cur: Option<&Score>,
) -> Vec<Trial> {
    let caller = std::thread::current().id();
    let packed = psp_predicate::backend::is_packed();
    let (sched, cur) = (sched.clone(), cur.cloned());
    pool.run(candidates.len(), move |i| {
        let eval = || eval_candidate(&sched, &candidates[i], cfg, cur.as_ref());
        if std::thread::current().id() == caller {
            return eval();
        }
        let before = psp_predicate::stats::snapshot();
        let mut trial = psp_predicate::backend::with_backend(packed, eval);
        trial.pred = psp_predicate::stats::snapshot().delta(&before);
        trial
    })
}

/// One step of a [`Pool`]: `len` items of `work`, claimed through `cursor`
/// by the caller and the helpers it was sent to. Helpers report each item
/// on `done`.
struct Job<'scope, R> {
    work: Box<dyn Fn(usize) -> R + Send + Sync + 'scope>,
    len: usize,
    cursor: AtomicUsize,
    done: Sender<(usize, std::thread::Result<R>)>,
}

impl<R> Job<'_, R> {
    /// The next unclaimed item, if any. `Relaxed`: the cursor publishes
    /// nothing; the job and the results travel through channels.
    fn claim(&self) -> Option<usize> {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < self.len).then_some(i)
    }
}

/// `std::thread::available_parallelism`, resolved once per calling thread:
/// the call reads cgroup files every time (15–22 µs per pipelining run).
/// Library code keeps no process-global state, so the cache is a
/// per-thread cell.
fn available_threads() -> usize {
    thread_local! {
        static THREADS: Cell<usize> = const { Cell::new(0) };
    }
    THREADS.with(|t| {
        if t.get() == 0 {
            t.set(std::thread::available_parallelism().map_or(1, |n| n.get()));
        }
        t.get()
    })
}

/// The worker pool of one pipelining run: up to `threads - 1` helper
/// threads (`0` = available parallelism), spawned in the run's scope the
/// first time a step needs them and kept until the pool is dropped, which
/// closes their job channels and lets the scope join them.
struct Pool<'scope, 'env, R> {
    scope: &'scope Scope<'scope, 'env>,
    threads: usize,
    helpers: Vec<Sender<Arc<Job<'scope, R>>>>,
}

impl<'scope, 'env, R: Send + 'scope> Pool<'scope, 'env, R> {
    fn new(scope: &'scope Scope<'scope, 'env>, threads: usize) -> Self {
        let threads = match threads {
            0 => available_threads(),
            n => n,
        };
        Self {
            scope,
            threads,
            helpers: Vec::new(),
        }
    }

    /// Map `work` over `0..len`, returning the results in index order. The
    /// caller claims items from the same cursor as `min(threads, len) - 1`
    /// helpers, so a step of at most one item runs on the caller alone. A
    /// panic in `work` reaches the caller with its own payload; a helper's
    /// is caught there and re-raised here.
    fn run(&mut self, len: usize, work: impl Fn(usize) -> R + Send + Sync + 'scope) -> Vec<R> {
        let want = self.threads.min(len).saturating_sub(1);
        if want == 0 {
            return (0..len).map(work).collect();
        }
        while self.helpers.len() < want {
            let (jobs, inbox) = mpsc::channel::<Arc<Job<'scope, R>>>();
            self.scope.spawn(move || {
                for job in inbox {
                    while let Some(i) = job.claim() {
                        let r = std::panic::catch_unwind(AssertUnwindSafe(|| (job.work)(i)));
                        if job.done.send((i, r)).is_err() {
                            return; // the caller is unwinding
                        }
                    }
                }
            });
            self.helpers.push(jobs);
        }
        let (done, results) = mpsc::channel();
        let job = Arc::new(Job {
            work: Box::new(work),
            len,
            cursor: AtomicUsize::new(0),
            done,
        });
        for helper in &self.helpers[..want] {
            // A helper only exits once its channel closes.
            let _ = helper.send(Arc::clone(&job));
        }
        let mut slots: Vec<Option<std::thread::Result<R>>> = (0..len).map(|_| None).collect();
        let mut outstanding = len;
        while let Some(i) = job.claim() {
            slots[i] = Some(Ok((job.work)(i)));
            outstanding -= 1;
        }
        // Without the caller's handle, `results` disconnects if every
        // helper holding the step is gone, instead of waiting forever.
        drop(job);
        for (i, r) in results.iter().take(outstanding) {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(
                |slot| match slot.expect("a pool helper died without reporting") {
                    Ok(r) => r,
                    Err(payload) => std::panic::resume_unwind(payload),
                },
            )
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
///
/// Candidate trials run on one `Pool` for the whole run, in a scope the
/// run opens and joins before it returns.
pub fn pipeline_loop(spec: &LoopSpec, cfg: &PspConfig) -> Result<PspResult, CodegenError> {
    std::thread::scope(|s| pipeline_on(spec, cfg, &mut Pool::new(s, cfg.threads)))
}

/// [`pipeline_loop`] with its trials on `pool`.
fn pipeline_on<'scope>(
    spec: &LoopSpec,
    cfg: &'scope PspConfig,
    pool: &mut Pool<'scope, '_, Trial>,
) -> Result<PspResult, CodegenError> {
    let t_total = Instant::now();
    let pred_before = psp_predicate::stats::snapshot();
    let mut stats = PspStats::default();

    // The seed is the compacted schedule; a seed that code generation
    // refuses ends the run with that refusal (DESIGN §6.10).
    let mut sched = Schedule::initial(spec);
    let t0 = Instant::now();
    stats.moves += compact(&mut sched, &cfg.machine, cfg.enable_rename);
    stats.times.compact += t0.elapsed();
    let (s0, p0) = score_and_generate(&sched, cfg, &mut stats.times)?;
    let mut best: (Score, Schedule, VliwLoop) = (s0.clone(), sched.clone(), p0);
    // Score of the schedule currently being extended (may transiently be
    // worse than the best seen — a wrap round alone rarely pays off until
    // the following refinement).
    let mut cur_score = Some(s0);

    for _depth in 0..cfg.max_depth {
        // Refinement: strictly improving split/wrap steps on the current
        // schedule, each step's trials evaluated in parallel.
        for _step in 0..MAX_STEPS {
            let t1 = Instant::now();
            let candidates = generate_candidates(&sched, cfg);
            stats.times.candidate_gen += t1.elapsed();
            stats.candidates += candidates.len();

            let trials = evaluate_candidates(pool, &sched, candidates, cfg, cur_score.as_ref());
            let mut scored = Vec::with_capacity(trials.len());
            for trial in trials {
                stats.times.absorb(&trial.times);
                stats.pred += trial.pred;
                stats.pruned += trial.pruned as usize;
                scored.extend(trial.scored);
            }

            // Deterministic reduction: every scored trial beats the current
            // score, and the first best in candidate order wins ties, exactly
            // like a sequential scan. Only the winner's code is generated.
            // If that fails (a placement-level failure the walk cannot see),
            // the trial is discarded and the scan repeats without it.
            let round_best = loop {
                let mut best: Option<usize> = None;
                for (i, c) in scored.iter().enumerate() {
                    if best.is_none_or(|b| c.score.better_than(&scored[b].score)) {
                        best = Some(i);
                    }
                }
                let Some(i) = best else { break None };
                // `remove`, not `swap_remove`: a rescan must see the other
                // trials in candidate order.
                let win = scored.remove(i);
                let Ok(prog) = codegen(&win.sched, cfg, &mut stats.times) else {
                    continue;
                };
                // The losers never ran the exponential codegen either.
                stats.pruned += scored.len();
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
                    cur_score = Some(s);
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
        stats.moves += compact(&mut sched, &cfg.machine, cfg.enable_rename);
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

/// Candidate transformations directed at shortening the II: a wrap of
/// every row-0 instance, and the splits that disjoin a mover from an
/// instance above it that blocks it. Unify is not proposed: a scan for
/// mergeable clone pairs found none on the E12 corpus, the synthetic loops
/// or the kernels (ROADMAP item 13).
fn generate_candidates(sched: &Schedule, cfg: &PspConfig) -> Vec<Transformation> {
    let mut out = Vec::new();
    // Wraps: every row-0 instance is a pipelining candidate.
    if let Some(row0) = sched.rows.first() {
        for inst in row0 {
            out.push(Transformation::WrapUp { id: inst.id });
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
            // Blockers: instances anywhere above with a constrained element
            // where `x` has `b`, that `x` may not simply cross. The cheap
            // key scan runs first, so the dependence check only runs on
            // pairs a split could disjoin.
            for row in &sched.rows[..cur] {
                for y in row {
                    let keys = split_candidates(x, y);
                    if keys.is_empty()
                        || check_pair(x, y, &sched.source.live_out, &cfg.machine).above
                            == Permission::Yes
                    {
                        continue;
                    }
                    for (r, c) in keys {
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
    use std::sync::atomic::AtomicBool;

    #[test]
    fn pool_keeps_input_order_over_uneven_work() {
        let items: Vec<u64> = (0..257).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        let uneven = |i: usize| {
            let x = items[i];
            let mut acc = x;
            for _ in 0..(x % 7) * 2_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(acc);
            x * x
        };
        for threads in [1, 2, 3, 8] {
            let got = std::thread::scope(|s| {
                let mut pool = Pool::new(s, threads);
                // Several steps on one pool, each in input order.
                (0..3)
                    .map(|_| pool.run(items.len(), uneven))
                    .collect::<Vec<_>>()
            });
            for step in got {
                assert_eq!(step, want, "threads = {threads}");
            }
        }
    }

    #[test]
    fn pool_runs_empty_and_one_item_steps_on_the_caller() {
        let caller = std::thread::current().id();
        let on_caller = move |i: usize| (i + 1, std::thread::current().id() == caller);
        std::thread::scope(|s| {
            let mut pool = Pool::new(s, 8);
            assert!(pool.run(0, on_caller).is_empty());
            assert_eq!(pool.run(1, on_caller), [(1, true)]);
            // Still on the caller once a larger step has spawned helpers.
            assert_eq!(pool.run(16, on_caller).len(), 16);
            assert_eq!(pool.run(1, on_caller), [(1, true)]);
            assert!(pool.run(0, on_caller).is_empty());
        });
    }

    /// On a helper, raise `flag`; on the caller, wait (at most 10 s) until
    /// a helper has raised it. Returns whether this is the caller.
    fn meet_a_helper(caller: std::thread::ThreadId, flag: &AtomicBool) -> bool {
        if std::thread::current().id() != caller {
            flag.store(true, Ordering::Relaxed);
            return false;
        }
        let t0 = Instant::now();
        while !flag.load(Ordering::Relaxed) && t0.elapsed() < Duration::from_secs(10) {
            std::thread::yield_now();
        }
        true
    }

    #[test]
    #[should_panic(expected = "failed on a helper")]
    fn pool_reraises_a_helper_panic_with_its_own_payload() {
        let caller = std::thread::current().id();
        let helper_ran = AtomicBool::new(false);
        std::thread::scope(|s| {
            Pool::new(s, 3).run(16, |i| {
                if !meet_a_helper(caller, &helper_ran) {
                    panic!("item {i} failed on a helper");
                }
                i
            })
        });
    }

    #[test]
    fn pool_spawns_its_helpers_once_per_run() {
        let threads = 3;
        let caller = std::thread::current().id();
        let helper_ran = AtomicBool::new(false);
        let seen: std::collections::HashSet<_> = std::thread::scope(|s| {
            let mut pool = Pool::new(s, threads);
            (0..6)
                .flat_map(|step| {
                    // Every step waits for one of its helpers to run an
                    // item, so a helper spawned per step would show.
                    helper_ran.store(false, Ordering::Relaxed);
                    pool.run(24 + step, |_| {
                        meet_a_helper(caller, &helper_ran);
                        std::thread::current().id()
                    })
                })
                .collect()
        });
        assert!(
            seen.len() <= threads,
            "{} distinct threads ran items on a pool of {threads}",
            seen.len()
        );
    }

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
