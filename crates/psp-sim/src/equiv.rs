//! Semantic equivalence checking between a source loop and compiled code.
//!
//! The transformed loop may freely clobber registers that are not live-out
//! (renaming introduces many), so only live-out registers and the full
//! array memory are compared.
//!
//! Two engines can drive the check:
//!
//! * **decoded** (default) — [`crate::decode`]: programs are decoded once,
//!   each run's steady state goes through one of three measured fast loops
//!   and every other cycle through the interpreters, trials reuse scratch
//!   state, and [`check_equivalence_batch`] shards a whole trial set across
//!   threads;
//! * **interpreter** — the `step_cycle`/`run_items` interpreters alone,
//!   the trusted reference and the only generic evaluator. A caller pins
//!   it with [`check_equivalence_with`] or [`EquivConfig::with_engine`];
//!   the engine differential suites and repro replay do.
//!
//! Both produce bit-identical observables (enforced by the differential
//! suites), so which engine ran is a performance detail, not a semantic
//! one.

use crate::decode::{DecodedRef, DecodedVliw, Scratch};
use crate::reference::{run_reference, RefRun};
use crate::state::{MachineState, SimError};
use crate::vliw_run::{run_vliw, VliwRun};
use psp_ir::{LoopSpec, RegRef};
use psp_machine::VliwLoop;
use std::fmt;

/// Mismatch found by [`check_equivalence`].
#[derive(Debug, Clone, PartialEq)]
pub enum EquivalenceError {
    /// The simulation itself failed.
    Sim(SimError),
    /// A live-out register differs.
    Register {
        /// Which register.
        reg: RegRef,
        /// Reference value.
        expected: i64,
        /// Compiled-code value.
        actual: i64,
    },
    /// Array contents differ.
    Array {
        /// Array index.
        array: usize,
        /// First differing element.
        element: usize,
        /// Reference value.
        expected: i64,
        /// Compiled-code value.
        actual: i64,
    },
}

impl fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivalenceError::Sim(e) => write!(f, "simulation failed: {e}"),
            EquivalenceError::Register {
                reg,
                expected,
                actual,
            } => write!(f, "live-out {reg}: expected {expected}, got {actual}"),
            EquivalenceError::Array {
                array,
                element,
                expected,
                actual,
            } => write!(
                f,
                "array a{array}[{element}]: expected {expected}, got {actual}"
            ),
        }
    }
}

impl From<SimError> for EquivalenceError {
    fn from(e: SimError) -> Self {
        EquivalenceError::Sim(e)
    }
}

/// Which execution engine drives a check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The pre-decoded engine ([`crate::decode`]); the default.
    Decoded,
    /// The original `step_cycle` interpreters; the trusted reference.
    Interpreter,
}

impl EngineKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Decoded => "decoded",
            EngineKind::Interpreter => "interpreter",
        }
    }
}

/// The canonical trial-length ladder: the smallest interesting trip counts
/// plus sizes that exercise several pipelined passes. Trial `i` uses
/// `TRIAL_LENS[i % 6]`.
pub const TRIAL_LENS: [usize; 6] = [1, 2, 7, 33, 64, 257];

/// Centralized equivalence-trial configuration, replacing per-call-site
/// hardcoded `(seed, len)` tables in the driver, baselines, fuzzer,
/// kernel-generator, and bench callers.
#[derive(Debug, Clone)]
pub struct EquivConfig {
    /// Number of random trials.
    pub trials: usize,
    /// Base RNG seed; trial `i` uses `seed + i`.
    pub seed: u64,
    /// Per-trial cycle budget.
    pub max_cycles: u64,
    /// Execution engine.
    pub engine: EngineKind,
    /// Worker threads for [`check_equivalence_batch`] (1 = sequential;
    /// 0 = available parallelism).
    pub threads: usize,
    /// Trial-length ladder; trial `i` uses `lens[i % lens.len()]`.
    /// Defaults to [`TRIAL_LENS`]; an empty ladder also means
    /// [`TRIAL_LENS`], so the trial count never depends on it.
    pub lens: Vec<usize>,
}

impl EquivConfig {
    /// `trials` trials from base seed `seed` on the decoded engine, one
    /// thread, a 10M-cycle budget and the [`TRIAL_LENS`] ladder.
    pub fn fixed(trials: usize, seed: u64) -> Self {
        Self {
            trials,
            seed,
            max_cycles: 10_000_000,
            engine: EngineKind::Decoded,
            threads: 1,
            lens: TRIAL_LENS.to_vec(),
        }
    }

    /// Replace the per-trial cycle budget.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Pin the execution engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Set the worker-thread count for batched checks.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replace the trial-length ladder (benchmarks use longer,
    /// simulation-bound lengths; correctness suites keep the default
    /// ladder's tiny trip counts). An empty ladder means [`TRIAL_LENS`].
    pub fn with_lens(mut self, lens: &[usize]) -> Self {
        self.lens = lens.to_vec();
        self
    }

    /// The `(seed, len)` pairs of the configured trials. Trial `i` draws
    /// from seed `seed + i`, wrapping past `u64::MAX` to 0.
    pub fn trial_inputs(&self) -> Vec<(u64, usize)> {
        let lens: &[usize] = if self.lens.is_empty() {
            &TRIAL_LENS
        } else {
            &self.lens
        };
        (0..self.trials)
            .map(|i| (self.seed.wrapping_add(i as u64), lens[i % lens.len()]))
            .collect()
    }
}

/// Compact per-trial observables (cycle/iteration counts) from a batched
/// check; the full `RefRun`/`VliwRun` materialization is skipped on the
/// batch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivRun {
    /// Sequential reference cycles.
    pub ref_cycles: u64,
    /// Reference iterations.
    pub ref_iterations: u64,
    /// VLIW body cycles.
    pub body_cycles: u64,
    /// VLIW prologue + body + epilogue cycles.
    pub total_cycles: u64,
    /// VLIW iterations.
    pub vliw_iterations: u64,
}

impl EquivRun {
    /// Average VLIW body cycles per iteration (0 for no iterations), as
    /// [`VliwRun::cycles_per_iteration`].
    pub fn cycles_per_iteration(&self) -> f64 {
        if self.vliw_iterations == 0 {
            0.0
        } else {
            self.body_cycles as f64 / self.vliw_iterations as f64
        }
    }
}

/// Result of [`check_equivalence_batch`].
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Per-trial counters, in trial order.
    pub trials: Vec<EquivRun>,
    /// Engine that ran the batch.
    pub engine: EngineKind,
}

impl BatchRun {
    /// Total simulated cycles across all trials and both sides.
    pub fn total_cycles(&self) -> u64 {
        self.trials
            .iter()
            .map(|t| t.ref_cycles + t.total_cycles)
            .sum()
    }
}

/// A trial failure from [`check_equivalence_batch`], tagged with the trial
/// input that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchError {
    /// RNG seed of the failing trial.
    pub seed: u64,
    /// Input length of the failing trial.
    pub len: usize,
    /// The underlying mismatch.
    pub error: EquivalenceError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "len {} seed {}: {}", self.len, self.seed, self.error)
    }
}

impl std::error::Error for BatchError {}

/// Compare live-out registers and full array memory; shared by both
/// engines so the first-mismatch report is identical. A live-out past
/// either state's registers is a [`SimError::BadRegister`].
fn compare_observables(
    live_out: &[RegRef],
    golden: &MachineState,
    run: &MachineState,
) -> Result<(), EquivalenceError> {
    for &lo in live_out {
        let (expected, actual) = match lo {
            RegRef::Gpr(r) => (golden.reg(r)?, run.reg(r)?),
            RegRef::Cc(c) => (golden.cc(c)? as i64, run.cc(c)? as i64),
        };
        if expected != actual {
            return Err(EquivalenceError::Register {
                reg: lo,
                expected,
                actual,
            });
        }
    }
    for (ai, (ga, ra)) in golden.arrays.iter().zip(run.arrays.iter()).enumerate() {
        for (ei, (g, r)) in ga.iter().zip(ra.iter()).enumerate() {
            if g != r {
                return Err(EquivalenceError::Array {
                    array: ai,
                    element: ei,
                    expected: *g,
                    actual: *r,
                });
            }
        }
    }
    Ok(())
}

/// A decoded spec/program pair plus reusable run state: decode once, check
/// any number of trial inputs with zero per-trial allocation.
#[derive(Debug, Clone)]
pub struct EquivEngine {
    dref: DecodedRef,
    dvliw: DecodedVliw,
    live_out: Vec<RegRef>,
    max_reg: u32,
    max_cc: u32,
    ref_state: MachineState,
    vliw_state: MachineState,
    scratch: Scratch,
}

impl EquivEngine {
    /// Decode `spec` and `prog` for repeated checking.
    pub fn new(spec: &LoopSpec, prog: &VliwLoop) -> Self {
        let (prog_regs, prog_ccs) = prog.register_demand();
        EquivEngine {
            dref: DecodedRef::decode(spec),
            dvliw: DecodedVliw::decode(prog),
            live_out: spec.live_out.clone(),
            max_reg: prog_regs.max(spec.n_regs),
            max_cc: prog_ccs.max(spec.n_ccs),
            ref_state: MachineState::new(0, 0),
            vliw_state: MachineState::new(0, 0),
            scratch: Scratch::default(),
        }
    }

    /// Check one trial input, returning compact counters (no
    /// `RefRun`/`VliwRun` materialization).
    pub fn check(
        &mut self,
        initial: &MachineState,
        max_cycles: u64,
    ) -> Result<EquivRun, EquivalenceError> {
        self.ref_state.copy_from(initial);
        let rc = self
            .dref
            .run(&mut self.ref_state, &mut self.scratch, max_cycles)?;
        self.vliw_state.copy_from(initial);
        self.vliw_state.grow(self.max_reg, self.max_cc);
        let vc = self
            .dvliw
            .run(&mut self.vliw_state, &mut self.scratch, max_cycles)?;
        compare_observables(&self.live_out, &self.ref_state, &self.vliw_state)?;
        Ok(EquivRun {
            ref_cycles: rc.cycles,
            ref_iterations: rc.iterations,
            body_cycles: vc.body_cycles,
            total_cycles: vc.total_cycles,
            vliw_iterations: vc.iterations,
        })
    }

    /// The compiled program's final state after the last [`Self::check`]
    /// or [`Self::check_full`] call.
    pub fn vliw_state(&self) -> &MachineState {
        &self.vliw_state
    }

    /// [`Self::check`], then materialize the full runs, for API parity
    /// with [`check_equivalence`].
    pub fn check_full(
        &mut self,
        initial: &MachineState,
        max_cycles: u64,
    ) -> Result<(RefRun, VliwRun), EquivalenceError> {
        let run = self.check(initial, max_cycles)?;
        Ok((
            RefRun {
                state: self.ref_state.clone(),
                iterations: run.ref_iterations,
                cycles: run.ref_cycles,
            },
            VliwRun {
                state: self.vliw_state.clone(),
                body_cycles: run.body_cycles,
                total_cycles: run.total_cycles,
                iterations: run.vliw_iterations,
            },
        ))
    }
}

/// Run `spec` (reference) and `prog` (compiled) from the same initial state
/// and compare observable results. Returns both runs on success so callers
/// can also compare cycle counts. Runs on the decoded engine; use
/// [`check_equivalence_with`] to pin another.
pub fn check_equivalence(
    spec: &LoopSpec,
    prog: &VliwLoop,
    initial: &MachineState,
    max_cycles: u64,
) -> Result<(RefRun, VliwRun), EquivalenceError> {
    check_equivalence_with(spec, prog, initial, max_cycles, EngineKind::Decoded)
}

/// [`check_equivalence`] with an explicit engine.
pub fn check_equivalence_with(
    spec: &LoopSpec,
    prog: &VliwLoop,
    initial: &MachineState,
    max_cycles: u64,
    engine: EngineKind,
) -> Result<(RefRun, VliwRun), EquivalenceError> {
    match engine {
        EngineKind::Decoded => EquivEngine::new(spec, prog).check_full(initial, max_cycles),
        EngineKind::Interpreter => {
            let golden = run_reference(spec, initial.clone(), max_cycles)?;
            let mut start = initial.clone();
            // Compiled code may use renamed registers beyond the spec's
            // count.
            let (prog_regs, prog_ccs) = prog.register_demand();
            start.grow(prog_regs.max(spec.n_regs), prog_ccs.max(spec.n_ccs));
            let run = run_vliw(prog, start, max_cycles)?;
            compare_observables(&spec.live_out, &golden.state, &run.state)?;
            Ok((golden, run))
        }
    }
}

/// Check a whole trial set: decode once, run every `(seed, len)` input of
/// `cfg`, sharded across `cfg.threads` workers on the decoded engine.
/// `mk_init` builds the initial state for one trial; it may return an
/// owned `MachineState` or any `Borrow` of one (e.g. `&MachineState` from
/// a pre-built input table — both engines read the trial input without
/// consuming it, so a zero-copy provider skips one full state clone per
/// trial). The first failure (in trial order — shards are contiguous, so
/// the report is deterministic) is returned tagged with its trial input.
pub fn check_equivalence_batch<F, S>(
    spec: &LoopSpec,
    prog: &VliwLoop,
    cfg: &EquivConfig,
    mk_init: F,
) -> Result<BatchRun, BatchError>
where
    F: Fn(u64, usize) -> S + Sync,
    S: std::borrow::Borrow<MachineState>,
{
    let inputs = cfg.trial_inputs();
    let run_shard = |mut eng: EquivEngine, shard: &[(u64, usize)]| {
        let mut out = Vec::with_capacity(shard.len());
        for &(seed, len) in shard {
            let init = mk_init(seed, len);
            out.push(
                eng.check(init.borrow(), cfg.max_cycles)
                    .map_err(|error| BatchError { seed, len, error })?,
            );
        }
        Ok::<_, BatchError>(out)
    };
    let trials = match cfg.engine {
        EngineKind::Interpreter => {
            let mut trials = Vec::with_capacity(inputs.len());
            for &(seed, len) in &inputs {
                let init = mk_init(seed, len);
                let (g, r) =
                    check_equivalence_with(spec, prog, init.borrow(), cfg.max_cycles, cfg.engine)
                        .map_err(|error| BatchError { seed, len, error })?;
                trials.push(EquivRun {
                    ref_cycles: g.cycles,
                    ref_iterations: g.iterations,
                    body_cycles: r.body_cycles,
                    total_cycles: r.total_cycles,
                    vliw_iterations: r.iterations,
                });
            }
            trials
        }
        EngineKind::Decoded => {
            let threads = match cfg.threads {
                0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
                n => n,
            };
            let eng = EquivEngine::new(spec, prog);
            if threads <= 1 || inputs.len() <= 1 {
                run_shard(eng, &inputs)?
            } else {
                // One scoped thread per contiguous shard, joined in shard
                // order, so the first failure reported is the first in
                // trial order.
                let chunk = inputs.len().div_ceil(threads);
                let results: Vec<Result<Vec<EquivRun>, BatchError>> = std::thread::scope(|s| {
                    let workers: Vec<_> = inputs
                        .chunks(chunk)
                        .map(|shard| {
                            let eng = eng.clone();
                            s.spawn(move || run_shard(eng, shard))
                        })
                        .collect();
                    workers
                        .into_iter()
                        .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                        .collect()
                });
                let mut trials = Vec::with_capacity(inputs.len());
                for r in results {
                    trials.extend(r?);
                }
                trials
            }
        }
    };
    Ok(BatchRun {
        trials,
        engine: cfg.engine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_ir::op::build::*;
    use psp_ir::{ArrayId, CcReg, CmpOp, Guard, LoopBuilder, Operation, Reg};
    use psp_machine::{Succ, VliwBlock, VliwTerm};
    use psp_predicate::PredicateMatrix;

    fn vecmin_spec() -> LoopSpec {
        let mut b = LoopBuilder::new("vecmin");
        let x = b.array("x");
        let one = b.reg();
        let n = b.reg();
        let k = b.reg();
        let m = b.reg();
        let xk = b.reg();
        let xm = b.reg();
        let cc0 = b.cc();
        let cc1 = b.cc();
        b.op(load(xk, x, k));
        b.op(load(xm, x, m));
        b.op(cmp(CmpOp::Lt, cc0, xk, xm));
        b.if_else(
            cc0,
            |b| {
                b.op(copy(m, k));
            },
            |_| {},
        );
        b.op(add(k, k, one));
        b.op(cmp(CmpOp::Ge, cc1, k, n));
        b.break_(cc1);
        b.finish([one, n, k, m], [m])
    }

    fn fig1b_prog() -> VliwLoop {
        let x = ArrayId(0);
        let b0 = VliwBlock {
            id: 0,
            matrix: PredicateMatrix::universe(),
            cycles: vec![
                vec![
                    load(Reg(4), x, Reg(2)),
                    load(Reg(5), x, Reg(3)),
                    add(Reg(6), Reg(2), Reg(0)),
                ],
                vec![
                    cmp(CmpOp::Lt, CcReg(0), Reg(4), Reg(5)),
                    cmp(CmpOp::Ge, CcReg(1), Reg(6), Reg(1)),
                ],
                vec![
                    if_(CcReg(0)),
                    Operation {
                        guard: Some(Guard::when(CcReg(0))),
                        ..copy(Reg(3), Reg(2))
                    },
                    break_(CcReg(1)),
                    copy(Reg(2), Reg(6)),
                ],
            ],
            term: VliwTerm::Branch {
                cc: CcReg(0),
                on_true: Succ::back(0),
                on_false: Succ::back(0),
            },
        };
        VliwLoop {
            name: "fig1b".into(),
            prologue: vec![],
            blocks: vec![b0],
            entry: 0,
            epilogue: vec![],
        }
    }

    fn initial(data: Vec<i64>) -> MachineState {
        let mut s = MachineState::new(8, 2);
        s.regs[0] = 1;
        s.regs[1] = data.len() as i64;
        s.push_array(data);
        s
    }

    fn random_data(seed: u64, len: usize) -> Vec<i64> {
        let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (0..len)
            .map(|_| {
                x ^= x >> 30;
                x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^= x >> 27;
                (x % 201) as i64 - 100
            })
            .collect()
    }

    #[test]
    fn fig1b_is_equivalent_and_faster() {
        let (gold, run) = check_equivalence(
            &vecmin_spec(),
            &fig1b_prog(),
            &initial(vec![5, 3, 8, 1, 9, 1, 4, 0, 2]),
            100_000,
        )
        .unwrap();
        assert_eq!(gold.state.regs[3], run.state.regs[3]);
        assert!(run.body_cycles < gold.cycles);
    }

    #[test]
    fn detects_wrong_result() {
        let mut bad = fig1b_prog();
        // Sabotage: invert the guard on the COPY.
        if let Some(op) = bad.blocks[0].cycles[2].get_mut(1) {
            op.guard = Some(Guard::unless(CcReg(0)));
        }
        let err = check_equivalence(&vecmin_spec(), &bad, &initial(vec![5, 3, 8, 1]), 100_000)
            .unwrap_err();
        assert!(matches!(err, EquivalenceError::Register { .. }));
    }

    #[test]
    fn detects_array_corruption() {
        let mut bad = fig1b_prog();
        bad.blocks[0].cycles[0].push(store(ArrayId(0), Reg(2), 99i64));
        let err = check_equivalence(&vecmin_spec(), &bad, &initial(vec![5, 3, 8, 1]), 100_000)
            .unwrap_err();
        assert!(matches!(err, EquivalenceError::Array { .. }));
    }

    #[test]
    fn grows_register_file_for_renamed_code() {
        // Compiled code uses R6 while the initial state only has 8 regs —
        // also exercise a program using a brand-new high register.
        let mut prog = fig1b_prog();
        prog.blocks[0].cycles[0].push(copy(Reg(31), 0i64));
        check_equivalence(&vecmin_spec(), &prog, &initial(vec![3, 1, 2]), 100_000).unwrap();
    }

    #[test]
    fn engines_agree_on_success_and_failure() {
        let spec = vecmin_spec();
        let good = fig1b_prog();
        let init = initial(vec![5, 3, 8, 1, 9, 1]);
        let (gd, rd) =
            check_equivalence_with(&spec, &good, &init, 100_000, EngineKind::Decoded).unwrap();
        let (gi, ri) =
            check_equivalence_with(&spec, &good, &init, 100_000, EngineKind::Interpreter).unwrap();
        assert_eq!(gd.state, gi.state);
        assert_eq!(rd.state, ri.state);
        assert_eq!(
            (rd.body_cycles, rd.total_cycles, rd.iterations),
            (ri.body_cycles, ri.total_cycles, ri.iterations)
        );

        let mut bad = fig1b_prog();
        if let Some(op) = bad.blocks[0].cycles[2].get_mut(1) {
            op.guard = Some(Guard::unless(CcReg(0)));
        }
        let ed =
            check_equivalence_with(&spec, &bad, &init, 100_000, EngineKind::Decoded).unwrap_err();
        let ei = check_equivalence_with(&spec, &bad, &init, 100_000, EngineKind::Interpreter)
            .unwrap_err();
        assert_eq!(ed, ei);
    }

    #[test]
    fn batch_matches_per_trial_checks_on_both_engines() {
        let spec = vecmin_spec();
        let prog = fig1b_prog();
        let mk = |seed: u64, len: usize| initial(random_data(seed, len.max(1)));
        for engine in [EngineKind::Decoded, EngineKind::Interpreter] {
            let cfg = EquivConfig::fixed(8, 42).with_engine(engine);
            let batch = check_equivalence_batch(&spec, &prog, &cfg, mk).unwrap();
            assert_eq!(batch.trials.len(), 8);
            for (&(seed, len), trial) in cfg.trial_inputs().iter().zip(&batch.trials) {
                let (g, r) = check_equivalence_with(
                    &spec,
                    &prog,
                    &mk(seed, len),
                    cfg.max_cycles,
                    EngineKind::Interpreter,
                )
                .unwrap();
                assert_eq!(trial.ref_cycles, g.cycles);
                assert_eq!(trial.ref_iterations, g.iterations);
                assert_eq!(trial.body_cycles, r.body_cycles);
                assert_eq!(trial.total_cycles, r.total_cycles);
                assert_eq!(trial.vliw_iterations, r.iterations);
            }
        }
    }

    #[test]
    fn batch_sharding_is_deterministic() {
        let spec = vecmin_spec();
        let prog = fig1b_prog();
        let mk = |seed: u64, len: usize| initial(random_data(seed, len.max(1)));
        let seq = check_equivalence_batch(&spec, &prog, &EquivConfig::fixed(12, 7), mk).unwrap();
        for threads in [2, 3, 8] {
            let par = check_equivalence_batch(
                &spec,
                &prog,
                &EquivConfig::fixed(12, 7).with_threads(threads),
                mk,
            )
            .unwrap();
            assert_eq!(seq.trials, par.trials);
        }
    }

    #[test]
    fn batch_reports_first_failing_trial() {
        let spec = vecmin_spec();
        let mut bad = fig1b_prog();
        if let Some(op) = bad.blocks[0].cycles[2].get_mut(1) {
            op.guard = Some(Guard::unless(CcReg(0)));
        }
        let mk = |seed: u64, len: usize| initial(random_data(seed, len.max(1)));
        let cfg = EquivConfig::fixed(6, 100);
        let seq_err = check_equivalence_batch(&spec, &bad, &cfg, mk).unwrap_err();
        let par_err =
            check_equivalence_batch(&spec, &bad, &cfg.clone().with_threads(3), mk).unwrap_err();
        assert_eq!(seq_err, par_err);
        assert!(seq_err
            .to_string()
            .contains(&format!("seed {}", seq_err.seed)));
    }

    #[test]
    fn trial_inputs_follow_the_ladder() {
        let cfg = EquivConfig::fixed(8, 10);
        let inputs = cfg.trial_inputs();
        assert_eq!(inputs.len(), 8);
        assert_eq!(inputs[0], (10, 1));
        assert_eq!(inputs[1], (11, 2));
        assert_eq!(inputs[5], (15, 257));
        assert_eq!(inputs[6], (16, 1)); // ladder wraps
    }

    #[test]
    fn trial_seeds_wrap_past_the_largest_seed() {
        let seeds: Vec<u64> = EquivConfig::fixed(3, u64::MAX)
            .trial_inputs()
            .into_iter()
            .map(|(seed, _)| seed)
            .collect();
        assert_eq!(seeds, [u64::MAX, 0, 1]);
    }

    #[test]
    fn empty_trial_ladder_means_the_default() {
        let default = EquivConfig::fixed(8, 10);
        let built = EquivConfig::fixed(8, 10).with_lens(&[]);
        assert_eq!(built.trial_inputs(), default.trial_inputs());
        let mut set = EquivConfig::fixed(8, 10);
        set.lens = vec![];
        assert_eq!(set.trial_inputs(), default.trial_inputs());
        let mk = |seed: u64, len: usize| initial(random_data(seed, len.max(1)));
        let gold = check_equivalence_batch(&vecmin_spec(), &fig1b_prog(), &default, mk).unwrap();
        for cfg in [built, set] {
            let batch = check_equivalence_batch(&vecmin_spec(), &fig1b_prog(), &cfg, mk).unwrap();
            assert_eq!(batch.trials.len(), 8);
            assert_eq!(batch.trials, gold.trials);
        }
    }
}
