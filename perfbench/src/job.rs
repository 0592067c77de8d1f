//! One compile-and-prove job: front end → `pipeline_loop` → validators →
//! EMS + `certify` → `check_equivalence_batch`, every call made through a
//! crate's public API and wrapped in a span of the crate that owns it.

use crate::trace::Tracer;
use crate::workload::{Loop, Workload};
use psp_core::{pipeline_loop, PspConfig, PspStats};
use psp_ir::LoopSpec;
use psp_machine::{MachineConfig, VliwLoop};
use psp_opt::{certify, Certification, ExactConfig};
use psp_predicate::PredOpStats;
use psp_sim::{check_equivalence_batch, BatchRun};
use psp_verify::{validate_modulo, validate_schedule, validate_vliw, Violation};
use std::time::Duration;

/// The fuzz oracle's certifier budget.
const CERTIFY_NODES: u64 = 20_000;

/// Deterministic outputs of a job: identical on every job of the same loop
/// with the same trial data, or the quality metrics are not exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pins {
    /// `PspStats::counters()` of every `pipeline_loop` call.
    pub counters: Vec<[usize; 5]>,
    /// Σ maximal II of the PSP programs.
    pub max_ii: usize,
    /// Σ operations (prologue, body, epilogue) of the PSP programs.
    pub code_ops: usize,
    /// Σ PSP body cycles over the proof trials.
    pub body_cycles: u64,
    /// Σ source iterations over the same trials.
    pub src_iters: u64,
}

/// Work done by a job's calls, per layer.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub src_bytes: u64,
    /// `PspStats.times`: candidate_gen, apply, compact, codegen, score.
    pub phases: [Duration; 5],
    pub candidates: u64,
    pub moves: u64,
    pub pruned: u64,
    pub rounds: u64,
    pub pred: PredOpStats,
    pub blocks: u64,
    pub violations: u64,
    pub certify_calls: u64,
    pub certified: u64,
    pub nodes: u64,
    pub sim_cycles: u64,
    pub trials: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.src_bytes += o.src_bytes;
        for (a, b) in self.phases.iter_mut().zip(o.phases) {
            *a += b;
        }
        self.candidates += o.candidates;
        self.moves += o.moves;
        self.pruned += o.pruned;
        self.rounds += o.rounds;
        add_pred(&mut self.pred, &o.pred);
        self.blocks += o.blocks;
        self.violations += o.violations;
        self.certify_calls += o.certify_calls;
        self.certified += o.certified;
        self.nodes += o.nodes;
        self.sim_cycles += o.sim_cycles;
        self.trials += o.trials;
    }

    fn add_psp(&mut self, s: &PspStats) {
        let t = &s.times;
        for (a, b) in
            self.phases
                .iter_mut()
                .zip([t.candidate_gen, t.apply, t.compact, t.codegen, t.score])
        {
            *a += b;
        }
        self.candidates += s.candidates as u64;
        self.moves += s.moves as u64;
        self.pruned += s.pruned as u64;
        self.rounds += s.rounds as u64;
        add_pred(&mut self.pred, &s.pred);
    }
}

fn add_pred(a: &mut PredOpStats, b: &PredOpStats) {
    a.conjoins += b.conjoins;
    a.disjoint_tests += b.disjoint_tests;
    a.subsume_tests += b.subsume_tests;
    a.memo_hits += b.memo_hits;
    a.memo_misses += b.memo_misses;
}

/// What a job leaves behind, filled in as it goes (a failing job keeps the
/// counts of the stages it finished).
#[derive(Debug, Default)]
pub struct JobOut {
    pub pins: Pins,
    pub counts: Counts,
    /// Keep the first PSP program (warm-up only: the golden check and the
    /// self-test need it).
    pub keep_program: bool,
    pub program: Option<VliwLoop>,
}

/// Run one job on `lp`. `tamper` replaces the first PSP program before it
/// is validated and proved (the failure-accounting self-test).
pub fn run(
    t: &mut Tracer,
    w: &Workload,
    lp: &Loop,
    tamper: Option<&VliwLoop>,
    out: &mut JobOut,
) -> Result<(), String> {
    let compiled;
    let spec = match &lp.source {
        Some(src) => {
            out.counts.src_bytes += src.len() as u64;
            compiled = t
                .span("psp-lang", "compile", || psp_lang::compile(src))
                .map_err(|e| format!("front end: {e}"))?;
            &compiled
        }
        None => &lp.spec,
    };

    if w.baselines {
        let seq = t.span("psp-baselines", "compile_sequential", || {
            psp_baselines::compile_sequential(spec)
        });
        verify(t, &mut out.counts, "seq", "validate_vliw", || {
            validate_vliw(spec, &MachineConfig::sequential(), &seq)
        })?;
        prove(t, w, lp, spec, &seq, "seq", &mut out.counts)?;
        for m in &w.machines {
            let local = t.span("psp-baselines", "compile_local", || {
                psp_baselines::compile_local(spec, m)
            });
            verify(t, &mut out.counts, "local", "validate_vliw", || {
                validate_vliw(spec, m, &local)
            })?;
            prove(t, w, lp, spec, &local, "local", &mut out.counts)?;
        }
    }

    for (i, m) in w.machines.iter().enumerate() {
        let cfg = PspConfig::with_machine(m.clone());
        let res = t
            .span("psp-core", "pipeline_loop", || pipeline_loop(spec, &cfg))
            .map_err(|e| format!("psp: pipeline failed: {e}"))?;
        let prog = match tamper {
            Some(p) if i == 0 => p,
            _ => &res.program,
        };
        verify(t, &mut out.counts, "psp", "validate_schedule", || {
            validate_schedule(spec, m, &res.schedule)
        })?;
        verify(t, &mut out.counts, "psp", "validate_vliw", || {
            validate_vliw(spec, m, prog)
        })?;
        let run = prove(t, w, lp, spec, prog, "psp", &mut out.counts)?;

        let pins = &mut out.pins;
        pins.counters.push(res.stats.counters());
        pins.max_ii += prog.ii_range().map_or(0, |(_, hi)| hi);
        pins.code_ops += [&prog.prologue, &prog.epilogue]
            .iter()
            .flat_map(|c| c.iter())
            .map(Vec::len)
            .sum::<usize>()
            + prog.body_op_count();
        pins.body_cycles += run.trials.iter().map(|r| r.body_cycles).sum::<u64>();
        pins.src_iters += run.trials.iter().map(|r| r.ref_iterations).sum::<u64>();
        out.counts.add_psp(&res.stats);
        out.counts.blocks += prog.blocks.len() as u64;
        if i == 0 && out.keep_program {
            out.program = Some(prog.clone());
        }
    }

    // EMS and the exact certifier, on the first (paper) machine; the
    // modulo validator needs the if-converted, renamed body EMS worked on.
    let m = &w.machines[0];
    let ic = t.span("psp-opt", "if_convert", || {
        let mut ic = psp_opt::if_convert(spec);
        psp_opt::rename_inductions(&mut ic.ops, &mut ic.spec);
        ic
    });
    let ems = t.span("psp-baselines", "modulo_schedule", || {
        psp_baselines::modulo_schedule(spec, m)
    });
    verify(t, &mut out.counts, "ems", "validate_modulo", || {
        validate_modulo(&ic.spec.live_out, m, &ems)
    })?;
    let cfg = ExactConfig {
        max_nodes: CERTIFY_NODES,
        ..ExactConfig::default()
    };
    let exact = t.span("psp-opt", "certify", || {
        certify(spec, m, &cfg, Some(ems.ii))
    });
    out.counts.certify_calls += 1;
    out.counts.nodes += exact.nodes;
    match exact.outcome {
        Certification::Certified(ii) => {
            out.counts.certified += 1;
            if ii > ems.ii {
                return Err(format!("certify: II {ii} above the EMS II {}", ems.ii));
            }
            if let Some(wit) = &exact.schedule {
                verify(t, &mut out.counts, "certify", "validate_modulo", || {
                    validate_modulo(&ic.spec.live_out, m, wit)
                })?;
            }
        }
        Certification::Bounded { lb, .. } if lb > ems.ii => {
            return Err(format!(
                "certify: lower bound {lb} above the EMS II {}",
                ems.ii
            ));
        }
        Certification::Bounded { .. } => {}
    }
    Ok(())
}

fn verify(
    t: &mut Tracer,
    counts: &mut Counts,
    stage: &str,
    name: &'static str,
    f: impl FnOnce() -> Vec<Violation>,
) -> Result<(), String> {
    let vs = t.span("psp-verify", name, f);
    counts.violations += vs.len() as u64;
    if vs.is_empty() {
        return Ok(());
    }
    let detail: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
    Err(format!("{stage}: {name}: {}", detail.join("; ")))
}

/// Prove `prog` equivalent to the job's source loop on the workload's
/// trial set, borrowing the prebuilt inputs.
fn prove(
    t: &mut Tracer,
    w: &Workload,
    lp: &Loop,
    spec: &LoopSpec,
    prog: &VliwLoop,
    stage: &str,
    counts: &mut Counts,
) -> Result<BatchRun, String> {
    let run = t
        .span("psp-sim", "check_equivalence_batch", || {
            check_equivalence_batch(spec, prog, &w.equiv, |s, _| w.input(lp, s))
        })
        .map_err(|e| format!("{stage}: not equivalent: {e}"))?;
    counts.sim_cycles += run.total_cycles();
    counts.trials += run.trials.len() as u64;
    Ok(run)
}
