//! The coverage-guided fuzz driver and its oracle.
//!
//! One fuzz iteration mutates a corpus entry (or generates a fresh loop),
//! lowers it, and runs the full verification gauntlet: sequential, local
//! and PSP compilation on wide and narrow machines, each checked by the
//! independent validators of this crate *and* differentially against the
//! reference interpreter; EMS modulo scheduling checked by the modulo
//! validator; and the exact certifier checked for bound sanity
//! (`certified II ≤ EMS II`) with a validated witness. Any failure is
//! minimized by [`crate::reduce`] and written under `tests/repros/` as a
//! replayable `.psp` file.
//!
//! Coverage is the feature signature of [`crate::features`]: an input that
//! lights up a new signature joins the corpus and becomes mutation fodder.

use crate::features::Features;
use crate::grammar::{self, S};
use crate::modulo::validate_modulo;
use crate::schedule::validate_schedule;
use crate::violation::Violation;
use crate::vliw::validate_vliw;
use psp_core::{pipeline_loop, PspConfig};
use psp_ir::LoopSpec;
use psp_machine::{MachineConfig, VliwLoop};
use psp_opt::{certify, Certification, ExactConfig};
use psp_sim::{check_equivalence_batch, EngineKind, EquivConfig};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A reproducible oracle failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which oracle stage failed (`seq`, `psp-wide`, `certify`, ...).
    pub stage: String,
    /// The violation list or equivalence error, rendered.
    pub detail: String,
}

/// Differential trials: three rungs of the
/// [`psp_sim::equiv::TRIAL_LENS`] ladder (trip counts 1, 2 and 7) from
/// base seed 10.
const EQUIV_TRIALS: usize = 3;
const EQUIV_SEED: u64 = 10;
const MAX_CYCLES: u64 = 1_000_000;

fn fail(stage: &str, detail: impl std::fmt::Display) -> Failure {
    Failure {
        stage: stage.into(),
        detail: detail.to_string(),
    }
}

fn check_violations(stage: &str, vs: Vec<Violation>) -> Result<(), Failure> {
    if vs.is_empty() {
        Ok(())
    } else {
        Err(fail(
            stage,
            vs.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; "),
        ))
    }
}

fn check_equiv(
    stage: &str,
    spec: &LoopSpec,
    prog: &VliwLoop,
    engine: EngineKind,
) -> Result<(), Failure> {
    // Decode once, run the whole trial set over reusable scratch.
    let cfg = EquivConfig::fixed(EQUIV_TRIALS, EQUIV_SEED)
        .with_max_cycles(MAX_CYCLES)
        .with_engine(engine);
    check_equivalence_batch(spec, prog, &cfg, |seed, len| {
        grammar::initial(spec, len, seed)
    })
    .map(|_| ())
    .map_err(|e| fail(stage, e))
}

/// Run every technique and every checker on one loop, with the decoded
/// engine as the differential simulator. `Ok` carries the coverage
/// features of the run.
pub fn run_oracle(spec: &LoopSpec) -> Result<Features, Failure> {
    run_oracle_with(spec, EngineKind::Decoded)
}

/// [`run_oracle`] with an explicit differential engine. Repro replay
/// pins [`EngineKind::Interpreter`] so a reproducer always re-fails
/// against the trusted reference, whatever found it.
pub fn run_oracle_with(spec: &LoopSpec, engine: EngineKind) -> Result<Features, Failure> {
    let mut feats = Features::default();
    spec.validate()
        .map_err(|e| fail("spec", format!("{e:?}")))?;

    let wide = MachineConfig::paper_default();
    let narrow = MachineConfig::narrow(2, 1, 1);

    let seq = psp_baselines::compile_sequential(spec);
    check_violations(
        "seq-validate",
        validate_vliw(spec, &MachineConfig::sequential(), &seq),
    )?;
    check_equiv("seq-equiv", spec, &seq, engine)?;

    for (label, m) in [("local-wide", &wide), ("local-narrow", &narrow)] {
        let prog = psp_baselines::compile_local(spec, m);
        check_violations(label, validate_vliw(spec, m, &prog))?;
        check_equiv(label, spec, &prog, engine)?;
    }

    for (label, m) in [("psp-wide", &wide), ("psp-narrow", &narrow)] {
        let res = pipeline_loop(spec, &PspConfig::with_machine(m.clone()))
            .map_err(|e| fail(label, format!("pipeline failed: {e}")))?;
        check_violations(label, validate_schedule(spec, m, &res.schedule))?;
        check_violations(label, validate_vliw(spec, m, &res.program))?;
        check_equiv(label, spec, &res.program, engine)?;
        if label == "psp-wide" {
            feats.record_stats(res.stats.counters());
            feats.psp_ii = res.schedule.n_rows().min(255) as u8;
            feats.blocks = res.program.blocks.len().min(255) as u8;
        }
    }

    // The modulo validator needs the live-out set of the if-converted,
    // renamed body the EMS scheduler worked on; re-derive it the same way.
    let mut ic = psp_opt::if_convert(spec);
    psp_opt::rename_inductions(&mut ic.ops, &mut ic.spec);
    let ems = psp_baselines::modulo_schedule(spec, &wide);
    check_violations("ems", validate_modulo(&ic.spec.live_out, &wide, &ems))?;
    feats.ems_ii = ems.ii.min(255) as u8;

    let cfg = ExactConfig { max_nodes: 20_000 };
    let exact = certify(spec, &wide, &cfg, Some(ems.ii));
    match exact.outcome {
        Certification::Certified(ii) => {
            if ii > ems.ii {
                return Err(fail(
                    "certify",
                    format!("certified II {ii} above the EMS feasible point {}", ems.ii),
                ));
            }
            if let Some(w) = &exact.schedule {
                check_violations("certify", validate_modulo(&ic.spec.live_out, &wide, w))?;
            }
            feats.cert = if ii < ems.ii { 3 } else { 2 };
        }
        Certification::Bounded { lb, .. } => {
            if lb > ems.ii {
                return Err(fail(
                    "certify",
                    format!("lower bound {lb} above the EMS feasible point {}", ems.ii),
                ));
            }
            feats.cert = 1;
        }
    }
    Ok(feats)
}

/// Fuzz campaign settings.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// RNG seed (campaigns are reproducible from the seed alone).
    pub seed: u64,
    /// Maximum oracle executions.
    pub iters: usize,
    /// Optional wall-clock budget; checked between iterations.
    pub budget: Option<Duration>,
    /// Where to write minimized reproducers (`None` = don't write).
    pub repro_dir: Option<PathBuf>,
    /// Stop after this many distinct failures.
    pub max_failures: usize,
}

impl FuzzConfig {
    /// The CI smoke configuration: small, time-boxed, reproducible.
    pub fn smoke(seed: u64) -> Self {
        FuzzConfig {
            seed,
            // The decoded engine made the oracle's differential stage much
            // cheaper, so the same wall-clock box affords a deeper campaign.
            iters: if cfg!(debug_assertions) { 60 } else { 1200 },
            budget: Some(Duration::from_secs(300)),
            repro_dir: Some(PathBuf::from("tests/repros")),
            max_failures: 3,
        }
    }
}

/// One minimized finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The failing stage and rendered detail.
    pub failure: Failure,
    /// The minimized statement list.
    pub reduced: Vec<S>,
    /// Where the replayable reproducer was written, if anywhere.
    pub path: Option<PathBuf>,
}

/// Campaign summary.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Oracle executions performed.
    pub executed: usize,
    /// Corpus size at the end (distinct feature signatures).
    pub corpus: usize,
    /// Minimized findings (empty = clean run).
    pub findings: Vec<Finding>,
    /// Wall-clock spent.
    pub elapsed: Duration,
}

/// Run a fuzz campaign.
pub fn fuzz(cfg: &FuzzConfig) -> FuzzOutcome {
    let start = Instant::now();
    let mut rng = grammar::SplitMix64(cfg.seed);
    let mut corpus: Vec<Vec<S>> = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut executed = 0;

    while executed < cfg.iters && findings.len() < cfg.max_failures {
        if let Some(b) = cfg.budget {
            if start.elapsed() > b {
                break;
            }
        }
        // Mostly mutate the corpus; keep injecting fresh shapes so the
        // campaign never fixates on one region of the grammar.
        let stmts = if corpus.is_empty() || rng.below(4) == 0 {
            grammar::random_body(&mut rng)
        } else {
            let base = &corpus[rng.below(corpus.len())];
            grammar::mutate(base, &mut rng)
        };
        let spec = grammar::build_spec(&stmts);
        executed += 1;
        match run_oracle(&spec) {
            Ok(mut feats) => {
                let shape = Features::of_input(&stmts);
                feats.size_bucket = shape.size_bucket;
                feats.depth = shape.depth;
                feats.n_ifs = shape.n_ifs;
                if seen.insert(feats.signature()) {
                    corpus.push(stmts);
                }
            }
            Err(failure) => {
                let reduced = crate::reduce::reduce_failure(&stmts, &failure);
                let path = cfg
                    .repro_dir
                    .as_ref()
                    .and_then(|d| write_repro(d, &failure, &reduced).ok());
                findings.push(Finding {
                    failure,
                    reduced,
                    path,
                });
            }
        }
    }
    FuzzOutcome {
        executed,
        corpus: corpus.len(),
        findings,
        elapsed: start.elapsed(),
    }
}

/// Write a minimized reproducer as a commented `.psp` file (the lexer
/// skips `//` lines, so the file replays directly via `psp-verify replay`).
pub fn write_repro(dir: &Path, failure: &Failure, stmts: &[S]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let src = grammar::to_source(stmts);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in src.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let path = dir.join(format!("fuzz-{}-{:08x}.psp", failure.stage, h as u32));
    let detail_one_line = failure.detail.replace('\n', " | ");
    let body = format!(
        "// Minimized fuzz reproducer.\n// stage: {}\n// detail: {}\n{}",
        failure.stage, detail_one_line, src
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Re-run the oracle on a statement list, reporting whether it still fails
/// at the given stage (the reducer's interestingness predicate).
pub fn fails_at_stage(stmts: &[S], stage: &str) -> bool {
    let spec = grammar::build_spec(stmts);
    matches!(run_oracle(&spec), Err(f) if f.stage == stage)
}
