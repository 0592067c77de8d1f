//! The three workloads: their loops, target machines and prebuilt trial
//! inputs. Everything here is set-up work (psp-kernels, psp-ir and the
//! fuzz grammar do no per-job work).

use psp_ir::LoopSpec;
use psp_kernels::{all_kernels, Kernel, KernelData};
use psp_machine::MachineConfig;
use psp_sim::{EngineKind, EquivConfig, MachineState};
use psp_verify::grammar;
use std::collections::HashSet;

/// Workload names, in the order `--workload` documents them.
pub const NAMES: [&str; 3] = ["kernels", "wide", "fuzz"];

/// Simulation-bound trial lengths of the `kernels` workload.
const KERNEL_LENS: [usize; 3] = [4096, 16384, 65536];
const KERNEL_TRIALS: usize = 6;
/// One pass over the default `TRIAL_LENS` ladder.
const WIDE_TRIALS: usize = 6;
const WIDE_BLOCKS: [usize; 3] = [4, 6, 8];
/// The fuzz oracle's differential stage: three short trials, 1M-cycle cap.
const FUZZ_TRIALS: usize = 3;
const FUZZ_MAX_CYCLES: u64 = 1_000_000;
/// The fuzz corpus is a fixed seeded draw, so the quality metrics of every
/// run describe the same loops; `--seed` varies the job order and the trial
/// data.
const FUZZ_CORPUS_SEED: u64 = 0xE12;
const FUZZ_LOOPS: usize = 96;

/// One distinct loop of a workload.
pub struct Loop {
    pub name: String,
    /// The loop as the pipeline sees it.
    pub spec: LoopSpec,
    /// DSL text compiled by every job (`fuzz`); `None` starts from `spec`.
    pub source: Option<String>,
    /// Hand-written golden results (`kernels`).
    pub kernel: Option<Kernel>,
    /// Initial state of trial `i` of the workload's trial set.
    pub inputs: Vec<MachineState>,
}

pub struct Workload {
    pub name: &'static str,
    pub loops: Vec<Loop>,
    /// PSP targets; the first is also the EMS/certifier target.
    pub machines: Vec<MachineConfig>,
    /// Also compile and prove the sequential and local baselines.
    pub baselines: bool,
    /// The proof trial set.
    pub equiv: EquivConfig,
}

impl Workload {
    /// The prebuilt input of trial `(seed, _)` of `lp`, borrowed.
    pub fn input<'a>(&self, lp: &'a Loop, trial_seed: u64) -> &'a MachineState {
        &lp.inputs[(trial_seed - self.equiv.seed) as usize]
    }
}

/// Build workload `name`; `seed` picks the trial data.
pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
    // Trial `i` uses `base + i`; keep the bases of nearby seeds apart.
    let base = 1 + (seed % (1 << 32)) * 64;
    let fixed = |trials| {
        EquivConfig::fixed(trials, base)
            .with_engine(EngineKind::Decoded)
            .with_threads(1)
    };
    let paper = MachineConfig::paper_default();
    let w = match name {
        "kernels" => {
            let equiv = fixed(KERNEL_TRIALS).with_lens(&KERNEL_LENS);
            let loops = all_kernels()
                .into_iter()
                .map(|k| Loop {
                    name: k.name.to_string(),
                    spec: k.spec.clone(),
                    source: None,
                    inputs: inputs(&equiv, |s, len| {
                        k.initial_state(&KernelData::random(s, len))
                    }),
                    kernel: Some(k),
                })
                .collect();
            Workload {
                name: "kernels",
                loops,
                machines: vec![paper],
                baselines: false,
                equiv,
            }
        }
        "wide" => {
            let equiv = fixed(WIDE_TRIALS);
            let loops = WIDE_BLOCKS
                .iter()
                .map(|&b| {
                    let spec = psp_bench::synthetic(b);
                    Loop {
                        name: spec.name.clone(),
                        inputs: inputs(&equiv, |s, len| synthetic_input(&spec, s, len)),
                        spec,
                        source: None,
                        kernel: None,
                    }
                })
                .collect();
            Workload {
                name: "wide",
                loops,
                machines: vec![paper],
                baselines: false,
                equiv,
            }
        }
        "fuzz" => {
            let equiv = fixed(FUZZ_TRIALS).with_max_cycles(FUZZ_MAX_CYCLES);
            let mut rng = grammar::SplitMix64(FUZZ_CORPUS_SEED);
            let mut seen = HashSet::new();
            let mut loops = Vec::with_capacity(FUZZ_LOOPS);
            while loops.len() < FUZZ_LOOPS {
                let body = grammar::random_body(&mut rng);
                let source = grammar::to_source(&body);
                if !seen.insert(source.clone()) {
                    continue;
                }
                let spec = grammar::build_spec(&body);
                loops.push(Loop {
                    name: format!("fuzz{}", loops.len()),
                    inputs: inputs(&equiv, |s, len| grammar::initial(&spec, len, s)),
                    spec,
                    source: Some(source),
                    kernel: None,
                });
            }
            Workload {
                name: "fuzz",
                loops,
                machines: vec![paper, MachineConfig::narrow(2, 1, 1)],
                baselines: true,
                equiv,
            }
        }
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {NAMES:?})"
            ))
        }
    };
    Ok(w)
}

fn inputs(equiv: &EquivConfig, mk: impl Fn(u64, usize) -> MachineState) -> Vec<MachineState> {
    equiv
        .trial_inputs()
        .into_iter()
        .map(|(s, len)| mk(s, len))
        .collect()
}

/// `n = len` and a random `x` for `psp_bench::synthetic` (R0 = n, one array).
fn synthetic_input(spec: &LoopSpec, seed: u64, len: usize) -> MachineState {
    let mut st = MachineState::new(spec.n_regs.max(8), spec.n_ccs.max(4));
    st.regs[0] = len as i64;
    st.push_array(KernelData::random(seed, len).x);
    st
}
