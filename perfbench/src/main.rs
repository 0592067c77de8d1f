//! Experiment E12 — the compile-and-prove benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kernels|wide|fuzz --seed N --seconds S --trace 0|1
//! ```
//!
//! One closed-loop client runs jobs back to back, one at a time, in
//! complete seeded rounds over the workload's distinct loops (see
//! `job.rs` for what a job does). Set-up — loop construction, trial inputs,
//! one warm-up round with the golden check and the failure-accounting
//! self-test — runs five times and `setup_s` is the median. The last line
//! of standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The traced run
//! records spans on half of its jobs, so the tracing overhead is measured
//! in the same process; its spans go to `perfbench/out/`.
//! A broken determinism pin aborts with a non-zero exit and no result.

mod job;
mod trace;
mod workload;

use job::{Counts, JobOut, Pins};
use psp_kernels::{Kernel, KernelData};
use psp_machine::VliwLoop;
use psp_sim::{check_equivalence_with, EngineKind};
use psp_verify::grammar::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;
use trace::Tracer;
use workload::{Loop, Workload};

const SETUPS: usize = 5;
const ORDER_SALT: u64 = 0x0e12_0e12_0e12_0e12;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(format!("--seconds {val}: expected 0 < s <= 3600"));
                }
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {:?})",
            workload::NAMES
        ));
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Run one job with every failure mode — `Err`, violation, mismatch,
/// panic — turned into an `Err` so the run goes on.
fn run_guarded(
    t: &mut Tracer,
    w: &Workload,
    lp: &Loop,
    tamper: Option<&VliwLoop>,
    keep_program: bool,
) -> (JobOut, Result<(), String>) {
    let mut out = JobOut {
        keep_program,
        ..JobOut::default()
    };
    let res = t.job(|t| catch_unwind(AssertUnwindSafe(|| job::run(t, w, lp, tamper, &mut out))));
    let res = res.unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    });
    (out, res)
}

struct Setup {
    w: Workload,
    /// Warm-up pins per loop; `None` where the warm-up job failed.
    pins: Vec<Option<Pins>>,
    failures: Vec<String>,
}

/// Build the workload and run one warm-up round outside the timed window.
fn setup(name: &str, seed: u64) -> Result<Setup, String> {
    let w = workload::build(name, seed)?;
    let mut t = Tracer::new();
    let mut pins = Vec::with_capacity(w.loops.len());
    let mut programs = Vec::with_capacity(w.loops.len());
    let mut failures = Vec::new();
    for lp in &w.loops {
        let (out, res) = run_guarded(&mut t, &w, lp, None, true);
        let checked = res.and_then(|()| {
            let prog = out.program.as_ref().expect("warm-up keeps the program");
            match &lp.kernel {
                Some(k) => golden_check(&w, lp, k, prog),
                None => Ok(()),
            }
        });
        match checked {
            Ok(()) => pins.push(Some(out.pins)),
            Err(e) => {
                failures.push(format!("warm-up {}: {e}", lp.name));
                pins.push(None);
            }
        }
        programs.push(out.program);
    }
    self_test(&w, &programs)?;
    Ok(Setup { w, pins, failures })
}

/// Run trial 0 of a kernel once more on the trusted interpreters and check
/// both final states against the kernel's hand-written golden results, so
/// correctness never rests only on the reference engine under test.
fn golden_check(w: &Workload, lp: &Loop, k: &Kernel, prog: &VliwLoop) -> Result<(), String> {
    let (s, len) = w.equiv.trial_inputs()[0];
    let (golden, run) = check_equivalence_with(
        &lp.spec,
        prog,
        w.input(lp, s),
        w.equiv.max_cycles,
        EngineKind::Interpreter,
    )
    .map_err(|e| format!("golden trial: {e}"))?;
    let data = KernelData::random(s, len);
    k.check(&golden.state, &data)
        .and_then(|()| k.check(&run.state, &data))
        .map_err(|e| format!("golden mismatch: {e}"))
}

/// A deliberately wrong program must be counted as a failed job: prove the
/// last loop with the PSP program of each other loop until one is caught.
fn self_test(w: &Workload, programs: &[Option<VliwLoop>]) -> Result<(), String> {
    let (target, others) = w.loops.split_last().expect("workloads are non-empty");
    let mut t = Tracer::new();
    for wrong in programs[..others.len()].iter().flatten() {
        if run_guarded(&mut t, w, target, Some(wrong), false)
            .1
            .is_err()
        {
            return Ok(());
        }
    }
    Err(format!(
        "self-test: no substituted program was counted as failed on {}",
        target.name
    ))
}

/// Timed jobs of one kind (untraced or traced).
#[derive(Default)]
struct Window {
    /// `(loop index, latency in ms)` of every job.
    lat: Vec<(usize, f64)>,
    failed: usize,
    counts: Counts,
}

impl Window {
    fn sorted_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.lat.iter().map(|&(_, ms)| ms).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Mean latency of each of `n` loops (`None` where it never ran).
    fn loop_means(&self, n: usize) -> Vec<Option<f64>> {
        let mut sums = vec![(0.0, 0usize); n];
        for &(i, ms) in &self.lat {
            sums[i].0 += ms;
            sums[i].1 += 1;
        }
        sums.into_iter()
            .map(|(sum, k)| (k > 0).then(|| sum / k as f64))
            .collect()
    }
}

/// The timed window: complete seeded rounds until `seconds` have passed.
/// With `trace`, each loop records spans in every other round (an even
/// number of rounds runs), so traced and untraced jobs interleave in time
/// and the traced jobs hold every loop equally often.
fn timed(
    s: &Setup,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Window, Window, Tracer), String> {
    let mut rng = SplitMix64(seed ^ ORDER_SALT);
    let mut t = Tracer::new();
    let (mut plain, mut traced) = (Window::default(), Window::default());
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < seconds || (trace && round % 2 == 1) {
        let mut order: Vec<usize> = (0..s.w.loops.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for i in order {
            t.on = trace && (i + round) % 2 == 1;
            let win = if t.on { &mut traced } else { &mut plain };
            let lp = &s.w.loops[i];
            let j0 = Instant::now();
            let (out, res) = run_guarded(&mut t, &s.w, lp, None, false);
            win.lat.push((i, j0.elapsed().as_secs_f64() * 1e3));
            match (res, &s.pins[i]) {
                (Ok(()), Some(p)) if out.pins != *p => {
                    return Err(format!(
                        "determinism pin broken on {}: warm-up {p:?}, timed {:?}",
                        lp.name, out.pins
                    ));
                }
                (Ok(()), _) => {}
                (Err(e), _) => {
                    win.failed += 1;
                    eprintln!("perfbench: job {} failed: {e}", lp.name);
                }
            }
            win.counts.add(&out.counts);
        }
        round += 1;
    }
    Ok((plain, traced, t))
}

fn run(args: &Args) -> Result<String, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last: Option<Setup> = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let s = setup(&args.workload, args.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = &last {
            if prev.pins != s.pins {
                return Err("determinism pin broken between warm-up passes".into());
            }
        }
        last = Some(s);
    }
    let s = last.expect("SETUPS > 0");
    for f in &s.failures {
        eprintln!("perfbench: {f}");
    }

    let (plain, traced, tracer) = timed(&s, args.seed, args.seconds, args.trace)?;
    let attempted = plain.lat.len() + traced.lat.len();
    let failed = plain.failed + traced.failed + s.failures.len();
    let correct = failed == 0;

    let mut m = Metrics::default();
    if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", s.w.name, args.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        per_layer(&mut m, s.w.loops.len(), &plain, &traced, &tracer);
    } else {
        end_to_end(&mut m, &s, &plain, setup_s);
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        m.0.join(", ")
    ))
}

/// Metric entries of the result line, in insertion order.
#[derive(Default)]
struct Metrics(Vec<String>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<32} {value:>16.6} {unit}");
        self.0.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|st| {
            st.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(m: &mut Metrics, s: &Setup, plain: &Window, mut setup_s: Vec<f64>) {
    let lat = plain.sorted_ms();
    let n = lat.len();
    let pins: Vec<&Pins> = s.pins.iter().flatten().collect();
    let sum = |f: fn(&Pins) -> u64| pins.iter().map(|p| f(p)).sum::<u64>() as f64;

    m.put(
        "jobs_per_s",
        ratio(n as f64, lat.iter().sum::<f64>() / 1e3),
        "jobs/s",
    );
    m.put("job_p50_ms", percentile(&lat, 0.5), "ms");
    m.put("job_p90_ms", percentile(&lat, 0.9), "ms");
    println!(
        "  ({n} timed jobs, {} beyond p90, {} distinct loops)",
        n - (0.9 * n as f64).ceil() as usize,
        s.w.loops.len()
    );
    m.put("setup_s", median(&mut setup_s), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put(
        "ok_frac",
        ratio((n - plain.failed) as f64, n as f64),
        "ratio",
    );
    m.put("max_ii_sum", sum(|p| p.max_ii as u64), "cycles");
    m.put(
        "sim_cycles_per_iter",
        ratio(sum(|p| p.body_cycles), sum(|p| p.src_iters)),
        "cycles/iter",
    );
    m.put("code_ops", sum(|p| p.code_ops as u64), "ops");
}

fn per_layer(m: &mut Metrics, n_loops: usize, plain: &Window, traced: &Window, t: &Tracer) {
    let jobs = t.jobs() as f64;
    let c = &traced.counts;
    let self_ns = t.self_ns();
    let layer_ms = |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6 / jobs;
    let per_job = |v: u64| v as f64 / jobs;
    let phase_ms: Vec<f64> = c
        .phases
        .iter()
        .map(|d| d.as_secs_f64() * 1e3 / jobs)
        .collect();
    let pipeline_ms = layer_ms("psp-core");

    m.put("trace.job_ms", t.job_ns() as f64 / 1e6 / jobs, "ms");
    m.put("trace.glue_ms", layer_ms(trace::JOB), "ms");
    // Geometric mean over loops of traced ÷ untraced mean latency, so the
    // loop mix of either side does not leak into the overhead.
    let logs: Vec<f64> = traced
        .loop_means(n_loops)
        .into_iter()
        .zip(plain.loop_means(n_loops))
        .filter_map(|(a, b)| Some((a? / b?).ln()))
        .collect();
    m.put(
        "trace.overhead_frac",
        (logs.iter().sum::<f64>() / logs.len() as f64).exp() - 1.0,
        "ratio",
    );

    m.put("psp-lang.compile_ms", layer_ms("psp-lang"), "ms");
    m.put(
        "psp-lang.bytes_per_s",
        ratio(c.src_bytes as f64, layer_ms("psp-lang") * jobs / 1e3),
        "B/s",
    );

    m.put("psp-core.pipeline_ms", pipeline_ms, "ms");
    for (name, v) in ["candidate_gen", "apply", "compact", "codegen", "score"]
        .iter()
        .zip(&phase_ms)
    {
        m.put(&format!("psp-core.{name}_ms"), *v, "ms");
    }
    m.put("psp-core.candidates", per_job(c.candidates), "count");
    m.put("psp-core.moves", per_job(c.moves), "count");
    m.put("psp-core.pruned", per_job(c.pruned), "count");
    m.put(
        "psp-core.win_ratio",
        ratio(c.rounds as f64, c.candidates as f64),
        "ratio",
    );
    m.put(
        "psp-core.parallelism",
        ratio(phase_ms.iter().sum(), pipeline_ms),
        "ratio",
    );

    m.put("psp-predicate.conjoins", per_job(c.pred.conjoins), "count");
    m.put(
        "psp-predicate.disjoint_tests",
        per_job(c.pred.disjoint_tests),
        "count",
    );
    m.put(
        "psp-predicate.subsume_tests",
        per_job(c.pred.subsume_tests),
        "count",
    );
    m.put(
        "psp-predicate.memo_hit_rate",
        c.pred.memo_hit_rate(),
        "ratio",
    );

    m.put("psp-machine.blocks", per_job(c.blocks), "count");

    m.put("psp-verify.validate_ms", layer_ms("psp-verify"), "ms");
    m.put("psp-verify.violations", c.violations as f64, "count");

    m.put("psp-baselines.compile_ms", layer_ms("psp-baselines"), "ms");

    m.put("psp-opt.certify_ms", layer_ms("psp-opt"), "ms");
    m.put("psp-opt.nodes", per_job(c.nodes), "count");
    m.put(
        "psp-opt.certified_frac",
        ratio(c.certified as f64, c.certify_calls as f64),
        "ratio",
    );

    let sim_ms = layer_ms("psp-sim");
    m.put("psp-sim.equiv_ms", sim_ms, "ms");
    m.put("psp-sim.cycles", per_job(c.sim_cycles), "count");
    m.put(
        "psp-sim.mcycles_per_s",
        ratio(per_job(c.sim_cycles) / 1e6, sim_ms / 1e3),
        "Mcycles/s",
    );
    m.put("psp-sim.trials", per_job(c.trials), "count");
}
