//! `pspc` — the PSP command-line compiler driver.
//!
//! Compiles a kernel written in the mini loop DSL, pipelines it with the
//! predicated-software-pipelining technique, and optionally executes the
//! result on synthetic data with full equivalence checking against the
//! reference interpreter.
//!
//! ```text
//! pspc compile <file.psp> [--emit schedule|cfg|dot|all] [machine opts]
//! pspc run     <file.psp> [--n LEN] [--seed S] [--set name=val]... [--profile]
//! pspc compare <file.psp> [--n LEN] [--unroll U] [machine opts]
//! pspc kernels                       # list the built-in kernel suite
//! pspc help
//! ```
//!
//! Machine options (all commands): `--machine ALU,MEM,BR`,
//! `--load-latency N`, `--cmp-latency N`, `--alu-latency N`,
//! `--no-spec-loads`; technique options: `--depth N`, `--no-split`,
//! `--no-rename`, `--probs p1,p2,...`.

use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Instant;

use psp::baselines::{compile_local, compile_sequential, compile_unrolled, modulo_schedule};
use psp::core::{pipeline_loop, PspConfig, PspResult};
use psp::ir::{LoopSpec, RegRef};
use psp::kernels::SplitMix64;
use psp::machine::{to_dot, MachineConfig, VliwLoop};
use psp::sim::{trace_vliw, BranchProfile, EngineKind, EquivEngine, EquivRun, MachineState};

/// Largest `--unroll` factor: the unrolled body is list-scheduled as one
/// block, and that cost grows much faster than the factor.
const MAX_UNROLL: u32 = 64;

/// Largest `--n`: each array gets `--n` elements, copied per run.
const MAX_N: usize = 1 << 22;

/// Largest `--*-latency`: a path waits for a write in flight in empty
/// cycles, which the compiled program holds one by one.
const MAX_LATENCY: u32 = 64;

/// A command's failure: a message, or the `io::Error` of a failed write.
type Failure = Box<dyn std::error::Error>;

/// Everything parsed from the command line.
struct Args {
    command: String,
    file: Option<String>,
    emit: String,
    n: usize,
    seed: u64,
    unroll: u32,
    sets: Vec<(String, i64)>,
    profile: bool,
    trace: usize,
    machine: MachineConfig,
    depth: usize,
    split: bool,
    rename: bool,
    probs: Option<Vec<f64>>,
}

fn usage() -> String {
    format!(
        "pspc — predicated software pipelining compiler driver

USAGE:
  pspc compile <file.psp> [--emit schedule|cfg|dot|all]
  pspc run     <file.psp> [--n LEN] [--seed S] [--set name=val]... [--profile]
               [--trace N]
  pspc compare <file.psp> [--n LEN] [--seed S] [--unroll U] [--set name=val]...
  pspc kernels
  pspc help

MACHINE OPTIONS (all commands):
  --machine A,M,B     issue slots per tree instruction (default 8,4,4)
  --load-latency N    cycles from LOAD to consumer      (default 1)
  --cmp-latency N     cycles from compare to consumer   (default 1)
  --alu-latency N     cycles from ALU op to consumer    (default 1);
                      each latency is at most {MAX_LATENCY}
  --no-spec-loads     forbid moving LOADs above their controlling IF

TECHNIQUE OPTIONS:
  --depth N           maximum pipelining depth           (default 4)
  --no-split          disable the split transformation
  --no-rename         disable renaming during compaction
  --probs p1,p2,...   branch-taken probabilities for the profile-guided
                      objective (paper section 4); `run --profile` measures
                      them from the reference execution instead

DATA OPTIONS (run/compare):
  --n LEN             array length / trip count          (default 1024),
                      at most {MAX_N}
  --unroll U          (compare) unroll factor, 1..={MAX_UNROLL}    (default 4)
  --seed S            RNG seed for array contents        (default 42)
  --set name=val      preset a named scalar register; the register named
                      `n` defaults to LEN when not set
  --trace N           (run) print the first N executed cycles, marking
                      guard-squashed operations

The input file holds one kernel in the mini DSL, e.g.:

  kernel vecmin(n, k, m; x[]) -> m {{
      xk = x[k]; xm = x[m];
      if (xk < xm) {{ m = k; }}
      k = k + 1;
      break if (k >= n);
  }}
"
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        command: argv.first().cloned().unwrap_or_else(|| "help".into()),
        file: None,
        emit: "all".into(),
        n: 1024,
        seed: 42,
        unroll: 4,
        sets: Vec::new(),
        profile: false,
        trace: 0,
        machine: MachineConfig::paper_default(),
        depth: 4,
        split: true,
        rename: true,
        probs: None,
    };
    let rest = argv.get(1..).unwrap_or_default();
    let mut it = rest.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                 flag: &str|
     -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--emit" => a.emit = value(&mut it, arg)?,
            "--n" => {
                a.n = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--n: {e}"))?;
                if a.n > MAX_N {
                    return Err(format!("--n: {} is above the limit of {MAX_N}", a.n));
                }
            }
            "--seed" => {
                a.seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--unroll" => {
                a.unroll = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--unroll: {e}"))?;
                if !(1..=MAX_UNROLL).contains(&a.unroll) {
                    return Err(format!("--unroll: the factor must be in 1..={MAX_UNROLL}"));
                }
            }
            "--set" => {
                let v = value(&mut it, arg)?;
                let (name, val) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--set expects name=value, got `{v}`"))?;
                let val: i64 = val.parse().map_err(|e| format!("--set {name}: {e}"))?;
                a.sets.push((name.to_string(), val));
            }
            "--profile" => a.profile = true,
            "--trace" => {
                a.trace = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--trace: {e}"))?
            }
            "--machine" => {
                let v = value(&mut it, arg)?;
                let parts: Vec<u32> = v
                    .split(',')
                    .map(|p| p.parse().map_err(|e| format!("--machine: {e}")))
                    .collect::<Result<_, _>>()?;
                let [alu, mem, br] = parts[..] else {
                    return Err("--machine expects ALU,MEM,BR".into());
                };
                for (unit, count) in [("ALU", alu), ("MEM", mem), ("BR", br)] {
                    if count == 0 {
                        return Err(format!("--machine: the {unit} count must be at least 1"));
                    }
                }
                a.machine.n_alu = alu;
                a.machine.n_mem = mem;
                a.machine.n_branch = br;
            }
            "--load-latency" | "--cmp-latency" | "--alu-latency" => {
                let latency: u32 = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("{arg}: {e}"))?;
                if latency > MAX_LATENCY {
                    return Err(format!(
                        "{arg}: {latency} is above the limit of {MAX_LATENCY}"
                    ));
                }
                *match arg.as_str() {
                    "--load-latency" => &mut a.machine.load_latency,
                    "--cmp-latency" => &mut a.machine.cmp_latency,
                    _ => &mut a.machine.alu_latency,
                } = latency;
            }
            "--no-spec-loads" => a.machine.speculative_loads = false,
            "--depth" => {
                a.depth = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--depth: {e}"))?
            }
            "--no-split" => a.split = false,
            "--no-rename" => a.rename = false,
            "--probs" => {
                let v = value(&mut it, arg)?;
                let ps: Vec<f64> = v
                    .split(',')
                    .map(|p| p.parse().map_err(|e| format!("--probs: {e}")))
                    .collect::<Result<_, _>>()?;
                if let Some(p) = ps.iter().find(|p| !(0.0..=1.0).contains(*p)) {
                    return Err(format!("--probs: {p} is not a probability in [0, 1]"));
                }
                a.probs = Some(ps);
            }
            _ if a.file.is_none() && !arg.starts_with("--") => a.file = Some(arg.clone()),
            _ => return Err(format!("unknown argument `{arg}` (try `pspc help`)")),
        }
    }
    Ok(a)
}

impl Args {
    fn psp_config(&self) -> PspConfig {
        PspConfig {
            machine: self.machine.clone(),
            max_depth: self.depth,
            enable_split: self.split,
            enable_rename: self.rename,
            probs: self.probs.clone(),
            ..PspConfig::default()
        }
    }

    fn load_spec(&self) -> Result<LoopSpec, String> {
        let path = self.file.as_deref().ok_or("missing input file")?;
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let spec = psp::lang::compile(&src).map_err(|e| format!("{path}: {e}"))?;
        spec.validate()
            .map_err(|e| format!("{path}: invalid loop: {e}"))?;
        Ok(spec)
    }
}

/// Deterministic synthetic array contents (range chosen so comparisons
/// against small `--set` thresholds are meaningful).
fn synth_array(seed: u64, which: u64, len: usize) -> Vec<i64> {
    let mut rng = SplitMix64(seed.wrapping_add(which.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    (0..len).map(|_| rng.below(201) as i64 - 100).collect()
}

/// Build the initial machine state for a compiled DSL kernel: arrays filled
/// with synthetic data, named registers preset from `--set`, and `n`
/// defaulting to the array length.
fn initial_state(spec: &LoopSpec, args: &Args) -> Result<MachineState, String> {
    let mut st = MachineState::new(spec.n_regs, spec.n_ccs);
    for (i, _name) in spec.arrays.iter().enumerate() {
        st.push_array(synth_array(args.seed, i as u64, args.n));
    }
    let reg_of = |name: &str| -> Option<u32> {
        spec.reg_names
            .iter()
            .find(|(_, n)| n.as_str() == name)
            .map(|(r, _)| *r)
    };
    let mut n_set = false;
    for (name, val) in &args.sets {
        let r = reg_of(name).ok_or_else(|| format!("--set {name}: no such scalar"))?;
        st.regs[r as usize] = *val;
        n_set |= name == "n";
    }
    if !n_set {
        if let Some(r) = reg_of("n") {
            st.regs[r as usize] = args.n as i64;
        }
    }
    Ok(st)
}

fn reg_name(spec: &LoopSpec, r: RegRef) -> String {
    match r {
        RegRef::Gpr(g) => spec
            .reg_names
            .get(&g.0)
            .cloned()
            .unwrap_or_else(|| format!("R{}", g.0)),
        RegRef::Cc(c) => format!("CC{}", c.0),
    }
}

fn ii_str(prog: &VliwLoop) -> String {
    match prog.ii_range() {
        Some((a, b)) if a == b => format!("{a}"),
        Some((a, b)) => format!("{a}..{b}"),
        None => "-".into(),
    }
}

fn print_pipeline_summary(
    out: &mut impl Write,
    spec: &LoopSpec,
    res: &PspResult,
    m: &MachineConfig,
) -> io::Result<()> {
    let u = res.program.utilization(m);
    writeln!(
        out,
        "pipelined `{}`: II {}  depth {}  rows {}  instances {}",
        spec.name,
        ii_str(&res.program),
        res.schedule.max_index(),
        res.schedule.rows.len(),
        res.schedule.rows.iter().map(Vec::len).sum::<usize>(),
    )?;
    writeln!(
        out,
        "cost: {} moves, {} wraps, {} splits, {} candidates, {} rounds",
        res.stats.moves, res.stats.wraps, res.stats.splits, res.stats.candidates, res.stats.rounds,
    )?;
    writeln!(
        out,
        "issue density: {:.2} ops/cycle ({:.0}% ALU, {:.0}% MEM, {:.0}% BR slots)",
        u.ops_per_cycle,
        u.alu * 100.0,
        u.mem * 100.0,
        u.branch * 100.0,
    )
}

fn cmd_compile(args: &Args, out: &mut impl Write) -> Result<(), Failure> {
    let spec = args.load_spec()?;
    let res = pipeline_loop(&spec, &args.psp_config()).map_err(|e| e.to_string())?;
    print_pipeline_summary(out, &spec, &res, &args.machine)?;
    match args.emit.as_str() {
        "schedule" => writeln!(out, "\n{}", res.schedule.render())?,
        "cfg" => writeln!(out, "\n{}", res.program)?,
        "dot" => writeln!(out, "\n{}", to_dot(&res.program))?,
        "all" => {
            writeln!(
                out,
                "\n== schedule (paper Figure 2 style) ==\n{}",
                res.schedule.render()
            )?;
            writeln!(
                out,
                "== generated loop (paper Figure 3 style) ==\n{}",
                res.program
            )?;
        }
        other => return Err(format!("--emit {other}: expected schedule|cfg|dot|all").into()),
    }
    Ok(())
}

fn cmd_run(args: &Args, out: &mut impl Write) -> Result<(), Failure> {
    let spec = args.load_spec()?;
    let init = initial_state(&spec, args)?;

    let mut cfg = args.psp_config();
    if args.profile {
        let profile = BranchProfile::measure(&spec, init.clone(), 1_000_000_000)
            .map_err(|e| format!("reference run: {e}"))?;
        let probs: Vec<f64> = (0..spec.n_ifs).map(|i| profile.prob(i)).collect();
        writeln!(
            out,
            "measured branch profile: {:?}",
            probs.iter().map(|p| format!("{p:.3}")).collect::<Vec<_>>()
        )?;
        cfg.probs = Some(probs);
    }

    let res = pipeline_loop(&spec, &cfg).map_err(|e| e.to_string())?;
    print_pipeline_summary(out, &spec, &res, &args.machine)?;

    if args.trace > 0 {
        let mut traced = init.clone();
        let (regs, ccs) = res.program.register_demand();
        traced.grow(regs.max(spec.n_regs), ccs.max(spec.n_ccs));
        let (_, events) = trace_vliw(&res.program, traced, 1_000_000_000, args.trace)
            .map_err(|e| format!("trace: {e}"))?;
        writeln!(
            out,
            "\nfirst {} cycles (~~op~~ = guard-squashed):",
            events.len()
        )?;
        for ev in &events {
            writeln!(out, "  {ev}")?;
        }
    }

    // Only counts and the compiled program's live-outs are printed, so
    // `check` serves without materializing either run.
    let t_check = Instant::now();
    let mut engine = EquivEngine::new(&spec, &res.program);
    let run = engine
        .check(&init, 1_000_000_000)
        .map_err(|e| format!("EQUIVALENCE FAILURE: {e}"))?;
    let check_secs = t_check.elapsed().as_secs_f64();
    writeln!(
        out,
        "\nexecuted {} iterations: {} body cycles ({:.2} cycles/iter), reference {} cycles — speedup {:.2}x",
        run.vliw_iterations,
        run.body_cycles,
        run.cycles_per_iteration(),
        run.ref_cycles,
        run.ref_cycles as f64 / run.body_cycles.max(1) as f64,
    )?;
    writeln!(
        out,
        "verified: live-outs and array memory match the reference interpreter ✓"
    )?;
    let simulated = run.ref_cycles + run.total_cycles;
    writeln!(
        out,
        "simulator: {} engine, 1 trial, {simulated} cycles simulated ({:.1}M cycles/sec)",
        EngineKind::Decoded.label(),
        simulated as f64 / check_secs.max(1e-9) / 1e6,
    )?;
    let state = engine.vliw_state();
    for r in &spec.live_out {
        let v = match r {
            RegRef::Gpr(g) => state.regs[g.0 as usize],
            RegRef::Cc(c) => i64::from(state.ccs[c.0 as usize]),
        };
        writeln!(out, "  {} = {}", reg_name(&spec, *r), v)?;
    }
    Ok(())
}

fn cmd_compare(args: &Args, out: &mut impl Write) -> Result<(), Failure> {
    let spec = args.load_spec()?;
    let init = initial_state(&spec, args)?;

    writeln!(
        out,
        "{:<22} {:>8} {:>12} {:>9}",
        "technique", "II", "cycles/iter", "speedup"
    )?;
    // Every proof runs the reference too, so no separate reference run is
    // needed: each row's speedup uses its own proof's reference cycles, and
    // the EMS row the first proof's counts.
    let show = |out: &mut dyn Write, label: &str, prog: &VliwLoop| -> Result<EquivRun, Failure> {
        let run = EquivEngine::new(&spec, prog)
            .check(&init, 1_000_000_000)
            .map_err(|e| format!("{label}: EQUIVALENCE FAILURE: {e}"))?;
        writeln!(
            out,
            "{:<22} {:>8} {:>12.2} {:>8.2}x",
            label,
            ii_str(prog),
            run.cycles_per_iteration(),
            run.ref_cycles as f64 / run.body_cycles.max(1) as f64,
        )?;
        Ok(run)
    };
    let golden = show(out, "sequential", &compile_sequential(&spec))?;
    show(
        out,
        "local scheduling",
        &compile_local(&spec, &args.machine),
    )?;
    show(
        out,
        &format!("unroll x{}", args.unroll),
        &compile_unrolled(&spec, args.unroll, &args.machine),
    )?;
    let ems = modulo_schedule(&spec, &args.machine);
    ems.verify(&args.machine).map_err(|e| format!("EMS: {e}"))?;
    let ems_cycles = ems.estimated_cycles(golden.ref_iterations);
    writeln!(
        out,
        "{:<22} {:>8} {:>12.2} {:>8.2}x   (idealized cycle model)",
        "EMS modulo",
        ems.ii,
        ems_cycles as f64 / golden.ref_iterations.max(1) as f64,
        golden.ref_cycles as f64 / ems_cycles.max(1) as f64,
    )?;
    let res = pipeline_loop(&spec, &args.psp_config()).map_err(|e| e.to_string())?;
    show(out, "PSP (this paper)", &res.program)?;
    writeln!(
        out,
        "\nall compiled loops verified against the reference interpreter ✓"
    )?;
    Ok(())
}

fn cmd_kernels(out: &mut impl Write) -> Result<(), Failure> {
    writeln!(
        out,
        "{:<18} {:>6} {:>5} {:>4}  description",
        "name", "ops", "ifs", "regs"
    )?;
    for k in psp::kernels::all_kernels() {
        writeln!(
            out,
            "{:<18} {:>6} {:>5} {:>4}  {}",
            k.name,
            k.spec.op_count(),
            k.spec.n_ifs,
            k.spec.n_regs,
            k.description,
        )?;
    }
    Ok(())
}

fn dispatch(args: &Args, out: &mut impl Write) -> Result<(), Failure> {
    match args.command.as_str() {
        "compile" => cmd_compile(args, out)?,
        "run" => cmd_run(args, out)?,
        "compare" => cmd_compare(args, out)?,
        "kernels" => cmd_kernels(out)?,
        "help" | "--help" | "-h" => write!(out, "{}", usage())?,
        other => return Err(format!("unknown command `{other}` (try `pspc help`)").into()),
    }
    Ok(out.flush()?)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pspc: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Err(e) = dispatch(&args, &mut io::stdout().lock()) else {
        return ExitCode::SUCCESS;
    };
    // A reader that closed the pipe (`pspc … | head`) has all it wants.
    if e.downcast_ref::<io::Error>().map(io::Error::kind) == Some(io::ErrorKind::BrokenPipe) {
        return ExitCode::SUCCESS;
    }
    eprintln!("pspc: {e}");
    ExitCode::FAILURE
}
