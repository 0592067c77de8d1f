//! `psp-verify` — drive the independent validators from the command line.
//!
//! ```text
//! psp-verify validate --all            # validate every kernel (PSP + EMS + certifier)
//! psp-verify validate vecmin           # one kernel, verbose
//! psp-verify fuzz --smoke --json       # the CI smoke campaign
//! psp-verify fuzz --seed 7 --iters 200 # a custom campaign
//! psp-verify replay tests/repros/x.psp # re-run the oracle on a reproducer
//! ```
//!
//! Exits nonzero iff a violation or fuzz finding surfaced, so CI can gate
//! on the raw exit code.

use psp_core::{json_object, pipeline_loop, PspConfig};
use psp_machine::MachineConfig;
use psp_opt::{certify, ExactConfig};
use psp_verify::{
    fuzz, run_oracle_with, validate_modulo, validate_schedule, validate_vliw, FuzzConfig,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.split_first() {
        Some((&"validate", rest)) => cmd_validate(rest),
        Some((&"fuzz", rest)) => cmd_fuzz(rest),
        Some((&"replay", [file])) => cmd_replay(file),
        _ => {
            eprintln!(
                "usage: psp-verify validate (--all | <kernel>)\n       \
                 psp-verify fuzz [--smoke] [--seed N] [--iters N] [--json]\n       \
                 psp-verify replay <file.psp>"
            );
            ExitCode::from(2)
        }
    }
}

/// Validate one kernel's PSP schedule, generated code, EMS modulo schedule,
/// and certifier witness. Returns the number of violations found.
fn validate_kernel(spec: &psp_ir::LoopSpec, verbose: bool) -> usize {
    let bad = std::cell::Cell::new(0usize);
    let wide = MachineConfig::paper_default();
    let report = |label: &str, vs: Vec<psp_verify::Violation>| {
        if vs.is_empty() {
            if verbose {
                println!("  {label}: ok");
            }
        } else {
            for v in &vs {
                println!("  {label}: VIOLATION: {v}");
            }
            bad.set(bad.get() + vs.len());
        }
    };

    match pipeline_loop(spec, &PspConfig::with_machine(wide.clone())) {
        Ok(res) => {
            report(
                "psp schedule",
                validate_schedule(spec, &wide, &res.schedule),
            );
            report("psp vliw", validate_vliw(spec, &wide, &res.program));
        }
        Err(e) => {
            println!("  psp: pipeline failed: {e}");
            bad.set(bad.get() + 1);
        }
    }

    let mut ic = psp_opt::if_convert(spec);
    psp_opt::rename_inductions(&mut ic.ops, &mut ic.spec);
    let ems = psp_baselines::modulo_schedule(spec, &wide);
    report(
        &format!("ems (II {})", ems.ii),
        validate_modulo(&ic.spec.live_out, &wide, &ems),
    );

    let cfg = ExactConfig {
        max_nodes: 50_000,
        ..ExactConfig::default()
    };
    let exact = certify(spec, &wide, &cfg, Some(ems.ii));
    if let Some(w) = &exact.schedule {
        report(
            &format!("certifier witness (II {})", w.ii),
            validate_modulo(&ic.spec.live_out, &wide, w),
        );
    } else if verbose {
        println!("  certifier: no witness (bounded search), skipped");
    }
    bad.get()
}

fn cmd_validate(rest: &[&str]) -> ExitCode {
    let mut total = 0usize;
    match rest {
        ["--all"] => {
            for k in psp_kernels::all_kernels() {
                println!("{}:", k.name);
                total += validate_kernel(&k.spec, false);
            }
        }
        [name] => match psp_kernels::by_name(name) {
            Some(k) => {
                println!("{}:", k.name);
                total += validate_kernel(&k.spec, true);
            }
            None => {
                eprintln!("unknown kernel `{name}`");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("usage: psp-verify validate (--all | <kernel>)");
            return ExitCode::from(2);
        }
    }
    if total == 0 {
        println!("all clean");
        ExitCode::SUCCESS
    } else {
        println!("{total} violation(s)");
        ExitCode::FAILURE
    }
}

fn cmd_fuzz(rest: &[&str]) -> ExitCode {
    let mut cfg = FuzzConfig::smoke(0x5eed_cafe);
    let mut json = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match *a {
            "--smoke" => {} // the default config is the smoke config
            "--json" => json = true,
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.seed = v,
                None => return usage_fuzz(),
            },
            "--iters" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.iters = v,
                None => return usage_fuzz(),
            },
            "--repro-dir" => match it.next() {
                Some(v) => cfg.repro_dir = Some(v.into()),
                None => return usage_fuzz(),
            },
            _ => return usage_fuzz(),
        }
    }
    let outcome = fuzz(&cfg);
    if json {
        let findings = outcome.findings.iter().map(|f| {
            let repro = f.path.as_ref().map(|p| p.display().to_string());
            json_object! {
                "stage": f.failure.stage.as_str(), "detail": f.failure.detail.as_str(),
                "reduced_stmts": psp_verify::grammar::stmt_count(&f.reduced),
                "repro": repro.unwrap_or_default().as_str(),
            }
        });
        let doc = json_object! {
            "seed": cfg.seed, "executed": outcome.executed, "corpus": outcome.corpus,
            "elapsed_ms": outcome.elapsed.as_millis(), "findings": findings.collect::<Vec<_>>(),
        };
        println!("{}", doc.document());
    } else {
        println!(
            "seed {}: {} runs, corpus {}, {} finding(s) in {:.1}s",
            cfg.seed,
            outcome.executed,
            outcome.corpus,
            outcome.findings.len(),
            outcome.elapsed.as_secs_f64()
        );
        for f in &outcome.findings {
            println!("  [{}] {}", f.failure.stage, f.failure.detail);
            if let Some(p) = &f.path {
                println!("    reproducer: {}", p.display());
            }
        }
    }
    if outcome.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_fuzz() -> ExitCode {
    eprintln!("usage: psp-verify fuzz [--smoke] [--seed N] [--iters N] [--json] [--repro-dir DIR]");
    ExitCode::from(2)
}

fn cmd_replay(file: &str) -> ExitCode {
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match psp_lang::compile(&src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot compile {file}: {e}");
            return ExitCode::from(2);
        }
    };
    // Replay always re-judges against the trusted interpreter, whatever
    // engine the finding campaign ran.
    match run_oracle_with(&spec, psp_sim::EngineKind::Interpreter) {
        Ok(_) => {
            println!("{file}: oracle clean");
            ExitCode::SUCCESS
        }
        Err(f) => {
            println!("{file}: FAILS at stage {}: {}", f.stage, f.detail);
            ExitCode::FAILURE
        }
    }
}
