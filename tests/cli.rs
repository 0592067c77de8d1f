//! End-to-end tests of the `pspc` command-line driver: each subcommand is
//! invoked as a real subprocess on a temp DSL file, and output / exit codes
//! are checked. The `run` and `compare` paths execute the compiled loops
//! and verify them, so these also act as a final system test.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn pspc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pspc"))
        .args(args)
        .output()
        .expect("pspc runs")
}

/// Write `src` to a fresh temp file. Every call gets its own path: tests
/// run in parallel, and rewriting a file another test's `pspc` is reading
/// would hand it a truncated kernel.
fn write_kernel(name: &str, src: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("pspc-test-{name}-{}-{n}.psp", std::process::id()));
    std::fs::write(&path, src).unwrap();
    path
}

fn vecmin_file() -> PathBuf {
    write_kernel(
        "vecmin",
        "kernel vecmin(n, k, m; x[]) -> m {
            xk = x[k]; xm = x[m];
            if (xk < xm) { m = k; }
            k = k + 1;
            break if (k >= n);
        }",
    )
}

#[test]
fn compile_reports_paper_ii_and_emits_schedule_and_cfg() {
    let f = vecmin_file();
    let out = pspc(&["compile", f.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("II 2"), "paper Fig. 1c II:\n{text}");
    assert!(text.contains("== schedule"), "{text}");
    assert!(text.contains("== generated loop"), "{text}");
    assert!(text.contains("ops/cycle"), "{text}");
}

#[test]
fn compile_emit_dot_is_wellformed_graphviz() {
    let f = vecmin_file();
    let out = pspc(&["compile", f.to_str().unwrap(), "--emit", "dot"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("digraph"));
    assert_eq!(text.matches('{').count(), text.matches('}').count());
    assert!(!text.contains("\\\\l"), "double-escaped line separators");
}

#[test]
fn run_executes_and_verifies() {
    let f = vecmin_file();
    let out = pspc(&["run", f.to_str().unwrap(), "--n", "64", "--seed", "7"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("executed 64 iterations"), "{text}");
    assert!(text.contains("verified"), "{text}");
    assert!(text.contains("m = "), "live-out printed:\n{text}");
}

#[test]
fn run_profile_measures_and_uses_branch_probabilities() {
    let f = vecmin_file();
    let out = pspc(&["run", f.to_str().unwrap(), "--n", "128", "--profile"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("measured branch profile"), "{text}");
    assert!(text.contains("verified"), "{text}");
    // The profiling run is not part of the equivalence check it reports.
    assert!(text.contains("simulator: decoded engine"), "{text}");
}

#[test]
fn run_trace_shows_cycles_and_squashed_guards() {
    let f = vecmin_file();
    let out = pspc(&["run", f.to_str().unwrap(), "--n", "16", "--trace", "8"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("first 8 cycles"), "{text}");
    assert!(text.contains("pre "), "prologue cycles traced:\n{text}");
    assert!(text.contains("B0 "), "body cycles traced:\n{text}");
    assert!(text.contains("~~"), "guard-squashed ops marked:\n{text}");
    assert!(text.contains("verified"), "{text}");
}

#[test]
fn compare_runs_every_technique_and_psp_wins() {
    let f = vecmin_file();
    let out = pspc(&["compare", f.to_str().unwrap(), "--n", "256"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    for label in [
        "sequential",
        "local scheduling",
        "unroll x4",
        "EMS modulo",
        "PSP",
    ] {
        assert!(text.contains(label), "missing {label}:\n{text}");
    }
    assert!(text.contains("all compiled loops verified"), "{text}");
    // PSP's verified cycles/iter on the wide default machine is 2.00 —
    // strictly better than local scheduling's 3.00.
    let cpi = |label: &str| -> f64 {
        let line = text.lines().find(|l| l.starts_with(label)).unwrap();
        let fields: Vec<&str> = line.split_whitespace().collect();
        fields[fields.len() - 2].parse().unwrap()
    };
    assert!(cpi("PSP (this paper)") < cpi("local scheduling"), "{text}");
}

#[test]
fn machine_and_technique_flags_change_the_result() {
    let f = vecmin_file();
    let narrow = pspc(&[
        "compile",
        f.to_str().unwrap(),
        "--machine",
        "2,1,1",
        "--emit",
        "schedule",
    ]);
    assert!(narrow.status.success());
    let narrow = String::from_utf8(narrow.stdout).unwrap();
    assert!(narrow.contains("II 3"), "narrow machine II:\n{narrow}");

    let depth0 = pspc(&[
        "compile",
        f.to_str().unwrap(),
        "--depth",
        "0",
        "--emit",
        "schedule",
    ]);
    assert!(depth0.status.success());
    let depth0 = String::from_utf8(depth0.stdout).unwrap();
    assert!(
        depth0.contains("II 3"),
        "depth 0 = local scheduling:\n{depth0}"
    );
    assert!(depth0.contains("depth 0"), "{depth0}");
}

#[test]
fn kernels_lists_the_builtin_suite() {
    let out = pspc(&["kernels"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in ["vecmin", "cond_sum", "bubble_pass", "mac_cond"] {
        assert!(text.contains(name), "{text}");
    }
}

#[test]
fn errors_exit_nonzero_with_messages() {
    // Missing file.
    let out = pspc(&["compile", "/nonexistent-kernel.psp"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nonexistent"));

    // Parse error in the DSL.
    let bad = write_kernel("bad", "kernel broken(n; x[]) { v = x[ }");
    let out = pspc(&["compile", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    // Unknown scalar in --set.
    let f = vecmin_file();
    let out = pspc(&["run", f.to_str().unwrap(), "--set", "zzz=1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no such scalar"));

    // Unknown flag.
    let out = pspc(&["compile", f.to_str().unwrap(), "--bogus"]);
    assert!(!out.status.success());

    // Bad --machine shape.
    let out = pspc(&["compile", f.to_str().unwrap(), "--machine", "8,4"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("ALU,MEM,BR"));

    // A zero unit count is an argument error, not a packing failure.
    for (machine, unit) in [("0,0,0", "ALU"), ("8,0,4", "MEM"), ("8,4,0", "BR")] {
        let out = pspc(&["compile", f.to_str().unwrap(), "--machine", machine]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{machine}: {err}");
        assert!(
            err.contains(&format!("--machine: the {unit} count must be at least 1")),
            "{machine}: {err}"
        );
    }

    // Out-of-range numeric flags are argument errors naming the flag: no
    // panic (`--unroll 0`), allocation abort (`--n`) or silent NaN scores.
    for (args, msg) in [
        (
            &["compare", "--unroll", "0"][..],
            "--unroll: the factor must be in 1..=64",
        ),
        (
            &["compare", "--unroll", "65"],
            "--unroll: the factor must be in 1..=64",
        ),
        (
            &["run", "--n", "100000000000"],
            "--n: 100000000000 is above the limit of 4194304",
        ),
        (
            &["compile", "--load-latency", "65"],
            "--load-latency: 65 is above the limit of 64",
        ),
        (
            &["compile", "--alu-latency", "4294967295"],
            "--alu-latency: 4294967295 is above the limit of 64",
        ),
        (
            &["compile", "--probs", "nan"],
            "--probs: NaN is not a probability in [0, 1]",
        ),
        (
            &["compile", "--probs", "0.5,-1"],
            "--probs: -1 is not a probability in [0, 1]",
        ),
        (
            &["compile", "--probs", "2.0"],
            "--probs: 2 is not a probability in [0, 1]",
        ),
    ] {
        let out = pspc(&[&[args[0], f.to_str().unwrap()], &args[1..]].concat());
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(msg), "{args:?}: {err}");
    }
    let help = String::from_utf8(pspc(&["help"]).stdout).unwrap();
    assert!(
        help.contains("1..=64") && help.contains("at most 4194304"),
        "{help}"
    );

    // An integer literal past i64 is a lex error naming the limit, not a
    // panic (exit code 101).
    let huge = write_kernel(
        "huge",
        "kernel k(n, acc; x[]) -> acc { acc = acc + 99999999999999999999999; break if (acc >= n); }",
    );
    let out = pspc(&["compile", huge.to_str().unwrap()]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("integer literal at byte 43 is outside the i64 range"),
        "{err}"
    );
}

#[test]
fn closed_stdout_pipe_exits_quietly() {
    // Roughly 1 MB of trace, far more than a pipe buffers, so `pspc` is
    // still writing when the reader goes away (`pspc run … | head -1`).
    let f = vecmin_file();
    let mut child = Command::new(env!("CARGO_BIN_EXE_pspc"))
        .args([
            "run",
            f.to_str().unwrap(),
            "--n",
            "4096",
            "--trace",
            "100000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pspc runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("pipelined `vecmin`"), "{first}");
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert!(out.status.success(), "{:?}: {err}", out.status);
}

#[test]
fn a_loop_without_an_exit_is_refused_at_once() {
    // Both loops once compiled: the empty body to a one-block program that
    // jumps back to itself, and `pspc run` on the counter spun until it was
    // killed. Each `pspc` is killed after one second if it has not exited.
    let repros = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/repros");
    for file in ["no-exit-empty-body.psp", "no-exit-counter.psp"] {
        let f = repros.join(file);
        for cmd in ["compile", "run"] {
            let t0 = Instant::now();
            let mut child = Command::new(env!("CARGO_BIN_EXE_pspc"))
                .args([cmd, f.to_str().unwrap()])
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("pspc runs");
            while child.try_wait().unwrap().is_none() && t0.elapsed() < Duration::from_secs(1) {
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = child.kill();
            let out = child.wait_with_output().unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {file}: {err}");
            assert!(
                err.contains("the loop body has no `break if`: every loop needs an exit"),
                "{cmd} {file}: {err}"
            );
        }
    }
}

#[test]
fn nesting_past_the_dsl_limit_is_a_parse_error() {
    // 30,000 nested parentheses once overflowed the parser's stack and
    // aborted the process (exit 134).
    let deep = write_kernel(
        "deep",
        &format!(
            "kernel p(a) -> a {{ a = {}a{}; break if (a >= 0); }}",
            "(".repeat(30_000),
            ")".repeat(30_000)
        ),
    );
    let out = pspc(&["compile", deep.to_str().unwrap()]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("parse error: nesting at token 267 is deeper than the limit of 256 levels"),
        "{err}"
    );
}

#[test]
fn set_controls_initial_registers() {
    // A threshold kernel where the count depends on `t`: with t above the
    // data range the count is 0; with t below it, the count is n.
    let f = write_kernel(
        "thr",
        "kernel thr(n, k, t, cnt; x[]) -> cnt {
            v = x[k];
            if (v > t) { cnt = cnt + 1; }
            k = k + 1;
            break if (k >= n);
        }",
    );
    for (t, expect) in [(1000, 0i64), (-1000, 32)] {
        let out = pspc(&[
            "run",
            f.to_str().unwrap(),
            "--n",
            "32",
            "--set",
            &format!("t={t}"),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains(&format!("cnt = {expect}")), "t={t}:\n{text}");
    }
}

#[test]
fn run_data_stream_is_pinned() {
    // The synthetic array data behind `run` comes from one seeded
    // SplitMix64 stream; reproducers replay against it, so it must never
    // drift.
    let f = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/repros/sample-conditional-store.psp"
    );
    let out = pspc(&["run", f, "--n", "5"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.lines().any(|l| l == "  acc = -93"), "{text}");
}
