//! Golden-file snapshots of the generated VLIW code for every kernel.
//!
//! The differential simulator proves the code *correct*; these snapshots
//! pin it *stable*: any change to scheduling heuristics, code generation,
//! or block layout shows up as a reviewable diff under `tests/golden/`
//! instead of silently shifting IIs. Regenerate intentionally with:
//!
//! ```text
//! PSP_UPDATE_GOLDEN=1 cargo test --test golden_vliw
//! ```
//!
//! The snapshots cover the kernels on the paper machine only.
//! `psp_program_text_is_pinned_on_three_machines` pins, by one hash per
//! machine, the text of every PSP program (or refusal) of the kernels,
//! `synthetic(4..=6)` and the E12 corpus on the paper machine, on the
//! narrow 2/1/1 machine and on that machine with multi-cycle latencies,
//! where the blocks and the latency rule's waits differ.

mod common;

use common::fuzz_corpus;
use psp::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Render one kernel's compiled artifact: a header with the score facts a
/// reviewer cares about (II range, block count), then the program listing.
fn render(kernel: &Kernel) -> String {
    let res = pipeline_loop(&kernel.spec, &PspConfig::default()).expect("psp pipelines");
    let mut out = String::new();
    let _ = writeln!(out, "# kernel: {}", kernel.name);
    if let Some((lo, hi)) = res.program.ii_range() {
        let _ = writeln!(out, "# ii: {lo}..{hi}");
    }
    let _ = writeln!(
        out,
        "# blocks: {}  rows: {}",
        res.program.blocks.len(),
        res.schedule.n_rows()
    );
    let _ = writeln!(out);
    let _ = write!(out, "{}", res.program);
    out
}

#[test]
fn generated_code_matches_golden_snapshots() {
    let update = std::env::var_os("PSP_UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    if update {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut failures = Vec::new();
    for kernel in all_kernels() {
        let got = render(&kernel);
        let path = dir.join(format!("{}.txt", kernel.name));
        if update {
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(want) if want == got => {}
            Ok(want) => failures.push(format!(
                "{}: snapshot differs\n--- want ({})\n{want}\n--- got\n{got}",
                kernel.name,
                path.display()
            )),
            Err(_) => failures.push(format!(
                "{}: missing snapshot {} (run with PSP_UPDATE_GOLDEN=1 to create)",
                kernel.name,
                path.display()
            )),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The snapshot directory contains no strays: every file corresponds to a
/// kernel (catches renamed kernels leaving dead goldens behind).
#[test]
fn golden_directory_matches_kernel_suite() {
    let dir = golden_dir();
    if !dir.exists() {
        return; // first run before snapshots exist
    }
    let names: Vec<String> = all_kernels()
        .iter()
        .map(|k| format!("{}.txt", k.name))
        .collect();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let f = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            names.contains(&f),
            "stray golden file {f}: no kernel by that name"
        );
    }
}

/// FNV-1a over `text`: the same hash on every platform.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn psp_program_text_is_pinned_on_three_machines() {
    let mut loops: Vec<LoopSpec> = all_kernels().into_iter().map(|k| k.spec).collect();
    loops.extend((4..=6).map(psp_bench::synthetic));
    loops.extend(fuzz_corpus());
    let machines = [
        ("paper", MachineConfig::paper_default()),
        ("narrow211", MachineConfig::narrow(2, 1, 1)),
        (
            "narrow211, alu 2, load 3, cmp 2",
            MachineConfig {
                alu_latency: 2,
                load_latency: 3,
                cmp_latency: 2,
                ..MachineConfig::narrow(2, 1, 1)
            },
        ),
    ];
    let mut got = Vec::new();
    for (label, machine) in machines {
        let cfg = PspConfig::with_machine(machine);
        let mut text = String::new();
        for spec in &loops {
            let _ = match pipeline_loop(spec, &cfg) {
                Ok(res) => write!(text, "{}", res.program),
                Err(e) => writeln!(text, "{}: refused: {e}", spec.name),
            };
        }
        got.push((label, fnv1a(&text)));
    }
    let hex: Vec<String> = got
        .iter()
        .map(|(l, h)| format!("({l:?}, {h:#x})"))
        .collect();
    // A deliberate change to what code generation emits re-pins these.
    let want: [(&str, u64); 3] = [
        ("paper", 0x05c5_a165_f53a_0fee),
        ("narrow211", 0xc9bd_d568_0724_d729),
        ("narrow211, alu 2, load 3, cmp 2", 0x9478_bce6_9361_f0fb),
    ];
    assert_eq!(got, want, "observed: {}", hex.join(", "));
}
