//! Replay every minimized reproducer under `tests/repros/` through the
//! full `psp-verify` oracle.
//!
//! A reproducer lands here when the fuzzer finds and minimizes a failure;
//! after the fix it remains as a regression test. This suite asserts the
//! oracle — every technique, every independent validator, differential
//! equivalence — runs clean on each file. Replay is pinned to the trusted
//! `step_cycle` interpreter: a reproducer must stand on the reference
//! semantics regardless of which engine found it.
//!
//! A reproducer whose header has a `// refused: <message>` line is a loop
//! the front end must reject: it must fail to compile with an error that
//! contains the message. `fuzz0-compacted-seed.psp` is also pinned to
//! seed from its compacted schedule on both machines.

use psp::prelude::*;
use psp::sim::EngineKind;
use psp::verify::run_oracle_with;
use std::path::PathBuf;

/// Every reproducer: its path, its text and its `// refused:` message.
fn reproducers() -> Vec<(PathBuf, String, Option<String>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/repros");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("tests/repros must exist") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("psp") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let refused = src
            .lines()
            .find_map(|l| l.strip_prefix("// refused: "))
            .map(str::to_string);
        out.push((path, src, refused));
    }
    out
}

#[test]
fn all_reproducers_replay_clean() {
    let mut seen = 0;
    for (path, src, refused) in reproducers() {
        if refused.is_some() {
            continue;
        }
        seen += 1;
        let spec = psp::lang::compile(&src)
            .unwrap_or_else(|e| panic!("{}: does not compile: {e}", path.display()));
        if let Err(f) = run_oracle_with(&spec, EngineKind::Interpreter) {
            panic!(
                "{}: oracle fails at stage `{}`: {}",
                path.display(),
                f.stage,
                f.detail
            );
        }
    }
    assert!(seen >= 1, "expected at least the seeded sample reproducer");
}

#[test]
fn refused_reproducers_do_not_compile() {
    let mut seen = 0;
    for (path, src, refused) in reproducers() {
        let Some(want) = refused else { continue };
        seen += 1;
        match psp::lang::compile(&src) {
            Ok(_) => panic!("{}: compiles, but must be refused", path.display()),
            Err(e) => assert!(
                e.to_string().contains(&want),
                "{}: refused with `{e}`, not `{want}`",
                path.display()
            ),
        }
    }
    assert!(seen >= 2, "expected the two loops without an exit");
}

#[test]
fn fuzz0_compacted_seed_generates_on_both_machines() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/repros/fuzz0-compacted-seed.psp");
    let spec = psp::lang::compile(&std::fs::read_to_string(path).unwrap()).unwrap();
    for (machine, psp, local) in [
        (MachineConfig::paper_default(), 7, 11),
        (MachineConfig::narrow(2, 1, 1), 8, 14),
    ] {
        let mut seed = Schedule::initial(&spec);
        psp::core::compact::compact(&mut seed, &machine, true);
        if let Err(e) = generate(&seed, &machine) {
            panic!("compacted seed refused on {machine:?}: {e}");
        }
        let max_ii = |p: &VliwLoop| p.ii_range().map_or(0, |(_, hi)| hi);
        let res = pipeline_loop(&spec, &PspConfig::with_machine(machine.clone())).unwrap();
        assert_eq!(
            (
                max_ii(&res.program),
                max_ii(&compile_local(&spec, &machine))
            ),
            (psp, local),
            "(PSP, local) max II on {machine:?}"
        );
    }
}
