//! Differential fuzzing: generate random loops with conditions, compile
//! them with every technique, and check observational equivalence against
//! the reference interpreter on multiple inputs.
//!
//! This is the strongest correctness argument in the suite: the PSP
//! scheduler's transformations (speculation, renaming, combining,
//! substitution, splitting, wrapping) must preserve semantics on loop
//! shapes nobody hand-picked. The loop generator is shared with the exact-
//! certifier property suite (`tests/common/mod.rs`).

mod common;

use common::*;
use psp::prelude::*;
use psp::verify::grammar::{build_spec, S};

/// Every technique on the paper machine compiles `spec` correctly.
fn all_techniques_equivalent(spec: &LoopSpec) {
    assert!(spec.validate().is_ok(), "generator produced invalid spec");
    let wide = MachineConfig::paper_default();
    check_prog(spec, &compile_sequential(spec), "seq");
    check_prog(spec, &compile_local(spec, &wide), "local");
    check_prog(spec, &compile_unrolled(spec, 3, &wide), "unroll3");
    let res = pipeline_loop(spec, &PspConfig::default()).expect("psp pipelines");
    check_prog(spec, &res.program, "psp");
}

/// Local compaction and PSP on the 2/1/1 machine compile `spec` correctly.
fn narrow_machine_equivalent(spec: &LoopSpec) {
    let narrow = MachineConfig::narrow(2, 1, 1);
    check_prog(spec, &compile_local(spec, &narrow), "local-narrow");
    let res = pipeline_loop(spec, &PspConfig::with_machine(narrow)).expect("psp pipelines");
    check_prog(spec, &res.program, "psp-narrow");
}

#[test]
fn random_loops_all_techniques_equivalent() {
    check_cases("random_loops_all_techniques_equivalent", CASES, |rng| {
        all_techniques_equivalent(&build_spec(&random_body(rng)))
    });
}

#[test]
fn random_loops_narrow_machine() {
    check_cases("random_loops_narrow_machine", CASES, |rng| {
        narrow_machine_equivalent(&build_spec(&random_body(rng)))
    });
}

/// A shrunk counterexample an earlier property runner recorded (nested IFs
/// whose inner predicate feeds a conditional accumulation).
#[test]
fn regression_nested_if_conditional_accumulate() {
    #[rustfmt::skip]
    let body = vec![
        S::If(0, 98, 117, vec![S::LoadX(2)], vec![]),
        S::If(3, 0, 135, vec![S::If(2, 0, 1, vec![S::Alu(1, 0, 19, 53)], vec![])], vec![]),
        S::If(0, 41, 132, vec![S::Alu(0, 1, 82, 51), S::AccAdd(152)], vec![]),
    ];
    let spec = build_spec(&body);
    all_techniques_equivalent(&spec);
    narrow_machine_equivalent(&spec);
}
