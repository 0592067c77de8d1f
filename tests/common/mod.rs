//! Shared pieces of the differential fuzz suites (`fuzz_random_loops`,
//! `fuzz_exact_certifier`, ...): the property-test runner, loop bodies of
//! the fuzzer's grammar ([`psp::verify::grammar::random_body`], the same
//! generator behind `psp-verify fuzz`), the multi-input equivalence
//! checker, and the E12 `fuzz` corpus.
#![allow(dead_code, unused_imports)] // each integration-test binary uses a subset

#[path = "../../crates/psp-kernels/tests/cases/mod.rs"]
mod cases;

pub use cases::check_cases;
use psp::prelude::*;
pub use psp::verify::grammar::random_body;
use psp::verify::grammar::{self, SplitMix64};
use std::collections::HashSet;

pub fn check_prog(spec: &LoopSpec, prog: &VliwLoop, label: &str) {
    for (seed, len) in psp::sim::EquivConfig::fixed(4, 10).trial_inputs() {
        let init = grammar::initial(spec, len, seed);
        let (_, _) = check_equivalence(spec, prog, &init, 10_000_000)
            .unwrap_or_else(|e| panic!("[{label}] len {len}: {e}\nspec:\n{spec}\n{prog}"));
    }
}

/// Keep debug-profile runs quick; release runs fuzz harder.
pub const CASES: Option<u32> = Some(if cfg!(debug_assertions) { 6 } else { 48 });

/// The E12 `fuzz` corpus: the first 96 distinct grammar loops of the
/// fixed seed, named `fuzz0`, `fuzz1`, ... in order.
pub fn fuzz_corpus() -> Vec<LoopSpec> {
    let mut rng = SplitMix64(0xE12);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    while out.len() < 96 {
        let body = grammar::random_body(&mut rng);
        if seen.insert(grammar::to_source(&body)) {
            let mut spec = grammar::build_spec(&body);
            spec.name = format!("fuzz{}", out.len());
            out.push(spec);
        }
    }
    out
}
