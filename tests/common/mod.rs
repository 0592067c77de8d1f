//! Shared pieces of the differential fuzz suites (`fuzz_random_loops`,
//! `fuzz_exact_certifier`, ...): the property-test runner, loop bodies of
//! the fuzzer's grammar ([`psp::verify::grammar::random_body`], the same
//! generator behind `psp-verify fuzz`), and the multi-input equivalence
//! checker.
#![allow(dead_code)] // each integration-test binary uses a subset

#[path = "../../crates/psp-kernels/tests/cases/mod.rs"]
mod cases;

pub use cases::check_cases;
use psp::prelude::*;
use psp::verify::grammar;
pub use psp::verify::grammar::random_body;

pub fn check_prog(spec: &LoopSpec, prog: &VliwLoop, label: &str) {
    for (seed, len) in psp::sim::EquivConfig::fixed(4, 10).trial_inputs() {
        let init = grammar::initial(spec, len, seed);
        let (_, _) = check_equivalence(spec, prog, &init, 10_000_000)
            .unwrap_or_else(|e| panic!("[{label}] len {len}: {e}\nspec:\n{spec}\n{prog}"));
    }
}

/// Keep debug-profile runs quick; release runs fuzz harder.
pub const CASES: Option<u32> = Some(if cfg!(debug_assertions) { 6 } else { 48 });
