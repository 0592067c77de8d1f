//! Shared random-loop strategies for the differential fuzz suites
//! (`fuzz_random_loops`, `fuzz_exact_certifier`, ...): proptest strategies
//! producing statement lists of the fuzzer's grammar
//! ([`psp::verify::grammar`], which also lowers them and builds their
//! inputs), plus the multi-input equivalence checker.
#![allow(dead_code)] // each integration-test binary uses a subset

use proptest::prelude::*;
use psp::prelude::*;
use psp::verify::grammar::{self, N_SCRATCH, S};

pub fn arb_stmt(depth: u32) -> impl Strategy<Value = S> {
    let leaf = prop_oneof![
        (0..8u8, 0..N_SCRATCH as u8, any::<u8>(), any::<u8>())
            .prop_map(|(op, d, a, b)| S::Alu(op, d, a, b)),
        (0..N_SCRATCH as u8).prop_map(S::LoadX),
        (0..N_SCRATCH as u8).prop_map(S::LoadY),
        any::<u8>().prop_map(S::AccAdd),
        any::<u8>().prop_map(S::StoreY),
    ];
    leaf.prop_recursive(depth, 8, 3, |inner| {
        (
            0..6u8,
            any::<u8>(),
            any::<u8>(),
            proptest::collection::vec(inner.clone(), 1..3),
            proptest::collection::vec(inner, 0..2),
        )
            .prop_map(|(c, a, b, t, e)| S::If(c, a, b, t, e))
    })
}

pub fn arb_body() -> impl Strategy<Value = Vec<S>> {
    proptest::collection::vec(arb_stmt(2), 2..7)
}

pub fn check_prog(spec: &LoopSpec, prog: &VliwLoop, label: &str) {
    for (seed, len) in psp::sim::EquivConfig::fixed(4, 10).trial_inputs() {
        let init = grammar::initial(spec, len, seed);
        let (_, _) = check_equivalence(spec, prog, &init, 10_000_000)
            .unwrap_or_else(|e| panic!("[{label}] len {len}: {e}\nspec:\n{spec}\n{prog}"));
    }
}

/// Keep debug-profile runs quick; release runs fuzz harder. Override with
/// the PROPTEST_CASES environment variable for long campaigns.
pub const CASES: u32 = if cfg!(debug_assertions) { 6 } else { 48 };
