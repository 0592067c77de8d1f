//! Property tests for the exact II certifier (`psp-opt`) on random loops
//! with conditions, reusing the generator of `fuzz_random_loops`.
//!
//! The chain that must hold for every loop the generator can produce:
//!
//! ```text
//! mii_lower_bound  ≤  certified exact II  ≤  greedy EMS II
//! ```
//!
//! — the left inequality because the analytic floor is sound, the right
//! because the greedy schedule is a feasible point of the exact solver's
//! identical constraint system. On budget exhaustion the certifier must
//! degrade to a sound interval containing the EMS II. And any witness
//! schedule, compiled by `psp_opt::modulo_to_vliw`, must be observationally
//! equivalent to the source loop on real inputs.

mod common;

use common::*;
use psp::opt::{certify, Certification, ExactConfig, ExactResult};
use psp::prelude::*;
use psp::verify::grammar::build_spec;

/// The exact certifier on a 50K-node budget, hinted with the greedy II.
fn certify_hinted(spec: &LoopSpec, m: &MachineConfig, ems_ii: u32) -> ExactResult {
    let cfg = ExactConfig { max_nodes: 50_000 };
    certify(spec, m, &cfg, Some(ems_ii))
}

#[test]
fn exact_ii_is_bracketed_and_executable() {
    check_cases("exact_ii_is_bracketed_and_executable", CASES, |rng| {
        let spec = build_spec(&random_body(rng));
        assert!(spec.validate().is_ok(), "generator produced invalid spec");
        let m = MachineConfig::paper_default();

        let ems = modulo_schedule(&spec, &m);
        ems.verify(&m).expect("greedy schedule verifies");
        let lb = mii_lower_bound(&spec, &m);
        assert!(lb <= ems.ii, "floor {lb} above greedy II {}", ems.ii);

        let res = certify_hinted(&spec, &m, ems.ii);
        match res.outcome {
            Certification::Certified(ii) => {
                assert!(
                    lb <= ii && ii <= ems.ii,
                    "certified {ii} outside [{lb}, {}]",
                    ems.ii
                );
            }
            Certification::Bounded { lb: l, ub } => {
                assert!(lb <= l, "interval floor regressed below the analytic one");
                assert!(ub == Some(ems.ii), "hint must survive as the upper bound");
                assert!(l <= ems.ii, "unsound interval [{l}, {:?}]", ub);
            }
        }
        if let Some(sched) = &res.schedule {
            sched.verify(&m).expect("witness verifies");
            let prog = modulo_to_vliw(sched, "fuzz_exact");
            prog.validate(&m).expect("witness codegen validates");
            check_prog(&spec, &prog, "exact");
        }
    });
}

#[test]
fn exact_ii_brackets_on_a_narrow_machine() {
    check_cases("exact_ii_brackets_on_a_narrow_machine", CASES, |rng| {
        let spec = build_spec(&random_body(rng));
        let m = MachineConfig::narrow(2, 1, 1);
        let ems = modulo_schedule(&spec, &m);
        let lb = mii_lower_bound(&spec, &m);
        let res = certify_hinted(&spec, &m, ems.ii);
        assert!(res.outcome.lb() >= lb && res.outcome.lb() <= ems.ii);
        if let Some(sched) = &res.schedule {
            sched.verify(&m).expect("witness verifies");
            let prog = modulo_to_vliw(sched, "fuzz_exact_narrow");
            check_prog(&spec, &prog, "exact-narrow");
        }
    });
}
