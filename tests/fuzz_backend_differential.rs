//! Differential fuzzing of the packed predicate backend: random loops with
//! (nested) conditions must pipeline to bit-identical results, with the
//! same predicate-op counts, under the packed bitplane algebra and the
//! sparse reference algebra, and the
//! packed-compiled program must stay observationally equivalent to the
//! source loop. The loop generator is shared with the other fuzz suites
//! (`tests/common/mod.rs`); its nesting depth also drives matrices past
//! the packed column window, exercising the spill path end to end.

mod common;

use common::*;
use proptest::prelude::*;
use psp::predicate::backend::with_backend;
use psp::prelude::*;
use psp::verify::grammar::build_spec;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: CASES,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    #[test]
    fn packed_and_sparse_backends_pipeline_identically(body in arb_body()) {
        let spec = build_spec(&body);
        let cfg = PspConfig::default();
        let packed = with_backend(true, || pipeline_loop(&spec, &cfg));
        let sparse = with_backend(false, || pipeline_loop(&spec, &cfg));
        match (packed, sparse) {
            (Ok(p), Ok(s)) => {
                prop_assert_eq!(p.stats.counters(), s.stats.counters());
                prop_assert_eq!(p.stats.pred, s.stats.pred);
                prop_assert_eq!(p.program.ii_range(), s.program.ii_range());
                prop_assert_eq!(p.program.to_string(), s.program.to_string());
                prop_assert_eq!(p.schedule.render(), s.schedule.render());
                check_prog(&spec, &p.program, "psp-packed");
            }
            (Err(p), Err(s)) => prop_assert_eq!(p.to_string(), s.to_string()),
            (p, s) => prop_assert!(
                false,
                "backends diverged: packed ok={} sparse ok={}",
                p.is_ok(),
                s.is_ok()
            ),
        }
    }
}
