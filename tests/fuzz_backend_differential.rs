//! Differential fuzzing of the packed predicate backend: random loops with
//! (nested) conditions must pipeline to bit-identical results, with the
//! same predicate-op counts, under the packed bitplane algebra and the
//! sparse reference algebra, and the
//! packed-compiled program must stay observationally equivalent to the
//! source loop. The loop generator is shared with the other fuzz suites
//! (`tests/common/mod.rs`); its nesting depth also drives matrices past
//! the packed column window, so matrices that turn sparse mid-run are
//! exercised end to end.

mod common;

use common::*;
use psp::predicate::backend::with_backend;
use psp::prelude::*;
use psp::verify::grammar::build_spec;

#[test]
fn packed_and_sparse_backends_pipeline_identically() {
    let name = "packed_and_sparse_backends_pipeline_identically";
    check_cases(name, CASES, |rng| {
        let spec = build_spec(&random_body(rng));
        let cfg = PspConfig::default();
        let packed = with_backend(true, || pipeline_loop(&spec, &cfg));
        let sparse = with_backend(false, || pipeline_loop(&spec, &cfg));
        match (packed, sparse) {
            (Ok(p), Ok(s)) => {
                assert_eq!(p.stats.counters(), s.stats.counters());
                assert_eq!(p.stats.pred, s.stats.pred);
                assert_eq!(p.program.ii_range(), s.program.ii_range());
                assert_eq!(p.program.to_string(), s.program.to_string());
                assert_eq!(p.schedule.render(), s.schedule.render());
                check_prog(&spec, &p.program, "psp-packed");
            }
            (Err(p), Err(s)) => assert_eq!(p.to_string(), s.to_string()),
            (p, s) => panic!(
                "backends diverged: packed ok={} sparse ok={}",
                p.is_ok(),
                s.is_ok()
            ),
        }
    });
}
