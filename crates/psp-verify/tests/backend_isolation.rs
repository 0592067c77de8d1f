//! The validators rebuild their matrices on the sparse reference backend
//! without switching the calling thread's backend, so a caller's matrices
//! come out in the representation it chose, before and after validation.

use psp_core::{pipeline_loop, PspConfig};
use psp_machine::MachineConfig;
use psp_predicate::backend::{is_packed, with_backend};
use psp_predicate::PredicateMatrix;
use psp_verify::validate_schedule;

#[test]
fn validation_leaves_the_callers_backend_alone() {
    let wide = MachineConfig::paper_default();
    let results: Vec<_> = psp_kernels::all_kernels()
        .into_iter()
        .map(|k| {
            let res = pipeline_loop(&k.spec, &PspConfig::with_machine(wide.clone()))
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            (k, res.schedule)
        })
        .collect();
    assert!(is_packed(), "packed is the default backend");

    for packed in [true, false] {
        with_backend(packed, || {
            for (k, sched) in &results {
                let v = validate_schedule(&k.spec, &wide, sched);
                assert!(v.is_empty(), "{}: {v:?}", k.name);
                assert_eq!(
                    is_packed(),
                    packed,
                    "{}: validation switched backends",
                    k.name
                );
                assert_eq!(
                    PredicateMatrix::single(0, 0, true).is_word_packed(),
                    packed,
                    "{}: a new matrix came out in the other backend",
                    k.name
                );
            }
        });
    }
    assert!(is_packed());
}
