//! The validators (`validate_schedule`, `validate_modulo` and the entry
//! contract of `validate_vliw`) compute on the sparse reference backend
//! whatever the calling thread selects. Each one runs its matrix work inside
//! `with_backend(false, ..)` and rebuilds its input matrices there with
//! `from_entries`, and a debug assertion on every rebuilt copy fails if a
//! copy comes out packed. So in this (debug) test, validating on a packed
//! thread shows that the validators see only sparse matrices. The backend
//! flag belongs to the thread, so the caller's backend and its own
//! matrices come out as the caller chose, before and after validation.

use psp_core::{pipeline_loop, PspConfig};
use psp_machine::MachineConfig;
use psp_predicate::backend::{is_packed, with_backend};
use psp_predicate::PredicateMatrix;
use psp_verify::{validate_modulo, validate_schedule, validate_vliw};

#[test]
fn validation_leaves_the_callers_backend_alone() {
    let wide = MachineConfig::paper_default();
    let results: Vec<_> = psp_kernels::all_kernels()
        .into_iter()
        .map(|k| {
            let res = pipeline_loop(&k.spec, &PspConfig::with_machine(wide.clone()))
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            (k, res.schedule, res.program)
        })
        .collect();
    assert!(is_packed(), "packed is the default backend");
    assert!(
        results
            .iter()
            .flat_map(|(_, s, _)| s.rows.iter().flatten())
            .all(|i| i.formal.is_word_packed()),
        "the kernel schedules carry packed matrices"
    );

    for packed in [true, false] {
        with_backend(packed, || {
            for (k, sched, prog) in &results {
                let v = validate_schedule(&k.spec, &wide, sched);
                assert!(v.is_empty(), "{}: {v:?}", k.name);
                let v = validate_vliw(&k.spec, &wide, prog);
                assert!(v.is_empty(), "{}: {v:?}", k.name);
                let mut ic = psp_opt::if_convert(&k.spec);
                psp_opt::rename_inductions(&mut ic.ops, &mut ic.spec);
                let ems = psp_baselines::modulo_schedule(&k.spec, &wide);
                let v = validate_modulo(&ic.spec.live_out, &wide, &ems);
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
