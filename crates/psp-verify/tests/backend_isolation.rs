//! The validators rebuild their matrices on the sparse reference backend
//! without touching the process-global backend flag, so a validation
//! running on one thread cannot change the representation another thread's
//! matrices are built in.

use psp_core::{pipeline_loop, PspConfig};
use psp_machine::MachineConfig;
use psp_predicate::{backend, PredicateMatrix};
use psp_verify::validate_schedule;
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
fn concurrent_validation_leaves_the_global_backend_alone() {
    let wide = MachineConfig::paper_default();
    let results: Vec<_> = psp_kernels::all_kernels()
        .into_iter()
        .map(|k| {
            let res = pipeline_loop(&k.spec, &PspConfig::with_machine(wide.clone()))
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            (k, res.schedule)
        })
        .collect();
    assert!(backend::is_packed(), "packed is the default backend");

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..20 {
                for (k, sched) in &results {
                    let v = validate_schedule(&k.spec, &wide, sched);
                    assert!(v.is_empty(), "{}: {v:?}", k.name);
                }
            }
            done.store(true, Ordering::Release);
        });
        let mut polls = 0u64;
        while !done.load(Ordering::Acquire) {
            assert!(
                backend::is_packed(),
                "backend flipped to sparse after {polls} polls"
            );
            assert!(
                PredicateMatrix::single(0, 0, true).is_word_packed(),
                "a new matrix came out sparse after {polls} polls"
            );
            polls += 1;
        }
    });
    assert!(backend::is_packed());
}
