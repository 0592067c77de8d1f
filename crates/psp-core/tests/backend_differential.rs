//! Packed-vs-sparse backend differential over the full kernel suite.
//!
//! The packed bitplane algebra is a pure representation change: for every
//! kernel, pipelining under the packed backend must produce the same
//! transformation counters, the same final II, the same generated program
//! text, the same schedule rendering and the same predicate-op counts as
//! the sparse reference backend (the same observable surface
//! `driver_parallel.rs` pins across thread counts). The backend is a
//! per-thread choice, so the driver must hand it to its worker threads: a
//! sparse run stays sparse at every thread count.

use psp_core::driver::{pipeline_loop, PspConfig, PspResult};
use psp_kernels::all_kernels;
use psp_predicate::backend::with_backend;
use psp_predicate::PredOpStats;

type Observed = (
    Vec<usize>,
    Option<(usize, usize)>,
    String,
    String,
    PredOpStats,
);

fn observe(res: &PspResult) -> Observed {
    (
        res.stats.counters().to_vec(),
        res.program.ii_range(),
        res.program.to_string(),
        res.schedule.render(),
        res.stats.pred,
    )
}

#[test]
fn packed_matches_sparse_on_all_kernels() {
    for kernel in all_kernels() {
        for (label, cfg) in [
            ("default", PspConfig::default()),
            (
                "one thread",
                PspConfig {
                    threads: 1,
                    ..PspConfig::default()
                },
            ),
        ] {
            let packed = with_backend(true, || pipeline_loop(&kernel.spec, &cfg))
                .unwrap_or_else(|e| panic!("{} (packed, {label}): {e}", kernel.name));
            let sparse = with_backend(false, || pipeline_loop(&kernel.spec, &cfg))
                .unwrap_or_else(|e| panic!("{} (sparse, {label}): {e}", kernel.name));
            assert_eq!(
                observe(&packed),
                observe(&sparse),
                "{} ({label}): packed backend diverged from the sparse reference",
                kernel.name
            );
        }
    }
}

#[test]
fn sparse_run_stays_sparse_on_worker_threads() {
    // Trial schedules, step winners included, are built on worker threads
    // and must follow the caller's backend.
    let cfg = PspConfig {
        threads: 2,
        ..PspConfig::default()
    };
    for kernel in all_kernels() {
        let res = with_backend(false, || pipeline_loop(&kernel.spec, &cfg))
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        let formals = res.schedule.instances().map(|i| &i.formal);
        let blocks = res.program.blocks.iter().map(|b| &b.matrix);
        assert!(
            !formals.chain(blocks).any(|m| m.is_word_packed()),
            "{}: a worker built a packed matrix",
            kernel.name
        );
    }
}
