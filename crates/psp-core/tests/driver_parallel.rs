//! Determinism cross-checks for the parallel, pruned driver.
//!
//! The candidate search evaluates trials concurrently and defers code
//! generation, but its *results* must be bit-identical to the plain
//! sequential scan: same transformation counts, same final II, same
//! generated program text, for every kernel and every thread count.

use psp_core::driver::{pipeline_loop, PspConfig, PspResult};
use psp_kernels::all_kernels;

/// The observable outcome of a run: everything that must not depend on
/// thread count or pruning. (Timers are excluded by construction — see
/// `PspStats::counters`.)
fn observe(res: &PspResult) -> (Vec<usize>, Option<(usize, usize)>, String, String) {
    (
        res.stats.counters().to_vec(),
        res.program.ii_range(),
        res.program.to_string(),
        res.schedule.render(),
    )
}

#[test]
fn parallel_matches_sequential_on_all_kernels() {
    for kernel in all_kernels() {
        let seq = pipeline_loop(&kernel.spec, &PspConfig::default().sequential())
            .unwrap_or_else(|e| panic!("{} (sequential): {e}", kernel.name));
        for threads in [0, 2, 3] {
            let cfg = PspConfig {
                threads,
                ..PspConfig::default()
            };
            let par = pipeline_loop(&kernel.spec, &cfg)
                .unwrap_or_else(|e| panic!("{} (threads={threads}): {e}", kernel.name));
            assert_eq!(
                observe(&seq),
                observe(&par),
                "{}: threads={threads} diverged from the sequential driver",
                kernel.name
            );
        }
    }
}

#[test]
fn probability_mode_is_thread_count_invariant() {
    let kernel = psp_kernels::by_name("skewed").unwrap();
    let mk = |threads: usize| PspConfig {
        threads,
        probs: Some(vec![0.1]),
        ..PspConfig::default()
    };
    let seq = pipeline_loop(&kernel.spec, &mk(1)).unwrap();
    let par = pipeline_loop(&kernel.spec, &mk(0)).unwrap();
    assert_eq!(observe(&seq), observe(&par));
}
