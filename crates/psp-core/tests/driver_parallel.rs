//! Determinism cross-checks for the parallel driver.
//!
//! The candidate search evaluates trials concurrently, but its *results*
//! must be bit-identical to a one-thread run: same transformation counts,
//! same final II, same
//! generated program text, for every kernel and every thread count. The
//! run's predicate-op counts (`PspStats::pred`) must not depend on the
//! thread count either, nor on other runs in the same process.

use psp_core::driver::{pipeline_loop, PspConfig, PspResult};
use psp_kernels::{all_kernels, by_name};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The observable outcome of a run: everything that must not depend on
/// thread count. (Timers are excluded by construction — see
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
    let mk = |threads: usize| PspConfig {
        threads,
        ..PspConfig::default()
    };
    for kernel in all_kernels() {
        let seq = pipeline_loop(&kernel.spec, &mk(1))
            .unwrap_or_else(|e| panic!("{} (threads=1): {e}", kernel.name));
        for threads in [0, 2, 3] {
            let par = pipeline_loop(&kernel.spec, &mk(threads))
                .unwrap_or_else(|e| panic!("{} (threads={threads}): {e}", kernel.name));
            assert_eq!(
                observe(&seq),
                observe(&par),
                "{}: threads={threads} diverged from the one-thread driver",
                kernel.name
            );
            assert_eq!(
                seq.stats.pred, par.stats.pred,
                "{}: threads={threads} counted other predicate work",
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
    assert_eq!(seq.stats.pred, par.stats.pred);
}

#[test]
fn pred_counts_ignore_a_concurrent_caller() {
    let kernel = by_name("vecmin").unwrap();
    let other = by_name("bubble_pass").unwrap();
    let cfg = PspConfig::default();
    let alone = pipeline_loop(&kernel.spec, &cfg).unwrap().stats.pred;
    assert!(alone.disjoint_tests > 0);

    let stop = AtomicBool::new(false);
    let other_runs = AtomicUsize::new(0);
    let seen = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                pipeline_loop(&other.spec, &cfg).unwrap();
                other_runs.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Keep measuring until the other thread has finished a few runs
        // of its own, so the two overlap whatever the scheduler does.
        let mut seen = Vec::new();
        while seen.len() < 8 || other_runs.load(Ordering::Relaxed) < 3 {
            seen.push(pipeline_loop(&kernel.spec, &cfg).unwrap().stats.pred);
        }
        stop.store(true, Ordering::Relaxed);
        seen
    });
    for pred in seen {
        assert_eq!(pred, alone, "another thread's work leaked into this run");
    }
}

#[test]
fn concurrent_runs_at_two_threads_match_one_thread() {
    let kernels: Vec<_> = ["vecmin", "bubble_pass", "skewed", "abs_sum"]
        .iter()
        .map(|name| by_name(name).unwrap())
        .collect();
    let mk = |threads: usize| PspConfig {
        threads,
        ..PspConfig::default()
    };
    let seq: Vec<_> = kernels
        .iter()
        .map(|k| pipeline_loop(&k.spec, &mk(1)).unwrap())
        .collect();
    // Four callers, each with its own pool, start together and run every
    // kernel in a different order.
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for caller in 0..4 {
            let (kernels, seq, start) = (&kernels, &seq, &start);
            s.spawn(move || {
                start.wait();
                for j in 0..kernels.len() {
                    let k = (caller + j) % kernels.len();
                    let par = pipeline_loop(&kernels[k].spec, &mk(2)).unwrap();
                    let name = kernels[k].name;
                    assert_eq!(observe(&seq[k]), observe(&par), "{name}: caller {caller}");
                    assert_eq!(seq[k].stats.pred, par.stats.pred, "{name}: caller {caller}");
                    assert_eq!(
                        seq[k].stats.pruned, par.stats.pruned,
                        "{name}: caller {caller}"
                    );
                }
            });
        }
    });
}
