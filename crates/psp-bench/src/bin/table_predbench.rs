//! Experiment E10 — the predicate-algebra microbench and backend
//! comparison.
//!
//! Three sections, each run under both backends (packed bitplanes vs the
//! sparse `BTreeMap` reference, selected via `psp_predicate::backend`):
//!
//! 1. **micro** — per-op latency of `conjoin`/`is_disjoint`/`subsumes`/
//!    `shifted` over a deterministic corpus of scheduler-shaped matrices;
//! 2. **kernels** — end-to-end `pipeline_loop` wall time per kernel, with
//!    the run's predicate-op counters;
//! 3. **scaling** — the synthetic conditional-block family of `table_cost`
//!    (the b=8 point is the headline: predicate work dominates there).
//!
//! Every end-to-end pair is also a differential check: the deterministic
//! counters and the predicate-op counts of the two backends must match
//! exactly. `--json` writes BENCH_pred.json; `--smoke` trims the corpus
//! and the scaling sweep for the time-boxed CI job.

use psp_bench::synthetic;
use psp_core::{json_object, pipeline_loop, PspConfig};
use psp_kernels::all_kernels;
use psp_predicate::backend::with_backend;
use psp_predicate::PredicateMatrix;
use std::time::Instant;

/// Deterministic corpus: entry lists shaped like scheduler formals (few
/// constrained elements, small rows, columns clustered near 0). With
/// `outside`, keys also fall past the packed window. A plain LCG keeps the
/// binary dependency-free and the corpus identical across backends and
/// runs.
fn corpus_entries(n: usize, outside: bool) -> Vec<Vec<(u32, i32, bool)>> {
    let mut state = 0x243F6A8885A308D3u64;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    (0..n)
        .map(|_| {
            let len = next(6) as usize + 1;
            (0..len)
                .map(|_| {
                    let row = next(if outside { 10 } else { 5 }) as u32;
                    let col =
                        next(if outside { 24 } else { 8 }) as i32 - if outside { 12 } else { 4 };
                    (row, col, next(2) == 1)
                })
                .collect()
        })
        .collect()
}

fn build(packed: bool, entries: &[Vec<(u32, i32, bool)>]) -> Vec<PredicateMatrix> {
    with_backend(packed, || {
        entries
            .iter()
            .map(|e| PredicateMatrix::from_entries(e.iter().copied()))
            .collect()
    })
}

/// ns/op over all ordered pairs of the corpus, repeated `reps` times.
fn time_pairs(
    ms: &[PredicateMatrix],
    reps: usize,
    mut f: impl FnMut(&PredicateMatrix, &PredicateMatrix),
) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        for a in ms {
            for b in ms {
                f(a, b);
            }
        }
    }
    t0.elapsed().as_nanos() as f64 / (reps * ms.len() * ms.len()) as f64
}

fn time_each(ms: &[PredicateMatrix], reps: usize, mut f: impl FnMut(&PredicateMatrix)) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        for a in ms {
            f(a);
        }
    }
    t0.elapsed().as_nanos() as f64 / (reps * ms.len()) as f64
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let smoke = std::env::args().any(|a| a == "--smoke");

    println!("E10 — predicate algebra: packed bitplanes vs sparse reference\n");

    // ---- 1. micro ops ----
    let (n_mats, reps) = if smoke { (24, 20) } else { (48, 200) };
    let entries = corpus_entries(n_mats, !smoke);
    let packed_ms = build(true, &entries);
    let sparse_ms = build(false, &entries);

    println!(
        "{:<14} {:>12} {:>12} {:>9}",
        "op", "sparse ns", "packed ns", "speedup"
    );
    let mut micro = Vec::new();
    let mut sink = 0usize; // defeat dead-code elimination
    let mut row = |op: &str, sparse_ns: f64, packed_ns: f64| {
        let speedup = sparse_ns / packed_ns;
        println!("{op:<14} {sparse_ns:>12.1} {packed_ns:>12.1} {speedup:>8.2}x");
        micro.push(json_object! {
            "op": op, "sparse_ns": sparse_ns, "packed_ns": packed_ns, "speedup": speedup,
        });
    };
    let s = time_pairs(&sparse_ms, reps, |a, b| sink += a.is_disjoint(b) as usize);
    let p = time_pairs(&packed_ms, reps, |a, b| sink += a.is_disjoint(b) as usize);
    row("is_disjoint", s, p);
    let s = time_pairs(&sparse_ms, reps, |a, b| sink += a.subsumes(b) as usize);
    let p = time_pairs(&packed_ms, reps, |a, b| sink += a.subsumes(b) as usize);
    row("subsumes", s, p);
    // `conjoin` and `shifted` build matrices, and a result is built in its
    // thread's backend: the sparse column runs them on the sparse one.
    let s = with_backend(false, || {
        time_pairs(&sparse_ms, reps, |a, b| {
            sink += a.conjoin(b).is_some() as usize
        })
    });
    let p = time_pairs(&packed_ms, reps, |a, b| {
        sink += a.conjoin(b).is_some() as usize
    });
    row("conjoin", s, p);
    let s = with_backend(false, || {
        time_each(&sparse_ms, reps * 8, |a| {
            sink += a.shifted(1).constrained_len()
        })
    });
    let p = time_each(&packed_ms, reps * 8, |a| {
        sink += a.shifted(1).constrained_len()
    });
    row("shifted", s, p);
    assert!(sink > 0);

    // Differential spot check on the corpus itself.
    for (a, b) in packed_ms.iter().zip(&sparse_ms) {
        assert_eq!(a, b, "corpus diverged between backends");
    }

    // ---- 2. end-to-end kernels ----
    println!("\nend-to-end pipeline_loop per kernel (wall ms, identical results asserted):");
    println!(
        "{:<16} {:>11} {:>11} {:>9} {:>12} {:>10}",
        "kernel", "sparse ms", "packed ms", "speedup", "disj tests", "conjoins"
    );
    let cfg = PspConfig::default();
    let kernels = all_kernels();
    let kernels = if smoke { &kernels[..3] } else { &kernels[..] };
    let runs = if smoke { 1 } else { 3 };
    let mut kernel_records = Vec::new();
    let mut worst_ratio = f64::MAX;
    for kernel in kernels {
        let mut sparse_ms_best = f64::MAX;
        let mut packed_ms_best = f64::MAX;
        let mut sparse_res = None;
        let mut packed_res = None;
        for _ in 0..runs {
            let t = Instant::now();
            let r = with_backend(false, || pipeline_loop(&kernel.spec, &cfg)).expect("pipelines");
            sparse_ms_best = sparse_ms_best.min(t.elapsed().as_secs_f64() * 1e3);
            sparse_res = Some(r);
            let t = Instant::now();
            let r = with_backend(true, || pipeline_loop(&kernel.spec, &cfg)).expect("pipelines");
            packed_ms_best = packed_ms_best.min(t.elapsed().as_secs_f64() * 1e3);
            packed_res = Some(r);
        }
        let (sparse_res, packed_res) = (sparse_res.unwrap(), packed_res.unwrap());
        assert_eq!(
            sparse_res.stats.counters(),
            packed_res.stats.counters(),
            "{}: backends diverged",
            kernel.name
        );
        assert_eq!(sparse_res.program.ii_range(), packed_res.program.ii_range());
        assert_eq!(
            sparse_res.stats.pred, packed_res.stats.pred,
            "{}: pred diverged",
            kernel.name
        );
        let speedup = sparse_ms_best / packed_ms_best;
        worst_ratio = worst_ratio.min(speedup);
        let pred = &packed_res.stats.pred;
        println!(
            "{:<16} {:>11.3} {:>11.3} {:>8.2}x {:>12} {:>10}",
            kernel.name,
            sparse_ms_best,
            packed_ms_best,
            speedup,
            pred.disjoint_tests,
            pred.conjoins,
        );
        kernel_records.push(json_object! {
            "kernel": kernel.name, "sparse_ms": sparse_ms_best, "packed_ms": packed_ms_best,
            "speedup": speedup, "pred": pred,
        });
    }
    println!("worst kernel speedup: {worst_ratio:.2}x");

    // ---- 3. synthetic scaling ----
    println!("\nscaling (synthetic loops, b conditional blocks):");
    println!(
        "{:<4} {:>11} {:>11} {:>9} {:>12}",
        "b", "sparse ms", "packed ms", "speedup", "disj tests"
    );
    let blocks: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 6, 8] };
    let mut scaling_records = Vec::new();
    for &b in blocks {
        let spec = synthetic(b);
        let t = Instant::now();
        let sparse = with_backend(false, || pipeline_loop(&spec, &cfg)).expect("pipelines");
        let sparse_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let packed = with_backend(true, || pipeline_loop(&spec, &cfg)).expect("pipelines");
        let packed_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            sparse.stats.counters(),
            packed.stats.counters(),
            "b={b}: diverged"
        );
        assert_eq!(sparse.program.ii_range(), packed.program.ii_range());
        assert_eq!(sparse.stats.pred, packed.stats.pred, "b={b}: pred diverged");
        let pred = &packed.stats.pred;
        println!(
            "{:<4} {:>11.2} {:>11.2} {:>8.2}x {:>12}",
            b,
            sparse_ms,
            packed_ms,
            sparse_ms / packed_ms,
            pred.disjoint_tests,
        );
        scaling_records.push(json_object! {
            "blocks": b, "sparse_ms": sparse_ms, "packed_ms": packed_ms,
            "speedup": sparse_ms / packed_ms, "pred": pred,
        });
    }

    if json {
        let doc = json_object! {
            "micro": micro, "kernels": kernel_records, "scaling": scaling_records,
        };
        std::fs::write("BENCH_pred.json", doc.document()).expect("write BENCH_pred.json");
        println!("wrote BENCH_pred.json");
    }
}
