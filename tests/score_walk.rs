//! The steady-state walk is the only scorer (paper §3 picks each
//! transformation by the II of the code it would produce; §4 weights the
//! paths by a branch profile). These suites hold it to the generated
//! program and to the simulator:
//!
//! - `walk_scores_match_the_generated_program` is the walk's executable
//!   specification: on every schedule it is shown, its maximal II is the
//!   generated loop's `ii_range` maximum, and its expected II equals an
//!   outcome enumeration over the generated loop's block matrices;
//! - `expected_ii_matches_the_simulator_on_abs_sum` pins the §4 score of a
//!   loop whose short path returns to the loop head straight from a
//!   branching block;
//! - `past_the_path_cap_pipelining_fails_with_the_named_error` pins the
//!   walk's one limit.

use psp::core::codegen::MAX_WALK_PATHS;
use psp::core::compact::compact_ext;
use psp::core::heuristics::score_schedule;
use psp::core::{transform, CodegenError, Transformation};
use psp::predicate::OutcomeMap;
use psp::prelude::*;
use psp::verify::grammar::{self, SplitMix64};
use std::collections::HashSet;

/// A skewed, row-distinct profile, so the expected II is not a plain mean.
fn profile() -> Vec<f64> {
    (0..16)
        .map(|row| ((row * 3 + 1) % 9 + 1) as f64 / 10.0)
        .collect()
}

/// The expected II of a generated loop by outcome enumeration. For each
/// assignment of the keys its block matrices constrain, start at the
/// steady entry that admits it and follow, block by block, the forward
/// successor whose matrix admits it; a back edge ends the iteration when
/// none does. Keys no block constrains cannot change a path's II, so
/// leaving them out only merges paths of equal II.
fn enumerated_expected_ii(prog: &VliwLoop, probs: &[f64]) -> f64 {
    let mut keys: Vec<(u32, i32)> = prog
        .blocks
        .iter()
        .flat_map(|b| b.matrix.constrained().map(|(r, c, _)| (r, c)))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    assert!(
        keys.len() <= 20,
        "{} keys: too many to enumerate",
        keys.len()
    );
    let entries = prog.steady_entries();
    let (mut num, mut den) = (0.0, 0.0);
    for bits in 0u32..1 << keys.len() {
        let mut outcomes = OutcomeMap::new();
        let mut w = 1.0;
        for (i, &(r, c)) in keys.iter().enumerate() {
            let v = bits >> i & 1 == 1;
            outcomes.set(r, c, v);
            let p = probs.get(r as usize).copied().unwrap_or(0.5);
            w *= if v { p } else { 1.0 - p };
        }
        // An assignment no steady entry admits only starts the loop.
        let Some(&entry) = entries
            .iter()
            .find(|&&e| prog.blocks[e].matrix.admits(&outcomes))
        else {
            continue;
        };
        let mut block = entry;
        let mut cycles = 0;
        loop {
            cycles += prog.blocks[block].cycles.len();
            let succs = prog.blocks[block].term.succs();
            let forward = succs
                .iter()
                .find(|s| !s.back_edge && prog.blocks[s.block].matrix.admits(&outcomes));
            match forward {
                Some(s) => block = s.block,
                None => {
                    assert!(
                        succs.iter().any(|s| s.back_edge),
                        "{}: no successor of B{block} admits the outcomes",
                        prog.name
                    );
                    break;
                }
            }
        }
        num += w * cycles as f64;
        den += w;
    }
    num / den
}

/// Tallies of what the executable specification saw.
#[derive(Default)]
struct Seen {
    generated: usize,
    refused_by_both: usize,
    refused_by_codegen: usize,
}

/// Hold the walk's two objectives to the generated program of `sched`.
fn check(sched: &Schedule, machine: &MachineConfig, what: &str, seen: &mut Seen) {
    let probs = profile();
    let max = score_schedule(sched, None);
    let expected = score_schedule(sched, Some(&probs));
    match generate(sched, machine) {
        Ok(prog) => {
            seen.generated += 1;
            let (_, hi) = prog
                .ii_range()
                .unwrap_or_else(|| panic!("{what}: generated loop has no II range"));
            let max = max.unwrap_or_else(|e| panic!("{what}: walk failed ({e})"));
            assert_eq!(max.primary, hi as f64, "{what}: maximal II");
            let walked = expected.unwrap_or_else(|e| panic!("{what}: walk failed ({e})"));
            let reference = enumerated_expected_ii(&prog, &probs);
            assert!(
                (walked.primary - reference).abs() <= 1e-12,
                "{what}: expected II {} by the walk, {reference} by enumeration",
                walked.primary
            );
        }
        Err(_) if max.is_err() => {
            assert_eq!(max, expected, "{what}: the objectives fail alike");
            seen.refused_by_both += 1;
        }
        Err(_) => seen.refused_by_codegen += 1,
    }
}

/// The initial, compacted and final schedule of `spec` on `machine`, plus
/// every row-0 wrap (recompacted) of the final schedule.
fn check_loop(spec: &LoopSpec, machine: &MachineConfig, seen: &mut Seen) {
    let name = &spec.name;
    let initial = Schedule::initial(spec);
    check(&initial, machine, &format!("{name} initial"), seen);
    let mut compacted = initial;
    compact_ext(&mut compacted, machine, true);
    check(&compacted, machine, &format!("{name} compacted"), seen);
    let Ok(res) = pipeline_loop(spec, &PspConfig::with_machine(machine.clone())) else {
        return;
    };
    check(&res.schedule, machine, &format!("{name} final"), seen);
    let row0: Vec<_> = res.schedule.rows[0].iter().map(|i| i.id).collect();
    for id in row0 {
        let mut wrapped = res.schedule.clone();
        if transform::apply(&mut wrapped, &Transformation::WrapUp { id }, machine).is_ok() {
            compact_ext(&mut wrapped, machine, true);
            check(
                &wrapped,
                machine,
                &format!("{name} final + wrap {id:?}"),
                seen,
            );
        }
    }
}

/// The E12 `fuzz` corpus: the first 96 distinct grammar loops of the
/// fixed seed.
fn fuzz_corpus() -> Vec<LoopSpec> {
    let mut rng = SplitMix64(0xE12);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    while out.len() < 96 {
        let body = grammar::random_body(&mut rng);
        if seen.insert(grammar::to_source(&body)) {
            let mut spec = grammar::build_spec(&body);
            spec.name = format!("fuzz{}", out.len());
            out.push(spec);
        }
    }
    out
}

#[test]
fn walk_scores_match_the_generated_program() {
    let machines = [
        MachineConfig::paper_default(),
        MachineConfig::narrow(2, 1, 1),
    ];
    let mut loops: Vec<LoopSpec> = all_kernels().into_iter().map(|k| k.spec).collect();
    loops.extend((4..=8).map(psp_bench::synthetic));
    loops.extend(fuzz_corpus());
    let mut seen = Seen::default();
    for spec in &loops {
        for machine in &machines {
            check_loop(spec, machine, &mut seen);
        }
    }
    // The corpus must exercise both outcomes, or the spec proves little.
    assert!(seen.generated > 1000, "{} generated", seen.generated);
    assert!(seen.refused_by_both > 0, "no schedule the walk refuses");
}

/// `abs_sum` on `n` elements, a fraction `q` of them negative, at random
/// positions.
fn abs_sum_input(kernel: &Kernel, n: usize, q: f64) -> MachineState {
    let mut rng = SplitMix64(7);
    let negatives = (q * n as f64).round() as usize;
    let mut x: Vec<i64> = (0..n)
        .map(|i| {
            let v = 1 + rng.below(100) as i64;
            if i < negatives {
                -v
            } else {
                v
            }
        })
        .collect();
    for i in (1..n).rev() {
        x.swap(i, rng.below(i + 1));
    }
    let data = KernelData {
        x,
        ..KernelData::random(7, n)
    };
    kernel.initial_state(&data)
}

#[test]
fn expected_ii_matches_the_simulator_on_abs_sum() {
    // The short path (x ≥ 0) leaves the branching block straight for the
    // loop head; a negative element costs one more cycle. A scorer that
    // weights that path by its whole branching block, not by the branch
    // outcome, scores 1.0909, 1.3333 and 1.4444 here.
    let kernel = by_name("abs_sum").unwrap();
    for q in [0.1, 0.5, 0.8] {
        let cfg = PspConfig {
            probs: Some(vec![q]),
            ..PspConfig::default()
        };
        let res = pipeline_loop(&kernel.spec, &cfg).unwrap();
        assert_eq!(res.program.ii_range(), Some((1, 2)), "q = {q}");
        assert!(
            (res.score.primary - (1.0 + q)).abs() < 1e-12,
            "q = {q}: scored {}",
            res.score.primary
        );
        let init = abs_sum_input(&kernel, 20_000, q);
        let (_, run) = check_equivalence(&kernel.spec, &res.program, &init, 1_000_000).unwrap();
        let measured = run.cycles_per_iteration();
        assert!(
            (res.score.primary - measured).abs() < 0.02,
            "q = {q}: scored {}, simulated {measured} cycles/iteration",
            res.score.primary
        );
    }
}

#[test]
fn past_the_path_cap_pipelining_fails_with_the_named_error() {
    // 19 independent IFs: 2^19 steady-state paths, past the 2^18 cap. The
    // walk refuses the loop before any code is generated.
    let spec = psp_bench::synthetic(19);
    let err = pipeline_loop(&spec, &PspConfig::default()).unwrap_err();
    assert_eq!(err, CodegenError::TooManyPaths(MAX_WALK_PATHS));
    assert!(err.to_string().contains("MAX_WALK_PATHS"), "{err}");
}
