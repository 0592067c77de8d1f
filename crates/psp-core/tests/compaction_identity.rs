//! Cross-commit identity fence for the scheduler.
//!
//! Compaction and the transformations it drives are deterministic: a
//! change that only makes them faster must leave every decision, every
//! committed rename's fresh register, and every predicate test exactly
//! where it was.
//! The other suites compare runs *within* one build (thread counts,
//! backends, engines); this one pins literal values recorded from a
//! known-good build, so a drift between commits fails here.
//!
//! For each loop and machine it records, from `pipeline_loop`:
//! `stats.counters()`, the run's `disjoint_tests` and `subsume_tests`, and
//! the final schedule's register count, row count and instance count.
//! A second table pins the §4 profile objective: for each kernel on the
//! paper machine, scheduled under a fixed branch profile, the final
//! score's bits, `stats.counters()` and the generated loop's II range,
//! plus the bits of the unscheduled schedule's expected II under the same
//! profile (its paths have unequal IIs, so every path weight counts).
//! A deliberate behaviour change re-pins a table: the failure message
//! prints the whole observed table in source form.

use psp_core::driver::{pipeline_loop, PspConfig};
use psp_core::heuristics::score_schedule;
use psp_core::schedule::Schedule;
use psp_ir::LoopSpec;
use psp_kernels::synthetic;
use psp_machine::MachineConfig;

/// `(loop, machine, counters, disjoint_tests, subsume_tests, n_regs,
/// n_rows, n_instances)`.
type Row = (
    &'static str,
    &'static str,
    [usize; 5],
    u64,
    u64,
    u32,
    usize,
    usize,
);

/// Recorded before compaction's inner loop was made allocation-free; the
/// predicate-test columns were re-recorded when every candidate came to be
/// scored by the steady-state walk (the seed and deepened schedules are now
/// walked as well as generated, and a trial the walk refuses no longer
/// runs code generation to fail), and again when the walk came to merge
/// paths with equal futures and code generation to check each placement
/// once against the placements before it, and again when compaction came
/// to skip moveups whose refusal still held and to check latencies only
/// for producers slower than one cycle. find_first's rows were re-recorded
/// when the preloop came to count live-out registers as read at each loop
/// exit, which refuses some of its intermediate schedules; its II range
/// did not move. The candidates and predicate-test columns were
/// re-recorded when splits came to target only instances that block the
/// mover. When the preloop came to let a guarded write kill the reads its
/// formal subsumes (a subsumption test per earlier writer of each read
/// register), and compaction to count a slot per subtree of a row's own
/// IF, the subsume_tests of every row moved; so did the
/// disjoint_tests of vecmin, abs_sum, two_cond and skewed on narrow211 and
/// of runmax on both machines, whose searches visit different schedules.
/// clamp_store, sign_store, threshold_store and bubble_pass on narrow211
/// moved whole: the seed fallback chain went and each now seeds from its
/// compacted schedule (threshold_store's final schedule has 3 rows, not 4).
/// The n_regs column went down on 13 narrow211 rows and on synthetic6 on
/// paper when a refused move stopped taking a fresh register: only a
/// committed rename draws one now.
/// When a renamed moveup's leftover `COPY` came to take the mover's own
/// slot, 13 narrow211 rows and bubble_pass on paper moved: more renamed
/// moves succeed, in the seeds and in the trials. vecmin, find_first,
/// clamp_store, sign_store, threshold_store and mac_cond on narrow211 end
/// with one more register (a rename that was refused now commits); no
/// row count moved.
/// When latency came to be a rule on each path of the generated code and
/// the refusal memo stopped forgetting, at every move, the refusals that
/// reached the latency check, compaction re-planned fewer instances: the
/// disjoint_tests of clamp_store, sat_add, two_cond, dot_cond, bubble_pass,
/// synthetic4 and synthetic6 on narrow211 went down (clamp_store's
/// subsume_tests too); every schedule and counter stayed the same.
/// When code generation came to place instances on the blocks of the
/// schedule walk, which tests each instance of a row against a block once,
/// it stopped testing a row's IFs a second time: the disjoint_tests of
/// every row went down; nothing else moved.
/// When combining came to require the crossed induction update to execute
/// on every formal path of the mover, each update that meets a memory
/// operation it indexes costs a subsumption test: the subsume_tests of 28
/// rows went up; nothing else moved.
#[rustfmt::skip]
const EXPECTED: &[Row] = &[
    ("vecmin", "paper", [53, 19, 1, 32, 5], 1955, 179, 7, 2, 11),
    ("vecmin", "narrow211", [48, 13, 0, 28, 6], 1955, 190, 6, 3, 9),
    ("cond_sum", "paper", [33, 16, 0, 23, 4], 817, 90, 6, 1, 8),
    ("cond_sum", "narrow211", [29, 10, 0, 18, 5], 985, 89, 5, 2, 7),
    ("count_above", "paper", [27, 15, 0, 22, 4], 526, 78, 5, 1, 7),
    ("count_above", "narrow211", [30, 11, 0, 23, 6], 1006, 97, 5, 2, 7),
    ("clamp_store", "paper", [73, 18, 0, 52, 6], 3769, 443, 7, 3, 13),
    ("clamp_store", "narrow211", [71, 12, 0, 38, 5], 6117, 606, 8, 4, 14),
    ("sat_add", "paper", [42, 19, 0, 28, 5], 1521, 256, 5, 3, 8),
    ("sat_add", "narrow211", [41, 10, 0, 20, 5], 1385, 190, 5, 4, 8),
    ("abs_sum", "paper", [52, 27, 0, 42, 5], 2318, 219, 7, 2, 11),
    ("abs_sum", "narrow211", [41, 11, 0, 22, 5], 1608, 118, 5, 3, 9),
    ("runmax", "paper", [44, 17, 0, 25, 4], 1518, 127, 8, 2, 11),
    ("runmax", "narrow211", [45, 11, 0, 20, 5], 1623, 143, 6, 3, 9),
    ("sign_store", "paper", [36, 14, 0, 30, 4], 996, 94, 5, 1, 10),
    ("sign_store", "narrow211", [37, 8, 0, 23, 3], 1353, 116, 5, 3, 10),
    ("two_cond", "paper", [56, 27, 0, 39, 5], 2940, 236, 9, 2, 12),
    ("two_cond", "narrow211", [52, 12, 0, 33, 6], 3175, 284, 7, 3, 10),
    ("find_first", "paper", [35, 14, 0, 26, 4], 1017, 90, 7, 1, 10),
    ("find_first", "narrow211", [37, 10, 0, 26, 6], 1695, 145, 6, 3, 9),
    ("skewed", "paper", [37, 17, 0, 24, 4], 1120, 96, 7, 1, 9),
    ("skewed", "narrow211", [39, 12, 0, 20, 5], 1657, 125, 6, 3, 8),
    ("dot_cond", "paper", [62, 33, 0, 42, 5], 2249, 154, 9, 1, 12),
    ("dot_cond", "narrow211", [51, 12, 0, 16, 4], 1647, 110, 8, 4, 11),
    ("threshold_store", "paper", [37, 13, 0, 33, 4], 1300, 88, 7, 1, 11),
    ("threshold_store", "narrow211", [38, 7, 0, 23, 3], 1648, 146, 7, 3, 11),
    ("bubble_pass", "paper", [58, 16, 0, 47, 5], 8159, 256, 8, 2, 15),
    ("bubble_pass", "narrow211", [63, 9, 0, 31, 5], 5512, 405, 6, 5, 13),
    ("minmax", "paper", [46, 18, 0, 27, 4], 1780, 208, 6, 2, 11),
    ("minmax", "narrow211", [49, 12, 0, 27, 5], 2709, 234, 5, 3, 10),
    ("mac_cond", "paper", [62, 33, 0, 42, 5], 2245, 154, 10, 1, 12),
    ("mac_cond", "narrow211", [47, 12, 0, 18, 4], 1848, 173, 8, 3, 10),
    ("synthetic4", "paper", [88, 38, 0, 57, 5], 12847, 1096, 9, 2, 18),
    ("synthetic4", "narrow211", [88, 12, 0, 40, 5], 9031, 418, 7, 5, 16),
    ("synthetic6", "paper", [123, 43, 0, 68, 5], 26946, 2839, 11, 2, 24),
    ("synthetic6", "narrow211", [122, 12, 0, 58, 5], 21817, 821, 9, 7, 22),
];

fn loops() -> Vec<(&'static str, LoopSpec)> {
    let mut out: Vec<(&'static str, LoopSpec)> = psp_kernels::all_kernels()
        .into_iter()
        .map(|k| (k.name, k.spec))
        .collect();
    out.push(("synthetic4", synthetic(4)));
    out.push(("synthetic6", synthetic(6)));
    out
}

fn observe() -> Vec<Row> {
    let machines = [
        ("paper", MachineConfig::paper_default()),
        ("narrow211", MachineConfig::narrow(2, 1, 1)),
    ];
    let mut rows = Vec::new();
    for (name, spec) in loops() {
        for (label, machine) in &machines {
            let res = pipeline_loop(&spec, &PspConfig::with_machine(machine.clone()))
                .unwrap_or_else(|e| panic!("{name} on {label}: {e}"));
            rows.push((
                name,
                *label,
                res.stats.counters(),
                res.stats.pred.disjoint_tests,
                res.stats.pred.subsume_tests,
                res.schedule.n_regs(),
                res.schedule.n_rows(),
                res.schedule.n_instances(),
            ));
        }
    }
    rows
}

fn render<T: std::fmt::Debug>(name: &str, ty: &str, rows: &[T]) -> String {
    let mut s = format!("const {name}: &[{ty}] = &[\n");
    for r in rows {
        s.push_str(&format!("    {r:?},\n"));
    }
    s.push_str("];\n");
    s
}

#[test]
fn compaction_counts_match_the_pinned_table() {
    let observed = observe();
    for (want, got) in EXPECTED.iter().zip(&observed) {
        assert_eq!(
            want,
            got,
            "{} on {} drifted; observed table:\n{}",
            got.0,
            got.1,
            render("EXPECTED", "Row", &observed)
        );
    }
    assert_eq!(
        EXPECTED.len(),
        observed.len(),
        "table size drifted; observed table:\n{}",
        render("EXPECTED", "Row", &observed)
    );
}

/// `(kernel, score.primary.to_bits(), counters, ii_range,
/// initial expected II bits)` under the profile objective on the paper
/// machine.
type ProfileRow = (&'static str, u64, [usize; 5], Option<(usize, usize)>, u64);

/// Recorded before the path-set union algebra was deleted; re-recorded
/// when scoring moved to the steady-state walk: `abs_sum`'s score became
/// the exact 1.8 (the program-side scorer weighted a path that returns to
/// the loop head straight from a branching block by the whole block), and
/// five unscheduled expected IIs moved by one ulp (the walk sums
/// `II_min + Σw·(II − II_min) / Σw`). find_first's candidates went 28 → 26
/// when the preloop came to count live-out registers as read at the exit.
/// Candidates were re-recorded when splits came to target only instances
/// that block the mover; no score or II range moved. runmax improved when
/// compaction came to count a slot per subtree of a row's own IF (the
/// search visits different schedules): score 2.0 → 1.4,
/// II range (2, 2) → (1, 2). bubble_pass's counters moved when a renamed
/// moveup's leftover `COPY` came to take the mover's own slot; its score
/// and II range did not.
#[rustfmt::skip]
const EXPECTED_PROFILE: &[ProfileRow] = &[
    ("vecmin", 4611686018427387904, [53, 19, 1, 32, 5], Some((2, 2)), 4619679907765970534),
    ("cond_sum", 4607182418800017408, [33, 16, 0, 23, 4], Some((1, 1)), 4619116957812549222),
    ("count_above", 4607182418800017408, [27, 15, 0, 22, 4], Some((1, 1)), 4618666597849812173),
    ("clamp_store", 4613937818241073152, [73, 18, 0, 52, 6], Some((3, 3)), 4620878991166757929),
    ("sat_add", 4613937818241073152, [42, 19, 0, 28, 5], Some((3, 3)), 4619905087747339059),
    ("abs_sum", 4610785298501913805, [52, 27, 0, 42, 5], Some((1, 2)), 4620468037700760371),
    ("runmax", 4608983858650965606, [48, 19, 1, 41, 5], Some((1, 2)), 4619342137793917747),
    ("sign_store", 4607182418800017408, [36, 14, 0, 30, 4], Some((1, 1)), 4619567317775286272),
    ("two_cond", 4611686018427387904, [56, 27, 0, 39, 5], Some((2, 2)), 4620017677738023322),
    ("find_first", 4607182418800017408, [35, 14, 0, 26, 4], Some((1, 1)), 4619679907765970534),
    ("skewed", 4607182418800017408, [37, 17, 0, 24, 4], Some((1, 1)), 4619792497756654797),
    ("dot_cond", 4607182418800017408, [62, 33, 0, 42, 5], Some((1, 1)), 4620017677738023322),
    ("threshold_store", 4607182418800017408, [37, 13, 0, 33, 4], Some((1, 1)), 4619567317775286272),
    ("bubble_pass", 4611686018427387904, [58, 16, 0, 47, 5], Some((2, 2)), 4621256167635550208),
    ("minmax", 4611686018427387904, [46, 18, 0, 27, 4], Some((2, 2)), 4621256167635550208),
    ("mac_cond", 4607182418800017408, [62, 33, 0, 42, 5], Some((1, 1)), 4620468037700760371),
];

/// The branch profile kernel number `k` is scheduled under: one True
/// probability per IF row, skewed and distinct across kernels so the
/// expected II is not a plain mean of the path IIs.
fn profile(k: usize) -> Vec<f64> {
    (0..8)
        .map(|row| ((k * 5 + row * 3) % 9 + 1) as f64 / 10.0)
        .collect()
}

fn observe_profile() -> Vec<ProfileRow> {
    psp_kernels::all_kernels()
        .into_iter()
        .enumerate()
        .map(|(k, kernel)| {
            let machine = MachineConfig::paper_default();
            let probs = profile(k);
            let initial_ii =
                score_schedule(&Schedule::initial(&kernel.spec), &machine, Some(&probs))
                    .unwrap_or_else(|e| panic!("{}: {e}", kernel.name))
                    .primary;
            let cfg = PspConfig {
                probs: Some(probs),
                ..PspConfig::with_machine(machine)
            };
            let res = pipeline_loop(&kernel.spec, &cfg)
                .unwrap_or_else(|e| panic!("{} under a profile: {e}", kernel.name));
            (
                kernel.name,
                res.score.primary.to_bits(),
                res.stats.counters(),
                res.program.ii_range(),
                initial_ii.to_bits(),
            )
        })
        .collect()
}

#[test]
fn profile_scores_match_the_pinned_table() {
    let observed = observe_profile();
    let table = render("EXPECTED_PROFILE", "ProfileRow", &observed);
    for (want, got) in EXPECTED_PROFILE.iter().zip(&observed) {
        assert_eq!(want, got, "{} drifted; observed table:\n{table}", got.0);
    }
    assert_eq!(
        EXPECTED_PROFILE.len(),
        observed.len(),
        "table size drifted; observed table:\n{table}"
    );
}
