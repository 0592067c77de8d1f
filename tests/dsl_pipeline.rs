//! DSL → IR → PSP → simulator, end to end: kernels written as text must
//! lower, pipeline, and execute exactly like their hand-built twins.

use psp::prelude::*;

/// A DSL kernel, its initial-state setup, and a closed-form golden result.
struct Case {
    src: &'static str,
    /// (register index, value) assignments before the run; arrays x (and y
    /// when the kernel names it) are pushed from KernelData.
    setup: fn(&mut MachineState, &KernelData),
    /// (live-out register index, golden function).
    golden: (usize, fn(&KernelData) -> i64),
    uses_y: bool,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            src: "kernel vecmin(n, k, m; x[]) -> m {
                xk = x[k]; xm = x[m];
                if (xk < xm) { m = k; }
                k = k + 1;
                break if (k >= n);
            }",
            setup: |st, d| st.regs[0] = d.len() as i64,
            golden: (2, |d| {
                let mut mi = 0;
                for (i, &v) in d.x.iter().enumerate() {
                    if v < d.x[mi] {
                        mi = i;
                    }
                }
                mi as i64
            }),
            uses_y: false,
        },
        Case {
            src: "kernel sumabs(n, k, acc; x[]) -> acc {
                d = x[k];
                if (d < 0) { d = 0 - d; }
                acc = acc + d;
                k = k + 1;
                break if (k >= n);
            }",
            setup: |st, d| st.regs[0] = d.len() as i64,
            golden: (2, |d| d.x.iter().map(|v| v.abs()).sum()),
            uses_y: false,
        },
        Case {
            src: "kernel bandpass(n, k, acc, lo, hi; x[]) -> acc {
                v = x[k];
                if (v > lo) {
                    if (v < hi) { acc = acc + v; }
                }
                k = k + 1;
                break if (k >= n);
            }",
            setup: |st, d| {
                st.regs[0] = d.len() as i64;
                st.regs[3] = d.lo;
                st.regs[4] = d.hi;
            },
            golden: (2, |d| d.x.iter().filter(|&&v| v > d.lo && v < d.hi).sum()),
            uses_y: false,
        },
        Case {
            src: "kernel relu(n, k; x[], y[]) {
                v = x[k] max 0;
                y[k] = v;
                k = k + 1;
                break if (k >= n);
            }",
            setup: |st, d| st.regs[0] = d.len() as i64,
            golden: (1, |d| d.len() as i64), // k at exit
            uses_y: true,
        },
    ]
}

fn run_case(case: &Case, machine: &MachineConfig, len: usize) {
    let spec = psp::lang::compile(case.src).expect("DSL compiles");
    assert!(spec.validate().is_ok());
    let data = KernelData::random(99, len).with_bounds(-40, 40);
    let mut init = MachineState::new(spec.n_regs, spec.n_ccs);
    init.push_array(data.x.clone());
    if case.uses_y {
        init.push_array(data.y.clone());
    }
    (case.setup)(&mut init, &data);

    let res = pipeline_loop(&spec, &PspConfig::with_machine(machine.clone())).expect("pipelines");
    let (golden, run) =
        check_equivalence(&spec, &res.program, &init, 100_000_000).expect("equivalent");
    let (reg, f) = case.golden;
    assert_eq!(golden.state.regs[reg], f(&data), "reference vs golden");
    assert_eq!(run.state.regs[reg], f(&data), "pipelined vs golden");
    if case.uses_y {
        assert_eq!(golden.state.arrays[1], run.state.arrays[1]);
    }
    // Pipelining must actually help on the wide machine.
    if machine.n_alu >= 8 && len >= 64 {
        assert!(run.body_cycles * 2 < golden.cycles, "{}", spec.name);
    }
}

#[test]
fn dsl_kernels_pipeline_and_verify_wide() {
    for case in cases() {
        for len in [1usize, 3, 64] {
            run_case(&case, &MachineConfig::paper_default(), len);
        }
    }
}

#[test]
fn dsl_kernels_pipeline_and_verify_narrow() {
    for case in cases() {
        run_case(&case, &MachineConfig::narrow(2, 1, 1), 33);
    }
}

#[test]
fn dsl_vecmin_equals_handbuilt_vecmin() {
    let dsl = psp::lang::compile(cases()[0].src).unwrap();
    let hand = by_name("vecmin").unwrap().spec;
    // Same op count, IF count, and — after pipelining — the same II.
    assert_eq!(dsl.op_count(), hand.op_count());
    assert_eq!(dsl.n_ifs, hand.n_ifs);
    let a = pipeline_loop(&dsl, &PspConfig::default()).unwrap();
    let b = pipeline_loop(&hand, &PspConfig::default()).unwrap();
    assert_eq!(a.program.ii_range(), b.program.ii_range());
}

/// A loop whose compacted seed has a renamed temporary written and read
/// under one matrix, which the preloop once called entry-live and refused
/// (a write kills a read on every path its formal admits). The seed must
/// generate, and with no refinement it must be scored under the run's
/// objective: the expected II when a profile is given, not the maximal II
/// the static objective uses.
#[test]
fn compacted_start_is_scored_under_the_profile() {
    let spec = psp::lang::compile(
        "kernel seed(n, k, acc, s0, s1, s2; x[], y[]) -> acc {
            if (s2 < acc) { s0 = x[k]; s0 = x[k]; acc = acc + s0; acc = acc * s0; }
            s0 = x[k];
            k = k + 1;
            break if (k >= n);
        }",
    )
    .expect("DSL compiles");
    let machine = MachineConfig::paper_default();
    let mut compacted = Schedule::initial(&spec);
    psp::core::compact::compact(&mut compacted, &machine, true);
    let seed = generate(&compacted, &machine).expect("the compacted seed generates");
    let probs = vec![0.9];
    let start = |probs: Option<Vec<f64>>| {
        let cfg = PspConfig {
            max_depth: 0,
            probs,
            ..PspConfig::with_machine(machine.clone())
        };
        pipeline_loop(&spec, &cfg).expect("the compacted seed generates")
    };
    let profiled = start(Some(probs.clone()));
    assert_eq!(profiled.program, seed, "max_depth 0 keeps the seed");
    let (min, max) = profiled.program.ii_range().unwrap();
    assert!(min < max, "the start needs paths of unequal II");
    let expected =
        psp::core::heuristics::score_schedule(&profiled.schedule, &machine, Some(&probs))
            .expect("the start walks");
    assert_eq!(profiled.score.primary, expected.primary);
    assert_eq!(start(None).score.primary, max as f64);
}
