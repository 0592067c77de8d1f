//! Direct tests of the reaching-definition preloop: contract computation,
//! guarded emulation, dispatch mapping, and the refusal cases.

use psp_core::preloop::build_preloop;
use psp_core::transform::wrap_up;
use psp_core::{pipeline_loop, PspConfig, Schedule};
use psp_kernels::by_name;
use psp_machine::MachineConfig;
use psp_sim::{run_vliw, MachineState};

fn m() -> MachineConfig {
    MachineConfig::paper_default()
}

#[test]
fn unpipelined_schedule_needs_no_preloop() {
    for kernel in psp_kernels::all_kernels() {
        let sched = Schedule::initial(&kernel.spec);
        let (cycles, dispatch) = build_preloop(&sched, &[]).unwrap();
        assert!(cycles.is_empty(), "{}", kernel.name);
        assert!(dispatch.is_empty());
    }
}

#[test]
fn wrapped_load_contract_is_the_original_load() {
    // Wrap vecmin's first load: the preloop must compute x[k] for the
    // original iteration 0 into the load's destination.
    let kernel = by_name("vecmin").unwrap();
    let mut sched = Schedule::initial(&kernel.spec);
    let id = sched.rows[0][0].id;
    wrap_up(&mut sched, id, &m()).unwrap();
    sched.prune_empty_rows();
    let (cycles, _) = build_preloop(&sched, &[]).unwrap();
    // One contract value: the load itself (k and m are architectural).
    assert_eq!(cycles.len(), 1);
    let op = &cycles[0][0];
    assert!(matches!(op.kind, psp_ir::OpKind::Load { .. }), "{op}");
    assert!(op.guard.is_none());
}

#[test]
fn dispatch_map_resolves_incoming_predicates() {
    // Wrap LOAD, LOAD, LT, IF (the Figure 2 schedule): predicate (0,0)
    // becomes incoming and must resolve to the level-0 compare's register.
    let kernel = by_name("vecmin").unwrap();
    let mut sched = Schedule::initial(&kernel.spec);
    for _ in 0..4 {
        let id = sched.rows[0][0].id;
        wrap_up(&mut sched, id, &m()).unwrap();
        sched.prune_empty_rows();
    }
    let (cycles, dispatch) = build_preloop(&sched, &[(0, 0)]).unwrap();
    let cc = dispatch.get(&(0, 0)).copied().expect("dispatch register");
    // The preloop must contain a compare writing exactly that register.
    let writes_cc = cycles
        .iter()
        .flatten()
        .any(|op| op.defs().contains(&psp_ir::RegRef::Cc(cc)));
    assert!(writes_cc, "dispatch register {cc} computed in the preloop");
}

#[test]
fn a_write_kills_only_the_reads_its_formal_subsumes() {
    // vecmin plus a temporary T: `COPY T, 1` under `write`, then a later
    // row's `COPY D, T` under `read`. T has only an index-0 writer, so the
    // preloop cannot supply it: it must be covered, or the run is refused.
    use psp_core::{codegen::CodegenError, InstId, Instance};
    use psp_ir::{op::build, Reg};
    use psp_predicate::PredicateMatrix as M;
    let kernel = by_name("vecmin").unwrap();
    let (t, d) = (Reg(kernel.spec.n_regs), Reg(kernel.spec.n_regs + 1));
    let build = |write: M, read: M, read_row: usize| {
        let mut sched = Schedule::initial(&kernel.spec);
        let rows = sched.n_rows();
        sched.insert(
            rows,
            Instance::new(InstId(100), build::copy(t, 1i64), write, 0),
        );
        sched.insert(
            rows + read_row,
            Instance::new(InstId(101), build::copy(d, t), read, 0),
        );
        build_preloop(&sched, &[]).map(|_| ())
    };
    let on_true = M::single(0, 0, true);
    let narrower = M::from_entries([(0, 0, true), (0, -1, false)]);
    // Written under M, read under M or under a narrower matrix: covered.
    assert_eq!(build(on_true.clone(), on_true.clone(), 1), Ok(()));
    assert_eq!(build(on_true.clone(), narrower.clone(), 1), Ok(()));
    assert_eq!(build(M::universe(), narrower.clone(), 1), Ok(()));
    // Written on fewer paths than the read runs on, on the other paths,
    // or in the reader's own row: the entry value is observed.
    let refused = Err(CodegenError::PreloopUnsupported(
        "temporary register is entry-live with only index-0 writers",
    ));
    assert_eq!(build(narrower, on_true.clone(), 1), refused);
    assert_eq!(build(M::single(0, 0, false), on_true.clone(), 1), refused);
    assert_eq!(build(on_true.clone(), on_true, 0), refused);
}

#[test]
fn guarded_contract_seeds_the_prior_value() {
    // sat_add's conditional clamp (acc = hi when acc > hi): pipelining the
    // compare makes CC0 a contract; if the conditional COPY's value were
    // needed it must come as seed + guarded overwrite. We check the general
    // property on the driver result: any guarded preloop operation is
    // preceded by an unguarded write of the same destination (the seed),
    // unless the destination is architectural.
    for name in ["sat_add", "dot_cond", "mac_cond", "two_cond"] {
        let kernel = by_name(name).unwrap();
        let res = pipeline_loop(&kernel.spec, &PspConfig::default()).unwrap();
        let mut written: Vec<psp_ir::RegRef> = Vec::new();
        for cycle in &res.program.prologue {
            for op in cycle {
                if op.guard.is_some() {
                    for d in op.defs() {
                        let arch = match d {
                            psp_ir::RegRef::Gpr(g) => g.0 < kernel.spec.n_regs,
                            psp_ir::RegRef::Cc(c) => c.0 < kernel.spec.n_ccs,
                        };
                        assert!(
                            arch || written.contains(&d),
                            "{name}: guarded preloop write to unseeded temp {d}"
                        );
                    }
                }
                written.extend(op.defs());
            }
        }
    }
}

#[test]
fn preloop_establishes_deep_contracts_end_to_end() {
    // dot_cond reaches depth 3: execute ONLY prologue + one body iteration
    // on a 1-element input and check the live-out.
    let kernel = by_name("dot_cond").unwrap();
    let res = pipeline_loop(&kernel.spec, &PspConfig::default()).unwrap();
    assert!(res.schedule.max_index() >= 2, "deep pipeline expected");
    let data = psp_kernels::KernelData::random(3, 1);
    let mut init = kernel.initial_state(&data);
    init.grow(64, 32);
    let run = run_vliw(&res.program, init, 1_000).unwrap();
    kernel.check(&run.state, &data).unwrap();
    // The whole loop took exactly prologue + one body iteration's cycles.
    assert_eq!(run.iterations, 1);
}

#[test]
fn preloop_never_stores_or_exits() {
    for kernel in psp_kernels::all_kernels() {
        for mc in [m(), MachineConfig::narrow(2, 1, 1)] {
            let res = pipeline_loop(&kernel.spec, &PspConfig::with_machine(mc)).unwrap();
            for op in res.program.prologue.iter().flatten() {
                assert!(!op.is_store() && !op.is_break() && !op.is_if());
            }
        }
    }
}

#[test]
fn refusals_surface_as_codegen_errors_not_miscompiles() {
    // Force a shape the emulator refuses: wrap a conditional instance of
    // clamp_store whose controlling predicate is nested (two entries).
    // The driver never produces this (trials discard), so drive the
    // transforms manually until codegen refuses or the schedule stays
    // generatable — either way, the outcome must be an error or correct
    // code, never wrong code.
    let kernel = by_name("clamp_store").unwrap();
    let mut sched = Schedule::initial(&kernel.spec);
    // Wrap everything in row 0 repeatedly, accepting failures.
    for _ in 0..16 {
        let ids: Vec<_> = sched.rows[0].iter().map(|i| i.id).collect();
        for id in ids {
            let _ = wrap_up(&mut sched, id, &m());
        }
        sched.prune_empty_rows();
        psp_core::compact::compact(&mut sched, &m(), true);
        match psp_core::generate(&sched, &m()) {
            Err(_) => {} // refusal is acceptable
            Ok(prog) => {
                let data = psp_kernels::KernelData::random(8, 9);
                let init = kernel.initial_state(&data);
                let (_, run) = psp_sim::check_equivalence(&kernel.spec, &prog, &init, 1_000_000)
                    .expect("generated code must be correct");
                kernel.check(&run.state, &data).unwrap();
            }
        }
        if sched.rows.is_empty() {
            break;
        }
    }
    let _ = MachineState::new(1, 1);
}
