//! The independent validators against every kernel and every producer —
//! and against deliberately corrupted artifacts, which they must reject
//! with a precise violation.

use psp_core::{pipeline_loop, PspConfig};
use psp_machine::MachineConfig;
use psp_opt::{certify, Certification, ExactConfig};
use psp_verify::{validate_modulo, validate_schedule, validate_vliw, CycleSite, Violation};

fn renamed_live_out(spec: &psp_ir::LoopSpec) -> Vec<psp_ir::RegRef> {
    let mut ic = psp_opt::if_convert(spec);
    psp_opt::rename_inductions(&mut ic.ops, &mut ic.spec);
    ic.spec.live_out
}

#[test]
fn psp_schedules_of_all_kernels_validate() {
    let wide = MachineConfig::paper_default();
    for k in psp_kernels::all_kernels() {
        let res = pipeline_loop(&k.spec, &PspConfig::with_machine(wide.clone()))
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        let v = validate_schedule(&k.spec, &wide, &res.schedule);
        assert!(v.is_empty(), "{}: {:?}", k.name, v);
        let v = validate_vliw(&k.spec, &wide, &res.program);
        assert!(v.is_empty(), "{}: {:?}", k.name, v);
    }
}

#[test]
fn psp_schedules_validate_on_the_narrow_machine() {
    let narrow = MachineConfig::narrow(2, 1, 1);
    for k in psp_kernels::all_kernels() {
        let res = pipeline_loop(&k.spec, &PspConfig::with_machine(narrow.clone()))
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        let v = validate_schedule(&k.spec, &narrow, &res.schedule);
        assert!(v.is_empty(), "{}: {:?}", k.name, v);
        let v = validate_vliw(&k.spec, &narrow, &res.program);
        assert!(v.is_empty(), "{}: {:?}", k.name, v);
    }
}

#[test]
fn ems_schedules_of_all_kernels_validate() {
    let wide = MachineConfig::paper_default();
    for k in psp_kernels::all_kernels() {
        let ems = psp_baselines::modulo_schedule(&k.spec, &wide);
        let v = validate_modulo(&renamed_live_out(&k.spec), &wide, &ems);
        assert!(v.is_empty(), "{}: {:?}", k.name, v);
    }
}

#[test]
fn certifier_witnesses_validate() {
    let wide = MachineConfig::paper_default();
    for k in psp_kernels::all_kernels() {
        let ems = psp_baselines::modulo_schedule(&k.spec, &wide);
        let cfg = ExactConfig { max_nodes: 50_000 };
        let exact = certify(&k.spec, &wide, &cfg, Some(ems.ii));
        if let Certification::Certified(ii) = exact.outcome {
            assert!(ii <= ems.ii, "{}: certified {ii} > ems {}", k.name, ems.ii);
        }
        if let Some(w) = &exact.schedule {
            let v = validate_modulo(&renamed_live_out(&k.spec), &wide, w);
            assert!(v.is_empty(), "{}: {:?}", k.name, v);
        }
    }
}

#[test]
fn baseline_compilations_validate() {
    let wide = MachineConfig::paper_default();
    for k in psp_kernels::all_kernels() {
        let seq = psp_baselines::compile_sequential(&k.spec);
        let v = validate_vliw(&k.spec, &MachineConfig::sequential(), &seq);
        assert!(v.is_empty(), "{} seq: {:?}", k.name, v);
        let local = psp_baselines::compile_local(&k.spec, &wide);
        let v = validate_vliw(&k.spec, &wide, &local);
        assert!(v.is_empty(), "{} local: {:?}", k.name, v);
        for factor in [2, 3] {
            let unrolled = psp_baselines::compile_unrolled(&k.spec, factor, &wide);
            let v = validate_vliw(&k.spec, &wide, &unrolled);
            assert!(v.is_empty(), "{} unroll{factor}: {:?}", k.name, v);
        }
    }
}

/// Injected defect #1: hoist a consumer above its producer. The validator
/// must answer with a precise flow-order violation naming the register.
#[test]
fn corrupted_schedule_broken_flow_is_rejected() {
    let wide = MachineConfig::paper_default();
    let k = psp_kernels::by_name("vecmin").unwrap();
    let res = pipeline_loop(&k.spec, &PspConfig::with_machine(wide.clone())).unwrap();
    let mut corrupted = 0;
    // Find any instance in a row > 0 whose producer (same frame) sits in a
    // strictly earlier row, and hoist the consumer to row 0.
    'outer: for row in (1..res.schedule.n_rows()).rev() {
        let ids: Vec<_> = res.schedule.rows[row].iter().map(|i| i.id).collect();
        for id in ids {
            let mut sched = res.schedule.clone();
            let inst = sched.remove(id).unwrap();
            sched.insert(0, inst);
            let v = validate_schedule(&k.spec, &wide, &sched);
            if v.iter().any(|v| {
                matches!(
                    v,
                    Violation::RegisterOrder { kind: "flow", .. }
                        | Violation::Speculation { .. }
                        | Violation::BreakProtocol { .. }
                )
            }) {
                corrupted += 1;
                break 'outer;
            }
        }
    }
    assert!(
        corrupted > 0,
        "no hoist of any instance produced an order violation"
    );
}

/// vecmin as psp-core compiled it at load latency 4 while it enforced
/// latencies as row distances: II 2, with every LOAD read two cycles after
/// it issues (its schedule kept three empty rows, which code generation
/// emits as no cycle). The latency pass must flag it; today's program
/// for the same machine must pass.
#[test]
fn row_distance_vecmin_at_load_latency_four_is_flagged() {
    use psp_ir::op::build::{add, copy, ge, if_, load, lt};
    use psp_ir::{ArrayId, CcReg, Guard, Operation, Reg};
    use psp_machine::{Succ, VliwBlock, VliwLoop, VliwTerm};
    let slow = MachineConfig {
        load_latency: 4,
        ..MachineConfig::paper_default()
    };
    let k = psp_kernels::by_name("vecmin").unwrap();
    let (x, r) = (ArrayId(0), Reg);
    let guarded = |op: Operation, on_true: bool| Operation {
        guard: Some(if on_true {
            Guard::when(CcReg(0))
        } else {
            Guard::unless(CcReg(0))
        }),
        ..op
    };
    let prog = VliwLoop {
        name: "vecmin-psp".into(),
        prologue: vec![
            vec![load(r(3), x, r(1))],
            vec![load(r(4), x, r(2))],
            vec![add(r(5), r(1), 1i64)],
            vec![ge(CcReg(1), r(5), r(0))],
            vec![add(r(6), r(5), 1i64)],
        ],
        blocks: vec![VliwBlock {
            id: 0,
            matrix: psp_predicate::PredicateMatrix::universe(),
            cycles: vec![
                vec![
                    lt(CcReg(0), r(3), r(4)),
                    load(r(3), x, r(5)),
                    add(r(7), r(6), 1i64),
                ],
                vec![
                    if_(CcReg(0)),
                    guarded(copy(r(2), r(1)), true),
                    copy(r(1), r(5)),
                    psp_ir::op::build::break_(CcReg(1)),
                    copy(r(5), r(6)),
                    ge(CcReg(1), r(6), r(0)),
                    copy(r(6), r(7)),
                    guarded(load(r(4), x, r(2)), false),
                    guarded(load(r(4), x, r(1)), true),
                ],
            ],
            term: VliwTerm::Branch {
                cc: CcReg(0),
                on_true: Succ::back(0),
                on_false: Succ::back(0),
            },
        }],
        entry: 0,
        epilogue: vec![],
    };
    assert_eq!(prog.ii_range(), Some((2, 2)));
    let v = validate_vliw(&k.spec, &slow, &prog);
    assert!(
        v.iter().any(|v| matches!(
            v,
            Violation::Latency {
                site: CycleSite::Block(0, 0),
                ..
            }
        )),
        "{v:?}"
    );
    // At unit latency the same program is sound.
    assert_eq!(
        validate_vliw(&k.spec, &MachineConfig::paper_default(), &prog),
        vec![]
    );
    let res = pipeline_loop(&k.spec, &PspConfig::with_machine(slow.clone())).unwrap();
    assert_eq!(validate_vliw(&k.spec, &slow, &res.program), vec![]);
    let (_, max) = res.program.ii_range().unwrap();
    assert!(
        max >= 4,
        "a LOAD lands before the back edge\n{}",
        res.program
    );
}

/// Injected defect #2: resource oversubscription — a program compiled for
/// the wide machine cannot fit the 1-wide machine, and the validator must
/// say exactly which cycle overflows.
#[test]
fn corrupted_resources_are_rejected() {
    let wide = MachineConfig::paper_default();
    let one = MachineConfig::narrow(1, 1, 1);
    let k = psp_kernels::by_name("vecmin").unwrap();
    let prog = psp_baselines::compile_local(&k.spec, &wide);
    let v = validate_vliw(&k.spec, &one, &prog);
    assert!(
        v.iter().any(
            |v| matches!(v, Violation::Resource { used, limit, .. } if *used > *limit as usize)
        ),
        "expected a Resource violation, got {v:?}"
    );
}

/// Two ALU instances disjoint only on the predicate an IF of their own row
/// computes sit on both subtrees of one tree instruction: on a 1-ALU
/// machine that row overflows. One row later the IF has dispatched, the
/// two lie in different blocks, and they share the slot.
#[test]
fn instances_disjoint_on_a_same_row_if_take_a_slot_each() {
    let one = MachineConfig::narrow(1, 1, 1);
    let k = psp_kernels::by_name("vecmin").unwrap();
    let resource_rows = |row: usize| {
        let mut sched = psp_core::Schedule::initial(&k.spec);
        // vecmin: IF in row 3 computes (0, 0); row 4 is `COPY m, k` on
        // its true side. Add the same COPY on the false side.
        let (if_row, copy_row) = (3, 4);
        assert_eq!(sched.rows[if_row][0].computes_if, Some(0));
        let on_true = sched.rows[copy_row].remove(0);
        let mut on_false = on_true.clone();
        on_false.id = sched.fresh_id();
        on_false.formal = psp_predicate::PredicateMatrix::single(0, 0, false);
        sched.insert(row, on_true);
        sched.insert(row, on_false);
        validate_schedule(&k.spec, &one, &sched)
            .into_iter()
            .filter_map(|v| match v {
                Violation::Resource { site, used, .. } => Some((site, used)),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(resource_rows(3), [(CycleSite::Row(3), 2)]);
    assert_eq!(resource_rows(4), []);
}

/// Injected defect #3: a dropped dependence in a modulo schedule — pull an
/// operation to time 0 so some re-derived edge breaks.
#[test]
fn corrupted_modulo_schedule_is_rejected() {
    let wide = MachineConfig::paper_default();
    let k = psp_kernels::by_name("vecmin").unwrap();
    let live_out = renamed_live_out(&k.spec);
    let ems = psp_baselines::modulo_schedule(&k.spec, &wide);
    assert!(validate_modulo(&live_out, &wide, &ems).is_empty());
    let last = (0..ems.ops.len())
        .max_by_key(|&i| ems.time[i])
        .expect("nonempty");
    assert!(ems.time[last] > 0, "schedule too flat to corrupt");
    let mut bad = ems.clone();
    bad.time[last] = 0;
    bad.stages = bad.time.iter().map(|&t| t as u32 / bad.ii).max().unwrap() + 1;
    let v = validate_modulo(&live_out, &wide, &bad);
    assert!(
        v.iter().any(|v| matches!(v, Violation::ModuloEdge { .. })),
        "expected a ModuloEdge violation, got {v:?}"
    );
}

/// Injected defect #4: a dropped operation.
#[test]
fn dropped_instance_is_rejected() {
    let wide = MachineConfig::paper_default();
    let k = psp_kernels::by_name("vecmin").unwrap();
    let res = pipeline_loop(&k.spec, &PspConfig::with_machine(wide.clone())).unwrap();
    let id = res.schedule.rows[0][0].id;
    let mut sched = res.schedule.clone();
    sched.remove(id).unwrap();
    let v = validate_schedule(&k.spec, &wide, &sched);
    assert!(
        v.iter()
            .any(|v| matches!(v, Violation::DroppedOp { .. } | Violation::Coverage { .. })),
        "expected DroppedOp/Coverage, got {v:?}"
    );
}

/// Flow order exempts a combined read only on its update's paths. In
/// `tests/repros/conditional-index-update.psp`, `ADD R2, R2, #1` runs on
/// [1] and `LOAD R5, a1[R2]` on every path. Hoisting the load beside the
/// update with the stride folded in reads `y[j + 1]` on the [0] paths too,
/// where j did not move: a flow violation. Splitting the load first and
/// hoisting only its [1] clone is legal.
#[test]
fn a_combined_read_outside_its_updates_paths_is_flagged() {
    let wide = MachineConfig::paper_default();
    let spec = psp_lang::compile(include_str!(
        "../../../tests/repros/conditional-index-update.psp"
    ))
    .unwrap();
    let register_order = |split_first: bool| {
        let mut sched = psp_core::Schedule::initial(&spec);
        // Row 2: `IF CC0`; row 3: the update on [1]; row 4: the load.
        assert_eq!(sched.rows[2][0].computes_if, Some(0));
        if split_first {
            let id = sched.rows[4][0].id;
            psp_core::transform::split(&mut sched, id, 0, 0).unwrap();
        }
        let mut load = sched.rows[4].pop().unwrap();
        let mut op = *load.op();
        let psp_ir::OpKind::Load { dst, addr } = op.kind else {
            panic!("not a load: {op}");
        };
        op.kind = psp_ir::OpKind::Load {
            dst,
            addr: addr.displaced(1),
        };
        load.set_op(op);
        sched.insert(3, load);
        validate_schedule(&spec, &wide, &sched)
            .into_iter()
            .filter_map(|v| match v {
                Violation::RegisterOrder {
                    kind,
                    early_row,
                    late_row,
                    ..
                } => Some((kind, early_row, late_row)),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(register_order(false), [("flow", 3, 3)]);
    assert_eq!(register_order(true), []);
}
