//! The independent validators against every kernel and every producer —
//! and against deliberately corrupted artifacts, which they must reject
//! with a precise violation.

use psp_core::{pipeline_loop, PspConfig};
use psp_machine::MachineConfig;
use psp_opt::{certify, Certification, ExactConfig};
use psp_verify::{validate_modulo, validate_schedule, validate_vliw, Violation};

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
        let cfg = ExactConfig {
            max_nodes: 50_000,
            ..ExactConfig::default()
        };
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
        let unrolled = psp_baselines::compile_unrolled(&k.spec, 3, &wide);
        let v = validate_vliw(&k.spec, &wide, &unrolled);
        assert!(v.is_empty(), "{} unroll: {:?}", k.name, v);
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

/// The hooks fire in debug builds: installing the validators and compiling
/// every kernel end-to-end must not panic (each producer calls its hook).
#[test]
fn hooks_accept_all_producers() {
    psp_verify::install();
    let wide = MachineConfig::paper_default();
    for k in psp_kernels::all_kernels() {
        let _ = pipeline_loop(&k.spec, &PspConfig::with_machine(wide.clone())).unwrap();
        let _ = psp_baselines::modulo_schedule(&k.spec, &wide);
        let _ = psp_baselines::compile_local(&k.spec, &wide);
        let _ = psp_baselines::compile_sequential(&k.spec);
        let _ = psp_baselines::compile_unrolled(&k.spec, 2, &wide);
    }
}
