//! Property-based fuzzing of transformation *sequences*.
//!
//! The driver exercises one particular policy (compact → wrap rounds →
//! split refinement). Here we apply arbitrary sequences of the four
//! elementary transformations — moveup, wrap-up, movedown, split, unify —
//! at random positions, keep whatever the legality checks accept, and
//! require that every intermediate schedule still (a) respects machine
//! resources, (b) respects producer latencies, and (c) generates code
//! observationally equivalent to the source loop whenever code generation
//! succeeds.

use proptest::prelude::*;
use psp_core::transform::{self, Transformation};
use psp_core::{generate, Schedule};
use psp_kernels::{all_kernels, KernelData};
use psp_machine::MachineConfig;
use psp_sim::check_equivalence;

/// One fuzz action, mapped onto the current schedule by index arithmetic.
#[derive(Debug, Clone)]
enum Action {
    MoveUp { pick: u16, target: u16 },
    WrapUp { pick: u16 },
    MoveDown { pick: u16, target: u16 },
    Split { pick: u16, row: u8, col: u8 },
    Unify { pick: u16 },
    Prune,
    Compact,
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u16>(), any::<u16>()).prop_map(|(pick, target)| Action::MoveUp { pick, target }),
        any::<u16>().prop_map(|pick| Action::WrapUp { pick }),
        (any::<u16>(), any::<u16>()).prop_map(|(pick, target)| Action::MoveDown { pick, target }),
        (any::<u16>(), any::<u8>(), any::<u8>()).prop_map(|(pick, row, col)| Action::Split {
            pick,
            row,
            col
        }),
        any::<u16>().prop_map(|pick| Action::Unify { pick }),
        Just(Action::Prune),
        Just(Action::Compact),
    ]
}

/// Resolve an action against the live schedule; returns a transformation or
/// a prune request. `None` = nothing applicable.
fn resolve(sched: &Schedule, action: &Action) -> Option<Result<Transformation, ()>> {
    let ids: Vec<_> = sched.instances().map(|i| i.id).collect();
    if ids.is_empty() {
        return None;
    }
    let by_pick = |p: u16| ids[p as usize % ids.len()];
    match action {
        Action::MoveUp { pick, target } => {
            let id = by_pick(*pick);
            let (cur, _) = sched.find(id)?;
            if cur == 0 {
                return None;
            }
            Some(Ok(Transformation::MoveUp {
                id,
                target: *target as usize % cur,
            }))
        }
        Action::WrapUp { pick } => Some(Ok(Transformation::WrapUp { id: by_pick(*pick) })),
        Action::MoveDown { pick, target } => {
            let id = by_pick(*pick);
            let (cur, _) = sched.find(id)?;
            if cur + 1 >= sched.n_rows() {
                return None;
            }
            let t = cur + 1 + (*target as usize % (sched.n_rows() - cur - 1));
            Some(Ok(Transformation::MoveDown { id, target: t }))
        }
        Action::Split { pick, row, col } => {
            let id = by_pick(*pick);
            let n_ifs = sched.source.n_ifs.max(1);
            Some(Ok(Transformation::Split {
                id,
                row: *row as u32 % n_ifs,
                col: (*col % 3) as i32 - 1,
            }))
        }
        Action::Unify { pick } => {
            // Find any unifiable clone pair in the row of the picked
            // instance.
            let id = by_pick(*pick);
            let (r, _) = sched.find(id)?;
            let row = &sched.rows[r];
            for i in 0..row.len() {
                for j in (i + 1)..row.len() {
                    if row[i].op() == row[j].op()
                        && row[i].index == row[j].index
                        && row[i].origin == row[j].origin
                        && row[i].formal.unify(&row[j].formal).is_some()
                    {
                        return Some(Ok(Transformation::Unify {
                            a: row[i].id,
                            b: row[j].id,
                        }));
                    }
                }
            }
            None
        }
        Action::Prune | Action::Compact => Some(Err(())),
    }
}

fn fuzz_kernel(kernel: &psp_kernels::Kernel, actions: &[Action], machine: &MachineConfig) {
    let mut sched = Schedule::initial(&kernel.spec);
    let mut applied = 0;
    for action in actions {
        let Some(req) = resolve(&sched, action) else {
            continue;
        };
        match req {
            Err(()) => match action {
                Action::Compact => {
                    psp_core::compact::compact(&mut sched, machine);
                }
                _ => transform::prune_stalls(&mut sched, machine),
            },
            Ok(t) => {
                if transform::apply(&mut sched, &t, machine).is_err() {
                    continue; // refused: that is the legality system working
                }
                applied += 1;
            }
        }
        // Invariants after every accepted mutation.
        sched
            .validate_resources(machine)
            .unwrap_or_else(|e| panic!("{}: {e}\n{sched}", kernel.name));
        transform::validate_latencies(&sched, machine)
            .unwrap_or_else(|e| panic!("{}: {e}\n{sched}", kernel.name));
    }
    // Whenever codegen succeeds, the code must be correct.
    if let Ok(prog) = generate(&sched, machine) {
        for len in [1usize, 2, 9] {
            let data = KernelData::random(1234, len);
            let init = kernel.initial_state(&data);
            let (_, run) = check_equivalence(&kernel.spec, &prog, &init, 10_000_000)
                .unwrap_or_else(|e| {
                    panic!(
                        "{} after {applied} transformations, len {len}: {e}\n{sched}\n{prog}",
                        kernel.name
                    )
                });
            kernel
                .check(&run.state, &data)
                .unwrap_or_else(|e| panic!("{e}\n{sched}\n{prog}"));
        }
    }
    let _ = applied;
}

const CASES: u32 = if cfg!(debug_assertions) { 12 } else { 64 };

proptest! {
    #![proptest_config(ProptestConfig {
        cases: CASES,
        max_shrink_iters: 100,
        ..ProptestConfig::default()
    })]

    #[test]
    fn arbitrary_transformation_sequences_stay_sound(
        kernel_pick in 0usize..13,
        actions in proptest::collection::vec(arb_action(), 5..40),
    ) {
        let kernels = all_kernels();
        let kernel = &kernels[kernel_pick % kernels.len()];
        fuzz_kernel(kernel, &actions, &MachineConfig::paper_default());
    }

    #[test]
    fn arbitrary_sequences_on_narrow_machine(
        kernel_pick in 0usize..13,
        actions in proptest::collection::vec(arb_action(), 5..25),
    ) {
        let kernels = all_kernels();
        let kernel = &kernels[kernel_pick % kernels.len()];
        fuzz_kernel(kernel, &actions, &MachineConfig::narrow(2, 1, 1));
    }
}
