//! Property-based fuzzing of transformation *sequences*.
//!
//! The driver exercises one particular policy (compact → wrap rounds →
//! split refinement). Here we apply arbitrary sequences of the four
//! elementary transformations — moveup, wrap-up, movedown, split, unify —
//! at random positions, keep whatever the legality checks accept, and
//! require that every intermediate schedule still (a) respects machine
//! resources and (b) generates code observationally equivalent to the
//! source loop whenever code generation succeeds.

#[path = "../../psp-kernels/tests/cases/mod.rs"]
mod cases;

use cases::check_cases;
use psp_core::transform::{self, Transformation};
use psp_core::{generate, CodegenError, Schedule};
use psp_kernels::{all_kernels, Kernel, KernelData, SplitMix64};
use psp_machine::MachineConfig;
use psp_sim::check_equivalence;

/// One fuzz action, mapped onto the current schedule by index arithmetic:
/// `(pick, target)` choose an instance and its row, and a split's
/// `(pick, row, col)` fold into the IF rows and `-1..=1`.
#[derive(Debug, Clone)]
enum Action {
    MoveUp(u16, u16),
    WrapUp(u16),
    MoveDown(u16, u16),
    Split(u16, u8, u8),
    Unify(u16),
    Prune,
    Compact,
}

fn random_action(rng: &mut SplitMix64) -> Action {
    let (pick, target) = (rng.next_u64() as u16, rng.next_u64() as u16);
    match rng.below(7) {
        0 => Action::MoveUp(pick, target),
        1 => Action::WrapUp(pick),
        2 => Action::MoveDown(pick, target),
        3 => Action::Split(pick, rng.byte(), rng.byte()),
        4 => Action::Unify(pick),
        5 => Action::Prune,
        _ => Action::Compact,
    }
}

/// Resolve a transformation action against the live schedule. `None` =
/// nothing applicable.
fn resolve(sched: &Schedule, action: &Action) -> Option<Transformation> {
    let ids: Vec<_> = sched.instances().map(|i| i.id).collect();
    if ids.is_empty() {
        return None;
    }
    let by_pick = |p: u16| ids[p as usize % ids.len()];
    match *action {
        Action::MoveUp(pick, target) => {
            let id = by_pick(pick);
            let (cur, _) = sched.find(id)?;
            if cur == 0 {
                return None;
            }
            Some(Transformation::MoveUp {
                id,
                target: target as usize % cur,
            })
        }
        Action::WrapUp(pick) => Some(Transformation::WrapUp { id: by_pick(pick) }),
        Action::MoveDown(pick, target) => {
            let id = by_pick(pick);
            let (cur, _) = sched.find(id)?;
            if cur + 1 >= sched.n_rows() {
                return None;
            }
            let t = cur + 1 + (target as usize % (sched.n_rows() - cur - 1));
            Some(Transformation::MoveDown { id, target: t })
        }
        Action::Split(pick, row, col) => {
            let id = by_pick(pick);
            let n_ifs = sched.source.n_ifs.max(1);
            Some(Transformation::Split {
                id,
                row: row as u32 % n_ifs,
                col: (col % 3) as i32 - 1,
            })
        }
        Action::Unify(pick) => {
            // Any unifiable clone pair in the row of the picked instance.
            let row = &sched.rows[sched.find(by_pick(pick))?.0];
            let (a, b) = (0..row.len())
                .flat_map(|i| (i + 1..row.len()).map(move |j| (&row[i], &row[j])))
                .find(|(a, b)| {
                    (a.op(), a.index, a.origin) == (b.op(), b.index, b.origin)
                        && a.formal.unify(&b.formal).is_some()
                })?;
            Some(Transformation::Unify { a: a.id, b: b.id })
        }
        Action::Prune | Action::Compact => None,
    }
}

/// Apply `actions` to `kernel`'s initial schedule, keeping what the
/// legality checks accept and checking resources after every accepted
/// mutation. Returns the schedule and the number of applied
/// transformations.
fn transformed(kernel: &Kernel, actions: &[Action], machine: &MachineConfig) -> (Schedule, usize) {
    let mut sched = Schedule::initial(&kernel.spec);
    let mut applied = 0;
    for action in actions {
        match action {
            Action::Compact => {
                psp_core::compact::compact(&mut sched, machine, true);
            }
            Action::Prune => sched.prune_empty_rows(),
            // A refusal is the legality system working.
            _ => match resolve(&sched, action) {
                Some(t) if transform::apply(&mut sched, &t, machine).is_ok() => applied += 1,
                _ => continue,
            },
        }
        sched
            .validate_resources(machine)
            .unwrap_or_else(|e| panic!("{}: {e}\n{sched}", kernel.name));
    }
    (sched, applied)
}

fn fuzz_kernel(kernel: &Kernel, actions: &[Action], machine: &MachineConfig) {
    let (sched, applied) = transformed(kernel, actions, machine);
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
}

const CASES: u32 = if cfg!(debug_assertions) { 12 } else { 64 };

/// One case: a kernel of the first 13 and `len` random actions.
fn fuzz_case(rng: &mut SplitMix64, len: std::ops::Range<usize>, machine: &MachineConfig) {
    let kernels = all_kernels();
    let kernel = &kernels[rng.below(13) % kernels.len()];
    let n = len.start + rng.below(len.len());
    let actions: Vec<_> = (0..n).map(|_| random_action(rng)).collect();
    fuzz_kernel(kernel, &actions, machine);
}

#[test]
fn arbitrary_transformation_sequences_stay_sound() {
    let paper = MachineConfig::paper_default();
    let name = "arbitrary_transformation_sequences_stay_sound";
    check_cases(name, Some(CASES), |rng| fuzz_case(rng, 5..40, &paper));
}

#[test]
fn arbitrary_sequences_on_narrow_machine() {
    let narrow = MachineConfig::narrow(2, 1, 1);
    let name = "arbitrary_sequences_on_narrow_machine";
    check_cases(name, Some(CASES), |rng| fuzz_case(rng, 5..25, &narrow));
}

/// runmax: wrap-ups carry its conditional `COPY pos, k` to index +1. `pos`
/// is live-out and the body never reads it, so the loop exit must see the
/// iteration-0 write that only a preloop could replay.
#[rustfmt::skip]
fn runmax_actions() -> Vec<Action> {
    use Action::*;
    vec![Compact, WrapUp(14256), Compact, WrapUp(31618), Compact, WrapUp(25552), WrapUp(60860)]
}

/// The eight shrunk `(kernel index, actions)` failures recorded by an
/// earlier property runner; the seventh is [`runmax_actions`].
#[test]
fn recorded_inputs_pass_on_both_machines() {
    use Action::*;
    #[rustfmt::skip]
    let recorded = [
        (3, vec![MoveUp(479, 23853), WrapUp(42750), Prune, MoveDown(30908, 24604), MoveUp(683, 54577)]),
        (11, vec![MoveUp(34102, 0), Split(3, 7, 134), Split(32640, 243, 136), WrapUp(40621), Compact]),
        (0, vec![WrapUp(1528), Compact, MoveDown(531, 4316), Split(7, 159, 158), Compact]),
        (4, vec![Compact, WrapUp(47505), WrapUp(8082), WrapUp(24732), Split(1351, 245, 247)]),
        (11, vec![MoveUp(44680, 32702), MoveDown(31903, 1027), Split(0, 74, 118), WrapUp(15335), Unify(38445)]),
        (7, vec![WrapUp(51928), MoveUp(45, 12459), WrapUp(45161), Compact, WrapUp(23032)]),
        (6, runmax_actions()),
        (4, vec![WrapUp(18624), Compact, WrapUp(16472), Compact, WrapUp(58)]),
    ];
    let kernels = all_kernels();
    for (pick, actions) in recorded {
        fuzz_kernel(&kernels[pick], &actions, &MachineConfig::paper_default());
        fuzz_kernel(&kernels[pick], &actions, &MachineConfig::narrow(2, 1, 1));
    }
}

/// The recorded runmax input once compiled to a loop whose one-iteration
/// run ended with `pos`'s initial value. Code generation now refuses it.
#[test]
fn runmax_wrapped_live_out_write_is_refused() {
    let machine = MachineConfig::paper_default();
    let runmax = psp_kernels::by_name("runmax").unwrap();
    let (sched, _) = transformed(&runmax, &runmax_actions(), &machine);
    let refusal =
        CodegenError::PreloopUnsupported("live-out register would be written by the preloop");
    assert_eq!(generate(&sched, &machine).err(), Some(refusal), "{sched}");
}
