//! Experiment E2 — paper Figure 2: the schedule after moving the first
//! four operations of the initial vecmin schedule across the loop boundary.
//!
//! Paper Figure 2:
//! ```text
//! Cycle1: COPY (R3,(R2))   (0)[1]
//! Cycle2: ADD  (R2,(R2,R0)) (0)[b]
//! Cycle3: GE   (CC1,(R2,R1))(0)[b]
//! Cycle4: BREAK(CC1)        (0)[b]
//! Cycle5: LOAD (R4,(R2,#x)) (1)[b]   LOAD (R5,(R3,#x)) (1)[b]
//! Cycle6: LT   (CC0,(R4,R5))(1)[b]
//! Cycle7: IF   (CC0)        (1)[b]
//! ```
//! (our register numbering differs; the shape — four index-0 rows, then
//! the two loads sharing a row, LT, IF, all at index +1 — is asserted).

use psp_core::transform::{moveup, wrap_up};
use psp_core::Schedule;
use psp_kernels::by_name;
use psp_machine::MachineConfig;

fn main() {
    let kernel = by_name("vecmin").unwrap();
    let machine = MachineConfig::paper_default();
    let mut sched = Schedule::initial(&kernel.spec);

    println!("E2 / paper Figure 2 — wrapping vecmin's first four operations\n");
    println!("initial schedule (initial assignment of §2):\n{sched}");

    // The paper moves LOAD, LOAD, LT, IF across the boundary. Each wrap
    // takes the current row-0 instance (rows close up as they empty).
    for _ in 0..4 {
        let id = sched.rows[0][0].id;
        wrap_up(&mut sched, id, &machine).expect("paper's moves are legal");
        sched.prune_empty_rows();
    }
    // The two wrapped loads are independent: the paper shows them sharing
    // cycle 5. Bring the second load up next to the first.
    let first_load_row = sched
        .rows
        .iter()
        .position(|r| r.iter().any(|i| i.index == 1))
        .expect("wrapped instances present");
    let second_load = sched.rows[first_load_row + 1][0].id;
    moveup(&mut sched, second_load, first_load_row, &machine).expect("loads pack");
    sched.prune_empty_rows();

    println!("after four cross-boundary moveups (paper Figure 2):\n{sched}");

    // Assert the shape.
    assert_eq!(sched.n_rows(), 7, "paper shows 7 cycles");
    let indices: Vec<Vec<i32>> = sched
        .rows
        .iter()
        .map(|r| r.iter().map(|i| i.index).collect())
        .collect();
    assert_eq!(
        indices,
        vec![
            vec![0],
            vec![0],
            vec![0],
            vec![0],
            vec![1, 1],
            vec![1],
            vec![1]
        ],
        "index layout matches Figure 2"
    );
    // Row 0 is the COPY with matrix [1]; the wrapped IF computes p(+1).
    assert!(sched.rows[0][0].formal == psp_predicate::PredicateMatrix::single(0, 0, true));
    let if_inst = sched
        .instances()
        .find(|i| i.op().is_if())
        .expect("IF present");
    assert_eq!(if_inst.index, 1, "IF instance is (+1)");
    let log = sched.iflog();
    assert!(matches!(
        log.availability(0, 0),
        psp_predicate::PredAvailability::PreviousIteration { delta: 1, .. }
    ));
    println!("shape matches paper Figure 2 ✓ (IFLog: p(0) from previous iteration)");
}
