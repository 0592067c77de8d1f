//! The backend choice belongs to the calling thread: overlapping
//! `with_backend` scopes on different threads each restore only their own
//! thread's choice, so no interleaving can leave another thread on the
//! sparse backend.

use psp_predicate::backend::{is_packed, with_backend};
use psp_predicate::PredicateMatrix;
use std::sync::Barrier;

fn builds_packed() -> bool {
    is_packed() && PredicateMatrix::single(0, 0, true).is_word_packed()
}

#[test]
fn overlapping_sparse_scopes_leave_other_threads_packed() {
    // A enters, B enters, A exits, B exits. With one process-wide flag,
    // A's exit would switch B back to packed inside its scope, and B's exit
    // would leave the whole process sparse. The threads only observe:
    // asserting before a barrier could strand the other thread.
    let (a_entered, b_entered, a_exited) = (Barrier::new(2), Barrier::new(2), Barrier::new(2));
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            let inside = with_backend(false, || {
                a_entered.wait();
                b_entered.wait();
                builds_packed()
            });
            let after = builds_packed();
            a_exited.wait();
            (inside, after)
        });
        let b = s.spawn(|| {
            a_entered.wait();
            let inside = with_backend(false, || {
                b_entered.wait();
                a_exited.wait();
                builds_packed()
            });
            (inside, builds_packed())
        });
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a, (false, true), "thread A: (inside, after) its scope");
    assert_eq!(b, (false, true), "thread B: (inside, after) its scope");
    assert!(
        builds_packed(),
        "the test thread still builds packed matrices"
    );
    assert!(std::thread::spawn(builds_packed).join().unwrap());
}
