//! A tour of the formal framework: predicate matrices, the path sets they
//! denote, and the IFLog — the paper's §1.2/§2 machinery, standalone.
//!
//! ```sh
//! cargo run --example predicate_algebra --release
//! ```

use psp::predicate::{IfLog, IfLogEntry, PredicateMatrix};

fn main() {
    // The paper's example matrix: first IF = True for previous and current
    // iterations, False for the next; second IF = False current, True next.
    let m = PredicateMatrix::from_entries([
        (0, -1, true),
        (0, 0, true),
        (0, 1, false),
        (1, 0, false),
        (1, 1, true),
    ]);
    println!("paper §1.2 example matrix (column 0 underlined):");
    println!("  {}\n", m.display(2, -1, 1));

    // Formal vs actual path sets (§2): an operation control-dependent on
    // the current IF but scheduled before it is speculative. Its actual
    // paths are those of the two generated blocks it sits in, one matrix
    // each. Splitting the formal matrix on the previous IF shows that each
    // formal path lies in one of them.
    let formal = PredicateMatrix::single(0, 0, true);
    let actual = [
        PredicateMatrix::single(0, -1, true),
        PredicateMatrix::from_entries([(0, -1, false), (0, 0, true)]),
    ];
    println!("formal paths: {formal}");
    println!("actual paths: {} ∪ {}", actual[0], actual[1]);
    let (f, t) = formal.split(0, -1).unwrap();
    println!("formal split on the previous IF: {f} and {t}");
    println!(
        "actual ⊇ formal: {}\n",
        actual[1].subsumes(&f) && actual[0].subsumes(&t)
    );

    // Disjointness is what exempts operations from dependence testing.
    let then_branch = PredicateMatrix::single(0, 0, true);
    let else_branch = PredicateMatrix::single(0, 0, false);
    println!(
        "then {} vs else {}: disjoint = {}",
        then_branch,
        else_branch,
        then_branch.is_disjoint(&else_branch)
    );

    // Split and unify — two of the four elementary transformations, at the
    // matrix level.
    let (f, t) = PredicateMatrix::universe().split(0, 0).unwrap();
    println!("split [b] at (0,0): {f} and {t}");
    println!("unify back: {}\n", f.unify(&t).unwrap());

    // The IFLog links predicates to the IF instances that compute them.
    let mut log = IfLog::new();
    log.record(IfLogEntry {
        if_row: 0,
        index: 1,
        cycle: 7,
    });
    println!("IFLog with IF(+1) at cycle 7 (paper Fig. 2):");
    for col in [0, 1, 2] {
        println!("  p(0,{col}) availability: {:?}", log.availability(0, col));
    }
}
