//! Per-thread counters of predicate-algebra work.
//!
//! The scheduler's hot loops bottom out in `conjoin`/`is_disjoint`/
//! `subsumes`; these counters make that work observable (driver stats,
//! `table_predbench`) instead of asserted. Each thread counts its own
//! calls, so a caller measures a region with [`snapshot`] +
//! [`PredOpStats::delta`] and sees exactly the work done on its thread,
//! whatever other threads in the process are doing. Work handed to other
//! threads is the caller's to collect: the driver samples a delta inside
//! each helper trial and sums them into its run's total.

use std::cell::Cell;

thread_local! {
    static CONJOINS: Cell<u64> = const { Cell::new(0) };
    static DISJOINT_TESTS: Cell<u64> = const { Cell::new(0) };
    static SUBSUME_TESTS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.with(|c| c.set(c.get() + 1));
}

#[inline]
pub(crate) fn count_conjoin() {
    bump(&CONJOINS);
}

#[inline]
pub(crate) fn count_disjoint_test() {
    bump(&DISJOINT_TESTS);
}

#[inline]
pub(crate) fn count_subsume_test() {
    bump(&SUBSUME_TESTS);
}

/// A snapshot (or delta) of the predicate-op counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredOpStats {
    /// `PredicateMatrix::conjoin` calls.
    pub conjoins: u64,
    /// `PredicateMatrix::is_disjoint` calls.
    pub disjoint_tests: u64,
    /// `PredicateMatrix::subsumes` calls.
    pub subsume_tests: u64,
    /// Always 0. Kept, with [`memo_misses`](Self::memo_misses) and
    /// [`memo_hit_rate`](Self::memo_hit_rate), for readers written against
    /// the removed pairwise memo (the E12 benchmark reports its hit rate).
    pub memo_hits: u64,
    /// Always 0; see [`memo_hits`](Self::memo_hits).
    pub memo_misses: u64,
}

impl PredOpStats {
    /// Counter increments since the `since` snapshot.
    pub fn delta(&self, since: &PredOpStats) -> PredOpStats {
        PredOpStats {
            conjoins: self.conjoins.saturating_sub(since.conjoins),
            disjoint_tests: self.disjoint_tests.saturating_sub(since.disjoint_tests),
            subsume_tests: self.subsume_tests.saturating_sub(since.subsume_tests),
            memo_hits: 0,
            memo_misses: 0,
        }
    }

    /// Always 0: nothing is memoized (see [`memo_hits`](Self::memo_hits)).
    pub fn memo_hit_rate(&self) -> f64 {
        0.0
    }
}

impl std::ops::AddAssign for PredOpStats {
    fn add_assign(&mut self, o: PredOpStats) {
        self.conjoins += o.conjoins;
        self.disjoint_tests += o.disjoint_tests;
        self.subsume_tests += o.subsume_tests;
    }
}

/// This thread's totals since it started.
pub fn snapshot() -> PredOpStats {
    PredOpStats {
        conjoins: CONJOINS.get(),
        disjoint_tests: DISJOINT_TESTS.get(),
        subsume_tests: SUBSUME_TESTS.get(),
        memo_hits: 0,
        memo_misses: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_count_only_this_thread() {
        let before = snapshot();
        count_conjoin();
        count_disjoint_test();
        count_disjoint_test();
        std::thread::spawn(|| {
            for _ in 0..100 {
                count_conjoin();
                count_subsume_test();
            }
        })
        .join()
        .unwrap();
        let d = snapshot().delta(&before);
        assert_eq!(
            d,
            PredOpStats {
                conjoins: 1,
                disjoint_tests: 2,
                ..PredOpStats::default()
            }
        );
        assert_eq!(d.memo_hit_rate(), 0.0);
    }
}
