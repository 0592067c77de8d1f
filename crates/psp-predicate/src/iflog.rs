//! IFLog — the auxiliary structure linking predicates to the IF instances
//! that compute them.
//!
//! During scheduling, an IF operation instance with original row `r` and
//! operation index `i` computes the predicate `p(r, i)` (paper §2: the
//! instance `IF (CC0) (+1) [0]` computes `p(+1)`). Because the schedule
//! repeats every transformed iteration, the *same* instance also computed
//! `p(r, i - k)` during the transformed iteration `k` steps earlier. The
//! IFLog records where every IF instance sits in the schedule — its row,
//! index and cycle — so that the scheduler and code generator can decide,
//! for any predicate an operation is control-dependent on, whether its
//! outcome is already available (and hence whether the operation is
//! speculative). A schedule builds a fresh log whenever one is asked for,
//! so a log is only ever recorded into, never edited.

use std::cmp::Ordering;

/// One scheduled IF instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfLogEntry {
    /// Row of the IF operation in the original loop body (predicate row).
    pub if_row: u32,
    /// Operation index of the instance (iteration offset; the instance
    /// computes predicate column `index`).
    pub index: i32,
    /// Schedule cycle (row) the instance occupies.
    pub cycle: usize,
}

/// Where (relative to a consumer in the current transformed iteration) a
/// predicate's outcome is produced: `cycle` is the schedule cycle of the
/// IF instance that computes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredAvailability {
    /// Computed `delta ≥ 1` transformed iterations ago: the outcome is
    /// available on loop-body entry.
    PreviousIteration { delta: u32, cycle: usize },
    /// Computed in the current transformed iteration at `cycle`.
    SameIteration { cycle: usize },
    /// Will only be computed `delta ≥ 1` transformed iterations later: any
    /// consumer in the current iteration is necessarily speculative.
    FutureIteration { delta: u32, cycle: usize },
    /// No IF instance in the schedule computes this predicate row.
    NotComputed,
}

/// Log of all scheduled IF instances.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IfLog {
    entries: Vec<IfLogEntry>,
}

impl IfLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a scheduled IF instance.
    pub fn record(&mut self, entry: IfLogEntry) {
        self.entries.push(entry);
    }

    /// All recorded instances.
    pub fn entries(&self) -> &[IfLogEntry] {
        &self.entries
    }

    /// Instances of IF row `if_row`.
    pub fn instances_of(&self, if_row: u32) -> impl Iterator<Item = &IfLogEntry> {
        self.entries.iter().filter(move |e| e.if_row == if_row)
    }

    /// How the outcome of predicate `(row, col)` — as referenced by an
    /// operation in the current transformed iteration — becomes available.
    ///
    /// In steady state the schedule repeats each transformed iteration, so
    /// an instance with index `i` computes column `col` during the
    /// transformed iteration `col - i` (0 = current, negative = earlier).
    /// When several instances of the row exist (after splits), the one
    /// computing the predicate *earliest* — fewest iterations ahead, then
    /// earliest cycle — is reported.
    pub fn availability(&self, row: u32, col: i32) -> PredAvailability {
        // The transformed iteration producing `col`: 0 = current, negative
        // = earlier.
        let Some((delta, cycle)) = self
            .instances_of(row)
            .map(|e| (col - e.index, e.cycle))
            .min()
        else {
            return PredAvailability::NotComputed;
        };
        match delta.cmp(&0) {
            Ordering::Less => PredAvailability::PreviousIteration {
                delta: delta.unsigned_abs(),
                cycle,
            },
            Ordering::Equal => PredAvailability::SameIteration { cycle },
            Ordering::Greater => PredAvailability::FutureIteration {
                delta: delta as u32,
                cycle,
            },
        }
    }

    /// Whether predicate `(row, col)`'s outcome is known before `cycle` of
    /// the current transformed iteration (on the paths where its IF runs).
    pub fn available_before(&self, row: u32, col: i32, cycle: usize) -> bool {
        match self.availability(row, col) {
            PredAvailability::PreviousIteration { .. } => true,
            PredAvailability::SameIteration { cycle: c, .. } => c < cycle,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(if_row: u32, index: i32, cycle: usize) -> IfLogEntry {
        IfLogEntry {
            if_row,
            index,
            cycle,
        }
    }

    #[test]
    fn empty_log_reports_not_computed() {
        let log = IfLog::new();
        assert_eq!(log.availability(0, 0), PredAvailability::NotComputed);
        assert!(!log.available_before(0, 0, 10));
    }

    #[test]
    fn paper_fig2_availability() {
        // Fig. 2: the only IF instance is IF(CC0) (1)[b] at cycle 7 — it
        // computes p(+1). Column 0 was therefore computed one transformed
        // iteration ago; column 1 is computed this iteration at cycle 7.
        let mut log = IfLog::new();
        log.record(entry(0, 1, 7));
        match log.availability(0, 0) {
            PredAvailability::PreviousIteration { delta, .. } => assert_eq!(delta, 1),
            other => panic!("expected PreviousIteration, got {other:?}"),
        }
        match log.availability(0, 1) {
            PredAvailability::SameIteration { cycle, .. } => assert_eq!(cycle, 7),
            other => panic!("expected SameIteration, got {other:?}"),
        }
        match log.availability(0, 2) {
            PredAvailability::FutureIteration { delta, .. } => assert_eq!(delta, 1),
            other => panic!("expected FutureIteration, got {other:?}"),
        }
        // A consumer at cycle 1 constrained on p(0): outcome available.
        assert!(log.available_before(0, 0, 1));
        // Constrained on p(1): not available before cycle 7 => speculative.
        assert!(!log.available_before(0, 1, 7));
        assert!(log.available_before(0, 1, 8));
    }

    #[test]
    fn earliest_instance_wins() {
        let mut log = IfLog::new();
        log.record(entry(0, 0, 5)); // computes col 0 this iteration
        log.record(entry(0, 1, 2)); // computes col 0 one iteration ago
        match log.availability(0, 0) {
            PredAvailability::PreviousIteration { delta, .. } => assert_eq!(delta, 1),
            other => panic!("expected PreviousIteration, got {other:?}"),
        }
    }

    #[test]
    fn instances_of_filters_by_row() {
        let mut log = IfLog::new();
        log.record(entry(0, 0, 1));
        log.record(entry(1, 0, 2));
        log.record(entry(0, 1, 3));
        assert_eq!(log.instances_of(0).count(), 2);
        assert_eq!(log.instances_of(1).count(), 1);
    }
}
