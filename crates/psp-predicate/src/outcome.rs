//! Concrete IF-outcome assignments (one execution path).

use std::collections::BTreeMap;

/// A concrete assignment of outcomes to predicates — one execution path
/// through (a window of) the loop.
///
/// Used to test membership of a path in a path set
/// ([`crate::PredicateMatrix::admits`]): the schedule validator enumerates
/// outcomes over a matrix's support to check coverage, and the tests state
/// the set operations' semantics the same way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutcomeMap {
    outcomes: BTreeMap<(u32, i32), bool>,
}

impl OutcomeMap {
    /// Empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the outcome of IF row `row` in iteration column `col`.
    pub fn set(&mut self, row: u32, col: i32, outcome: bool) {
        self.outcomes.insert((row, col), outcome);
    }

    /// The recorded outcome, if this predicate was assigned.
    pub fn get(&self, row: u32, col: i32) -> Option<bool> {
        self.outcomes.get(&(row, col)).copied()
    }

    /// Shift all columns by `delta`, e.g. to re-center a trace window on a
    /// different iteration.
    pub fn shifted(&self, delta: i32) -> Self {
        Self {
            outcomes: self
                .outcomes
                .iter()
                .map(|(&(r, c), &v)| ((r, c + delta), v))
                .collect(),
        }
    }

    /// Number of assigned predicates.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether no predicate is assigned.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Iterate over `(row, col, outcome)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, i32, bool)> + '_ {
        self.outcomes.iter().map(|(&(r, c), &v)| (r, c, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get() {
        let mut o = OutcomeMap::new();
        assert!(o.is_empty());
        o.set(0, -1, true);
        o.set(0, -1, false); // overwrite
        assert_eq!(o.get(0, -1), Some(false));
        assert_eq!(o.get(1, 0), None);
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn shift_recenters() {
        let mut o = OutcomeMap::new();
        o.set(0, 0, true);
        let s = o.shifted(2);
        assert_eq!(s.get(0, 2), Some(true));
        assert_eq!(s.get(0, 0), None);
    }
}
