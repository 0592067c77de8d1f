//! The three-valued predicate element: `1`, `0`, or `b` ("both").

use std::fmt;

/// One element of a predicate matrix.
///
/// `True`/`False` constrain the corresponding IF outcome on every path of
/// the set; `Both` leaves it unconstrained. `Both` is the default value of
/// every element not explicitly stored in a [`crate::PredicateMatrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PredElem {
    /// `b` — both outcomes admitted (the default).
    #[default]
    Both,
    /// `1` — the IF outcome is True on every path of the set.
    True,
    /// `0` — the IF outcome is False on every path of the set.
    False,
}

impl PredElem {
    /// Element for a concrete boolean outcome.
    #[inline]
    pub fn from_bool(v: bool) -> Self {
        if v {
            PredElem::True
        } else {
            PredElem::False
        }
    }

    /// The constrained boolean value, if any.
    #[inline]
    pub fn as_bool(self) -> Option<bool> {
        match self {
            PredElem::Both => None,
            PredElem::True => Some(true),
            PredElem::False => Some(false),
        }
    }

    /// Whether this element constrains the path set (`1` or `0`).
    #[inline]
    pub fn is_constrained(self) -> bool {
        !matches!(self, PredElem::Both)
    }

    /// `self` admits every path that `other` admits (i.e. as a constraint,
    /// `self` is equal to or weaker than `other`).
    #[inline]
    pub fn subsumes(self, other: PredElem) -> bool {
        self == PredElem::Both || self == other
    }

    /// Single-character notation used throughout the paper.
    #[inline]
    pub fn symbol(self) -> char {
        match self {
            PredElem::Both => 'b',
            PredElem::True => '1',
            PredElem::False => '0',
        }
    }
}

impl fmt::Display for PredElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

impl From<bool> for PredElem {
    fn from(v: bool) -> Self {
        PredElem::from_bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_both() {
        assert_eq!(PredElem::default(), PredElem::Both);
    }

    #[test]
    fn from_bool_roundtrip() {
        assert_eq!(PredElem::from_bool(true).as_bool(), Some(true));
        assert_eq!(PredElem::from_bool(false).as_bool(), Some(false));
        assert_eq!(PredElem::Both.as_bool(), None);
    }

    #[test]
    fn subsumption_ordering() {
        assert!(PredElem::Both.subsumes(PredElem::True));
        assert!(PredElem::Both.subsumes(PredElem::False));
        assert!(PredElem::Both.subsumes(PredElem::Both));
        assert!(PredElem::True.subsumes(PredElem::True));
        assert!(!PredElem::True.subsumes(PredElem::Both));
        assert!(!PredElem::True.subsumes(PredElem::False));
    }

    #[test]
    fn display_symbols() {
        assert_eq!(PredElem::Both.to_string(), "b");
        assert_eq!(PredElem::True.to_string(), "1");
        assert_eq!(PredElem::False.to_string(), "0");
    }
}
