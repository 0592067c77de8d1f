//! Register and storage identifiers.

use std::fmt;

/// A general-purpose (integer) register, `R0`, `R1`, …
///
/// The register file is unbounded: the scheduler introduces fresh registers
/// freely when renaming, as in Moon & Ebcioglu's global scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

/// A condition-code register, `CC0`, `CC1`, … — written by compares, tested
/// by `IF`, `BREAK`, `SELECT`, and guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CcReg(pub u32);

/// A named memory array (the paper's `#x` address constants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// Either kind of register — the unit of def/use analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegRef {
    /// General-purpose register.
    Gpr(Reg),
    /// Condition-code register.
    Cc(CcReg),
}

/// The registers one operation defines or reads: at most
/// [`RegList::CAPACITY`], held inline, sorted and without duplicates.
///
/// `Operation::defs` and `Operation::uses` return this instead of a `Vec`,
/// so the scheduler's pair checks allocate nothing. It derefs to
/// `&[RegRef]`, so callers use it like a slice.
#[derive(Clone, Copy)]
pub struct RegList {
    regs: [RegRef; RegList::CAPACITY],
    len: u8,
}

impl RegList {
    /// Largest list an operation can produce: a `SELECT` reads its
    /// condition, two operands and a guard.
    pub const CAPACITY: usize = 4;

    pub(crate) const EMPTY: RegList = RegList {
        regs: [RegRef::Gpr(Reg(0)); RegList::CAPACITY],
        len: 0,
    };

    /// Insert `r`, keeping the list sorted and free of duplicates.
    pub(crate) fn insert(&mut self, r: RegRef) {
        let len = self.len as usize;
        let at = match self.regs[..len].binary_search(&r) {
            Ok(_) => return,
            Err(at) => at,
        };
        assert!(
            len < Self::CAPACITY,
            "an operation touches at most {} registers",
            Self::CAPACITY
        );
        self.regs.copy_within(at..len, at + 1);
        self.regs[at] = r;
        self.len += 1;
    }

    /// The registers as a slice.
    pub fn as_slice(&self) -> &[RegRef] {
        &self.regs[..self.len as usize]
    }
}

impl std::ops::Deref for RegList {
    type Target = [RegRef];
    fn deref(&self) -> &[RegRef] {
        self.as_slice()
    }
}

impl IntoIterator for RegList {
    type Item = RegRef;
    type IntoIter = std::iter::Take<std::array::IntoIter<RegRef, { RegList::CAPACITY }>>;
    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a RegList {
    type Item = &'a RegRef;
    type IntoIter = std::slice::Iter<'a, RegRef>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for RegList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for RegList {}

impl PartialEq<Vec<RegRef>> for RegList {
    fn eq(&self, other: &Vec<RegRef>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for RegList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl fmt::Display for CcReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CC{}", self.0)
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for RegRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegRef::Gpr(r) => r.fmt(f),
            RegRef::Cc(c) => c.fmt(f),
        }
    }
}

impl From<Reg> for RegRef {
    fn from(r: Reg) -> Self {
        RegRef::Gpr(r)
    }
}

impl From<CcReg> for RegRef {
    fn from(c: CcReg) -> Self {
        RegRef::Cc(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(Reg(3).to_string(), "R3");
        assert_eq!(CcReg(0).to_string(), "CC0");
        assert_eq!(ArrayId(2).to_string(), "a2");
        assert_eq!(RegRef::Gpr(Reg(1)).to_string(), "R1");
        assert_eq!(RegRef::Cc(CcReg(7)).to_string(), "CC7");
    }

    #[test]
    fn regref_distinguishes_kinds() {
        assert_ne!(RegRef::from(Reg(0)), RegRef::from(CcReg(0)));
    }
}
