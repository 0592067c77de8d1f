//! Operands and memory addresses.

use crate::reg::{ArrayId, Reg};
use std::fmt;

/// A source operand: register or immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register source.
    Reg(Reg),
    /// Immediate constant.
    Imm(i64),
}

impl Operand {
    /// The register, if this operand is one.
    #[inline]
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }

    /// The immediate, if this operand is one.
    #[inline]
    pub fn imm(self) -> Option<i64> {
        match self {
            Operand::Imm(v) => Some(v),
            Operand::Reg(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => r.fmt(f),
            Operand::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// A memory address `array[index + disp]`.
///
/// `index = None` denotes a constant (scalar) slot `array[disp]`. The
/// displacement field is what *combining* folds induction-variable updates
/// into when an access moves across the loop boundary: `x[k]` in the next
/// iteration, seen after `k = k + 1` has already executed, is `x[k']` for
/// the updated `k'` — and conversely, moving a load above the update rewrites
/// it to `x[k + 1]` with `disp = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Address {
    /// The accessed array.
    pub array: ArrayId,
    /// Index register, if the access is indexed.
    pub index: Option<Reg>,
    /// Constant displacement added to the index.
    pub disp: i64,
}

impl Address {
    /// Indexed access `array[index]`.
    pub fn indexed(array: ArrayId, index: Reg) -> Self {
        Self {
            array,
            index: Some(index),
            disp: 0,
        }
    }

    /// Constant access `array[disp]`.
    pub fn constant(array: ArrayId, disp: i64) -> Self {
        Self {
            array,
            index: None,
            disp,
        }
    }

    /// The address with its displacement shifted by `delta`.
    pub fn displaced(self, delta: i64) -> Self {
        Self {
            disp: self.disp.wrapping_add(delta),
            ..self
        }
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.index, self.disp) {
            (Some(r), 0) => write!(f, "{}[{}]", self.array, r),
            (Some(r), d) if d > 0 => write!(f, "{}[{}+{}]", self.array, r, d),
            (Some(r), d) => write!(f, "{}[{}{}]", self.array, r, d),
            (None, d) => write!(f, "{}[{}]", self.array, d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_accessors() {
        assert_eq!(Operand::Reg(Reg(2)).reg(), Some(Reg(2)));
        assert_eq!(Operand::Reg(Reg(2)).imm(), None);
        assert_eq!(Operand::Imm(5).imm(), Some(5));
        assert_eq!(Operand::Imm(5).reg(), None);
    }

    #[test]
    fn address_display() {
        let a = ArrayId(0);
        assert_eq!(Address::indexed(a, Reg(2)).to_string(), "a0[R2]");
        assert_eq!(
            Address::indexed(a, Reg(2)).displaced(1).to_string(),
            "a0[R2+1]"
        );
        assert_eq!(
            Address::indexed(a, Reg(2)).displaced(-2).to_string(),
            "a0[R2-2]"
        );
        assert_eq!(Address::constant(a, 7).to_string(), "a0[7]");
    }

    #[test]
    fn displacements_wrap_like_the_alu() {
        let a = Address::indexed(ArrayId(0), Reg(2));
        assert_eq!(a.displaced(i64::MAX).displaced(1).disp, i64::MIN);
        assert_eq!(a.displaced(i64::MIN).displaced(i64::MIN).disp, 0);
        assert_eq!(
            a.displaced(i64::MIN).to_string(),
            "a0[R2-9223372036854775808]"
        );
    }

    #[test]
    fn address_displace_accumulates() {
        let a = Address::indexed(ArrayId(0), Reg(0))
            .displaced(2)
            .displaced(-5);
        assert_eq!(a.disp, -3);
    }
}
