//! Architectural state and single-operation evaluation.

use psp_ir::{Address, OpKind, Operand, Operation};
use std::fmt;

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A register index exceeded the register file.
    BadRegister(String),
    /// A store targeted an out-of-bounds or unknown address.
    BadStore(String),
    /// Two operations wrote the same register in one cycle.
    WriteConflict(String),
    /// The run exceeded its cycle budget (probable livelock).
    CycleBudgetExceeded(u64),
    /// Malformed code reached the interpreter.
    Malformed(String),
    /// The loop repeats without spending a cycle (an empty body, or a
    /// cycle of empty blocks), so neither an exit nor the cycle budget can
    /// ever end it. Names what repeats.
    ZeroCycleLoop(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadRegister(s) => write!(f, "bad register access: {s}"),
            SimError::BadStore(s) => write!(f, "bad store: {s}"),
            SimError::WriteConflict(s) => write!(f, "same-cycle write conflict: {s}"),
            SimError::CycleBudgetExceeded(n) => write!(f, "cycle budget {n} exceeded"),
            SimError::Malformed(s) => write!(f, "malformed code: {s}"),
            SimError::ZeroCycleLoop(s) => {
                write!(f, "{s} repeats without spending a cycle, so it never exits")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Register file, condition registers, and array memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineState {
    /// General-purpose registers.
    pub regs: Vec<i64>,
    /// Condition registers.
    pub ccs: Vec<bool>,
    /// Array memory, indexed by [`psp_ir::ArrayId`].
    pub arrays: Vec<Vec<i64>>,
}

/// Effect of one operation, to be committed at end of cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Write a general-purpose register.
    Gpr(u32, i64),
    /// Write a condition register.
    Cc(u32, bool),
    /// Store to memory.
    Mem(u32, usize, i64),
    /// A `BREAK` fired: exit the loop after this cycle.
    Break,
    /// An `IF` resolved; value recorded for terminator dispatch and
    /// profiling.
    IfOutcome(bool),
    /// Guard failed: no effect.
    Squashed,
}

impl MachineState {
    /// Fresh state with the given file sizes.
    pub fn new(n_regs: u32, n_ccs: u32) -> Self {
        Self {
            regs: vec![0; n_regs as usize],
            ccs: vec![false; n_ccs as usize],
            arrays: Vec::new(),
        }
    }

    /// Ensure the register files can hold `n_regs`/`n_ccs` entries
    /// (schedulers allocate fresh registers during renaming).
    pub fn grow(&mut self, n_regs: u32, n_ccs: u32) {
        if self.regs.len() < n_regs as usize {
            self.regs.resize(n_regs as usize, 0);
        }
        if self.ccs.len() < n_ccs as usize {
            self.ccs.resize(n_ccs as usize, false);
        }
    }

    /// Append an array and return nothing (ids are positional).
    pub fn push_array(&mut self, data: Vec<i64>) {
        self.arrays.push(data);
    }

    /// Become a copy of `other`, reusing this state's allocations (the
    /// batched equivalence checker resets the same state once per trial).
    pub fn copy_from(&mut self, other: &MachineState) {
        self.regs.clear();
        self.regs.extend_from_slice(&other.regs);
        self.ccs.clear();
        self.ccs.extend_from_slice(&other.ccs);
        self.arrays.truncate(other.arrays.len());
        while self.arrays.len() < other.arrays.len() {
            self.arrays.push(Vec::new());
        }
        for (dst, src) in self.arrays.iter_mut().zip(other.arrays.iter()) {
            dst.clear();
            dst.extend_from_slice(src);
        }
    }

    /// Read a general-purpose register.
    pub fn reg(&self, r: psp_ir::Reg) -> Result<i64, SimError> {
        self.regs
            .get(r.0 as usize)
            .copied()
            .ok_or_else(|| SimError::BadRegister(format!("{r}")))
    }

    /// Read a condition register.
    pub fn cc(&self, c: psp_ir::CcReg) -> Result<bool, SimError> {
        self.ccs
            .get(c.0 as usize)
            .copied()
            .ok_or_else(|| SimError::BadRegister(format!("{c}")))
    }

    /// Evaluate an operand.
    pub fn operand(&self, o: Operand) -> Result<i64, SimError> {
        match o {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => Ok(v),
        }
    }

    /// Resolve an address to `(array, element)` without bounds checking.
    pub fn resolve(&self, a: Address) -> Result<(u32, i64), SimError> {
        let idx = match a.index {
            Some(r) => self.reg(r)?,
            None => 0,
        };
        Ok((a.array.0, idx.wrapping_add(a.disp)))
    }

    /// Load from memory. Out-of-bounds reads return 0: speculative loads
    /// (e.g. of iteration `n+1` issued before the exit test resolves) must
    /// not fault, mirroring non-faulting speculative loads on real ILP
    /// hardware.
    pub fn load(&self, a: Address) -> Result<i64, SimError> {
        let (arr, elem) = self.resolve(a)?;
        let data = self
            .arrays
            .get(arr as usize)
            .ok_or_else(|| SimError::BadRegister(format!("array a{arr} not present")))?;
        if elem < 0 || elem as usize >= data.len() {
            return Ok(0);
        }
        Ok(data[elem as usize])
    }

    /// Evaluate one operation against this (pre-cycle) state, producing its
    /// deferred effect. The guard is evaluated against pre-cycle condition
    /// registers.
    pub fn effect_of(&self, op: &Operation) -> Result<Effect, SimError> {
        if let Some(g) = op.guard {
            if self.cc(g.cc)? != g.on_true {
                return Ok(Effect::Squashed);
            }
        }
        Ok(match op.kind {
            OpKind::Alu {
                op: a,
                dst,
                a: x,
                b: y,
            } => Effect::Gpr(dst.0, a.eval(self.operand(x)?, self.operand(y)?)),
            OpKind::Copy { dst, src } => Effect::Gpr(dst.0, self.operand(src)?),
            OpKind::Select {
                dst,
                cc,
                on_true,
                on_false,
            } => {
                let v = if self.cc(cc)? {
                    self.operand(on_true)?
                } else {
                    self.operand(on_false)?
                };
                Effect::Gpr(dst.0, v)
            }
            OpKind::Cmp {
                op: c,
                dst,
                a: x,
                b: y,
            } => Effect::Cc(dst.0, c.eval(self.operand(x)?, self.operand(y)?)),
            OpKind::CcAnd {
                dst,
                a,
                a_val,
                b,
                b_val,
            } => Effect::Cc(dst.0, self.cc(a)? == a_val && self.cc(b)? == b_val),
            OpKind::Load { dst, addr } => Effect::Gpr(dst.0, self.load(addr)?),
            OpKind::Store { src, addr } => {
                let (arr, elem) = self.resolve(addr)?;
                let len = self
                    .arrays
                    .get(arr as usize)
                    .ok_or_else(|| SimError::BadStore(format!("array a{arr} not present")))?
                    .len();
                if elem < 0 || elem as usize >= len {
                    return Err(SimError::BadStore(format!(
                        "a{arr}[{elem}] out of bounds (len {len})"
                    )));
                }
                Effect::Mem(arr, elem as usize, self.operand(src)?)
            }
            OpKind::If { cc } => Effect::IfOutcome(self.cc(cc)?),
            OpKind::Break { cc } => {
                if self.cc(cc)? {
                    Effect::Break
                } else {
                    Effect::Squashed
                }
            }
        })
    }

    /// Commit a batch of effects produced from the same pre-cycle state,
    /// rejecting same-cycle write conflicts. Returns whether a `BREAK`
    /// fired and the last `IF` outcome seen, if any.
    pub fn commit(&mut self, effects: &[Effect]) -> Result<(bool, Option<bool>), SimError> {
        let mut wrote_gpr: Vec<u32> = Vec::new();
        let mut wrote_cc: Vec<u32> = Vec::new();
        let mut wrote_mem: Vec<(u32, usize)> = Vec::new();
        let mut broke = false;
        let mut if_outcome = None;
        for e in effects {
            match *e {
                Effect::Gpr(r, v) => {
                    if wrote_gpr.contains(&r) {
                        return Err(SimError::WriteConflict(format!("R{r}")));
                    }
                    wrote_gpr.push(r);
                    let slot = self
                        .regs
                        .get_mut(r as usize)
                        .ok_or_else(|| SimError::BadRegister(format!("R{r}")))?;
                    *slot = v;
                }
                Effect::Cc(c, v) => {
                    if wrote_cc.contains(&c) {
                        return Err(SimError::WriteConflict(format!("CC{c}")));
                    }
                    wrote_cc.push(c);
                    let slot = self
                        .ccs
                        .get_mut(c as usize)
                        .ok_or_else(|| SimError::BadRegister(format!("CC{c}")))?;
                    *slot = v;
                }
                Effect::Mem(arr, elem, v) => {
                    if wrote_mem.contains(&(arr, elem)) {
                        return Err(SimError::WriteConflict(format!("a{arr}[{elem}]")));
                    }
                    wrote_mem.push((arr, elem));
                    self.arrays[arr as usize][elem] = v;
                }
                Effect::Break => broke = true,
                Effect::IfOutcome(v) => if_outcome = Some(v),
                Effect::Squashed => {}
            }
        }
        Ok((broke, if_outcome))
    }

    /// Execute one sequential operation: evaluate and apply its effect
    /// immediately (a single op can never conflict with itself). The
    /// reference interpreter's per-op path; allocation-free, and identical
    /// to `commit(&[effect_of(op)?])`.
    pub fn step_op(&mut self, op: &Operation) -> Result<(bool, Option<bool>), SimError> {
        let mut broke = false;
        let mut if_outcome = None;
        match self.effect_of(op)? {
            Effect::Gpr(r, v) => {
                let slot = self
                    .regs
                    .get_mut(r as usize)
                    .ok_or_else(|| SimError::BadRegister(format!("R{r}")))?;
                *slot = v;
            }
            Effect::Cc(c, v) => {
                let slot = self
                    .ccs
                    .get_mut(c as usize)
                    .ok_or_else(|| SimError::BadRegister(format!("CC{c}")))?;
                *slot = v;
            }
            Effect::Mem(arr, elem, v) => self.arrays[arr as usize][elem] = v,
            Effect::Break => broke = true,
            Effect::IfOutcome(v) => if_outcome = Some(v),
            Effect::Squashed => {}
        }
        Ok((broke, if_outcome))
    }

    /// Execute one whole cycle (parallel semantics): evaluate all effects
    /// against the pre-cycle state, then commit.
    pub fn step_cycle(&mut self, ops: &[Operation]) -> Result<(bool, Option<bool>), SimError> {
        let mut effects = Vec::with_capacity(ops.len());
        self.step_cycle_into(ops, &mut effects)
    }

    /// [`MachineState::step_cycle`] with a caller-owned effect buffer, so a
    /// run loop can reuse one allocation across all its cycles.
    pub fn step_cycle_into(
        &mut self,
        ops: &[Operation],
        effects: &mut Vec<Effect>,
    ) -> Result<(bool, Option<bool>), SimError> {
        effects.clear();
        for op in ops {
            effects.push(self.effect_of(op)?);
        }
        self.commit(effects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp_ir::op::build::*;
    use psp_ir::{ArrayId, CcReg, CmpOp, Guard, Reg};

    fn state() -> MachineState {
        let mut s = MachineState::new(8, 4);
        s.push_array(vec![10, 20, 30]);
        s
    }

    #[test]
    fn alu_and_copy_effects() {
        let mut s = state();
        s.regs[1] = 5;
        s.step_cycle(&[add(Reg(0), Reg(1), 3i64), copy(Reg(2), Reg(1))])
            .unwrap();
        assert_eq!(s.regs[0], 8);
        assert_eq!(s.regs[2], 5);
    }

    #[test]
    fn parallel_reads_see_pre_cycle_state() {
        let mut s = state();
        s.regs[0] = 1;
        s.regs[1] = 2;
        // Swap in one cycle — only possible with parallel semantics.
        s.step_cycle(&[copy(Reg(0), Reg(1)), copy(Reg(1), Reg(0))])
            .unwrap();
        assert_eq!((s.regs[0], s.regs[1]), (2, 1));
    }

    #[test]
    fn write_conflict_detected() {
        let mut s = state();
        let r = s.step_cycle(&[copy(Reg(0), 1i64), copy(Reg(0), 2i64)]);
        assert!(matches!(r, Err(SimError::WriteConflict(_))));
    }

    #[test]
    fn guarded_conflicting_writes_ok_when_one_squashes() {
        let mut s = state();
        s.ccs[0] = true;
        let t = psp_ir::Operation {
            guard: Some(Guard::when(CcReg(0))),
            ..copy(Reg(0), 1i64)
        };
        let e = psp_ir::Operation {
            guard: Some(Guard::unless(CcReg(0))),
            ..copy(Reg(0), 2i64)
        };
        s.step_cycle(&[t, e]).unwrap();
        assert_eq!(s.regs[0], 1);
    }

    #[test]
    fn load_in_bounds_and_speculative_oob() {
        let mut s = state();
        s.regs[1] = 2;
        s.step_cycle(&[load(Reg(0), ArrayId(0), Reg(1))]).unwrap();
        assert_eq!(s.regs[0], 30);
        s.regs[1] = 99; // speculative overshoot
        s.step_cycle(&[load(Reg(0), ArrayId(0), Reg(1))]).unwrap();
        assert_eq!(s.regs[0], 0);
        s.regs[1] = -1;
        s.step_cycle(&[load(Reg(0), ArrayId(0), Reg(1))]).unwrap();
        assert_eq!(s.regs[0], 0);
    }

    #[test]
    fn store_bounds_checked() {
        let mut s = state();
        s.regs[1] = 1;
        s.step_cycle(&[store(ArrayId(0), Reg(1), 77i64)]).unwrap();
        assert_eq!(s.arrays[0][1], 77);
        s.regs[1] = 5;
        let r = s.step_cycle(&[store(ArrayId(0), Reg(1), 9i64)]);
        assert!(matches!(r, Err(SimError::BadStore(_))));
    }

    #[test]
    fn cmp_writes_cc_and_break_fires() {
        let mut s = state();
        s.regs[0] = 3;
        s.regs[1] = 3;
        s.step_cycle(&[cmp(CmpOp::Ge, CcReg(1), Reg(0), Reg(1))])
            .unwrap();
        assert!(s.ccs[1]);
        let (broke, _) = s.step_cycle(&[break_(CcReg(1))]).unwrap();
        assert!(broke);
        s.ccs[1] = false;
        let (broke, _) = s.step_cycle(&[break_(CcReg(1))]).unwrap();
        assert!(!broke);
    }

    #[test]
    fn if_outcome_reported() {
        let mut s = state();
        s.ccs[0] = true;
        let (_, out) = s.step_cycle(&[if_(CcReg(0))]).unwrap();
        assert_eq!(out, Some(true));
    }

    #[test]
    fn select_picks_by_cc() {
        let mut s = state();
        s.ccs[0] = true;
        s.regs[1] = 10;
        s.regs[2] = 20;
        s.step_cycle(&[select(Reg(0), CcReg(0), Reg(1), Reg(2))])
            .unwrap();
        assert_eq!(s.regs[0], 10);
        s.ccs[0] = false;
        s.step_cycle(&[select(Reg(0), CcReg(0), Reg(1), Reg(2))])
            .unwrap();
        assert_eq!(s.regs[0], 20);
    }

    #[test]
    fn grow_extends_files() {
        let mut s = MachineState::new(2, 1);
        s.grow(5, 3);
        assert_eq!(s.regs.len(), 5);
        assert_eq!(s.ccs.len(), 3);
        s.grow(1, 1); // never shrinks
        assert_eq!(s.regs.len(), 5);
    }
}
