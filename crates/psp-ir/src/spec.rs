//! Structured source loops and their builder.
//!
//! A [`LoopSpec`] is the input to every scheduler in this workspace: a
//! do-while loop body made of straight-line operations, nested `if`/`else`
//! regions, and `BREAK` exit tests, together with live-in/live-out registers
//! and array declarations. (As in the paper's §1.1, a source `while` loop is
//! assumed to have been rewritten as a do-while with a guarding test in
//! front; only the body is scheduled.)

use crate::op::{build, OpKind, Operation};
use crate::reg::{ArrayId, CcReg, Reg, RegRef};
use std::collections::BTreeMap;
use std::fmt;

/// One element of a structured loop body.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A straight-line operation.
    Op(Operation),
    /// A two-way conditional region.
    If(IfItem),
    /// A loop-exit test.
    Break(BreakItem),
}

/// A structured `if (cc) { then } else { else }` region.
#[derive(Debug, Clone, PartialEq)]
pub struct IfItem {
    /// Dense id of this IF — the predicate-matrix *row* it controls.
    pub if_id: u32,
    /// Tested condition register.
    pub cc: CcReg,
    /// Items executed when `cc` is true.
    pub then_items: Vec<Item>,
    /// Items executed when `cc` is false.
    pub else_items: Vec<Item>,
}

/// A `BREAK cc` exit test (exits the loop when `cc` is true).
#[derive(Debug, Clone, PartialEq)]
pub struct BreakItem {
    /// Tested condition register.
    pub cc: CcReg,
}

/// A complete source loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSpec {
    /// Human-readable kernel name.
    pub name: String,
    /// Structured body.
    pub items: Vec<Item>,
    /// Registers carrying values into the loop (and across iterations).
    pub live_in: Vec<RegRef>,
    /// Registers whose final values are observed after the loop.
    pub live_out: Vec<RegRef>,
    /// Array names; position is the [`ArrayId`].
    pub arrays: Vec<String>,
    /// Number of general-purpose registers allocated so far.
    pub n_regs: u32,
    /// Number of condition registers allocated so far.
    pub n_ccs: u32,
    /// Number of IF operations (predicate-matrix rows).
    pub n_ifs: u32,
    /// Optional debug names for registers.
    pub reg_names: BTreeMap<u32, String>,
}

impl LoopSpec {
    /// Iterate over every operation in the body, depth-first, with its
    /// nesting depth (IF and BREAK items included as operations).
    pub fn all_ops(&self) -> Vec<(Operation, usize)> {
        fn walk(items: &[Item], depth: usize, out: &mut Vec<(Operation, usize)>) {
            for item in items {
                match item {
                    Item::Op(op) => out.push((*op, depth)),
                    Item::If(i) => {
                        out.push((build::if_(i.cc), depth));
                        walk(&i.then_items, depth + 1, out);
                        walk(&i.else_items, depth + 1, out);
                    }
                    Item::Break(b) => out.push((build::break_(b.cc), depth)),
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.items, 0, &mut out);
        out
    }

    /// Total number of operations (IFs and BREAKs included).
    pub fn op_count(&self) -> usize {
        self.all_ops().len()
    }

    /// Sanity checks: array ids in range, IF ids dense, CC sources of
    /// control ops defined somewhere or live-in.
    pub fn validate(&self) -> Result<(), String> {
        let mut if_ids = Vec::new();
        let mut defined: Vec<RegRef> = self.live_in.clone();
        fn collect_ifs(items: &[Item], out: &mut Vec<u32>) {
            for item in items {
                if let Item::If(i) = item {
                    out.push(i.if_id);
                    collect_ifs(&i.then_items, out);
                    collect_ifs(&i.else_items, out);
                }
            }
        }
        collect_ifs(&self.items, &mut if_ids);
        if_ids.sort_unstable();
        for (expect, &got) in if_ids.iter().enumerate() {
            if got != expect as u32 {
                return Err(format!(
                    "IF ids must be dense 0..n, found {got} at position {expect}"
                ));
            }
        }
        if if_ids.len() != self.n_ifs as usize {
            return Err(format!(
                "n_ifs = {} but body contains {} IFs",
                self.n_ifs,
                if_ids.len()
            ));
        }
        for (op, _) in self.all_ops() {
            for d in op.defs() {
                defined.push(d);
            }
            if let OpKind::Load { addr, .. } | OpKind::Store { addr, .. } = op.kind {
                if addr.array.0 as usize >= self.arrays.len() {
                    return Err(format!("array {} not declared", addr.array));
                }
            }
        }
        // A use may read a register defined later in the body, carried
        // around the back edge: any register defined somewhere or live-in.
        for (op, _) in self.all_ops() {
            for u in op.uses() {
                if !defined.contains(&u) {
                    return Err(format!("register {u} used but never defined nor live-in"));
                }
            }
        }
        Ok(())
    }

    /// Allocate a fresh general-purpose register (used by schedulers when
    /// renaming).
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.n_regs);
        self.n_regs += 1;
        r
    }

    /// Allocate a fresh condition register.
    pub fn fresh_cc(&mut self) -> CcReg {
        let c = CcReg(self.n_ccs);
        self.n_ccs += 1;
        c
    }
}

/// Incremental builder for [`LoopSpec`]s.
///
/// ```
/// use psp_ir::{LoopBuilder, op::build};
/// use psp_ir::op::CmpOp;
///
/// // for (k = 0; k < n; k++) if (x[k] < x[m]) m = k;   (paper §1.1)
/// let mut b = LoopBuilder::new("vecmin");
/// let x = b.array("x");
/// let one = b.named_reg("one");
/// let n = b.named_reg("n");
/// let k = b.named_reg("k");
/// let m = b.named_reg("m");
/// let xk = b.named_reg("xk");
/// let xm = b.named_reg("xm");
/// let cc0 = b.cc();
/// let cc1 = b.cc();
/// b.op(build::load(xk, x, k));
/// b.op(build::load(xm, x, m));
/// b.op(build::cmp(CmpOp::Lt, cc0, xk, xm));
/// b.if_else(cc0, |b| { b.op(build::copy(m, k)); }, |_| {});
/// b.op(build::add(k, k, one));
/// b.op(build::cmp(CmpOp::Ge, cc1, k, n));
/// b.break_(cc1);
/// let spec = b.finish([one, n, k, m], [m]);
/// assert_eq!(spec.n_ifs, 1);
/// assert!(spec.validate().is_ok());
/// ```
#[derive(Debug)]
pub struct LoopBuilder {
    name: String,
    stack: Vec<Vec<Item>>,
    /// Open `begin_if` frames: `(if_id, cc, then_items once begin_else ran)`.
    pending_ifs: Vec<(u32, CcReg, Option<Vec<Item>>)>,
    arrays: Vec<String>,
    n_regs: u32,
    n_ccs: u32,
    n_ifs: u32,
    reg_names: BTreeMap<u32, String>,
}

impl LoopBuilder {
    /// Start building a loop named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            stack: vec![Vec::new()],
            pending_ifs: Vec::new(),
            arrays: Vec::new(),
            n_regs: 0,
            n_ccs: 0,
            n_ifs: 0,
            reg_names: BTreeMap::new(),
        }
    }

    /// Declare an array.
    pub fn array(&mut self, name: impl Into<String>) -> ArrayId {
        self.arrays.push(name.into());
        ArrayId(self.arrays.len() as u32 - 1)
    }

    /// Allocate a register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg(self.n_regs);
        self.n_regs += 1;
        r
    }

    /// Allocate a register with a debug name.
    pub fn named_reg(&mut self, name: impl Into<String>) -> Reg {
        let r = self.reg();
        self.reg_names.insert(r.0, name.into());
        r
    }

    /// Allocate a condition register.
    pub fn cc(&mut self) -> CcReg {
        let c = CcReg(self.n_ccs);
        self.n_ccs += 1;
        c
    }

    /// Append a straight-line operation.
    pub fn op(&mut self, op: Operation) -> &mut Self {
        assert!(
            !op.is_if() && !op.is_break(),
            "use if_else / break_ for control operations"
        );
        self.top().push(Item::Op(op));
        self
    }

    /// Append an `if (cc) {then} else {else}` region; the closures populate
    /// the two branches.
    pub fn if_else(
        &mut self,
        cc: CcReg,
        then_f: impl FnOnce(&mut Self),
        else_f: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.begin_if(cc);
        then_f(self);
        self.begin_else();
        else_f(self);
        self.end_if()
    }

    /// Append a `BREAK cc` exit test.
    pub fn break_(&mut self, cc: CcReg) -> &mut Self {
        self.top().push(Item::Break(BreakItem { cc }));
        self
    }

    /// Open an `if (cc)` region imperatively (alternative to
    /// [`LoopBuilder::if_else`] when closures are inconvenient, e.g. in
    /// recursive lowering). Statements now append to the *then* branch;
    /// call [`LoopBuilder::begin_else`] to switch branches and
    /// [`LoopBuilder::end_if`] to close the region.
    pub fn begin_if(&mut self, cc: CcReg) -> &mut Self {
        let if_id = self.n_ifs;
        self.n_ifs += 1;
        self.pending_ifs.push((if_id, cc, None));
        self.stack.push(Vec::new());
        self
    }

    /// Switch the open `begin_if` region to its else branch.
    pub fn begin_else(&mut self) -> &mut Self {
        let frame = self
            .pending_ifs
            .last_mut()
            .expect("begin_else without begin_if");
        assert!(frame.2.is_none(), "begin_else called twice");
        let then_items = self.stack.pop().expect("builder stack underflow");
        frame.2 = Some(then_items);
        self.stack.push(Vec::new());
        self
    }

    /// Close the innermost `begin_if` region.
    pub fn end_if(&mut self) -> &mut Self {
        let (if_id, cc, then_opt) = self.pending_ifs.pop().expect("end_if without begin_if");
        let last = self.stack.pop().expect("builder stack underflow");
        let (then_items, else_items) = match then_opt {
            Some(then_items) => (then_items, last),
            None => (last, Vec::new()),
        };
        self.top().push(Item::If(IfItem {
            if_id,
            cc,
            then_items,
            else_items,
        }));
        self
    }

    /// Finish the loop.
    pub fn finish(
        mut self,
        live_in: impl IntoIterator<Item = impl Into<RegRef>>,
        live_out: impl IntoIterator<Item = impl Into<RegRef>>,
    ) -> LoopSpec {
        assert!(self.pending_ifs.is_empty(), "unclosed begin_if region");
        assert_eq!(self.stack.len(), 1, "unbalanced if_else nesting");
        LoopSpec {
            name: self.name,
            items: self.stack.pop().unwrap(),
            live_in: live_in.into_iter().map(Into::into).collect(),
            live_out: live_out.into_iter().map(Into::into).collect(),
            arrays: self.arrays,
            n_regs: self.n_regs,
            n_ccs: self.n_ccs,
            n_ifs: self.n_ifs,
            reg_names: self.reg_names,
        }
    }

    fn top(&mut self) -> &mut Vec<Item> {
        self.stack.last_mut().expect("builder stack underflow")
    }
}

impl fmt::Display for LoopSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn walk(items: &[Item], indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for item in items {
                match item {
                    Item::Op(op) => writeln!(f, "{:indent$}{op}", "", indent = indent)?,
                    Item::If(i) => {
                        writeln!(
                            f,
                            "{:indent$}IF {} (p{})",
                            "",
                            i.cc,
                            i.if_id,
                            indent = indent
                        )?;
                        walk(&i.then_items, indent + 2, f)?;
                        if !i.else_items.is_empty() {
                            writeln!(f, "{:indent$}ELSE", "", indent = indent)?;
                            walk(&i.else_items, indent + 2, f)?;
                        }
                        writeln!(f, "{:indent$}ENDIF", "", indent = indent)?;
                    }
                    Item::Break(b) => writeln!(f, "{:indent$}BREAK {}", "", b.cc, indent = indent)?,
                }
            }
            Ok(())
        }
        writeln!(f, "loop {} {{", self.name)?;
        walk(&self.items, 2, f)?;
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::build::*;
    use crate::op::CmpOp;

    fn vecmin() -> LoopSpec {
        let mut b = LoopBuilder::new("vecmin");
        let x = b.array("x");
        let one = b.named_reg("one");
        let n = b.named_reg("n");
        let k = b.named_reg("k");
        let m = b.named_reg("m");
        let xk = b.reg();
        let xm = b.reg();
        let cc0 = b.cc();
        let cc1 = b.cc();
        b.op(load(xk, x, k));
        b.op(load(xm, x, m));
        b.op(cmp(CmpOp::Lt, cc0, xk, xm));
        b.if_else(
            cc0,
            |b| {
                b.op(copy(m, k));
            },
            |_| {},
        );
        b.op(add(k, k, one));
        b.op(cmp(CmpOp::Ge, cc1, k, n));
        b.break_(cc1);
        b.finish([one, n, k, m], [m])
    }

    #[test]
    fn vecmin_structure() {
        let spec = vecmin();
        assert_eq!(spec.n_ifs, 1);
        assert_eq!(spec.op_count(), 8);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.arrays, vec!["x".to_string()]);
    }

    #[test]
    fn all_ops_depth() {
        let spec = vecmin();
        let ops = spec.all_ops();
        // COPY sits at depth 1 inside the IF.
        let copy_depth = ops
            .iter()
            .find(|(op, _)| matches!(op.kind, OpKind::Copy { .. }))
            .map(|&(_, d)| d);
        assert_eq!(copy_depth, Some(1));
        // IF itself at depth 0.
        let if_depth = ops.iter().find(|(op, _)| op.is_if()).map(|&(_, d)| d);
        assert_eq!(if_depth, Some(0));
    }

    #[test]
    fn validate_rejects_undeclared_array() {
        let mut b = LoopBuilder::new("bad");
        let k = b.reg();
        let d = b.reg();
        b.op(load(d, ArrayId(7), k));
        let cc = b.cc();
        b.break_(cc);
        let mut spec = b.finish([k], [d]);
        spec.live_in.push(RegRef::Cc(CcReg(0)));
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validate_rejects_undefined_use() {
        let mut b = LoopBuilder::new("bad2");
        let cc = b.cc();
        b.break_(cc); // cc never defined, not live-in
        let spec = b.finish(Vec::<Reg>::new(), Vec::<Reg>::new());
        assert!(spec.validate().is_err());
    }

    #[test]
    fn nested_if_ids_are_dense() {
        let mut b = LoopBuilder::new("nested");
        let cc0 = b.cc();
        let cc1 = b.cc();
        let r = b.reg();
        let one = b.named_reg("one");
        b.op(cmp(CmpOp::Lt, cc0, r, 0i64));
        b.if_else(
            cc0,
            |b| {
                b.op(cmp(CmpOp::Lt, cc1, r, 10i64));
                b.if_else(
                    cc1,
                    |b| {
                        b.op(add(r, r, one));
                    },
                    |_| {},
                );
            },
            |b| {
                b.op(sub(r, r, one));
            },
        );
        let ccb = b.cc();
        b.op(cmp(CmpOp::Ge, ccb, r, 100i64));
        b.break_(ccb);
        let spec = b.finish([r, one], [r]);
        assert_eq!(spec.n_ifs, 2);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn fresh_registers_extend_counts() {
        let mut spec = vecmin();
        let r = spec.fresh_reg();
        assert_eq!(r.0, 6);
        assert_eq!(spec.n_regs, 7);
        let c = spec.fresh_cc();
        assert_eq!(c.0, 2);
    }

    #[test]
    fn display_is_structured() {
        let s = vecmin().to_string();
        assert!(s.contains("loop vecmin {"));
        assert!(s.contains("IF CC0 (p0)"));
        assert!(s.contains("BREAK CC1"));
        assert!(s.contains("ENDIF"));
    }
}
