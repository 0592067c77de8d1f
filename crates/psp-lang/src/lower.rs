//! Lowering the AST to a [`psp_ir::LoopSpec`].
//!
//! Scalars become registers (parameters are live-in; assigned names are
//! allocated on first definition); compound expressions lower through fresh
//! temporaries; each comparison gets its own condition register; array
//! index expressions must reduce to a register or literal.

use crate::ast::{BinOp, Expr, Kernel, Stmt};
use psp_ir::op::build;
use psp_ir::{Address, ArrayId, LoopBuilder, Operand, Reg};
use std::collections::BTreeMap;
use std::fmt;

/// Lowering failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A name is used before any value is assigned to it and is not a
    /// parameter.
    Undefined(String),
    /// A name is used both as an array and a scalar.
    NotAnArray(String),
    /// Live-out name never defined.
    UnknownOut(String),
    /// The body has no `break if`, so the loop could never exit.
    NoExit,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Undefined(n) => write!(f, "`{n}` used before definition"),
            LowerError::NotAnArray(n) => write!(f, "`{n}` is not an array"),
            LowerError::UnknownOut(n) => write!(f, "live-out `{n}` is never defined"),
            LowerError::NoExit => write!(
                f,
                "the loop body has no `break if`: every loop needs an exit"
            ),
        }
    }
}

impl std::error::Error for LowerError {}

struct Ctx {
    b: LoopBuilder,
    regs: BTreeMap<String, Reg>,
    arrays: BTreeMap<String, ArrayId>,
    params: Vec<String>,
}

impl Ctx {
    fn reg_of(&mut self, name: &str) -> Result<Reg, LowerError> {
        if self.arrays.contains_key(name) {
            return Err(LowerError::NotAnArray(name.into()));
        }
        match self.regs.get(name) {
            Some(&r) => Ok(r),
            None => Err(LowerError::Undefined(name.into())),
        }
    }

    fn def_reg(&mut self, name: &str) -> Reg {
        if let Some(&r) = self.regs.get(name) {
            return r;
        }
        let r = self.b.named_reg(name);
        self.regs.insert(name.into(), r);
        r
    }

    fn array_of(&self, name: &str) -> Result<ArrayId, LowerError> {
        self.arrays
            .get(name)
            .copied()
            .ok_or_else(|| LowerError::NotAnArray(name.into()))
    }

    /// Lower an expression to an operand, emitting ops for subterms.
    fn operand(&mut self, e: &Expr) -> Result<Operand, LowerError> {
        Ok(match e {
            Expr::Int(v) => Operand::Imm(*v),
            Expr::Var(name) => Operand::Reg(self.reg_of(name)?),
            Expr::Index(..) | Expr::Bin(..) => {
                let t = self.b.reg();
                self.lower_into(t, e)?;
                Operand::Reg(t)
            }
        })
    }

    /// Lower an array address: the index must reduce to a register plus an
    /// optional literal displacement.
    fn address(&mut self, array: &str, idx: &Expr) -> Result<Address, LowerError> {
        let array = self.array_of(array)?;
        Ok(match idx {
            Expr::Int(v) => Address::constant(array, *v),
            Expr::Var(n) => Address::indexed(array, self.reg_of(n)?),
            Expr::Bin(BinOp(psp_ir::AluOp::Add), a, b) => match (&**a, &**b) {
                (Expr::Var(n), Expr::Int(d)) => {
                    Address::indexed(array, self.reg_of(n)?).displaced(*d)
                }
                (Expr::Int(d), Expr::Var(n)) => {
                    Address::indexed(array, self.reg_of(n)?).displaced(*d)
                }
                _ => {
                    let t = self.b.reg();
                    self.lower_into(t, idx)?;
                    Address::indexed(array, t)
                }
            },
            _ => {
                let t = self.b.reg();
                self.lower_into(t, idx)?;
                Address::indexed(array, t)
            }
        })
    }

    /// Lower `dst = e`.
    fn lower_into(&mut self, dst: Reg, e: &Expr) -> Result<(), LowerError> {
        match e {
            Expr::Int(v) => {
                self.b.op(build::copy(dst, *v));
            }
            Expr::Var(name) => {
                let src = self.reg_of(name)?;
                self.b.op(build::copy(dst, src));
            }
            Expr::Index(array, idx) => {
                let addr = self.address(array, idx)?;
                self.b.op(build::load_addr(dst, addr));
            }
            Expr::Bin(BinOp(op), a, bx) => {
                let a = self.operand(a)?;
                let bo = self.operand(bx)?;
                self.b.op(build::alu(*op, dst, a, bo));
            }
        }
        Ok(())
    }

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), LowerError> {
        for s in stmts {
            match s {
                Stmt::Assign(name, e) => {
                    // Evaluate the RHS *before* allocating the destination
                    // (so `v = v + 1` reads the old register — here they are
                    // the same register, which is exactly right).
                    match e {
                        // Direct forms avoid a temporary + copy.
                        Expr::Bin(BinOp(op), a, bx) => {
                            let a = self.operand(a)?;
                            let bo = self.operand(bx)?;
                            let dst = self.def_reg(name);
                            self.b.op(build::alu(*op, dst, a, bo));
                        }
                        Expr::Index(array, idx) => {
                            let addr = self.address(array, idx)?;
                            let dst = self.def_reg(name);
                            self.b.op(build::load_addr(dst, addr));
                        }
                        Expr::Int(v) => {
                            let dst = self.def_reg(name);
                            self.b.op(build::copy(dst, *v));
                        }
                        Expr::Var(src) => {
                            let src = self.reg_of(src)?;
                            let dst = self.def_reg(name);
                            self.b.op(build::copy(dst, src));
                        }
                    }
                }
                Stmt::Store(array, idx, value) => {
                    let addr = self.address(array, idx)?;
                    let v = self.operand(value)?;
                    self.b.op(build::store_addr(addr, v));
                }
                Stmt::If {
                    cmp,
                    lhs,
                    rhs,
                    then_body,
                    else_body,
                } => {
                    let a = self.operand(lhs)?;
                    let bo = self.operand(rhs)?;
                    let cc = self.b.cc();
                    self.b.op(build::cmp(*cmp, cc, a, bo));
                    self.b.begin_if(cc);
                    self.lower_stmts(then_body)?;
                    self.b.begin_else();
                    self.lower_stmts(else_body)?;
                    self.b.end_if();
                }
                Stmt::BreakIf { cmp, lhs, rhs } => {
                    let a = self.operand(lhs)?;
                    let bo = self.operand(rhs)?;
                    let cc = self.b.cc();
                    self.b.op(build::cmp(*cmp, cc, a, bo));
                    self.b.break_(cc);
                }
            }
        }
        Ok(())
    }
}

/// Lower a parsed kernel.
pub fn lower(k: &Kernel) -> Result<psp_ir::LoopSpec, LowerError> {
    let mut ctx = Ctx {
        b: LoopBuilder::new(k.name.clone()),
        regs: BTreeMap::new(),
        arrays: BTreeMap::new(),
        params: k.scalars.clone(),
    };
    for a in &k.arrays {
        let id = ctx.b.array(a.clone());
        ctx.arrays.insert(a.clone(), id);
    }
    for s in &k.scalars {
        let r = ctx.b.named_reg(s.clone());
        ctx.regs.insert(s.clone(), r);
    }
    ctx.lower_stmts(&k.body)?;
    if !has_exit(&k.body) {
        return Err(LowerError::NoExit);
    }
    let live_in: Vec<Reg> = ctx.params.iter().map(|p| ctx.regs[p]).collect();
    let mut live_out = Vec::new();
    for o in &k.outs {
        match ctx.regs.get(o) {
            Some(&r) => live_out.push(r),
            None => return Err(LowerError::UnknownOut(o.clone())),
        }
    }
    Ok(ctx.b.finish(live_in, live_out))
}

/// Whether `stmts` hold a `break if`, at any depth.
fn has_exit(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::BreakIf { .. } => true,
        Stmt::If {
            then_body,
            else_body,
            ..
        } => has_exit(then_body) || has_exit(else_body),
        Stmt::Assign(..) | Stmt::Store(..) => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileError};
    use psp_sim::{run_reference, MachineState};

    #[test]
    fn vecmin_from_source_matches_handbuilt_shape() {
        let spec = compile(
            "kernel vecmin(n, k, m; x[]) -> m {
                xk = x[k]; xm = x[m];
                if (xk < xm) { m = k; }
                k = k + 1;
                break if (k >= n);
            }",
        )
        .unwrap();
        assert_eq!(spec.n_ifs, 1);
        assert_eq!(spec.op_count(), 8);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn compiled_kernel_executes_correctly() {
        let spec = compile(
            "kernel condsum(n, k, acc, t; x[]) -> acc {
                v = x[k];
                if (v > t) { acc = acc + v; }
                k = k + 1;
                break if (k >= n);
            }",
        )
        .unwrap();
        let mut st = MachineState::new(spec.n_regs, spec.n_ccs);
        let data = vec![5, -3, 8, 0, 7];
        st.regs[0] = data.len() as i64; // n
        st.regs[3] = 0; // t
        st.push_array(data.clone());
        let run = run_reference(&spec, st, 100_000).unwrap();
        let expected: i64 = data.iter().filter(|&&v| v > 0).sum();
        // acc register index: n,k,acc,t => acc = R2.
        assert_eq!(run.state.regs[2], expected);
    }

    #[test]
    fn nested_if_and_else_lower() {
        let spec = compile(
            "kernel clamp(n, k, lo, hi; x[], y[]) {
                v = x[k];
                if (v < lo) { v = lo; } else {
                    if (v > hi) { v = hi; }
                }
                y[k] = v;
                k = k + 1;
                break if (k >= n);
            }",
        )
        .unwrap();
        assert_eq!(spec.n_ifs, 2);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn displaced_addresses_lower_directly() {
        let spec = compile(
            "kernel d(n, k; x[], y[]) {
                y[k] = x[k + 1];
                k = k + 1;
                break if (k >= n);
            }",
        )
        .unwrap();
        let flat = psp_ir::flatten(&spec);
        let load = flat
            .iter()
            .find_map(|f| match f.op.kind {
                psp_ir::OpKind::Load { addr, .. } => Some(addr),
                _ => None,
            })
            .unwrap();
        assert_eq!(load.disp, 1);
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            compile("kernel e(n) { a = b + 1; break if (n >= 0); }"),
            Err(CompileError::Lower(LowerError::Undefined(_)))
        ));
        assert!(matches!(
            compile("kernel e(n; x[]) -> q { k = x[0]; break if (n >= 0); }"),
            Err(CompileError::Lower(LowerError::UnknownOut(_)))
        ));
        assert!(matches!(
            compile("kernel e(n) { a = n[0]; break if (n >= 0); }"),
            Err(CompileError::Lower(LowerError::NotAnArray(_)))
        ));
    }

    #[test]
    fn a_body_without_an_exit_is_refused() {
        for src in ["kernel k(n) -> n { }", "kernel k(n, k) -> k { k = k + 1; }"] {
            assert_eq!(compile(src), Err(CompileError::Lower(LowerError::NoExit)));
        }
        // An exit under a condition is still an exit.
        assert!(
            compile("kernel k(n, k) -> k { k = k + 1; if (k > 0) { break if (k >= n); } }").is_ok()
        );
    }

    #[test]
    fn complex_expressions_make_temporaries() {
        let spec = compile(
            "kernel t(n, k, acc; x[], y[]) -> acc {
                acc = acc + (x[k] * y[k]);
                k = k + 1;
                break if (k >= n);
            }",
        )
        .unwrap();
        assert!(spec.validate().is_ok());
        // Two loads, mul, acc add, k add, cmp, break = 7 ops.
        assert_eq!(spec.op_count(), 7);
    }
}
