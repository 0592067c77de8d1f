//! The fuzz grammar: a tiny statement AST over a fixed register universe
//! (`n`, `k`, `acc`, three scratch registers, arrays `x` and `y`) that every
//! generated loop is built from.
//!
//! The repo's differential suites draw statement lists of this grammar from
//! proptest strategies (`tests/common/mod.rs`) and lower them with
//! [`build_spec`]. The fuzzer's own generation and mutation run off a
//! deterministic [`SplitMix64`] stream so a corpus entry is reproducible
//! from its seed alone, and [`to_source`] renders any statement list as
//! `psp-lang` text, which is how minimized reproducers are stored on disk.

use psp_ir::op::build;
use psp_ir::{AluOp, ArrayId, CmpOp, LoopBuilder, LoopSpec, Operand, Reg};
use psp_kernels::KernelData;
pub use psp_kernels::SplitMix64;
use psp_sim::MachineState;

/// Register universe of a generated loop: R0=n, R1=k, R2=acc, R3..=scratch.
pub const N: Reg = Reg(0);
/// Induction register.
pub const K: Reg = Reg(1);
/// Accumulator (the live-out).
pub const ACC: Reg = Reg(2);
/// First scratch register.
pub const SCRATCH: u32 = 3;
/// Number of scratch registers.
pub const N_SCRATCH: u32 = 3;

/// One statement. Field bytes are free codes; [`operand`], [`alu`] and
/// [`cmp`] fold them into the finite universe, so every byte pattern is a
/// valid program — the property that makes blind mutation productive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum S {
    /// `s<d%3> = operand(a) aluop(op) operand(b)`.
    Alu(u8, u8, u8, u8),
    /// `s<d%3> = x[k]`.
    LoadX(u8),
    /// `s<d%3> = y[k]`.
    LoadY(u8),
    /// `acc = acc + operand(src)`.
    AccAdd(u8),
    /// `y[k] = operand(src)`.
    StoreY(u8),
    /// `if operand(a) cmp(c) operand(b) { then } else { else }`.
    If(u8, u8, u8, Vec<S>, Vec<S>),
}

/// Decode an operand byte.
pub fn operand(code: u8) -> Operand {
    match code % 6 {
        0 => Operand::Reg(K),
        1 => Operand::Reg(ACC),
        2 => Operand::Reg(Reg(SCRATCH)),
        3 => Operand::Reg(Reg(SCRATCH + 1)),
        4 => Operand::Reg(Reg(SCRATCH + 2)),
        _ => Operand::Imm((code as i64 % 7) - 3),
    }
}

/// Decode an ALU opcode byte.
pub fn alu(code: u8) -> AluOp {
    [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Min,
        AluOp::Max,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
    ][code as usize % 8]
}

/// Decode a comparison byte.
pub fn cmp(code: u8) -> CmpOp {
    [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ][code as usize % 6]
}

fn emit(b: &mut LoopBuilder, stmts: &[S], x: ArrayId, y: ArrayId) {
    for s in stmts {
        match s {
            S::Alu(op, d, a2, b2) => {
                let dst = Reg(SCRATCH + (*d as u32 % N_SCRATCH));
                b.op(build::alu(alu(*op), dst, operand(*a2), operand(*b2)));
            }
            S::LoadX(d) => {
                let dst = Reg(SCRATCH + (*d as u32 % N_SCRATCH));
                b.op(build::load(dst, x, K));
            }
            S::LoadY(d) => {
                let dst = Reg(SCRATCH + (*d as u32 % N_SCRATCH));
                b.op(build::load(dst, y, K));
            }
            S::AccAdd(src) => {
                b.op(build::add(ACC, ACC, operand(*src)));
            }
            S::StoreY(src) => {
                b.op(build::store(y, K, operand(*src)));
            }
            S::If(c, a2, b2, t, e) => {
                let cc = b.cc();
                b.op(build::cmp(cmp(*c), cc, operand(*a2), operand(*b2)));
                b.begin_if(cc);
                emit(b, t, x, y);
                b.begin_else();
                emit(b, e, x, y);
                b.end_if();
            }
        }
    }
}

/// Lower a statement list to a [`LoopSpec`] with the standard epilogue
/// (`k = k + 1; break if (k >= n)`).
pub fn build_spec(stmts: &[S]) -> LoopSpec {
    let mut b = LoopBuilder::new("fuzz");
    let x = b.array("x");
    let y = b.array("y");
    let n = b.named_reg("n");
    let k = b.named_reg("k");
    let acc = b.named_reg("acc");
    let s0 = b.named_reg("s0");
    let s1 = b.named_reg("s1");
    let s2 = b.named_reg("s2");
    assert_eq!((n, k, acc), (N, K, ACC));
    emit(&mut b, stmts, x, y);
    b.op(build::add(K, K, 1i64));
    let ccb = b.cc();
    b.op(build::cmp(CmpOp::Ge, ccb, K, N));
    b.break_(ccb);
    b.finish([n, k, acc, s0, s1, s2], [acc])
}

/// Build an initial machine state for a generated loop: `n = len`, random
/// `x`/`y` contents, everything else zero.
pub fn initial(spec: &LoopSpec, len: usize, seed: u64) -> MachineState {
    let data = KernelData::random(seed, len);
    let mut st = MachineState::new(spec.n_regs.max(8), spec.n_ccs.max(4));
    st.regs[N.0 as usize] = len as i64;
    st.push_array(data.x);
    st.push_array(data.y);
    st
}

// --- deterministic randomness ------------------------------------------

fn random_leaf(rng: &mut SplitMix64) -> S {
    match rng.below(5) {
        0 => S::Alu(rng.byte(), rng.byte(), rng.byte(), rng.byte()),
        1 => S::LoadX(rng.byte()),
        2 => S::LoadY(rng.byte()),
        3 => S::AccAdd(rng.byte()),
        _ => S::StoreY(rng.byte()),
    }
}

fn random_stmt(rng: &mut SplitMix64, depth: u32) -> S {
    if depth > 0 && rng.below(4) == 0 {
        let t = (0..1 + rng.below(2))
            .map(|_| random_stmt(rng, depth - 1))
            .collect();
        let e = (0..rng.below(2))
            .map(|_| random_stmt(rng, depth - 1))
            .collect();
        S::If(rng.byte(), rng.byte(), rng.byte(), t, e)
    } else {
        random_leaf(rng)
    }
}

/// A fresh random loop body: 2–6 statements, conditions nested ≤ 2 deep.
pub fn random_body(rng: &mut SplitMix64) -> Vec<S> {
    let n = 2 + rng.below(5);
    (0..n).map(|_| random_stmt(rng, 2)).collect()
}

// --- mutation ----------------------------------------------------------

/// Number of statements, counting nested ones.
pub fn stmt_count(stmts: &[S]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            S::If(_, _, _, t, e) => 1 + stmt_count(t) + stmt_count(e),
            _ => 1,
        })
        .sum()
}

pub(crate) fn remove_nth(stmts: &mut Vec<S>, n: &mut usize) -> bool {
    let mut i = 0;
    while i < stmts.len() {
        if *n == 0 {
            stmts.remove(i);
            return true;
        }
        *n -= 1;
        if let S::If(_, _, _, t, e) = &mut stmts[i] {
            if remove_nth(t, n) || remove_nth(e, n) {
                return true;
            }
        }
        i += 1;
    }
    false
}

fn insert_nth(stmts: &mut Vec<S>, n: &mut usize, s: &S) -> bool {
    let mut i = 0;
    loop {
        if *n == 0 {
            stmts.insert(i, s.clone());
            return true;
        }
        if i == stmts.len() {
            return false;
        }
        *n -= 1;
        if let S::If(_, _, _, t, e) = &mut stmts[i] {
            if insert_nth(t, n, s) || insert_nth(e, n, s) {
                return true;
            }
        }
        i += 1;
    }
}

pub(crate) fn with_nth(stmts: &mut [S], n: &mut usize, f: &mut impl FnMut(&mut S)) -> bool {
    for s in stmts.iter_mut() {
        if *n == 0 {
            f(s);
            return true;
        }
        *n -= 1;
        if let S::If(_, _, _, t, e) = s {
            if with_nth(t, n, f) || with_nth(e, n, f) {
                return true;
            }
        }
    }
    false
}

fn nth_stmt(stmts: &[S], n: &mut usize) -> Option<S> {
    for s in stmts {
        if *n == 0 {
            return Some(s.clone());
        }
        *n -= 1;
        if let S::If(_, _, _, t, e) = s {
            if let Some(found) = nth_stmt(t, n).or_else(|| nth_stmt(e, n)) {
                return Some(found);
            }
        }
    }
    None
}

/// Drop `if`s whose then-arm went empty (splicing the else arm in place)
/// so every surviving `if` prints and re-lowers cleanly.
pub fn normalize(stmts: &mut Vec<S>) {
    let mut i = 0;
    while i < stmts.len() {
        if let S::If(_, _, _, t, e) = &mut stmts[i] {
            normalize(t);
            normalize(e);
            if t.is_empty() {
                let tail = std::mem::take(e);
                stmts.splice(i..=i, tail);
                continue;
            }
        }
        i += 1;
    }
}

/// One mutation step: insert, delete, duplicate, code-flip, wrap in a new
/// condition, unwrap a condition, or swap a condition's arms.
pub fn mutate(stmts: &[S], rng: &mut SplitMix64) -> Vec<S> {
    let mut out = stmts.to_vec();
    let total = stmt_count(&out).max(1);
    match rng.below(7) {
        0 => {
            let s = random_stmt(rng, 1);
            let mut n = rng.below(total + 1);
            insert_nth(&mut out, &mut n, &s);
        }
        1 => {
            let mut n = rng.below(total);
            remove_nth(&mut out, &mut n);
        }
        2 => {
            let mut n = rng.below(total);
            if let Some(s) = nth_stmt(&out, &mut n.clone()) {
                insert_nth(&mut out, &mut n, &s);
            }
        }
        3 => {
            let mut n = rng.below(total);
            let b = rng.byte();
            let which = rng.below(4);
            with_nth(&mut out, &mut n, &mut |s| match s {
                S::Alu(op, d, a, b2) => {
                    *[op, d, a, b2][which] = b;
                }
                S::LoadX(d) | S::LoadY(d) | S::AccAdd(d) | S::StoreY(d) => *d = b,
                S::If(c, a, b2, _, _) => {
                    *[c, a, b2][which % 3] = b;
                }
            });
        }
        4 => {
            let mut n = rng.below(total);
            let (c, a, b) = (rng.byte(), rng.byte(), rng.byte());
            with_nth(&mut out, &mut n, &mut |s| {
                let inner = s.clone();
                *s = S::If(c, a, b, vec![inner], Vec::new());
            });
        }
        5 => {
            let mut n = rng.below(total);
            with_nth(&mut out, &mut n, &mut |s| {
                if let S::If(_, _, _, t, _) = s {
                    if let Some(first) = t.first().cloned() {
                        *s = first;
                    }
                }
            });
        }
        _ => {
            let mut n = rng.below(total);
            with_nth(&mut out, &mut n, &mut |s| {
                if let S::If(_, _, _, t, e) = s {
                    std::mem::swap(t, e);
                }
            });
        }
    }
    normalize(&mut out);
    if out.is_empty() {
        out.push(random_leaf(rng));
    }
    out
}

// --- source rendering --------------------------------------------------

fn operand_src(code: u8) -> String {
    match operand(code) {
        Operand::Reg(K) => "k".into(),
        Operand::Reg(ACC) => "acc".into(),
        Operand::Reg(r) => format!("s{}", r.0 - SCRATCH),
        // The lexer only reads `-N` as a literal after `(`, `[`, `,`, `=`,
        // or an operator — `min`/`max` are keywords, so parenthesize.
        Operand::Imm(v) if v < 0 => format!("({v})"),
        Operand::Imm(v) => v.to_string(),
    }
}

fn stmt_src(out: &mut String, s: &S, depth: usize) {
    let pad = "    ".repeat(depth);
    match s {
        S::Alu(op, d, a, b) => {
            out.push_str(&format!(
                "{pad}s{} = {} {} {};\n",
                *d as u32 % N_SCRATCH,
                operand_src(*a),
                psp_lang::print::alu_spelling(alu(*op)),
                operand_src(*b)
            ));
        }
        S::LoadX(d) => out.push_str(&format!("{pad}s{} = x[k];\n", *d as u32 % N_SCRATCH)),
        S::LoadY(d) => out.push_str(&format!("{pad}s{} = y[k];\n", *d as u32 % N_SCRATCH)),
        S::AccAdd(src) => out.push_str(&format!("{pad}acc = acc + {};\n", operand_src(*src))),
        S::StoreY(src) => out.push_str(&format!("{pad}y[k] = {};\n", operand_src(*src))),
        S::If(c, a, b, t, e) => {
            out.push_str(&format!(
                "{pad}if ({} {} {}) {{\n",
                operand_src(*a),
                psp_lang::print::cmp_spelling(cmp(*c)),
                operand_src(*b)
            ));
            for s in t {
                stmt_src(out, s, depth + 1);
            }
            out.push_str(&pad);
            out.push('}');
            if e.is_empty() {
                out.push('\n');
            } else {
                out.push_str(" else {\n");
                for s in e {
                    stmt_src(out, s, depth + 1);
                }
                out.push_str(&pad);
                out.push_str("}\n");
            }
        }
    }
}

/// Render a statement list as `psp-lang` source. `psp_lang::compile` of the
/// result lowers to exactly [`build_spec`] of the same statements — the
/// round-trip property `tests/lang_roundtrip.rs` pins.
pub fn to_source(stmts: &[S]) -> String {
    let mut out = String::from("kernel fuzz(n, k, acc, s0, s1, s2; x[], y[]) -> acc {\n");
    for s in stmts {
        stmt_src(&mut out, s, 1);
    }
    out.push_str("    k = k + 1;\n    break if (k >= n);\n}\n");
    out
}
