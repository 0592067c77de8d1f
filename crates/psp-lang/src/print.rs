//! Pretty-printer: [`Kernel`] AST → concrete syntax that re-parses to the
//! identical AST.
//!
//! Round-trip contract (`parse(print(k)) == k`) relies on three facts about
//! the front end:
//!
//! - the parser is flat left-associative with **no precedence**, so a `Bin`
//!   left operand prints unparenthesized (chains re-associate back), while a
//!   `Bin` right operand must be parenthesized;
//! - parentheses produce no AST node, so the extra grouping is invisible;
//! - the lexer only reads `-N` as a negative literal after `(`, `[`, `,`,
//!   `=`, or an operator token. The keyword operators `min` and `max` are
//!   identifiers to the lexer, so a negative literal after one prints in
//!   parentheses; everywhere else `{}` formatting of a negative
//!   [`Expr::Int`] is safe.

use crate::ast::{BinOp, Expr, Kernel, Stmt};
use psp_ir::{AluOp, CmpOp};
use std::fmt::Write;

/// Operator spelling for an ALU opcode (inverse of [`BinOp::from_str`]).
pub fn alu_spelling(op: AluOp) -> &'static str {
    match op {
        AluOp::Add => "+",
        AluOp::Sub => "-",
        AluOp::Mul => "*",
        AluOp::And => "&",
        AluOp::Or => "|",
        AluOp::Xor => "^",
        AluOp::Shl => "<<",
        AluOp::Shr => ">>",
        AluOp::Min => "min",
        AluOp::Max => "max",
    }
}

/// Comparison spelling (inverse of [`crate::ast::cmp_from_str`]).
pub fn cmp_spelling(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
    }
}

/// Print an expression. `parenthesize` wraps a `Bin` (used for right
/// operands, where flat re-parsing would steal the subtree) or a literal.
fn write_expr(out: &mut String, e: &Expr, parenthesize: bool) {
    match e {
        Expr::Int(v) if parenthesize => {
            let _ = write!(out, "({v})");
        }
        Expr::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::Var(name) => out.push_str(name),
        Expr::Index(arr, idx) => {
            out.push_str(arr);
            out.push('[');
            write_expr(out, idx, false);
            out.push(']');
        }
        Expr::Bin(BinOp(op), lhs, rhs) => {
            if parenthesize {
                out.push('(');
            }
            write_expr(out, lhs, false);
            let _ = write!(out, " {} ", alu_spelling(*op));
            let group = matches!(**rhs, Expr::Bin(..))
                || (matches!(op, AluOp::Min | AluOp::Max)
                    && matches!(**rhs, Expr::Int(v) if v < 0));
            write_expr(out, rhs, group);
            if parenthesize {
                out.push(')');
            }
        }
    }
}

/// Print one expression to a string (right-operand grouping applied inside).
pub fn print_expr(e: &Expr) -> String {
    let mut s = String::new();
    write_expr(&mut s, e, false);
    s
}

fn write_condition(out: &mut String, cmp: CmpOp, lhs: &Expr, rhs: &Expr) {
    out.push('(');
    write_expr(out, lhs, false);
    let _ = write!(out, " {} ", cmp_spelling(cmp));
    write_expr(out, rhs, matches!(rhs, Expr::Bin(..)));
    out.push(')');
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn write_stmt(out: &mut String, stmt: &Stmt, depth: usize) {
    indent(out, depth);
    match stmt {
        Stmt::Assign(name, value) => {
            out.push_str(name);
            out.push_str(" = ");
            write_expr(out, value, false);
            out.push_str(";\n");
        }
        Stmt::Store(arr, idx, value) => {
            out.push_str(arr);
            out.push('[');
            write_expr(out, idx, false);
            out.push_str("] = ");
            write_expr(out, value, false);
            out.push_str(";\n");
        }
        Stmt::BreakIf { cmp, lhs, rhs } => {
            out.push_str("break if ");
            write_condition(out, *cmp, lhs, rhs);
            out.push_str(";\n");
        }
        Stmt::If { .. } => write_if(out, stmt, depth),
    }
}

/// Print an `if`, folding a single-`If` else body into `else if` (the exact
/// shape the parser's sugar produces).
fn write_if(out: &mut String, stmt: &Stmt, depth: usize) {
    let Stmt::If {
        cmp,
        lhs,
        rhs,
        then_body,
        else_body,
    } = stmt
    else {
        unreachable!("write_if called on non-if");
    };
    out.push_str("if ");
    write_condition(out, *cmp, lhs, rhs);
    out.push_str(" {\n");
    for s in then_body {
        write_stmt(out, s, depth + 1);
    }
    indent(out, depth);
    out.push('}');
    match else_body.as_slice() {
        [] => out.push('\n'),
        [only @ Stmt::If { .. }] => {
            out.push_str(" else ");
            write_if(out, only, depth);
        }
        _ => {
            out.push_str(" else {\n");
            for s in else_body {
                write_stmt(out, s, depth + 1);
            }
            indent(out, depth);
            out.push_str("}\n");
        }
    }
}

/// Print a kernel back to source accepted by [`crate::parse`].
pub fn print_kernel(k: &Kernel) -> String {
    let mut out = String::new();
    let _ = write!(out, "kernel {}(", k.name);
    out.push_str(&k.scalars.join(", "));
    if !k.arrays.is_empty() {
        out.push_str("; ");
        let arrays: Vec<String> = k.arrays.iter().map(|a| format!("{a}[]")).collect();
        out.push_str(&arrays.join(", "));
    }
    out.push(')');
    if !k.outs.is_empty() {
        let _ = write!(out, " -> {}", k.outs.join(", "));
    }
    out.push_str(" {\n");
    for s in &k.body {
        write_stmt(&mut out, s, 1);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lex, parse};

    fn roundtrip(src: &str) -> (Kernel, Kernel) {
        let k1 = parse(&lex(src).unwrap()).unwrap();
        let printed = print_kernel(&k1);
        let k2 = parse(&lex(&printed).unwrap())
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        (k1, k2)
    }

    #[test]
    fn roundtrips_vecmin() {
        let (k1, k2) = roundtrip(
            "kernel vecmin(n, k, m; x[]) -> m {
                xk = x[k]; xm = x[m];
                if (xk < xm) { m = k; }
                k = k + 1;
                break if (k >= n);
            }",
        );
        assert_eq!(k1, k2);
    }

    #[test]
    fn roundtrips_else_if_and_negative_literals() {
        let (k1, k2) = roundtrip(
            "kernel c(v, r; y[]) -> r {
                if (v < -3) { r = -1; }
                else if (v > 0) { y[v] = v + -2; }
                else { r = 0; }
                break if (v >= 0);
            }",
        );
        assert_eq!(k1, k2);
    }

    #[test]
    fn roundtrips_flat_left_assoc_chains() {
        // `a + b * c + 1` parses as ((a+b)*c)+1; printing must not introduce
        // grouping that changes the tree, and explicit right-grouping must
        // survive.
        let (k1, k2) = roundtrip(
            "kernel e(a, b, c) -> a {
                a = a + b * c + 1;
                b = a + (b * c);
                c = a min b max (c + 1);
                break if (a >= 0);
            }",
        );
        assert_eq!(k1, k2);
    }

    #[test]
    fn negative_literal_after_min_or_max_reparses() {
        // The fuzz suites' parse-print-reparse property found `acc min -3`,
        // which re-lexes as `acc min - 3`.
        let (k1, k2) = roundtrip(
            "kernel m(a, b) -> a {
                a = a min (-3);
                b = b max (-1) min 2;
                break if (a >= 0);
            }",
        );
        assert_eq!(k1, k2);
        assert!(print_kernel(&k1).contains("a min (-3);"));
    }

    #[test]
    fn header_without_arrays_or_outs() {
        let (k1, k2) = roundtrip("kernel h(a) { a = a - 1; break if (a <= 0); }");
        assert_eq!(k1, k2);
        assert!(print_kernel(&k1).starts_with("kernel h(a) {"));
    }
}
