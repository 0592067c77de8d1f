//! Recursive-descent parser.

use crate::ast::{cmp_from_str, BinOp, Expr, Kernel, Stmt};
use crate::lexer::Token;
use std::fmt;

/// Deepest nesting the parser accepts. Each `(`, each array index, each
/// `if` block (an `else if` included) and each binary operator of a
/// left-associative chain opens one level. The parser and every pass over
/// the AST (printing, lowering, dropping) recurse once per level; in a debug
/// build on a 2 MiB thread, 512 nested `if`s or 1,024 nested parentheses
/// overflow the stack, which aborts the process.
pub const MAX_NESTING: usize = 256;

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The tokens do not match the grammar.
    Syntax {
        /// Token index.
        at: usize,
        /// What went wrong.
        msg: String,
    },
    /// The level opened at token `at` is deeper than [`MAX_NESTING`].
    TooDeep {
        /// Token index.
        at: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { at, msg } => write!(f, "{msg} (token {at})"),
            ParseError::TooDeep { at } => write!(
                f,
                "nesting at token {at} is deeper than the limit of {MAX_NESTING} levels"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

struct P<'a> {
    toks: &'a [Token],
    pos: usize,
    /// Levels open at `pos` (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::Syntax {
            at: self.pos,
            msg: msg.into(),
        })
    }

    /// Open one nesting level; the caller closes it with `self.depth -= 1`.
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(ParseError::TooDeep { at: self.pos });
        }
        self.depth += 1;
        Ok(())
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        match self.next() {
            Some(got) if &got == t => Ok(()),
            Some(got) => {
                self.pos -= 1;
                self.err(format!("expected `{t}`, found `{got}`"))
            }
            None => self.err(format!("expected `{t}`, found end of input")),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            Some(got) => {
                self.pos -= 1;
                self.err(format!("expected identifier, found `{got}`"))
            }
            None => self.err("expected identifier, found end of input"),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let name = self.ident()?;
        if name == kw {
            Ok(())
        } else {
            self.pos -= 1;
            self.err(format!("expected keyword `{kw}`, found `{name}`"))
        }
    }

    fn kernel(&mut self) -> Result<Kernel, ParseError> {
        self.keyword("kernel")?;
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut scalars = Vec::new();
        let mut arrays = Vec::new();
        // Scalars up to `;` (optional), then arrays with `[]`.
        loop {
            match self.peek() {
                Some(Token::RParen) => break,
                Some(Token::Semi) => {
                    self.next();
                }
                Some(Token::Comma) => {
                    self.next();
                }
                _ => {
                    let id = self.ident()?;
                    if self.peek() == Some(&Token::LBracket) {
                        self.next();
                        self.expect(&Token::RBracket)?;
                        arrays.push(id);
                    } else {
                        scalars.push(id);
                    }
                }
            }
        }
        self.expect(&Token::RParen)?;
        let mut outs = Vec::new();
        if self.peek() == Some(&Token::Arrow) {
            self.next();
            loop {
                outs.push(self.ident()?);
                if self.peek() == Some(&Token::Comma) {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect(&Token::LBrace)?;
        let body = self.stmts()?;
        self.expect(&Token::RBrace)?;
        Ok(Kernel {
            name,
            scalars,
            arrays,
            outs,
            body,
        })
    }

    fn stmts(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        while !matches!(self.peek(), Some(Token::RBrace) | None) {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Token::Ident(id)) if id == "if" => {
                self.next();
                self.enter()?;
                self.expect(&Token::LParen)?;
                let (cmp, lhs, rhs) = self.condition()?;
                self.expect(&Token::RParen)?;
                self.expect(&Token::LBrace)?;
                let then_body = self.stmts()?;
                self.expect(&Token::RBrace)?;
                let mut else_body = Vec::new();
                if matches!(self.peek(), Some(Token::Ident(id)) if id == "else") {
                    self.next();
                    if matches!(self.peek(), Some(Token::Ident(id)) if id == "if") {
                        // `else if …` sugar: the else branch is the nested if.
                        else_body = vec![self.stmt()?];
                    } else {
                        self.expect(&Token::LBrace)?;
                        else_body = self.stmts()?;
                        self.expect(&Token::RBrace)?;
                    }
                }
                self.depth -= 1;
                Ok(Stmt::If {
                    cmp,
                    lhs,
                    rhs,
                    then_body,
                    else_body,
                })
            }
            Some(Token::Ident(id)) if id == "break" => {
                self.next();
                self.keyword("if")?;
                self.expect(&Token::LParen)?;
                let (cmp, lhs, rhs) = self.condition()?;
                self.expect(&Token::RParen)?;
                self.expect(&Token::Semi)?;
                Ok(Stmt::BreakIf { cmp, lhs, rhs })
            }
            Some(Token::Ident(_)) => {
                let id = self.ident()?;
                if self.peek() == Some(&Token::LBracket) {
                    // array store
                    self.next();
                    let idx = self.expr()?;
                    self.expect(&Token::RBracket)?;
                    self.expect(&Token::Assign)?;
                    let value = self.expr()?;
                    self.expect(&Token::Semi)?;
                    Ok(Stmt::Store(id, idx, value))
                } else {
                    self.expect(&Token::Assign)?;
                    let value = self.expr()?;
                    self.expect(&Token::Semi)?;
                    Ok(Stmt::Assign(id, value))
                }
            }
            other => self.err(format!("expected statement, found {other:?}")),
        }
    }

    fn condition(&mut self) -> Result<(psp_ir::CmpOp, Expr, Expr), ParseError> {
        let lhs = self.expr()?;
        let op = match self.next() {
            Some(Token::Op(s)) => match cmp_from_str(&s) {
                Some(c) => c,
                None => {
                    self.pos -= 1;
                    return self.err(format!("`{s}` is not a comparison"));
                }
            },
            other => {
                return self.err(format!("expected comparison, found {other:?}"));
            }
        };
        let rhs = self.expr()?;
        Ok((op, lhs, rhs))
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let depth = self.depth;
        let mut lhs = self.term()?;
        loop {
            // `min`/`max` spelled as identifiers act as infix operators.
            let op = match self.peek() {
                Some(Token::Op(s)) => match BinOp::from_str(s) {
                    Some(op) => op,
                    None => break, // comparison operator: not ours
                },
                Some(Token::Ident(s)) if s == "min" || s == "max" => {
                    BinOp::from_str(s).expect("min/max are operators")
                }
                _ => break,
            };
            self.next();
            // Each operator nests the chain so far one level deeper.
            self.enter()?;
            let rhs = self.term()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Token::Int(v)) => Ok(Expr::Int(v)),
            Some(Token::LParen) => {
                self.enter()?;
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                self.depth -= 1;
                Ok(e)
            }
            Some(Token::Ident(id)) => {
                if self.peek() == Some(&Token::LBracket) {
                    self.next();
                    self.enter()?;
                    let idx = self.expr()?;
                    self.expect(&Token::RBracket)?;
                    self.depth -= 1;
                    Ok(Expr::Index(id, Box::new(idx)))
                } else {
                    Ok(Expr::Var(id))
                }
            }
            other => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected expression, found {other:?}"))
            }
        }
    }
}

/// Parse a token stream into a kernel.
pub fn parse(toks: &[Token]) -> Result<Kernel, ParseError> {
    let mut p = P {
        toks,
        pos: 0,
        depth: 0,
    };
    let k = p.kernel()?;
    if p.pos != toks.len() {
        return p.err("trailing input after kernel");
    }
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<Kernel, ParseError> {
        parse(&lex(src).unwrap())
    }

    fn syntax_msg(e: ParseError) -> String {
        match e {
            ParseError::Syntax { msg, .. } => msg,
            other => panic!("expected a syntax error, got {other}"),
        }
    }

    /// Kernels nesting `n` levels deep: parentheses, array indexes, `if`
    /// blocks, `else if` chains and a left-associative operator chain.
    fn nested(n: usize) -> Vec<String> {
        let kernel =
            |body: String| format!("kernel p(a; x[]) -> a {{ {body} break if (a >= 0); }}");
        vec![
            kernel(format!("a = {}a{};", "(".repeat(n), ")".repeat(n))),
            kernel(format!("a = {}a{};", "x[".repeat(n), "]".repeat(n))),
            kernel(format!(
                "{}a = 1;{}",
                "if (a < 1) { ".repeat(n),
                " }".repeat(n)
            )),
            kernel(format!(
                "if (a < 0) {{ a = 1; }}{} else {{ a = 2; }}",
                " else if (a < 1) { a = 1; }".repeat(n - 1)
            )),
            kernel(format!("a = a{};", " + 1".repeat(n))),
        ]
    }

    #[test]
    fn nesting_at_the_limit_compiles_and_prints() {
        for src in nested(MAX_NESTING) {
            let k = parse_src(&src).unwrap_or_else(|e| panic!("{e}"));
            let printed = crate::print_kernel(&k);
            assert_eq!(parse_src(&printed).unwrap(), k);
            crate::compile(&src).unwrap();
        }
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        for n in [MAX_NESTING + 1, 30_000] {
            for src in nested(n) {
                let e = parse_src(&src).unwrap_err();
                assert!(matches!(e, ParseError::TooDeep { .. }), "{e}");
                assert!(
                    e.to_string()
                        .contains("deeper than the limit of 256 levels"),
                    "{e}"
                );
            }
        }
    }

    #[test]
    fn parses_vecmin() {
        let k = parse_src(
            "kernel vecmin(n, k, m; x[]) -> m {
                xk = x[k]; xm = x[m];
                if (xk < xm) { m = k; }
                k = k + 1;
                break if (k >= n);
            }",
        )
        .unwrap();
        assert_eq!(k.name, "vecmin");
        assert_eq!(k.scalars, vec!["n", "k", "m"]);
        assert_eq!(k.arrays, vec!["x"]);
        assert_eq!(k.outs, vec!["m"]);
        assert_eq!(k.body.len(), 5);
        assert!(matches!(k.body[2], Stmt::If { .. }));
        assert!(matches!(k.body[4], Stmt::BreakIf { .. }));
    }

    #[test]
    fn parses_if_else_and_stores() {
        let k = parse_src(
            "kernel s(n, k; x[], y[]) {
                v = x[k];
                if (v < 0) { y[k] = -1; } else { y[k] = 1; }
                k = k + 1;
                break if (k >= n);
            }",
        )
        .unwrap();
        match &k.body[1] {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                assert_eq!(then_body.len(), 1);
                assert_eq!(else_body.len(), 1);
                assert!(matches!(then_body[0], Stmt::Store(..)));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn left_associative_expressions() {
        let k = parse_src("kernel e(a,b,c) { r = a + b * c + 1; break if (r >= 0); }").unwrap();
        // ((a+b)*c)+1 under flat left-assoc (no precedence by design).
        match &k.body[0] {
            Stmt::Assign(_, Expr::Bin(_, lhs, rhs)) => {
                assert!(matches!(**rhs, Expr::Int(1)));
                assert!(matches!(**lhs, Expr::Bin(..)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn min_max_infix() {
        let k = parse_src("kernel m(a,b) -> a { a = a max b; break if (a >= 0); }").unwrap();
        assert!(matches!(
            &k.body[0],
            Stmt::Assign(_, Expr::Bin(BinOp(psp_ir::AluOp::Max), _, _))
        ));
    }

    #[test]
    fn else_if_chains() {
        let k = parse_src(
            "kernel c(v, r) -> r {
                if (v < 0) { r = 0 - 1; }
                else if (v > 0) { r = 1; }
                else { r = 0; }
                break if (v >= 0);
            }",
        )
        .unwrap();
        match &k.body[0] {
            Stmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                match &else_body[0] {
                    Stmt::If { else_body, .. } => assert_eq!(else_body.len(), 1),
                    other => panic!("expected nested if, got {other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_reports_position() {
        let e = syntax_msg(parse_src("kernel b(a) { a = ; }").unwrap_err());
        assert!(e.contains("expected expression"), "{e}");
        let e = syntax_msg(parse_src("kernel b(a) { if (a) { } }").unwrap_err());
        assert!(e.contains("comparison"), "{e}");
        let e = syntax_msg(parse_src("loop b(a) { }").unwrap_err());
        assert!(e.contains("kernel"), "{e}");
    }

    #[test]
    fn rejects_trailing_tokens() {
        let e = syntax_msg(parse_src("kernel b(a) { a = 1; } extra").unwrap_err());
        assert!(e.contains("trailing"));
    }
}
