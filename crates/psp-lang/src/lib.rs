//! A small C-like loop language for writing kernels the way the paper
//! writes them (`for (k=0;k<n;k++) if (x[k]<x[m]) m=k;`), lowered to
//! [`psp_ir::LoopSpec`].
//!
//! Grammar (one do-while loop body):
//!
//! ```text
//! kernel <name>(<scalar>, ... ; <array>[], ...) -> <scalar>, ... {
//!     <stmt>*
//! }
//!
//! stmt := <reg> = <expr> ;
//!       | <array> [ <expr> ] = <expr> ;
//!       | if ( <expr> <cmp> <expr> ) { <stmt>* } [ else { <stmt>* } ]
//!       | break if ( <expr> <cmp> <expr> ) ;
//!
//! expr := <term> ( (+|-|*|&|'|'|^|<<|>>|min|max) <term> )*   (left assoc)
//! term := <int> | <reg> | <array> [ <expr> ] | ( <expr> )
//! cmp  := < | <= | > | >= | == | !=
//! ```
//!
//! Scalars named in the parameter list are live-in registers; names after
//! `->` are live-out. Compound expressions lower through fresh temporary
//! registers; comparisons lower to condition registers. Nesting is bounded
//! by [`MAX_NESTING`] levels.
//!
//! ```
//! let src = r#"
//!     kernel vecmin(n, k, m; x[]) -> m {
//!         xk = x[k];
//!         xm = x[m];
//!         if (xk < xm) { m = k; }
//!         k = k + 1;
//!         break if (k >= n);
//!     }
//! "#;
//! let spec = psp_lang::compile(src).unwrap();
//! assert_eq!(spec.name, "vecmin");
//! assert_eq!(spec.n_ifs, 1);
//! assert!(spec.validate().is_ok());
//! ```

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod print;

pub use ast::{BinOp, Expr, Kernel, Stmt};
pub use lexer::{lex, LexError, Token};
pub use lower::{lower, LowerError};
pub use parser::{parse, ParseError, MAX_NESTING};
pub use print::{print_expr, print_kernel};

/// Parse and lower a kernel in one step.
pub fn compile(src: &str) -> Result<psp_ir::LoopSpec, CompileError> {
    let tokens = lex(src).map_err(CompileError::Lex)?;
    let kernel = parse(&tokens).map_err(CompileError::Parse)?;
    lower(&kernel).map_err(CompileError::Lower)
}

/// Any front-end failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Tokenization failed.
    Lex(LexError),
    /// Parsing failed.
    Parse(ParseError),
    /// Lowering failed.
    Lower(LowerError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Lex(e) => write!(f, "lex error: {e}"),
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Lower(e) => write!(f, "lowering error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}
