//! Tokenizer.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Identifier (register, array, or kernel name, or keyword).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `;`.
    Semi,
    /// `,`.
    Comma,
    /// `=`.
    Assign,
    /// `->`.
    Arrow,
    /// Binary operator or comparison spelling (`+ - * & | ^ << >> < <= > >= == !=`).
    Op(String),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::Semi => write!(f, ";"),
            Token::Comma => write!(f, ","),
            Token::Assign => write!(f, "="),
            Token::Arrow => write!(f, "->"),
            Token::Op(s) => write!(f, "{s}"),
        }
    }
}

/// Tokenization failure; `at` is a byte offset into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LexError {
    /// A character that starts no token.
    UnexpectedChar { at: usize, ch: char },
    /// An integer literal, sign included, outside the `i64` range.
    IntOutOfRange { at: usize },
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LexError::UnexpectedChar { at, ch } => {
                write!(f, "unexpected character {ch:?} at byte {at}")
            }
            LexError::IntOutOfRange { at } => {
                write!(
                    f,
                    "integer literal at byte {at} is outside the i64 range [-2^63, 2^63)"
                )
            }
        }
    }
}

impl std::error::Error for LexError {}

/// Tokenize `src`. Comments run from `//` to end of line.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes: Vec<char> = src.chars().collect();
    let byte_at = |i: usize| bytes[..i].iter().map(|c| c.len_utf8()).sum();
    let int = |start: usize, end: usize| {
        let text: String = bytes[start..end].iter().collect();
        text.parse::<i64>()
            .map_err(|_| LexError::IntOutOfRange { at: byte_at(start) })
    };
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&'/') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            '{' => {
                out.push(Token::LBrace);
                i += 1;
            }
            '}' => {
                out.push(Token::RBrace);
                i += 1;
            }
            '[' => {
                out.push(Token::LBracket);
                i += 1;
            }
            ']' => {
                out.push(Token::RBracket);
                i += 1;
            }
            ';' => {
                out.push(Token::Semi);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '+' | '*' | '&' | '|' | '^' => {
                out.push(Token::Op(c.to_string()));
                i += 1;
            }
            '-' => {
                if bytes.get(i + 1) == Some(&'>') {
                    out.push(Token::Arrow);
                    i += 2;
                } else if bytes
                    .get(i + 1)
                    .map(|d| d.is_ascii_digit())
                    .unwrap_or(false)
                    && matches!(
                        out.last(),
                        None | Some(
                            Token::Op(_)
                                | Token::Assign
                                | Token::LParen
                                | Token::LBracket
                                | Token::Comma
                        )
                    )
                {
                    // Negative literal in operand position.
                    let mut j = i + 1;
                    while j < bytes.len() && bytes[j].is_ascii_digit() {
                        j += 1;
                    }
                    out.push(Token::Int(int(i, j)?));
                    i = j;
                } else {
                    out.push(Token::Op("-".into()));
                    i += 1;
                }
            }
            '<' | '>' => {
                let two: String = bytes[i..(i + 2).min(bytes.len())].iter().collect();
                if two == "<=" || two == ">=" || two == "<<" || two == ">>" {
                    out.push(Token::Op(two));
                    i += 2;
                } else {
                    out.push(Token::Op(c.to_string()));
                    i += 1;
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Token::Op("==".into()));
                    i += 2;
                } else {
                    out.push(Token::Assign);
                    i += 1;
                }
            }
            '!' if bytes.get(i + 1) == Some(&'=') => {
                out.push(Token::Op("!=".into()));
                i += 2;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                out.push(Token::Int(int(start, i)?));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                out.push(Token::Ident(bytes[start..i].iter().collect()));
            }
            _ => {
                return Err(LexError::UnexpectedChar {
                    at: byte_at(i),
                    ch: c,
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_the_vecmin_kernel() {
        let toks = lex("kernel v(n; x[]) -> m { m = x[k]; break if (k >= n); }").unwrap();
        assert!(toks.contains(&Token::Ident("kernel".into())));
        assert!(toks.contains(&Token::Arrow));
        assert!(toks.contains(&Token::Op(">=".into())));
        assert!(toks.contains(&Token::LBracket));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("a = 1; // trailing words $!\nb = 2;").unwrap();
        assert_eq!(toks.len(), 8);
    }

    #[test]
    fn negative_literals_in_operand_position() {
        let toks = lex("a = -5;").unwrap();
        assert!(toks.contains(&Token::Int(-5)));
        // Subtraction keeps its operator meaning.
        let toks = lex("a = b - 5;").unwrap();
        assert!(toks.contains(&Token::Op("-".into())));
        assert!(toks.contains(&Token::Int(5)));
    }

    #[test]
    fn two_char_operators() {
        for op in ["<=", ">=", "==", "!=", "<<", ">>"] {
            let toks = lex(&format!("a {op} b")).unwrap();
            assert!(toks.contains(&Token::Op(op.into())), "{op}");
        }
    }

    #[test]
    fn rejects_unknown_characters() {
        let err = lex("a = #;").unwrap_err();
        assert_eq!(err, LexError::UnexpectedChar { at: 4, ch: '#' });
        // Offsets count bytes, not characters.
        let err = lex("// é\na = #;").unwrap_err();
        assert_eq!(err, LexError::UnexpectedChar { at: 10, ch: '#' });
    }

    #[test]
    fn integer_literals_are_bounded_by_i64() {
        let src = "acc = acc + 99999999999999999999999;";
        let err = lex(src).unwrap_err();
        assert_eq!(err, LexError::IntOutOfRange { at: 12 });
        let msg = err.to_string();
        assert!(msg.contains("byte 12") && msg.contains("i64"), "{msg}");
        assert!(matches!(
            lex("a = -9999999999999999999;"),
            Err(LexError::IntOutOfRange { at: 4 })
        ));
        // Both extremes still lex.
        let toks = lex("a = 9223372036854775807; b = -9223372036854775808;").unwrap();
        assert!(toks.contains(&Token::Int(i64::MAX)));
        assert!(toks.contains(&Token::Int(i64::MIN)));
    }
}
