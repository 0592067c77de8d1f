//! Round-trip properties tying the DSL front end, the pretty-printer, and
//! the fuzz grammar together:
//!
//! * rendering any grammar statement list to source and compiling it
//!   yields *exactly* the spec the programmatic builder produces — the
//!   contract that makes on-disk `.psp` reproducers faithful;
//! * parse → print → re-parse is the identity on the AST, over the whole
//!   generated source space (not just the handwritten cases in
//!   `psp-lang`'s unit tests).

mod common;

use common::*;
use psp::lang;
use psp::verify::grammar::{build_spec, to_source, S};

#[test]
fn rendered_source_lowers_to_the_built_spec() {
    check_cases("rendered_source_lowers_to_the_built_spec", CASES, |rng| {
        let body = random_body(rng);
        let src = to_source(&body);
        let compiled =
            lang::compile(&src).unwrap_or_else(|e| panic!("render does not compile: {e}\n{src}"));
        assert_eq!(build_spec(&body), compiled);
    });
}

#[test]
fn parse_print_reparse_is_identity() {
    check_cases("parse_print_reparse_is_identity", CASES, |rng| {
        let src = to_source(&random_body(rng));
        let k1 = lang::parse(&lang::lex(&src).unwrap()).unwrap();
        let printed = lang::print_kernel(&k1);
        let k2 = lang::parse(&lang::lex(&printed).unwrap())
            .unwrap_or_else(|e| panic!("printed source does not re-parse: {e}\n{printed}"));
        assert_eq!(k1, k2);
    });
}

/// Negative immediates sit after `min`/`max` keywords only in parenthesized
/// form; pin the corner explicitly (caught live by the fuzzer's grammar).
#[test]
fn negative_literal_after_min_keyword() {
    // Operand code 35 decodes to an immediate (35 % 6 == 5) with value
    // 35 % 7 - 3 = -3.
    let body = vec![S::Alu(3 /* Min */, 0, 0, 35)];
    let direct = build_spec(&body);
    let src = to_source(&body);
    assert!(src.contains("min (-3)"), "rendering: {src}");
    assert_eq!(lang::compile(&src).unwrap(), direct);
}

/// A reproducer file round-trips through disk with its comment header.
#[test]
fn repro_file_with_comments_compiles() {
    let body = vec![
        S::LoadX(0),
        S::AccAdd(2),
        S::If(0, 0, 1, vec![S::StoreY(1)], vec![]),
    ];
    let src = format!("// stage: none\n// detail: sample\n{}", to_source(&body));
    assert_eq!(lang::compile(&src).unwrap(), build_spec(&body));
}
