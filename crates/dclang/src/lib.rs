//! `vv-dclang` — the mini directive-C language used throughout the LLM4VV
//! reproduction.
//!
//! This crate provides everything needed to treat compiler-validation test
//! files as *programs* rather than opaque strings:
//!
//! * a [`lexer`] that understands C-style comments, string/char literals,
//!   object-like `#define` macros, `#include` recording and `#pragma` lines;
//! * an [`ast`] covering the subset of C/C++ that directive-based V&V tests
//!   are written in (declarations, pointers, arrays, loops, conditionals,
//!   calls, casts);
//! * a [`directive`] module that parses `#pragma acc ...` / `#pragma omp ...`
//!   lines into structured directives and clauses;
//! * a recursive-descent [`parser`] producing a [`ast::TranslationUnit`];
//! * [`diag`]nostics with line/column information, shared with the simulated
//!   compilers in `vv-simcompiler`;
//! * an [`intern`]ing table mapping identifiers and string literals to dense
//!   [`Symbol`]s, used by the execution substrate's bytecode lowering.
//!
//! The language is deliberately a *subset*: it is rich enough to express the
//! synthetic OpenACC/OpenMP validation tests produced by `vv-corpus` (and the
//! damaged variants produced by `vv-probing`), yet small enough that the
//! simulated compiler and interpreter can implement it completely.

pub mod ast;
pub mod diag;
pub mod directive;
pub mod intern;
pub mod lexer;
pub mod parser;
pub mod span;
pub mod token;

pub use ast::{
    AssignOp, BaseType, BinOp, Block, Expr, Function, Param, Stmt, TranslationUnit, Type, UnOp,
    VarDecl,
};
pub use diag::{Diagnostic, Severity};
pub use directive::{Clause, Directive, DirectiveModel};
pub use intern::{Interner, Symbol};
pub use lexer::{lex_with, LexOutput, Lexer};
pub use parser::{ParseOutput, Parser};
pub use span::Span;
pub use token::{Keyword, Punct, Token, TokenKind};

/// Parse a complete source file into a translation unit.
///
/// This is the one-shot entry point: it lexes through a private, throwaway
/// [`Interner`]. Long-lived callers that compile many files (compile
/// sessions, the validation pipeline) should use [`parse_source_with`] with
/// a reused interner so that identifier spellings are hashed and allocated
/// only once across the whole session.
///
/// On success the returned [`ParseOutput`] carries the translation unit
/// together with any non-fatal diagnostics (e.g. unknown preprocessor
/// directives). On failure the error carries at least one [`Diagnostic`]
/// with [`Severity::Error`].
pub fn parse_source(source: &str) -> Result<ParseOutput, Vec<Diagnostic>> {
    let mut interner = Interner::new();
    parse_source_with(source, &mut interner)
}

/// Parse a complete source file, interning through the caller's session
/// [`Interner`].
///
/// Produces exactly the same output as [`parse_source`] for any input (the
/// interner only changes *where* identifier text is stored, never what the
/// parser builds); the shared table is what makes repeated compiles cheap.
pub fn parse_source_with(
    source: &str,
    interner: &mut Interner,
) -> Result<ParseOutput, Vec<Diagnostic>> {
    let lexed = lex_with(source, interner);
    let mut diags = lexed.diagnostics.clone();
    if diags.iter().any(|d| d.severity == Severity::Error) {
        return Err(diags);
    }
    let parser = Parser::new(lexed, interner);
    match parser.parse() {
        Ok(mut out) => {
            out.diagnostics.append(&mut diags);
            Ok(out)
        }
        Err(mut errs) => {
            diags.append(&mut errs);
            Err(diags)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal_main() {
        let out = parse_source("int main() { return 0; }").expect("parse");
        assert_eq!(out.unit.functions.len(), 1);
        assert_eq!(out.unit.functions[0].name, "main");
    }

    #[test]
    fn parse_error_reports_diagnostic() {
        let err = parse_source("int main() { return 0; ").unwrap_err();
        assert!(err.iter().any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn session_parse_matches_one_shot_parse() {
        let sources = [
            "int main() { return 0; }",
            "#define N 4\nint main() { int a[N]; for (int i = 0; i < N; i++) { a[i] = i; } return 0; }",
            "int main() {\n#pragma acc parallel loop\nfor (int i = 0; i < 8; i++) { }\nreturn 0; }",
            "int main() { return oops; ", // parse error
        ];
        let mut interner = Interner::new();
        for src in sources {
            let fresh = parse_source(src);
            let shared = parse_source_with(src, &mut interner);
            match (fresh, shared) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.unit, b.unit, "unit mismatch for {src:?}");
                    assert_eq!(a.diagnostics, b.diagnostics);
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("outcome mismatch for {src:?}: {a:?} vs {b:?}"),
            }
        }
    }
}
