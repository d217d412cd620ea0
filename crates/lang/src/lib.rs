//! The RevTerm input language: a small imperative integer language with
//! polynomial arithmetic and non-determinism.
//!
//! This is the reproduction's stand-in for the TermComp *C-Integer* input
//! format: programs consist of (optional) initial assignments followed by a
//! body built from deterministic assignments, non-deterministic assignments
//! `x := ndet()`, conditionals (including non-deterministic branching
//! `if * then ... else ... fi`), `while` loops, `skip` and `assume`.
//!
//! The pipeline is: [`lex`] → [`parse`] (or [`parse_program`] directly) →
//! semantic analysis ([`analyze`], the check that `*` appears only as the
//! entire guard of an `if`) → optional desugaring of non-deterministic
//! branching into non-deterministic assignments
//! ([`remove_nondet_branching`], Section 2 of the paper) → lowering to a
//! transition system (in the `revterm-ts` crate).
//!
//! # Example
//!
//! ```
//! use revterm_lang::parse_program;
//!
//! let src = r#"
//!     while x >= 9 do
//!         x := ndet();
//!         y := 10 * x;
//!         while x <= y do
//!             x := x + 1;
//!         od
//!     od
//! "#;
//! let program = parse_program(src).unwrap();
//! assert_eq!(program.variables(), vec!["x".to_string(), "y".to_string()]);
//! ```

#![warn(missing_docs)]

mod ast;
mod lexer;
mod parser;
mod transform;

pub use ast::{BinOp, BoolExpr, CmpOp, Expr, Program, Stmt};
pub use lexer::{lex, LexError, Token, TokenKind};
pub use parser::{parse, ParseError};
pub use transform::{analyze, pretty_print, remove_nondet_branching, AnalysisError};

/// Parses and analyses a program in one step.
///
/// # Errors
///
/// Returns an error string describing the first lexical, syntactic or
/// semantic problem encountered.
pub fn parse_program(src: &str) -> Result<Program, String> {
    let tokens = lex(src).map_err(|e| e.to_string())?;
    let program = parse(&tokens).map_err(|e| e.to_string())?;
    analyze(&program).map_err(|e| e.to_string())?;
    Ok(program)
}
