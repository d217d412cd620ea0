//! Semantic analysis, desugaring and pretty printing.

use crate::ast::{BoolExpr, CmpOp, Expr, Program, Stmt};
use std::collections::BTreeSet;
use std::fmt;

/// Error produced by semantic analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisError {
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "analysis error: {}", self.message)
    }
}

impl std::error::Error for AnalysisError {}

/// Checks the one hard semantic restriction of the language: `*` (the
/// non-deterministic condition) may appear only as the *entire* guard of a
/// conditional — i.e. `if * then ... else ... fi` — never nested inside a
/// boolean formula, as a loop guard or in an `assume`.  This mirrors the
/// syntax used by the paper and keeps the "removal of non-deterministic
/// branching" transformation (Section 2) purely syntactic.
///
/// # Errors
///
/// Returns an [`AnalysisError`] describing the first violation.
pub fn analyze(program: &Program) -> Result<(), AnalysisError> {
    analyze_block(&program.body)
}

fn analyze_block(body: &[Stmt]) -> Result<(), AnalysisError> {
    for stmt in body {
        match stmt {
            Stmt::Assign(..) | Stmt::NdetAssign(_) | Stmt::Skip => {}
            Stmt::Assume(c) => check_guard(c)?,
            Stmt::If(c, t, e) => {
                if *c != BoolExpr::Nondet {
                    check_guard(c)?;
                }
                analyze_block(t)?;
                analyze_block(e)?;
            }
            Stmt::While(c, b) => {
                check_guard(c)?;
                analyze_block(b)?;
            }
        }
    }
    Ok(())
}

fn check_guard(c: &BoolExpr) -> Result<(), AnalysisError> {
    if c.has_nondet() {
        Err(AnalysisError {
            message: "the non-deterministic condition '*' may only be used as the entire guard \
                      of an 'if' statement"
                .into(),
        })
    } else {
        Ok(())
    }
}

/// Removes non-deterministic branching, following Section 2 of the paper.
///
/// Every `if * then S1 else S2 fi` is replaced by
///
/// ```text
/// xndet := ndet();
/// if xndet >= 0 then S1 else S2 fi
/// ```
///
/// where `xndet` is a fresh auxiliary variable.  The resulting program
/// terminates on every input iff the original does.
pub fn remove_nondet_branching(program: &Program) -> Program {
    let used: BTreeSet<String> = program.variables().into_iter().collect();
    let mut fresh_name = "xndet".to_string();
    let mut i = 0;
    while used.contains(&fresh_name) {
        i += 1;
        fresh_name = format!("xndet{}", i);
    }
    let mut out = program.clone();
    out.body = rewrite_block(&program.body, &fresh_name);
    out
}

fn rewrite_block(body: &[Stmt], fresh: &str) -> Vec<Stmt> {
    let mut out = Vec::new();
    for stmt in body {
        match stmt {
            Stmt::If(c, t, e) if *c == BoolExpr::Nondet => {
                out.push(Stmt::NdetAssign(fresh.to_string()));
                out.push(Stmt::If(
                    BoolExpr::cmp(CmpOp::Ge, Expr::var(fresh), Expr::int(0)),
                    rewrite_block(t, fresh),
                    rewrite_block(e, fresh),
                ));
            }
            Stmt::If(c, t, e) => {
                out.push(Stmt::If(c.clone(), rewrite_block(t, fresh), rewrite_block(e, fresh)));
            }
            Stmt::While(c, b) => {
                out.push(Stmt::While(c.clone(), rewrite_block(b, fresh)));
            }
            other => out.push(other.clone()),
        }
    }
    out
}

/// Pretty-prints a program back to concrete syntax accepted by
/// [`crate::parse_program`].
pub fn pretty_print(program: &Program) -> String {
    let mut out = String::new();
    for (x, e) in &program.preamble {
        out.push_str(&format!("{} := {};\n", x, print_expr(e)));
    }
    print_block(&program.body, 0, &mut out);
    out
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn print_block(body: &[Stmt], depth: usize, out: &mut String) {
    for stmt in body {
        match stmt {
            Stmt::Assign(x, e) => {
                indent(depth, out);
                out.push_str(&format!("{} := {};\n", x, print_expr(e)));
            }
            Stmt::NdetAssign(x) => {
                indent(depth, out);
                out.push_str(&format!("{} := ndet();\n", x));
            }
            Stmt::Skip => {
                indent(depth, out);
                out.push_str("skip;\n");
            }
            Stmt::Assume(c) => {
                indent(depth, out);
                out.push_str(&format!("assume {};\n", print_bool(c)));
            }
            Stmt::If(c, t, e) => {
                indent(depth, out);
                out.push_str(&format!("if {} then\n", print_bool(c)));
                print_block(t, depth + 1, out);
                if !e.is_empty() {
                    indent(depth, out);
                    out.push_str("else\n");
                    print_block(e, depth + 1, out);
                }
                indent(depth, out);
                out.push_str("fi\n");
            }
            Stmt::While(c, b) => {
                indent(depth, out);
                out.push_str(&format!("while {} do\n", print_bool(c)));
                print_block(b, depth + 1, out);
                indent(depth, out);
                out.push_str("od\n");
            }
        }
    }
}

fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Var(x) => x.clone(),
        Expr::Const(v) => v.to_string(),
        Expr::Neg(a) => format!("(- {})", print_expr(a)),
        Expr::Bin(op, a, b) => format!("({} {} {})", print_expr(a), op, print_expr(b)),
    }
}

fn print_bool(b: &BoolExpr) -> String {
    match b {
        BoolExpr::True => "true".into(),
        BoolExpr::False => "false".into(),
        BoolExpr::Nondet => "*".into(),
        BoolExpr::Cmp(op, a, c) => format!("{} {} {}", print_expr(a), op, print_expr(c)),
        BoolExpr::And(a, c) => format!("({} and {})", print_bool(a), print_bool(c)),
        BoolExpr::Or(a, c) => format!("({} or {})", print_bool(a), print_bool(c)),
        BoolExpr::Not(a) => format!("not ({})", print_bool(a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    const RUNNING: &str =
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

    #[test]
    fn analyze_rejects_nested_star() {
        let prog = parse_program("while x >= 0 do if * and x > 0 then skip; fi od");
        assert!(prog.is_err());
    }

    #[test]
    fn remove_nondet_branching_introduces_fresh_variable() {
        let prog =
            parse_program("while x >= 0 do if * then x := x + 1; else x := x - 1; fi od").unwrap();
        let rewritten = remove_nondet_branching(&prog);
        // `if *` became `xndet := ndet(); if xndet >= 0 ...`: one `ndet()`
        // assignment added and no `*` guard left.
        let fresh = "xndet";
        let [Stmt::While(_, body)] = rewritten.body.as_slice() else { panic!("{rewritten:?}") };
        let [assign, Stmt::If(guard, _, _)] = body.as_slice() else { panic!("{rewritten:?}") };
        assert_eq!(*assign, Stmt::NdetAssign(fresh.to_string()));
        assert_eq!(*guard, BoolExpr::cmp(CmpOp::Ge, Expr::var(fresh), Expr::int(0)));
        assert!(!format!("{rewritten:?}").contains("Nondet"));
        assert!(analyze(&rewritten).is_ok());
    }

    #[test]
    fn remove_nondet_branching_avoids_capture() {
        let prog = parse_program(
            "xndet := 0; while x >= 0 do if * then x := x + 1; else x := x - 1; fi od",
        )
        .unwrap();
        let rewritten = remove_nondet_branching(&prog);
        assert!(rewritten.variables().contains(&"xndet1".to_string()));
    }

    #[test]
    fn pretty_print_roundtrip() {
        let prog = parse_program(RUNNING).unwrap();
        let printed = pretty_print(&prog);
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(prog, reparsed);
    }

    #[test]
    fn pretty_print_roundtrip_with_if_and_preamble() {
        let src = "n := 0; b := 0; while b == 0 and n <= 99 do u := ndet(); \
                   if u <= -1 then b := -1; elseif u == 0 then b := 0; else b := 1; fi \
                   n := n + 1; if n >= 100 and b >= 1 then while true do skip; od fi od";
        let prog = parse_program(src).unwrap();
        let printed = pretty_print(&prog);
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(prog, reparsed);
    }
}
