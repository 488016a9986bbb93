//! Pretty-printer for the layout description language.
//!
//! Turns an AST back into canonical source — used by tooling and by the
//! round-trip property tests that pin the parser (`parse ∘ print` is the
//! identity on printed form).

use crate::ast::{Call, Entity, Expr, Program, Stmt};

/// Prints a whole program (top-level statements, then entities).
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for s in &p.top {
        print_stmt(s, 0, &mut out);
    }
    for e in &p.entities {
        out.push('\n');
        print_entity(e, &mut out);
    }
    out
}

/// Prints one entity declaration.
pub fn print_entity(e: &Entity, out: &mut String) {
    out.push_str("ENT ");
    out.push_str(&e.name);
    out.push('(');
    for (i, p) in e.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        if p.optional {
            out.push('<');
            out.push_str(&p.name);
            out.push('>');
        } else {
            out.push_str(&p.name);
        }
    }
    out.push_str(")\n");
    for s in &e.body {
        print_stmt(s, 1, out);
    }
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Prints one statement at the given indentation level.
pub fn print_stmt(s: &Stmt, level: usize, out: &mut String) {
    match s {
        Stmt::Assign { name, value, .. } => {
            indent(level, out);
            out.push_str(name);
            out.push_str(" = ");
            print_expr(value, out);
            out.push('\n');
        }
        Stmt::Call(c) => {
            indent(level, out);
            print_call(c, out);
            out.push('\n');
        }
        Stmt::Compact {
            obj, dir, ignore, ..
        } => {
            indent(level, out);
            out.push_str("compact(");
            out.push_str(obj);
            out.push_str(", ");
            out.push_str(dir);
            for e in ignore {
                out.push_str(", ");
                print_expr(e, out);
            }
            out.push_str(")\n");
        }
        Stmt::For {
            var,
            from,
            to,
            body,
            ..
        } => {
            indent(level, out);
            out.push_str("FOR ");
            out.push_str(var);
            out.push_str(" = ");
            print_expr(from, out);
            out.push_str(" TO ");
            print_expr(to, out);
            out.push('\n');
            for s in body {
                print_stmt(s, level + 1, out);
            }
            indent(level, out);
            out.push_str("END\n");
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => {
            indent(level, out);
            out.push_str("IF ");
            print_expr(cond, out);
            out.push('\n');
            for s in then_body {
                print_stmt(s, level + 1, out);
            }
            if !else_body.is_empty() {
                indent(level, out);
                out.push_str("ELSE\n");
                for s in else_body {
                    print_stmt(s, level + 1, out);
                }
            }
            indent(level, out);
            out.push_str("END\n");
        }
        Stmt::Variant { arms, .. } => {
            indent(level, out);
            out.push_str("VARIANT\n");
            for (i, arm) in arms.iter().enumerate() {
                if i > 0 {
                    indent(level, out);
                    out.push_str("OR\n");
                }
                for s in arm {
                    print_stmt(s, level + 1, out);
                }
            }
            indent(level, out);
            out.push_str("END\n");
        }
    }
}

fn print_call(c: &Call, out: &mut String) {
    out.push_str(&c.name);
    out.push('(');
    let mut first = true;
    for e in &c.positional {
        if !first {
            out.push_str(", ");
        }
        first = false;
        print_expr(e, out);
    }
    for (k, _, e) in &c.keyword {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(k);
        out.push_str(" = ");
        print_expr(e, out);
    }
    out.push(')');
}

/// Prints one expression (fully parenthesised where nesting requires it).
pub fn print_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Number(n, _) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Expr::Str(s, _) => {
            out.push('"');
            out.push_str(s);
            out.push('"');
        }
        // An interned layer prints as its source spelling, so a bound
        // program pretty-prints identically to its unbound form.
        Expr::Layer(_, name, _) => {
            out.push('"');
            out.push_str(name);
            out.push('"');
        }
        Expr::Var(v, _) => out.push_str(v),
        Expr::Call(c) => print_call(c, out),
        Expr::Neg(inner, _) => {
            out.push_str("-(");
            print_expr(inner, out);
            out.push(')');
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            out.push('(');
            print_expr(lhs, out);
            out.push(' ');
            out.push_str(&op.to_string());
            out.push(' ');
            print_expr(rhs, out);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn prints_fig2_canonically() {
        let src = crate::stdlib::FIG2_CONTACT_ROW;
        let prog = parse(src).unwrap();
        let printed = print_program(&prog);
        assert!(printed.contains("ENT ContactRow(layer, <W>, <L>)"));
        assert!(printed.contains("INBOX(layer, W, L)"));
        // Round trip: printing the reparsed output is a fixed point.
        let reparsed = parse(&printed).unwrap();
        assert_eq!(print_program(&reparsed), printed);
    }

    #[test]
    fn prints_every_stdlib_source_round_trip() {
        for (_, src) in crate::stdlib::ALL {
            let prog = parse(src).unwrap();
            let printed = print_program(&prog);
            let reparsed = parse(&printed).unwrap();
            assert_eq!(print_program(&reparsed), printed);
        }
    }

    #[test]
    fn parenthesised_arithmetic_survives() {
        let prog = parse("x = (1 + 2) * 3\n").unwrap();
        let printed = print_program(&prog);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(print_program(&reparsed), printed);
        assert!(printed.contains("((1 + 2) * 3)"));
    }
}
