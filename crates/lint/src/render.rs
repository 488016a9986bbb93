//! Terminal renderer: rustc-style snippets with carets under the span,
//! plus text and JSON emitters for cost certificates.

use std::fmt::Write as _;

use amgen_core::push_json_string;

use crate::diag::Diagnostic;
use crate::domain::Bound;
use crate::passes::cost::{CostCertificate, CostReport};

/// Renders one diagnostic against its source text.
///
/// ```text
/// error[E201]: unknown layer `polyy`
///  --> diffpair.amg:3:10
///   |
/// 3 |   INBOX("polyy")
///   |         ^^^^^^^
///   = help: did you mean `poly`?
/// ```
pub fn render(file: &str, src: &str, d: &Diagnostic) -> String {
    let mut out = String::new();
    out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
    if d.span.is_none() {
        out.push_str(&format!(" --> {file}\n"));
    } else {
        let line_no = d.span.line as usize;
        let col = d.span.col as usize;
        out.push_str(&format!(" --> {file}:{line_no}:{col}\n"));
        if let Some(text) = src.split('\n').nth(line_no - 1) {
            let text = text.trim_end_matches('\r');
            let gutter = line_no.to_string();
            let pad = " ".repeat(gutter.len());
            // Clamp the caret run to the visible line.
            let width = d.span.len().min(text.len().saturating_sub(col - 1)).max(1);
            out.push_str(&format!("{pad} |\n"));
            out.push_str(&format!("{gutter} | {text}\n"));
            out.push_str(&format!(
                "{pad} | {}{}\n",
                " ".repeat(col.saturating_sub(1)),
                "^".repeat(width)
            ));
        }
    }
    if let Some(help) = &d.help {
        out.push_str(&format!(" = help: {help}\n"));
    }
    out
}

/// Renders a batch of diagnostics followed by a one-line tally.
pub fn render_all(file: &str, src: &str, diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&render(file, src, d));
        out.push('\n');
    }
    let errors = diags.iter().filter(|d| d.is_error()).count();
    let warnings = diags.len() - errors;
    if !diags.is_empty() {
        out.push_str(&format!(
            "{file}: {errors} error(s), {warnings} warning(s)\n"
        ));
    }
    out
}

// ----- cost certificates ------------------------------------------------

/// One certificate as an indented text block (without a heading line).
fn push_certificate(out: &mut String, c: &CostCertificate, max_variants: usize) {
    let bound = |b: &Bound| format!("<= {b}");
    out.push_str(&format!("  fuel per run   {}\n", bound(&c.fuel)));
    out.push_str(&format!("  compact steps  {}\n", bound(&c.compact_steps)));
    out.push_str(&format!("  shapes         {}\n", bound(&c.shapes)));
    out.push_str(&format!("  recursion      {}\n", bound(&c.recursion)));
    out.push_str(&format!(
        "  variant runs   {} (interpreter cap {max_variants})\n",
        bound(&c.variant_runs)
    ));
    match c.total_fuel(max_variants).closed() {
        Some(v) => out.push_str(&format!("  total fuel     <= {}\n", v.ceil() as u64)),
        None => {
            // Parameter-dependent or unbounded: restate symbolically.
            let t = c.total_fuel(max_variants);
            out.push_str(&format!("  total fuel     {}\n", bound(&t)));
        }
    }
    let layers: Vec<&str> = c.layers.iter().map(String::as_str).collect();
    out.push_str(&format!(
        "  layers         {{{}}}{}\n",
        layers.join(", "),
        if c.layers_exact { "" } else { " (incomplete)" }
    ));
    if c.assumes_array_cuts {
        out.push_str("  note           shape bound assumes the ARRAY cut ceiling\n");
    }
}

/// Renders a [`CostReport`] as plain text: one block per entity, then
/// one per linted file's top level. `names` are the file names of the
/// linted set, parallel to `report.tops`.
pub fn render_certificates(names: &[&str], report: &CostReport, max_variants: usize) -> String {
    let mut out = String::new();
    for (name, c) in &report.entities {
        out.push_str(&format!("ENT {name}({})\n", c.params.join(", ")));
        push_certificate(&mut out, c, max_variants);
    }
    for (name, top) in names.iter().zip(&report.tops) {
        match top {
            Some(c) => {
                out.push_str(&format!("{name} (top level)\n"));
                push_certificate(&mut out, c, max_variants);
            }
            None => out.push_str(&format!(
                "{name} (top level): no certificate (parse error)\n"
            )),
        }
    }
    out
}

/// Appends a bound as a JSON value: a number when constant, the affine
/// rendered as a string when symbolic, `null` when unbounded.
fn push_bound(out: &mut String, b: &Bound) {
    match b.affine() {
        Some(a) => match a.as_constant() {
            Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => {
                let _ = write!(out, "{}", v as i64);
            }
            Some(v) => {
                let _ = write!(out, "{v}");
            }
            None => push_json_string(out, &a.to_string()),
        },
        None => out.push_str("null"),
    }
}

/// Appends a JSON array of strings.
fn push_strings<'a>(out: &mut String, items: impl IntoIterator<Item = &'a String>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, item);
    }
    out.push(']');
}

fn push_json_certificate(out: &mut String, c: &CostCertificate, max_variants: usize) {
    out.push_str("{\"params\":");
    push_strings(out, &c.params);
    for (key, b) in [
        ("fuel", &c.fuel),
        ("compact_steps", &c.compact_steps),
        ("shapes", &c.shapes),
        ("recursion", &c.recursion),
        ("variant_runs", &c.variant_runs),
    ] {
        let _ = write!(out, ",\"{key}\":");
        push_bound(out, b);
    }
    for (key, b) in [
        ("total_fuel", c.total_fuel(max_variants)),
        ("total_compact_steps", c.total_compact_steps(max_variants)),
        ("total_shapes", c.total_shapes(max_variants)),
    ] {
        let _ = write!(out, ",\"{key}\":");
        match b.closed() {
            Some(v) => {
                let _ = write!(out, "{}", v.ceil() as u64);
            }
            None => push_bound(out, &b),
        }
    }
    out.push_str(",\"layers\":");
    push_strings(out, &c.layers);
    let _ = write!(
        out,
        ",\"layers_exact\":{},\"assumes_array_cuts\":{}}}",
        c.layers_exact, c.assumes_array_cuts
    );
}

/// Renders a [`CostReport`] as a single JSON document (hand-rolled; the
/// workspace carries no serialization dependency). Constant bounds are
/// numbers, symbolic bounds strings like `"2*N + 5"`, unbounded `null`.
pub fn certificates_json(names: &[&str], report: &CostReport, max_variants: usize) -> String {
    let mut out = format!("{{\"max_variants\":{max_variants},\"entities\":{{");
    for (i, (name, c)) in report.entities.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, name);
        out.push(':');
        push_json_certificate(&mut out, c, max_variants);
    }
    out.push_str("},\"tops\":[");
    for (i, (name, top)) in names.iter().zip(&report.tops).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"file\":");
        push_json_string(&mut out, name);
        out.push_str(",\"certificate\":");
        match top {
            Some(c) => push_json_certificate(&mut out, c, max_variants),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Code, Diagnostic};
    use amgen_dsl::span::Span;

    #[test]
    fn renders_caret_under_the_span() {
        let src = "x = 1\ny = \"polyy\"\n";
        // "polyy" with quotes: line 2, col 5, bytes 10..17.
        let d = Diagnostic::new(Code::UnknownLayer, Span::new(2, 5, 10, 17), "unknown layer")
            .with_help("did you mean `poly`?");
        let r = render("t.amg", src, &d);
        assert!(r.contains("error[E201]: unknown layer"), "{r}");
        assert!(r.contains(" --> t.amg:2:5"), "{r}");
        assert!(r.contains("2 | y = \"polyy\""), "{r}");
        assert!(r.contains("  |     ^^^^^^^"), "{r}");
        assert!(r.contains(" = help: did you mean `poly`?"), "{r}");
    }

    #[test]
    fn spanless_diagnostics_render_without_snippet() {
        let d = Diagnostic::new(Code::SyntaxError, Span::NONE, "boom");
        let r = render("t.amg", "", &d);
        assert!(r.contains("error[E000]: boom"), "{r}");
        assert!(!r.contains('^'), "{r}");
    }

    fn sample_report() -> CostReport {
        let l = crate::Linter::default();
        // Top-level code precedes entity definitions (ENT bodies run to
        // the next ENT or end of file).
        let src = "Row(n = 3)\n\nENT Row(n)\n  FOR i = 1 TO n\n    INBOX(\"poly\")\n  END\n";
        let (diags, report) = l.certify_source(src);
        assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
        report
    }

    #[test]
    fn certificate_text_lists_entities_and_tops() {
        let r = render_certificates(&["t.amg"], &sample_report(), 64);
        assert!(r.contains("ENT Row(n)"), "{r}");
        assert!(r.contains("t.amg (top level)"), "{r}");
        assert!(r.contains("fuel per run"), "{r}");
        // The loop body is affine in n: `2 + 2*n` (FOR + body, +1 trip slack).
        assert!(r.contains("n"), "{r}");
    }

    #[test]
    fn certificate_json_is_well_formed_and_closed_for_tops() {
        let r = certificates_json(&["t.amg"], &sample_report(), 64);
        assert!(r.starts_with('{') && r.ends_with('}'), "{r}");
        assert!(r.contains("\"Row\":{\"params\":[\"n\"]"), "{r}");
        assert!(r.contains("\"file\":\"t.amg\""), "{r}");
        // The top level has no free parameters, so totals close to numbers.
        let top = r.split("\"tops\":").nth(1).unwrap();
        assert!(!top.contains("\"total_fuel\":\""), "{r}");
        // Balanced braces (cheap well-formedness smoke; no parser on board).
        let open = r.matches('{').count();
        let close = r.matches('}').count();
        assert_eq!(open, close, "{r}");
    }

    #[test]
    fn json_strings_escape_quotes_and_control_chars() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\n");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\"");
        out.clear();
        push_json_string(&mut out, "\u{1}");
        assert_eq!(out, "\"\\u0001\"");
    }
}
