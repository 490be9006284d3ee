//! Structured lint diagnostics: stable rule identifiers, severities, source
//! spans, human-readable rendering with caret snippets, and a JSON encoding
//! for tooling.

use java_syntax::{render_snippet, Span};
use observe::json_str;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational remark attached to another diagnostic.
    Note,
    /// Suspicious but not certainly wrong.
    Warning,
    /// A definite defect (or a broken internal invariant).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable rule identifiers.
///
/// * `PROT00x` — deterministic protocol-usage lints.
/// * `SPEC00x` — spec-consistency lints (declared `@Perm` vs. dataflow facts).
/// * `IR00x` — internal-representation verifier failures.
pub mod rules {
    /// A protocol violation: a call whose receiver may be in a state the
    /// callee's precondition excludes (e.g. `next()` without `hasNext()`).
    pub const PROTOCOL_VIOLATION: &str = "PROT001";
    /// A method declared read-only (`pure`/`immutable` receiver) writes a
    /// field of `this`.
    pub const READONLY_WRITES: &str = "SPEC001";
    /// A method ensures `unique(result)` but returns a value that provably
    /// is not freshly created.
    pub const STALE_UNIQUE_RESULT: &str = "SPEC002";
    /// A method declares a `unique` object and then synchronizes on it.
    pub const UNIQUE_SYNC: &str = "SPEC003";
    /// A `@Perm` annotation that does not parse.
    pub const MALFORMED_SPEC: &str = "SPEC004";
    /// A spec-provenance report from `anek explain`: why an annotation was
    /// inferred, with the contributing constraint families as notes.
    pub const EXPLAIN: &str = "EXPL001";
    /// A malformed control-flow graph.
    pub const BAD_CFG: &str = "IR001";
    /// A malformed permissions-flow graph.
    pub const BAD_PFG: &str = "IR002";
    /// A malformed constraint system (factor graph).
    pub const BAD_CONSTRAINTS: &str = "IR003";
    /// A `anek check` may-violation: the bit-vector checker found a path on
    /// which the receiver may be in a state the callee's precondition
    /// excludes.
    pub const CHECK_MAY_VIOLATION: &str = "CHK001";
    /// A `anek check` definite violation: the receiver is provably *never*
    /// in a state the callee's precondition admits at the call site.
    pub const CHECK_DEFINITE_VIOLATION: &str = "CHK002";
}

/// One structured diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (see [`rules`]).
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Primary message.
    pub message: String,
    /// Source location (may be [`Span::DUMMY`] for whole-IR findings).
    pub span: Span,
    /// `Class.method` context, when known.
    pub method: String,
    /// Source file the span refers to, when known (empty otherwise).
    pub file: String,
    /// Secondary notes.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A new diagnostic with no method context or notes.
    pub fn new(
        rule: &'static str,
        severity: Severity,
        message: impl Into<String>,
        span: Span,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            severity,
            message: message.into(),
            span,
            method: String::new(),
            file: String::new(),
            notes: Vec::new(),
        }
    }

    /// Attaches the `Class.method` context.
    #[must_use]
    pub fn in_method(mut self, method: impl Into<String>) -> Diagnostic {
        self.method = method.into();
        self
    }

    /// Attaches the source-file context.
    #[must_use]
    pub fn in_file(mut self, file: impl Into<String>) -> Diagnostic {
        self.file = file.into();
        self
    }

    /// The lint family: the rule id with its trailing digits stripped
    /// (`PROT001` -> `PROT`, `CHK002` -> `CHK`). Families group rules for
    /// filtering and for the machine-readable output.
    pub fn family(&self) -> &'static str {
        self.rule.trim_end_matches(|c: char| c.is_ascii_digit())
    }

    /// Appends a secondary note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic for a terminal, with a caret snippet when the
    /// defining source is available. The location reads `FILE:LINE:COL`
    /// when the file is known and `LINE:COL` otherwise.
    pub fn render(&self, source: Option<&str>) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.rule, self.message);
        if !self.span.is_dummy() || !self.method.is_empty() {
            out.push_str("  --> ");
            if !self.file.is_empty() {
                out.push_str(&self.file);
                out.push(':');
            }
            out.push_str(&self.span.to_string());
            if !self.method.is_empty() {
                out.push_str(&format!(" ({})", self.method));
            }
            out.push('\n');
        }
        if let Some(src) = source {
            out.push_str(&render_snippet(src, self.span));
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    /// Encodes the diagnostic as a JSON object (strings escaped by
    /// `observe::write_json_str`).
    pub fn to_json(&self) -> String {
        let notes = self.notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(",");
        format!(
            "{{\"rule\":\"{}\",\"family\":\"{}\",\"severity\":\"{}\",\"message\":{},\"file\":{},\"line\":{},\"col\":{},\"end_line\":{},\"end_col\":{},\"method\":{},\"notes\":[{}]}}",
            self.rule,
            self.family(),
            self.severity,
            json_str(&self.message),
            json_str(&self.file),
            self.span.start.line,
            self.span.start.col,
            self.span.end.line,
            self.span.end.col,
            json_str(&self.method),
            notes,
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(None).trim_end())
    }
}

/// Encodes a batch of diagnostics as a JSON array.
pub fn to_json_array(diags: &[Diagnostic]) -> String {
    let items = diags.iter().map(Diagnostic::to_json).collect::<Vec<_>>().join(",");
    format!("[{items}]")
}

/// Sorts diagnostics into reporting order: by file, then source position,
/// then rule id. Total and input-order-independent (the method and message
/// break any remaining ties), so `--json` output is deterministic.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (&a.file, a.span.start.offset, a.rule, &a.method, &a.message).cmp(&(
            &b.file,
            b.span.start.offset,
            b.rule,
            &b.method,
            &b.message,
        ))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use java_syntax::Pos;

    fn sample() -> Diagnostic {
        let span = Span::new(Pos::new(23, 2, 16), Pos::new(32, 2, 25));
        Diagnostic::new(
            rules::PROTOCOL_VIOLATION,
            Severity::Warning,
            "call to next() may fire in state END",
            span,
        )
        .in_method("W.first")
        .with_note("receiver came from createIter0()")
    }

    #[test]
    fn render_contains_rule_span_and_notes() {
        let d = sample();
        let r = d.render(None);
        assert!(r.starts_with("warning[PROT001]:"), "{r}");
        assert!(r.contains("--> 2:16 (W.first)"), "{r}");
        assert!(r.contains("note: receiver"), "{r}");
        let r = d.in_file("W.java").render(None);
        assert!(r.contains("--> W.java:2:16 (W.first)"), "{r}");
    }

    #[test]
    fn render_with_source_shows_caret() {
        let src = "class W {\n    int f() { return it.next(); }\n}";
        let off = src.find("it.next()").unwrap();
        let d = Diagnostic::new(
            rules::PROTOCOL_VIOLATION,
            Severity::Warning,
            "m",
            Span::new(Pos::new(off, 2, 22), Pos::new(off + 9, 2, 31)),
        );
        let r = d.render(Some(src));
        assert!(r.contains("^^^^^^^^^"), "{r}");
    }

    #[test]
    fn json_is_escaped_and_well_shaped() {
        let mut d = sample();
        d.message = "quote \" backslash \\ newline \n done".into();
        let j = d.to_json();
        assert!(j.contains("\\\""));
        assert!(j.contains("\\\\"));
        assert!(j.contains("\\n"));
        assert!(j.starts_with('{') && j.ends_with('}'));
        let arr = to_json_array(&[d.clone(), d]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
        assert_eq!(arr.matches("\"rule\"").count(), 2);
    }

    #[test]
    fn family_strips_trailing_digits() {
        assert_eq!(sample().family(), "PROT");
        let span = Span::DUMMY;
        let chk = Diagnostic::new(rules::CHECK_MAY_VIOLATION, Severity::Error, "m", span);
        assert_eq!(chk.family(), "CHK");
        let ir = Diagnostic::new(rules::BAD_CFG, Severity::Error, "m", span);
        assert_eq!(ir.family(), "IR");
    }

    #[test]
    fn json_carries_family_and_file() {
        let d = sample().in_file("W.java");
        let j = d.to_json();
        assert!(j.contains("\"family\":\"PROT\""), "{j}");
        assert!(j.contains("\"file\":\"W.java\""), "{j}");
    }

    #[test]
    fn sorting_is_by_file_first() {
        let early = Span::new(Pos::new(1, 1, 2), Pos::new(2, 1, 3));
        let late = Span::new(Pos::new(9, 2, 1), Pos::new(10, 2, 2));
        let mut v = vec![
            Diagnostic::new(rules::READONLY_WRITES, Severity::Warning, "b", early)
                .in_file("z.java"),
            Diagnostic::new(rules::PROTOCOL_VIOLATION, Severity::Warning, "c", late)
                .in_file("a.java"),
        ];
        sort_diagnostics(&mut v);
        assert_eq!(v[0].file, "a.java");
        assert_eq!(v[1].file, "z.java");
    }

    #[test]
    fn sorting_is_by_position_then_rule() {
        let early = Span::new(Pos::new(1, 1, 2), Pos::new(2, 1, 3));
        let late = Span::new(Pos::new(9, 2, 1), Pos::new(10, 2, 2));
        let mut v = vec![
            Diagnostic::new(rules::BAD_CFG, Severity::Warning, "b", late),
            Diagnostic::new(rules::PROTOCOL_VIOLATION, Severity::Warning, "c", early),
            Diagnostic::new(rules::CHECK_MAY_VIOLATION, Severity::Warning, "a", early),
        ];
        sort_diagnostics(&mut v);
        assert_eq!(v[0].rule, rules::CHECK_MAY_VIOLATION);
        assert_eq!(v[1].rule, rules::PROTOCOL_VIOLATION);
        assert_eq!(v[2].rule, rules::BAD_CFG);
    }
}
