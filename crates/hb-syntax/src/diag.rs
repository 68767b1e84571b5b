//! Parse errors, generic diagnostics, and the structured blame surface.
//!
//! [`TypeDiagnostic`] is the workspace's first-class error value for
//! just-in-time check failures (the paper's *blame*): a stable `HBxxxx`
//! code, a primary span, labeled secondary spans (the blamed annotation,
//! the triggering call site, the cast site) and a structured
//! [`BlameTarget`] saying *which annotation or cast is responsible* —
//! machine-readably, not as a flattened string.

use crate::span::{SourceMap, Span};
use hb_intern::MethodKey;
use std::error::Error;
use std::fmt;

/// An error produced while lexing or parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub span: Span,
}

impl ParseError {
    /// Creates a parse error at `span`.
    pub fn new(message: impl Into<String>, span: Span) -> ParseError {
        ParseError {
            message: message.into(),
            span,
        }
    }

    /// Renders the error with a resolved source position.
    pub fn render(&self, map: &SourceMap) -> String {
        format!("{}: parse error: {}", map.describe(self.span), self.message)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl Error for ParseError {}

/// Severity of a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    Error,
    Warning,
    Note,
}

/// A general diagnostic used by downstream phases (the checker reuses this
/// shape for type errors so every tool renders locations uniformly).
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub severity: Severity,
    pub message: String,
    pub span: Span,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            message: message.into(),
            span,
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            message: message.into(),
            span,
        }
    }

    /// Renders the diagnostic with a resolved source position.
    pub fn render(&self, map: &SourceMap) -> String {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        };
        format!("{}: {}: {}", map.describe(self.span), sev, self.message)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        };
        write!(f, "{sev}: {}", self.message)
    }
}

/// Stable diagnostic codes for type-check and contract failures. The
/// numeric form (`HB0001`, …) is the public contract: tools, tests and CI
/// gates match on it, so variants are append-only and never renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DiagCode {
    /// HB0001 — a call's arity matches no arm of the callee's signature.
    ArityMismatch,
    /// HB0002 — an argument's static type matches no arm.
    ArgumentType,
    /// HB0003 — the callee has no type annotation at all.
    NoMethodType,
    /// HB0004 — an ivar/cvar/gvar assignment violates its declared type.
    VarAssign,
    /// HB0005 — an `rdl_cast` failed (at run time) or its type is invalid.
    CastFailure,
    /// HB0006 — the checker's fixpoint did not converge.
    NonConvergence,
    /// HB0007 — the body (or an explicit return) does not match the
    /// declared return type.
    ReturnType,
    /// HB0008 — block incompatibility: a block passed to a blockless
    /// type, a block body's type mismatch, or `yield` without a declared
    /// block.
    BlockIncompatible,
    /// HB0009 — a `pre` contract rejected the call.
    PreconditionFailed,
    /// HB0010 — a dynamic argument check (unchecked caller) failed.
    DynamicArgCheck,
    /// HB0011 — a scheduled check task panicked on a worker thread; the
    /// panic was contained to the task and surfaced as this diagnostic.
    CheckerPanic,
    /// HB1001 — a local variable is read before any assignment can have
    /// reached it (definite use-before-assignment; the read yields `nil`).
    UseBeforeAssign,
    /// HB1002 — code that no path from the method entry can reach
    /// (after `return`/`raise`, or in a branch dead under narrowing).
    UnreachableCode,
    /// HB1003 — a local is assigned a pure value that is overwritten or
    /// falls out of scope before any read (dead store).
    DeadStore,
    /// HB1004 — a local is assigned but never read anywhere in the method.
    UnusedLocal,
    /// HB1005 — an annotated method is unreachable from every program
    /// entry point: the annotation is stale (it will never be checked).
    StaleAnnotation,
    /// HB1006 — dynamic-check residue: an annotated method is reached
    /// from unchecked callers, so its guarded prologue (per-call dynamic
    /// argument checks) survives elision.
    DynCheckResidue,
    /// HB2001 — inferable signature: the inference pass produced a
    /// plausible candidate signature for an unannotated method, but the
    /// checker refuted it (`check_sig` failed), so it was *not* adopted.
    /// The diagnostic carries the candidate as a ready-to-review `type`
    /// suggestion.
    InferableSignature,
}

impl DiagCode {
    /// The stable `HBxxxx` string.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::ArityMismatch => "HB0001",
            DiagCode::ArgumentType => "HB0002",
            DiagCode::NoMethodType => "HB0003",
            DiagCode::VarAssign => "HB0004",
            DiagCode::CastFailure => "HB0005",
            DiagCode::NonConvergence => "HB0006",
            DiagCode::ReturnType => "HB0007",
            DiagCode::BlockIncompatible => "HB0008",
            DiagCode::PreconditionFailed => "HB0009",
            DiagCode::DynamicArgCheck => "HB0010",
            DiagCode::CheckerPanic => "HB0011",
            DiagCode::UseBeforeAssign => "HB1001",
            DiagCode::UnreachableCode => "HB1002",
            DiagCode::DeadStore => "HB1003",
            DiagCode::UnusedLocal => "HB1004",
            DiagCode::StaleAnnotation => "HB1005",
            DiagCode::DynCheckResidue => "HB1006",
            DiagCode::InferableSignature => "HB2001",
        }
    }

    /// True for the `HB1xxx` static-analysis warning series (emitted by
    /// `hb-analyze` passes, never by the just-in-time checker). The
    /// `HB2xxx` inference-suggestion series is deliberately excluded: a
    /// suggestion is neither a checker error nor a defect warning.
    pub fn is_lint(self) -> bool {
        self.as_str().starts_with("HB1")
    }

    /// True for the `HB2xxx` inference-suggestion series.
    pub fn is_suggestion(self) -> bool {
        self.as_str().starts_with("HB2")
    }

    /// Parses an `HBxxxx` string back to its code.
    pub fn parse(s: &str) -> Option<DiagCode> {
        Some(match s {
            "HB0001" => DiagCode::ArityMismatch,
            "HB0002" => DiagCode::ArgumentType,
            "HB0003" => DiagCode::NoMethodType,
            "HB0004" => DiagCode::VarAssign,
            "HB0005" => DiagCode::CastFailure,
            "HB0006" => DiagCode::NonConvergence,
            "HB0007" => DiagCode::ReturnType,
            "HB0008" => DiagCode::BlockIncompatible,
            "HB0009" => DiagCode::PreconditionFailed,
            "HB0010" => DiagCode::DynamicArgCheck,
            "HB0011" => DiagCode::CheckerPanic,
            "HB1001" => DiagCode::UseBeforeAssign,
            "HB1002" => DiagCode::UnreachableCode,
            "HB1003" => DiagCode::DeadStore,
            "HB1004" => DiagCode::UnusedLocal,
            "HB1005" => DiagCode::StaleAnnotation,
            "HB1006" => DiagCode::DynCheckResidue,
            "HB2001" => DiagCode::InferableSignature,
            _ => return None,
        })
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a diagnostic blames — the annotation, cast or declaration that is
/// responsible for the failure (paper §2/§5: blame names the exact
/// annotation, not just the failing expression).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlameTarget {
    /// A method type annotation: the signature the failing code disagrees
    /// with.
    Annotation(MethodKey),
    /// An `rdl_cast` the program asserted and the value (or type string)
    /// violated.
    Cast,
    /// An ivar/cvar/gvar type declaration (`var_type`).
    VarDecl {
        /// The variable name including its sigil (`@count`, `@@n`, `$x`).
        name: String,
    },
    /// No annotation exists for this method anywhere along the receiver's
    /// chain — the fix is to *add* a type (or fix the call).
    MissingType(MethodKey),
    /// A static-analysis finding: nothing is *blamed* in the paper's sense
    /// — the pass name says which analysis produced the warning.
    Lint {
        /// The analysis pass that produced the finding (`"use-before-assign"`,
        /// `"residue"`, …).
        pass: &'static str,
    },
}

impl BlameTarget {
    /// The machine-readable kind tag used in JSON output.
    pub fn kind(&self) -> &'static str {
        match self {
            BlameTarget::Annotation(_) => "annotation",
            BlameTarget::Cast => "cast",
            BlameTarget::VarDecl { .. } => "var-decl",
            BlameTarget::MissingType(_) => "missing-type",
            BlameTarget::Lint { .. } => "lint",
        }
    }
}

/// The role a secondary span plays in a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelRole {
    /// The blamed annotation's registration site.
    BlamedAnnotation,
    /// The dynamic call that triggered the just-in-time check.
    CallSite,
    /// The `rdl_cast` site.
    CastSite,
    /// The method being checked (its own annotation site).
    CheckedMethod,
    /// Free-form secondary note.
    Note,
}

impl LabelRole {
    /// The machine-readable tag (also used in JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            LabelRole::BlamedAnnotation => "blamed-annotation",
            LabelRole::CallSite => "call-site",
            LabelRole::CastSite => "cast-site",
            LabelRole::CheckedMethod => "checked-method",
            LabelRole::Note => "note",
        }
    }
}

/// A labeled secondary span attached to a [`TypeDiagnostic`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiagLabel {
    pub role: LabelRole,
    pub message: String,
    pub span: Span,
    /// The method the label refers to (e.g. the blamed annotation's key).
    pub method: Option<MethodKey>,
}

impl DiagLabel {
    /// A label of `role` at `span`.
    pub fn new(role: LabelRole, message: impl Into<String>, span: Span) -> DiagLabel {
        DiagLabel {
            role,
            message: message.into(),
            span,
            method: None,
        }
    }

    /// Attaches the method key the label refers to.
    pub fn with_method(mut self, key: MethodKey) -> DiagLabel {
        self.method = Some(key);
        self
    }
}

/// A structured type-check/contract diagnostic — the first-class form of
/// the paper's *blame*. Carries everything a tool needs machine-readably:
/// stable code, primary span, labeled secondary spans and the blamed
/// target, with both human ([`TypeDiagnostic::render`]) and JSON
/// ([`TypeDiagnostic::to_json`]) output.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDiagnostic {
    pub code: DiagCode,
    pub severity: Severity,
    /// The primary, human-readable message (no location information —
    /// spans carry that).
    pub message: String,
    /// The primary span: where the offending code is.
    pub span: Span,
    /// Labeled secondary spans (blamed annotation, call site, …).
    pub labels: Vec<DiagLabel>,
    /// What the diagnostic blames.
    pub blame: BlameTarget,
    /// The method that was being checked when the failure surfaced.
    pub method: Option<MethodKey>,
}

impl TypeDiagnostic {
    /// An error-severity diagnostic with no labels yet.
    pub fn error(
        code: DiagCode,
        message: impl Into<String>,
        span: Span,
        blame: BlameTarget,
    ) -> TypeDiagnostic {
        TypeDiagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span,
            labels: Vec::new(),
            blame,
            method: None,
        }
    }

    /// A warning-severity diagnostic with no labels yet (the `HB1xxx`
    /// static-analysis series).
    pub fn warning(
        code: DiagCode,
        message: impl Into<String>,
        span: Span,
        blame: BlameTarget,
    ) -> TypeDiagnostic {
        TypeDiagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            span,
            labels: Vec::new(),
            blame,
            method: None,
        }
    }

    /// Appends a label (builder style).
    pub fn with_label(mut self, label: DiagLabel) -> TypeDiagnostic {
        self.labels.push(label);
        self
    }

    /// Records the method being checked.
    pub fn with_method(mut self, key: MethodKey) -> TypeDiagnostic {
        self.method = Some(key);
        self
    }

    /// The first label with `role`, if any.
    pub fn label(&self, role: LabelRole) -> Option<&DiagLabel> {
        self.labels.iter().find(|l| l.role == role)
    }

    /// Renders the diagnostic with resolved source positions, one line for
    /// the primary message and one indented line per label:
    ///
    /// ```text
    /// error[HB0002]: argument type mismatch ... at talks/buggy.rb:5:13
    ///   blamed-annotation: `(Symbol) -> Array<Talk>` declared at talks/types.rb:3:3 (User#subscribed_talks)
    ///   call-site: checked just-in-time from app.rb:9:1
    /// ```
    pub fn render(&self, map: &SourceMap) -> String {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        };
        let mut out = format!(
            "{sev}[{}]: {} at {}",
            self.code,
            self.message,
            describe_or_unknown(map, self.span)
        );
        for l in &self.labels {
            out.push_str(&format!(
                "\n  {}: {} at {}",
                l.role.as_str(),
                l.message,
                describe_or_unknown(map, l.span)
            ));
            if let Some(m) = l.method {
                out.push_str(&format!(" ({m})"));
            }
        }
        out
    }

    /// Serialises to a single-line JSON object (hand-rolled — the
    /// workspace is serde-free). Spans resolve through `map` to
    /// `{"file","line","col"}`; dummy spans serialise as `null`.
    pub fn to_json(&self, map: &SourceMap) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        out.push_str(&format!("\"code\":\"{}\"", self.code));
        // Append-only JSON contract: error diagnostics keep their original
        // shape; non-error severities add an explicit tag.
        match self.severity {
            Severity::Error => {}
            Severity::Warning => out.push_str(",\"severity\":\"warning\""),
            Severity::Note => out.push_str(",\"severity\":\"note\""),
        }
        out.push_str(&format!(",\"message\":\"{}\"", json_escape(&self.message)));
        out.push_str(",\"span\":");
        push_span_json(&mut out, map, self.span);
        out.push_str(",\"blame\":{");
        out.push_str(&format!("\"kind\":\"{}\"", self.blame.kind()));
        match &self.blame {
            BlameTarget::Annotation(k) | BlameTarget::MissingType(k) => {
                out.push_str(&format!(",\"method\":\"{}\"", json_escape(&k.display())));
            }
            BlameTarget::VarDecl { name } => {
                out.push_str(&format!(",\"name\":\"{}\"", json_escape(name)));
            }
            BlameTarget::Lint { pass } => {
                out.push_str(&format!(",\"pass\":\"{}\"", json_escape(pass)));
            }
            BlameTarget::Cast => {}
        }
        out.push('}');
        if let Some(m) = self.method {
            out.push_str(&format!(",\"method\":\"{}\"", json_escape(&m.display())));
        }
        out.push_str(",\"labels\":[");
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str(&format!("\"role\":\"{}\"", l.role.as_str()));
            out.push_str(&format!(",\"message\":\"{}\"", json_escape(&l.message)));
            out.push_str(",\"span\":");
            push_span_json(&mut out, map, l.span);
            if let Some(m) = l.method {
                out.push_str(&format!(",\"method\":\"{}\"", json_escape(&m.display())));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for TypeDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        };
        write!(f, "{sev}[{}]: {}", self.code, self.message)
    }
}

fn describe_or_unknown(map: &SourceMap, span: Span) -> String {
    if span == Span::dummy() {
        "<synthesized>".to_string()
    } else {
        map.describe(span)
    }
}

fn push_span_json(out: &mut String, map: &SourceMap, span: Span) {
    if span == Span::dummy() {
        out.push_str("null");
        return;
    }
    match map.file(span.file) {
        Some(f) => {
            let (line, col) = f.line_col(span.lo);
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"line\":{line},\"col\":{col}}}",
                json_escape(&f.name)
            ));
        }
        None => out.push_str("null"),
    }
}

/// Re-exported from `hb-intern`, where the diagnostics and the
/// observability exporters share it.
pub use hb_intern::json_escape;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_with_position() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("x.rb", "a\nbb ccc\n");
        let e = ParseError::new("boom", Span::new(f, 5, 8));
        assert_eq!(e.render(&sm), "x.rb:2:4: parse error: boom");
    }

    #[test]
    fn diagnostic_display() {
        let d = Diagnostic::error("no type for Talk#owner", Span::dummy());
        assert_eq!(d.to_string(), "error: no type for Talk#owner");
        let w = Diagnostic::warning("unused", Span::dummy());
        assert_eq!(w.to_string(), "warning: unused");
    }

    #[test]
    fn diag_codes_are_stable_and_parse_back() {
        let all = [
            DiagCode::ArityMismatch,
            DiagCode::ArgumentType,
            DiagCode::NoMethodType,
            DiagCode::VarAssign,
            DiagCode::CastFailure,
            DiagCode::NonConvergence,
            DiagCode::ReturnType,
            DiagCode::BlockIncompatible,
            DiagCode::PreconditionFailed,
            DiagCode::DynamicArgCheck,
        ];
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c.as_str(), format!("HB{:04}", i + 1));
            assert_eq!(DiagCode::parse(c.as_str()), Some(*c));
        }
        let lints = [
            DiagCode::UseBeforeAssign,
            DiagCode::UnreachableCode,
            DiagCode::DeadStore,
            DiagCode::UnusedLocal,
            DiagCode::StaleAnnotation,
            DiagCode::DynCheckResidue,
        ];
        for (i, c) in lints.iter().enumerate() {
            assert_eq!(c.as_str(), format!("HB{:04}", 1001 + i));
            assert_eq!(DiagCode::parse(c.as_str()), Some(*c));
            assert!(c.is_lint());
        }
        assert!(!DiagCode::ArityMismatch.is_lint());
        assert_eq!(DiagCode::InferableSignature.as_str(), "HB2001");
        assert_eq!(
            DiagCode::parse("HB2001"),
            Some(DiagCode::InferableSignature)
        );
        assert!(DiagCode::InferableSignature.is_suggestion());
        assert!(!DiagCode::InferableSignature.is_lint());
        assert!(!DiagCode::DynCheckResidue.is_suggestion());
        assert_eq!(DiagCode::parse("HB9999"), None);
    }

    #[test]
    fn warning_constructor_and_json_severity_tag() {
        let d = TypeDiagnostic::warning(
            DiagCode::UnusedLocal,
            "local `x` is never read",
            Span::dummy(),
            BlameTarget::Lint { pass: "liveness" },
        );
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.to_string(), "warning[HB1004]: local `x` is never read");
        let sm = SourceMap::new();
        assert_eq!(
            d.to_json(&sm),
            "{\"code\":\"HB1004\",\"severity\":\"warning\",\
             \"message\":\"local `x` is never read\",\"span\":null,\
             \"blame\":{\"kind\":\"lint\",\"pass\":\"liveness\"},\"labels\":[]}"
        );
    }

    #[test]
    fn type_diagnostic_renders_labels_golden() {
        let mut sm = SourceMap::new();
        let app = sm.add_file("app.rb", "x = 1\nuser.subscribed_talks(true)\n");
        let types = sm.add_file(
            "types.rb",
            "type :subscribed_talks, \"(Symbol) -> Array\"\n",
        );
        let key = MethodKey::instance("User", "subscribed_talks");
        let d = TypeDiagnostic::error(
            DiagCode::ArgumentType,
            "argument type mismatch calling User#subscribed_talks",
            Span::new(app, 6, 33),
            BlameTarget::Annotation(key),
        )
        .with_method(MethodKey::instance("ListsController", "subscribed"))
        .with_label(
            DiagLabel::new(
                LabelRole::BlamedAnnotation,
                "annotation declared here",
                Span::new(types, 0, 44),
            )
            .with_method(key),
        )
        .with_label(DiagLabel::new(
            LabelRole::CallSite,
            "checked just-in-time at this call",
            Span::new(app, 6, 33),
        ));
        assert_eq!(
            d.render(&sm),
            "error[HB0002]: argument type mismatch calling User#subscribed_talks at app.rb:2:1\n  \
             blamed-annotation: annotation declared here at types.rb:1:1 (User#subscribed_talks)\n  \
             call-site: checked just-in-time at this call at app.rb:2:1"
        );
    }

    #[test]
    fn type_diagnostic_json_golden() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("t.rb", "a\nbb \"x\"\n");
        let key = MethodKey::instance("Talk", "owner");
        let d = TypeDiagnostic::error(
            DiagCode::NoMethodType,
            "Hummingbird: no type for Talk#owner",
            Span::new(f, 2, 4),
            BlameTarget::MissingType(key),
        )
        .with_label(DiagLabel::new(
            LabelRole::Note,
            "a \"quoted\" note",
            Span::dummy(),
        ));
        assert_eq!(
            d.to_json(&sm),
            "{\"code\":\"HB0003\",\"message\":\"Hummingbird: no type for Talk#owner\",\
             \"span\":{\"file\":\"t.rb\",\"line\":2,\"col\":1},\
             \"blame\":{\"kind\":\"missing-type\",\"method\":\"Talk#owner\"},\
             \"labels\":[{\"role\":\"note\",\"message\":\"a \\\"quoted\\\" note\",\"span\":null}]}"
        );
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
