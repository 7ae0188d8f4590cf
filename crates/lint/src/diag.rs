//! The diagnostics core shared by both analyzers: rule id, severity,
//! location, and machine-readable (JSON) plus human rendering.

use hlisa_webdriver::AuditFinding;
use std::fmt::Write as _;

/// How seriously a diagnostic is meant (all shipped rules deny; the
/// severity travels in the output so downstream tooling can filter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the build.
    Deny,
    /// Reported but non-fatal.
    Warn,
}

impl Severity {
    /// Lowercase label used in both output formats.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// Where a diagnostic points: a source position, an action index in a
/// chain program, or nothing (session-level findings).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Location {
    /// Workspace-relative source file.
    pub file: Option<String>,
    /// 1-based line in `file`.
    pub line: Option<usize>,
    /// 0-based index into the linted action program.
    pub action_index: Option<usize>,
}

impl Location {
    /// A source-file position.
    pub fn in_file(file: impl Into<String>, line: usize) -> Self {
        Self {
            file: Some(file.into()),
            line: Some(line),
            action_index: None,
        }
    }

    /// An action-program position.
    pub fn at_action(index: usize) -> Self {
        Self {
            file: None,
            line: None,
            action_index: Some(index),
        }
    }

    fn render(&self) -> String {
        match (&self.file, self.line, self.action_index) {
            (Some(f), Some(l), _) => format!("{f}:{l}"),
            (Some(f), None, _) => f.clone(),
            (None, _, Some(i)) => format!("action #{i}"),
            _ => "session".to_string(),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule id (see [`crate::rules::CATALOG`]).
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Where.
    pub location: Location,
    /// Human-readable detail.
    pub message: String,
}

/// An ordered collection of findings with the two output formats.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps already-collected diagnostics.
    pub fn from_diagnostics(diags: Vec<Diagnostic>) -> Self {
        Self { diags }
    }

    /// Rebuilds a report from a session auditor's findings (locations are
    /// session-level: the auditor works on live batches, not a stored
    /// program).
    pub fn from_findings(findings: &[AuditFinding]) -> Self {
        Self {
            diags: findings
                .iter()
                .map(|f| Diagnostic {
                    rule: f.rule,
                    severity: Severity::Deny,
                    location: Location::default(),
                    message: f.detail.clone(),
                })
                .collect(),
        }
    }

    /// Adds one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Adds many diagnostics.
    pub fn extend(&mut self, diags: impl IntoIterator<Item = Diagnostic>) {
        self.diags.extend(diags);
    }

    /// Appends another report.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// All findings, in discovery order.
    #[cfg(test)]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// True when nothing was flagged.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// True when nothing was flagged (alias in report vocabulary).
    pub fn is_clean(&self) -> bool {
        self.is_empty()
    }

    /// Distinct rule ids flagged, sorted.
    pub fn rule_ids(&self) -> Vec<&'static str> {
        let mut ids: Vec<&'static str> = self.diags.iter().map(|d| d.rule).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Machine-readable rendering. Hand-rolled: the vendored serde stub
    /// is not a serializer, and the format here is a stable contract for
    /// CI tooling.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"clean\":");
        out.push_str(if self.is_clean() { "true" } else { "false" });
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":\"{}\",\"severity\":\"{}\"",
                json_escape(d.rule),
                d.severity.label()
            );
            if let Some(f) = &d.location.file {
                let _ = write!(out, ",\"file\":\"{}\"", json_escape(f));
            }
            if let Some(l) = d.location.line {
                let _ = write!(out, ",\"line\":{l}");
            }
            if let Some(a) = d.location.action_index {
                let _ = write!(out, ",\"action\":{a}");
            }
            let _ = write!(out, ",\"message\":\"{}\"}}", json_escape(&d.message));
        }
        out.push_str("]}");
        out
    }

    /// Terminal rendering, one line per finding.
    pub fn render_human(&self) -> String {
        if self.is_clean() {
            return "clean: no diagnostics\n".to_string();
        }
        let mut out = String::new();
        for d in &self.diags {
            let _ = writeln!(
                out,
                "{}[{}] {}: {}",
                d.severity.label(),
                d.rule,
                d.location.render(),
                d.message
            );
        }
        let _ = writeln!(
            out,
            "{} diagnostic(s), rules: {}",
            self.len(),
            self.rule_ids().join(", ")
        );
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report::from_diagnostics(vec![
            Diagnostic {
                rule: "no-wall-clock",
                severity: Severity::Deny,
                location: Location::in_file("crates/x/src/lib.rs", 3),
                message: "Instant::now() outside hlisa-sim".into(),
            },
            Diagnostic {
                rule: "sub-min-move",
                severity: Severity::Deny,
                location: Location::at_action(7),
                message: "0 ms \"move\"".into(),
            },
        ])
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let j = sample().to_json();
        assert!(j.starts_with("{\"clean\":false"));
        assert!(j.contains("\"file\":\"crates/x/src/lib.rs\""));
        assert!(j.contains("\"line\":3"));
        assert!(j.contains("\"action\":7"));
        assert!(j.contains("0 ms \\\"move\\\""));
        assert_eq!(
            Report::new().to_json(),
            "{\"clean\":true,\"diagnostics\":[]}"
        );
    }

    #[test]
    fn human_output_names_every_rule_once() {
        let h = sample().render_human();
        assert!(h.contains("deny[no-wall-clock] crates/x/src/lib.rs:3:"));
        assert!(h.contains("deny[sub-min-move] action #7:"));
        assert!(h.contains("rules: no-wall-clock, sub-min-move"));
    }

    #[test]
    fn rule_ids_dedupe_and_sort() {
        let mut r = sample();
        r.merge(sample());
        assert_eq!(r.len(), 4);
        assert_eq!(r.rule_ids(), ["no-wall-clock", "sub-min-move"]);
        assert!(!r.is_clean());
        assert!(Report::new().is_clean());
    }
}
