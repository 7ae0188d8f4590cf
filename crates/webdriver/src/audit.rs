//! Strict-mode auditing hooks.
//!
//! Table 1's lesson is that an interaction program's detectable side
//! effects are knowable *before* the program runs. This module lets a
//! [`crate::Session`] carry an auditor that inspects every action batch
//! on its way to the browser (and is told about script-level scrolls and
//! clicks, which bypass the action pipeline entirely). The auditor
//! implementation lives in `hlisa-lint`; keeping only the trait here
//! avoids a dependency cycle between the driver and the linter.

use crate::actions::Action;
use std::fmt;

/// One detectability finding raised by an auditor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// Stable rule id (e.g. `"sub-min-move"`).
    pub rule: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.rule, self.detail)
    }
}

/// Inspects interaction programs for detectable tells before they reach
/// the browser. Stateful: rules that span batches (typing cadence, scroll
/// runs, click approach) accumulate across calls until [`finish`].
///
/// Auditors are `Send`, like [`hlisa_sim::Observer`]s, so a session can
/// live in a campaign worker's state.
///
/// [`finish`]: ActionAuditor::finish
pub trait ActionAuditor: fmt::Debug + Send {
    /// Audits a batch of actions about to be performed. Returns findings
    /// that became decidable with this batch.
    fn audit_actions(&mut self, actions: &[Action]) -> Vec<AuditFinding>;

    /// Notes a script-origin scroll of `delta_px` (positive = down).
    fn note_script_scroll(&mut self, delta_px: f64) -> Vec<AuditFinding>;

    /// Notes a synthetic `element.click()` dispatch.
    fn note_script_click(&mut self) -> Vec<AuditFinding>;

    /// Flushes rules that only resolve at end of session (e.g. a
    /// still-open scroll run) and returns the last findings.
    fn finish(&mut self) -> Vec<AuditFinding>;
}
