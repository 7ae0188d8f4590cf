//! A WebDriver session over a simulated browser.

use crate::actions::{perform, Action, PointerMoveProfile};
use crate::audit::{ActionAuditor, AuditFinding};
use crate::error::WebDriverError;
use hlisa_browser::dom::NodeId;
use hlisa_browser::viewport::ScrollOrigin;
use hlisa_browser::{Browser, Point};
use hlisa_jsom::Value;
use std::borrow::Cow;

/// Element locator strategies (the ones the experiments use). A locator
/// borrows a `'static` name (`By::Id("submit".into())`) and owns only a
/// name built at run time, so looking up a fixed id copies nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum By {
    /// By `id` attribute.
    Id(Cow<'static, str>),
    /// By tag name.
    Tag(Cow<'static, str>),
}

/// A remote element reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementHandle {
    pub(crate) node: NodeId,
}

impl ElementHandle {
    /// The underlying DOM node.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

/// A WebDriver session: owns the browser and mediates all interaction.
#[derive(Debug)]
pub struct Session {
    /// The automated browser.
    pub browser: Browser,
    profile: PointerMoveProfile,
    auditor: Option<Box<dyn ActionAuditor>>,
    findings: Vec<AuditFinding>,
}

impl Session {
    /// Starts a session on a browser (the geckodriver "new session" step).
    pub fn new(browser: Browser) -> Self {
        Self {
            browser,
            profile: PointerMoveProfile::selenium_default(),
            auditor: None,
            findings: Vec::new(),
        }
    }

    /// Installs a strict-mode auditor: every subsequent action batch is
    /// inspected for detectable tells *before* it reaches the browser,
    /// and script-level scrolls/clicks are reported to it as well.
    pub fn install_auditor(&mut self, auditor: Box<dyn ActionAuditor>) {
        self.auditor = Some(auditor);
        self.findings.clear();
    }

    /// Findings accumulated so far (without flushing end-of-session
    /// rules; see [`Session::finish_audit`]).
    pub fn audit_findings(&self) -> &[AuditFinding] {
        &self.findings
    }

    /// Flushes the auditor's end-of-session rules and drains all
    /// accumulated findings. The auditor stays installed.
    pub fn finish_audit(&mut self) -> Vec<AuditFinding> {
        if let Some(a) = self.auditor.as_mut() {
            self.findings.extend(a.finish());
        }
        std::mem::take(&mut self.findings)
    }

    /// Strict-mode verdict: flushes the audit and fails with
    /// [`WebDriverError::DetectableInteraction`] if anything was flagged.
    pub fn assert_undetectable(&mut self) -> Result<(), WebDriverError> {
        let findings = self.finish_audit();
        if findings.is_empty() {
            return Ok(());
        }
        let mut rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        rules.dedup();
        Err(WebDriverError::DetectableInteraction(format!(
            "{} finding(s): {}",
            findings.len(),
            rules.join(", ")
        )))
    }

    /// The active pointer-move profile.
    pub fn pointer_profile(&self) -> PointerMoveProfile {
        self.profile
    }

    /// HLISA's `create_pointer_move` override: "For Selenium versions <4,
    /// we change this duration to 50 msec" (§4.1). The canonical value is
    /// [`crate::actions::HLISA_MIN_MOVE_MS`]; see [`Session::apply_hlisa_profile`].
    pub fn override_pointer_move_min_duration(&mut self, min_ms: f64) {
        assert!(min_ms >= 0.0 && min_ms.is_finite(), "bad duration {min_ms}");
        self.profile.min_duration_ms = min_ms;
    }

    /// Applies HLISA's patched pointer profile (the 50 ms floor) in one
    /// step, from the single source of truth in this crate.
    pub fn apply_hlisa_profile(&mut self) {
        self.override_pointer_move_min_duration(crate::actions::HLISA_MIN_MOVE_MS);
    }

    /// `find element`.
    pub fn find_element(&self, by: By) -> Result<ElementHandle, WebDriverError> {
        let node = match &by {
            By::Id(id) => self.browser.document().by_id(id),
            By::Tag(tag) => self.browser.document().by_tag(tag).first().copied(),
        };
        match node {
            Some(node) => Ok(ElementHandle { node }),
            None => Err(WebDriverError::NoSuchElement(by)),
        }
    }

    /// Executes primitive actions ("perform actions" endpoint). With an
    /// auditor installed the batch is linted first — the lint judges the
    /// *requested* program, before the profile's duration floor papers
    /// over sub-minimum moves.
    pub fn perform_actions(&mut self, actions: &[Action]) -> f64 {
        if let Some(a) = self.auditor.as_mut() {
            self.findings.extend(a.audit_actions(actions));
        }
        perform(&mut self.browser, self.profile, actions)
    }

    /// The element's centre in page coordinates (WebDriver's "in-view
    /// centre point" modulo scrolling, which callers do first).
    pub fn element_center(&self, el: ElementHandle) -> Point {
        self.browser.element_center(el.node)
    }

    /// The element's box.
    pub fn element_rect(&self, el: ElementHandle) -> hlisa_browser::Rect {
        self.browser.document().element(el.node).rect
    }

    /// Whether the element is rendered.
    pub fn is_displayed(&self, el: ElementHandle) -> bool {
        self.browser.document().element(el.node).visible
    }

    /// Text content of the element.
    pub fn element_text(&self, el: ElementHandle) -> String {
        self.browser.document().element(el.node).text.clone()
    }

    /// Script-level scroll (what Selenium's `scrollIntoView` fallback
    /// does): arbitrary distance in one step, no wheel events (§4.1).
    pub fn scroll_into_view_script(&mut self, el: ElementHandle) {
        let before = self.browser.viewport.scroll_y();
        self.browser
            .scroll_element_into_view(el.node, ScrollOrigin::Script);
        let delta = self.browser.viewport.scroll_y() - before;
        if let Some(a) = self.auditor.as_mut() {
            self.findings.extend(a.note_script_scroll(delta));
        }
    }

    /// Script-level scroll by a relative distance (the
    /// `window.scrollBy()` path): one jump, no wheel events.
    pub fn scroll_by_script(&mut self, delta_px: f64) {
        let before = self.browser.viewport.scroll_y();
        self.browser.input(hlisa_browser::RawInput::ScrollFrom {
            origin: ScrollOrigin::Script,
            amount: (before + delta_px).max(0.0),
        });
        let applied = self.browser.viewport.scroll_y() - before;
        if let Some(a) = self.auditor.as_mut() {
            self.findings.extend(a.note_script_scroll(applied));
        }
    }

    /// Ensures the element can be interacted with, scrolling if needed.
    pub fn ensure_interactable(&mut self, el: ElementHandle) -> Result<(), WebDriverError> {
        if !self.is_displayed(el) {
            return Err(WebDriverError::ElementNotInteractable(format!(
                "element {:?} is hidden",
                el.node
            )));
        }
        let rect = self.element_rect(el);
        if !self.browser.viewport.is_y_visible(rect.center().y) {
            self.scroll_into_view_script(el);
        }
        Ok(())
    }

    /// JS-level `element.click()` — the fallback Selenium uses for
    /// obscured elements. Dispatches a click with no pointer activity and
    /// works on hidden elements; both properties are exactly what
    /// honey-element detectors watch for.
    pub fn script_click(&mut self, el: ElementHandle) {
        self.browser.synthetic_click(el.node);
        if let Some(a) = self.auditor.as_mut() {
            self.findings.extend(a.note_script_click());
        }
    }

    /// `execute script` for the reflective probes the study runs in pages:
    /// reads a dotted path from the page's JS world (e.g.
    /// `"navigator.webdriver"`).
    pub fn execute_script_get(&mut self, path: &str) -> Result<Value, WebDriverError> {
        let mut parts = path.split('.');
        let first = parts
            .next()
            .ok_or_else(|| WebDriverError::InvalidArgument("empty path".into()))?;
        let world = self.browser.world_mut();
        let window = world.window;
        let mut current = if first == "window" {
            Value::Object(window)
        } else {
            world
                .realm
                .get(window, first)
                .map_err(|e| WebDriverError::InvalidArgument(e.to_string()))?
        };
        for part in parts {
            let id = current
                .as_object()
                .ok_or_else(|| WebDriverError::InvalidArgument(format!("{part} on non-object")))?;
            current = world
                .realm
                .get(id, part)
                .map_err(|e| WebDriverError::InvalidArgument(e.to_string()))?;
        }
        Ok(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_browser::dom::standard_test_page;
    use hlisa_browser::BrowserConfig;

    fn session() -> Session {
        Session::new(Browser::open(
            BrowserConfig::webdriver(),
            standard_test_page("https://example.test/", 30_000.0),
        ))
    }

    #[test]
    fn find_element_by_id_and_tag() {
        let s = session();
        assert!(s.find_element(By::Id("submit".into())).is_ok());
        assert!(s.find_element(By::Tag("button".into())).is_ok());
        assert!(matches!(
            s.find_element(By::Id("ghost".into())),
            Err(WebDriverError::NoSuchElement(_))
        ));
    }

    #[test]
    fn the_empty_id_names_no_element() {
        // `getElementById("")` is null in a browser, although most
        // elements of the page carry no id.
        assert!(matches!(
            session().find_element(By::Id("".into())),
            Err(WebDriverError::NoSuchElement(_))
        ));
    }

    #[test]
    fn element_introspection_reads_the_document() {
        let s = session();
        let honey = s.find_element(By::Id("honey".into())).unwrap();
        assert!(!s.is_displayed(honey));
        assert!(s.element_rect(honey).width > 0.0);
        let submit = s.find_element(By::Id("submit".into())).unwrap();
        assert!(s.is_displayed(submit));
        assert_eq!(s.element_center(submit), s.element_rect(submit).center());
    }

    #[test]
    fn typed_keys_show_in_the_element_text() {
        let mut s = session();
        let el = s.find_element(By::Id("text_area".into())).unwrap();
        s.ensure_interactable(el).unwrap();
        let c = s.element_center(el);
        let mut actions = vec![
            Action::PointerMove {
                x: c.x,
                y: c.y,
                duration_ms: 0.0,
            },
            Action::PointerDown(hlisa_browser::events::MouseButton::Left),
            Action::PointerUp(hlisa_browser::events::MouseButton::Left),
        ];
        for ch in ["W", "i", "r", "e"] {
            actions.push(Action::KeyDown(ch.into()));
            actions.push(Action::KeyUp(ch.into()));
        }
        s.perform_actions(&actions);
        assert_eq!(s.element_text(el), "Wire");
    }

    #[test]
    fn ensure_interactable_scrolls_offscreen_elements() {
        let mut s = session();
        let el = s.find_element(By::Id("section-end".into())).unwrap();
        assert!(!s.browser.viewport.is_y_visible(s.element_rect(el).y));
        s.ensure_interactable(el).unwrap();
        assert!(s.browser.viewport.is_y_visible(s.element_rect(el).y));
        // Script scroll leaves no wheel events.
        assert_eq!(s.browser.recorder.wheel_count(), 0);
    }

    #[test]
    fn ensure_interactable_rejects_hidden() {
        let mut s = session();
        let honey = s.find_element(By::Id("honey".into())).unwrap();
        assert!(matches!(
            s.ensure_interactable(honey),
            Err(WebDriverError::ElementNotInteractable(_))
        ));
    }

    #[test]
    fn execute_script_reads_navigator() {
        let mut s = session();
        let v = s.execute_script_get("navigator.webdriver").unwrap();
        assert_eq!(v, Value::Bool(true));
        let v2 = s.execute_script_get("window.navigator.userAgent").unwrap();
        assert!(v2.as_str().unwrap().contains("Firefox"));
    }

    #[test]
    fn script_path_stops_at_a_non_object() {
        let mut s = session();
        assert_eq!(
            s.execute_script_get("window.navigator.webdriver").unwrap(),
            Value::Bool(true)
        );
        // A boolean has no properties to step into.
        assert!(matches!(
            s.execute_script_get("navigator.webdriver.enabled"),
            Err(WebDriverError::InvalidArgument(_))
        ));
    }

    #[test]
    fn script_click_dispatches_without_pointer() {
        let mut s = session();
        let honey = s.find_element(By::Id("honey".into())).unwrap();
        s.browser.advance(10.0);
        s.script_click(honey);
        use hlisa_browser::EventKind;
        assert_eq!(s.browser.recorder.of_kind(EventKind::Click).len(), 1);
        assert!(s.browser.recorder.of_kind(EventKind::MouseDown).is_empty());
    }

    #[test]
    fn pointer_profile_override() {
        let mut s = session();
        assert_eq!(s.pointer_profile().min_duration_ms, 250.0);
        s.override_pointer_move_min_duration(50.0);
        assert_eq!(s.pointer_profile().min_duration_ms, 50.0);
    }

    #[test]
    fn hlisa_profile_comes_from_the_shared_constant() {
        let mut s = session();
        s.apply_hlisa_profile();
        assert_eq!(
            s.pointer_profile().min_duration_ms,
            crate::actions::HLISA_MIN_MOVE_MS
        );
        assert_eq!(
            PointerMoveProfile::hlisa_patched().min_duration_ms,
            crate::actions::HLISA_MIN_MOVE_MS
        );
    }

    #[test]
    #[should_panic(expected = "bad duration")]
    fn pointer_profile_rejects_nan() {
        session().override_pointer_move_min_duration(f64::NAN);
    }

    /// A minimal auditor for hook-wiring tests (the real rules live in
    /// `hlisa-lint`).
    #[derive(Debug, Default)]
    struct CountingAuditor;

    impl ActionAuditor for CountingAuditor {
        fn audit_actions(&mut self, actions: &[Action]) -> Vec<AuditFinding> {
            actions
                .iter()
                .filter(
                    |a| matches!(a, Action::PointerMove { duration_ms, .. } if *duration_ms <= 0.0),
                )
                .map(|_| AuditFinding {
                    rule: "test-zero-move",
                    detail: "zero-duration move requested".into(),
                })
                .collect()
        }

        fn note_script_scroll(&mut self, delta_px: f64) -> Vec<AuditFinding> {
            vec![AuditFinding {
                rule: "test-script-scroll",
                detail: format!("{delta_px:.0} px"),
            }]
        }

        fn note_script_click(&mut self) -> Vec<AuditFinding> {
            vec![AuditFinding {
                rule: "test-script-click",
                detail: "synthetic click".into(),
            }]
        }

        fn finish(&mut self) -> Vec<AuditFinding> {
            Vec::new()
        }
    }

    #[test]
    fn auditor_sees_batches_before_the_duration_floor() {
        let mut s = session();
        s.install_auditor(Box::new(CountingAuditor));
        // The profile floors this to 250 ms at execution time, but the
        // auditor must see the requested zero duration.
        s.perform_actions(&[Action::PointerMove {
            x: 50.0,
            y: 50.0,
            duration_ms: 0.0,
        }]);
        assert_eq!(s.audit_findings().len(), 1);
        assert_eq!(s.audit_findings()[0].rule, "test-zero-move");
        assert!(matches!(
            s.assert_undetectable(),
            Err(WebDriverError::DetectableInteraction(_))
        ));
        // The drain leaves a clean slate.
        assert!(s.assert_undetectable().is_ok());
    }

    #[test]
    fn script_scroll_and_click_reach_the_auditor() {
        let mut s = session();
        s.install_auditor(Box::new(CountingAuditor));
        s.scroll_by_script(1_000.0);
        assert!((s.browser.viewport.scroll_y() - 1_000.0).abs() < 1.0);
        assert_eq!(s.browser.recorder.wheel_count(), 0);
        let el = s.find_element(By::Id("section-end".into())).unwrap();
        s.scroll_into_view_script(el);
        let honey = s.find_element(By::Id("honey".into())).unwrap();
        s.script_click(honey);
        let rules: Vec<&str> = s.finish_audit().iter().map(|f| f.rule).collect();
        assert_eq!(
            rules,
            [
                "test-script-scroll",
                "test-script-scroll",
                "test-script-click"
            ]
        );
    }

    #[test]
    fn sessions_without_an_auditor_never_flag() {
        let mut s = session();
        s.scroll_by_script(2_000.0);
        s.perform_actions(&[Action::Pause(5.0)]);
        assert!(s.audit_findings().is_empty());
        assert!(s.assert_undetectable().is_ok());
    }
}
