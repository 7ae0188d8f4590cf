//! Simulator rungs of the Fig. 3 ladder, and the one driver that runs a
//! scripted rung's three Appendix E tasks for both of the ladder's judges:
//! [`Simulator::run_session`] reads each finished task's trace for the
//! detectors, [`crate::lint_simulator`] reads its chain-lint findings.

use hlisa::{HlisaActionChains, NaiveActionChains};
use hlisa_browser::dom::standard_test_page;
use hlisa_browser::{Browser, BrowserConfig, Rect};
use hlisa_detect::interaction::TraceFeatures;
use hlisa_detect::reference::{
    click_target_position, click_task_page, run_human_session_with, TYPING_TASK_TEXT,
};
use hlisa_human::HumanParams;
use hlisa_stats::rngutil::derive_seed;
use hlisa_webdriver::{By, SeleniumActionChains, Session, WebDriverError};

/// A rung of the simulator ladder (Fig. 3, left column), plus human
/// references for calibration rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Simulator {
    /// Stock Selenium — "no limits on behaviour".
    Selenium,
    /// The §4.1 naive improvements — "limit behaviour to humanly possible".
    Naive,
    /// HLISA — "use distribution of human behaviour".
    Hlisa,
    /// HLISA with tempo-drift consistency — "use consistent behaviour".
    ConsistentHlisa,
    /// HLISA fitted to a specific enrolled individual's parameters —
    /// "use specific user profile".
    ProfileFitted(HumanParams),
    /// A real human visitor (an arbitrary individual from the population).
    Human,
    /// The specific human whose profile the level-4 detector enrolled.
    EnrolledHuman(HumanParams),
}

impl Simulator {
    /// The Fig. 3 ladder in row order: the five scripted rungs bottom up,
    /// then the two human reference rows. `enrolled` is the individual the
    /// level-4 detector protects; the fitted rung impersonates them and
    /// the last row is them.
    pub fn ladder(enrolled: HumanParams) -> Vec<Simulator> {
        vec![
            Simulator::Selenium,
            Simulator::Naive,
            Simulator::Hlisa,
            Simulator::ConsistentHlisa,
            Simulator::ProfileFitted(enrolled.clone()),
            Simulator::Human,
            Simulator::EnrolledHuman(enrolled),
        ]
    }

    /// Fig. 3 label (or a descriptive one for the reference rows).
    pub fn label(&self) -> &'static str {
        match self {
            Simulator::Selenium => "No limits on behaviour (Selenium)",
            Simulator::Naive => "Limit behaviour to humanly possible (naive)",
            Simulator::Hlisa => "Use distribution of human behaviour (HLISA)",
            Simulator::ConsistentHlisa => "Use consistent behaviour (HLISA+drift)",
            Simulator::ProfileFitted(_) => "Use specific user profile (HLISA fitted)",
            Simulator::Human => "Human visitor (random individual)",
            Simulator::EnrolledHuman(_) => "Human visitor (the enrolled user)",
        }
    }

    /// Runs one session of the three tasks, returning extracted features.
    pub fn run_session(&self, seed: u64) -> TraceFeatures {
        let subject = match self {
            Simulator::Human => HumanParams::individual(derive_seed(seed, "visitor", 0)),
            Simulator::EnrolledHuman(params) => params.clone(),
            _ => {
                let mut features = TraceFeatures::default();
                self.run_tasks(seed, Session::new, |s| {
                    features.merge(&TraceFeatures::extract(
                        &s.browser.recorder,
                        s.browser.document(),
                    ));
                });
                return features;
            }
        };
        run_human_session_with(subject, seed)
    }

    /// Whether the rung drives the tasks through an action program (every
    /// rung but the two human rows).
    pub(crate) fn is_scripted(&self) -> bool {
        !matches!(self, Simulator::Human | Simulator::EnrolledHuman(_))
    }

    /// Runs a scripted rung's three Appendix E tasks, each in a session
    /// `open` makes from the task's browser, and hands each finished
    /// session to `done`. Returns `false`, running nothing, for the human
    /// rows: real visitors have no action program to drive.
    pub(crate) fn run_tasks(
        &self,
        seed: u64,
        open: fn(Browser) -> Session,
        mut done: impl FnMut(Session),
    ) -> bool {
        if !self.is_scripted() {
            return false;
        }
        // The task pages define every looked-up id and the simulated
        // webdriver cannot fail a perform, so an error is a broken fixture.
        self.try_run_tasks(seed, open, &mut done)
            .expect("the Appendix E tasks run on their own pages"); // lint: allow(no-panic)
        true
    }

    fn try_run_tasks(
        &self,
        seed: u64,
        open: fn(Browser) -> Session,
        done: &mut impl FnMut(Session),
    ) -> Result<(), WebDriverError> {
        let hlisa = |label: &str, idx: u64| {
            let (params, consistent) = match self {
                Simulator::ProfileFitted(params) => (params.clone(), true),
                rung => (
                    HumanParams::paper_baseline(),
                    *rung == Simulator::ConsistentHlisa,
                ),
            };
            HlisaActionChains::with_params(params, derive_seed(seed, label, idx))
                .with_consistency(consistent)
        };
        let page = |url, height| {
            open(Browser::open(
                BrowserConfig::webdriver(),
                standard_test_page(url, height),
            ))
        };

        // Task 1: click the target, which relocates before each round.
        let mut s = open(Browser::open(BrowserConfig::webdriver(), click_task_page()));
        let target = s.find_element(By::Id("target".into()))?;
        for round in 0..12 {
            let (x, y) = click_target_position(seed, round);
            s.browser.document_mut().element_mut(target.node()).rect = Rect::new(x, y, 120.0, 40.0);
            let idx = round as u64;
            match self {
                Simulator::Selenium => SeleniumActionChains::new()
                    .click(Some(target))
                    .pause(0.3)
                    .perform(&mut s),
                Simulator::Naive => NaiveActionChains::new(derive_seed(seed, "naive-click", idx))
                    .click(Some(target))
                    .pause(0.3)
                    .perform(&mut s),
                _ => hlisa("hlisa-click", idx)
                    .click(Some(target))
                    .pause(0.3)
                    .perform(&mut s),
            }?;
        }
        done(s);

        // Task 2: type the task text into the text area.
        let mut s = page("https://tasks.test/type", 2_000.0);
        let input = s.find_element(By::Id("text_area".into()))?;
        match self {
            Simulator::Selenium => SeleniumActionChains::new()
                .send_keys_to_element(input, TYPING_TASK_TEXT)
                .perform(&mut s),
            Simulator::Naive => NaiveActionChains::new(derive_seed(seed, "naive-type", 0))
                .send_keys_to_element(input, TYPING_TASK_TEXT)
                .perform(&mut s),
            _ => hlisa("hlisa-type", 0)
                .send_keys_to_element(input, TYPING_TASK_TEXT)
                .perform(&mut s),
        }?;
        done(s);

        // Task 3: scroll to the bottom of a long page.
        let mut s = page("https://tasks.test/scroll", 30_000.0);
        let max = s.browser.viewport.max_scroll_y();
        match self {
            // Selenium has no scroll API: arbitrary-distance script jumps,
            // routed through the session so an auditor sees them.
            Simulator::Selenium => {
                for _ in 0..4 {
                    s.scroll_by_script(max / 4.0);
                    s.browser.advance(120.0);
                }
                Ok(())
            }
            Simulator::Naive => NaiveActionChains::new(derive_seed(seed, "naive-scroll", 0))
                .scroll_by(max)
                .perform(&mut s),
            _ => hlisa("hlisa-scroll", 0).scroll_by(0.0, max).perform(&mut s),
        }?;
        done(s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selenium_session_has_the_signature_features() {
        let f = Simulator::Selenium.run_session(1);
        // 12 target clicks + 1 focus click in the typing task.
        assert_eq!(f.click_dwells_ms.len(), 13);
        assert!(f.click_dwells_ms.iter().all(|d| *d <= 1.0));
        assert!(f.typing_cpm > 10_000.0, "cpm {}", f.typing_cpm);
        assert!(f.capitals_without_shift > 0);
        assert_eq!(f.wheel_events, 0);
    }

    #[test]
    fn hlisa_session_is_within_human_limits() {
        let f = Simulator::Hlisa.run_session(2);
        assert_eq!(f.click_dwells_ms.len(), 13);
        assert!(f.click_dwells_ms.iter().all(|d| *d >= 20.0));
        assert!(f.typing_cpm < 1_000.0, "cpm {}", f.typing_cpm);
        assert_eq!(f.capitals_without_shift, 0);
        assert!(f.wheel_events > 400);
    }

    #[test]
    fn naive_session_sits_between() {
        let f = Simulator::Naive.run_session(3);
        assert!(f.click_dwells_ms.iter().all(|d| *d >= 20.0));
        assert_eq!(f.capitals_without_shift, 0);
        assert!(f.wheel_events > 400);
    }

    #[test]
    fn sessions_are_deterministic() {
        assert_eq!(
            Simulator::Hlisa.run_session(7),
            Simulator::Hlisa.run_session(7)
        );
    }
}
