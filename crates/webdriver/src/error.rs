//! WebDriver error codes (the subset the experiments can hit).

use crate::session::By;
use std::fmt;

/// A WebDriver-level error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WebDriverError {
    /// `no such element` — the locator matched nothing. It carries the
    /// locator itself, which borrows a `'static` name, so a failed
    /// lookup by a fixed id allocates nothing.
    NoSuchElement(By),
    /// `element not interactable` — e.g. hidden element.
    ElementNotInteractable(String),
    /// `invalid argument`.
    InvalidArgument(String),
    /// `move target out of bounds` — pointer moved outside the page.
    MoveTargetOutOfBounds(String),
    /// Strict-mode refusal: the session's auditor flagged the interaction
    /// program as detectable (non-standard; raised only when an
    /// [`crate::audit::ActionAuditor`] is installed).
    DetectableInteraction(String),
}

impl fmt::Display for WebDriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WebDriverError::NoSuchElement(by) => write!(f, "no such element: {by:?}"),
            WebDriverError::ElementNotInteractable(m) => {
                write!(f, "element not interactable: {m}")
            }
            WebDriverError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            WebDriverError::MoveTargetOutOfBounds(m) => {
                write!(f, "move target out of bounds: {m}")
            }
            WebDriverError::DetectableInteraction(m) => {
                write!(f, "detectable interaction: {m}")
            }
        }
    }
}

impl std::error::Error for WebDriverError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_webdriver_spec_wording() {
        assert_eq!(
            WebDriverError::NoSuchElement(By::Id("x".into())).to_string(),
            "no such element: Id(\"x\")"
        );
        assert!(WebDriverError::ElementNotInteractable("#x".into())
            .to_string()
            .contains("not interactable"));
    }
}
