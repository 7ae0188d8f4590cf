//! Site model: what a website is made of and how it may react to bots.

use crate::dynamics::ScenarioKind;
use serde::{Deserialize, Serialize};

/// How a site detects web bots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DetectionMethod {
    /// Reads `navigator.webdriver` (the dominant commercial check — Vastel
    /// et al. found detectors "highly depend on the webdriver attribute").
    WebdriverFlag,
    /// Runs a JS template attack / side-effect scan, catching spoofing
    /// attempts too (rare; the paper saw one site keep blocking the
    /// extension for a subset of visits).
    TemplateAttack,
}

/// What a site does when it decides the visitor is a bot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Reaction {
    /// Serve a block page (visible).
    BlockPage,
    /// Serve a CAPTCHA interstitial (visible).
    Captcha,
    /// Suppress all ad slots (visible as missing ads).
    HideAllAds,
    /// Suppress some ad slots (visible as fewer ads).
    ReduceAds,
    /// Keep the page but answer first-party subresources with 403.
    Http403,
    /// Keep the page but answer first-party subresources with 503.
    Http503,
    /// Stop serving video segments, freezing the page's player (the
    /// "frozen video element(s)" row of Table 2).
    FreezeVideo,
}

impl Reaction {
    /// Whether a screenshot review would attribute this reaction to bot
    /// detection (§3.2 chooses visual responses because they "allow
    /// definitive attribution").
    pub fn visible(&self) -> bool {
        matches!(
            self,
            Reaction::BlockPage
                | Reaction::Captcha
                | Reaction::HideAllAds
                | Reaction::ReduceAds
                | Reaction::FreezeVideo
        )
    }
}

/// A deployed bot detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteDetector {
    /// How it detects.
    pub method: DetectionMethod,
    /// What it does on detection.
    pub reaction: Reaction,
}

/// A site in the synthetic Tranco sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Site {
    /// Tranco-style rank within the top 10K.
    pub rank: u32,
    /// Domain name.
    pub domain: String,
    /// Deployed bot detector, if any.
    pub detector: Option<SiteDetector>,
    /// Number of ad slots the page normally renders.
    pub ad_slots: u8,
    /// Whether the page embeds a video player.
    pub has_video: bool,
    /// Whether JS-level property spoofing breaks the page (the two
    /// compatibility casualties of §3.2: one deformed layout, one
    /// ever-loading video element).
    pub breaks_under_spoofing: bool,
    /// Host is down / unresolvable for the whole campaign.
    pub unreachable: bool,
    /// Per-visit probability of a transient failure (timeouts, 5xx flukes
    /// — the "web dynamics" the paper averages out with 8 instances).
    pub flaky_visit_prob: f64,
    /// Typical number of first-party subresource requests per visit.
    pub first_party_requests: u8,
    /// Typical number of third-party requests per visit.
    pub third_party_requests: u8,
    /// Dynamic-page behaviour this site exhibits (cookie wall, lazy
    /// content, SPA re-render), if any. `None` for the classic static
    /// population — the default [`crate::population::PopulationConfig`]
    /// assigns no scenarios, keeping campaign output bit-identical to
    /// the pre-scenario model.
    pub scenario: Option<ScenarioKind>,
}

impl Site {
    /// True when the site deploys any visible-reaction bot detector.
    #[cfg(test)]
    pub fn visibly_defends(&self) -> bool {
        self.detector.map(|d| d.reaction.visible()).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaction_visibility_partition() {
        assert!(Reaction::BlockPage.visible());
        assert!(Reaction::Captcha.visible());
        assert!(Reaction::HideAllAds.visible());
        assert!(Reaction::ReduceAds.visible());
        assert!(!Reaction::Http403.visible());
        assert!(!Reaction::Http503.visible());
    }

    #[test]
    fn visibly_defends_requires_visible_reaction() {
        let mut s = Site {
            rank: 1,
            domain: "a.test".into(),
            detector: None,
            ad_slots: 2,
            has_video: false,
            breaks_under_spoofing: false,
            unreachable: false,
            flaky_visit_prob: 0.0,
            first_party_requests: 10,
            third_party_requests: 20,
            scenario: None,
        };
        assert!(!s.visibly_defends());
        s.detector = Some(SiteDetector {
            method: DetectionMethod::WebdriverFlag,
            reaction: Reaction::Http403,
        });
        assert!(!s.visibly_defends());
        s.detector = Some(SiteDetector {
            method: DetectionMethod::WebdriverFlag,
            reaction: Reaction::BlockPage,
        });
        assert!(s.visibly_defends());
    }
}
