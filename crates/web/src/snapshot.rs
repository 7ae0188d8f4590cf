//! Pristine-world snapshots: build each browser flavour's JS world once,
//! stamp per-visit copies by cheap clone.
//!
//! A campaign at the paper's scale (1,000 sites × 8 visits × 2 machines)
//! re-ran `build_firefox_world` ~16,000 times, reconstructing every
//! prototype chain and descriptor from scratch. World construction is
//! fully deterministic and consumes **no RNG**, so a clone of a built
//! world is observably identical to a fresh build (proved by the
//! differential proptest in `hlisa-jsom`), and the realm's atom/shape
//! tables are `Arc`-shared copy-on-write — a stamp is little more than a
//! vector clone. This module caches one pristine [`World`] per flavour
//! (plus the spoofed-extension variant) behind [`OnceLock`]s. The
//! detector runtime stamps from it only to fill a memoised verdict (see
//! `visit::DetectorRuntime`), at most once per client and check.

use hlisa_jsom::{build_firefox_world, BrowserFlavor, World};
use hlisa_spoof::SpoofingExtension;
use std::sync::OnceLock;

/// One immutable pristine world, stamped out per visit.
#[derive(Debug, Clone)]
pub struct WorldSnapshot {
    pristine: World,
}

impl WorldSnapshot {
    /// Builds the snapshot for a flavour.
    pub fn build(flavor: BrowserFlavor) -> Self {
        Self {
            pristine: build_firefox_world(flavor),
        }
    }

    /// Builds the snapshot for a flavour, then applies a one-time setup
    /// step (e.g. injecting the spoofing extension) before freezing it.
    pub fn build_with(flavor: BrowserFlavor, setup: impl FnOnce(&mut World)) -> Self {
        let mut pristine = build_firefox_world(flavor);
        setup(&mut pristine);
        Self { pristine }
    }

    /// Borrows the pristine world (read-only uses need no stamp).
    pub fn world(&self) -> &World {
        &self.pristine
    }

    /// Stamps a fresh, independently mutable copy of the pristine world.
    pub fn stamp(&self) -> World {
        self.pristine.clone()
    }
}

/// Lazily-built snapshots for every flavour a crawl can need. Each slot is
/// built at most once per cache (i.e. at most once per `DetectorRuntime`,
/// which every worker of a campaign shares) on first use.
#[derive(Debug, Clone, Default)]
pub struct WorldSnapshotCache {
    regular: OnceLock<WorldSnapshot>,
    webdriver: OnceLock<WorldSnapshot>,
    headless: OnceLock<WorldSnapshot>,
    /// WebDriver Firefox with the OpenWPM spoofing extension already
    /// injected — injection is deterministic, so stamping the injected
    /// world is identical to injecting into a fresh stamp.
    spoofed_webdriver: OnceLock<WorldSnapshot>,
}

impl WorldSnapshotCache {
    /// An empty cache; worlds are built on first request.
    pub fn new() -> Self {
        Self::default()
    }

    /// The snapshot for a plain (un-spoofed) flavour.
    pub fn snapshot(&self, flavor: BrowserFlavor) -> &WorldSnapshot {
        let slot = match flavor {
            BrowserFlavor::RegularFirefox => &self.regular,
            BrowserFlavor::WebDriverFirefox => &self.webdriver,
            BrowserFlavor::HeadlessFirefox => &self.headless,
        };
        slot.get_or_init(|| WorldSnapshot::build(flavor))
    }

    /// The snapshot for WebDriver Firefox with the paper's spoofing
    /// extension injected.
    pub fn spoofed_webdriver(&self) -> &WorldSnapshot {
        self.spoofed_webdriver.get_or_init(|| {
            WorldSnapshot::build_with(BrowserFlavor::WebDriverFirefox, |world| {
                // A failed injection degrades to the un-injected world:
                // spoofing is simply absent, so detection fires and the
                // gap is visible in campaign results instead of panicking
                // every crawl worker sharing this cache.
                let _ = SpoofingExtension::paper_default().inject(world);
            })
        })
    }

    /// Stamps a per-visit world for a plain flavour.
    pub fn stamp(&self, flavor: BrowserFlavor) -> World {
        self.snapshot(flavor).stamp()
    }

    /// Stamps a per-visit world with the spoofing extension in place.
    pub fn stamp_spoofed_webdriver(&self) -> World {
        self.spoofed_webdriver().stamp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_jsom::Template;

    #[test]
    fn stamp_is_template_identical_to_fresh_build() {
        let cache = WorldSnapshotCache::new();
        for flavor in [
            BrowserFlavor::RegularFirefox,
            BrowserFlavor::WebDriverFirefox,
            BrowserFlavor::HeadlessFirefox,
        ] {
            let mut stamped = cache.stamp(flavor);
            let mut fresh = build_firefox_world(flavor);
            let ta = Template::capture(&mut stamped.realm, stamped.window, "window", 3);
            let tb = Template::capture(&mut fresh.realm, fresh.window, "window", 3);
            assert!(ta.diff(&tb).is_empty(), "{flavor:?} stamp diverged");
        }
    }

    #[test]
    fn spoofed_stamp_matches_inject_after_build() {
        let cache = WorldSnapshotCache::new();
        let mut stamped = cache.stamp_spoofed_webdriver();
        let mut fresh = build_firefox_world(BrowserFlavor::WebDriverFirefox);
        SpoofingExtension::paper_default()
            .inject(&mut fresh)
            .expect("extension injects");
        let ta = Template::capture(&mut stamped.realm, stamped.window, "window", 3);
        let tb = Template::capture(&mut fresh.realm, fresh.window, "window", 3);
        assert!(ta.diff(&tb).is_empty());
    }

    #[test]
    fn stamps_are_independent() {
        let cache = WorldSnapshotCache::new();
        let mut a = cache.stamp(BrowserFlavor::WebDriverFirefox);
        let b = cache.stamp(BrowserFlavor::WebDriverFirefox);
        // Mutating one stamp must not leak into another.
        let nav = a.navigator;
        a.realm.set_own(
            nav,
            "tampered",
            hlisa_jsom::PropertyDescriptor::plain(hlisa_jsom::Value::Bool(true)),
        );
        assert!(a.realm.has_own(a.navigator, "tampered"));
        assert!(!b.realm.has_own(b.navigator, "tampered"));
        assert!(!cache
            .snapshot(BrowserFlavor::WebDriverFirefox)
            .world()
            .realm
            .has_own(b.navigator, "tampered"));
    }
}
