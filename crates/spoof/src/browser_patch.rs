//! Browser-level patching — the alternative §3 contrasts with JS spoofing.
//!
//! "In contrast, browser level patches of properties avoid the
//! introduction of such side effects. However, adjusting the browser
//! source code adds considerable overhead" (§3). A browser-level patch
//! changes what the engine itself reports, so the resulting object graph
//! is *bit-for-bit* the regular browser's: no own properties, no order
//! changes, native accessors, named functions.
//!
//! The module models both the capability and its costs:
//! [`BrowserPatch::apply`] rewrites the native getter behind a property
//! (the engine-source change), and [`MaintenanceModel`] quantifies the
//! overhead trade-off the paper describes (per-release maintenance,
//! per-platform builds) against the JS extension's deploy-anywhere model.
//! No experiment patches a browser, so the module is compiled for its own
//! tests only.
#![cfg(test)]

use hlisa_jsom::object::{NativeBehavior, PropertyKind};
use hlisa_jsom::{JsError, Value, World};

/// A browser-source-level property patch.
#[derive(Debug, Clone, PartialEq)]
pub struct BrowserPatch {
    /// Property → value the engine should report.
    pub overrides: Vec<(String, Value)>,
}

impl BrowserPatch {
    /// The paper's running example: make the engine report
    /// `navigator.webdriver === false`.
    pub fn hide_webdriver() -> Self {
        Self {
            overrides: vec![("webdriver".to_string(), Value::Bool(false))],
        }
    }

    /// Applies the patch: replaces the *native getter's* return value on
    /// the prototype, exactly as a rebuilt Gecko would. No new objects,
    /// no descriptor changes, no renames — the operation a content script
    /// cannot perform.
    pub fn apply(&self, world: &mut World) -> Result<(), JsError> {
        for (property, value) in &self.overrides {
            let proto = world.navigator_prototype;
            let desc = world
                .realm
                .get_own_descriptor(proto, property)
                .ok_or_else(|| {
                    JsError::TypeError(format!("no native property {property} to patch"))
                })?;
            let PropertyKind::Accessor {
                getter: Some(getter),
                ..
            } = desc.kind
            else {
                return Err(JsError::TypeError(format!(
                    "{property} is not a native accessor"
                )));
            };
            let info = world
                .realm
                .obj_mut(getter)
                .function
                .as_mut()
                .ok_or_else(|| JsError::Internal("getter is not callable".into()))?;
            // The engine change: same function object, same name, same
            // [native code] body — different compiled behaviour.
            info.behavior = NativeBehavior::Return(value.clone());
        }
        Ok(())
    }
}

/// The overhead model of §3's trade-off discussion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceModel {
    /// Engineer-hours to re-validate a patch per browser release.
    pub hours_per_release: f64,
    /// Browser releases per year (Firefox ships every 4 weeks).
    pub releases_per_year: f64,
    /// Platforms that each need their own build.
    pub platforms: u32,
    /// One-off hours to stand up the browser build infrastructure.
    pub build_setup_hours: f64,
}

impl MaintenanceModel {
    /// A defensible default for a research group maintaining a patched
    /// Firefox.
    pub fn browser_level_default() -> Self {
        Self {
            hours_per_release: 6.0,
            releases_per_year: 13.0,
            platforms: 3,
            build_setup_hours: 40.0,
        }
    }

    /// The JS-extension alternative: no builds, no per-release source
    /// rebase; occasional API breakage to chase.
    pub fn js_extension_default() -> Self {
        Self {
            hours_per_release: 0.5,
            releases_per_year: 13.0,
            platforms: 1,
            build_setup_hours: 2.0,
        }
    }

    /// Total engineer-hours over the first `years` years.
    pub fn total_hours(&self, years: f64) -> f64 {
        self.build_setup_hours
            + self.hours_per_release * self.releases_per_year * f64::from(self.platforms) * years
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_jsom::{build_firefox_world, BrowserFlavor, Template};

    #[test]
    fn patch_hides_webdriver() {
        let mut w = build_firefox_world(BrowserFlavor::WebDriverFirefox);
        BrowserPatch::hide_webdriver().apply(&mut w).unwrap();
        let nav = w.resolve_navigator();
        assert_eq!(w.realm.get(nav, "webdriver").unwrap(), Value::Bool(false));
    }

    #[test]
    fn patch_is_side_effect_free() {
        // The whole point of browser-level patching: the patched bot world
        // is template-identical to a regular Firefox.
        let mut patched = build_firefox_world(BrowserFlavor::WebDriverFirefox);
        BrowserPatch::hide_webdriver().apply(&mut patched).unwrap();
        let mut regular = build_firefox_world(BrowserFlavor::RegularFirefox);
        let tp = Template::capture(&mut patched.realm, patched.window, "window", 3);
        let tr = Template::capture(&mut regular.realm, regular.window, "window", 3);
        assert!(tr.diff(&tp).is_empty(), "diffs: {:?}", tr.diff(&tp));
    }

    #[test]
    fn patch_preserves_function_names() {
        let mut w = build_firefox_world(BrowserFlavor::WebDriverFirefox);
        BrowserPatch::hide_webdriver().apply(&mut w).unwrap();
        let nav = w.resolve_navigator();
        let f = w
            .realm
            .get(nav, "javaEnabled")
            .unwrap()
            .as_object()
            .unwrap();
        assert!(w
            .realm
            .function_to_string(f)
            .unwrap()
            .contains("javaEnabled"));
    }

    #[test]
    fn patch_rejects_unknown_properties() {
        let mut w = build_firefox_world(BrowserFlavor::WebDriverFirefox);
        let patch = BrowserPatch {
            overrides: vec![("noSuchThing".to_string(), Value::Null)],
        };
        assert!(patch.apply(&mut w).is_err());
    }

    #[test]
    fn maintenance_model_shows_the_overhead_gap() {
        let browser = MaintenanceModel::browser_level_default();
        let js = MaintenanceModel::js_extension_default();
        // §3: browser-level patching "adds considerable overhead".
        assert!(browser.total_hours(2.0) > js.total_hours(2.0) * 5.0);
    }
}
