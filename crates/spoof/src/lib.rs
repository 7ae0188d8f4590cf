//! JavaScript-level fingerprint spoofing (§3 of the paper).
//!
//! Four methods of making `navigator.webdriver` read `false` inside an
//! automated Firefox, exactly as enumerated in §3.1:
//!
//! 1. [`methods::define_property`] — `Object.defineProperty`.
//! 2. [`methods::define_getter`] — legacy `__defineGetter__`.
//! 3. [`methods::set_prototype_of`] — interposing a prototype.
//! 4. [`methods::proxy_wrap`] — wrapping `navigator` in a `Proxy`.
//!
//! [`extension`] packages method 4 into an OpenWPM-style page-load hook —
//! the spoofing extension whose field evaluation produces Table 2 and
//! Figure 4. `browser_patch` (compiled for its tests only) models the
//! alternative §3 weighs against JS-level spoofing: patching the browser
//! source, which is side-effect free but carries per-release,
//! per-platform maintenance overhead.

mod browser_patch;
pub mod extension;
pub mod methods;

pub use extension::SpoofingExtension;
pub use methods::SpoofMethod;
