//! The five side-effect probes of Table 1.
//!
//! Each probe is a check a page script could run against `window.navigator`
//! to discover that *something* tampered with the object — without needing
//! to know which property was spoofed. The expected pattern (Table 1):
//!
//! | Side effect                                | m1 | m2 | m3 | m4 |
//! |--------------------------------------------|----|----|----|----|
//! | Incorrect order of navigator properties    | ×  | ×  |    |    |
//! | Modified navigator._length                 | ×  | ×  |    |    |
//! | New Object.keys(navigator)                 | ×  | ×  |    |    |
//! | Defined navigator.__proto__.webdriver      |    |    | ×  |    |
//! | Unnamed window.navigator functions         |    |    |    | ×  |

use hlisa_jsom::{build_firefox_world, BrowserFlavor, World};

/// A detectable spoofing side effect (rows of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SideEffect {
    /// for-in order over `navigator` differs from stock Firefox.
    IncorrectNavigatorOrder,
    /// `navigator` gained own properties (the `_length` observable: a
    /// pristine navigator instance has zero own properties; shadowing a
    /// prototype accessor grows the count while the original remains on
    /// the prototype chain).
    ModifiedNavigatorLength,
    /// `Object.keys(navigator)` is no longer empty.
    NewObjectKeys,
    /// The `webdriver` property resolves as an *own data property* on a
    /// prototype-chain hop instead of Firefox's native accessor on
    /// `Navigator.prototype` (including an interposed extra hop).
    DefinedProtoWebdriver,
    /// Methods obtained through `navigator` stringify without a function
    /// name (Listing 1's proxy giveaway).
    UnnamedNavigatorFunctions,
}

impl SideEffect {
    /// All probes, in Table 1 row order.
    pub const ALL: [SideEffect; 5] = [
        SideEffect::IncorrectNavigatorOrder,
        SideEffect::ModifiedNavigatorLength,
        SideEffect::NewObjectKeys,
        SideEffect::DefinedProtoWebdriver,
        SideEffect::UnnamedNavigatorFunctions,
    ];

    /// Row label as printed in Table 1.
    pub fn label(&self) -> &'static str {
        match self {
            SideEffect::IncorrectNavigatorOrder => "Incorrect order of navigator properties",
            SideEffect::ModifiedNavigatorLength => "Modified navigator._length",
            SideEffect::NewObjectKeys => "New Object.keys(navigator)",
            SideEffect::DefinedProtoWebdriver => "Defined navigator.__proto__.webdriver",
            SideEffect::UnnamedNavigatorFunctions => "Unnamed window.navigator functions",
        }
    }
}

/// Baseline facts about a pristine Firefox navigator, computed fresh so
/// the probe does not depend on the candidate world.
struct PristineBaseline {
    for_in_order: Vec<String>,
    proto_chain_len: usize,
}

fn pristine_baseline() -> PristineBaseline {
    let w = build_firefox_world(BrowserFlavor::RegularFirefox);
    PristineBaseline {
        for_in_order: w.realm.for_in_keys(w.navigator),
        proto_chain_len: w.realm.proto_chain(w.navigator).len(),
    }
}

/// Runs all five probes against a world, returning the side effects found.
pub fn probe_side_effects(world: &mut World) -> Vec<SideEffect> {
    let baseline = pristine_baseline();
    let nav = world.resolve_navigator();
    let mut found = Vec::new();

    // 1. Enumeration order.
    if world.realm.for_in_keys(nav) != baseline.for_in_order {
        found.push(SideEffect::IncorrectNavigatorOrder);
    }

    // 2. Own-property census ("navigator._length").
    if world.realm.own_len(nav) != 0 {
        found.push(SideEffect::ModifiedNavigatorLength);
    }

    // 3. Object.keys.
    if !world.realm.object_keys(nav).is_empty() {
        found.push(SideEffect::NewObjectKeys);
    }

    // 4. webdriver on the proto chain as an own data property / extra hop.
    let chain = world.realm.proto_chain(nav);
    let mut proto_data_webdriver = chain.len() != baseline.proto_chain_len;
    for hop in &chain {
        if let Some(desc) = world.realm.get_own_descriptor(*hop, "webdriver") {
            if !desc.is_accessor() {
                proto_data_webdriver = true;
            }
        }
    }
    if proto_data_webdriver {
        found.push(SideEffect::DefinedProtoWebdriver);
    }

    // 5. Function-name check on a method reached through navigator.
    if let Ok(v) = world.realm.get(nav, "javaEnabled") {
        if let Some(fid) = v.as_object() {
            if let Ok(src) = world.realm.function_to_string(fid) {
                if src.starts_with("function ()") {
                    found.push(SideEffect::UnnamedNavigatorFunctions);
                }
            }
        }
    }

    found
}

/// A refinement probe beyond Table 1: Proxy `get` traps that re-bind
/// methods hand out a *fresh* function object on every access, so
/// `navigator.javaEnabled !== navigator.javaEnabled` — an identity
/// instability no native object exhibits. (This is the "refine their
/// current techniques" move of §4.2's arms race, applied to the
/// fingerprint side.) No detector runs it, so it is compiled for tests only.
#[cfg(test)]
pub fn probe_unstable_method_identity(world: &mut World) -> bool {
    let nav = world.resolve_navigator();
    let a = world
        .realm
        .get(nav, "javaEnabled")
        .ok()
        .and_then(|v| v.as_object());
    let b = world
        .realm
        .get(nav, "javaEnabled")
        .ok()
        .and_then(|v| v.as_object());
    match (a, b) {
        (Some(a), Some(b)) => a != b,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_worlds_have_no_side_effects() {
        for flavor in [
            BrowserFlavor::RegularFirefox,
            BrowserFlavor::WebDriverFirefox,
        ] {
            let mut w = build_firefox_world(flavor);
            assert!(
                probe_side_effects(&mut w).is_empty(),
                "false positives on pristine {flavor:?}"
            );
        }
    }

    #[test]
    fn method_identity_is_stable_except_under_proxies() {
        use hlisa_jsom::object::ProxyHandler;
        let mut w = build_firefox_world(BrowserFlavor::WebDriverFirefox);
        assert!(!probe_unstable_method_identity(&mut w));
        let nav = w.resolve_navigator();
        let proxy = w.realm.wrap_in_proxy(nav, ProxyHandler::default());
        w.rebind_navigator(proxy);
        assert!(probe_unstable_method_identity(&mut w));
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            SideEffect::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 5);
    }
}
