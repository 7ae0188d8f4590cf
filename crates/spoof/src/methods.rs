//! The four spoofing methods of §3.1.
//!
//! Each method takes a [`World`] whose `navigator.webdriver` currently reads
//! `true` (a WebDriver-automated Firefox) and alters the object graph so the
//! property reads `false` — using only operations a content script could
//! perform. The *way* each method alters the graph is what leaves the
//! side effects catalogued in Table 1.

use hlisa_jsom::object::{
    JsObject, NativeBehavior, PropertyDescriptor, PropertyKind, ProxyHandler,
};
use hlisa_jsom::{JsError, Value, World};

/// The spoofing method to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpoofMethod {
    /// Method 1: `Object.defineProperty(navigator, "webdriver", ...)`.
    DefineProperty,
    /// Method 2: `navigator.__defineGetter__("webdriver", () => false)`.
    DefineGetter,
    /// Method 3: `Object.setPrototypeOf(navigator, fakeProto)`.
    SetPrototypeOf,
    /// Method 4: `window.navigator = new Proxy(navigator, handler)`.
    ProxyObjects,
}

impl SpoofMethod {
    /// All four methods, in the paper's numbering order.
    pub const ALL: [SpoofMethod; 4] = [
        SpoofMethod::DefineProperty,
        SpoofMethod::DefineGetter,
        SpoofMethod::SetPrototypeOf,
        SpoofMethod::ProxyObjects,
    ];

    /// The paper's index (1-based) for this method.
    pub fn index(self) -> usize {
        match self {
            SpoofMethod::DefineProperty => 1,
            SpoofMethod::DefineGetter => 2,
            SpoofMethod::SetPrototypeOf => 3,
            SpoofMethod::ProxyObjects => 4,
        }
    }

    /// Human-readable name matching §3.1.
    pub fn name(self) -> &'static str {
        match self {
            SpoofMethod::DefineProperty => "defineProperty",
            SpoofMethod::DefineGetter => "__defineGetter__",
            SpoofMethod::SetPrototypeOf => "setPrototypeOf",
            SpoofMethod::ProxyObjects => "Proxy objects",
        }
    }

    /// Applies this method to spoof `property` to `value` on
    /// `window.navigator` in `world`.
    pub fn apply(self, world: &mut World, property: &str, value: Value) -> Result<(), JsError> {
        match self {
            SpoofMethod::DefineProperty => define_property(world, property, value),
            SpoofMethod::DefineGetter => define_getter(world, property, value),
            SpoofMethod::SetPrototypeOf => set_prototype_of(world, property, value),
            SpoofMethod::ProxyObjects => proxy_wrap(world, &[(property.to_string(), value)]),
        }
    }
}

/// Method 1 — `Object.defineProperty` directly on the `navigator` instance.
///
/// Creates an *own* data property that shadows the prototype accessor. The
/// paper notes that with default attributes the key vanishes from
/// enumeration, which is itself detectable, and that this "is possible to
/// remedy by setting the enumerable property to true" — so, like the paper's
/// final variant, we define it enumerable. The original accessor stays on
/// `Navigator.prototype` ("its original value remains in the prototype
/// chain"), own-key count grows, and for-in order shifts.
pub fn define_property(world: &mut World, property: &str, value: Value) -> Result<(), JsError> {
    let nav = world.resolve_navigator();
    world.realm.define_property(
        nav,
        property,
        PropertyDescriptor {
            kind: PropertyKind::Data {
                value,
                writable: false,
            },
            enumerable: true,
            configurable: true,
        },
    )
}

/// Method 2 — legacy `__defineGetter__`.
///
/// Installs an own enumerable *accessor* returning the spoofed value. Same
/// structural side effects as method 1 (own shadow, order change, own-count
/// change); the getter function is a page-created anonymous function rather
/// than engine native code, visible through `toString`.
pub fn define_getter(world: &mut World, property: &str, value: Value) -> Result<(), JsError> {
    let nav = world.resolve_navigator();
    let getter = world.realm.make_anonymous_fn(NativeBehavior::Return(value));
    // The getter is page script, not native code. `make_anonymous_fn`
    // always populates `function`, so the `if let` never skips.
    if let Some(f) = world.realm.obj_mut(getter).function.as_mut() {
        f.native = false;
    }
    world.realm.define_getter(nav, property, getter)
}

/// Method 3 — `Object.setPrototypeOf`.
///
/// Replaces `navigator`'s prototype with a page-built clone of
/// `Navigator.prototype` — every property copied in original order, except
/// the spoofed one, which becomes a plain data property. The clone keeps
/// methods 1–2's side effects away (own keys, counts and for-in order all
/// stay pristine), but it is "inherently detectable": regular Firefox
/// resolves `webdriver` as a native *accessor* on the prototype, whereas
/// after this method the first `__proto__` hop carries a *defined* data
/// property — the "Defined navigator.__proto__.webdriver" side effect.
pub fn set_prototype_of(world: &mut World, property: &str, value: Value) -> Result<(), JsError> {
    let nav = world.resolve_navigator();
    let original_proto = world
        .realm
        .get_prototype_of(nav)
        .ok_or_else(|| JsError::TypeError("navigator has no prototype".into()))?;
    let grandparent = world.realm.get_prototype_of(original_proto);
    let props = world.realm.own_properties(original_proto);
    let fake = world.realm.alloc(JsObject::plain("Object", grandparent));
    for (k, d) in props {
        if k == property {
            world
                .realm
                .set_own(fake, &k, PropertyDescriptor::plain(value.clone()));
        } else {
            world.realm.set_own(fake, &k, d);
        }
    }
    world.realm.set_prototype_of(nav, Some(fake));
    Ok(())
}

/// Method 4 — Proxy objects.
///
/// Replaces the `window.navigator` binding with a `Proxy` whose `get` trap
/// returns spoofed values for the selected properties and forwards
/// everything else. Own keys, prototype chain, and enumeration order all
/// forward to the pristine target, so methods 1–3's side effects are absent;
/// the cost is that every method handed out through the proxy is re-bound as
/// an anonymous function (Listing 1), and identical techniques are used by
/// benign privacy extensions.
pub fn proxy_wrap(world: &mut World, overrides: &[(String, Value)]) -> Result<(), JsError> {
    let nav = world.resolve_navigator();
    let handler = ProxyHandler {
        get_overrides: overrides.to_vec(),
    };
    let proxy = world.realm.wrap_in_proxy(nav, handler);
    world.rebind_navigator(proxy);
    Ok(())
}

/// The classic `delete navigator.webdriver` trick from early stealth
/// scripts. It worked on old Chrome versions where the property lived on
/// the `navigator` instance; in (modelled) Firefox the property is an
/// accessor on `Navigator.prototype`, which `delete` on the instance
/// cannot reach — so the flag keeps reading `true`. Kept as a regression
/// reference, not as a working method.
#[cfg(test)]
pub fn delete_webdriver(world: &mut World) -> bool {
    let nav = world.resolve_navigator();
    world.realm.delete_property(nav, "webdriver")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_jsom::{build_firefox_world, BrowserFlavor};

    fn bot_world() -> World {
        build_firefox_world(BrowserFlavor::WebDriverFirefox)
    }

    #[test]
    fn every_method_spoofs_webdriver_to_false() {
        for m in SpoofMethod::ALL {
            let mut w = bot_world();
            m.apply(&mut w, "webdriver", Value::Bool(false)).unwrap();
            let nav = w.resolve_navigator();
            assert_eq!(
                w.realm.get(nav, "webdriver").unwrap(),
                Value::Bool(false),
                "method {} failed to spoof",
                m.name()
            );
        }
    }

    #[test]
    fn method_indices_match_paper() {
        assert_eq!(SpoofMethod::DefineProperty.index(), 1);
        assert_eq!(SpoofMethod::DefineGetter.index(), 2);
        assert_eq!(SpoofMethod::SetPrototypeOf.index(), 3);
        assert_eq!(SpoofMethod::ProxyObjects.index(), 4);
    }

    #[test]
    fn define_property_creates_own_shadow() {
        let mut w = bot_world();
        define_property(&mut w, "webdriver", Value::Bool(false)).unwrap();
        let nav = w.resolve_navigator();
        assert_eq!(w.realm.own_len(nav), 1);
        assert_eq!(w.realm.object_keys(nav), vec!["webdriver"]);
        // Original remains in the prototype chain.
        let proto = w.realm.get_prototype_of(nav).unwrap();
        assert!(w.realm.has_own(proto, "webdriver"));
    }

    #[test]
    fn define_getter_installs_accessor() {
        let mut w = bot_world();
        define_getter(&mut w, "webdriver", Value::Bool(false)).unwrap();
        let nav = w.resolve_navigator();
        let d = w.realm.get_own_descriptor(nav, "webdriver").unwrap();
        assert!(d.is_accessor());
        assert!(d.enumerable);
    }

    #[test]
    fn set_prototype_keeps_navigator_own_clean() {
        let mut w = bot_world();
        let pristine_order = w.realm.for_in_keys(w.navigator);
        set_prototype_of(&mut w, "webdriver", Value::Bool(false)).unwrap();
        let nav = w.resolve_navigator();
        assert_eq!(w.realm.own_len(nav), 0);
        // Enumeration order is preserved by the full clone.
        assert_eq!(w.realm.for_in_keys(nav), pristine_order);
        // But the first proto hop owns a data-property webdriver.
        let hop = w.realm.get_prototype_of(nav).unwrap();
        let d = w.realm.get_own_descriptor(hop, "webdriver").unwrap();
        assert!(!d.is_accessor());
        // Chain length stays two (the clone replaces, not interposes).
        assert_eq!(w.realm.proto_chain(nav).len(), 2);
    }

    #[test]
    fn proxy_keeps_structure_but_unnames_methods() {
        let mut w = bot_world();
        proxy_wrap(&mut w, &[("webdriver".to_string(), Value::Bool(false))]).unwrap();
        let nav = w.resolve_navigator();
        assert!(w.realm.is_proxy(nav));
        assert_eq!(w.realm.own_len(nav), 0);
        assert!(w.realm.object_keys(nav).is_empty());
        // Methods come out anonymous.
        let f = w
            .realm
            .get(nav, "javaEnabled")
            .unwrap()
            .as_object()
            .unwrap();
        let src = w.realm.function_to_string(f).unwrap();
        assert!(src.starts_with("function ()"), "src={src}");
    }

    #[test]
    fn proxy_forwards_untouched_properties() {
        let mut w = bot_world();
        proxy_wrap(&mut w, &[("webdriver".to_string(), Value::Bool(false))]).unwrap();
        let nav = w.resolve_navigator();
        let ua = w.realm.get(nav, "userAgent").unwrap();
        assert!(ua.as_str().unwrap().contains("Firefox"));
    }

    #[test]
    fn delete_trick_is_futile_on_firefox() {
        let mut w = bot_world();
        assert!(delete_webdriver(&mut w), "delete itself reports success");
        let nav = w.resolve_navigator();
        // ... but the flag is still there, resolved from the prototype.
        assert_eq!(w.realm.get(nav, "webdriver").unwrap(), Value::Bool(true));
    }

    #[test]
    fn methods_spoof_arbitrary_properties() {
        let mut w = bot_world();
        SpoofMethod::DefineProperty
            .apply(&mut w, "platform", Value::Str("Win32".into()))
            .unwrap();
        let nav = w.resolve_navigator();
        assert_eq!(
            w.realm.get(nav, "platform").unwrap(),
            Value::Str("Win32".into())
        );
    }
}
