//! Objects, property descriptors, and native function behaviours.
//!
//! `JsObject` no longer stores its own property *names*: keys live in the
//! realm-wide shape table ([`crate::shape`]) and an object carries only a
//! [`ShapeId`] plus a dense slot vector of descriptors, slot order being
//! exactly the shape's insertion-ordered key list. All string-keyed
//! property access therefore goes through [`crate::realm::Realm`], which
//! owns the atom and shape tables.

use crate::realm::ObjectId;
use crate::shape::ShapeId;
use crate::value::Value;
use std::sync::Arc;

/// What a native function does when called. Real engines attach compiled
/// code; the spoofing study only ever calls a handful of reflective
/// built-ins, so a small behaviour enum is sufficient and keeps everything
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum NativeBehavior {
    /// Returns a fixed value (covers spoofed getters like `() => false`).
    Return(Value),
    /// Returns the engine-generated `toString` of the `this` function —
    /// the behaviour of `Function.prototype.toString`.
    FunctionToString,
    /// Returns `"[object <class>]"` of the `this` object —
    /// `Object.prototype.toString`.
    ObjectToString,
    /// A host method whose return value is irrelevant to the experiments
    /// (e.g. `navigator.javaEnabled`); returns `undefined`.
    HostNoop,
}

/// Kind of property slot.
#[derive(Debug, Clone, PartialEq)]
pub enum PropertyKind {
    /// A data property holding a value directly.
    Data {
        /// The stored value.
        value: Value,
        /// Whether assignment may change the value.
        writable: bool,
    },
    /// An accessor property with optional getter/setter functions.
    Accessor {
        /// Getter function object, if any.
        getter: Option<ObjectId>,
        /// Setter function object, if any.
        setter: Option<ObjectId>,
    },
}

/// A full property descriptor (kind + enumerability + configurability).
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyDescriptor {
    /// Data or accessor slot.
    pub kind: PropertyKind,
    /// Whether `for-in` / `Object.keys` list the property.
    pub enumerable: bool,
    /// Whether the property may be redefined or deleted.
    pub configurable: bool,
}

impl PropertyDescriptor {
    /// A writable, enumerable, configurable data property — the shape
    /// produced by plain assignment.
    pub fn plain(value: Value) -> Self {
        Self {
            kind: PropertyKind::Data {
                value,
                writable: true,
            },
            enumerable: true,
            configurable: true,
        }
    }

    /// A non-enumerable data property, the default for
    /// `Object.defineProperty` when `enumerable` is omitted.
    // lint: allow(unread-pub-item) test reference: shape_differential.rs defines its properties with it
    pub fn define_default(value: Value) -> Self {
        Self {
            kind: PropertyKind::Data {
                value,
                writable: false,
            },
            enumerable: false,
            configurable: false,
        }
    }

    /// An accessor descriptor with only a getter.
    pub fn getter(getter: ObjectId, enumerable: bool) -> Self {
        Self {
            kind: PropertyKind::Accessor {
                getter: Some(getter),
                setter: None,
            },
            enumerable,
            configurable: true,
        }
    }

    /// True if the slot is an accessor.
    pub fn is_accessor(&self) -> bool {
        matches!(self.kind, PropertyKind::Accessor { .. })
    }
}

/// Function metadata carried by function objects.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionInfo {
    /// The function's `name` property. Engine-created anonymous wrappers
    /// (the Proxy side effect of §3.1) carry an empty name. Shared, not
    /// copied, when a world is stamped from a snapshot.
    pub name: Arc<str>,
    /// Whether `toString` renders `[native code]` (all host functions do).
    pub native: bool,
    /// What calling the function does.
    pub behavior: NativeBehavior,
}

/// Proxy handler state: the spoofed property overrides installed by the
/// OpenWPM extension (§3.2). Every other trap forwards to the target.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProxyHandler {
    /// Property name → spoofed value returned by the `get` trap.
    pub get_overrides: Vec<(String, Value)>,
}

impl ProxyHandler {
    /// Looks up an override for `key`.
    pub fn override_for(&self, key: &str) -> Option<&Value> {
        self.get_overrides
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// An object in the realm arena.
///
/// Own-property *names* are not stored here: `shape` identifies the
/// insertion-ordered key list in the realm's shape forest, and `slots[i]`
/// is the descriptor for that list's `i`-th key. Use the realm-level
/// accessors (`Realm::set_own`, `Realm::own_desc`, `Realm::own_keys`, …)
/// for all string-keyed access.
#[derive(Debug, Clone, PartialEq)]
pub struct JsObject {
    /// Internal `[[Class]]`-like tag: `"Object"`, `"Navigator"`,
    /// `"Function"`, `"Window"`, ... Shared across clones.
    pub class: Arc<str>,
    /// Hidden class: which key list (and key → offset map) this object has.
    pub(crate) shape: ShapeId,
    /// Property descriptors, index-aligned with the shape's key list.
    pub(crate) slots: Vec<PropertyDescriptor>,
    /// `[[Prototype]]`.
    pub prototype: Option<ObjectId>,
    /// Present iff this object is callable.
    pub function: Option<FunctionInfo>,
    /// Present iff this object is a Proxy exotic object: `(target, handler)`.
    /// The handler is immutable once installed, so clones share it.
    pub proxy: Option<(ObjectId, Arc<ProxyHandler>)>,
}

impl JsObject {
    /// A plain object with the given class and prototype (and no own
    /// properties, i.e. the root shape).
    pub fn plain(class: &str, prototype: Option<ObjectId>) -> Self {
        Self {
            class: Arc::from(class),
            shape: ShapeId::ROOT,
            slots: Vec::new(),
            prototype,
            function: None,
            proxy: None,
        }
    }

    /// Number of own properties.
    pub fn own_len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_constructors() {
        assert!(PropertyDescriptor::plain(Value::Null).enumerable);
        assert!(!PropertyDescriptor::define_default(Value::Null).enumerable);
        let g = PropertyDescriptor::getter(ObjectId::test_id(0), true);
        assert!(g.is_accessor());
        assert!(!PropertyDescriptor::plain(Value::Null).is_accessor());
    }

    #[test]
    fn proxy_handler_lookup() {
        let h = ProxyHandler {
            get_overrides: vec![("webdriver".into(), Value::Bool(false))],
        };
        assert_eq!(h.override_for("webdriver"), Some(&Value::Bool(false)));
        assert_eq!(h.override_for("other"), None);
    }

    #[test]
    fn plain_objects_start_with_the_root_shape() {
        let o = JsObject::plain("Object", None);
        assert_eq!(o.shape, ShapeId::ROOT);
        assert_eq!(o.own_len(), 0);
    }
}
