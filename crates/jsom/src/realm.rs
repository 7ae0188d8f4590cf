//! The realm: an arena of JS objects plus the reflective operations the
//! spoofing study exercises.
//!
//! Property storage is shape-based: the realm owns an [`AtomTable`]
//! (interned property names) and a [`ShapeForest`] (hidden classes), and
//! every string-keyed operation resolves `name → atom → offset` in O(1)
//! instead of the old linear scan over `Vec<(String, _)>`. Enumeration
//! order — a Table 1 observable — is preserved exactly: a shape's key
//! list is insertion order, and a slot's offset is its position in that
//! list. Cloning a realm (the snapshot-stamping path) shares both tables
//! copy-on-write.

use crate::atom::{Atom, AtomTable};
use crate::error::JsError;
use crate::object::{
    FunctionInfo, JsObject, NativeBehavior, PropertyDescriptor, PropertyKind, ProxyHandler,
};
use crate::value::Value;

/// Handle to an object in a [`Realm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(usize);

impl ObjectId {
    /// Constructs an id directly — for tests that need distinct ids without
    /// a realm.
    #[cfg(test)]
    pub fn test_id(raw: usize) -> Self {
        ObjectId(raw)
    }
}

/// Counters describing a realm's workload, surfaced through the browser's
/// observation metrics (`jsom.*` counters).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RealmStats {
    /// Objects in the arena.
    pub objects_allocated: u64,
    /// Distinct property names interned (including the empty name).
    pub atoms_interned: u64,
    /// Distinct shapes ever created (including the root).
    pub shape_transitions: u64,
    /// `get` operations served.
    pub property_gets: u64,
    /// Per-object own-lookup probes performed while serving `get`s
    /// (one per prototype-chain hop).
    pub own_lookups: u64,
}

/// An arena of JS objects with JS-faithful reflective operations.
#[derive(Debug, Clone)]
pub struct Realm {
    objects: Vec<JsObject>,
    atoms: AtomTable,
    shapes: ShapeForest,
    counters: RealmStats,
}

use crate::shape::ShapeForest;

impl Realm {
    /// Creates an empty realm.
    pub fn new() -> Self {
        Self {
            objects: Vec::new(),
            atoms: AtomTable::new(),
            shapes: ShapeForest::new(),
            counters: RealmStats::default(),
        }
    }

    /// Allocates an object, returning its id.
    pub fn alloc(&mut self, obj: JsObject) -> ObjectId {
        self.objects.push(obj);
        ObjectId(self.objects.len() - 1)
    }

    /// Borrows an object.
    ///
    /// # Panics
    /// Panics on a dangling id (arena ids are never freed, so this indicates
    /// a cross-realm id mix-up).
    pub fn obj(&self, id: ObjectId) -> &JsObject {
        &self.objects[id.0]
    }

    /// Borrows an object mutably.
    pub fn obj_mut(&mut self, id: ObjectId) -> &mut JsObject {
        &mut self.objects[id.0]
    }

    /// Number of objects allocated.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no objects are allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Workload counters, with the table sizes filled in at read time.
    pub fn stats(&self) -> RealmStats {
        RealmStats {
            objects_allocated: self.objects.len() as u64,
            atoms_interned: self.atoms.len() as u64,
            shape_transitions: self.shapes.len() as u64,
            ..self.counters
        }
    }

    /// Interns a property name into this realm's atom table.
    pub fn intern(&mut self, name: &str) -> Atom {
        self.atoms.intern(name)
    }

    // ---------------------------------------------------------------------
    // Construction helpers
    // ---------------------------------------------------------------------

    /// Allocates a named native function.
    pub fn make_native_fn(&mut self, name: &str, behavior: NativeBehavior) -> ObjectId {
        let mut obj = JsObject::plain("Function", None);
        obj.function = Some(FunctionInfo {
            name: std::sync::Arc::from(name),
            native: true,
            behavior,
        });
        self.alloc(obj)
    }

    /// Allocates an *anonymous* native function — the shape a Proxy `get`
    /// trap produces when it wraps a method (Listing 1 of the paper).
    pub fn make_anonymous_fn(&mut self, behavior: NativeBehavior) -> ObjectId {
        self.make_native_fn("", behavior)
    }

    /// Wraps `target` in a Proxy exotic object with the given handler.
    pub fn wrap_in_proxy(&mut self, target: ObjectId, handler: ProxyHandler) -> ObjectId {
        let class = self.obj(target).class.clone();
        let prototype = self.obj(target).prototype;
        let mut obj = JsObject::plain(&class, prototype);
        obj.proxy = Some((target, std::sync::Arc::new(handler)));
        self.alloc(obj)
    }

    // ---------------------------------------------------------------------
    // Own-property storage (atom + shape resolution)
    // ---------------------------------------------------------------------

    /// Inserts or replaces an own property on `id` directly (no proxy
    /// forwarding, no configurability check — the raw storage write that
    /// plain assignment and the world builders use). Replacement keeps the
    /// original insertion position (JS semantics); new keys append, moving
    /// the object to the successor shape.
    pub fn set_own(&mut self, id: ObjectId, key: &str, desc: PropertyDescriptor) {
        let atom = self.atoms.intern(key);
        let shape = self.objects[id.0].shape;
        if let Some(off) = self.shapes.offset_of(shape, atom) {
            self.objects[id.0].slots[off] = desc;
        } else {
            let next = self.shapes.transition_add(shape, atom);
            let obj = &mut self.objects[id.0];
            obj.shape = next;
            obj.slots.push(desc);
        }
    }

    /// Borrows the own descriptor for `key` on `id`, if present. Does not
    /// forward through proxies (see [`Realm::get_own_descriptor`]).
    pub fn own_desc(&self, id: ObjectId, key: &str) -> Option<&PropertyDescriptor> {
        let atom = self.atoms.lookup(key)?;
        let obj = &self.objects[id.0];
        let off = self.shapes.offset_of(obj.shape, atom)?;
        Some(&obj.slots[off])
    }

    /// Own keys of `id` in insertion order (no proxy forwarding).
    // lint: allow(unread-pub-item) test reference: shape_differential.rs checks it against jsom's linear model
    pub fn own_keys(&self, id: ObjectId) -> Vec<String> {
        self.shapes
            .keys(self.objects[id.0].shape)
            .iter()
            .map(|&a| self.atoms.name(a).to_string())
            .collect()
    }

    /// Own `(key, descriptor)` pairs of `id` in insertion order.
    pub fn own_properties(&self, id: ObjectId) -> Vec<(String, PropertyDescriptor)> {
        let obj = &self.objects[id.0];
        self.shapes
            .keys(obj.shape)
            .iter()
            .zip(&obj.slots)
            .map(|(&a, d)| (self.atoms.name(a).to_string(), d.clone()))
            .collect()
    }

    // ---------------------------------------------------------------------
    // Reflective operations
    // ---------------------------------------------------------------------

    /// `typeof v`.
    pub fn type_of(&self, v: &Value) -> &'static str {
        match v {
            Value::Object(id) => {
                if self.obj(*id).function.is_some() {
                    "function"
                } else {
                    "object"
                }
            }
            other => other.primitive_type_of(),
        }
    }

    /// `obj[key]` — own lookup, proxy traps, prototype-chain walk, getter
    /// invocation.
    pub fn get(&mut self, id: ObjectId, key: &str) -> Result<Value, JsError> {
        self.counters.property_gets += 1;

        // Proxy exotic behaviour first. Only a matched override value is
        // cloned — the handler itself is merely borrowed.
        let proxied = self
            .obj(id)
            .proxy
            .as_ref()
            .map(|(target, handler)| (*target, handler.override_for(key).cloned()));
        if let Some((target, override_val)) = proxied {
            if let Some(v) = override_val {
                return Ok(v);
            }
            let underlying = self.get(target, key)?;
            // The `get` trap returning a method re-binds it, producing a
            // fresh anonymous function — the Table 1 "unnamed functions"
            // side effect.
            if let Value::Object(fid) = underlying {
                let behavior = self.obj(fid).function.as_ref().map(|i| i.behavior.clone());
                if let Some(behavior) = behavior {
                    let wrapper = self.make_anonymous_fn(behavior);
                    return Ok(Value::Object(wrapper));
                }
            }
            return Ok(underlying);
        }

        // A name that was never interned cannot be a property of anything.
        let Some(atom) = self.atoms.lookup(key) else {
            return Ok(Value::Undefined);
        };

        enum Hit {
            Value(Value),
            Getter(Option<ObjectId>),
        }
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            self.counters.own_lookups += 1;
            let obj = &self.objects[cur.0];
            if let Some(off) = self.shapes.offset_of(obj.shape, atom) {
                let hit = match &obj.slots[off].kind {
                    PropertyKind::Data { value, .. } => Hit::Value(value.clone()),
                    PropertyKind::Accessor { getter, .. } => Hit::Getter(*getter),
                };
                return match hit {
                    Hit::Value(v) => Ok(v),
                    Hit::Getter(Some(g)) => self.call(g, Value::Object(id)),
                    Hit::Getter(None) => Ok(Value::Undefined),
                };
            }
            cursor = obj.prototype;
        }
        Ok(Value::Undefined)
    }

    /// Calls a function object with a `this` value.
    pub fn call(&mut self, fn_id: ObjectId, this: Value) -> Result<Value, JsError> {
        // Clone only the behaviour, not the whole `FunctionInfo`.
        let behavior = self
            .obj(fn_id)
            .function
            .as_ref()
            .map(|i| i.behavior.clone())
            .ok_or_else(|| JsError::TypeError("not a function".into()))?;
        Ok(match behavior {
            NativeBehavior::Return(v) => v,
            NativeBehavior::HostNoop => Value::Undefined,
            NativeBehavior::FunctionToString => {
                let target = this
                    .as_object()
                    .ok_or_else(|| JsError::TypeError("toString on non-object".into()))?;
                Value::Str(self.function_to_string(target)?.into())
            }
            NativeBehavior::ObjectToString => {
                let class: &str = match &this {
                    Value::Object(o) => &self.obj(*o).class,
                    Value::Undefined => "Undefined",
                    Value::Null => "Null",
                    Value::Bool(_) => "Boolean",
                    Value::Number(_) => "Number",
                    Value::Str(_) => "String",
                };
                Value::Str(format!("[object {class}]").into())
            }
        })
    }

    /// `Function.prototype.toString` output. Firefox renders native
    /// functions as `function name() {\n    [native code]\n}`; an anonymous
    /// wrapper renders with an empty name — exactly the discrepancy shown in
    /// Listing 1 of the paper.
    pub fn function_to_string(&self, fn_id: ObjectId) -> Result<String, JsError> {
        let info = self
            .obj(fn_id)
            .function
            .as_ref()
            .ok_or_else(|| JsError::TypeError("not a function".into()))?;
        let body = if info.native {
            "    [native code]"
        } else {
            "    ..."
        };
        Ok(format!("function {}() {{\n{}\n}}", info.name, body))
    }

    /// `Object.keys(obj)` — own enumerable keys in insertion order. For a
    /// Proxy this forwards to the target (default `ownKeys` trap).
    pub fn object_keys(&self, id: ObjectId) -> Vec<String> {
        if let Some((target, _)) = &self.obj(id).proxy {
            return self.object_keys(*target);
        }
        let obj = &self.objects[id.0];
        self.shapes
            .keys(obj.shape)
            .iter()
            .zip(&obj.slots)
            .filter(|(_, d)| d.enumerable)
            .map(|(&a, _)| self.atoms.name(a).to_string())
            .collect()
    }

    /// `for (k in obj)` — enumerable keys of the object and its prototype
    /// chain, own-first, skipping shadowed names. The shadow check is a
    /// dense per-atom bitset rather than the old string list scan.
    pub fn for_in_keys(&self, id: ObjectId) -> Vec<String> {
        let start = match &self.obj(id).proxy {
            Some((target, _)) => *target,
            None => id,
        };
        let mut seen = vec![false; self.atoms.len()];
        let mut out: Vec<String> = Vec::new();
        let mut cursor = Some(start);
        while let Some(cur) = cursor {
            let obj = &self.objects[cur.0];
            for (&a, d) in self.shapes.keys(obj.shape).iter().zip(&obj.slots) {
                if seen[a.index()] {
                    continue;
                }
                seen[a.index()] = true;
                if d.enumerable {
                    out.push(self.atoms.name(a).to_string());
                }
            }
            cursor = obj.prototype;
        }
        out
    }

    /// `Object.defineProperty(obj, key, desc)`.
    pub fn define_property(
        &mut self,
        id: ObjectId,
        key: &str,
        desc: PropertyDescriptor,
    ) -> Result<(), JsError> {
        if let Some(existing) = self.own_desc(id, key) {
            if !existing.configurable {
                return Err(JsError::TypeError(format!(
                    "can't redefine non-configurable property \"{key}\""
                )));
            }
        }
        self.set_own(id, key, desc);
        Ok(())
    }

    /// Legacy `obj.__defineGetter__(key, fn)` — installs an own enumerable
    /// configurable accessor (deprecated by Mozilla, noted in §3.1).
    pub fn define_getter(
        &mut self,
        id: ObjectId,
        key: &str,
        getter: ObjectId,
    ) -> Result<(), JsError> {
        if self.obj(getter).function.is_none() {
            return Err(JsError::TypeError("getter must be a function".into()));
        }
        self.set_own(
            id,
            key,
            PropertyDescriptor {
                kind: PropertyKind::Accessor {
                    getter: Some(getter),
                    setter: None,
                },
                enumerable: true,
                configurable: true,
            },
        );
        Ok(())
    }

    /// `delete obj[key]` — removes an *own* property. Returns `false` for
    /// own non-configurable properties, `true` otherwise (including for
    /// keys that only exist on the prototype chain, which `delete` cannot
    /// touch — the reason the classic `delete navigator.webdriver` trick
    /// does nothing in Firefox). Resolution goes through the shape table;
    /// the slot removal itself shifts the dense slot vector, mirroring the
    /// linear model's `Vec::remove` order exactly.
    pub fn delete_property(&mut self, id: ObjectId, key: &str) -> bool {
        if let Some((target, _)) = &self.obj(id).proxy {
            let target = *target;
            return self.delete_property(target, key);
        }
        let Some(atom) = self.atoms.lookup(key) else {
            return true;
        };
        let shape = self.objects[id.0].shape;
        let Some(off) = self.shapes.offset_of(shape, atom) else {
            return true;
        };
        if !self.objects[id.0].slots[off].configurable {
            return false;
        }
        let next = self.shapes.transition_remove(shape, atom);
        let obj = &mut self.objects[id.0];
        obj.shape = next;
        obj.slots.remove(off);
        true
    }

    /// `Object.setPrototypeOf(obj, proto)`.
    pub fn set_prototype_of(&mut self, id: ObjectId, proto: Option<ObjectId>) {
        self.obj_mut(id).prototype = proto;
    }

    /// `Object.getPrototypeOf(obj)` (`__proto__`). For a Proxy, the default
    /// trap forwards to the target.
    pub fn get_prototype_of(&self, id: ObjectId) -> Option<ObjectId> {
        if let Some((target, _)) = &self.obj(id).proxy {
            return self.get_prototype_of(*target);
        }
        self.obj(id).prototype
    }

    /// `Object.prototype.hasOwnProperty`.
    pub fn has_own(&self, id: ObjectId, key: &str) -> bool {
        if let Some((target, _)) = &self.obj(id).proxy {
            return self.has_own(*target, key);
        }
        self.own_desc(id, key).is_some()
    }

    /// `Object.getOwnPropertyDescriptor`.
    pub fn get_own_descriptor(&self, id: ObjectId, key: &str) -> Option<PropertyDescriptor> {
        if let Some((target, _)) = &self.obj(id).proxy {
            return self.get_own_descriptor(*target, key);
        }
        self.own_desc(id, key).cloned()
    }

    /// The prototype chain starting at (and excluding) `id`.
    pub fn proto_chain(&self, id: ObjectId) -> Vec<ObjectId> {
        let mut out = Vec::new();
        let mut cursor = self.get_prototype_of(id);
        while let Some(cur) = cursor {
            out.push(cur);
            if out.len() > 64 {
                break; // defensive: cyclic chains are host bugs
            }
            cursor = self.obj(cur).prototype;
        }
        out
    }

    /// True if `id` is a Proxy exotic object. Scripts cannot observe this
    /// directly — detectors must infer it from trap side effects — but the
    /// test suite uses it to validate the model.
    // lint: allow(unread-pub-item) test reference: hlisa-spoof's tests of the Proxy method (Table 1 method 4)
    pub fn is_proxy(&self, id: ObjectId) -> bool {
        self.obj(id).proxy.is_some()
    }

    /// Number of own properties — the `navigator._length` observable of
    /// Table 1 (methods 1 and 2 add an own shadowing property, growing this
    /// count; the original accessor remains on the prototype).
    pub fn own_len(&self, id: ObjectId) -> usize {
        if let Some((target, _)) = &self.obj(id).proxy {
            return self.own_len(*target);
        }
        self.obj(id).own_len()
    }
}

impl Default for Realm {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn realm_with_chain() -> (Realm, ObjectId, ObjectId) {
        let mut r = Realm::new();
        let proto = r.alloc(JsObject::plain("NavigatorPrototype", None));
        let getter = r.make_native_fn("get webdriver", NativeBehavior::Return(Value::Bool(true)));
        r.set_own(proto, "webdriver", PropertyDescriptor::getter(getter, true));
        let nav = r.alloc(JsObject::plain("Navigator", Some(proto)));
        (r, nav, proto)
    }

    #[test]
    fn get_walks_prototype_and_calls_getter() {
        let (mut r, nav, _) = realm_with_chain();
        assert_eq!(r.get(nav, "webdriver").unwrap(), Value::Bool(true));
        assert_eq!(r.get(nav, "missing").unwrap(), Value::Undefined);
    }

    #[test]
    fn own_property_shadows_prototype() {
        let (mut r, nav, _) = realm_with_chain();
        r.define_property(
            nav,
            "webdriver",
            PropertyDescriptor::plain(Value::Bool(false)),
        )
        .unwrap();
        assert_eq!(r.get(nav, "webdriver").unwrap(), Value::Bool(false));
        // Prototype still holds the original — shown by deleting the shadow.
        assert_eq!(r.own_len(nav), 1);
    }

    #[test]
    fn define_property_respects_configurability() {
        let mut r = Realm::new();
        let o = r.alloc(JsObject::plain("Object", None));
        r.define_property(o, "x", PropertyDescriptor::define_default(Value::Null))
            .unwrap();
        let err = r
            .define_property(o, "x", PropertyDescriptor::plain(Value::Null))
            .unwrap_err();
        assert!(matches!(err, JsError::TypeError(_)));
    }

    #[test]
    fn set_own_preserves_position_on_redefine() {
        let mut r = Realm::new();
        let o = r.alloc(JsObject::plain("Object", None));
        r.set_own(o, "a", PropertyDescriptor::plain(Value::Number(1.0)));
        r.set_own(o, "b", PropertyDescriptor::plain(Value::Number(2.0)));
        r.set_own(o, "a", PropertyDescriptor::plain(Value::Number(9.0)));
        assert_eq!(r.own_keys(o), vec!["a", "b"]);
        match &r.own_desc(o, "a").unwrap().kind {
            PropertyKind::Data { value, .. } => assert_eq!(*value, Value::Number(9.0)),
            _ => panic!("expected data property"),
        }
    }

    #[test]
    fn for_in_lists_own_then_proto_without_shadowed_dupes() {
        let (mut r, nav, proto) = realm_with_chain();
        r.set_own(proto, "userAgent", PropertyDescriptor::plain("UA".into()));
        r.define_property(nav, "own1", PropertyDescriptor::plain(Value::Number(1.0)))
            .unwrap();
        r.define_property(
            nav,
            "webdriver",
            PropertyDescriptor::plain(Value::Bool(false)),
        )
        .unwrap();
        let keys = r.for_in_keys(nav);
        assert_eq!(keys, vec!["own1", "webdriver", "userAgent"]);
    }

    #[test]
    fn object_keys_only_own_enumerable() {
        let (mut r, nav, _) = realm_with_chain();
        assert!(r.object_keys(nav).is_empty());
        r.define_property(nav, "a", PropertyDescriptor::plain(Value::Null))
            .unwrap();
        r.define_property(nav, "b", PropertyDescriptor::define_default(Value::Null))
            .unwrap();
        assert_eq!(r.object_keys(nav), vec!["a"]);
    }

    #[test]
    fn define_getter_installs_enumerable_accessor() {
        let (mut r, nav, _) = realm_with_chain();
        let g = r.make_native_fn("", NativeBehavior::Return(Value::Bool(false)));
        r.define_getter(nav, "webdriver", g).unwrap();
        assert_eq!(r.get(nav, "webdriver").unwrap(), Value::Bool(false));
        assert_eq!(r.object_keys(nav), vec!["webdriver"]);
        assert!(r
            .get_own_descriptor(nav, "webdriver")
            .unwrap()
            .is_accessor());
    }

    #[test]
    fn define_getter_rejects_non_function() {
        let mut r = Realm::new();
        let o = r.alloc(JsObject::plain("Object", None));
        let not_fn = r.alloc(JsObject::plain("Object", None));
        assert!(r.define_getter(o, "x", not_fn).is_err());
    }

    #[test]
    fn function_to_string_renders_name() {
        let mut r = Realm::new();
        let named = r.make_native_fn("toString", NativeBehavior::HostNoop);
        let anon = r.make_anonymous_fn(NativeBehavior::HostNoop);
        assert_eq!(
            r.function_to_string(named).unwrap(),
            "function toString() {\n    [native code]\n}"
        );
        assert_eq!(
            r.function_to_string(anon).unwrap(),
            "function () {\n    [native code]\n}"
        );
    }

    #[test]
    fn proxy_forwards_and_overrides() {
        let (mut r, nav, _) = realm_with_chain();
        let handler = ProxyHandler {
            get_overrides: vec![("webdriver".into(), Value::Bool(false))],
        };
        let p = r.wrap_in_proxy(nav, handler);
        assert_eq!(r.get(p, "webdriver").unwrap(), Value::Bool(false));
        // Non-overridden keys forward to the target chain.
        assert_eq!(r.get(p, "missing").unwrap(), Value::Undefined);
        // Structural views forward, so no own-key side effects appear.
        assert!(r.object_keys(p).is_empty());
        assert_eq!(r.own_len(p), 0);
    }

    #[test]
    fn proxy_wraps_methods_anonymously() {
        let mut r = Realm::new();
        let proto = r.alloc(JsObject::plain("NavigatorPrototype", None));
        let m = r.make_native_fn("javaEnabled", NativeBehavior::HostNoop);
        r.set_own(
            proto,
            "javaEnabled",
            PropertyDescriptor::plain(Value::Object(m)),
        );
        let nav = r.alloc(JsObject::plain("Navigator", Some(proto)));
        let p = r.wrap_in_proxy(nav, ProxyHandler::default());
        let got = r.get(p, "javaEnabled").unwrap();
        let fid = got.as_object().unwrap();
        let s = r.function_to_string(fid).unwrap();
        assert!(s.starts_with("function ()"), "got: {s}");
        // Direct access on the unwrapped object keeps the name.
        let direct = r.get(nav, "javaEnabled").unwrap().as_object().unwrap();
        assert!(r
            .function_to_string(direct)
            .unwrap()
            .starts_with("function javaEnabled()"));
    }

    #[test]
    fn delete_removes_own_configurable_only() {
        let mut r = Realm::new();
        let o = r.alloc(JsObject::plain("Object", None));
        r.define_property(o, "a", PropertyDescriptor::plain(Value::Number(1.0)))
            .unwrap();
        r.define_property(o, "b", PropertyDescriptor::define_default(Value::Null))
            .unwrap();
        assert!(r.delete_property(o, "a"));
        assert!(r.get(o, "a").unwrap().is_undefined());
        // Non-configurable survives.
        assert!(!r.delete_property(o, "b"));
        assert!(r.has_own(o, "b"));
        // Deleting a missing key "succeeds" per JS semantics.
        assert!(r.delete_property(o, "ghost"));
    }

    #[test]
    fn delete_cannot_reach_prototype_properties() {
        let (mut r, nav, proto) = realm_with_chain();
        assert!(r.delete_property(nav, "webdriver"));
        // The accessor still resolves from the prototype.
        assert_eq!(r.get(nav, "webdriver").unwrap(), Value::Bool(true));
        assert!(r.has_own(proto, "webdriver"));
    }

    #[test]
    fn delete_then_readd_moves_key_to_the_end() {
        // Matches the linear model: remove + re-insert appends.
        let mut r = Realm::new();
        let o = r.alloc(JsObject::plain("Object", None));
        for k in ["a", "b", "c"] {
            r.set_own(o, k, PropertyDescriptor::plain(Value::Null));
        }
        assert!(r.delete_property(o, "b"));
        assert_eq!(r.own_keys(o), vec!["a", "c"]);
        r.set_own(o, "b", PropertyDescriptor::plain(Value::Null));
        assert_eq!(r.own_keys(o), vec!["a", "c", "b"]);
    }

    #[test]
    fn set_prototype_of_changes_chain() {
        let (mut r, nav, proto) = realm_with_chain();
        let fake = r.alloc(JsObject::plain("Object", Some(proto)));
        r.set_own(
            fake,
            "webdriver",
            PropertyDescriptor::plain(Value::Bool(false)),
        );
        r.set_prototype_of(nav, Some(fake));
        assert_eq!(r.get(nav, "webdriver").unwrap(), Value::Bool(false));
        assert_eq!(r.proto_chain(nav), vec![fake, proto]);
    }

    #[test]
    fn type_of_distinguishes_functions() {
        let mut r = Realm::new();
        let f = r.make_native_fn("f", NativeBehavior::HostNoop);
        let o = r.alloc(JsObject::plain("Object", None));
        assert_eq!(r.type_of(&Value::Object(f)), "function");
        assert_eq!(r.type_of(&Value::Object(o)), "object");
        assert_eq!(r.type_of(&Value::Bool(true)), "boolean");
    }

    #[test]
    fn object_to_string_uses_class() {
        let mut r = Realm::new();
        let nav = r.alloc(JsObject::plain("Navigator", None));
        let f = r.make_native_fn("toString", NativeBehavior::ObjectToString);
        let s = r.call(f, Value::Object(nav)).unwrap();
        assert_eq!(s, Value::Str("[object Navigator]".into()));
    }

    #[test]
    fn call_non_function_errors() {
        let mut r = Realm::new();
        let o = r.alloc(JsObject::plain("Object", None));
        assert!(r.call(o, Value::Undefined).is_err());
    }

    #[test]
    fn stats_track_tables_and_gets() {
        let (mut r, nav, _) = realm_with_chain();
        let before = r.stats();
        assert!(before.objects_allocated >= 3);
        assert!(before.atoms_interned >= 2); // "" + "webdriver"
        assert!(before.shape_transitions >= 2); // root + webdriver shape
        r.get(nav, "webdriver").unwrap();
        let after = r.stats();
        assert_eq!(after.property_gets, before.property_gets + 1);
        assert!(after.own_lookups > before.own_lookups);
    }
}
