//! The linear-scan reference model.
//!
//! This is the pre-shape property storage — `Vec<(String, descriptor)>`
//! with O(n) string-compare lookup — preserved as an executable
//! specification. The differential proptest in
//! `tests/shape_differential.rs` drives a [`LinearObject`] and a
//! shape-backed realm object through identical operation sequences and
//! asserts every observable (key order, descriptors, delete results) is
//! byte-identical; the campaign benchmark uses it as the lookups/sec
//! baseline.

use crate::error::JsError;
use crate::object::PropertyDescriptor;

/// An own-property map with the original linear-scan semantics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinearObject {
    /// Own properties in insertion order.
    pub props: Vec<(String, PropertyDescriptor)>,
}

impl LinearObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds an own property slot.
    pub fn own(&self, key: &str) -> Option<&PropertyDescriptor> {
        self.props.iter().find(|(k, _)| k == key).map(|(_, d)| d)
    }

    /// Inserts or replaces an own property. Replacement keeps the original
    /// insertion position (JS semantics); new keys append.
    pub fn set_own(&mut self, key: &str, desc: PropertyDescriptor) {
        if let Some(slot) = self
            .props
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, d)| d)
        {
            *slot = desc;
        } else {
            self.props.push((key.to_string(), desc));
        }
    }

    /// `Object.defineProperty` semantics: rejects redefinition of a
    /// non-configurable property.
    // lint: allow(unread-pub-item) test reference: jsom's linear model in shape_differential.rs
    pub fn define(&mut self, key: &str, desc: PropertyDescriptor) -> Result<(), JsError> {
        if let Some(existing) = self.own(key) {
            if !existing.configurable {
                return Err(JsError::TypeError(format!(
                    "can't redefine non-configurable property \"{key}\""
                )));
            }
        }
        self.set_own(key, desc);
        Ok(())
    }

    /// `delete` semantics: `false` for own non-configurable properties,
    /// `true` otherwise (including missing keys).
    // lint: allow(unread-pub-item) test reference: jsom's linear model in shape_differential.rs
    pub fn delete(&mut self, key: &str) -> bool {
        if let Some(pos) = self.props.iter().position(|(k, _)| k == key) {
            if !self.props[pos].1.configurable {
                return false;
            }
            self.props.remove(pos);
        }
        true
    }

    /// Own keys in insertion order.
    // lint: allow(unread-pub-item) test reference: jsom's linear model in shape_differential.rs
    pub fn own_keys(&self) -> Vec<String> {
        self.props.iter().map(|(k, _)| k.clone()).collect()
    }

    /// Own *enumerable* keys in insertion order (`Object.keys`).
    // lint: allow(unread-pub-item) test reference: jsom's linear model in shape_differential.rs
    pub fn own_enumerable_keys(&self) -> Vec<String> {
        self.props
            .iter()
            .filter(|(_, d)| d.enumerable)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Number of own properties.
    pub fn own_len(&self) -> usize {
        self.props.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn keeps_insertion_order_and_replaces_in_place() {
        let mut o = LinearObject::new();
        o.set_own("a", PropertyDescriptor::plain(Value::Number(1.0)));
        o.set_own("b", PropertyDescriptor::plain(Value::Number(2.0)));
        o.set_own("a", PropertyDescriptor::plain(Value::Number(9.0)));
        assert_eq!(o.own_keys(), vec!["a", "b"]);
        assert_eq!(o.own_len(), 2);
    }

    #[test]
    fn delete_and_define_follow_js_semantics() {
        let mut o = LinearObject::new();
        o.set_own("a", PropertyDescriptor::plain(Value::Null));
        o.define("b", PropertyDescriptor::define_default(Value::Null))
            .unwrap();
        assert!(o
            .define("b", PropertyDescriptor::plain(Value::Null))
            .is_err());
        assert!(o.delete("a"));
        assert!(!o.delete("b"));
        assert!(o.delete("ghost"));
        assert_eq!(o.own_keys(), vec!["b"]);
        assert_eq!(o.own_enumerable_keys(), Vec::<String>::new());
    }
}
