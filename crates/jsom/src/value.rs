//! JavaScript values.

use crate::realm::ObjectId;
use std::sync::Arc;

/// A JavaScript value. Objects and functions live in a [`crate::Realm`]
/// arena and are referenced by [`ObjectId`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `undefined`.
    Undefined,
    /// `null`.
    Null,
    /// A boolean primitive.
    Bool(bool),
    /// A number primitive (JS numbers are f64).
    Number(f64),
    /// A string primitive. Stored behind an `Arc` so that cloning a value
    /// (and therefore stamping a whole world from a snapshot) never copies
    /// string bytes; JS strings are immutable, so sharing is unobservable.
    Str(Arc<str>),
    /// A reference to an object (including functions and proxies).
    Object(ObjectId),
}

impl Value {
    /// The result of the JS `typeof` operator for this value.
    ///
    /// Note: `typeof` needs the realm to distinguish callable objects, so
    /// this returns `"object"` for any object reference; use
    /// [`crate::Realm::type_of`] for the full behaviour.
    pub fn primitive_type_of(&self) -> &'static str {
        match self {
            Value::Undefined => "undefined",
            Value::Null => "object",
            Value::Bool(_) => "boolean",
            Value::Number(_) => "number",
            Value::Str(_) => "string",
            Value::Object(_) => "object",
        }
    }

    /// JS truthiness.
    #[cfg(test)]
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Undefined | Value::Null => false,
            Value::Bool(b) => *b,
            Value::Number(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Object(_) => true,
        }
    }

    /// True when this is `undefined`.
    pub fn is_undefined(&self) -> bool {
        matches!(self, Value::Undefined)
    }

    /// Returns the object id if this is an object reference.
    pub fn as_object(&self) -> Option<ObjectId> {
        match self {
            Value::Object(id) => Some(*id),
            _ => None,
        }
    }

    /// Returns the bool if this is a boolean.
    #[cfg(test)]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the number if this is a number.
    #[cfg(test)]
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// A short debug rendering used in template snapshots. Object identity
    /// is deliberately *not* included so that two structurally identical
    /// worlds produce identical templates.
    pub fn template_repr(&self) -> String {
        match self {
            Value::Undefined => "undefined".into(),
            Value::Null => "null".into(),
            Value::Bool(b) => format!("{b}"),
            Value::Number(n) => format!("{n}"),
            Value::Str(s) => format!("{s:?}"),
            Value::Object(_) => "[object]".into(),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typeof_primitives() {
        assert_eq!(Value::Undefined.primitive_type_of(), "undefined");
        assert_eq!(Value::Null.primitive_type_of(), "object");
        assert_eq!(Value::Bool(true).primitive_type_of(), "boolean");
        assert_eq!(Value::Number(1.0).primitive_type_of(), "number");
        assert_eq!(Value::Str("x".into()).primitive_type_of(), "string");
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Undefined.is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Number(0.0).is_truthy());
        assert!(!Value::Number(f64::NAN).is_truthy());
        assert!(!Value::Str("".into()).is_truthy());
        assert!(Value::Bool(true).is_truthy());
        assert!(Value::Number(2.0).is_truthy());
        assert!(Value::Str("a".into()).is_truthy());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(1.5), Value::Number(1.5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(false).as_bool(), Some(false));
        assert_eq!(Value::from(2.0).as_number(), Some(2.0));
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::Null.as_object(), None);
    }

    #[test]
    fn template_repr_hides_identity() {
        // Two different object ids must produce the same repr.
        let a = Value::Object(crate::realm::ObjectId::test_id(1));
        let b = Value::Object(crate::realm::ObjectId::test_id(2));
        assert_eq!(a.template_repr(), b.template_repr());
    }
}
