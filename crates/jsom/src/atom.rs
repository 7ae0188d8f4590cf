//! Interned property keys (atoms).
//!
//! Every property name in a realm is interned exactly once into a
//! [`AtomTable`], turning the `String` comparisons of the old linear
//! property scan into `u32` equality and making a property name usable as
//! a direct index into shape offset tables ([`crate::shape`]). The table
//! is shared copy-on-write (`Arc`) so cloning a realm — the snapshot
//! stamping path the crawl campaign uses — costs one reference-count
//! bump instead of re-hashing every key.
//!
//! Determinism note: atom *numbering* is insertion order, which is fully
//! determined by the (deterministic) build sequence of the realm. The
//! interior `HashMap` is only ever point-queried — its iteration order
//! never reaches any observable output — which is why the workspace
//! linter sanctions this module as an allowed unordered-container
//! interior (see `UNORDERED_INTERIOR_SITES` in `hlisa-lint`).

use std::collections::HashMap;
use std::sync::Arc;

/// An interned property name. `Atom`s are only meaningful relative to the
/// [`AtomTable`] that produced them (or a clone of it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom(u32);

impl Atom {
    /// The always-present empty-name atom (anonymous functions).
    #[cfg(test)]
    pub const EMPTY: Atom = Atom(0);

    /// The atom's dense index, usable for direct table addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Inner {
    /// Atom index → name. The canonical, insertion-ordered view.
    names: Vec<String>,
    /// Name → atom index. Point lookups only; never iterated.
    index: HashMap<String, u32>,
}

/// The per-realm intern table. Cloning shares the underlying storage;
/// the first `intern` of a *new* name after a clone copies on write.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomTable {
    inner: Arc<Inner>,
}

impl AtomTable {
    /// An empty table with `""` pre-interned as atom 0.
    ///
    /// Pre-interning the empty name matters for the snapshot path: proxy
    /// `get` traps allocate anonymous (empty-named) wrapper functions on
    /// every method access, and that must not trigger a copy-on-write of
    /// a stamped realm's shared table.
    pub fn new() -> Self {
        let mut inner = Inner::default();
        inner.names.push(String::new());
        inner.index.insert(String::new(), 0);
        Self {
            inner: Arc::new(inner),
        }
    }

    /// Interns `name`, returning its atom. Existing names never mutate
    /// the table (and therefore never un-share a snapshot clone).
    pub fn intern(&mut self, name: &str) -> Atom {
        if let Some(&i) = self.inner.index.get(name) {
            return Atom(i);
        }
        let inner = Arc::make_mut(&mut self.inner);
        // 2^32 interned names exceeds any page the simulator can build;
        // overflowing silently would alias atoms. lint: allow(no-panic)
        let i = u32::try_from(inner.names.len()).expect("atom table overflow");
        inner.names.push(name.to_string());
        inner.index.insert(name.to_string(), i);
        Atom(i)
    }

    /// The atom for `name`, if it was ever interned. A name absent here is
    /// absent from every object of the realm.
    pub fn lookup(&self, name: &str) -> Option<Atom> {
        self.inner.index.get(name).copied().map(Atom)
    }

    /// The name behind an atom.
    ///
    /// # Panics
    /// Panics on an atom from a different table (a realm mix-up).
    pub fn name(&self, atom: Atom) -> &str {
        &self.inner.names[atom.index()]
    }

    /// Number of interned names (including the empty name).
    pub fn len(&self) -> usize {
        self.inner.names.len()
    }

    /// Always false: the empty name is pre-interned.
    pub fn is_empty(&self) -> bool {
        self.inner.names.is_empty()
    }

    /// Whether this table shares storage with `other` (both are clones of
    /// the same snapshot and neither has diverged).
    #[cfg(test)]
    pub fn shares_storage_with(&self, other: &AtomTable) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Default for AtomTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = AtomTable::new();
        let a = t.intern("webdriver");
        let b = t.intern("userAgent");
        assert_ne!(a, b);
        assert_eq!(t.intern("webdriver"), a);
        assert_eq!(t.name(a), "webdriver");
        assert_eq!(t.name(b), "userAgent");
        assert_eq!(t.len(), 3); // "" + two names
    }

    #[test]
    fn empty_name_is_preinterned() {
        let mut t = AtomTable::new();
        assert_eq!(t.lookup(""), Some(Atom::EMPTY));
        assert_eq!(t.intern(""), Atom::EMPTY);
        assert_eq!(t.name(Atom::EMPTY), "");
    }

    #[test]
    fn lookup_misses_unknown_names() {
        let t = AtomTable::new();
        assert_eq!(t.lookup("ghost"), None);
    }

    #[test]
    fn clones_share_until_a_new_name_arrives() {
        let mut a = AtomTable::new();
        a.intern("webdriver");
        let mut b = a.clone();
        assert!(a.shares_storage_with(&b));
        // Re-interning an existing name keeps sharing.
        b.intern("webdriver");
        assert!(a.shares_storage_with(&b));
        // A genuinely new name copies on write, leaving `a` untouched.
        b.intern("platform");
        assert!(!a.shares_storage_with(&b));
        assert_eq!(a.lookup("platform"), None);
        assert!(b.lookup("platform").is_some());
    }

    #[test]
    fn numbering_follows_insertion_order() {
        let mut t = AtomTable::new();
        let names = ["c", "a", "b"];
        let atoms: Vec<Atom> = names.iter().map(|n| t.intern(n)).collect();
        for w in atoms.windows(2) {
            assert!(w[0].index() < w[1].index());
        }
    }
}
