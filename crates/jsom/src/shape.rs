//! Hidden classes (shapes) with a transition tree.
//!
//! Objects that acquire the same properties in the same order share one
//! *shape*: an immutable record of the key list plus an atom-indexed
//! offset table. An object then stores only its shape id and a dense
//! `Vec` of property slots; own-property lookup is `atom → offset` in
//! O(1) instead of a linear string scan.
//!
//! The detectability-critical invariant (Table 1 of the paper treats
//! `Object.keys` order as an observable): a shape's `keys` are exactly
//! the insertion-ordered key list of the old `Vec<(String, …)>` model,
//! and a property's offset equals its position in that list. Shapes are
//! only ever created by appending one key to an existing shape, so the
//! invariant holds by construction; deletion re-derives the surviving
//! key list from the root, preserving relative order.
//!
//! Like the atom table, the forest is shared copy-on-write: realm clones
//! (snapshot stamps) bump one `Arc`, and only a post-clone *new*
//! transition copies the storage.

use crate::atom::Atom;
use std::sync::Arc;

/// Handle to a shape in a [`ShapeForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeId(u32);

impl ShapeId {
    /// The empty root shape every forest starts with.
    pub const ROOT: ShapeId = ShapeId(0);

    fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, PartialEq, Default)]
struct Shape {
    /// Own keys in insertion order; a property's offset is its position.
    keys: Vec<Atom>,
    /// Atom index → property offset + 1; 0 means absent. Sized to the
    /// highest atom this shape holds, so lookups are one bounds-checked
    /// array read.
    offsets: Vec<u32>,
    /// Cached add-transitions: `(key, child shape)`.
    add: Vec<(Atom, ShapeId)>,
    /// Cached delete-transitions: `(key, surviving shape)`.
    del: Vec<(Atom, ShapeId)>,
}

impl Shape {
    fn offset_of(&self, atom: Atom) -> Option<usize> {
        match self.offsets.get(atom.index()) {
            Some(&slot) if slot > 0 => Some(slot as usize - 1),
            _ => None,
        }
    }
}

/// All shapes of a realm, rooted at [`ShapeId::ROOT`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeForest {
    shapes: Arc<Vec<Shape>>,
}

impl ShapeForest {
    /// A forest holding only the empty root shape.
    pub fn new() -> Self {
        Self {
            shapes: Arc::new(vec![Shape::default()]),
        }
    }

    /// Number of distinct shapes ever created.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Always false: the root shape exists from construction.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// The insertion-ordered key list of a shape.
    pub fn keys(&self, shape: ShapeId) -> &[Atom] {
        &self.shapes[shape.index()].keys
    }

    /// Number of own properties a shape describes.
    #[cfg(test)]
    pub fn key_count(&self, shape: ShapeId) -> usize {
        self.shapes[shape.index()].keys.len()
    }

    /// O(1) offset of `atom` within objects of `shape`, if present.
    pub fn offset_of(&self, shape: ShapeId, atom: Atom) -> Option<usize> {
        self.shapes[shape.index()].offset_of(atom)
    }

    /// Whether this forest shares storage with `other`.
    #[cfg(test)]
    pub fn shares_storage_with(&self, other: &ShapeForest) -> bool {
        Arc::ptr_eq(&self.shapes, &other.shapes)
    }

    /// The shape reached by appending `atom` to `shape`. Cached, so two
    /// objects built with the same key sequence share every intermediate
    /// shape. The caller guarantees `atom` is not already present.
    pub fn transition_add(&mut self, shape: ShapeId, atom: Atom) -> ShapeId {
        debug_assert!(
            self.offset_of(shape, atom).is_none(),
            "transition_add on a present key"
        );
        if let Some(&(_, child)) = self.shapes[shape.index()]
            .add
            .iter()
            .find(|(a, _)| *a == atom)
        {
            return child;
        }
        let parent = &self.shapes[shape.index()];
        let mut keys = Vec::with_capacity(parent.keys.len() + 1);
        keys.extend_from_slice(&parent.keys);
        keys.push(atom);
        let mut offsets = parent.offsets.clone();
        if offsets.len() <= atom.index() {
            offsets.resize(atom.index() + 1, 0);
        }
        // 2^32 properties / shapes exceeds any simulated page; wrapping
        // silently would corrupt slot lookup. lint: allow(no-panic)
        offsets[atom.index()] = u32::try_from(keys.len()).expect("shape width overflow");
        // Same capacity invariant as above. lint: allow(no-panic)
        let child_id = ShapeId(u32::try_from(self.shapes.len()).expect("shape forest overflow"));
        let shapes = Arc::make_mut(&mut self.shapes);
        shapes.push(Shape {
            keys,
            offsets,
            add: Vec::new(),
            del: Vec::new(),
        });
        shapes[shape.index()].add.push((atom, child_id));
        child_id
    }

    /// The shape reached by deleting `atom` from `shape`: the root
    /// re-extended with every surviving key in original order (so
    /// enumeration order is exactly the linear model's post-`remove`
    /// order). Returns `shape` unchanged when the key is absent. Cached
    /// per `(shape, atom)`.
    pub fn transition_remove(&mut self, shape: ShapeId, atom: Atom) -> ShapeId {
        if self.offset_of(shape, atom).is_none() {
            return shape;
        }
        if let Some(&(_, child)) = self.shapes[shape.index()]
            .del
            .iter()
            .find(|(a, _)| *a == atom)
        {
            return child;
        }
        let survivors: Vec<Atom> = self.shapes[shape.index()]
            .keys
            .iter()
            .copied()
            .filter(|&k| k != atom)
            .collect();
        let mut cur = ShapeId::ROOT;
        for k in survivors {
            cur = self.transition_add(cur, k);
        }
        Arc::make_mut(&mut self.shapes)[shape.index()]
            .del
            .push((atom, cur));
        cur
    }
}

impl Default for ShapeForest {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomTable;

    fn atoms(names: &[&str]) -> (AtomTable, Vec<Atom>) {
        let mut t = AtomTable::new();
        let v = names.iter().map(|n| t.intern(n)).collect();
        (t, v)
    }

    #[test]
    fn offsets_match_insertion_positions() {
        let (_, a) = atoms(&["x", "y", "z"]);
        let mut f = ShapeForest::new();
        let mut s = ShapeId::ROOT;
        for &atom in &a {
            s = f.transition_add(s, atom);
        }
        assert_eq!(f.key_count(s), 3);
        for (i, &atom) in a.iter().enumerate() {
            assert_eq!(f.offset_of(s, atom), Some(i));
        }
        assert_eq!(f.keys(s), a.as_slice());
    }

    #[test]
    fn same_key_sequence_shares_shapes() {
        let (_, a) = atoms(&["x", "y"]);
        let mut f = ShapeForest::new();
        let s1 = {
            let s = f.transition_add(ShapeId::ROOT, a[0]);
            f.transition_add(s, a[1])
        };
        let before = f.len();
        let s2 = {
            let s = f.transition_add(ShapeId::ROOT, a[0]);
            f.transition_add(s, a[1])
        };
        assert_eq!(s1, s2, "cached transitions must be reused");
        assert_eq!(f.len(), before, "no new shapes for a repeated sequence");
    }

    #[test]
    fn different_orders_get_different_shapes() {
        let (_, a) = atoms(&["x", "y"]);
        let mut f = ShapeForest::new();
        let xy = {
            let s = f.transition_add(ShapeId::ROOT, a[0]);
            f.transition_add(s, a[1])
        };
        let yx = {
            let s = f.transition_add(ShapeId::ROOT, a[1]);
            f.transition_add(s, a[0])
        };
        assert_ne!(xy, yx, "insertion order is part of the shape");
        assert_eq!(f.keys(xy), &[a[0], a[1]]);
        assert_eq!(f.keys(yx), &[a[1], a[0]]);
    }

    #[test]
    fn remove_preserves_surviving_order_and_caches() {
        let (_, a) = atoms(&["x", "y", "z"]);
        let mut f = ShapeForest::new();
        let mut s = ShapeId::ROOT;
        for &atom in &a {
            s = f.transition_add(s, atom);
        }
        let without_y = f.transition_remove(s, a[1]);
        assert_eq!(f.keys(without_y), &[a[0], a[2]]);
        assert_eq!(f.offset_of(without_y, a[0]), Some(0));
        assert_eq!(f.offset_of(without_y, a[2]), Some(1));
        assert_eq!(f.offset_of(without_y, a[1]), None);
        // Cached: removing again creates no shapes.
        let before = f.len();
        assert_eq!(f.transition_remove(s, a[1]), without_y);
        assert_eq!(f.len(), before);
        // Removing an absent key is the identity.
        assert_eq!(f.transition_remove(without_y, a[1]), without_y);
    }

    #[test]
    fn clones_share_until_a_new_transition() {
        let (_, a) = atoms(&["x", "y"]);
        let mut f = ShapeForest::new();
        let s = f.transition_add(ShapeId::ROOT, a[0]);
        let mut g = f.clone();
        assert!(f.shares_storage_with(&g));
        // A cached transition does not un-share.
        g.transition_add(ShapeId::ROOT, a[0]);
        assert!(f.shares_storage_with(&g));
        // A new one copies on write.
        g.transition_add(s, a[1]);
        assert!(!f.shares_storage_with(&g));
        assert_eq!(f.len(), 2);
        assert_eq!(g.len(), 3);
    }
}
