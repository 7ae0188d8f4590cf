//! Query acceleration for [`crate::dom::Document`].
//!
//! Every pointer sample a driver injects pays a `hit_test`, and every
//! locator call (`by_id`, `by_tag`, `anchor_target`) scans the node
//! arena. At measurement scale — a campaign synthesises millions of
//! pointer samples — those linear scans dominate the interaction
//! pipeline. This module precomputes, per document revision:
//!
//! * the **paint order** of the tree (pre-order traversal, stable-sorted
//!   by cumulative layer) and per-node attachment/visibility, resolving
//!   the z-order/occlusion semantics once;
//! * a **uniform grid** over the page box: one flat candidate array,
//!   cut into cells by per-cell offsets, holding the effectively-visible
//!   elements whose boxes intersect each cell, in paint order, so a hit
//!   test scans one cell instead of the whole tree;
//! * an **id lookup** over *attached* nodes (detached `Display::None`
//!   subtrees are not in the DOM): arena indices sorted by the hash of
//!   their `id` attribute. The tag and anchor lookups have the same
//!   layout and are built on the first `by_tag`/`anchor_target` query
//!   (drives locate by id only, so most revisions never build them).
//!
//! The index holds no strings and no per-cell or per-key allocation: a
//! build is a handful of flat arrays, sized by the node count.
//!
//! The index is built lazily on first query and torn down by any `&mut`
//! access that could change layout or the tree ([`Document::add`],
//! [`Document::add_child`], [`Document::element_mut`],
//! [`Document::mutate`], [`Document::reflow`]), so it can never serve
//! stale geometry.
//!
//! Semantics are *identical* to the linear reference scans, enforced by a
//! differential proptest (`tests/hit_test_differential.rs`):
//!
//! * paint order is pre-order position stable-sorted by effective layer,
//!   so scanning a cell back-to-front and taking the first
//!   `rect.contains(p)` match returns the same topmost
//!   effectively-visible element the reference's max-key scan finds (for
//!   flat layer-0 documents both degenerate to arena order — the old
//!   flat z-semantics);
//! * cell coverage uses the same inclusive interval arithmetic as
//!   [`crate::geometry::Rect::contains`], and both rect spans and query
//!   points are clamped to the grid with the same monotone mapping, so an
//!   element containing a point is always present in the point's cell —
//!   even for boxes or points outside the page bounds;
//! * the lookups are sorted by (hash, arena index), so one key's
//!   candidates come out in arena order, and each candidate is checked
//!   against the node's real string: a hash collision can cost a
//!   comparison but never answer for another key. `by_id` and
//!   `anchor_target` take the first match, `by_tag` all of them.

use crate::dom::{Display, Element, Node, NodeId};
use crate::geometry::{Point, Rect};
use std::sync::OnceLock;

/// Hard cap on grid cells per axis: bounds memory for huge pages while
/// keeping cells small enough that dense documents spread out.
const MAX_CELLS_PER_AXIS: usize = 64;

/// Precomputed lookup structures for one document revision.
#[derive(Debug)]
pub(crate) struct DocumentIndex {
    /// Every attached element by its `id` attribute. The empty id is
    /// indexed like any other so `by_id("")` matches the linear reference
    /// (which finds the first attached unnamed element).
    by_id: HashedKeys,
    /// The tag and anchor lookups, built on first use.
    locators: OnceLock<Locators>,
    /// Effectively-visible elements intersecting each cell, in paint
    /// order (bottom → top): cell `i` is
    /// `cell_nodes[cell_start[i]..cell_start[i + 1]]`.
    cell_nodes: Vec<NodeId>,
    cell_start: Vec<usize>,
    cols: usize,
    rows: usize,
    cell_w: f64,
    cell_h: f64,
}

/// The lookups only the `by_tag` and `anchor_target` queries read.
#[derive(Debug)]
struct Locators {
    /// Every attached element by tag.
    by_tag: HashedKeys,
    /// Every attached element that names an anchor, by anchor name.
    by_anchor: HashedKeys,
}

/// Arena indices sorted by (hash of one string attribute, arena index):
/// one hash's entries form a contiguous run in arena order.
#[derive(Debug)]
struct HashedKeys(Vec<(u64, NodeId)>);

impl HashedKeys {
    fn new(mut entries: Vec<(u64, NodeId)>) -> Self {
        // Arena indices are unique, so the unstable sort is deterministic.
        entries.sort_unstable();
        Self(entries)
    }

    /// The nodes whose attribute (read by `attr`) equals `key`, in arena
    /// order.
    fn matches<'a>(
        &'a self,
        nodes: &'a [Node],
        key: &'a str,
        attr: fn(&Element) -> Option<&str>,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let h = key_hash(key);
        let start = self.0.partition_point(|&(k, _)| k < h);
        self.0[start..]
            .iter()
            .take_while(move |&&(k, _)| k == h)
            .map(|&(_, id)| id)
            .filter(move |id| attr(&nodes[id.index()].el) == Some(key))
    }
}

fn id_attr(el: &Element) -> Option<&str> {
    Some(&el.id)
}

fn tag_attr(el: &Element) -> Option<&str> {
    Some(&el.tag)
}

fn anchor_attr(el: &Element) -> Option<&str> {
    el.anchor.as_deref()
}

/// FNV-1a over the key's bytes: fixed across processes, so the index
/// layout is as deterministic as the document.
fn key_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl DocumentIndex {
    /// Builds the index for the current tree contents.
    pub(crate) fn build(
        nodes: &[Node],
        roots: &[NodeId],
        page_width: f64,
        page_height: f64,
    ) -> Self {
        // One pre-order traversal resolves, per attached node (no
        // `Display::None` on the ancestor path): its cumulative paint
        // layer and effective visibility (no hidden ancestor). The list
        // is in pre-order.
        let n = nodes.len();
        let mut paint: Vec<(i64, bool, NodeId)> = Vec::with_capacity(n);
        // Stack entries carry the parent's accumulated (layer, visible).
        let mut stack: Vec<(NodeId, i64, bool)> =
            roots.iter().rev().map(|&r| (r, 0i64, true)).collect();
        while let Some((id, parent_layer, parent_visible)) = stack.pop() {
            let node = &nodes[id.index()];
            if node.el.display == Display::None {
                // The whole subtree stays detached.
                continue;
            }
            let layer = parent_layer + i64::from(node.el.layer);
            let visible = parent_visible && node.el.visible;
            paint.push((layer, visible, id));
            for &c in node.children.iter().rev() {
                stack.push((c, layer, visible));
            }
        }
        // Paint order: pre-order, stable-sorted by effective layer. The
        // stable sort keeps document order within a layer, so flat
        // layer-0 pages paint in arena order exactly as before.
        paint.sort_by_key(|&(layer, _, _)| layer);

        let by_id = HashedKeys::new(
            paint
                .iter()
                .map(|&(_, _, id)| (key_hash(&nodes[id.index()].el.id), id))
                .collect(),
        );

        // Cell sizing: aim for O(1) candidates per cell on spread-out
        // documents without exploding memory on sparse ones.
        let axis = (n as f64).sqrt().ceil() as usize;
        let cols = axis.clamp(1, MAX_CELLS_PER_AXIS);
        let rows = axis.clamp(1, MAX_CELLS_PER_AXIS);
        let cell_w = page_width / cols as f64;
        let cell_h = page_height / rows as f64;
        let span = |rect: Rect| {
            // Monotone, clamped span → every cell a contained point
            // can map to is covered (see the module docs).
            (
                cell_coord(rect.x, cell_w, cols)..=cell_coord(rect.x + rect.width, cell_w, cols),
                cell_coord(rect.y, cell_h, rows)..=cell_coord(rect.y + rect.height, cell_h, rows),
            )
        };
        let visible_rects = || {
            paint
                .iter()
                .filter(|&&(_, visible, _)| visible)
                .map(|&(_, _, id)| (id, nodes[id.index()].el.rect))
        };

        // Spatial grid in two passes over the effectively-visible nodes
        // in paint order: count each cell's candidates, turn the counts
        // into offsets, then fill each cell bottom → top.
        let ncells = cols * rows;
        let mut cell_start = vec![0usize; ncells + 1];
        for (_, rect) in visible_rects() {
            let (cs, rs) = span(rect);
            for r in rs {
                for c in cs.clone() {
                    cell_start[r * cols + c + 1] += 1;
                }
            }
        }
        for i in 0..ncells {
            cell_start[i + 1] += cell_start[i];
        }
        let mut cursor = cell_start[..ncells].to_vec();
        let mut cell_nodes = vec![NodeId(0); cell_start[ncells]];
        for (id, rect) in visible_rects() {
            let (cs, rs) = span(rect);
            for r in rs {
                for c in cs.clone() {
                    let slot = &mut cursor[r * cols + c];
                    cell_nodes[*slot] = id;
                    *slot += 1;
                }
            }
        }
        Self {
            by_id,
            locators: OnceLock::new(),
            cell_nodes,
            cell_start,
            cols,
            rows,
            cell_w,
            cell_h,
        }
    }

    /// The tag and anchor lookups, built on first use from the attached
    /// nodes (exactly the `by_id` entries).
    fn locators(&self, nodes: &[Node]) -> &Locators {
        self.locators.get_or_init(|| {
            let attached = || {
                self.by_id
                    .0
                    .iter()
                    .map(|&(_, id)| (id, &nodes[id.index()].el))
            };
            Locators {
                by_tag: HashedKeys::new(
                    attached().map(|(id, el)| (key_hash(&el.tag), id)).collect(),
                ),
                by_anchor: HashedKeys::new(
                    attached()
                        .filter_map(|(id, el)| el.anchor.as_deref().map(|a| (key_hash(a), id)))
                        .collect(),
                ),
            }
        })
    }

    /// Fast path for [`crate::dom::Document::by_id`].
    pub(crate) fn by_id(&self, nodes: &[Node], id: &str) -> Option<NodeId> {
        self.by_id.matches(nodes, id, id_attr).next()
    }

    /// Fast path for [`crate::dom::Document::by_tag`] (arena order).
    pub(crate) fn by_tag(&self, nodes: &[Node], tag: &str) -> Vec<NodeId> {
        self.locators(nodes)
            .by_tag
            .matches(nodes, tag, tag_attr)
            .collect()
    }

    /// Fast path for [`crate::dom::Document::anchor_target`].
    pub(crate) fn anchor_target(&self, nodes: &[Node], name: &str) -> Option<NodeId> {
        self.locators(nodes)
            .by_anchor
            .matches(nodes, name, anchor_attr)
            .next()
    }

    /// Fast path for [`crate::dom::Document::hit_test`]: topmost
    /// effectively-visible element containing the point. Scans one cell
    /// back-to-front; the cell holds candidates in paint order.
    pub(crate) fn hit_test(&self, nodes: &[Node], p: Point) -> Option<NodeId> {
        let c = cell_coord(p.x, self.cell_w, self.cols);
        let r = cell_coord(p.y, self.cell_h, self.rows);
        let cell = r * self.cols + c;
        self.cell_nodes[self.cell_start[cell]..self.cell_start[cell + 1]]
            .iter()
            .rev()
            .find(|id| nodes[id.index()].el.rect.contains(p))
            .copied()
    }
}

/// Maps a coordinate to a clamped cell index along one axis.
fn cell_coord(v: f64, cell_size: f64, n: usize) -> usize {
    if cell_size <= 0.0 || !v.is_finite() {
        return 0;
    }
    let idx = (v / cell_size).floor();
    if idx <= 0.0 {
        0
    } else {
        (idx as usize).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::ElementBuilder;

    #[test]
    fn a_hash_collision_never_answers_for_another_key() {
        let nodes: Vec<Node> = ["x", "y"]
            .iter()
            .map(|id| Node {
                el: ElementBuilder::new("div", Rect::new(0.0, 0.0, 10.0, 10.0))
                    .id(id)
                    .build(),
                parent: None,
                children: Vec::new(),
                depth: 0,
            })
            .collect();
        // Both nodes filed under the hash of "x", as if "y" collided.
        let keys = HashedKeys::new(vec![(key_hash("x"), NodeId(1)), (key_hash("x"), NodeId(0))]);
        assert_eq!(
            keys.matches(&nodes, "x", id_attr).collect::<Vec<_>>(),
            [NodeId(0)]
        );
        assert_eq!(keys.matches(&nodes, "y", id_attr).next(), None);
    }
}
