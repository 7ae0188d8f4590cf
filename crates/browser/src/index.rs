//! Query acceleration for [`crate::dom::Document`].
//!
//! Every pointer sample a driver injects pays a `hit_test`, and every
//! drive locates its targets with `by_id`. At measurement scale — a
//! campaign synthesises millions of pointer samples — linear scans of
//! the node arena would dominate the interaction pipeline. The other
//! locators (`by_tag`, `anchor_target`) have no hot caller and stay
//! linear scans in `dom.rs`. This module precomputes, per document
//! revision:
//!
//! * the **paint order** of the tree (pre-order traversal, stable-sorted
//!   by cumulative layer) and per-node attachment/visibility, resolving
//!   the z-order/occlusion semantics once;
//! * **inline boxes**: the effectively-visible elements' boxes copied, in
//!   paint order, into one contiguous `Rect` array, with the owning node
//!   of each box in a parallel array, so a hit test reads 32-byte boxes
//!   instead of whole arena nodes;
//! * **row bands** over the page height: one flat array of `u32` paint
//!   positions, cut into bands by per-band offsets, holding the boxes
//!   that intersect each band, in paint order. A hit test scans one band
//!   instead of the whole tree, and a full-width container is filed once
//!   per band it spans (a 2-D grid files it once per cell);
//! * an **id lookup** over *attached* nodes (detached `Display::None`
//!   subtrees are not in the DOM) that carry a non-empty `id`: arena
//!   indices sorted by the hash of their `id` attribute. The empty id
//!   names no element, so it is not filed.
//!
//! The index holds no strings and no per-band or per-key allocation: a
//! build is a handful of flat arrays, sized by the node count.
//!
//! The index is built lazily on first query and torn down by any `&mut`
//! access that could change layout or the tree ([`Document::add`],
//! [`Document::add_child`], [`Document::element_mut`],
//! [`Document::mutate`], [`Document::reflow`]), so it can never serve
//! stale geometry.
//!
//! Semantics are *identical* to the linear reference scans, enforced by
//! differential proptests over random documents
//! (`tests/hit_test_differential.rs`) and over the generated scenario
//! pages a crawl drives (`hlisa-web`'s `tests/index_differential.rs`):
//!
//! * paint order is pre-order position stable-sorted by effective layer,
//!   so scanning a band back-to-front and taking the first
//!   `rect.contains(p)` match returns the same topmost
//!   effectively-visible element the reference's max-key scan finds (for
//!   flat layer-0 documents both degenerate to arena order — the old
//!   flat z-semantics);
//! * band coverage uses the same inclusive interval arithmetic as
//!   [`crate::geometry::Rect::contains`], and both box spans and query
//!   points are clamped to the bands with the same monotone mapping, so
//!   an element containing a point is always present in the point's
//!   band — even for boxes or points outside the page bounds;
//! * the id lookup is sorted by (hash, arena index), so one id's
//!   candidates come out in arena order, and each candidate is checked
//!   against the node's real id: a hash collision can cost a comparison
//!   but never answer for another id. `by_id` takes the first match.

use crate::dom::{Display, Node, NodeId};
use crate::geometry::{Point, Rect};

/// Hard cap on row bands: bounds memory for huge pages while keeping
/// bands thin enough that dense documents spread out.
const MAX_BANDS: usize = 64;

/// Precomputed lookup structures for one document revision.
#[derive(Debug)]
pub(crate) struct DocumentIndex {
    /// Every attached element with a non-empty `id` attribute, by id.
    by_id: HashedKeys,
    /// The effectively-visible elements' boxes in paint order (bottom →
    /// top); `painted[i]` is the node `boxes[i]` belongs to.
    boxes: Vec<Rect>,
    painted: Vec<NodeId>,
    /// Paint positions of the boxes intersecting each band, ascending:
    /// band `i` is `band_boxes[band_start[i]..band_start[i + 1]]`.
    band_boxes: Vec<u32>,
    band_start: Vec<usize>,
    band_h: f64,
}

/// Arena indices sorted by (hash of their `id` attribute, arena index):
/// one hash's entries form a contiguous run in arena order.
#[derive(Debug)]
struct HashedKeys(Vec<(u64, NodeId)>);

impl HashedKeys {
    fn new(mut entries: Vec<(u64, NodeId)>) -> Self {
        // Arena indices are unique, so the unstable sort is deterministic.
        entries.sort_unstable();
        Self(entries)
    }

    /// The nodes whose `id` equals `key`, in arena order.
    fn matches<'a>(&'a self, nodes: &'a [Node], key: &'a str) -> impl Iterator<Item = NodeId> + 'a {
        let h = key_hash(key);
        let start = self.0.partition_point(|&(k, _)| k < h);
        self.0[start..]
            .iter()
            .take_while(move |&&(k, _)| k == h)
            .map(|&(_, id)| id)
            .filter(move |id| nodes[id.index()].el.id == key)
    }
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
    pub(crate) fn build(nodes: &[Node], roots: &[NodeId], page_height: f64) -> Self {
        // One pre-order traversal resolves, per attached node (no
        // `Display::None` on the ancestor path): its cumulative paint
        // layer and effective visibility (no hidden ancestor). The list
        // is in pre-order.
        let n = nodes.len();
        let mut paint: Vec<(i64, bool, NodeId)> = Vec::with_capacity(n);
        // Stack entries carry the parent's accumulated (layer, visible).
        // A node is pushed at most once, so `n` slots never regrow.
        let mut stack: Vec<(NodeId, i64, bool)> = Vec::with_capacity(n);
        stack.extend(roots.first().map(|&r| (r, 0i64, true)));
        while let Some((id, parent_layer, parent_visible)) = stack.pop() {
            let node = &nodes[id.index()];
            // The next sibling waits under this subtree, which goes first.
            stack.extend(node.next_sibling.map(|s| (s, parent_layer, parent_visible)));
            if node.el.display == Display::None {
                // The whole subtree stays detached.
                continue;
            }
            let layer = parent_layer + i64::from(node.el.layer);
            let visible = parent_visible && node.el.visible;
            paint.push((layer, visible, id));
            stack.extend(node.first_child.map(|c| (c, layer, visible)));
        }
        // Paint order: pre-order, stable-sorted by effective layer. The
        // stable sort keeps document order within a layer, so flat
        // layer-0 pages paint in arena order exactly as before.
        paint.sort_by_key(|&(layer, _, _)| layer);

        // One allocation, sized for every attached node; the unnamed
        // ones (about half a generated page) are skipped.
        let mut ids = Vec::with_capacity(paint.len());
        for &(_, _, id) in &paint {
            let key = &nodes[id.index()].el.id;
            if !key.is_empty() {
                ids.push((key_hash(key), id));
            }
        }
        let by_id = HashedKeys::new(ids);
        let visible = paint.iter().filter(|&&(_, visible, _)| visible).count();
        let mut boxes = Vec::with_capacity(visible);
        let mut painted = Vec::with_capacity(visible);
        for &(_, _, id) in paint.iter().filter(|&&(_, visible, _)| visible) {
            boxes.push(nodes[id.index()].el.rect);
            painted.push(id);
        }

        // Band sizing: aim for O(1) candidates per band on spread-out
        // documents without exploding memory on sparse ones.
        let bands = ((n as f64).sqrt().ceil() as usize).clamp(1, MAX_BANDS);
        let band_h = page_height / bands as f64;
        // Monotone, clamped span → every band a contained point can map
        // to is covered (see the module docs).
        let span = |rect: &Rect| {
            band_of(rect.y, band_h, bands)..=band_of(rect.y + rect.height, band_h, bands)
        };

        // Bands in two passes over the boxes: count each band's boxes
        // and turn the counts into band ends, then fill top → bottom,
        // stepping each band's end down. Each band comes out in paint
        // order and its end has moved to its start.
        let mut band_start = vec![0usize; bands + 1];
        for rect in &boxes {
            for b in span(rect) {
                band_start[b] += 1;
            }
        }
        for b in 1..=bands {
            band_start[b] += band_start[b - 1];
        }
        let mut band_boxes = vec![0u32; band_start[bands]];
        for (pos, rect) in boxes.iter().enumerate().rev() {
            for b in span(rect) {
                band_start[b] -= 1;
                band_boxes[band_start[b]] = pos as u32;
            }
        }
        Self {
            by_id,
            boxes,
            painted,
            band_boxes,
            band_start,
            band_h,
        }
    }

    /// Fast path for [`crate::dom::Document::by_id`].
    pub(crate) fn by_id(&self, nodes: &[Node], id: &str) -> Option<NodeId> {
        self.by_id.matches(nodes, id).next()
    }

    /// Fast path for [`crate::dom::Document::hit_test`]: topmost
    /// effectively-visible element containing the point. Scans one band
    /// back-to-front; the band lists its boxes in paint order.
    pub(crate) fn hit_test(&self, p: Point) -> Option<NodeId> {
        let band = band_of(p.y, self.band_h, self.band_start.len() - 1);
        self.band_boxes[self.band_start[band]..self.band_start[band + 1]]
            .iter()
            .rev()
            .find(|&&pos| self.boxes[pos as usize].contains(p))
            .map(|&pos| self.painted[pos as usize])
    }
}

/// Maps a coordinate to a clamped band index. A quotient below 1
/// (negative ones included) is band 0, and `as` truncates any other to
/// its floor, so no `floor()` is needed.
fn band_of(v: f64, band_h: f64, bands: usize) -> usize {
    if band_h <= 0.0 || !v.is_finite() {
        return 0;
    }
    let idx = v / band_h;
    if idx < 1.0 {
        0
    } else {
        (idx as usize).min(bands - 1)
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
                    .id(*id)
                    .build(),
                parent: None,
                first_child: None,
                last_child: None,
                next_sibling: None,
                depth: 0,
            })
            .collect();
        // Both nodes filed under the hash of "x", as if "y" collided.
        let keys = HashedKeys::new(vec![(key_hash("x"), NodeId(1)), (key_hash("x"), NodeId(0))]);
        assert_eq!(keys.matches(&nodes, "x").collect::<Vec<_>>(), [NodeId(0)]);
        assert_eq!(keys.matches(&nodes, "y").next(), None);
    }
}
