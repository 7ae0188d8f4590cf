//! Document generators and query checks shared by the browser's
//! differential tests (and, by path, by other crates' tests over
//! generated documents).

#![allow(dead_code)]

use hlisa_browser::dom::{Display, Document, Element};
use hlisa_browser::{Point, Rect};

pub const TAGS: &[&str] = &["div", "a", "button", "input", "span", "h2"];
pub const IDS: &[&str] = &["", "submit", "text_area", "jump", "honey", "other"];
pub const ANCHORS: &[Option<&str>] = &[None, None, Some("end"), Some("top")];

/// Raw element bytes: box `(x, y, w, h)`, then tag, id, anchor and
/// visibility selectors.
pub type RawElement = (f64, f64, f64, f64, u8, u8, u8, u8);

/// One element decoded from a raw tuple so proptest drives the geometry.
/// The last byte's low bit carries visibility (the vendored proptest
/// subset has no `bool` strategy).
pub fn element(raw: &RawElement) -> Element {
    let (x, y, w, h, tag, id, anchor, visible) = *raw;
    Element {
        tag: TAGS[tag as usize % TAGS.len()],
        id: IDS[id as usize % IDS.len()].to_string(),
        rect: Rect::new(x, y, w, h),
        display: Display::Absolute,
        layer: 0,
        visible: visible & 1 == 1,
        focusable: false,
        anchor: ANCHORS[anchor as usize % ANCHORS.len()].map(str::to_string),
        text: String::new(),
    }
}

pub fn assert_queries_agree(doc: &Document, points: &[(f64, f64)]) {
    for (x, y) in points {
        let p = Point::new(*x, *y);
        assert_eq!(doc.hit_test(p), doc.hit_test_linear(p), "hit_test at {p:?}");
    }
    for id_attr in IDS {
        assert_eq!(doc.by_id(id_attr), doc.by_id_linear(id_attr));
    }
}

/// Decodes one tree node: geometry + identity bytes as in [`element`],
/// plus structure bytes choosing parent, display mode, and paint layer.
pub type RawTreeNode = (RawElement, (u8, u8, u8, u8));

/// Decodes raw tree nodes into insertion order: each element with the
/// position (in this list) of its parent, or `None` for a root. Node 0
/// is always a root, and a parent always precedes its children.
pub fn decode_tree(raw_nodes: &[RawTreeNode]) -> Vec<(Option<usize>, Element)> {
    raw_nodes
        .iter()
        .enumerate()
        .map(|(i, (geom, (parent_sel, display_sel, layer, aux)))| {
            let mut el = element(geom);
            el.display = match display_sel % 8 {
                0..=2 => Display::Absolute,
                3..=5 => Display::Block {
                    height: geom.3.max(1.0),
                    width_frac: 0.2 + f64::from(*aux % 80) / 100.0,
                    margin: f64::from(*aux % 16),
                    padding: f64::from(*aux % 8),
                },
                6 => Display::Inline {
                    width: geom.2.max(1.0),
                    height: geom.3.max(1.0),
                    margin: f64::from(*aux % 10),
                },
                _ => Display::None,
            };
            el.layer = i32::from(*layer % 5) - 2;
            let parent = (i > 0 && parent_sel % 4 != 0).then(|| *parent_sel as usize % i);
            (parent, el)
        })
        .collect()
}

/// Builds the decoded tree node by node (`add`/`add_child`), reflowing
/// after every insertion.
pub fn build_tree_doc(raw_nodes: &[RawTreeNode], page: (f64, f64)) -> Document {
    let mut doc = Document::new("https://differential.test/", page.0, page.1);
    let mut inserted = Vec::new();
    for (parent, el) in decode_tree(raw_nodes) {
        let id = match parent {
            None => doc.add(el),
            Some(p) => doc.add_child(inserted[p], el),
        };
        inserted.push(id);
    }
    doc
}

/// Builds the decoded tree in one `mutate` batch, reflowing once.
pub fn build_tree_doc_batched(raw_nodes: &[RawTreeNode], page: (f64, f64)) -> Document {
    let mut doc = Document::new("https://differential.test/", page.0, page.1);
    doc.mutate(|m| {
        let mut inserted = Vec::new();
        for (parent, el) in decode_tree(raw_nodes) {
            let id = match parent {
                None => m.append_root(el),
                Some(p) => m.append_child(inserted[p], el),
            };
            inserted.push(id);
        }
    });
    doc
}
