//! Differential test: the grid-indexed document queries against the
//! linear-scan reference models.
//!
//! Hit-test targets are an interaction observable — every dispatched
//! pointer event carries one — so the spatial index must be invisible:
//! across arbitrary documents (random boxes, visibility, ids, tags,
//! anchors, overlaps, boxes hanging off the page) and arbitrary query
//! points (inside, on edges, outside the page), `hit_test` must return
//! exactly what the reference scan returns, and the id/tag/anchor maps
//! must match their linear references — including after mid-stream
//! mutations that force an index rebuild. Since the layered page model
//! the same contract covers trees: random parent/child structure, flow
//! layout (`Block`/`Inline`), paint layers, and `Display::None`
//! detachment.

mod support;

use hlisa_browser::dom::{Display, Document};
use proptest::collection::vec;
use proptest::prelude::*;
use support::{assert_queries_agree, build_tree_doc, element, RawElement};

fn build_doc(elements: &[RawElement], page: (f64, f64)) -> Document {
    let mut doc = Document::new("https://differential.test/", page.0, page.1);
    for raw in elements {
        doc.add(element(raw));
    }
    doc
}

proptest! {
    /// Grid-indexed queries equal the linear reference over arbitrary
    /// flat documents and points (the legacy page model).
    #[test]
    fn grid_matches_linear_reference(
        elements in vec(
            (0.0f64..1400.0, 0.0f64..2200.0, 0.0f64..600.0, 0.0f64..900.0,
             0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
            0..60,
        ),
        points in vec((-100.0f64..1500.0, -100.0f64..2400.0), 1..80),
        page_w in 200.0f64..1600.0,
        page_h in 200.0f64..2600.0,
    ) {
        let doc = build_doc(&elements, (page_w, page_h));
        assert_queries_agree(&doc, &points);
    }

    /// Mid-stream mutations (relocation, visibility flips) invalidate the
    /// index; queries afterwards still equal the linear reference.
    #[test]
    fn grid_matches_linear_reference_across_mutations(
        elements in vec(
            (0.0f64..1400.0, 0.0f64..2200.0, 0.0f64..600.0, 0.0f64..900.0,
             0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
            1..40,
        ),
        mutations in vec((0u16..=u16::MAX, 0.0f64..1400.0, 0.0f64..2200.0, 0u8..=255), 1..12),
        points in vec((-100.0f64..1500.0, -100.0f64..2400.0), 1..40),
    ) {
        let mut doc = build_doc(&elements, (1400.0, 2200.0));
        assert_queries_agree(&doc, &points);
        for (pick, x, y, visible) in &mutations {
            let ids: Vec<_> = doc.ids().collect();
            let id = ids[*pick as usize % ids.len()];
            let el = doc.element_mut(id);
            el.rect.x = *x;
            el.rect.y = *y;
            el.visible = *visible & 1 == 1;
            assert_queries_agree(&doc, &points);
        }
    }

    /// Tree documents: random parent/child structure, mixed display
    /// modes (absolute overlays, flowing blocks, wrapping inlines,
    /// detached subtrees), and paint layers in [-2, 2]. Paint-order
    /// hit testing and attachment-filtered locators must equal the
    /// from-scratch linear references.
    #[test]
    fn tree_grid_matches_linear_reference(
        raw_nodes in vec(
            ((0.0f64..1400.0, 0.0f64..2200.0, 0.0f64..600.0, 0.0f64..900.0,
              0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
             (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255)),
            1..48,
        ),
        points in vec((-100.0f64..1500.0, -100.0f64..2400.0), 1..60),
    ) {
        let doc = build_tree_doc(&raw_nodes, (1400.0, 2200.0));
        assert_queries_agree(&doc, &points);
    }

    /// Tree documents under structural mutation: visibility and layer
    /// flips through `element_mut`, plus display changes (detach /
    /// reveal) through the mutator batch. Every revision must keep the
    /// index equal to the references.
    #[test]
    fn tree_grid_matches_linear_reference_across_mutations(
        raw_nodes in vec(
            ((0.0f64..1400.0, 0.0f64..2200.0, 0.0f64..600.0, 0.0f64..900.0,
              0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
             (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255)),
            1..32,
        ),
        mutations in vec((0u16..=u16::MAX, 0u8..=255, 0u8..=255), 1..10),
        points in vec((-100.0f64..1500.0, -100.0f64..2400.0), 1..40),
    ) {
        let mut doc = build_tree_doc(&raw_nodes, (1400.0, 2200.0));
        assert_queries_agree(&doc, &points);
        for (pick, op, val) in &mutations {
            let ids: Vec<_> = doc.ids().collect();
            let id = ids[*pick as usize % ids.len()];
            match op % 3 {
                0 => {
                    let el = doc.element_mut(id);
                    el.visible = val & 1 == 1;
                }
                1 => {
                    doc.element_mut(id).layer = i32::from(val % 5) - 2;
                }
                _ => doc.mutate(|m| {
                    if val & 1 == 1 {
                        m.detach(id);
                    } else {
                        m.set_display(
                            id,
                            Display::Block {
                                height: f64::from(*val) + 1.0,
                                width_frac: 0.5,
                                margin: 2.0,
                                padding: 2.0,
                            },
                        );
                    }
                }),
            }
            assert_queries_agree(&doc, &points);
        }
    }
}
