//! Differential test: one reflow equals many.
//!
//! [`Document::reflow`] is a pure function of the tree, so a document
//! built in one `mutate` batch (one reflow, after the last insertion)
//! must equal the same tree built node by node through `add`/`add_child`
//! (a reflow after every insertion): the same boxes, the same page
//! extent, and the same answer to every query. Page generation relies on
//! this to build each page with a single reflow.

mod support;

use hlisa_browser::Point;
use proptest::collection::vec;
use proptest::prelude::*;
use support::{assert_queries_agree, build_tree_doc, build_tree_doc_batched, ANCHORS, IDS, TAGS};

proptest! {
    #[test]
    fn one_batch_builds_the_same_document_as_node_by_node_inserts(
        raw_nodes in vec(
            ((0.0f64..1400.0, 0.0f64..2200.0, 0.0f64..600.0, 0.0f64..900.0,
              0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
             (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255)),
            1..48,
        ),
        points in vec((-100.0f64..1500.0, -100.0f64..2400.0), 1..60),
        page_w in 200.0f64..1600.0,
        page_h in 200.0f64..2600.0,
    ) {
        let one_by_one = build_tree_doc(&raw_nodes, (page_w, page_h));
        let batched = build_tree_doc_batched(&raw_nodes, (page_w, page_h));
        prop_assert_eq!(&one_by_one, &batched);
        // `{:?}` prints every float in its shortest round-trip form, so
        // equal renderings mean bit-equal boxes and page extents.
        prop_assert_eq!(format!("{one_by_one:?}"), format!("{batched:?}"));
        prop_assert_eq!(one_by_one.page_height.to_bits(), batched.page_height.to_bits());
        for (x, y) in &points {
            let p = Point::new(*x, *y);
            prop_assert_eq!(one_by_one.hit_test(p), batched.hit_test(p));
        }
        for id in IDS {
            prop_assert_eq!(one_by_one.by_id(id), batched.by_id(id));
        }
        for tag in TAGS {
            prop_assert_eq!(one_by_one.by_tag(tag), batched.by_tag(tag));
        }
        for name in ANCHORS.iter().flatten() {
            prop_assert_eq!(one_by_one.anchor_target(name), batched.anchor_target(name));
        }
        assert_queries_agree(&batched, &points);
    }
}
