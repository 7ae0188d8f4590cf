//! Differential test: a memoised page program against a fresh run.
//!
//! `Browser::mutate_document_memo` swaps in a stored output instead of
//! running the program when the live document is an unwritten copy of
//! the stored input. Over generated tree documents carrying the elements
//! the three `dynamics` programs look for (or not), a replayed run must
//! leave the browser exactly as a fresh `mutate_document` does: the same
//! document, result, viewport, metrics and query answers. A copy written
//! through `element_mut`, typed text or a page field must miss, and the
//! run it gets instead must still equal a fresh one.

#[path = "../../browser/tests/support/mod.rs"]
mod support;

use hlisa_browser::dom::{standard_test_page, DocumentMutator};
use hlisa_browser::events::MouseButton;
use hlisa_browser::{
    Browser, BrowserConfig, Display, Document, DocumentMemo, ElementBuilder, NodeId, Point,
    RawInput, Rect, World,
};
use hlisa_web::dynamics::{self, ACCEPT_ID, BANNER_ID, CONFIRM_ID, LAZY_ID, LAZY_TARGET_ID};
use proptest::collection::vec;
use proptest::prelude::*;
use std::fmt::Debug;
use std::sync::Arc;
use support::{assert_queries_agree, build_tree_doc, IDS, TAGS};

/// Every id a query check asks for: the generator's and the programs'.
const PROGRAM_IDS: &[&str] = &[BANNER_ID, ACCEPT_ID, LAZY_ID, LAZY_TARGET_ID, CONFIRM_ID];

/// Grafts the elements the programs look for onto a generated document.
/// Each selector byte's top bit leaves its element out (so the programs
/// also meet pages without their target); the low bits pick a parent,
/// or the root level.
fn with_program_targets(mut doc: Document, picks: (u8, u8, u8)) -> Document {
    let ids: Vec<NodeId> = doc.ids().collect();
    let parent = |sel: u8| (sel % 4 != 0 && !ids.is_empty()).then(|| ids[sel as usize % ids.len()]);
    let append = |m: &mut DocumentMutator, parent: Option<NodeId>, el| match parent {
        Some(p) => m.append_child(p, el),
        None => m.append_root(el),
    };
    let (banner, lazy, confirm) = picks;
    doc.mutate(|m| {
        if banner < 128 {
            let b = append(
                m,
                parent(banner),
                ElementBuilder::new("div", Rect::new(100.0, 80.0, 840.0, 240.0))
                    .id(BANNER_ID)
                    .layer(1)
                    .build(),
            );
            m.append_child(
                b,
                ElementBuilder::new("button", Rect::new(124.0, 268.0, 120.0, 32.0))
                    .id(ACCEPT_ID)
                    .build(),
            );
        }
        if lazy < 128 {
            let section = append(
                m,
                parent(lazy),
                ElementBuilder::flow("section", Display::None)
                    .id(LAZY_ID)
                    .build(),
            );
            m.append_child(
                section,
                ElementBuilder::flow(
                    "button",
                    Display::Block {
                        height: 40.0,
                        width_frac: 0.3,
                        margin: 8.0,
                        padding: 0.0,
                    },
                )
                .id(LAZY_TARGET_ID)
                .build(),
            );
        }
        if confirm < 128 {
            append(
                m,
                parent(confirm),
                ElementBuilder::flow(
                    "button",
                    Display::Block {
                        height: 40.0,
                        width_frac: 0.25,
                        margin: 10.0,
                        padding: 0.0,
                    },
                )
                .id(CONFIRM_ID)
                .build(),
            );
        }
    });
    doc
}

fn open(doc: &Document, pristine: &Arc<World>) -> Browser {
    Browser::open_with_world(
        BrowserConfig::webdriver(),
        doc.clone(),
        Arc::clone(pristine),
    )
}

/// Asserts two browsers left by the same program are indistinguishable.
fn assert_same_after<R: PartialEq + Debug>(
    got: (&Browser, R),
    want: (&Browser, R),
    points: &[(f64, f64)],
) {
    let ((a, ra), (b, rb)) = (got, want);
    assert_eq!(ra, rb, "program result");
    assert_eq!(a.document(), b.document(), "document");
    assert_eq!(a.viewport, b.viewport, "viewport");
    assert_eq!(a.metrics(), b.metrics(), "metrics");
    for id in IDS.iter().chain(PROGRAM_IDS) {
        assert_eq!(
            a.document().by_id(id),
            b.document().by_id(id),
            "by_id({id})"
        );
    }
    for tag in TAGS {
        assert_eq!(a.document().by_tag(tag), b.document().by_tag(tag));
    }
    for &(x, y) in points {
        let p = Point::new(x, y);
        assert_eq!(a.document().hit_test(p), b.document().hit_test(p), "{p:?}");
    }
    assert_queries_agree(a.document(), points);
}

/// One program over one page: a first run fills the memo, a replay on an
/// unwritten copy must hit, and both must equal a fresh run. Then a copy
/// written by `write` must miss and still equal a fresh run on an equally
/// written copy.
fn check_program<R: Clone + PartialEq + Debug>(
    doc: &Document,
    program: fn(&mut DocumentMutator) -> R,
    write: impl Fn(&mut Browser),
    points: &[(f64, f64)],
) {
    let pristine = BrowserConfig::webdriver().pristine_world();
    let mut memo = DocumentMemo::new(program);

    let mut fresh = open(doc, &pristine);
    let r_fresh = fresh.mutate_document(program);

    let mut first = open(doc, &pristine);
    let r_first = first.mutate_document_memo(&mut memo);
    assert_eq!(memo.hits(), 0, "the first run cannot replay");
    assert_same_after((&first, r_first), (&fresh, r_fresh.clone()), points);

    let mut replay = open(doc, &pristine);
    let r_replay = replay.mutate_document_memo(&mut memo);
    assert_eq!(memo.hits(), 1, "an unwritten copy must replay");
    assert_same_after((&replay, r_replay), (&fresh, r_fresh), points);

    let mut written = open(doc, &pristine);
    write(&mut written);
    let mut written_fresh = open(doc, &pristine);
    write(&mut written_fresh);
    let r_written_fresh = written_fresh.mutate_document(program);
    let r_written = written.mutate_document_memo(&mut memo);
    assert_eq!(memo.hits(), 1, "a written copy must not replay");
    assert_same_after(
        (&written, r_written),
        (&written_fresh, r_written_fresh),
        points,
    );
}

/// The three programs, each checked against the same written copy.
fn check_all_programs(doc: &Document, write: impl Fn(&mut Browser), points: &[(f64, f64)]) {
    check_program(doc, dynamics::dismiss_banner, &write, points);
    check_program(doc, dynamics::reveal_lazy, &write, points);
    check_program(doc, dynamics::spa_rerender, &write, points);
}

proptest! {
    /// Replays equal fresh runs on generated pages, and a copy written
    /// through `element_mut` misses.
    #[test]
    fn memo_replay_matches_a_fresh_run(
        raw_nodes in vec(
            ((0.0f64..1400.0, 0.0f64..2200.0, 0.0f64..600.0, 0.0f64..900.0,
              0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
             (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255)),
            1..32,
        ),
        picks in (0u8..=255, 0u8..=255, 0u8..=255),
        written in (0u16..=u16::MAX, 0u8..=255),
        points in vec((-100.0f64..1500.0, -100.0f64..2400.0), 1..40),
    ) {
        let doc = with_program_targets(build_tree_doc(&raw_nodes, (1400.0, 2200.0)), picks);
        let (pick, op) = written;
        let write = |b: &mut Browser| {
            let ids: Vec<NodeId> = b.document().ids().collect();
            let id = ids[pick as usize % ids.len()];
            let el = b.document_mut().element_mut(id);
            match op % 3 {
                0 => el.text.push_str("written"),
                1 => el.rect.x += 37.0,
                _ => el.visible = !el.visible,
            }
        };
        check_all_programs(&doc, write, &points);
    }

    /// A copy whose page height was written (the tree untouched) misses.
    #[test]
    fn memo_misses_a_written_page_height(
        raw_nodes in vec(
            ((0.0f64..1400.0, 0.0f64..2200.0, 0.0f64..600.0, 0.0f64..900.0,
              0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
             (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255)),
            1..24,
        ),
        picks in (0u8..=255, 0u8..=255, 0u8..=255),
        grow in 1.0f64..3000.0,
        points in vec((-100.0f64..1500.0, -100.0f64..2400.0), 1..24),
    ) {
        let doc = with_program_targets(build_tree_doc(&raw_nodes, (1400.0, 2200.0)), picks);
        let write = |b: &mut Browser| b.document_mut().page_height += grow;
        check_all_programs(&doc, write, &points);
    }
}

/// A copy written by typing into a focused field misses: the key events
/// append to the element's text through the browser's own input path.
#[test]
fn memo_misses_a_page_written_by_typing() {
    let mut doc = standard_test_page("https://memo.test/", 5_000.0);
    ElementBuilder::new("div", Rect::new(900.0, 600.0, 300.0, 200.0))
        .id(BANNER_ID)
        .layer(1)
        .insert(&mut doc);
    let field = doc.by_id("text_area").unwrap();
    let at = doc.element(field).rect.center();
    let type_into_field = |b: &mut Browser| {
        b.input_after(30.0, RawInput::MouseMove { x: at.x, y: at.y });
        b.input_after(
            10.0,
            RawInput::MouseDown {
                button: MouseButton::Left,
            },
        );
        b.input_after(
            60.0,
            RawInput::MouseUp {
                button: MouseButton::Left,
            },
        );
        b.input_after(80.0, RawInput::KeyDown { key: "q".into() });
        b.input_after(60.0, RawInput::KeyUp { key: "q".into() });
        assert_eq!(b.document().element(field).text, "q");
    };
    check_all_programs(&doc, type_into_field, &[(at.x, at.y), (1000.0, 700.0)]);
}
