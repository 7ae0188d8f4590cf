//! Synthetic page structure: nested DOM trees for the site population.
//!
//! The flat box-soup pages of the early model could not express the
//! breakage classes the paper's Table 2 attributes to page *structure* —
//! overlays occluding targets, content that only exists after layout,
//! deep containers. This module grows a site's page as a real tree:
//! containers nest to a configurable depth with a configurable branching
//! factor, leaves are content elements, and geometry comes exclusively
//! from the browser's deterministic flow layout (never authored).
//!
//! All randomness is drawn from the `"site"` stream of the provided
//! [`SimContext`], so a page is a pure function of (context seed,
//! structure config, site) — two machines generating the same site get
//! bit-identical trees, and the layout pass adds no randomness on top.

use crate::site::Site;
use hlisa_browser::{Display, Document, DocumentMutator, ElementBuilder, NodeId};
use hlisa_sim::SimContext;
use rand::Rng;

/// Shape parameters for generated page trees.
#[derive(Debug, Clone, PartialEq)]
pub struct PageStructure {
    /// Maximum container nesting depth below the body.
    pub max_depth: usize,
    /// Inclusive range of children per container.
    pub branching: (usize, usize),
    /// Page width (px).
    pub page_width: f64,
    /// Minimum page height (px); flow content can grow past it.
    pub min_page_height: f64,
}

impl Default for PageStructure {
    fn default() -> Self {
        Self {
            max_depth: 4,
            branching: (2, 4),
            page_width: 1280.0,
            min_page_height: 2_000.0,
        }
    }
}

/// The `id` attribute of the page's primary interaction target.
pub const TARGET_ID: &str = "cta";

/// A generated page plus the handles drives care about.
#[derive(Debug, Clone)]
pub struct GeneratedPage {
    /// The laid-out document.
    pub doc: Document,
    /// The primary interaction target (`#cta`).
    pub target: NodeId,
    /// The body element every section nests under.
    pub body: NodeId,
}

/// Generates the site's page as a nested DOM tree, drawing structure
/// from the context's `"site"` stream and letting the browser's flow
/// layout compute all geometry.
///
/// The whole tree is inserted in one [`Document::mutate`] batch, so the
/// page reflows once, after its last node. Layout is a pure function of
/// the tree, so that one reflow gives the same boxes and page extent as
/// a reflow after every insertion would.
pub fn generate_page(
    site: &Site,
    structure: &PageStructure,
    ctx: &mut SimContext,
) -> GeneratedPage {
    let url = format!("https://{}/", site.domain);
    let mut doc = Document::new(&url, structure.page_width, structure.min_page_height);
    let (target, body) = doc.mutate(|m| {
        let body = m.append_root(
            ElementBuilder::flow(
                "body",
                Display::Block {
                    height: 10.0,
                    width_frac: 1.0,
                    margin: 0.0,
                    padding: 16.0,
                },
            )
            .build(),
        );

        // Header with a wrapping nav row.
        let header = section(m, body, 60.0, 0.0);
        {
            let rng = ctx.stream("site");
            let links = rng.gen_range(3..8);
            for i in 0..links {
                let w = 60.0 + rng.gen_range(0.0..80.0);
                m.append_child(
                    header,
                    ElementBuilder::flow(
                        "a",
                        Display::Inline {
                            width: w,
                            height: 20.0,
                            margin: 4.0,
                        },
                    )
                    .id(format!("nav-{i}"))
                    .build(),
                );
            }
        }

        // The main content column: nested containers down to max_depth.
        let main = section(m, body, 40.0, 8.0);
        grow_containers(m, main, structure, 1, ctx);

        // The primary interaction target, always present and in flow.
        let target = m.append_child(
            main,
            ElementBuilder::flow(
                "button",
                Display::Block {
                    height: 44.0,
                    width_frac: 0.25,
                    margin: 10.0,
                    padding: 0.0,
                },
            )
            .id(TARGET_ID)
            .text("Continue")
            .build(),
        );

        // Ad slots and the optional video player, as the visit model
        // expects.
        for slot in 0..site.ad_slots {
            m.append_child(
                body,
                ElementBuilder::flow(
                    "div",
                    Display::Block {
                        height: 90.0,
                        width_frac: 0.75,
                        margin: 6.0,
                        padding: 0.0,
                    },
                )
                .id(format!("ad-{slot}"))
                .build(),
            );
        }
        if site.has_video {
            m.append_child(
                body,
                ElementBuilder::flow(
                    "video",
                    Display::Block {
                        height: 360.0,
                        width_frac: 0.66,
                        margin: 8.0,
                        padding: 0.0,
                    },
                )
                .id("player")
                .build(),
            );
        }

        // The classic honey element: hidden, tiny, absolute.
        m.append_root(
            ElementBuilder::new("div", hlisa_browser::Rect::new(10.0, 10.0, 8.0, 8.0))
                .id("honey")
                .hidden()
                .build(),
        );
        (target, body)
    });

    GeneratedPage { doc, target, body }
}

/// Appends one full-width block section under `parent`.
fn section(m: &mut DocumentMutator, parent: NodeId, height: f64, padding: f64) -> NodeId {
    m.append_child(
        parent,
        ElementBuilder::flow(
            "section",
            Display::Block {
                height,
                width_frac: 1.0,
                margin: 4.0,
                padding,
            },
        )
        .build(),
    )
}

/// Recursively grows containers under `parent` until `max_depth`,
/// drawing the branching factor and leaf mix from the `"site"` stream.
fn grow_containers(
    m: &mut DocumentMutator,
    parent: NodeId,
    structure: &PageStructure,
    depth: usize,
    ctx: &mut SimContext,
) {
    let (lo, hi) = structure.branching;
    let n = {
        let rng = ctx.stream("site");
        rng.gen_range(lo..hi + 1)
    };
    for i in 0..n {
        let (nest, leaf_h, wide) = {
            let rng = ctx.stream("site");
            (
                depth < structure.max_depth && rng.gen_bool(0.5),
                18.0 + rng.gen_range(0.0..40.0),
                rng.gen_bool(0.3),
            )
        };
        if nest {
            let child = m.append_child(
                parent,
                ElementBuilder::flow(
                    "div",
                    Display::Block {
                        height: 10.0,
                        width_frac: if wide { 1.0 } else { 0.8 },
                        margin: 4.0,
                        padding: 6.0,
                    },
                )
                .build(),
            );
            grow_containers(m, child, structure, depth + 1, ctx);
        } else {
            m.append_child(
                parent,
                ElementBuilder::flow(
                    "p",
                    Display::Block {
                        height: leaf_h,
                        width_frac: 1.0,
                        margin: 2.0,
                        padding: 0.0,
                    },
                )
                .id(format!("d{depth}-p{i}"))
                .build(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{generate_population, PopulationConfig};

    fn small_site() -> Site {
        let cfg = PopulationConfig {
            n_sites: 3,
            unreachable_sites: 0,
            webdriver_visible: (0, 0, 0, 0),
            template_visible: (0, 0, 0),
            silent_http: (0, 0),
            breakage_sites: 0,
            ..PopulationConfig::default()
        };
        generate_population(&cfg).remove(0)
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let site = small_site();
        let s = PageStructure::default();
        let a = generate_page(&site, &s, &mut SimContext::new(42));
        let b = generate_page(&site, &s, &mut SimContext::new(42));
        assert_eq!(a.doc, b.doc);
        assert_eq!(a.target, b.target);
        let c = generate_page(&site, &s, &mut SimContext::new(43));
        assert_ne!(a.doc, c.doc, "different seeds must differ");
    }

    #[test]
    fn pages_are_trees_with_depth_and_branching() {
        let site = small_site();
        let s = PageStructure::default();
        let page = generate_page(&site, &s, &mut SimContext::new(7));
        let max_depth = page.doc.ids().map(|i| page.doc.depth(i)).max().unwrap();
        // body(0) → section(1) → containers… capped at max_depth below
        // the main section, plus leaves one deeper.
        assert!(max_depth >= 3, "page too flat: depth {max_depth}");
        assert!(
            max_depth <= s.max_depth + 2,
            "depth cap violated: {max_depth}"
        );
        // The tree is connected: every non-root has a parent.
        let roots = page
            .doc
            .ids()
            .filter(|&i| page.doc.parent(i).is_none())
            .count();
        assert!(roots <= 2, "body + honey only, got {roots} roots");
    }

    #[test]
    fn layout_places_the_target_in_flow() {
        let site = small_site();
        let page = generate_page(&site, &PageStructure::default(), &mut SimContext::new(7));
        let r = page.doc.element(page.target).rect;
        assert!(r.width > 0.0 && r.height > 0.0, "target has no box: {r:?}");
        // The target is hit-testable at its center (nothing occludes it
        // on a scenario-free page).
        assert_eq!(page.doc.hit_test(r.center()), Some(page.target));
        assert_eq!(page.doc.by_id(TARGET_ID), Some(page.target));
    }

    #[test]
    fn ad_slots_and_video_follow_the_site_model() {
        let mut site = small_site();
        site.ad_slots = 3;
        site.has_video = true;
        let page = generate_page(&site, &PageStructure::default(), &mut SimContext::new(9));
        for slot in 0..3 {
            assert!(page.doc.by_id(&format!("ad-{slot}")).is_some());
        }
        assert!(page.doc.by_id("player").is_some());
    }
}
