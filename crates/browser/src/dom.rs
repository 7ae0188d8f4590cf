//! DOM documents: a node tree, a deterministic flow layout pass, and
//! paint-order hit testing.
//!
//! Detectors and interaction APIs only need the parts of a DOM that shape
//! JS-observable interaction: element boxes (where is the click target?),
//! paint order (what does a click at (x, y) hit?), focusability (typing
//! targets), and page extent (how far can one scroll?). Since PR 6 the
//! geometry is no longer authored directly: documents are **trees**
//! (parent/children/depth), elements carry a [`Display`] specification,
//! and a layout pass computes the boxes. The pipeline is
//!
//! ```text
//! DOM tree (tags, display specs)  →  layout (reflow: boxes)  →  geometry
//!                                                                (hit_test)
//! ```
//!
//! Layout consumes **no randomness**: [`Document::reflow`] is a pure
//! function of the tree, so two documents with equal trees always get
//! bit-identical geometry and campaign output stays reproducible.
//!
//! The legacy flat-page API is preserved exactly: [`ElementBuilder::new`]
//! authors an [`Display::Absolute`] element whose `rect` is taken as-is,
//! root-level, at layer 0 — for such documents paint order degenerates to
//! arena order and every query answers exactly as before the refactor.

use crate::geometry::{Point, Rect};
use crate::index::DocumentIndex;
use std::sync::{Arc, OnceLock};

/// Index of a node in a [`Document`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw arena index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// How an element participates in layout.
///
/// A tiny, deterministic subset of CSS display/positioning — just enough
/// to express the page shapes the paper's breakage classes need (flowing
/// articles, wrapping toolbars, overlaying banners, `display: none`
/// lazy sections).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Display {
    /// Out-of-flow: the geometry authored in [`Element::rect`] is used
    /// verbatim and never rewritten by layout. This is the legacy page
    /// model ([`ElementBuilder::new`]) and the overlay primitive (cookie
    /// banners, modals). Children lay out inside the authored box.
    Absolute,
    /// In-flow block: stacks vertically inside the parent content box.
    /// Width is a fraction of the parent content width; height grows to
    /// fit overflowing flow children (auto-height).
    Block {
        /// Intrinsic height (px) before auto-growth.
        height: f64,
        /// Fraction of the parent content width this box spans.
        width_frac: f64,
        /// Vertical and horizontal outer margin (px).
        margin: f64,
        /// Inner padding (px) shrinking the content box for children.
        padding: f64,
    },
    /// In-flow inline block: flows horizontally, wrapping to a new line
    /// when the parent content width is exhausted.
    Inline {
        /// Fixed width (px).
        width: f64,
        /// Fixed height (px).
        height: f64,
        /// Outer margin on all sides (px).
        margin: f64,
    },
    /// Removed from layout entirely (`display: none`): the subtree gets
    /// no geometry, is skipped by hit testing *and* by the locator
    /// queries (`by_id`, `by_tag`, `anchor_target`) — it is not "in the
    /// DOM" as far as drivers can observe. Lazy content that has not been
    /// scrolled into existence yet, and detached SPA nodes, live here.
    None,
}

/// An element node.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Tag name (`"div"`, `"a"`, `"input"`, ...). Tags are a fixed
    /// vocabulary, so an element borrows its tag and copying a tree
    /// copies no tag bytes.
    pub tag: &'static str,
    /// `id` attribute (empty if none).
    pub id: String,
    /// Layout box in page coordinates. For [`Display::Absolute`] this is
    /// authored by the caller; for in-flow displays it is **computed** by
    /// [`Document::reflow`] and overwritten on every reflow.
    pub rect: Rect,
    /// How layout computes this element's geometry.
    pub display: Display,
    /// Paint layer, cumulative down the tree (a child paints at its
    /// parent's effective layer plus its own). Higher paints on top;
    /// ties break by pre-order position (document order), which is
    /// exactly the old flat z-order for layer-0 documents.
    pub layer: i32,
    /// Whether the element is rendered (hidden elements cannot be
    /// interacted with by humans — interacting with them anyway is the
    /// "honey element" bot signal of §4.2). Unlike [`Display::None`],
    /// a hidden element still occupies layout space and stays findable
    /// by the locator queries.
    pub visible: bool,
    /// Whether the element can hold keyboard focus.
    pub focusable: bool,
    /// Anchor target name, for `<a href="#...">` scroll jumps.
    pub anchor: Option<String>,
    /// Text content (what typing appends to for focusable elements).
    pub text: String,
}

/// One arena slot: the element plus its tree links. Siblings (roots
/// included) form a singly linked list in insertion order, so a node
/// owns no child list and copying a tree allocates nothing per node for
/// its structure.
#[derive(Clone, PartialEq)]
pub(crate) struct Node {
    pub(crate) el: Element,
    pub(crate) parent: Option<NodeId>,
    pub(crate) first_child: Option<NodeId>,
    pub(crate) last_child: Option<NodeId>,
    pub(crate) next_sibling: Option<NodeId>,
    pub(crate) depth: usize,
}

/// The node arena and the root list: the part of a document its clones
/// share.
#[derive(Clone, PartialEq)]
struct Tree {
    nodes: Vec<Node>,
    roots: Vec<NodeId>,
}

/// A laid-out document.
pub struct Document {
    /// URL the document was loaded from. Shared: a clone (a visit's
    /// copy of a cached page, a memo's stored output) points at the same
    /// text instead of copying it.
    pub url: Arc<str>,
    /// The tree, copy-on-write: a clone shares this allocation until
    /// either side writes, and every write goes through
    /// `Document::tree_mut`, which copies a shared tree first. A tree
    /// allocation two documents share therefore has one content for as
    /// long as both hold it.
    tree: Arc<Tree>,
    /// Total page width (px).
    pub page_width: f64,
    /// Total page height (px). Appendix E's scroll experiment uses a
    /// 30,000 px page. Grows when flow content overflows the authored
    /// minimum; never shrinks below it.
    pub page_height: f64,
    /// The authored minimum page height (reflow floor).
    min_page_height: f64,
    /// Lazily-built query index (row bands + id lookup).
    /// Torn down by every write to the tree, so it never serves stale
    /// geometry; rebuilt on the next query. Immutable once built, so
    /// clones share it.
    index: OnceLock<Arc<DocumentIndex>>,
}

impl Clone for Document {
    fn clone(&self) -> Self {
        Self {
            url: Arc::clone(&self.url),
            tree: Arc::clone(&self.tree),
            page_width: self.page_width,
            page_height: self.page_height,
            min_page_height: self.min_page_height,
            // The index is a pure function of the content the clone now
            // shares, so a built one is shared, not rebuilt. A write on
            // either side drops only that side's handle.
            index: self
                .index
                .get()
                .map_or_else(OnceLock::new, |index| OnceLock::from(Arc::clone(index))),
        }
    }
}

impl PartialEq for Document {
    fn eq(&self, other: &Self) -> bool {
        // The index is derived state; equality is over page content only.
        self.url == other.url
            && self.tree == other.tree
            && self.page_width == other.page_width
            && self.page_height == other.page_height
    }
}

impl std::fmt::Debug for Document {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Document")
            .field("url", &self.url)
            .field("nodes", &*self.tree)
            .field("page_width", &self.page_width)
            .field("page_height", &self.page_height)
            .finish_non_exhaustive()
    }
}

impl Document {
    /// An empty page of the given size.
    pub fn new(url: &str, page_width: f64, page_height: f64) -> Self {
        assert!(page_width > 0.0 && page_height > 0.0, "degenerate page");
        Self {
            url: url.into(),
            tree: Arc::new(Tree {
                nodes: Vec::new(),
                roots: Vec::new(),
            }),
            page_width,
            page_height,
            min_page_height: page_height,
            index: OnceLock::new(),
        }
    }

    /// The query index, built on demand for the current revision.
    fn index(&self) -> &DocumentIndex {
        self.index.get_or_init(|| {
            Arc::new(DocumentIndex::build(
                &self.tree.nodes,
                &self.tree.roots,
                self.page_height,
            ))
        })
    }

    /// Builds the query index now rather than on the first query. A
    /// document that is cloned many times (a cached page opened once per
    /// visit) builds it once, and every clone taken afterwards shares it.
    pub fn build_index(&self) {
        self.index();
    }

    /// The one write path into the tree. It copies the tree first if
    /// another document (a clone, a memo's stored input) still shares it,
    /// and drops this document's query index, which is derived from it.
    fn tree_mut(&mut self) -> &mut Tree {
        self.index = OnceLock::new();
        Arc::make_mut(&mut self.tree)
    }

    /// True when `self` is a copy of `other` that neither side has
    /// written since: one shared tree allocation and bit-equal page
    /// fields. Sharing the allocation means sharing the content (see
    /// `tree`); the page fields are compared because they can be written
    /// without touching the tree.
    fn is_unwritten_copy_of(&self, other: &Document) -> bool {
        Arc::ptr_eq(&self.tree, &other.tree)
            && self.url == other.url
            && self.page_width.to_bits() == other.page_width.to_bits()
            && self.page_height.to_bits() == other.page_height.to_bits()
            && self.min_page_height.to_bits() == other.min_page_height.to_bits()
    }

    /// Raw arena insertion; callers are responsible for reflowing.
    fn insert_node(&mut self, parent: Option<NodeId>, el: Element) -> NodeId {
        let tree = self.tree_mut();
        let id = NodeId(tree.nodes.len());
        let (prev, depth) = match parent {
            Some(p) => {
                let parent = &mut tree.nodes[p.0];
                parent.first_child.get_or_insert(id);
                (parent.last_child.replace(id), parent.depth + 1)
            }
            None => {
                let prev = tree.roots.last().copied();
                tree.roots.push(id);
                (prev, 0)
            }
        };
        if let Some(prev) = prev {
            tree.nodes[prev.0].next_sibling = Some(id);
        }
        tree.nodes.push(Node {
            el,
            parent,
            first_child: None,
            last_child: None,
            next_sibling: None,
            depth,
        });
        id
    }

    /// Adds a root-level element, returning its id. For layer-0 documents
    /// later elements paint on top (document order = z-order, as with
    /// non-positioned CSS boxes). Triggers a reflow.
    pub fn add(&mut self, el: Element) -> NodeId {
        let id = self.insert_node(None, el);
        self.reflow();
        id
    }

    /// Adds an element as the last child of `parent`. Triggers a reflow.
    pub fn add_child(&mut self, parent: NodeId, el: Element) -> NodeId {
        let id = self.insert_node(Some(parent), el);
        self.reflow();
        id
    }

    /// Applies a batch of structural mutations through a
    /// [`DocumentMutator`], then invalidates the query index and reflows
    /// exactly once. This is the supported way for page scripts (cookie
    /// banners dismissing, lazy loaders revealing, SPA re-renders) to
    /// change a live document.
    pub fn mutate<R>(&mut self, f: impl FnOnce(&mut DocumentMutator) -> R) -> R {
        let r = f(&mut DocumentMutator { doc: self });
        self.reflow();
        r
    }

    /// Borrows an element.
    pub fn element(&self, id: NodeId) -> &Element {
        &self.tree.nodes[id.0].el
    }

    /// Borrows an element mutably. The caller may change anything the
    /// query index depends on (box, visibility, layer, id, tag, anchor),
    /// so the index is invalidated up front. Geometry writes through this
    /// path are only meaningful for [`Display::Absolute`] elements —
    /// in-flow boxes are rewritten by the next reflow. Display changes
    /// must go through [`Document::mutate`] so layout reruns.
    pub fn element_mut(&mut self, id: NodeId) -> &mut Element {
        &mut self.tree_mut().nodes[id.0].el
    }

    /// The parent of a node, if it is not a root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.tree.nodes[id.0].parent
    }

    /// The children of a node, in insertion order.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.tree.siblings_from(self.tree.nodes[id.0].first_child)
    }

    /// Tree depth of a node (roots are depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.tree.nodes[id.0].depth
    }

    /// Root nodes in insertion order.
    pub fn roots(&self) -> &[NodeId] {
        &self.tree.roots
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.tree.nodes.len()
    }

    /// True when the document has no elements.
    pub fn is_empty(&self) -> bool {
        self.tree.nodes.is_empty()
    }

    /// All node ids in arena (insertion) order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.tree.nodes.len()).map(NodeId)
    }

    /// True when the node is attached to the layout tree: neither it nor
    /// any ancestor is [`Display::None`]. Detached nodes are invisible to
    /// every query — locators and hit testing alike.
    pub fn in_tree(&self, id: NodeId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if self.tree.nodes[c.0].el.display == Display::None {
                return false;
            }
            cur = self.tree.nodes[c.0].parent;
        }
        true
    }

    /// True when the node is rendered: attached, and neither it nor any
    /// ancestor is hidden. Only effectively-visible elements can be hit.
    pub fn effectively_visible(&self, id: NodeId) -> bool {
        if !self.in_tree(id) {
            return false;
        }
        let mut cur = Some(id);
        while let Some(c) = cur {
            if !self.tree.nodes[c.0].el.visible {
                return false;
            }
            cur = self.tree.nodes[c.0].parent;
        }
        true
    }

    /// Cumulative paint layer: the sum of `layer` along the ancestor
    /// path. Children paint at (at least) their parent's level.
    fn effective_layer(&self, id: NodeId) -> i64 {
        let mut sum = 0i64;
        let mut cur = Some(id);
        while let Some(c) = cur {
            sum += i64::from(self.tree.nodes[c.0].el.layer);
            cur = self.tree.nodes[c.0].parent;
        }
        sum
    }

    // ------------------------------------------------------------------
    // Layout: DOM tree → geometry. Pure, deterministic, RNG-free.
    // ------------------------------------------------------------------

    /// Recomputes geometry for every in-flow element and the page extent.
    /// A pure function of the tree — consumes no randomness, so equal
    /// trees always reflow to bit-identical geometry. Invalidates the
    /// query index.
    pub fn reflow(&mut self) {
        let content = Rect::new(0.0, 0.0, self.page_width, self.min_page_height);
        let flow_bottom = self.tree_mut().layout_flow(None, content);
        // Page extent: the authored minimum, grown by overflowing *flow*
        // content only. Absolute boxes never change the extent, which
        // keeps the legacy flat pages bit-identical.
        self.page_height = self.min_page_height.max(flow_bottom);
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    /// Finds the first attached element (arena order) with the given `id`
    /// attribute. Detached ([`Display::None`]) subtrees are skipped — a
    /// driver cannot locate what is not in the DOM — and, as with
    /// `getElementById("")`, the empty id names no element.
    pub fn by_id(&self, id_attr: &str) -> Option<NodeId> {
        self.index().by_id(&self.tree.nodes, id_attr)
    }

    /// Linear reference model for [`Document::by_id`].
    pub fn by_id_linear(&self, id_attr: &str) -> Option<NodeId> {
        if id_attr.is_empty() {
            return None;
        }
        self.ids()
            .find(|&i| self.tree.nodes[i.0].el.id == id_attr && self.in_tree(i))
    }

    /// Finds all attached elements with the given tag, in arena order.
    pub fn by_tag(&self, tag: &str) -> Vec<NodeId> {
        self.ids()
            .filter(|&i| self.tree.nodes[i.0].el.tag == tag && self.in_tree(i))
            .collect()
    }

    /// Topmost effectively-visible element containing the point, if any.
    /// "Topmost" is paint order: pre-order tree traversal, stable-sorted
    /// by effective layer — for layer-0 flat documents this degenerates
    /// to the old arena-order z-semantics. Served from the row bands;
    /// semantically identical to [`Document::hit_test_linear`] (the
    /// differential proptest in `tests/hit_test_differential.rs` pins
    /// the equivalence).
    pub fn hit_test(&self, p: Point) -> Option<NodeId> {
        self.index().hit_test(p)
    }

    /// Linear reference model for [`Document::hit_test`]: a from-scratch
    /// scan that recomputes paint position per node (effective layer via
    /// ancestor walks, pre-order position via a fresh traversal) and
    /// takes the maximum over containing, effectively-visible elements.
    /// Deliberately shares no derived state with the index.
    pub fn hit_test_linear(&self, p: Point) -> Option<NodeId> {
        let mut pre_pos = vec![0usize; self.tree.nodes.len()];
        let mut stack: Vec<NodeId> = Vec::new();
        let mut next = 0usize;
        for &root in &self.tree.roots {
            pre_pos[root.0] = next;
            next += 1;
            stack.extend(self.tree.nodes[root.0].first_child);
            while let Some(id) = stack.pop() {
                pre_pos[id.0] = next;
                next += 1;
                // The next sibling waits under the subtree, which goes
                // first.
                let node = &self.tree.nodes[id.0];
                stack.extend(node.next_sibling);
                stack.extend(node.first_child);
            }
        }
        let mut best: Option<(i64, usize, NodeId)> = None;
        for id in self.ids() {
            if !self.effectively_visible(id) || !self.tree.nodes[id.0].el.rect.contains(p) {
                continue;
            }
            let key = (self.effective_layer(id), pre_pos[id.0]);
            if best.map(|(l, pp, _)| key > (l, pp)).unwrap_or(true) {
                best = Some((key.0, key.1, id));
            }
        }
        best.map(|(_, _, id)| id)
    }

    /// Finds the first attached element (arena order) anchoring `name`
    /// (for `#name` navigation).
    pub fn anchor_target(&self, name: &str) -> Option<NodeId> {
        self.ids()
            .find(|&i| self.tree.nodes[i.0].el.anchor.as_deref() == Some(name) && self.in_tree(i))
    }
}

/// The arena as a list of `Node { el, parent, children, depth }`, each
/// node's children listed in insertion order: the form the page goldens
/// hash a document's `Debug` output in.
impl std::fmt::Debug for Tree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.nodes.iter().map(|node| NodeDebug { tree: self, node }))
            .finish()
    }
}

/// One arena node, rendered with its child list.
struct NodeDebug<'a> {
    tree: &'a Tree,
    node: &'a Node,
}

impl std::fmt::Debug for NodeDebug<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let children: Vec<NodeId> = self.tree.siblings_from(self.node.first_child).collect();
        f.debug_struct("Node")
            .field("el", &self.node.el)
            .field("parent", &self.node.parent)
            .field("children", &children)
            .field("depth", &self.node.depth)
            .finish()
    }
}

impl Tree {
    /// `first` and the siblings after it, in insertion order.
    fn siblings_from(&self, first: Option<NodeId>) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(first, move |id| self.nodes[id.0].next_sibling)
    }

    /// Lays out the flow children of `parent` (or the roots) inside
    /// `content`, returning the page-coordinate bottom edge of the flow.
    fn layout_flow(&mut self, parent: Option<NodeId>, content: Rect) -> f64 {
        let mut y = content.y;
        let mut x = content.x;
        let mut line_h = 0.0f64;
        // Along the sibling links: layout rewrites boxes, never the
        // links, so nothing needs copying out of the arena first.
        let mut next = match parent {
            Some(p) => self.nodes[p.0].first_child,
            None => self.roots.first().copied(),
        };
        while let Some(id) = next {
            next = self.nodes[id.0].next_sibling;
            match self.nodes[id.0].el.display {
                Display::None => continue,
                Display::Absolute => {
                    // Authored geometry; out of flow. Children lay out
                    // inside the authored box.
                    let r = self.nodes[id.0].el.rect;
                    self.layout_flow(Some(id), r);
                }
                Display::Block {
                    height,
                    width_frac,
                    margin,
                    padding,
                } => {
                    // A block closes any open inline line.
                    if line_h > 0.0 {
                        y += line_h;
                        line_h = 0.0;
                        x = content.x;
                    }
                    y += margin;
                    let w = (content.width * width_frac.clamp(0.0, 1.0) - 2.0 * margin).max(1.0);
                    self.nodes[id.0].el.rect = Rect::new(content.x + margin, y, w, height.max(1.0));
                    let outer = self.nodes[id.0].el.rect;
                    let inner = Rect::new(
                        outer.x + padding,
                        outer.y + padding,
                        (outer.width - 2.0 * padding).max(0.0),
                        (outer.height - 2.0 * padding).max(0.0),
                    );
                    let child_bottom = self.layout_flow(Some(id), inner);
                    // Auto-height: grow to contain overflowing flow
                    // children.
                    let needed = (child_bottom - outer.y) + padding;
                    if needed > self.nodes[id.0].el.rect.height {
                        self.nodes[id.0].el.rect.height = needed;
                    }
                    y += self.nodes[id.0].el.rect.height + margin;
                }
                Display::Inline {
                    width,
                    height,
                    margin,
                } => {
                    let advance = width + 2.0 * margin;
                    if x > content.x && x + advance > content.x + content.width {
                        // Wrap to the next line.
                        y += line_h;
                        line_h = 0.0;
                        x = content.x;
                    }
                    self.nodes[id.0].el.rect =
                        Rect::new(x + margin, y + margin, width.max(1.0), height.max(1.0));
                    let outer = self.nodes[id.0].el.rect;
                    x += advance;
                    line_h = line_h.max(height + 2.0 * margin);
                    self.layout_flow(Some(id), outer);
                }
            }
        }
        if line_h > 0.0 {
            y += line_h;
        }
        y
    }
}

/// Batched structural mutation over a [`Document`], in the style of a
/// retained-mode DOM mutator: all operations are raw tree edits, and the
/// owning [`Document::mutate`] call invalidates the query index and
/// reflows once when the batch completes.
pub struct DocumentMutator<'d> {
    doc: &'d mut Document,
}

impl DocumentMutator<'_> {
    /// Appends a root-level element (no reflow until the batch ends).
    pub fn append_root(&mut self, el: Element) -> NodeId {
        self.doc.insert_node(None, el)
    }

    /// Appends an element as the last child of `parent`.
    pub fn append_child(&mut self, parent: NodeId, el: Element) -> NodeId {
        self.doc.insert_node(Some(parent), el)
    }

    /// Changes how an element participates in layout.
    pub fn set_display(&mut self, id: NodeId, display: Display) {
        self.doc.tree_mut().nodes[id.0].el.display = display;
    }

    /// Shows or hides an element (visibility, not layout).
    pub fn set_visible(&mut self, id: NodeId, visible: bool) {
        self.doc.tree_mut().nodes[id.0].el.visible = visible;
    }

    /// Rewrites the authored box of an [`Display::Absolute`] element.
    pub fn set_rect(&mut self, id: NodeId, rect: Rect) {
        self.doc.tree_mut().nodes[id.0].el.rect = rect;
    }

    /// Replaces an element's text content.
    pub fn set_text(&mut self, id: NodeId, text: &str) {
        self.doc.tree_mut().nodes[id.0].el.text = text.to_string();
    }

    /// Renames an element's `id` attribute.
    pub fn set_id(&mut self, id: NodeId, id_attr: &str) {
        self.doc.tree_mut().nodes[id.0].el.id = id_attr.to_string();
    }

    /// Detaches a subtree from the document: it keeps its arena slots
    /// (NodeIds stay stable, as with a JS reference to a removed node)
    /// but leaves layout, hit testing, and the locator queries. This is
    /// how banner dismissal and SPA re-renders model `removeChild`.
    pub fn detach(&mut self, id: NodeId) {
        self.doc.tree_mut().nodes[id.0].el.display = Display::None;
    }

    /// Read access to the document being mutated.
    pub fn doc(&self) -> &Document {
        self.doc
    }
}

/// A page program together with its last run: the input document, the
/// reflowed and indexed output, and the program's result.
///
/// A page program is a pure function of the document it mutates — it
/// reads no RNG, time or event — so applying it to an unwritten copy of
/// the stored input (see [`Document`]'s `tree` field) must give the
/// stored output and result, and the memo hands those back instead of
/// re-running the program, the reflow and the index build. The memo owns
/// its program, so one memo can never serve two programs. Applied through
/// [`crate::Browser::mutate_document_memo`].
#[derive(Debug, Clone)]
pub struct DocumentMemo<R> {
    program: fn(&mut DocumentMutator) -> R,
    last: Option<MemoEntry<R>>,
    hits: u64,
}

#[derive(Debug, Clone)]
struct MemoEntry<R> {
    input: Document,
    output: Document,
    result: R,
}

impl<R: Clone> DocumentMemo<R> {
    /// An empty memo for one page program.
    pub fn new(program: fn(&mut DocumentMutator) -> R) -> Self {
        Self {
            program,
            last: None,
            hits: 0,
        }
    }

    /// How many applications replayed the stored run.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Applies the program to `doc`: swaps in the stored output when `doc`
    /// is an unwritten copy of the stored input, and otherwise runs
    /// [`Document::mutate`] and stores the run.
    pub(crate) fn apply(&mut self, doc: &mut Document) -> R {
        if let Some(last) = &self.last {
            if doc.is_unwritten_copy_of(&last.input) {
                self.hits += 1;
                *doc = last.output.clone();
                return last.result.clone();
            }
        }
        // The stored input keeps sharing the pre-mutation tree, so the
        // mutation below copies it and the input stays as it was.
        let input = doc.clone();
        let result = doc.mutate(self.program);
        doc.build_index();
        self.last = Some(MemoEntry {
            input,
            output: doc.clone(),
            result: result.clone(),
        });
        result
    }
}

/// Fluent builder for elements.
#[derive(Debug, Clone)]
pub struct ElementBuilder {
    el: Element,
}

impl ElementBuilder {
    /// Starts building an [`Display::Absolute`] element with the given
    /// tag and authored box — the legacy flat-page path.
    pub fn new(tag: &'static str, rect: Rect) -> Self {
        Self {
            el: Element {
                tag,
                id: String::new(),
                rect,
                display: Display::Absolute,
                layer: 0,
                visible: true,
                focusable: false,
                anchor: None,
                text: String::new(),
            },
        }
    }

    /// Starts building an in-flow element whose geometry the layout pass
    /// computes (the authored rect starts empty).
    pub fn flow(tag: &'static str, display: Display) -> Self {
        let mut b = Self::new(tag, Rect::new(0.0, 0.0, 0.0, 0.0));
        b.el.display = display;
        b
    }

    /// Sets the `id` attribute. An owned `String` (a `format!` id) is
    /// moved in, not copied.
    pub fn id(mut self, id: impl Into<String>) -> Self {
        self.el.id = id.into();
        self
    }

    /// Sets the paint layer (relative to the parent's effective layer).
    pub fn layer(mut self, layer: i32) -> Self {
        self.el.layer = layer;
        self
    }

    /// Marks the element invisible (a honey element).
    pub fn hidden(mut self) -> Self {
        self.el.visible = false;
        self
    }

    /// Marks the element focusable (text inputs, textareas).
    pub fn focusable(mut self) -> Self {
        self.el.focusable = true;
        self
    }

    /// Names an anchor on this element.
    pub fn anchor(mut self, name: &str) -> Self {
        self.el.anchor = Some(name.to_string());
        self
    }

    /// Sets the text content.
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.el.text = text.into();
        self
    }

    /// The built element, for insertion through a [`DocumentMutator`].
    pub fn build(self) -> Element {
        self.el
    }

    /// Finishes, inserting at the document root.
    pub fn insert(self, doc: &mut Document) -> NodeId {
        doc.add(self.el)
    }

    /// Finishes, inserting as the last child of `parent`.
    pub fn insert_under(self, doc: &mut Document, parent: NodeId) -> NodeId {
        doc.add_child(parent, self.el)
    }
}

/// Builds the standard test page used across the workspace's experiments:
/// a 1280 px wide page with a button, a text area, a link with an anchor
/// target far down the page, and one hidden honey element.
pub fn standard_test_page(url: &str, page_height: f64) -> Document {
    let mut doc = Document::new(url, 1280.0, page_height);
    ElementBuilder::new("body", Rect::new(0.0, 0.0, 1280.0, page_height)).insert(&mut doc);
    ElementBuilder::new("button", Rect::new(100.0, 480.0, 120.0, 40.0))
        .id("submit")
        .insert(&mut doc);
    ElementBuilder::new("input", Rect::new(400.0, 300.0, 300.0, 30.0))
        .id("text_area")
        .focusable()
        .insert(&mut doc);
    ElementBuilder::new("a", Rect::new(900.0, 120.0, 140.0, 20.0))
        .id("jump")
        .insert(&mut doc);
    ElementBuilder::new(
        "h2",
        Rect::new(0.0, (page_height - 600.0).max(0.0), 400.0, 30.0),
    )
    .id("section-end")
    .anchor("end")
    .insert(&mut doc);
    ElementBuilder::new("div", Rect::new(10.0, 10.0, 8.0, 8.0))
        .id("honey")
        .hidden()
        .insert(&mut doc);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_id_and_tag_lookup() {
        let doc = standard_test_page("https://example.test/", 30_000.0);
        assert!(doc.by_id("submit").is_some());
        assert!(doc.by_id("nope").is_none());
        assert_eq!(doc.by_tag("button").len(), 1);
    }

    #[test]
    fn hit_test_returns_topmost_visible() {
        let mut doc = Document::new("u", 100.0, 100.0);
        let below = ElementBuilder::new("div", Rect::new(0.0, 0.0, 100.0, 100.0)).insert(&mut doc);
        let above =
            ElementBuilder::new("button", Rect::new(40.0, 40.0, 20.0, 20.0)).insert(&mut doc);
        assert_eq!(doc.hit_test(Point::new(50.0, 50.0)), Some(above));
        assert_eq!(doc.hit_test(Point::new(10.0, 10.0)), Some(below));
    }

    #[test]
    fn hidden_elements_are_not_hit() {
        let doc = standard_test_page("u", 30_000.0);
        let honey = doc.by_id("honey").unwrap();
        let c = doc.element(honey).rect.center();
        // The body below it is hit instead.
        let hit = doc.hit_test(c).unwrap();
        assert_ne!(hit, honey);
        assert_eq!(doc.element(hit).tag, "body");
    }

    #[test]
    fn anchor_lookup() {
        let doc = standard_test_page("u", 30_000.0);
        let target = doc.anchor_target("end").unwrap();
        assert_eq!(doc.element(target).id, "section-end");
        assert!(doc.anchor_target("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "degenerate page")]
    fn rejects_zero_size_page() {
        let _ = Document::new("u", 0.0, 100.0);
    }

    #[test]
    fn element_mut_allows_relocation() {
        let mut doc = standard_test_page("u", 30_000.0);
        let id = doc.by_id("submit").unwrap();
        doc.element_mut(id).rect = Rect::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(doc.element(id).rect, Rect::new(1.0, 2.0, 3.0, 4.0));
    }

    #[test]
    fn mutation_invalidates_the_query_index() {
        let mut doc = standard_test_page("u", 30_000.0);
        let id = doc.by_id("submit").unwrap();
        // Force the index to build, then move the element.
        assert_eq!(doc.hit_test(doc.element(id).rect.center()), Some(id));
        doc.element_mut(id).rect = Rect::new(600.0, 10_000.0, 50.0, 50.0);
        assert_eq!(doc.hit_test(Point::new(625.0, 10_025.0)), Some(id));
        // Identity attributes are index inputs too.
        doc.element_mut(id).id = "renamed".to_string();
        assert_eq!(doc.by_id("renamed"), Some(id));
        assert!(doc.by_id("submit").is_none());
        // A hidden element leaves the bands on the next rebuild.
        doc.element_mut(id).visible = false;
        assert_ne!(doc.hit_test(Point::new(625.0, 10_025.0)), Some(id));
    }

    #[test]
    fn clones_share_a_built_index_until_either_side_mutates() {
        let original = standard_test_page("u", 30_000.0);
        original.build_index();
        let mut clone = original.clone();
        let shared = |a: &Document, b: &Document| match (a.index.get(), b.index.get()) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        };
        assert!(shared(&original, &clone));
        let id = clone.by_id("submit").unwrap();
        let centre = clone.element(id).rect.center();
        assert_eq!(clone.hit_test(centre), original.hit_test(centre));

        // Moving the element in the clone drops only the clone's handle:
        // the clone answers for its new layout, the original for its own.
        clone.element_mut(id).rect = Rect::new(600.0, 10_000.0, 50.0, 50.0);
        assert!(!shared(&original, &clone));
        assert_eq!(clone.hit_test(Point::new(625.0, 10_025.0)), Some(id));
        assert_eq!(original.hit_test(centre), Some(id));
        assert_ne!(original.hit_test(Point::new(625.0, 10_025.0)), Some(id));

        // An unindexed document's clone builds its own on first query.
        let cold = standard_test_page("u", 30_000.0);
        let cold_clone = cold.clone();
        assert_eq!(cold_clone.by_id("submit"), Some(id));
        assert!(cold.index.get().is_none());
    }

    #[test]
    fn indexed_queries_match_the_linear_reference_on_the_test_page() {
        let doc = standard_test_page("u", 30_000.0);
        for id_attr in ["submit", "text_area", "jump", "honey", "ghost", ""] {
            assert_eq!(doc.by_id(id_attr), doc.by_id_linear(id_attr));
        }
        for x in [0.0, 10.0, 160.0, 550.0, 970.0, 1279.0, 1280.0, -5.0] {
            for y in [0.0, 14.0, 130.0, 315.0, 500.0, 29_500.0, 30_000.0] {
                let p = Point::new(x, y);
                assert_eq!(doc.hit_test(p), doc.hit_test_linear(p), "at {p:?}");
            }
        }
    }

    // ----- tree / layout / occlusion behaviour (PR 6) -----

    /// A small nested flow page: body block containing a heading, an
    /// inline toolbar row, and an article of paragraphs.
    fn flow_page() -> (Document, NodeId, Vec<NodeId>) {
        let mut doc = Document::new("u", 1000.0, 500.0);
        let body = ElementBuilder::flow(
            "body",
            Display::Block {
                height: 10.0,
                width_frac: 1.0,
                margin: 0.0,
                padding: 10.0,
            },
        )
        .insert(&mut doc);
        let mut kids = Vec::new();
        for i in 0..3 {
            kids.push(
                ElementBuilder::flow(
                    "p",
                    Display::Block {
                        height: 40.0,
                        width_frac: 0.5,
                        margin: 5.0,
                        padding: 0.0,
                    },
                )
                .id(format!("p{i}"))
                .insert_under(&mut doc, body),
            );
        }
        (doc, body, kids)
    }

    #[test]
    fn tree_links_and_depth() {
        let (doc, body, kids) = flow_page();
        assert_eq!(doc.parent(body), None);
        assert_eq!(doc.depth(body), 0);
        for &k in &kids {
            assert_eq!(doc.parent(k), Some(body));
            assert_eq!(doc.depth(k), 1);
        }
        assert_eq!(doc.children(body).collect::<Vec<_>>(), kids);
        assert_eq!(doc.roots(), &[body]);
    }

    #[test]
    fn blocks_stack_vertically_and_parent_auto_grows() {
        let (doc, body, kids) = flow_page();
        let r0 = doc.element(kids[0]).rect;
        let r1 = doc.element(kids[1]).rect;
        // Stacked with 5px margins inside 10px padding.
        assert_eq!(r0.y, 15.0);
        assert_eq!(r1.y, r0.y + 40.0 + 2.0 * 5.0);
        // Half the content width minus margins.
        assert_eq!(r0.width, (1000.0 - 20.0) * 0.5 - 10.0);
        // The body grew past its intrinsic 10px to contain the flow.
        let body_r = doc.element(body).rect;
        assert!(body_r.height >= 3.0 * 50.0, "body: {body_r:?}");
    }

    #[test]
    fn inline_elements_wrap_at_the_content_edge() {
        let mut doc = Document::new("u", 100.0, 100.0);
        let row = ElementBuilder::flow(
            "nav",
            Display::Block {
                height: 10.0,
                width_frac: 1.0,
                margin: 0.0,
                padding: 0.0,
            },
        )
        .insert(&mut doc);
        let mut items = Vec::new();
        for _ in 0..3 {
            items.push(
                ElementBuilder::flow(
                    "a",
                    Display::Inline {
                        width: 40.0,
                        height: 20.0,
                        margin: 0.0,
                    },
                )
                .insert_under(&mut doc, row),
            );
        }
        let rects: Vec<Rect> = items.iter().map(|&i| doc.element(i).rect).collect();
        // Two fit on the first line; the third wraps.
        assert_eq!(rects[0].y, rects[1].y);
        assert!(rects[2].y > rects[0].y, "no wrap: {rects:?}");
        assert_eq!(rects[2].x, rects[0].x);
    }

    #[test]
    fn layout_is_deterministic_and_rng_free() {
        let (a, _, _) = flow_page();
        let (b, _, _) = flow_page();
        assert_eq!(a, b);
        let mut c = a.clone();
        c.reflow();
        assert_eq!(a, c, "reflow must be idempotent");
    }

    #[test]
    fn flow_overflow_grows_the_page() {
        let mut doc = Document::new("u", 100.0, 50.0);
        for _ in 0..4 {
            ElementBuilder::flow(
                "div",
                Display::Block {
                    height: 30.0,
                    width_frac: 1.0,
                    margin: 0.0,
                    padding: 0.0,
                },
            )
            .insert(&mut doc);
        }
        assert_eq!(doc.page_height, 120.0);
    }

    #[test]
    fn layered_overlay_occludes_and_its_children_paint_on_top() {
        let mut doc = Document::new("u", 200.0, 200.0);
        let target =
            ElementBuilder::new("button", Rect::new(50.0, 50.0, 100.0, 100.0)).insert(&mut doc);
        // Banner inserted *before target in arena order would lose under
        // flat z-semantics; the layer puts it on top.
        let banner = ElementBuilder::new("div", Rect::new(0.0, 0.0, 200.0, 120.0))
            .layer(1)
            .insert(&mut doc);
        let accept = ElementBuilder::new("button", Rect::new(10.0, 10.0, 50.0, 30.0))
            .id("accept")
            .insert_under(&mut doc, banner);
        // The banner occludes the target where they overlap.
        assert_eq!(doc.hit_test(Point::new(100.0, 100.0)), Some(banner));
        // Its child paints above it (cumulative layer).
        assert_eq!(doc.hit_test(Point::new(20.0, 20.0)), Some(accept));
        // Below the banner the target is reachable.
        assert_eq!(doc.hit_test(Point::new(100.0, 140.0)), Some(target));
    }

    #[test]
    fn detached_subtrees_leave_every_query() {
        let mut doc = Document::new("u", 200.0, 200.0);
        let target =
            ElementBuilder::new("button", Rect::new(50.0, 50.0, 100.0, 100.0)).insert(&mut doc);
        let banner = ElementBuilder::new("div", Rect::new(0.0, 0.0, 200.0, 200.0))
            .id("banner")
            .layer(1)
            .insert(&mut doc);
        let accept = ElementBuilder::new("button", Rect::new(10.0, 10.0, 50.0, 30.0))
            .id("accept")
            .insert_under(&mut doc, banner);
        assert_eq!(doc.hit_test(Point::new(100.0, 100.0)), Some(banner));
        // Dismiss: detach the banner subtree in one mutation batch.
        doc.mutate(|m| m.detach(banner));
        assert_eq!(doc.hit_test(Point::new(100.0, 100.0)), Some(target));
        assert!(doc.by_id("banner").is_none());
        assert!(doc.by_id("accept").is_none());
        assert!(!doc.in_tree(accept));
        // NodeIds remain stable (stale references are representable).
        assert_eq!(doc.element(accept).id, "accept");
    }

    #[test]
    fn display_none_takes_no_layout_space() {
        let mut doc = Document::new("u", 100.0, 10.0);
        let a = ElementBuilder::flow(
            "div",
            Display::Block {
                height: 30.0,
                width_frac: 1.0,
                margin: 0.0,
                padding: 0.0,
            },
        )
        .insert(&mut doc);
        let lazy = ElementBuilder::flow("section", Display::None)
            .id("lazy")
            .insert(&mut doc);
        let b = ElementBuilder::flow(
            "div",
            Display::Block {
                height: 30.0,
                width_frac: 1.0,
                margin: 0.0,
                padding: 0.0,
            },
        )
        .insert(&mut doc);
        assert_eq!(doc.element(b).rect.y, 30.0, "lazy section took space");
        assert!(doc.by_id("lazy").is_none());
        // Reveal: the section enters the flow and pushes `b` down.
        doc.mutate(|m| {
            m.set_display(
                lazy,
                Display::Block {
                    height: 50.0,
                    width_frac: 1.0,
                    margin: 0.0,
                    padding: 0.0,
                },
            )
        });
        assert_eq!(doc.by_id("lazy"), Some(lazy));
        assert_eq!(doc.element(b).rect.y, 80.0);
        assert_eq!(doc.page_height, 110.0);
        let _ = (a, b);
    }

    #[test]
    fn mutator_batch_reflows_once_at_the_end() {
        let mut doc = Document::new("u", 100.0, 100.0);
        let ids = doc.mutate(|m| {
            let row = m.append_root(
                ElementBuilder::flow(
                    "div",
                    Display::Block {
                        height: 20.0,
                        width_frac: 1.0,
                        margin: 0.0,
                        padding: 0.0,
                    },
                )
                .build(),
            );
            let child = m.append_child(
                row,
                ElementBuilder::flow(
                    "span",
                    Display::Inline {
                        width: 10.0,
                        height: 10.0,
                        margin: 0.0,
                    },
                )
                .id("s")
                .build(),
            );
            (row, child)
        });
        assert_eq!(doc.by_id("s"), Some(ids.1));
        assert_eq!(doc.element(ids.1).rect, Rect::new(0.0, 0.0, 10.0, 10.0));
        assert_eq!(doc.children(ids.0).collect::<Vec<_>>(), [ids.1]);
    }

    #[test]
    fn ancestor_visibility_gates_hits() {
        let mut doc = Document::new("u", 100.0, 100.0);
        let base = ElementBuilder::new("body", Rect::new(0.0, 0.0, 100.0, 100.0)).insert(&mut doc);
        let wrap = ElementBuilder::new("div", Rect::new(0.0, 0.0, 50.0, 50.0)).insert(&mut doc);
        let inner = ElementBuilder::new("button", Rect::new(10.0, 10.0, 20.0, 20.0))
            .insert_under(&mut doc, wrap);
        assert_eq!(doc.hit_test(Point::new(15.0, 15.0)), Some(inner));
        doc.element_mut(wrap).visible = false;
        // The hidden wrapper hides its child too; the base is hit.
        assert_eq!(doc.hit_test(Point::new(15.0, 15.0)), Some(base));
        assert!(!doc.effectively_visible(inner));
    }
}
