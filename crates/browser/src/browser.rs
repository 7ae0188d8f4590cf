//! The browser: pages, simulated time, input pipeline, and event dispatch.
//!
//! Every dispatched event goes to one subscriber, the page's
//! [`EventRecorder`]: detectors judge the recorded trace after the
//! session, as the paper's analysis reads the page's event log
//! (Appendix E). The browser caches no derived state of its own:
//! [`Browser::metrics`] renders the recorder's counters at each call, and
//! the trace views are scans of the recorder's event log.
//! The one cache a drive depends on is the document's query index
//! (`index.rs`), which serves every hit test and `by_id`.

use crate::dom::{Document, DocumentMemo, DocumentMutator, NodeId};
use crate::events::{DomEvent, EventKind, EventPayload, MouseButton};
use crate::geometry::Point;
use crate::input::{RawInput, TimedInput};
use crate::recorder::EventRecorder;
use crate::viewport::{ScrollOrigin, Viewport};
use hlisa_jsom::{build_firefox_world, BrowserFlavor, World};
use hlisa_sim::CounterSet;
use std::sync::Arc;

/// Static browser configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BrowserConfig {
    /// Viewport width (px).
    pub viewport_width: f64,
    /// Viewport height (px).
    pub viewport_height: f64,
    /// Maximum interval between two clicks to count as a double click.
    /// Windows defaults to 500 ms; the paper measured 600 ms under
    /// Selenium's environment (Appendix D).
    pub double_click_interval_ms: f64,
    /// Minimum interval between dispatched `mousemove` events. Firefox
    /// coalesces pointer samples to the paint cadence; Appendix D found the
    /// event API "too coarse to register every detail of normal mouse
    /// movement".
    pub mousemove_min_interval_ms: f64,
    /// JS flavour the page world is built as.
    pub flavor: BrowserFlavor,
}

impl BrowserConfig {
    /// A regular desktop Firefox.
    pub fn regular() -> Self {
        Self {
            viewport_width: 1280.0,
            viewport_height: 720.0,
            double_click_interval_ms: 500.0,
            mousemove_min_interval_ms: 16.0,
            flavor: BrowserFlavor::RegularFirefox,
        }
    }

    /// A WebDriver-automated Firefox (the OpenWPM client): webdriver flag
    /// set, and the 600 ms double-click interval the paper measured.
    pub fn webdriver() -> Self {
        Self {
            double_click_interval_ms: 600.0,
            flavor: BrowserFlavor::WebDriverFirefox,
            ..Self::regular()
        }
    }

    /// Builds this configuration's pristine page world, ready to be
    /// shared by every browser opened with [`Browser::open_with_world`].
    pub fn pristine_world(&self) -> Arc<World> {
        Arc::new(build_firefox_world(self.flavor))
    }
}

/// A loaded page plus interaction state. A clone's time starts at this
/// browser's instant and moves on its own.
#[derive(Clone)]
pub struct Browser {
    config: BrowserConfig,
    /// The page JS world (spoofing targets live here), copy-on-write: it
    /// is the pristine's allocation until the first [`Browser::world_mut`]
    /// copies it, and a clone shares it until either side writes.
    world: Arc<World>,
    /// The flavour's freshly built world. Opening and navigation point
    /// `world` at it instead of re-running the world builder — world
    /// construction is deterministic and RNG-free, so sharing it is
    /// observably identical to a fresh build (see the jsom differential
    /// proptest). Never written: browsers opened from one caller-held
    /// pristine (and their clones) all share the same world.
    pristine_world: Arc<World>,
    document: Document,
    /// The viewport over the current document.
    pub viewport: Viewport,
    /// The page's simulated now (ms). Only [`Browser::advance`] and the
    /// input entry points move it; no other browser or context shares it.
    now_ms: f64,
    /// Recorded events ("the page's listeners"). Dispatch hands it each
    /// event by move; it stays a named field so trace accessors remain
    /// directly reachable.
    pub recorder: EventRecorder,
    mouse: Point,
    pending_move: Option<Point>,
    last_move_dispatch_ms: f64,
    buttons_down: Vec<(MouseButton, Option<NodeId>)>,
    keys_down: Vec<String>,
    last_click: Option<(f64, Option<NodeId>)>,
    focused: Option<NodeId>,
    visible: bool,
    /// Structural mutations applied to the document since opening, the
    /// `dom.mutations` counter of [`Browser::metrics`].
    dom_mutations: u64,
}

impl std::fmt::Debug for Browser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Browser")
            .field("config", &self.config)
            .field("url", &self.document.url)
            .field("now_ms", &self.now_ms)
            .field("events", &self.recorder.len())
            .field("mouse", &self.mouse)
            .field("focused", &self.focused)
            .field("visible", &self.visible)
            .finish_non_exhaustive()
    }
}

impl Browser {
    /// Opens a browser on the given document, its time at t = 0.
    pub fn open(config: BrowserConfig, document: Document) -> Self {
        let pristine_world = config.pristine_world();
        Self::open_with_world(config, document, pristine_world)
    }

    /// Opens a browser whose page world is a caller-held pristine world,
    /// which must have been built for `config.flavor`; the browser shares
    /// it until its first [`Browser::world_mut`].
    /// This is the one construction path: [`Browser::open`] builds a
    /// fresh pristine and lands here; the browser's time starts at 0.
    /// A caller opening many browsers of one flavour builds the world
    /// once and shares it; world construction is deterministic and
    /// RNG-free, so every browser is observably identical to a freshly
    /// built one.
    pub fn open_with_world(
        config: BrowserConfig,
        document: Document,
        pristine_world: Arc<World>,
    ) -> Self {
        let viewport = Viewport::new(
            config.viewport_width,
            config.viewport_height,
            document.page_height,
        );
        Self {
            config,
            world: Arc::clone(&pristine_world),
            pristine_world,
            document,
            viewport,
            now_ms: 0.0,
            recorder: EventRecorder::new(),
            // The OS hands a fresh window a cursor at the origin — the
            // "mouse movement starting at (0,0)" signal of Appendix F.
            mouse: Point::new(0.0, 0.0),
            pending_move: None,
            last_move_dispatch_ms: f64::NEG_INFINITY,
            buttons_down: Vec::new(),
            keys_down: Vec::new(),
            last_click: None,
            focused: None,
            visible: true,
            dom_mutations: 0,
        }
    }

    /// Re-opens this browser on `document`: afterwards it is in exactly
    /// the state [`Browser::open_with_world`] gives for its configuration
    /// and pristine world — time back at 0, viewport over the new page,
    /// pristine page world, cursor at the origin, no pending move, no
    /// held buttons or keys, no focus, visible, an empty recorder and
    /// fresh counters. Only the capacity of the event and held-input
    /// buffers carries over, so a worker that drives many pages through
    /// one browser stops growing them from empty on every page.
    pub fn reopen(&mut self, document: Document) {
        let fresh = Self::open_with_world(
            self.config.clone(),
            document,
            Arc::clone(&self.pristine_world),
        );
        let mut old = std::mem::replace(self, fresh);
        old.recorder.clear();
        old.buttons_down.clear();
        old.keys_down.clear();
        self.recorder = old.recorder;
        self.buttons_down = old.buttons_down;
        self.keys_down = old.keys_down;
    }

    /// The page JS world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable access to the page JS world; copies it first while it is
    /// still shared (with the pristine or a clone).
    pub fn world_mut(&mut self) -> &mut World {
        Arc::make_mut(&mut self.world)
    }

    /// The loaded document.
    pub fn document(&self) -> &Document {
        &self.document
    }

    /// Mutable access (page dynamics like moving click targets).
    pub fn document_mut(&mut self) -> &mut Document {
        &mut self.document
    }

    /// Applies a batched structural mutation to the live document (SPA
    /// re-renders, banner dismissal, lazy-content reveal) and keeps the
    /// browser's derived state coherent: the document's query index is
    /// invalidated and the tree reflowed (by [`Document::mutate`]), the
    /// viewport's scrollable extent follows the new page height, and a
    /// `dom.mutations` counter records the revision.
    // lint: allow(unread-pub-item) test reference: the unmemoised side of memo_differential.rs
    pub fn mutate_document<R>(&mut self, f: impl FnOnce(&mut DocumentMutator) -> R) -> R {
        let r = self.document.mutate(f);
        self.document_mutated();
        r
    }

    /// Like [`Browser::mutate_document`] for a memoised page program: when
    /// the live document is an unwritten copy of the memo's last input
    /// (the cached page a drive was opened on), the stored output and
    /// result replace the run. The browser-side effects are the same
    /// either way.
    pub fn mutate_document_memo<R: Clone>(&mut self, memo: &mut DocumentMemo<R>) -> R {
        let r = memo.apply(&mut self.document);
        self.document_mutated();
        r
    }

    /// The browser-side effects of one document mutation.
    fn document_mutated(&mut self) {
        self.viewport.set_page_height(self.document.page_height);
        self.dom_mutations += 1;
    }

    /// The configuration.
    pub fn config(&self) -> &BrowserConfig {
        &self.config
    }

    /// Current cursor position (page coordinates).
    pub fn mouse_position(&self) -> Point {
        self.mouse
    }

    /// Currently focused element.
    pub fn focused(&self) -> Option<NodeId> {
        self.focused
    }

    /// Whether the page is visible.
    // lint: allow(unread-pub-item) test reference: timed_input.rs's re-open differential compares it
    pub fn is_visible(&self) -> bool {
        self.visible
    }

    /// Buttons currently held down.
    // lint: allow(unread-pub-item) test reference: timed_input.rs's differentials compare it
    pub fn pressed_buttons(&self) -> Vec<MouseButton> {
        self.buttons_down.iter().map(|(b, _)| *b).collect()
    }

    /// Keys currently held down.
    // lint: allow(unread-pub-item) test reference: timed_input.rs's differentials compare it
    pub fn pressed_keys(&self) -> Vec<String> {
        self.keys_down.clone()
    }

    /// Simulated now (ms).
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// Advances simulated time with no input (an idle wait; paced input
    /// goes through [`Browser::input_timed`]).
    ///
    /// # Panics
    /// Panics on a negative or non-finite delay — simulated time is
    /// monotone.
    pub fn advance(&mut self, delta_ms: f64) {
        assert!(
            delta_ms >= 0.0 && delta_ms.is_finite(),
            "time must advance monotonically, got {delta_ms}"
        );
        self.now_ms += delta_ms;
    }

    /// Event-count metrics from the recorder, plus `dom.mutations` once
    /// the document has been mutated and the page world's realm
    /// counters, rendered afresh at each call.
    pub fn metrics(&self) -> CounterSet {
        let mut all = self.recorder.counters();
        if self.dom_mutations > 0 {
            all.add("dom.mutations", self.dom_mutations);
        }
        let js = self.world.realm.stats();
        all.add("jsom.objects_allocated", js.objects_allocated);
        all.add("jsom.atoms_interned", js.atoms_interned);
        all.add("jsom.shape_transitions", js.shape_transitions);
        all.add("jsom.property_gets", js.property_gets);
        all.add("jsom.own_lookups", js.own_lookups);
        all
    }

    /// Injects one raw input item at the current simulated time.
    pub fn input(&mut self, raw: RawInput) {
        self.input_timed([TimedInput::after(0.0, raw)]);
    }

    /// Convenience: advance time, then inject.
    pub fn input_after(&mut self, delta_ms: f64, raw: RawInput) {
        self.input_timed([TimedInput::after(delta_ms, raw)]);
    }

    /// Injects a batch of timed input: for each item in order, lets its
    /// delay pass, then injects its input (if any). This is the one path
    /// timed input takes into the browser.
    ///
    /// Each delay is added to the browser's time on its own, in item
    /// order — never pre-summed — so every event timestamp, every
    /// coalescing decision and the final time are bit-identical to
    /// calling [`Browser::advance`] before each item.
    ///
    /// # Panics
    /// Panics on a negative or non-finite delay, before injecting that
    /// item — simulated time is monotone.
    pub fn input_timed<I>(&mut self, items: I)
    where
        I: IntoIterator<Item = TimedInput>,
    {
        for item in items {
            self.advance(item.delay_ms);
            if let Some(raw) = item.raw {
                self.inject(raw);
            }
        }
    }

    /// Injects one raw input item at `now_ms`.
    fn inject(&mut self, raw: RawInput) {
        match raw {
            RawInput::MouseMove { x, y } => self.on_mouse_move(x, y),
            RawInput::MouseDown { button } => self.on_mouse_down(button),
            RawInput::MouseUp { button } => self.on_mouse_up(button),
            RawInput::KeyDown { key } => self.on_key_down(key),
            RawInput::KeyUp { key } => self.on_key_up(key),
            RawInput::WheelTick { direction } => {
                let delta = f64::from(direction.signum()) * crate::viewport::WHEEL_TICK_PX;
                self.on_wheel(delta);
            }
            RawInput::WheelDelta { delta_y } => self.on_wheel(delta_y),
            RawInput::ScrollFrom { origin, amount } => self.on_scroll_from(origin, amount),
            RawInput::TouchStart { x, y } => {
                let target = self.document.hit_test(Point::new(x, y));
                self.dispatch(
                    EventKind::TouchStart,
                    target,
                    EventPayload::Mouse {
                        x,
                        y,
                        button: MouseButton::Left,
                    },
                );
            }
            RawInput::TouchEnd => {
                self.dispatch(EventKind::TouchEnd, None, EventPayload::None);
            }
            RawInput::Minimize => {
                if self.visible {
                    self.visible = false;
                    self.dispatch(
                        EventKind::VisibilityChange,
                        None,
                        EventPayload::Visibility { visible: false },
                    );
                    self.dispatch(EventKind::Blur, self.focused, EventPayload::None);
                }
            }
            RawInput::Restore => {
                if !self.visible {
                    self.visible = true;
                    self.dispatch(
                        EventKind::VisibilityChange,
                        None,
                        EventPayload::Visibility { visible: true },
                    );
                    self.dispatch(EventKind::Focus, self.focused, EventPayload::None);
                }
            }
            RawInput::Resize { width, height } => {
                let scroll = self.viewport.scroll_y();
                self.viewport = Viewport::new(width, height, self.document.page_height);
                self.viewport.scroll_to(scroll);
                self.dispatch(EventKind::Resize, None, EventPayload::None);
            }
        }
    }

    // -----------------------------------------------------------------
    // Pipeline internals
    // -----------------------------------------------------------------

    /// Dispatches one event at `now_ms`, quantised to the 1 ms a
    /// page observes, to the recorder, which takes it by move.
    fn dispatch(&mut self, kind: EventKind, target: Option<NodeId>, payload: EventPayload) {
        self.recorder.record(DomEvent {
            kind,
            timestamp_ms: self.now_ms.floor(),
            target,
            payload,
        });
    }

    fn on_mouse_move(&mut self, x: f64, y: f64) {
        // An OS cursor cannot leave the desktop; clamp to the page box so
        // no impossible coordinates ever reach page listeners.
        let x = x.clamp(0.0, self.document.page_width);
        let y = y.clamp(0.0, self.document.page_height);
        self.mouse = Point::new(x, y);
        let now = self.now_ms;
        if now - self.last_move_dispatch_ms >= self.config.mousemove_min_interval_ms {
            self.last_move_dispatch_ms = now;
            self.pending_move = None;
            let target = self.document.hit_test(self.mouse);
            // Firefox dispatches the pointer-events layer first.
            self.dispatch(
                EventKind::PointerMove,
                target,
                EventPayload::Mouse {
                    x,
                    y,
                    button: MouseButton::Left,
                },
            );
            self.dispatch(
                EventKind::MouseMove,
                target,
                EventPayload::Mouse {
                    x,
                    y,
                    button: MouseButton::Left,
                },
            );
        } else {
            // Coalesced: remember it so a button event flushes the final
            // position first (browsers never press at an unreported spot).
            self.pending_move = Some(self.mouse);
        }
    }

    fn flush_pending_move(&mut self) {
        if let Some(p) = self.pending_move.take() {
            self.last_move_dispatch_ms = self.now_ms;
            let target = self.document.hit_test(p);
            self.dispatch(
                EventKind::PointerMove,
                target,
                EventPayload::Mouse {
                    x: p.x,
                    y: p.y,
                    button: MouseButton::Left,
                },
            );
            self.dispatch(
                EventKind::MouseMove,
                target,
                EventPayload::Mouse {
                    x: p.x,
                    y: p.y,
                    button: MouseButton::Left,
                },
            );
        }
    }

    fn on_mouse_down(&mut self, button: MouseButton) {
        self.flush_pending_move();
        let target = self.document.hit_test(self.mouse);
        self.buttons_down.push((button, target));
        self.dispatch(
            EventKind::PointerDown,
            target,
            EventPayload::Mouse {
                x: self.mouse.x,
                y: self.mouse.y,
                button,
            },
        );
        self.dispatch(
            EventKind::MouseDown,
            target,
            EventPayload::Mouse {
                x: self.mouse.x,
                y: self.mouse.y,
                button,
            },
        );
        // Focus follows the primary button press.
        if button == MouseButton::Left {
            let focus_target = target.filter(|id| self.document.element(*id).focusable);
            if focus_target != self.focused {
                if self.focused.is_some() {
                    self.dispatch(EventKind::Blur, self.focused, EventPayload::None);
                }
                self.focused = focus_target;
                if focus_target.is_some() {
                    self.dispatch(EventKind::Focus, focus_target, EventPayload::None);
                }
            }
        }
        // Linux Firefox fires contextmenu on the right-button press.
        if button == MouseButton::Right {
            self.dispatch(
                EventKind::ContextMenu,
                target,
                EventPayload::Mouse {
                    x: self.mouse.x,
                    y: self.mouse.y,
                    button,
                },
            );
        }
    }

    fn on_mouse_up(&mut self, button: MouseButton) {
        self.flush_pending_move();
        let up_target = self.document.hit_test(self.mouse);
        let down_entry = self
            .buttons_down
            .iter()
            .position(|(b, _)| *b == button)
            .map(|i| self.buttons_down.remove(i));
        self.dispatch(
            EventKind::PointerUp,
            up_target,
            EventPayload::Mouse {
                x: self.mouse.x,
                y: self.mouse.y,
                button,
            },
        );
        self.dispatch(
            EventKind::MouseUp,
            up_target,
            EventPayload::Mouse {
                x: self.mouse.x,
                y: self.mouse.y,
                button,
            },
        );
        let Some((_, down_target)) = down_entry else {
            return; // spurious up
        };
        // A click requires press and release on the same element.
        if down_target != up_target {
            return;
        }
        match button {
            MouseButton::Left => {
                if let Some(el) = up_target {
                    let r = self.document.element(el).rect;
                    if r.width > 0.0 && r.height > 0.0 {
                        let c = r.center();
                        let off = (((self.mouse.x - c.x) / r.width).powi(2)
                            + ((self.mouse.y - c.y) / r.height).powi(2))
                        .sqrt();
                        self.recorder.record_click_offset(off);
                    }
                }
                self.dispatch(
                    EventKind::Click,
                    up_target,
                    EventPayload::Mouse {
                        x: self.mouse.x,
                        y: self.mouse.y,
                        button,
                    },
                );
                let now = self.now_ms.floor();
                if let Some((prev_t, prev_target)) = self.last_click {
                    if prev_target == up_target
                        && now - prev_t <= self.config.double_click_interval_ms
                    {
                        self.dispatch(
                            EventKind::DblClick,
                            up_target,
                            EventPayload::Mouse {
                                x: self.mouse.x,
                                y: self.mouse.y,
                                button,
                            },
                        );
                        self.last_click = None;
                        return;
                    }
                }
                self.last_click = Some((now, up_target));
            }
            MouseButton::Middle | MouseButton::Right => {
                self.dispatch(
                    EventKind::AuxClick,
                    up_target,
                    EventPayload::Mouse {
                        x: self.mouse.x,
                        y: self.mouse.y,
                        button,
                    },
                );
            }
        }
    }

    fn on_key_down(&mut self, key: String) {
        self.keys_down.push(key.clone());
        let shift = self.keys_down.iter().any(|k| k == "Shift");
        self.dispatch(
            EventKind::KeyDown,
            self.focused,
            EventPayload::Key {
                key: key.clone(),
                shift,
            },
        );
        if key == "Backspace" {
            if let Some(f) = self.focused {
                self.document.element_mut(f).text.pop();
            }
        }
        // keypress + text insertion for printable keys.
        if key.chars().count() == 1 {
            self.dispatch(
                EventKind::KeyPress,
                self.focused,
                EventPayload::Key {
                    key: key.clone(),
                    shift,
                },
            );
            if let Some(f) = self.focused {
                self.document.element_mut(f).text.push_str(&key);
            }
        }
    }

    fn on_key_up(&mut self, key: String) {
        if let Some(pos) = self.keys_down.iter().position(|k| *k == key) {
            self.keys_down.remove(pos);
        }
        let shift = self.keys_down.iter().any(|k| k == "Shift");
        self.dispatch(
            EventKind::KeyUp,
            self.focused,
            EventPayload::Key { key, shift },
        );
    }

    fn on_wheel(&mut self, delta_y: f64) {
        self.flush_pending_move();
        let target = self.document.hit_test(self.mouse);
        self.dispatch(EventKind::Wheel, target, EventPayload::Wheel { delta_y });
        let applied = self.viewport.scroll_by(delta_y);
        if applied != 0.0 {
            let y = self.viewport.scroll_y();
            self.dispatch(
                EventKind::Scroll,
                None,
                EventPayload::Scroll { scroll_y: y },
            );
        }
    }

    fn on_scroll_from(&mut self, origin: ScrollOrigin, amount: f64) {
        let applied = match origin {
            ScrollOrigin::ScrollBar
            | ScrollOrigin::Find
            | ScrollOrigin::Anchor
            | ScrollOrigin::Script => {
                if self.viewport.smooth_scrolling {
                    self.smooth_scroll_to(amount);
                    return;
                }
                self.viewport.scroll_to(amount)
            }
            ScrollOrigin::Wheel => {
                // Wheel scrolls go through on_wheel for the wheel event.
                self.on_wheel(amount * crate::viewport::WHEEL_TICK_PX);
                return;
            }
            stepped => {
                let step = self.viewport.origin_step(stepped);
                self.viewport.scroll_by(step * amount)
            }
        };
        if applied != 0.0 {
            let y = self.viewport.scroll_y();
            self.dispatch(
                EventKind::Scroll,
                None,
                EventPayload::Scroll { scroll_y: y },
            );
        }
    }

    /// Animates an absolute scroll the way Firefox's smooth scrolling
    /// does: ~350 ms of eased 16 ms frames, each dispatching its own
    /// scroll event.
    fn smooth_scroll_to(&mut self, target_y: f64) {
        let start = self.viewport.scroll_y();
        let clamped = target_y.clamp(0.0, self.viewport.max_scroll_y());
        if (clamped - start).abs() < 1.0 {
            return;
        }
        const FRAMES: usize = 22; // ≈350 ms at 16 ms/frame
        for i in 1..=FRAMES {
            let tau = i as f64 / FRAMES as f64;
            // Ease-out cubic, Gecko-like.
            let eased = 1.0 - (1.0 - tau).powi(3);
            let y = start + (clamped - start) * eased;
            self.now_ms += 16.0;
            let moved = self.viewport.scroll_to(y);
            if moved != 0.0 {
                let pos = self.viewport.scroll_y();
                self.dispatch(
                    EventKind::Scroll,
                    None,
                    EventPayload::Scroll { scroll_y: pos },
                );
            }
        }
    }

    /// Scrolls until the element's box is inside the viewport, using the
    /// given origin (Selenium uses [`ScrollOrigin::Script`]; a human drags
    /// the wheel). Returns the final scroll offset.
    pub fn scroll_element_into_view(&mut self, id: NodeId, origin: ScrollOrigin) -> f64 {
        let rect = self.document.element(id).rect;
        if self.viewport.is_y_visible(rect.y)
            && self.viewport.is_y_visible(rect.y + rect.height - 1.0)
        {
            return self.viewport.scroll_y();
        }
        let desired = (rect.y - self.viewport.height / 3.0).max(0.0);
        match origin {
            ScrollOrigin::Script
            | ScrollOrigin::Anchor
            | ScrollOrigin::Find
            | ScrollOrigin::ScrollBar => {
                self.on_scroll_from(origin, desired);
            }
            _ => {
                // Step until visible (bounded by page size).
                let step = self.viewport.origin_step(origin).max(1.0);
                let dir = if desired > self.viewport.scroll_y() {
                    1.0
                } else {
                    -1.0
                };
                let mut guard = 0;
                while (self.viewport.scroll_y() - desired).abs() > step && guard < 10_000 {
                    if origin == ScrollOrigin::Wheel {
                        self.on_wheel(dir * crate::viewport::WHEEL_TICK_PX);
                    } else {
                        self.on_scroll_from(origin, dir);
                    }
                    self.now_ms += 16.0;
                    guard += 1;
                }
            }
        }
        self.viewport.scroll_y()
    }

    /// Where the element's centre currently is, in page coordinates.
    pub fn element_center(&self, id: NodeId) -> Point {
        self.document.element(id).rect.center()
    }

    /// Dispatches a *synthetic* click on an element — the DOM
    /// `element.click()` path Selenium falls back to for obscured
    /// elements. No pointer movement, no mousedown/mouseup, and it works
    /// on hidden elements: exactly the signals honey-element detectors
    /// watch for (§4.2 "adding honey elements").
    pub fn synthetic_click(&mut self, id: NodeId) {
        let r = self.document.element(id).rect;
        let c = r.center();
        if r.width > 0.0 && r.height > 0.0 {
            // A synthetic click reports the exact centre.
            self.recorder.record_click_offset(0.0);
        }
        self.dispatch(
            EventKind::Click,
            Some(id),
            EventPayload::Mouse {
                x: c.x,
                y: c.y,
                button: MouseButton::Left,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::standard_test_page;
    use crate::events::EventKind;

    fn browser() -> Browser {
        Browser::open(
            BrowserConfig::regular(),
            standard_test_page("https://example.test/", 30_000.0),
        )
    }

    #[test]
    fn cursor_starts_at_origin() {
        let b = browser();
        assert_eq!(b.mouse_position(), Point::new(0.0, 0.0));
    }

    #[test]
    fn click_sequence_down_up_click() {
        let mut b = browser();
        let button = b.document().by_id("submit").unwrap();
        let c = b.element_center(button);
        b.input_after(100.0, RawInput::MouseMove { x: c.x, y: c.y });
        b.input_after(
            5.0,
            RawInput::MouseDown {
                button: MouseButton::Left,
            },
        );
        b.input_after(
            80.0,
            RawInput::MouseUp {
                button: MouseButton::Left,
            },
        );
        let kinds: Vec<EventKind> = b.recorder.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::MouseDown));
        assert!(kinds.contains(&EventKind::MouseUp));
        assert!(kinds.contains(&EventKind::Click));
        let clicks = b.recorder.clicks();
        assert_eq!(clicks.len(), 1);
        assert!((clicks[0].dwell_ms - 80.0).abs() <= 1.0);
    }

    #[test]
    fn double_click_requires_interval() {
        let mut b = browser();
        let button = b.document().by_id("submit").unwrap();
        let c = b.element_center(button);
        b.input_after(20.0, RawInput::MouseMove { x: c.x, y: c.y });
        for gap in [10.0, 60.0] {
            b.input_after(
                gap,
                RawInput::MouseDown {
                    button: MouseButton::Left,
                },
            );
            b.input_after(
                50.0,
                RawInput::MouseUp {
                    button: MouseButton::Left,
                },
            );
            let _ = gap;
        }
        assert_eq!(b.recorder.of_kind(EventKind::DblClick).len(), 1);

        // Beyond the interval: no dblclick.
        let mut b2 = browser();
        b2.input_after(20.0, RawInput::MouseMove { x: c.x, y: c.y });
        b2.input_after(
            10.0,
            RawInput::MouseDown {
                button: MouseButton::Left,
            },
        );
        b2.input_after(
            50.0,
            RawInput::MouseUp {
                button: MouseButton::Left,
            },
        );
        b2.advance(800.0);
        b2.input(RawInput::MouseDown {
            button: MouseButton::Left,
        });
        b2.input_after(
            50.0,
            RawInput::MouseUp {
                button: MouseButton::Left,
            },
        );
        assert!(b2.recorder.of_kind(EventKind::DblClick).is_empty());
    }

    #[test]
    fn selenium_config_widens_double_click_window() {
        let cfg = BrowserConfig::webdriver();
        assert_eq!(cfg.double_click_interval_ms, 600.0);
        assert_eq!(BrowserConfig::regular().double_click_interval_ms, 500.0);
    }

    #[test]
    fn mousemove_coalescing_limits_rate() {
        let mut b = browser();
        // 100 raw samples 1 ms apart — far above the 16 ms dispatch cadence.
        for i in 0..100 {
            b.input_after(
                1.0,
                RawInput::MouseMove {
                    x: f64::from(i),
                    y: 0.0,
                },
            );
        }
        let moves = b.recorder.of_kind(EventKind::MouseMove).len();
        assert!(moves <= 8, "dispatched {moves} moves for 100 samples");
        // Position is still tracked exactly.
        assert_eq!(b.mouse_position().x, 99.0);
    }

    #[test]
    fn pending_move_flushes_before_button() {
        let mut b = browser();
        b.input_after(20.0, RawInput::MouseMove { x: 50.0, y: 50.0 });
        // Below the coalescing interval — no event yet...
        b.input_after(1.0, RawInput::MouseMove { x: 51.0, y: 50.0 });
        b.input(RawInput::MouseDown {
            button: MouseButton::Left,
        });
        let evs = b.recorder.events();
        // ... but the press is preceded by a move reporting (51, 50).
        let down_idx = evs
            .iter()
            .position(|e| e.kind == EventKind::MouseDown)
            .unwrap();
        let last_move = evs[..down_idx]
            .iter()
            .rev()
            .find(|e| e.kind == EventKind::MouseMove)
            .unwrap();
        match &last_move.payload {
            EventPayload::Mouse { x, .. } => assert_eq!(*x, 51.0),
            _ => panic!("mouse payload expected"),
        }
    }

    #[test]
    fn typing_focuses_and_fills_input() {
        let mut b = browser();
        let input = b.document().by_id("text_area").unwrap();
        let c = b.element_center(input);
        b.input_after(50.0, RawInput::MouseMove { x: c.x, y: c.y });
        b.input_after(
            10.0,
            RawInput::MouseDown {
                button: MouseButton::Left,
            },
        );
        b.input_after(
            70.0,
            RawInput::MouseUp {
                button: MouseButton::Left,
            },
        );
        assert_eq!(b.focused(), Some(input));
        for k in ["h", "i"] {
            b.input_after(100.0, RawInput::KeyDown { key: k.into() });
            b.input_after(80.0, RawInput::KeyUp { key: k.into() });
        }
        assert_eq!(b.document().element(input).text, "hi");
        assert_eq!(b.recorder.keystrokes().len(), 2);
    }

    #[test]
    fn shift_flag_reflects_modifier_state() {
        let mut b = browser();
        let input = b.document().by_id("text_area").unwrap();
        let c = b.element_center(input);
        b.input_after(50.0, RawInput::MouseMove { x: c.x, y: c.y });
        b.input_after(
            10.0,
            RawInput::MouseDown {
                button: MouseButton::Left,
            },
        );
        b.input_after(
            70.0,
            RawInput::MouseUp {
                button: MouseButton::Left,
            },
        );
        b.input_after(
            50.0,
            RawInput::KeyDown {
                key: "Shift".into(),
            },
        );
        b.input_after(40.0, RawInput::KeyDown { key: "H".into() });
        let shifted = b
            .recorder
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::KeyDown)
            .filter_map(|e| match &e.payload {
                EventPayload::Key { key, shift } if key == "H" => Some(*shift),
                _ => None,
            })
            .next()
            .unwrap();
        assert!(shifted);
    }

    #[test]
    fn wheel_tick_scrolls_57px_and_fires_both_events() {
        let mut b = browser();
        b.input_after(10.0, RawInput::WheelTick { direction: 1 });
        assert_eq!(b.viewport.scroll_y(), 57.0);
        assert_eq!(b.recorder.wheel_count(), 1);
        assert_eq!(b.recorder.of_kind(EventKind::Scroll).len(), 1);
    }

    #[test]
    fn script_scroll_has_no_wheel_event() {
        let mut b = browser();
        b.input_after(
            10.0,
            RawInput::ScrollFrom {
                origin: ScrollOrigin::Script,
                amount: 2_000.0,
            },
        );
        assert_eq!(b.viewport.scroll_y(), 2_000.0);
        assert_eq!(b.recorder.wheel_count(), 0);
        assert_eq!(b.recorder.of_kind(EventKind::Scroll).len(), 1);
    }

    #[test]
    fn minimize_fires_visibilitychange_and_blur() {
        let mut b = browser();
        b.input_after(10.0, RawInput::Minimize);
        assert!(!b.is_visible());
        assert_eq!(b.recorder.of_kind(EventKind::VisibilityChange).len(), 1);
        assert_eq!(b.recorder.of_kind(EventKind::Blur).len(), 1);
        b.input_after(10.0, RawInput::Restore);
        assert!(b.is_visible());
        assert_eq!(b.recorder.of_kind(EventKind::VisibilityChange).len(), 2);
    }

    #[test]
    fn scroll_into_view_wheel_steps_by_ticks() {
        let mut b = browser();
        let target = b.document().by_id("section-end").unwrap();
        let final_y = b.scroll_element_into_view(target, ScrollOrigin::Wheel);
        assert!(final_y > 0.0);
        let rect_y = b.document().element(target).rect.y;
        assert!(b.viewport.is_y_visible(rect_y));
        // Every wheel scroll delta is exactly one tick.
        for d in b.recorder.scroll_deltas() {
            assert!((d.abs() - 57.0).abs() < 1e-9, "delta {d}");
        }
        assert!(b.recorder.wheel_count() > 100);
    }

    #[test]
    fn right_press_fires_contextmenu() {
        let mut b = browser();
        b.input_after(30.0, RawInput::MouseMove { x: 160.0, y: 500.0 });
        b.input_after(
            10.0,
            RawInput::MouseDown {
                button: MouseButton::Right,
            },
        );
        b.input_after(
            60.0,
            RawInput::MouseUp {
                button: MouseButton::Right,
            },
        );
        assert_eq!(b.recorder.of_kind(EventKind::ContextMenu).len(), 1);
        assert_eq!(b.recorder.of_kind(EventKind::AuxClick).len(), 1);
        assert!(b.recorder.of_kind(EventKind::Click).is_empty());
    }

    #[test]
    fn click_requires_same_target_for_down_and_up() {
        let mut b = browser();
        let button = b.document().by_id("submit").unwrap();
        let c = b.element_center(button);
        b.input_after(30.0, RawInput::MouseMove { x: c.x, y: c.y });
        b.input_after(
            10.0,
            RawInput::MouseDown {
                button: MouseButton::Left,
            },
        );
        // Drag off the element before releasing.
        b.input_after(
            40.0,
            RawInput::MouseMove {
                x: c.x + 400.0,
                y: c.y + 100.0,
            },
        );
        b.input_after(
            40.0,
            RawInput::MouseUp {
                button: MouseButton::Left,
            },
        );
        assert!(b.recorder.of_kind(EventKind::Click).is_empty());
    }

    #[test]
    fn pointer_is_clamped_to_the_page() {
        let mut b = browser();
        b.input_after(30.0, RawInput::MouseMove { x: -50.0, y: -10.0 });
        assert_eq!(b.mouse_position(), Point::new(0.0, 0.0));
        b.input_after(30.0, RawInput::MouseMove { x: 1e9, y: 1e9 });
        let p = b.mouse_position();
        assert_eq!((p.x, p.y), (1280.0, 30_000.0));
    }

    #[test]
    fn pointer_events_precede_mouse_events() {
        let mut b = browser();
        b.input_after(30.0, RawInput::MouseMove { x: 50.0, y: 50.0 });
        b.input_after(
            30.0,
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
        let evs = b.recorder.events();
        for (ptr, mouse) in [
            (EventKind::PointerMove, EventKind::MouseMove),
            (EventKind::PointerDown, EventKind::MouseDown),
            (EventKind::PointerUp, EventKind::MouseUp),
        ] {
            let pi = evs.iter().position(|e| e.kind == ptr).unwrap();
            let mi = evs.iter().position(|e| e.kind == mouse).unwrap();
            assert!(pi < mi, "{ptr:?} must precede {mouse:?}");
            assert_eq!(
                b.recorder.of_kind(ptr).len(),
                b.recorder.of_kind(mouse).len(),
                "layer counts must match for {ptr:?}"
            );
        }
    }

    #[test]
    fn backspace_edits_focused_text() {
        let mut b = browser();
        let input = b.document().by_id("text_area").unwrap();
        let c = b.element_center(input);
        b.input_after(50.0, RawInput::MouseMove { x: c.x, y: c.y });
        b.input_after(
            10.0,
            RawInput::MouseDown {
                button: MouseButton::Left,
            },
        );
        b.input_after(
            70.0,
            RawInput::MouseUp {
                button: MouseButton::Left,
            },
        );
        for k in ["a", "b", "c"] {
            b.input_after(80.0, RawInput::KeyDown { key: k.into() });
            b.input_after(60.0, RawInput::KeyUp { key: k.into() });
        }
        b.input_after(
            80.0,
            RawInput::KeyDown {
                key: "Backspace".into(),
            },
        );
        b.input_after(
            60.0,
            RawInput::KeyUp {
                key: "Backspace".into(),
            },
        );
        assert_eq!(b.document().element(input).text, "ab");
    }

    #[test]
    fn synthetic_click_fires_without_pointer_events() {
        let mut b = browser();
        let honey = b.document().by_id("honey").unwrap();
        b.advance(50.0);
        b.synthetic_click(honey);
        assert_eq!(b.recorder.of_kind(EventKind::Click).len(), 1);
        assert!(b.recorder.of_kind(EventKind::MouseDown).is_empty());
        assert!(b.recorder.of_kind(EventKind::MouseMove).is_empty());
        // And it hit the hidden element — impossible for real input.
        assert_eq!(b.recorder.of_kind(EventKind::Click)[0].target, Some(honey));
    }

    #[test]
    fn smooth_scrolling_animates_script_jumps() {
        let mut b = browser();
        b.viewport.smooth_scrolling = true;
        b.input_after(
            10.0,
            RawInput::ScrollFrom {
                origin: ScrollOrigin::Script,
                amount: 4_000.0,
            },
        );
        assert!((b.viewport.scroll_y() - 4_000.0).abs() < 1.0);
        let scrolls = b.recorder.of_kind(EventKind::Scroll).len();
        assert!(scrolls >= 15, "only {scrolls} scroll events");
        // Deltas shrink toward the end (ease-out).
        let deltas = b.recorder.scroll_deltas();
        assert!(deltas.first().unwrap() > deltas.last().unwrap());
        // Without smoothing the same jump is a single event.
        let mut plain = browser();
        plain.input_after(
            10.0,
            RawInput::ScrollFrom {
                origin: ScrollOrigin::Script,
                amount: 4_000.0,
            },
        );
        assert_eq!(plain.recorder.of_kind(EventKind::Scroll).len(), 1);
    }

    #[test]
    fn metrics_cache_invalidates_on_every_source_change() {
        let mut b = browser();
        // Prime the cache, then dispatch: the new event must show up.
        let before = b.metrics().get("events.total").unwrap_or(0);
        b.input_after(30.0, RawInput::WheelTick { direction: 1 });
        let after = b.metrics().get("events.total").unwrap();
        assert!(
            after > before,
            "dispatch must invalidate ({before} -> {after})"
        );

        // Prime again, then re-open: the event trace resets.
        let _ = b.metrics();
        b.reopen(standard_test_page("https://example.test/next", 5_000.0));
        assert_eq!(b.metrics().get("events.total"), Some(0));
    }

    #[test]
    fn document_mutation_invalidates_index_and_metrics_caches() {
        use crate::dom::{Display, ElementBuilder};

        let mut b = browser();
        let submit = b.document().by_id("submit").unwrap();
        let c = b.element_center(submit);
        // Prime both PR 5 caches: the query index and the metrics cache.
        assert_eq!(b.document().hit_test(c), Some(submit));
        assert!(b.metrics().get("dom.mutations").is_none());

        // An SPA-style re-render: drop the old button, graft a new one.
        let fresh = b.mutate_document(|m| {
            m.detach(submit);
            m.append_root(
                ElementBuilder::new("button", crate::Rect::new(700.0, 900.0, 80.0, 30.0))
                    .id("submit")
                    .build(),
            )
        });
        // The rebuilt index serves the new revision...
        assert_eq!(b.document().by_id("submit"), Some(fresh));
        assert_ne!(b.document().hit_test(c), Some(submit));
        // ...and the rebuilt metrics surface the mutation counter.
        assert_eq!(b.metrics().get("dom.mutations"), Some(1));

        // A reveal that grows the page extends the scrollable extent.
        let before_max = b.viewport.max_scroll_y();
        b.mutate_document(|m| {
            m.append_root(
                ElementBuilder::flow(
                    "section",
                    Display::Block {
                        height: 50_000.0,
                        width_frac: 1.0,
                        margin: 0.0,
                        padding: 0.0,
                    },
                )
                .build(),
            );
        });
        assert!(b.viewport.max_scroll_y() > before_max);
        assert_eq!(b.metrics().get("dom.mutations"), Some(2));
    }

    #[test]
    fn coalesced_move_flushes_position_and_target_before_press() {
        let mut b = browser();
        let submit = b.document().by_id("submit").unwrap();
        let text_area = b.document().by_id("text_area").unwrap();
        let s = b.element_center(submit);
        let t = b.element_center(text_area);

        // A dispatched move onto the submit button...
        b.input_after(30.0, RawInput::MouseMove { x: s.x, y: s.y });
        // ...then 1 ms later (inside the coalescing window) a move onto
        // the text area, which is only remembered as `pending_move`...
        b.input_after(1.0, RawInput::MouseMove { x: t.x, y: t.y });
        // ...then the press. The flushed move must report the *final*
        // position with the *re-hit-tested* target — a press at an
        // unreported spot (or against the stale submit target) is exactly
        // the inconsistency a detector would flag.
        b.input_after(
            1.0,
            RawInput::MouseDown {
                button: MouseButton::Left,
            },
        );

        let events = b.recorder.events();
        let down_idx = events
            .iter()
            .position(|e| e.kind == EventKind::MouseDown)
            .unwrap();
        assert_eq!(events[down_idx].target, Some(text_area));
        // The event immediately before the press pair must be the flushed
        // move, carrying the text-area position and target.
        let flushed = &events[down_idx - 2];
        assert_eq!(flushed.kind, EventKind::MouseMove);
        assert_eq!(flushed.target, Some(text_area));
        match &flushed.payload {
            EventPayload::Mouse { x, y, .. } => {
                assert_eq!((*x, *y), (t.x, t.y));
            }
            other => panic!("flushed move payload was {other:?}"),
        }
        // And it precedes the pointerdown (down_idx - 1 is PointerDown).
        assert_eq!(events[down_idx - 1].kind, EventKind::PointerDown);
    }

    #[test]
    fn idle_time_times_events() {
        let mut b = browser();
        assert_eq!(b.now_ms(), 0.0);
        // Time an idle wait passes is what events observe, at 1 ms.
        b.advance(1_023.5);
        b.input(RawInput::WheelTick { direction: 1 });
        assert_eq!(b.recorder.events().last().unwrap().timestamp_ms, 1_023.0);
        assert_eq!(b.now_ms(), 1_023.5);
    }

    #[test]
    #[should_panic(expected = "monotonically")]
    fn advance_rejects_a_negative_delay() {
        browser().advance(-1.0);
    }

    #[test]
    fn clones_get_independent_clocks() {
        let mut a = browser();
        a.advance(10.0);
        let mut b = a.clone();
        b.advance(5.0);
        assert_eq!(a.now_ms(), 10.0);
        assert_eq!(b.now_ms(), 15.0);
    }

    #[test]
    fn browser_opened_from_shared_pristine_matches_fresh_open() {
        use hlisa_jsom::{PropertyDescriptor, Template, Value};

        fn template(world: &mut World) -> Template {
            Template::capture(&mut world.realm, world.window, "window", 3)
        }

        let page = || standard_test_page("https://example.test/", 5_000.0);
        let pristine = BrowserConfig::webdriver().pristine_world();
        let mut shared =
            Browser::open_with_world(BrowserConfig::webdriver(), page(), Arc::clone(&pristine));
        let mut fresh = Browser::open(BrowserConfig::webdriver(), page());

        // Same metrics surface, jsom realm counters included — read
        // before any template walk bumps the realms' get counters.
        let metrics = shared.metrics();
        assert_eq!(metrics, fresh.metrics());
        assert!(metrics.get("jsom.objects_allocated").unwrap_or(0) > 0);
        assert!(template(shared.world_mut())
            .diff(&template(fresh.world_mut()))
            .is_empty());

        // A visit that tampers with its page world leaves the shared
        // pristine, and every later browser opened on it, untouched.
        let nav = shared.world_mut().resolve_navigator();
        shared.world_mut().realm.set_own(
            nav,
            "tampered",
            PropertyDescriptor::plain(Value::Bool(true)),
        );
        assert!(shared.world().realm.has_own(nav, "tampered"));
        assert!(!pristine.realm.has_own(pristine.navigator, "tampered"));
        let mut next =
            Browser::open_with_world(BrowserConfig::webdriver(), page(), Arc::clone(&pristine));
        assert!(!next.world().realm.has_own(nav, "tampered"));
        assert_eq!(
            next.metrics(),
            Browser::open(BrowserConfig::webdriver(), page()).metrics()
        );

        // Re-opening restores the untouched pristine.
        shared.reopen(page());
        assert!(!shared.world().realm.has_own(nav, "tampered"));
        let mut reference = Browser::open(BrowserConfig::webdriver(), page());
        assert!(template(shared.world_mut())
            .diff(&template(reference.world_mut()))
            .is_empty());
        assert!(template(next.world_mut())
            .diff(&template(reference.world_mut()))
            .is_empty());
    }

    #[test]
    fn just_opened_browser_shares_the_pristine_world() {
        let pristine = BrowserConfig::webdriver().pristine_world();
        let mut b = Browser::open_with_world(
            BrowserConfig::webdriver(),
            standard_test_page("https://example.test/", 5_000.0),
            Arc::clone(&pristine),
        );
        assert!(std::ptr::eq(b.world(), Arc::as_ptr(&pristine)));
        assert!(std::ptr::eq(b.clone().world(), Arc::as_ptr(&pristine)));
        // The first write copies; a re-open points back at the pristine.
        b.world_mut();
        assert!(!std::ptr::eq(b.world(), Arc::as_ptr(&pristine)));
        b.reopen(standard_test_page("https://example.test/next", 5_000.0));
        assert!(std::ptr::eq(b.world(), Arc::as_ptr(&pristine)));
    }

    #[test]
    fn copy_on_write_keeps_every_other_holder_unchanged() {
        use hlisa_jsom::{PropertyDescriptor, Value};

        let pristine = BrowserConfig::webdriver().pristine_world();
        let cached = standard_test_page("https://example.test/", 5_000.0);
        cached.build_index();
        let before = cached.clone();
        let open = || {
            Browser::open_with_world(
                BrowserConfig::webdriver(),
                cached.clone(),
                Arc::clone(&pristine),
            )
        };
        let mut a = open();
        let mut sibling = open();
        let mut clone = a.clone();
        let submit = cached.by_id("submit").unwrap();
        let centre = cached.element(submit).rect.center();

        // The clone writes its world, the sibling its DOM, `a` both.
        let nav = pristine.navigator;
        clone.world_mut().realm.set_own(
            nav,
            "tampered",
            PropertyDescriptor::plain(Value::Bool(true)),
        );
        sibling.document_mut().element_mut(submit).rect =
            crate::Rect::new(600.0, 900.0, 50.0, 50.0);
        a.mutate_document(|m| m.detach(submit));
        a.world_mut()
            .realm
            .set_own(nav, "other", PropertyDescriptor::plain(Value::Bool(true)));

        // Each write landed on its writer only.
        assert!(clone.world().realm.has_own(nav, "tampered"));
        assert!(!clone.world().realm.has_own(nav, "other"));
        assert_eq!(clone.document(), &before);
        assert_eq!(clone.document().hit_test(centre), Some(submit));
        assert!(!sibling.world().realm.has_own(nav, "tampered"));
        assert_eq!(
            sibling.document().hit_test(Point::new(625.0, 925.0)),
            Some(submit)
        );
        assert!(!a.world().realm.has_own(nav, "tampered"));
        assert!(a.document().by_id("submit").is_none());
        // The pristine and the cached page saw none of it.
        assert!(!pristine.realm.has_own(nav, "tampered"));
        assert!(!pristine.realm.has_own(nav, "other"));
        assert_eq!(cached, before);
        assert_eq!(cached.hit_test(centre), Some(submit));
        let late = open();
        assert_eq!(late.document(), &before);
        assert!(std::ptr::eq(late.world(), Arc::as_ptr(&pristine)));
        assert_eq!(
            late.metrics(),
            Browser::open(BrowserConfig::webdriver(), before.clone()).metrics()
        );
    }

    #[test]
    fn world_flavor_matches_config() {
        let mut bot = Browser::open(BrowserConfig::webdriver(), standard_test_page("u", 5_000.0));
        let nav = bot.world_mut().resolve_navigator();
        let v = bot.world_mut().realm.get(nav, "webdriver").unwrap();
        assert_eq!(v, hlisa_jsom::Value::Bool(true));
    }
}
