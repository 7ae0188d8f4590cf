//! DOM events: the full Appendix C catalogue and the dispatched event type.
//!
//! Appendix C lists every event "related to or triggered by interaction"
//! that Firefox offers, grouped by target (Document / Element / Window);
//! Appendix D reduces them to a small covering set that captures all
//! interaction information available to a page. The input pipeline
//! ([`crate::input`]) dispatches the covering set plus the events needed
//! for completeness probes.

use crate::dom::NodeId;

/// Target interface an event fires on (Appendix C grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventTarget {
    /// Fires on `document`.
    Document,
    /// Fires on individual elements.
    Element,
    /// Fires on `window`.
    Window,
}

/// One entry of the Appendix C catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CatalogEntry {
    /// Event name, e.g. `"pointermove"`.
    pub name: &'static str,
    /// Which interface it fires on.
    pub target: EventTarget,
}

/// The Appendix C catalogue of interaction-related events.
pub const EVENT_CATALOG: &[CatalogEntry] = &[
    // Document
    CatalogEntry {
        name: "copy",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "cut",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "dragend",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "dragenter",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "dragleave",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "dragover",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "dragstart",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "drag",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "drop",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "fullscreenchange",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "gotpointercapture",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "keydown",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "keypress",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "keyup",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "lostpointercapture",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "paste",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "pointercancel",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "pointerdown",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "pointerenter",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "pointerleave",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "pointermove",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "pointerout",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "pointerover",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "pointerup",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "scroll",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "selectionchange",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "selectstart",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "touchcancel",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "touchend",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "touchmove",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "touchstart",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "transitionend",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "transitionrun",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "transitionstart",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "visibilitychange",
        target: EventTarget::Document,
    },
    CatalogEntry {
        name: "wheel",
        target: EventTarget::Document,
    },
    // Element
    CatalogEntry {
        name: "auxclick",
        target: EventTarget::Element,
    },
    CatalogEntry {
        name: "blur",
        target: EventTarget::Element,
    },
    CatalogEntry {
        name: "click",
        target: EventTarget::Element,
    },
    CatalogEntry {
        name: "contextmenu",
        target: EventTarget::Element,
    },
    CatalogEntry {
        name: "dblclick",
        target: EventTarget::Element,
    },
    CatalogEntry {
        name: "focusin",
        target: EventTarget::Element,
    },
    CatalogEntry {
        name: "focusout",
        target: EventTarget::Element,
    },
    CatalogEntry {
        name: "focus",
        target: EventTarget::Element,
    },
    CatalogEntry {
        name: "mousedown",
        target: EventTarget::Element,
    },
    CatalogEntry {
        name: "mouseenter",
        target: EventTarget::Element,
    },
    CatalogEntry {
        name: "mouseleave",
        target: EventTarget::Element,
    },
    CatalogEntry {
        name: "mousemove",
        target: EventTarget::Element,
    },
    CatalogEntry {
        name: "mouseout",
        target: EventTarget::Element,
    },
    CatalogEntry {
        name: "mouseover",
        target: EventTarget::Element,
    },
    CatalogEntry {
        name: "mouseup",
        target: EventTarget::Element,
    },
    CatalogEntry {
        name: "select",
        target: EventTarget::Element,
    },
    // Window
    CatalogEntry {
        name: "resize",
        target: EventTarget::Window,
    },
    CatalogEntry {
        name: "focus",
        target: EventTarget::Window,
    },
];

/// Interaction category of the Appendix D covering set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoverageCategory {
    /// Mouse movement.
    MouseMovement,
    /// Mouse clicking.
    MouseClicking,
    /// Scrolling.
    Scrolling,
    /// Typing.
    Typing,
    /// Touch.
    Touch,
    /// Losing/gaining focus.
    FocusChange,
}

/// The covering set of Appendix D: "the following set of 10 events together
/// cover all interaction information available to a web page" — mousemove;
/// dblclick/mousedown/mouseup; scroll/wheel; keydown/keyup;
/// touchstart/touchend — plus the focus category
/// (visibilitychange/blur/focus) called out alongside them.
pub const COVERING_SET: &[(&str, CoverageCategory)] = &[
    ("mousemove", CoverageCategory::MouseMovement),
    ("dblclick", CoverageCategory::MouseClicking),
    ("mousedown", CoverageCategory::MouseClicking),
    ("mouseup", CoverageCategory::MouseClicking),
    ("scroll", CoverageCategory::Scrolling),
    ("wheel", CoverageCategory::Scrolling),
    ("keydown", CoverageCategory::Typing),
    ("keyup", CoverageCategory::Typing),
    ("touchstart", CoverageCategory::Touch),
    ("touchend", CoverageCategory::Touch),
    ("visibilitychange", CoverageCategory::FocusChange),
    ("blur", CoverageCategory::FocusChange),
    ("focus", CoverageCategory::FocusChange),
];

/// Kind of a dispatched event (the subset of the catalogue the input
/// pipeline synthesises).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Pointer-events layer: pointer moved (precedes `mousemove`).
    PointerMove,
    /// Pointer-events layer: contact down (precedes `mousedown`).
    PointerDown,
    /// Pointer-events layer: contact up (precedes `mouseup`).
    PointerUp,
    /// Pointer moved.
    MouseMove,
    /// Primary/secondary button pressed.
    MouseDown,
    /// Button released.
    MouseUp,
    /// down+up on the same target (primary button).
    Click,
    /// Secondary-button click.
    ContextMenu,
    /// Non-primary-button click (e.g. middle, or the `auxclick` a right
    /// press also generates).
    AuxClick,
    /// Two clicks within the double-click interval.
    DblClick,
    /// Mouse wheel rotated.
    Wheel,
    /// Viewport scrolled (any origin).
    Scroll,
    /// Key pressed.
    KeyDown,
    /// Character-generating key pressed (legacy event).
    KeyPress,
    /// Key released.
    KeyUp,
    /// Element gained focus.
    Focus,
    /// Element lost focus.
    Blur,
    /// Page visibility toggled (minimise/restore).
    VisibilityChange,
    /// Window resized.
    Resize,
    /// Touch begun.
    TouchStart,
    /// Touch ended.
    TouchEnd,
}

impl EventKind {
    /// Each kind's DOM event name, in declaration order.
    pub const NAMES: [&'static str; 21] = [
        "pointermove",
        "pointerdown",
        "pointerup",
        "mousemove",
        "mousedown",
        "mouseup",
        "click",
        "contextmenu",
        "auxclick",
        "dblclick",
        "wheel",
        "scroll",
        "keydown",
        "keypress",
        "keyup",
        "focus",
        "blur",
        "visibilitychange",
        "resize",
        "touchstart",
        "touchend",
    ];

    /// DOM event name.
    pub fn name(&self) -> &'static str {
        Self::NAMES[*self as usize]
    }
}

/// Mouse button identifier (DOM `MouseEvent.button`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MouseButton {
    /// Left / primary (0).
    Left,
    /// Middle / auxiliary (1).
    Middle,
    /// Right / secondary (2).
    Right,
}

/// Event payload, by family.
#[derive(Debug, Clone, PartialEq)]
pub enum EventPayload {
    /// Mouse family: page coordinates and button.
    Mouse {
        /// Pointer x (page px).
        x: f64,
        /// Pointer y (page px).
        y: f64,
        /// Button involved (movement carries the last-known button state's
        /// primary button by convention; unused for `mousemove`).
        button: MouseButton,
    },
    /// Keyboard family.
    Key {
        /// DOM `key` value (`"a"`, `"A"`, `"Shift"`, `"Enter"`, ...).
        key: String,
        /// Whether Shift was held.
        shift: bool,
    },
    /// Wheel rotation.
    Wheel {
        /// Vertical delta in px (positive scrolls down).
        delta_y: f64,
    },
    /// Scroll position after the scroll.
    Scroll {
        /// New vertical scroll offset (px).
        scroll_y: f64,
    },
    /// Visibility state after the change.
    Visibility {
        /// True when the page became visible.
        visible: bool,
    },
    /// No payload.
    None,
}

/// A dispatched DOM event, as a page's listeners observe it.
#[derive(Debug, Clone, PartialEq)]
pub struct DomEvent {
    /// Event kind.
    pub kind: EventKind,
    /// Timestamp in ms, quantised to the page-observable 1 ms granularity.
    pub timestamp_ms: f64,
    /// Target element, when the event has one.
    pub target: Option<NodeId>,
    /// Payload.
    pub payload: EventPayload,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_matches_appendix_c() {
        // 36 document + 16 element + 2 window entries.
        let doc = EVENT_CATALOG
            .iter()
            .filter(|e| e.target == EventTarget::Document)
            .count();
        let el = EVENT_CATALOG
            .iter()
            .filter(|e| e.target == EventTarget::Element)
            .count();
        let win = EVENT_CATALOG
            .iter()
            .filter(|e| e.target == EventTarget::Window)
            .count();
        assert_eq!(doc, 36);
        assert_eq!(el, 16);
        assert_eq!(win, 2);
    }

    #[test]
    fn catalog_entries_unique_per_target() {
        let mut seen = HashSet::new();
        for e in EVENT_CATALOG {
            assert!(seen.insert((e.name, e.target)), "duplicate: {e:?}");
        }
    }

    #[test]
    fn covering_set_names_exist_in_catalog() {
        let names: HashSet<&str> = EVENT_CATALOG.iter().map(|e| e.name).collect();
        for (name, _) in COVERING_SET {
            assert!(names.contains(name), "{name} missing from catalog");
        }
    }

    #[test]
    fn covering_set_spans_all_categories() {
        let cats: HashSet<_> = COVERING_SET.iter().map(|(_, c)| *c).collect();
        assert_eq!(cats.len(), 6);
    }

    #[test]
    fn kind_names_round_trip_into_catalog() {
        let names: HashSet<&str> = EVENT_CATALOG.iter().map(|e| e.name).collect();
        let kinds: HashSet<&str> = EventKind::NAMES.into_iter().collect();
        assert_eq!(kinds.len(), EventKind::NAMES.len());
        for name in EventKind::NAMES {
            assert!(names.contains(name), "{name}");
        }
        assert_eq!(EventKind::MouseMove.name(), "mousemove");
        assert_eq!(EventKind::TouchEnd.name(), "touchend");
    }
}
