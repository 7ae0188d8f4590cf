//! Simulated browser substrate (the paper's Firefox/Gecko stand-in).
//!
//! The paper's interaction experiments (§4, Appendices C–E) observe
//! interaction exclusively through the JavaScript events a web page
//! receives. This crate therefore implements the pieces of a browser that
//! shape those observations:
//!
//! * a DOM with box layout and hit testing ([`dom`]),
//! * a viewport with every scrolling origin Appendix D lists ([`viewport`]),
//! * an OS-input → DOM-event pipeline with Firefox's granularity quirks
//!   ([`input`], [`events`]): ≥1 ms event timestamps, frame-coalesced
//!   `mousemove`, the 57 px wheel tick, and the environment-supplied
//!   double-click interval (500 ms on Windows, 600 ms observed under
//!   Selenium),
//! * an event recorder standing in for a page's JS listeners
//!   ([`recorder`]),
//! * the full catalogue of the 57 interaction-related events of Appendix C
//!   and the 10-event covering set of Appendix D ([`events`]).
//!
//! A [`Browser`] owns one loaded [`dom::Document`] plus a
//! [`hlisa_jsom::World`] for the page's JS globals, so fingerprint spoofing
//! and interaction run against the same page. It also keeps the page's
//! simulated time, a plain `f64` of milliseconds: it starts at 0 when the
//! browser is opened or re-opened, moves only through
//! [`Browser::advance`] and the input entry points, and every event
//! carries it floored to the 1 ms a page observes (Appendix D: "the
//! granularity for typing events is 1 ms"). No other browser, session or
//! context shares it.

pub mod browser;
pub mod dom;
pub mod events;
pub mod geometry;
mod index;
pub mod input;
pub mod recorder;
pub mod viewport;

pub use browser::{Browser, BrowserConfig};
pub use dom::{Display, Document, DocumentMemo, DocumentMutator, Element, ElementBuilder, NodeId};
pub use events::{DomEvent, EventKind, EventPayload};
pub use geometry::{Point, Rect};
/// The page JS world type, re-exported for callers that hold a shared
/// pristine world (see [`Browser::open_with_world`]).
pub use hlisa_jsom::World;
pub use input::{RawInput, TimedInput};
pub use recorder::EventRecorder;
pub use viewport::{ScrollOrigin, Viewport};
