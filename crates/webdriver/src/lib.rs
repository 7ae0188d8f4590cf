//! WebDriver layer: protocol-level action primitives plus Selenium's
//! high-level interaction API with its recognisable behavioural signature.
//!
//! OpenWPM "does not offer its own interaction API, but simply exposes the
//! Selenium interaction API, which communicates via the WebDriver protocol
//! with Firefox's browser engine" (§4). This crate reproduces that stack
//! over [`hlisa_browser`]:
//!
//! * [`actions`] — the fine-grained W3C action primitives
//!   (`move_to_offset`-style pointer moves, pointer/key down/up, pauses).
//!   These are the functions HLISA calls, "making HLISA resistant to
//!   changes in the Selenium source code that do not affect the Selenium
//!   API" (§4.1). The primitive pointer move enforces Selenium's minimum
//!   move duration, which [`Session::override_pointer_move_min_duration`]
//!   lowers to 50 ms exactly as HLISA patches `create_pointer_move`.
//! * [`session`] — a WebDriver session: element lookup and
//!   introspection, action dispatch, script-level scrolling and clicks,
//!   and reflective script probes.
//! * [`selenium`] — `ActionChains` with Selenium's behavioural signature:
//!   straight uniform-speed cursor moves, clicks dead-centre with no dwell,
//!   13,333 cpm flawless typing without modifier keys, and script scrolling
//!   of arbitrary distance with no wheel events.

pub mod actions;
pub mod audit;
pub mod error;
pub mod selenium;
pub mod session;

pub use actions::{Action, PointerMoveProfile, HLISA_MIN_MOVE_MS};
pub use audit::{ActionAuditor, AuditFinding};
pub use error::WebDriverError;
pub use selenium::SeleniumActionChains;
pub use session::{By, ElementHandle, Session};
