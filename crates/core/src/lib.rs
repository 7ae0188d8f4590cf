//! HLISA — the Human-Like Interaction Selenium API (Rust reproduction).
//!
//! The paper's second contribution (§4.1): an interaction API with the same
//! calls and signatures as Selenium's `ActionChains` (Table 3) that drives
//! the *fine-grained* Selenium primitives (`move_to_offset`, `key_down`,
//! `key_up`, ...) so that every observable interaction looks human:
//!
//! * **Mouse movement** — jittered, curved trajectories with initial
//!   acceleration and final deceleration (Fig. 1 D), expressed as chains of
//!   ≥50 ms primitive pointer moves (the `create_pointer_move` override).
//! * **Mouse clicks** — normally distributed placement within the element
//!   (Fig. 2 bottom right) and normally distributed button dwell.
//! * **Scrolling** — an API Selenium lacks: 57 px wheel ticks with normally
//!   distributed pauses and a longer finger-repositioning break.
//! * **Typing** — normally distributed dwell and flight times, simulated
//!   Shift for capitals, and contextual pauses after words, commas and
//!   sentences (Alves et al.).
//!
//! Drop-in usage mirrors Listing 2 of the paper:
//!
//! ```
//! use hlisa::HlisaActionChains;
//! use hlisa_webdriver::{By, Session};
//! use hlisa_browser::{dom::standard_test_page, Browser, BrowserConfig};
//!
//! let browser = Browser::open(BrowserConfig::webdriver(),
//!                             standard_test_page("https://example.test/", 3000.0));
//! let mut driver = Session::new(browser);
//! let element = driver.find_element(By::Id("text_area".into())).unwrap();
//!
//! let mut ac = HlisaActionChains::new(7 /* rng seed */);
//! ac = ac.move_to_element(element);
//! ac = ac.send_keys_to_element(element, "Text..");
//! ac.perform(&mut driver).unwrap();
//! ```
//!
//! The crate also ships the paper's comparison points: the *naive*
//! improvements of §4.1 ([`naive`]) and simplified reimplementations of the
//! Appendix G tools ([`comparators`]).

pub mod chains;
pub mod comparators;
mod extras;
pub mod motion;
pub mod naive;
pub mod scrolling;
pub mod typing;

pub use chains::HlisaActionChains;
pub use motion::{plan_motion, DurationModel, MotionStyle};
pub use naive::NaiveActionChains;
