//! Raw (OS-level) input — what drivers inject *below* the event layer.
//!
//! Both Selenium's action primitives and HLISA ultimately inject raw input;
//! the browser turns it into the DOM events a page observes. Keeping the
//! two layers separate is what lets the same detector code judge Selenium,
//! naive improvements, HLISA, and the human reference model.

use crate::events::MouseButton;
use crate::viewport::ScrollOrigin;

/// A raw input item handed to [`crate::Browser::input`].
#[derive(Debug, Clone, PartialEq)]
pub enum RawInput {
    /// Pointer moved to absolute page coordinates.
    MouseMove {
        /// Target x (page px).
        x: f64,
        /// Target y (page px).
        y: f64,
    },
    /// Button pressed.
    MouseDown {
        /// Which button.
        button: MouseButton,
    },
    /// Button released.
    MouseUp {
        /// Which button.
        button: MouseButton,
    },
    /// Key pressed.
    KeyDown {
        /// DOM key value.
        key: String,
    },
    /// Key released.
    KeyUp {
        /// DOM key value.
        key: String,
    },
    /// One mouse-wheel click (±1 → down/up by the 57 px tick).
    WheelTick {
        /// +1 scrolls down, −1 scrolls up.
        direction: i32,
    },
    /// A free-form wheel delta (trackpads, scripted wheels).
    WheelDelta {
        /// Vertical delta (px, positive scrolls down).
        delta_y: f64,
    },
    /// A non-wheel scroll from the given origin.
    ScrollFrom {
        /// Which mechanism.
        origin: ScrollOrigin,
        /// Meaning depends on origin: absolute target for
        /// `ScrollBar`/`Find`/`Anchor`/`Script`, signed multiplier for the
        /// stepped origins.
        amount: f64,
    },
    /// Touch begun at page coordinates.
    TouchStart {
        /// Touch x.
        x: f64,
        /// Touch y.
        y: f64,
    },
    /// Touch ended.
    TouchEnd,
    /// Window minimised (page hidden).
    Minimize,
    /// Window restored (page visible).
    Restore,
    /// Window resized.
    Resize {
        /// New viewport width.
        width: f64,
        /// New viewport height.
        height: f64,
    },
}

/// One item of a timed batch for [`crate::Browser::input_timed`]: let
/// `delay_ms` of simulated time pass, then inject `raw` (nothing, for a
/// pure pause).
#[derive(Debug, Clone, PartialEq)]
pub struct TimedInput {
    /// Simulated time before the input (ms, finite and non-negative).
    pub delay_ms: f64,
    /// The input injected once the delay has passed; `None` only waits.
    pub raw: Option<RawInput>,
}

impl TimedInput {
    /// `raw`, injected `delay_ms` after the previous item.
    pub fn after(delay_ms: f64, raw: RawInput) -> Self {
        Self {
            delay_ms,
            raw: Some(raw),
        }
    }

    /// A pure wait of `delay_ms`.
    pub fn pause(delay_ms: f64) -> Self {
        Self {
            delay_ms,
            raw: None,
        }
    }
}
