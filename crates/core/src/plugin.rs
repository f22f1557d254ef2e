//! The UniInt plug-in model.
//!
//! In the paper, each interaction device *transmits a plug-in module* to
//! the UniInt proxy: an **input plug-in** translating device-native events
//! into universal keyboard/mouse events, and an **output plug-in**
//! converting server bitmaps into something the device can display. The
//! proxy stays generic; all device knowledge lives in the plug-ins.

use std::sync::Arc;

use uniint_protocol::input::InputEvent;
use uniint_raster::dither::DitherMode;
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::Size;
use uniint_raster::pixel::PixelFormat;
use uniint_raster::region::Region;
use uniint_raster::scale::ScaleFilter;

/// Navigation directions on directional pads / gesture vocabularies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Nav {
    /// Up.
    Up,
    /// Down.
    Down,
    /// Left.
    Left,
    /// Right.
    Right,
}

/// Buttons on a classic infrared remote controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RemoteKey {
    /// Power toggle.
    Power,
    /// Channel up.
    ChannelUp,
    /// Channel down.
    ChannelDown,
    /// Volume up.
    VolumeUp,
    /// Volume down.
    VolumeDown,
    /// Mute toggle.
    Mute,
    /// OK/confirm.
    Ok,
    /// Menu/back.
    Menu,
    /// A digit key `0..=9`.
    Digit(u8),
}

/// Hand gestures recognized by a wearable device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gesture {
    /// Swipe in a direction.
    Swipe(Nav),
    /// Closed fist: select/activate.
    Fist,
    /// Open palm: cancel/back.
    Palm,
    /// Circular motion: cycle focus.
    Circle,
}

/// A device-native input event, before translation to the universal
/// protocol. This is the vocabulary input plug-ins consume.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceEvent {
    /// Stylus/touch contact on a device screen (device coordinates).
    StylusDown {
        /// X on the device screen.
        x: u16,
        /// Y on the device screen.
        y: u16,
    },
    /// Stylus/touch drag.
    StylusMove {
        /// X on the device screen.
        x: u16,
        /// Y on the device screen.
        y: u16,
    },
    /// Stylus/touch lift.
    StylusUp {
        /// X on the device screen.
        x: u16,
        /// Y on the device screen.
        y: u16,
    },
    /// A phone keypad digit `0..=9`.
    KeypadDigit(u8),
    /// A phone keypad navigation key.
    KeypadNav(Nav),
    /// Keypad select (center key).
    KeypadSelect,
    /// Keypad back/clear.
    KeypadBack,
    /// A recognized voice utterance (already speech-to-text'd).
    Voice(String),
    /// A wearable gesture.
    Gesture(Gesture),
    /// An infrared remote button.
    Remote(RemoteKey),
    /// A full keyboard character (e.g. from a desktop viewer).
    Char(char),
}

/// What an output device can display; drives the proxy's adaptation
/// pipeline and its `SetPixelFormat` negotiation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputCaps {
    /// Native screen size in pixels.
    pub size: Size,
    /// Deepest pixel format the device can show.
    pub format: PixelFormat,
    /// Dithering the plug-in applies when reducing depth.
    pub dither: DitherMode,
    /// Scaling filter used to fit the server frame.
    pub scale: ScaleFilter,
}

/// A frame fully adapted for one output device.
///
/// The pixels are a shared, immutable snapshot: cloning a `DeviceFrame`
/// (as the supervisor does to keep the last good one) bumps a reference
/// count, and the plug-in that made it never writes it again.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceFrame {
    /// Pixels, already at device resolution and reduced to the device's
    /// representable colors.
    pub frame: Arc<Framebuffer>,
    /// The format the pixels are representable in.
    pub format: PixelFormat,
    /// Bytes a full-frame transfer occupies on the device link.
    pub wire_bytes: usize,
    /// Device pixels that differ from the previously adapted frame
    /// (full bounds on the first frame). Device links that support
    /// partial refresh (most 2002 LCD controllers did) only ship this.
    pub changed: Region,
}

impl DeviceFrame {
    /// Creates a frame whose whole area counts as changed.
    pub fn new(
        frame: impl Into<Arc<Framebuffer>>,
        format: PixelFormat,
        wire_bytes: usize,
    ) -> DeviceFrame {
        let frame = frame.into();
        let changed = Region::from_rect(frame.bounds());
        DeviceFrame {
            frame,
            format,
            wire_bytes,
            changed,
        }
    }

    /// Sets the changed region.
    pub fn with_changed(mut self, changed: Region) -> DeviceFrame {
        self.changed = changed;
        self
    }

    /// Bytes a delta transfer of only the changed pixels would occupy
    /// (per-pixel cost; ignores sub-byte packing slack).
    pub fn delta_bytes(&self) -> usize {
        (self.changed.area() as usize * self.format.bits_per_pixel() as usize).div_ceil(8)
    }
}

/// Context handed to input plug-ins so they can map device coordinates
/// into the server's framebuffer space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputContext {
    /// Size of the server framebuffer (universal coordinate space).
    pub server_size: Size,
    /// Size of the *displayed* image on the device (after aspect fit).
    pub device_view: Size,
}

impl InputContext {
    /// Maps a device-view coordinate to server coordinates.
    pub fn to_server(&self, x: u16, y: u16) -> (u16, u16) {
        let sx = (x as u64 * self.server_size.w as u64 / self.device_view.w.max(1) as u64)
            .min(self.server_size.w.saturating_sub(1) as u64);
        let sy = (y as u64 * self.server_size.h as u64 / self.device_view.h.max(1) as u64)
            .min(self.server_size.h.saturating_sub(1) as u64);
        (sx as u16, sy as u16)
    }
}

/// Translates device-native events into universal input events.
///
/// Implementations are uploaded by the input device when the proxy
/// selects it (see [`crate::proxy::UniIntProxy::attach_input`]).
pub trait InputPlugin: std::fmt::Debug + Send {
    /// The device kind this plug-in speaks for ("pda-stylus", "keypad"...).
    fn kind(&self) -> &'static str;

    /// Translates one device event. May return zero events (unrecognized
    /// utterance) or several (a click is press + release).
    fn translate(&mut self, ev: &DeviceEvent, ctx: &InputContext) -> Vec<InputEvent>;
}

/// Converts server frames for one output device.
pub trait OutputPlugin: std::fmt::Debug + Send {
    /// The device kind this plug-in renders for.
    fn kind(&self) -> &'static str;

    /// The device's display capabilities.
    fn caps(&self) -> OutputCaps;

    /// Adapts a full server frame to the device.
    ///
    /// A plug-in may keep state between calls (the built-in screens keep
    /// the server frame's journal stamp and their last device frames to
    /// redo only what changed), but the returned `frame` must equal what
    /// a freshly built plug-in returns for the same server frame. It is a
    /// shared snapshot: once returned, the plug-in never changes it, so
    /// the caller may keep it as long as it likes. `changed` is relative
    /// to this plug-in's previous output: the device pixels that differ
    /// from it, or the whole frame when there is no previous output of the
    /// same size.
    fn adapt(&mut self, server_frame: &Framebuffer) -> DeviceFrame;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_context_maps_corners() {
        let ctx = InputContext {
            server_size: Size::new(640, 480),
            device_view: Size::new(160, 120),
        };
        assert_eq!(ctx.to_server(0, 0), (0, 0));
        assert_eq!(ctx.to_server(159, 119), (636, 476));
        assert_eq!(ctx.to_server(80, 60), (320, 240));
    }

    #[test]
    fn input_context_clamps_overshoot() {
        let ctx = InputContext {
            server_size: Size::new(100, 100),
            device_view: Size::new(50, 50),
        };
        assert_eq!(ctx.to_server(200, 200), (99, 99));
    }

    #[test]
    fn input_context_degenerate_view() {
        let ctx = InputContext {
            server_size: Size::new(100, 100),
            device_view: Size::new(0, 0),
        };
        // Must not divide by zero.
        let _ = ctx.to_server(10, 10);
    }
}
