//! Universal **input** events: keyboard and pointer.
//!
//! The paper fixes the universal input vocabulary to "keyboard/mouse
//! events"; every input plug-in at the UniInt proxy translates its device's
//! native events (keypad presses, stylus taps, recognized voice commands,
//! gestures) into these.

/// A key symbol. Printable keys carry their Unicode scalar; special keys
/// live in the `0xff00` block (same convention as X11 keysyms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeySym(pub u32);

impl KeySym {
    /// Backspace.
    pub const BACKSPACE: KeySym = KeySym(0xff08);
    /// Tab.
    pub const TAB: KeySym = KeySym(0xff09);
    /// Return / Enter.
    pub const RETURN: KeySym = KeySym(0xff0d);
    /// Escape.
    pub const ESCAPE: KeySym = KeySym(0xff1b);
    /// Left cursor key.
    pub const LEFT: KeySym = KeySym(0xff51);
    /// Up cursor key.
    pub const UP: KeySym = KeySym(0xff52);
    /// Right cursor key.
    pub const RIGHT: KeySym = KeySym(0xff53);
    /// Down cursor key.
    pub const DOWN: KeySym = KeySym(0xff54);
    /// Page up.
    pub const PAGE_UP: KeySym = KeySym(0xff55);
    /// Page down.
    pub const PAGE_DOWN: KeySym = KeySym(0xff56);
    /// Home.
    pub const HOME: KeySym = KeySym(0xff50);
    /// End.
    pub const END: KeySym = KeySym(0xff57);
    /// Delete.
    pub const DELETE: KeySym = KeySym(0xffff);

    /// Builds a keysym from a printable character.
    pub const fn from_char(c: char) -> KeySym {
        KeySym(c as u32)
    }

    /// The printable character, if this keysym is one.
    pub fn to_char(self) -> Option<char> {
        if self.0 < 0xff00 {
            char::from_u32(self.0)
        } else {
            None
        }
    }

    /// Whether this is a special (non-printing) key.
    pub const fn is_special(self) -> bool {
        self.0 >= 0xff00
    }
}

impl From<char> for KeySym {
    fn from(c: char) -> Self {
        KeySym::from_char(c)
    }
}

impl core::fmt::Display for KeySym {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            KeySym::RETURN => f.write_str("<Return>"),
            KeySym::ESCAPE => f.write_str("<Escape>"),
            KeySym::TAB => f.write_str("<Tab>"),
            KeySym::BACKSPACE => f.write_str("<Backspace>"),
            KeySym::LEFT => f.write_str("<Left>"),
            KeySym::RIGHT => f.write_str("<Right>"),
            KeySym::UP => f.write_str("<Up>"),
            KeySym::DOWN => f.write_str("<Down>"),
            _ => match self.to_char() {
                Some(c) => write!(f, "{c:?}"),
                None => write!(f, "<keysym {:#06x}>", self.0),
            },
        }
    }
}

/// Pointer button state as a bitmask (bit 0 = left, 1 = middle, 2 = right,
/// bits 3/4 = scroll up/down, like the RFB pointer event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ButtonMask(pub u8);

impl ButtonMask {
    /// No buttons pressed.
    pub const NONE: ButtonMask = ButtonMask(0);
    /// Left button.
    pub const LEFT: ButtonMask = ButtonMask(1);
    /// Middle button.
    pub const MIDDLE: ButtonMask = ButtonMask(1 << 1);
    /// Right button.
    pub const RIGHT: ButtonMask = ButtonMask(1 << 2);
    /// Scroll wheel up.
    pub const SCROLL_UP: ButtonMask = ButtonMask(1 << 3);
    /// Scroll wheel down.
    pub const SCROLL_DOWN: ButtonMask = ButtonMask(1 << 4);

    /// Whether all buttons in `other` are pressed.
    pub const fn contains(self, other: ButtonMask) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no button is pressed.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl core::ops::BitOr for ButtonMask {
    type Output = ButtonMask;
    fn bitor(self, rhs: ButtonMask) -> ButtonMask {
        ButtonMask(self.0 | rhs.0)
    }
}

impl core::fmt::Display for ButtonMask {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_empty() {
            return f.write_str("(none)");
        }
        let mut first = true;
        for (bit, name) in [
            (0, "left"),
            (1, "middle"),
            (2, "right"),
            (3, "up"),
            (4, "down"),
        ] {
            if self.0 >> bit & 1 == 1 {
                if !first {
                    f.write_str("+")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        Ok(())
    }
}

/// A universal input event, the input half of the universal interaction
/// protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputEvent {
    /// A key went down or up.
    Key {
        /// True on press, false on release.
        down: bool,
        /// Which key.
        sym: KeySym,
    },
    /// Pointer moved and/or button state changed. Coordinates are in the
    /// *server's* framebuffer space; input plug-ins perform the device →
    /// server coordinate mapping.
    Pointer {
        /// X in server framebuffer pixels.
        x: u16,
        /// Y in server framebuffer pixels.
        y: u16,
        /// Current button state.
        buttons: ButtonMask,
    },
}

impl InputEvent {
    /// A full key press-release pair for `sym`.
    pub fn key_tap(sym: KeySym) -> [InputEvent; 2] {
        [
            InputEvent::Key { down: true, sym },
            InputEvent::Key { down: false, sym },
        ]
    }

    /// A left-button click (press + release) at `(x, y)`.
    pub fn click(x: u16, y: u16) -> [InputEvent; 2] {
        [
            InputEvent::Pointer {
                x,
                y,
                buttons: ButtonMask::LEFT,
            },
            InputEvent::Pointer {
                x,
                y,
                buttons: ButtonMask::NONE,
            },
        ]
    }
}

impl core::fmt::Display for InputEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InputEvent::Key { down, sym } => {
                write!(f, "key {} {}", if *down { "press" } else { "release" }, sym)
            }
            InputEvent::Pointer { x, y, buttons } => {
                write!(f, "pointer ({x}, {y}) buttons {buttons}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keysym_char_roundtrip() {
        for c in ['a', 'Z', '5', ' ', '!'] {
            assert_eq!(KeySym::from_char(c).to_char(), Some(c));
        }
    }

    #[test]
    fn special_keys_have_no_char() {
        assert_eq!(KeySym::RETURN.to_char(), None);
        assert!(KeySym::RETURN.is_special());
        assert!(!KeySym::from_char('x').is_special());
    }

    #[test]
    fn button_mask_ops() {
        let m = ButtonMask::LEFT | ButtonMask::RIGHT;
        assert!(m.contains(ButtonMask::LEFT));
        assert!(m.contains(ButtonMask::RIGHT));
        assert!(!m.contains(ButtonMask::MIDDLE));
        assert!(!m.is_empty());
        assert!(ButtonMask::NONE.is_empty());
    }

    #[test]
    fn click_is_press_then_release() {
        let [down, up] = InputEvent::click(10, 20);
        match (down, up) {
            (
                InputEvent::Pointer {
                    buttons: b1,
                    x: 10,
                    y: 20,
                },
                InputEvent::Pointer { buttons: b2, .. },
            ) => {
                assert_eq!(b1, ButtonMask::LEFT);
                assert!(b2.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(KeySym::RETURN.to_string(), "<Return>");
        assert_eq!(ButtonMask::LEFT.to_string(), "left");
        assert_eq!(
            (ButtonMask::LEFT | ButtonMask::MIDDLE).to_string(),
            "left+middle"
        );
        let e = InputEvent::Key {
            down: true,
            sym: 'a'.into(),
        };
        assert!(e.to_string().contains("press"));
    }

    #[test]
    fn key_tap_pairs() {
        let [a, b] = InputEvent::key_tap(KeySym::TAB);
        assert_eq!(
            a,
            InputEvent::Key {
                down: true,
                sym: KeySym::TAB
            }
        );
        assert_eq!(
            b,
            InputEvent::Key {
                down: false,
                sym: KeySym::TAB
            }
        );
    }
}
