//! Toolkit theme: the colors and metrics every widget paints with.

use uniint_raster::color::Color;

/// Colors and metrics shared by all widgets of a window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Theme {
    /// Window background.
    pub background: Color,
    /// Widget chrome (button faces, slider tracks).
    pub chrome: Color,
    /// Primary text color.
    pub text: Color,
    /// Text on accented surfaces.
    pub text_inverse: Color,
    /// Accent for active/selected elements.
    pub accent: Color,
    /// Disabled text/chrome.
    pub disabled: Color,
    /// Focus outline color.
    pub focus: Color,
    /// Inner padding of buttons and fields, pixels.
    pub padding: u32,
    /// Default spacing between widgets, pixels.
    pub spacing: u32,
}

impl Theme {
    /// The light gray "1990s toolkit" look, the Java AWT default of the
    /// paper's era.
    pub fn classic() -> Theme {
        Theme {
            background: Color::rgb(214, 214, 206),
            chrome: Color::rgb(198, 198, 190),
            text: Color::BLACK,
            text_inverse: Color::WHITE,
            accent: Color::rgb(0, 60, 116),
            disabled: Color::rgb(128, 128, 120),
            focus: Color::rgb(230, 120, 0),
            padding: 4,
            spacing: 6,
        }
    }

    /// High-contrast theme for TV output at a distance.
    pub fn tv() -> Theme {
        Theme {
            background: Color::rgb(10, 10, 40),
            chrome: Color::rgb(30, 30, 80),
            text: Color::WHITE,
            text_inverse: Color::BLACK,
            accent: Color::rgb(255, 200, 0),
            disabled: Color::rgb(90, 90, 110),
            focus: Color::rgb(255, 200, 0),
            padding: 6,
            spacing: 8,
        }
    }
}

impl Default for Theme {
    fn default() -> Self {
        Theme::classic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_classic() {
        assert_eq!(Theme::default(), Theme::classic());
    }

    #[test]
    fn themes_differ() {
        assert_ne!(Theme::classic(), Theme::tv());
    }

    #[test]
    fn tv_theme_is_high_contrast() {
        let t = Theme::tv();
        let d = t.text.dist2(t.background);
        assert!(d > 100_000, "TV text/background contrast too low: {d}");
    }
}
