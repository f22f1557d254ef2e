//! Additional widgets: [`Checkbox`], [`Spinner`] and [`ImageView`].

use crate::event::{Action, KeyEvent, PointerEvent, PointerPhase};
use crate::theme::Theme;
use crate::widget::{EventResult, Widget};
use std::any::Any;
use uniint_protocol::input::KeySym;
use uniint_raster::draw::Canvas;
use uniint_raster::font;
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::{Point, Rect, Size};
use uniint_raster::scale::{scale_to_fit, ScaleFilter};

/// A labelled checkbox emitting [`Action::Toggled`].
#[derive(Debug, Clone)]
pub struct Checkbox {
    label: String,
    checked: bool,
    enabled: bool,
}

impl Checkbox {
    /// Creates a checkbox.
    pub fn new(label: impl Into<String>, checked: bool) -> Checkbox {
        Checkbox {
            label: label.into(),
            checked,
            enabled: true,
        }
    }

    /// Current state.
    pub fn is_checked(&self) -> bool {
        self.checked
    }

    /// Enables or disables the checkbox.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn flip(&mut self) -> EventResult {
        self.checked = !self.checked;
        EventResult::action(Action::Toggled(self.checked))
    }
}

impl Widget for Checkbox {
    fn paint(&self, canvas: &mut Canvas<'_>, bounds: Rect, theme: &Theme, focused: bool) {
        canvas.fill_rect(bounds, theme.background);
        let box_size = 11u32;
        let by = bounds.y + (bounds.h as i32 - box_size as i32) / 2;
        let box_rect = Rect::new(bounds.x + 2, by, box_size, box_size);
        canvas.fill_rect(box_rect, theme.text_inverse);
        canvas.bevel(box_rect, theme.chrome, false);
        if self.checked {
            let inner = box_rect.inset(3);
            canvas.fill_rect(
                inner,
                if self.enabled {
                    theme.accent
                } else {
                    theme.disabled
                },
            );
        }
        let text_color = if self.enabled {
            theme.text
        } else {
            theme.disabled
        };
        let tx = box_rect.right() + 4;
        let ty = bounds.y + (bounds.h as i32 - font::GLYPH_HEIGHT as i32) / 2;
        canvas.clipped(bounds, |canvas| {
            canvas.text(Point::new(tx, ty), &self.label, text_color);
        });
        if focused {
            canvas.stroke_rect(bounds, theme.focus);
        }
    }

    fn preferred_size(&self, theme: &Theme) -> Size {
        Size::new(
            15 + font::text_width(&self.label) + 2 * theme.padding,
            font::GLYPH_HEIGHT + 2 * theme.padding,
        )
    }

    fn focusable(&self) -> bool {
        self.enabled
    }

    fn on_pointer(&mut self, ev: PointerEvent, _bounds: Rect) -> EventResult {
        if self.enabled && ev.phase == PointerPhase::Up && ev.inside {
            self.flip()
        } else {
            EventResult::ignored()
        }
    }

    fn on_key(&mut self, ev: KeyEvent) -> EventResult {
        if !self.enabled || !ev.down {
            return EventResult::ignored();
        }
        if ev.sym == KeySym::RETURN || ev.sym == KeySym::from_char(' ') {
            self.flip()
        } else {
            EventResult::ignored()
        }
    }

    fn on_focus(&mut self, _gained: bool) -> bool {
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A numeric up/down field emitting [`Action::ValueChanged`] — the
/// classic channel/temperature spinner.
#[derive(Debug, Clone)]
pub struct Spinner {
    min: i32,
    max: i32,
    value: i32,
    step: i32,
    /// Text suffix shown after the number ("°C", "ch").
    suffix: String,
}

impl Spinner {
    /// Creates a spinner over `min..=max`.
    ///
    /// # Panics
    ///
    /// Panics if `min >= max` or `step <= 0`.
    pub fn new(min: i32, max: i32, value: i32, step: i32) -> Spinner {
        assert!(min < max, "spinner range must be non-empty");
        assert!(step > 0, "spinner step must be positive");
        Spinner {
            min,
            max,
            value: value.clamp(min, max),
            step,
            suffix: String::new(),
        }
    }

    /// Adds a unit suffix to the displayed value.
    pub fn with_suffix(mut self, suffix: impl Into<String>) -> Spinner {
        self.suffix = suffix.into();
        self
    }

    /// Current value.
    pub fn value(&self) -> i32 {
        self.value
    }

    /// Sets the value silently, clamped.
    pub fn set_value(&mut self, value: i32) {
        self.value = value.clamp(self.min, self.max);
    }

    fn change_by(&mut self, delta: i32) -> EventResult {
        let v = (self.value + delta).clamp(self.min, self.max);
        if v == self.value {
            return EventResult::ignored();
        }
        self.value = v;
        EventResult::action(Action::ValueChanged(v))
    }

    fn arrow_zones(bounds: Rect) -> (Rect, Rect) {
        let w = 14u32.min(bounds.w / 3);
        let down = Rect::new(0, 0, w, bounds.h);
        let up = Rect::new(bounds.w as i32 - w as i32, 0, w, bounds.h);
        (down, up)
    }
}

impl Widget for Spinner {
    fn paint(&self, canvas: &mut Canvas<'_>, bounds: Rect, theme: &Theme, focused: bool) {
        canvas.fill_rect(bounds, theme.text_inverse);
        canvas.bevel(bounds, theme.chrome, false);
        let (down, up) = Self::arrow_zones(bounds);
        let down = down.translate(bounds.x, bounds.y);
        let up = up.translate(bounds.x, bounds.y);
        canvas.fill_rect(down, theme.chrome);
        canvas.bevel(down, theme.chrome, true);
        canvas.text_centered(down, "-", theme.text);
        canvas.fill_rect(up, theme.chrome);
        canvas.bevel(up, theme.chrome, true);
        canvas.text_centered(up, "+", theme.text);
        let mid = Rect::new(
            down.right(),
            bounds.y,
            (up.x - down.right()).max(0) as u32,
            bounds.h,
        );
        canvas.text_centered(mid, &format!("{}{}", self.value, self.suffix), theme.text);
        if focused {
            canvas.stroke_rect(bounds, theme.focus);
        }
    }

    fn preferred_size(&self, theme: &Theme) -> Size {
        Size::new(
            28 + font::text_width(&format!("{}{}", self.max, self.suffix)) + 2 * theme.padding,
            font::GLYPH_HEIGHT + 2 * theme.padding + 2,
        )
    }

    fn focusable(&self) -> bool {
        true
    }

    fn on_pointer(&mut self, ev: PointerEvent, bounds: Rect) -> EventResult {
        if ev.phase != PointerPhase::Down {
            return EventResult::ignored();
        }
        let local = Rect::new(0, 0, bounds.w, bounds.h);
        if !local.contains(ev.pos) {
            return EventResult::ignored();
        }
        let (down, up) = Self::arrow_zones(bounds);
        if down.contains(ev.pos) {
            self.change_by(-self.step)
        } else if up.contains(ev.pos) {
            self.change_by(self.step)
        } else {
            EventResult::ignored()
        }
    }

    fn on_key(&mut self, ev: KeyEvent) -> EventResult {
        if !ev.down {
            return EventResult::ignored();
        }
        match ev.sym {
            s if s == KeySym::UP || s == KeySym::RIGHT => self.change_by(self.step),
            s if s == KeySym::DOWN || s == KeySym::LEFT => self.change_by(-self.step),
            s if s == KeySym::HOME => self.change_by(self.min - self.value),
            s if s == KeySym::END => self.change_by(self.max - self.value),
            _ => EventResult::ignored(),
        }
    }

    fn on_focus(&mut self, _gained: bool) -> bool {
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A non-interactive image display (camera snapshots, logos). The image
/// is aspect-fit into the widget bounds at paint time.
#[derive(Debug, Clone)]
pub struct ImageView {
    image: Option<Framebuffer>,
}

impl ImageView {
    /// Creates an empty image view.
    pub fn new() -> ImageView {
        ImageView { image: None }
    }

    /// Creates a view showing `image`.
    pub fn with_image(image: Framebuffer) -> ImageView {
        ImageView { image: Some(image) }
    }

    /// Replaces the displayed image.
    pub fn set_image(&mut self, image: Framebuffer) {
        self.image = Some(image);
    }

    /// Clears the image.
    pub fn clear_image(&mut self) {
        self.image = None;
    }

    /// Whether an image is present.
    pub fn has_image(&self) -> bool {
        self.image.is_some()
    }
}

impl Default for ImageView {
    fn default() -> Self {
        ImageView::new()
    }
}

impl Widget for ImageView {
    fn paint(&self, canvas: &mut Canvas<'_>, bounds: Rect, theme: &Theme, _focused: bool) {
        canvas.fill_rect(bounds, theme.chrome.darken());
        canvas.bevel(bounds, theme.chrome, false);
        let inner = bounds.inset(2);
        match &self.image {
            Some(img) if !inner.is_empty() => {
                let fitted = scale_to_fit(img, inner.size(), ScaleFilter::Box);
                let x = inner.x + (inner.w as i32 - fitted.width() as i32) / 2;
                let y = inner.y + (inner.h as i32 - fitted.height() as i32) / 2;
                canvas.clipped(inner, |canvas| {
                    for yy in 0..fitted.height() {
                        for (xx, &px) in fitted.row(yy).iter().enumerate() {
                            canvas.pixel(Point::new(x + xx as i32, y + yy as i32), px);
                        }
                    }
                });
            }
            _ => {
                canvas.text_centered(inner, "(no image)", theme.disabled);
            }
        }
    }

    fn preferred_size(&self, _theme: &Theme) -> Size {
        match &self.image {
            Some(img) => Size::new(img.width().min(160) + 4, img.height().min(120) + 4),
            None => Size::new(84, 64),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniint_raster::color::Color;

    fn key(sym: KeySym) -> KeyEvent {
        KeyEvent { down: true, sym }
    }

    #[test]
    fn checkbox_toggles_by_key_and_pointer() {
        let mut c = Checkbox::new("Repeat", false);
        assert_eq!(
            c.on_key(key(KeySym::RETURN)).action,
            Some(Action::Toggled(true))
        );
        let ev = PointerEvent {
            phase: PointerPhase::Up,
            pos: Point::new(5, 5),
            inside: true,
        };
        assert_eq!(
            c.on_pointer(ev, Rect::new(0, 0, 60, 16)).action,
            Some(Action::Toggled(false))
        );
    }

    #[test]
    fn checkbox_disabled_is_inert() {
        let mut c = Checkbox::new("x", true);
        c.set_enabled(false);
        assert!(!c.focusable());
        assert_eq!(c.on_key(key(KeySym::RETURN)), EventResult::ignored());
        assert!(c.is_checked());
    }

    #[test]
    fn spinner_steps_and_clamps() {
        let mut s = Spinner::new(0, 10, 5, 2);
        assert_eq!(
            s.on_key(key(KeySym::UP)).action,
            Some(Action::ValueChanged(7))
        );
        assert_eq!(
            s.on_key(key(KeySym::DOWN)).action,
            Some(Action::ValueChanged(5))
        );
        assert_eq!(
            s.on_key(key(KeySym::END)).action,
            Some(Action::ValueChanged(10))
        );
        assert_eq!(s.on_key(key(KeySym::UP)), EventResult::ignored(), "clamped");
        assert_eq!(
            s.on_key(key(KeySym::HOME)).action,
            Some(Action::ValueChanged(0))
        );
    }

    #[test]
    fn spinner_pointer_arrows() {
        let bounds = Rect::new(0, 0, 80, 18);
        let mut s = Spinner::new(0, 100, 50, 5);
        let down_ev = PointerEvent {
            phase: PointerPhase::Down,
            pos: Point::new(3, 9),
            inside: true,
        };
        assert_eq!(
            s.on_pointer(down_ev, bounds).action,
            Some(Action::ValueChanged(45))
        );
        let up_ev = PointerEvent {
            phase: PointerPhase::Down,
            pos: Point::new(77, 9),
            inside: true,
        };
        assert_eq!(
            s.on_pointer(up_ev, bounds).action,
            Some(Action::ValueChanged(50))
        );
        let mid_ev = PointerEvent {
            phase: PointerPhase::Down,
            pos: Point::new(40, 9),
            inside: true,
        };
        assert_eq!(s.on_pointer(mid_ev, bounds), EventResult::ignored());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn spinner_bad_range_panics() {
        Spinner::new(5, 5, 5, 1);
    }

    #[test]
    fn image_view_paints_image_or_placeholder() {
        let theme = Theme::classic();
        let bounds = Rect::new(0, 0, 60, 40);
        let mut fb1 = Framebuffer::new(60, 40, Color::BLACK);
        ImageView::new().paint(&mut Canvas::new(&mut fb1), bounds, &theme, false);
        let mut img = Framebuffer::new(20, 20, Color::RED);
        img.clear(Color::RED);
        let mut fb2 = Framebuffer::new(60, 40, Color::BLACK);
        ImageView::with_image(img).paint(&mut Canvas::new(&mut fb2), bounds, &theme, false);
        assert_ne!(fb1, fb2);
        let red = fb2.pixels().iter().filter(|&&p| p == Color::RED).count();
        assert!(red > 100, "image pixels shown: {red}");
    }

    #[test]
    fn image_view_state() {
        let mut v = ImageView::new();
        assert!(!v.has_image());
        v.set_image(Framebuffer::new(4, 4, Color::GREEN));
        assert!(v.has_image());
        v.clear_image();
        assert!(!v.has_image());
    }

    #[test]
    fn spinner_suffix_displayed_size() {
        let theme = Theme::classic();
        let bare = Spinner::new(0, 99, 0, 1).preferred_size(&theme);
        let suffixed = Spinner::new(0, 99, 0, 1)
            .with_suffix("°C")
            .preferred_size(&theme);
        assert!(suffixed.w > bare.w);
    }
}
