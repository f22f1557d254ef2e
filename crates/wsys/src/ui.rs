//! The window: widget ownership, input routing, focus management, and
//! damage-driven rendering into a framebuffer.

use crate::event::{Action, ActionEvent, KeyEvent, PointerEvent, PointerPhase, WidgetId};
use crate::theme::Theme;
use crate::widget::Widget;
use uniint_protocol::input::{ButtonMask, InputEvent, KeySym};
use uniint_raster::draw::Canvas;
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::{Point, Rect, Size};

#[derive(Debug)]
struct Node {
    id: WidgetId,
    rect: Rect,
    widget: Box<dyn Widget>,
    visible: bool,
}

/// A single top-level window: the unit an appliance application renders
/// its control panel into, and the unit the UniInt server exports.
///
/// ```
/// use uniint_wsys::prelude::*;
/// use uniint_raster::geom::Rect;
/// let mut ui = Ui::new(160, 120, Theme::classic(), "demo");
/// let power = ui.add(Button::new("Power"), Rect::new(10, 10, 60, 20));
/// ui.render();
/// // A stylus tap lands as universal pointer events:
/// for ev in uniint_protocol::input::InputEvent::click(40, 20) {
///     ui.dispatch(ev);
/// }
/// let actions = ui.take_actions();
/// assert_eq!(actions.len(), 1);
/// assert_eq!(actions[0].widget, power);
/// ```
#[derive(Debug)]
pub struct Ui {
    fb: Framebuffer,
    theme: Theme,
    title: String,
    nodes: Vec<Node>,
    next_id: WidgetId,
    focus: Option<WidgetId>,
    grab: Option<WidgetId>,
    buttons: ButtonMask,
    pointer: Point,
    actions: Vec<ActionEvent>,
    dirty: Vec<WidgetId>,
    all_dirty: bool,
    bell: bool,
    shortcuts: Vec<(KeySym, WidgetId)>,
}

impl Ui {
    /// Creates an empty window of the given size.
    pub fn new(width: u32, height: u32, theme: Theme, title: impl Into<String>) -> Ui {
        Ui {
            fb: Framebuffer::new(width, height, theme.background),
            theme,
            title: title.into(),
            nodes: Vec::new(),
            next_id: 1,
            focus: None,
            grab: None,
            buttons: ButtonMask::NONE,
            pointer: Point::ORIGIN,
            actions: Vec::new(),
            dirty: Vec::new(),
            all_dirty: true,
            bell: false,
            shortcuts: Vec::new(),
        }
    }

    /// Window title (exported as the protocol desktop name).
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The theme widgets paint with.
    pub fn theme(&self) -> &Theme {
        &self.theme
    }

    /// Window size.
    pub fn size(&self) -> Size {
        self.fb.size()
    }

    /// Read access to the rendered framebuffer.
    pub fn framebuffer(&self) -> &Framebuffer {
        &self.fb
    }

    /// Mutable framebuffer access (for the server's damage drain).
    pub fn framebuffer_mut(&mut self) -> &mut Framebuffer {
        &mut self.fb
    }

    /// Adds a widget at `rect`, returning its id. Widgets must not
    /// overlap; hit-testing picks the last-added widget at a point.
    pub fn add(&mut self, widget: impl Widget + 'static, rect: Rect) -> WidgetId {
        let id = self.next_id;
        self.next_id += 1;
        self.nodes.push(Node {
            id,
            rect,
            widget: Box::new(widget),
            visible: true,
        });
        self.dirty.push(id);
        if self.focus.is_none() && self.nodes.last().unwrap().widget.focusable() {
            self.set_focus(Some(id));
        }
        id
    }

    /// Removes a widget. Returns true when it existed.
    pub fn remove(&mut self, id: WidgetId) -> bool {
        let Some(idx) = self.index_of(id) else {
            return false;
        };
        let rect = self.nodes[idx].rect;
        self.nodes.remove(idx);
        if self.focus == Some(id) {
            self.focus = None;
        }
        if self.grab == Some(id) {
            self.grab = None;
        }
        // Repaint the hole the widget leaves.
        self.fb.fill_rect(rect, self.theme.background);
        true
    }

    /// Removes every widget and clears the window.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.shortcuts.clear();
        self.focus = None;
        self.grab = None;
        self.all_dirty = true;
    }

    /// Binds a key to a widget: when no focused widget consumes the key,
    /// pressing it activates `id` as if Return were tapped on it (the
    /// toolkit's mnemonic mechanism; remote-controller and voice plug-ins
    /// rely on it for one-key commands like Power).
    pub fn bind_shortcut(&mut self, sym: KeySym, id: WidgetId) {
        self.shortcuts.retain(|(s, _)| *s != sym);
        self.shortcuts.push((sym, id));
    }

    /// Number of widgets.
    pub fn widget_count(&self) -> usize {
        self.nodes.len()
    }

    /// All widget ids in insertion order.
    pub fn widget_ids(&self) -> Vec<WidgetId> {
        self.nodes.iter().map(|n| n.id).collect()
    }

    /// The bounds of a widget.
    pub fn widget_rect(&self, id: WidgetId) -> Option<Rect> {
        self.index_of(id).map(|i| self.nodes[i].rect)
    }

    /// Shows or hides a widget.
    pub fn set_visible(&mut self, id: WidgetId, visible: bool) {
        if let Some(i) = self.index_of(id) {
            if self.nodes[i].visible != visible {
                self.nodes[i].visible = visible;
                let rect = self.nodes[i].rect;
                self.fb.fill_rect(rect, self.theme.background);
                self.dirty.push(id);
            }
        }
    }

    /// Typed read access to a widget.
    pub fn widget<T: 'static>(&self, id: WidgetId) -> Option<&T> {
        self.index_of(id)
            .and_then(|i| self.nodes[i].widget.as_any().downcast_ref())
    }

    /// Typed mutable access; conservatively marks the widget dirty.
    pub fn widget_mut<T: 'static>(&mut self, id: WidgetId) -> Option<&mut T> {
        let i = self.index_of(id)?;
        self.dirty.push(id);
        self.nodes[i].widget.as_any_mut().downcast_mut()
    }

    /// Currently focused widget.
    pub fn focused(&self) -> Option<WidgetId> {
        self.focus
    }

    /// Explicitly moves focus (or clears it with `None`).
    pub fn set_focus(&mut self, id: Option<WidgetId>) {
        if self.focus == id {
            return;
        }
        if let Some(old) = self.focus {
            if let Some(i) = self.index_of(old) {
                if self.nodes[i].widget.on_focus(false) {
                    self.dirty.push(old);
                }
            }
        }
        self.focus = id;
        if let Some(new) = id {
            if let Some(i) = self.index_of(new) {
                if self.nodes[i].widget.on_focus(true) {
                    self.dirty.push(new);
                }
            }
        }
    }

    /// Rings the window bell (exported by the server as a Bell message).
    pub fn ring_bell(&mut self) {
        self.bell = true;
    }

    /// Drains the bell flag.
    pub fn take_bell(&mut self) -> bool {
        core::mem::take(&mut self.bell)
    }

    /// Resizes the window, marking everything dirty.
    pub fn resize(&mut self, width: u32, height: u32) {
        self.fb = Framebuffer::new(width, height, self.theme.background);
        self.all_dirty = true;
    }

    /// Delivers one universal input event.
    pub fn dispatch(&mut self, event: InputEvent) {
        match event {
            InputEvent::Pointer { x, y, buttons } => {
                self.dispatch_pointer(Point::new(x as i32, y as i32), buttons)
            }
            InputEvent::Key { down, sym } => self.dispatch_key(KeyEvent { down, sym }),
        }
    }

    /// Drains actions emitted since the last call.
    pub fn take_actions(&mut self) -> Vec<ActionEvent> {
        core::mem::take(&mut self.actions)
    }

    /// Repaints dirty widgets into the framebuffer. Returns true when any
    /// pixel may have changed (i.e. damage was produced).
    pub fn render(&mut self) -> bool {
        if self.all_dirty {
            self.fb.clear(self.theme.background);
            self.dirty.clear();
            let focus = self.focus;
            for n in &mut self.nodes {
                if n.visible {
                    let mut canvas = Canvas::with_clip(&mut self.fb, n.rect);
                    n.widget
                        .paint(&mut canvas, n.rect, &self.theme, focus == Some(n.id));
                }
            }
            self.all_dirty = false;
            return true;
        }
        if self.dirty.is_empty() {
            return false;
        }
        let mut ids = core::mem::take(&mut self.dirty);
        ids.sort_unstable();
        ids.dedup();
        let focus = self.focus;
        let mut painted = false;
        for id in ids {
            let Some(i) = self.nodes.iter().position(|n| n.id == id) else {
                continue;
            };
            let rect = self.nodes[i].rect;
            if !self.nodes[i].visible {
                continue;
            }
            self.fb.fill_rect(rect, self.theme.background);
            let n = &mut self.nodes[i];
            let mut canvas = Canvas::with_clip(&mut self.fb, rect);
            n.widget
                .paint(&mut canvas, rect, &self.theme, focus == Some(id));
            painted = true;
        }
        painted
    }

    fn index_of(&self, id: WidgetId) -> Option<usize> {
        self.nodes.iter().position(|n| n.id == id)
    }

    fn hit_test(&self, p: Point) -> Option<WidgetId> {
        self.nodes
            .iter()
            .rev()
            .find(|n| n.visible && n.rect.contains(p))
            .map(|n| n.id)
    }

    fn deliver_pointer(&mut self, id: WidgetId, phase: PointerPhase, pos: Point) {
        let Some(i) = self.index_of(id) else { return };
        let rect = self.nodes[i].rect;
        let local = pos - rect.origin();
        let ev = PointerEvent {
            phase,
            pos: local,
            inside: rect.contains(pos),
        };
        let result = self.nodes[i].widget.on_pointer(ev, rect);
        if result.repaint {
            self.dirty.push(id);
        }
        if let Some(action) = result.action {
            self.push_action(id, action);
        }
    }

    fn dispatch_pointer(&mut self, pos: Point, buttons: ButtonMask) {
        let was_down = self.buttons.contains(ButtonMask::LEFT);
        let is_down = buttons.contains(ButtonMask::LEFT);
        self.pointer = pos;
        self.buttons = buttons;
        if !was_down && is_down {
            // Press: focus and grab the widget under the pointer.
            if let Some(id) = self.hit_test(pos) {
                let focusable = self
                    .index_of(id)
                    .map(|i| self.nodes[i].widget.focusable())
                    .unwrap_or(false);
                if focusable {
                    self.set_focus(Some(id));
                }
                self.grab = Some(id);
                self.deliver_pointer(id, PointerPhase::Down, pos);
            }
        } else if was_down && is_down {
            if let Some(id) = self.grab {
                self.deliver_pointer(id, PointerPhase::Drag, pos);
            }
        } else if was_down && !is_down {
            if let Some(id) = self.grab.take() {
                self.deliver_pointer(id, PointerPhase::Up, pos);
            }
        } else if let Some(id) = self.hit_test(pos) {
            self.deliver_pointer(id, PointerPhase::Hover, pos);
        }
    }

    fn dispatch_key(&mut self, ev: KeyEvent) {
        // Focused widget gets first refusal.
        if let Some(id) = self.focus {
            if let Some(i) = self.index_of(id) {
                let result = self.nodes[i].widget.on_key(ev);
                let consumed = result.repaint || result.action.is_some();
                if result.repaint {
                    self.dirty.push(id);
                }
                if let Some(action) = result.action {
                    self.push_action(id, action);
                }
                if consumed {
                    return;
                }
            }
        }
        if ev.down {
            // Mnemonic shortcuts before focus traversal.
            if let Some(&(_, id)) = self.shortcuts.iter().find(|(s, _)| *s == ev.sym) {
                if let Some(i) = self.index_of(id) {
                    for phase in [true, false] {
                        let r = self.nodes[i].widget.on_key(KeyEvent {
                            down: phase,
                            sym: KeySym::RETURN,
                        });
                        if r.repaint {
                            self.dirty.push(id);
                        }
                        if let Some(action) = r.action {
                            self.push_action(id, action);
                        }
                    }
                    return;
                }
            }
            // Focus traversal on unconsumed navigation keys.
            match ev.sym {
                s if s == KeySym::TAB || s == KeySym::DOWN || s == KeySym::RIGHT => {
                    self.move_focus(1)
                }
                s if s == KeySym::UP || s == KeySym::LEFT => self.move_focus(-1),
                _ => {}
            }
        }
    }

    fn move_focus(&mut self, dir: i32) {
        let focusables: Vec<WidgetId> = self
            .nodes
            .iter()
            .filter(|n| n.visible && n.widget.focusable())
            .map(|n| n.id)
            .collect();
        if focusables.is_empty() {
            return;
        }
        let next = match self
            .focus
            .and_then(|f| focusables.iter().position(|&x| x == f))
        {
            None => 0,
            Some(cur) => (cur as i32 + dir).rem_euclid(focusables.len() as i32) as usize,
        };
        self.set_focus(Some(focusables[next]));
    }

    fn push_action(&mut self, widget: WidgetId, action: Action) {
        self.actions.push(ActionEvent { widget, action });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::widgets::button::{Button, Toggle};
    use crate::widgets::label::Label;
    use crate::widgets::slider::Slider;

    fn click(ui: &mut Ui, x: u16, y: u16) {
        for ev in InputEvent::click(x, y) {
            ui.dispatch(ev);
        }
    }

    fn tap(ui: &mut Ui, sym: KeySym) {
        for ev in InputEvent::key_tap(sym) {
            ui.dispatch(ev);
        }
    }

    fn three_button_ui() -> (Ui, WidgetId, WidgetId, WidgetId) {
        let mut ui = Ui::new(200, 100, Theme::classic(), "t");
        let a = ui.add(Button::new("A"), Rect::new(0, 0, 50, 20));
        let b = ui.add(Button::new("B"), Rect::new(60, 0, 50, 20));
        let c = ui.add(Button::new("C"), Rect::new(120, 0, 50, 20));
        (ui, a, b, c)
    }

    #[test]
    fn click_fires_action_on_target() {
        let (mut ui, _a, b, _c) = three_button_ui();
        click(&mut ui, 70, 10);
        let acts = ui.take_actions();
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].widget, b);
        assert_eq!(acts[0].action, Action::Clicked);
    }

    #[test]
    fn click_on_background_is_noop() {
        let (mut ui, ..) = three_button_ui();
        click(&mut ui, 10, 90);
        assert!(ui.take_actions().is_empty());
    }

    #[test]
    fn first_focusable_gets_focus() {
        let mut ui = Ui::new(100, 100, Theme::classic(), "t");
        ui.add(Label::new("title"), Rect::new(0, 0, 100, 10));
        let b = ui.add(Button::new("B"), Rect::new(0, 20, 50, 20));
        assert_eq!(ui.focused(), Some(b));
    }

    #[test]
    fn tab_cycles_focus() {
        let (mut ui, a, b, c) = three_button_ui();
        assert_eq!(ui.focused(), Some(a));
        tap(&mut ui, KeySym::TAB);
        assert_eq!(ui.focused(), Some(b));
        tap(&mut ui, KeySym::TAB);
        assert_eq!(ui.focused(), Some(c));
        tap(&mut ui, KeySym::TAB);
        assert_eq!(ui.focused(), Some(a), "wraps around");
    }

    #[test]
    fn arrows_move_focus_when_unconsumed() {
        let (mut ui, a, b, _c) = three_button_ui();
        tap(&mut ui, KeySym::RIGHT);
        assert_eq!(ui.focused(), Some(b));
        tap(&mut ui, KeySym::LEFT);
        assert_eq!(ui.focused(), Some(a));
    }

    #[test]
    fn slider_consumes_arrows_instead_of_moving_focus() {
        let mut ui = Ui::new(200, 100, Theme::classic(), "t");
        let s = ui.add(Slider::new(0, 10, 5, 1), Rect::new(0, 0, 100, 16));
        let _b = ui.add(Button::new("B"), Rect::new(0, 30, 50, 20));
        assert_eq!(ui.focused(), Some(s));
        tap(&mut ui, KeySym::RIGHT);
        assert_eq!(ui.focused(), Some(s), "slider keeps focus");
        assert_eq!(
            ui.take_actions().pop().unwrap().action,
            Action::ValueChanged(6)
        );
    }

    #[test]
    fn return_activates_focused_button() {
        let (mut ui, a, ..) = three_button_ui();
        tap(&mut ui, KeySym::RETURN);
        let acts = ui.take_actions();
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].widget, a);
    }

    #[test]
    fn pointer_press_moves_focus() {
        let (mut ui, _a, _b, c) = three_button_ui();
        click(&mut ui, 130, 5);
        assert_eq!(ui.focused(), Some(c));
    }

    #[test]
    fn render_clears_dirty() {
        let (mut ui, ..) = three_button_ui();
        assert!(ui.render(), "first render paints everything");
        ui.framebuffer_mut().take_damage();
        assert!(!ui.render(), "nothing dirty");
        click(&mut ui, 10, 10);
        assert!(ui.render());
        assert!(ui.framebuffer().is_damaged());
    }

    #[test]
    fn widget_downcast_access() {
        let mut ui = Ui::new(100, 50, Theme::classic(), "t");
        let l = ui.add(Label::new("before"), Rect::new(0, 0, 100, 12));
        assert_eq!(ui.widget::<Label>(l).unwrap().text(), "before");
        ui.widget_mut::<Label>(l).unwrap().set_text("after");
        assert_eq!(ui.widget::<Label>(l).unwrap().text(), "after");
        assert!(
            ui.widget::<Button>(l).is_none(),
            "wrong type downcast fails"
        );
    }

    #[test]
    fn remove_widget() {
        let (mut ui, a, b, _c) = three_button_ui();
        assert!(ui.remove(a));
        assert!(!ui.remove(a), "double remove is false");
        assert_eq!(ui.widget_count(), 2);
        assert_eq!(ui.focused(), None, "focus cleared with widget");
        click(&mut ui, 70, 10);
        assert_eq!(ui.take_actions()[0].widget, b, "others still work");
    }

    #[test]
    fn hidden_widget_not_hit() {
        let (mut ui, a, ..) = three_button_ui();
        ui.set_visible(a, false);
        click(&mut ui, 10, 10);
        assert!(ui.take_actions().is_empty());
    }

    #[test]
    fn toggle_via_keyboard_roundtrip() {
        let mut ui = Ui::new(100, 50, Theme::classic(), "t");
        let t = ui.add(Toggle::new("Mute", false), Rect::new(0, 0, 60, 20));
        tap(&mut ui, KeySym::RETURN);
        assert_eq!(ui.take_actions()[0].action, Action::Toggled(true));
        assert!(ui.widget::<Toggle>(t).unwrap().is_on());
    }

    #[test]
    fn drag_slider_with_pointer() {
        let mut ui = Ui::new(200, 50, Theme::classic(), "t");
        let s = ui.add(Slider::new(0, 100, 0, 1), Rect::new(0, 0, 108, 16));
        ui.dispatch(InputEvent::Pointer {
            x: 54,
            y: 8,
            buttons: ButtonMask::LEFT,
        });
        ui.dispatch(InputEvent::Pointer {
            x: 104,
            y: 8,
            buttons: ButtonMask::LEFT,
        });
        ui.dispatch(InputEvent::Pointer {
            x: 104,
            y: 8,
            buttons: ButtonMask::NONE,
        });
        let vals: Vec<_> = ui
            .take_actions()
            .into_iter()
            .map(|a| match a.action {
                Action::ValueChanged(v) => v,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(vals, vec![50, 100]);
        assert_eq!(ui.widget::<Slider>(s).unwrap().value(), 100);
    }

    #[test]
    fn grab_keeps_delivery_outside_bounds() {
        let mut ui = Ui::new(200, 50, Theme::classic(), "t");
        let b = ui.add(Button::new("B"), Rect::new(0, 0, 50, 20));
        ui.dispatch(InputEvent::Pointer {
            x: 10,
            y: 10,
            buttons: ButtonMask::LEFT,
        });
        // Drag far outside, then release outside: no click.
        ui.dispatch(InputEvent::Pointer {
            x: 190,
            y: 40,
            buttons: ButtonMask::LEFT,
        });
        ui.dispatch(InputEvent::Pointer {
            x: 190,
            y: 40,
            buttons: ButtonMask::NONE,
        });
        assert!(ui.take_actions().is_empty());
        assert!(!ui.widget::<Button>(b).unwrap().is_pressed());
    }

    #[test]
    fn resize_marks_all_dirty() {
        let (mut ui, ..) = three_button_ui();
        ui.render();
        ui.resize(300, 200);
        assert_eq!(ui.size(), Size::new(300, 200));
        assert!(ui.render());
    }

    #[test]
    fn bell_drains() {
        let mut ui = Ui::new(10, 10, Theme::classic(), "t");
        assert!(!ui.take_bell());
        ui.ring_bell();
        assert!(ui.take_bell());
        assert!(!ui.take_bell());
    }

    #[test]
    fn clear_removes_everything() {
        let (mut ui, ..) = three_button_ui();
        ui.clear();
        assert_eq!(ui.widget_count(), 0);
        assert_eq!(ui.focused(), None);
        assert!(ui.render());
    }
}

#[cfg(test)]
mod shortcut_tests {
    use super::*;
    use crate::widgets::button::Button;
    use crate::widgets::textfield::TextField;
    use uniint_raster::geom::Rect;

    #[test]
    fn shortcut_activates_widget() {
        let mut ui = Ui::new(100, 60, crate::theme::Theme::classic(), "t");
        let _other = ui.add(Button::new("A"), Rect::new(0, 0, 40, 20));
        let power = ui.add(Button::new("Power"), Rect::new(0, 30, 40, 20));
        ui.bind_shortcut(KeySym::from_char('p'), power);
        for ev in InputEvent::key_tap('p'.into()) {
            ui.dispatch(ev);
        }
        let acts = ui.take_actions();
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].widget, power);
    }

    #[test]
    fn focused_widget_consumes_before_shortcut() {
        let mut ui = Ui::new(100, 60, crate::theme::Theme::classic(), "t");
        let field = ui.add(TextField::new(""), Rect::new(0, 0, 80, 16));
        let power = ui.add(Button::new("Power"), Rect::new(0, 30, 40, 20));
        ui.bind_shortcut(KeySym::from_char('p'), power);
        assert_eq!(ui.focused(), Some(field));
        for ev in InputEvent::key_tap('p'.into()) {
            ui.dispatch(ev);
        }
        // The text field typed 'p'; the power button did not fire.
        let acts = ui.take_actions();
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].widget, field);
    }

    #[test]
    fn rebinding_replaces() {
        let mut ui = Ui::new(100, 60, crate::theme::Theme::classic(), "t");
        let a = ui.add(Button::new("A"), Rect::new(0, 0, 40, 20));
        let b = ui.add(Button::new("B"), Rect::new(50, 0, 40, 20));
        ui.set_focus(None);
        ui.bind_shortcut(KeySym::from_char('x'), a);
        ui.bind_shortcut(KeySym::from_char('x'), b);
        for ev in InputEvent::key_tap('x'.into()) {
            ui.dispatch(ev);
        }
        assert_eq!(ui.take_actions()[0].widget, b);
    }
}
