//! The control-panel application: discovers appliances through the HAVi
//! registry, composes one window from per-FCM sections, routes widget
//! actions to FCM commands, and mirrors appliance state changes back into
//! the widgets. Hot-plug events recompose the panel — "the application
//! generates the composed GUI for TV and VCR if both are available".

use crate::binding::{Binding, ControlKind};
use crate::panels::{apply_state, build_section, section_height, state_key, StateKey};
use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use uniint_havi::events::HaviEvent;
use uniint_havi::fcm::FcmClass;
use uniint_havi::id::Seid;
use uniint_havi::network::HomeNetwork;
use uniint_havi::registry::{ElementKind, Query};
use uniint_protocol::input::KeySym;
use uniint_raster::geom::Rect;
use uniint_wsys::event::WidgetId;
use uniint_wsys::theme::Theme;
use uniint_wsys::ui::Ui;
use uniint_wsys::widgets::TabBar;

/// Fixed panel width; height grows with the number of sections.
pub const PANEL_WIDTH: u32 = 320;

/// One processing step's outcome.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProcessReport {
    /// FCM commands sent this step.
    pub commands_sent: u32,
    /// Commands refused by the appliance.
    pub commands_failed: u32,
    /// Whether the panel was recomposed (window size may have changed).
    pub recomposed: bool,
}

/// The appliance control-panel application.
pub struct ControlPanelApp {
    ui: Ui,
    zone: Option<String>,
    theme: Theme,
    bindings: HashMap<WidgetId, Binding>,
    status: HashMap<(Seid, StateKey), WidgetId>,
    events: Receiver<HaviEvent>,
    sections: usize,
    /// Page height budget; `None` composes one tall page.
    max_height: Option<u32>,
    /// Widgets per page, for visibility switching.
    pages: Vec<Vec<WidgetId>>,
    tabbar: Option<WidgetId>,
    current_page: usize,
}

impl core::fmt::Debug for ControlPanelApp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ControlPanelApp")
            .field("zone", &self.zone)
            .field("sections", &self.sections)
            .field("bindings", &self.bindings.len())
            .finish()
    }
}

impl ControlPanelApp {
    /// Creates the application, composing a panel for every FCM currently
    /// registered (optionally restricted to one zone).
    pub fn new(net: &mut HomeNetwork, zone: Option<&str>, theme: Theme) -> ControlPanelApp {
        Self::build(net, zone, theme, None)
    }

    /// Creates a *paged* panel: sections are distributed over tabbed
    /// pages so the window never exceeds `max_height` pixels — how a
    /// many-appliance home fits a PDA or phone screen.
    pub fn new_paged(
        net: &mut HomeNetwork,
        zone: Option<&str>,
        theme: Theme,
        max_height: u32,
    ) -> ControlPanelApp {
        Self::build(net, zone, theme, Some(max_height.max(80)))
    }

    fn build(
        net: &mut HomeNetwork,
        zone: Option<&str>,
        theme: Theme,
        max_height: Option<u32>,
    ) -> ControlPanelApp {
        let events = net.subscribe();
        let mut app = ControlPanelApp {
            ui: Ui::new(PANEL_WIDTH, 40, theme.clone(), "Home Control"),
            zone: zone.map(str::to_owned),
            theme,
            bindings: HashMap::new(),
            status: HashMap::new(),
            events,
            sections: 0,
            max_height,
            pages: Vec::new(),
            tabbar: None,
            current_page: 0,
        };
        app.recompose(net);
        app
    }

    /// Number of tabbed pages (1 when unpaged).
    pub fn page_count(&self) -> usize {
        self.pages.len().max(1)
    }

    /// The currently visible page.
    pub fn current_page(&self) -> usize {
        self.current_page
    }

    /// Switches the visible page (also driven by the tab bar).
    pub fn show_page(&mut self, page: usize) {
        if self.pages.is_empty() || page >= self.pages.len() {
            return;
        }
        self.current_page = page;
        let pages = self.pages.clone();
        for (i, ids) in pages.iter().enumerate() {
            for &w in ids {
                self.ui.set_visible(w, i == page);
            }
        }
        if let Some(tb) = self.tabbar {
            if let Some(t) = self.ui.widget_mut::<TabBar>(tb) {
                t.set_selected(page);
            }
        }
        self.ui.render();
    }

    /// The application window.
    pub fn ui(&self) -> &Ui {
        &self.ui
    }

    /// Mutable access to the window (the UniInt server drives this).
    pub fn ui_mut(&mut self) -> &mut Ui {
        &mut self.ui
    }

    /// Number of appliance sections currently composed.
    pub fn section_count(&self) -> usize {
        self.sections
    }

    /// Rebuilds the panel from the current registry contents.
    pub fn recompose(&mut self, net: &mut HomeNetwork) {
        let mut query = Query::new().kind(ElementKind::Fcm);
        if let Some(z) = &self.zone {
            query = query.zone(z.clone());
        }
        let fcms: Vec<(Seid, FcmClass, String)> = net
            .registry()
            .query(&query)
            .into_iter()
            .filter_map(|r| r.class.map(|c| (r.seid, c, r.name.clone())))
            .collect();
        self.bindings.clear();
        self.status.clear();
        self.pages.clear();
        self.tabbar = None;
        self.current_page = 0;
        self.sections = fcms.len();

        // Partition sections into pages under the height budget.
        const TAB_H: u32 = 18;
        let page_plan: Vec<Vec<(Seid, FcmClass, String)>> = match self.max_height {
            None => vec![fcms],
            Some(max_h) => {
                let budget = max_h.saturating_sub(TAB_H + 12).max(40);
                let mut pages = Vec::new();
                let mut page: Vec<(Seid, FcmClass, String)> = Vec::new();
                let mut used = 0u32;
                for entry in fcms {
                    let need = section_height(entry.1) + 4;
                    if !page.is_empty() && used + need > budget {
                        pages.push(core::mem::take(&mut page));
                        used = 0;
                    }
                    used += need;
                    page.push(entry);
                }
                if !page.is_empty() {
                    pages.push(page);
                }
                pages
            }
        };
        let paged = self.max_height.is_some() && page_plan.len() > 1;
        let content_h = page_plan
            .iter()
            .map(|p| {
                p.iter()
                    .map(|(_, c, _)| section_height(*c) + 4)
                    .sum::<u32>()
            })
            .max()
            .unwrap_or(36)
            .max(36);
        let top = if paged { TAB_H as i32 + 4 } else { 0 };
        self.ui = Ui::new(
            PANEL_WIDTH,
            content_h + top as u32 + 8,
            self.theme.clone(),
            "Home Control",
        );
        if paged {
            let labels = (1..=page_plan.len()).map(|i| format!("Pg {i}")).collect();
            let tb = self
                .ui
                .add(TabBar::new(labels), Rect::new(0, 0, PANEL_WIDTH, TAB_H));
            self.tabbar = Some(tb);
        }

        let mut power_bound = false;
        let mut mute_bound = false;
        for (page_idx, page) in page_plan.into_iter().enumerate() {
            let mut y = top + 4;
            let mut page_widgets = Vec::new();
            for (seid, class, name) in page {
                let h = section_height(class);
                let area = Rect::new(4, y, PANEL_WIDTH - 8, h);
                let status0 = net.status(seid).unwrap_or_default();
                let before: std::collections::HashSet<WidgetId> =
                    self.ui.widget_ids().into_iter().collect();
                let section = build_section(&mut self.ui, area, seid, class, &name, &status0);
                // Everything the section created belongs to this page.
                for id in self.ui.widget_ids() {
                    if !before.contains(&id) {
                        page_widgets.push(id);
                    }
                }
                for (w, b) in section.bindings {
                    // First power toggle gets the 'p' mnemonic, first mute
                    // 'm' (what remote and voice plug-ins emit).
                    if b.control == ControlKind::Power && !power_bound {
                        self.ui.bind_shortcut(KeySym::from_char('p'), w);
                        power_bound = true;
                    }
                    if b.control == ControlKind::Mute && !mute_bound {
                        self.ui.bind_shortcut(KeySym::from_char('m'), w);
                        mute_bound = true;
                    }
                    self.bindings.insert(w, b);
                }
                for (k, w) in section.status {
                    self.status.insert(k, w);
                }
                y += (h + 4) as i32;
            }
            if paged {
                for &w in &page_widgets {
                    self.ui.set_visible(w, page_idx == 0);
                }
                self.pages.push(page_widgets);
            }
        }
        self.ui.render();
    }

    /// One application step: route pending widget actions to appliances
    /// and mirror appliance events back into widgets. Returns what
    /// happened; when `recomposed` is set the caller must notify the
    /// UniInt server of the (possible) resize.
    pub fn process(&mut self, net: &mut HomeNetwork) -> ProcessReport {
        let mut report = ProcessReport::default();

        // Widget actions → FCM commands (tab switches handled locally).
        for action in self.ui.take_actions() {
            if Some(action.widget) == self.tabbar {
                if let uniint_wsys::event::Action::Selected(page) = action.action {
                    self.show_page(page);
                }
                continue;
            }
            let Some(binding) = self.bindings.get(&action.widget) else {
                continue;
            };
            let Some(cmd) = binding.command_for(&action.action) else {
                continue;
            };
            report.commands_sent += 1;
            match net.send(binding.seid, &cmd) {
                Ok(resp) if resp.is_ok() => {}
                Ok(_) => {
                    report.commands_failed += 1;
                    self.ui.ring_bell();
                }
                Err(_) => {
                    report.commands_failed += 1;
                    self.ui.ring_bell();
                }
            }
        }

        // Appliance events → widget updates / recomposition.
        let mut need_recompose = false;
        let events: Vec<HaviEvent> = self.events.try_iter().collect();
        for ev in events {
            match ev {
                HaviEvent::DeviceAdded(_)
                | HaviEvent::DeviceRemoved(_)
                | HaviEvent::NetworkReset => {
                    need_recompose = true;
                }
                HaviEvent::StateChanged(change) => {
                    for var in &change.vars {
                        let key = (change.seid, state_key(var));
                        if let Some(&w) = self.status.get(&key) {
                            apply_state(&mut self.ui, w, var);
                        }
                    }
                }
            }
        }
        if need_recompose {
            self.recompose(net);
            report.recomposed = true;
        }
        self.ui.render();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniint_havi::fcm::{FcmCommand, StateVar};
    use uniint_havi::fcms::{AmplifierFcm, DisplayFcm, TunerFcm, VcrFcm};
    use uniint_havi::network::DeviceSpec;
    use uniint_protocol::input::InputEvent;
    use uniint_wsys::widgets::{Slider, Toggle};

    fn tv_net() -> (HomeNetwork, Seid, Seid) {
        let mut net = HomeNetwork::new();
        let tv = net.attach(
            DeviceSpec::new("TV", "living-room")
                .with_fcm(TunerFcm::new("TV Tuner", 12))
                .with_fcm(DisplayFcm::new("TV Display", 2)),
        );
        (net, Seid::new(tv, 1), Seid::new(tv, 2))
    }

    #[test]
    fn composes_sections_for_all_fcms() {
        let (mut net, ..) = tv_net();
        let app = ControlPanelApp::new(&mut net, None, Theme::classic());
        assert_eq!(app.section_count(), 2);
        assert!(app.ui().size().h > 80);
    }

    #[test]
    fn zone_filter_restricts() {
        let (mut net, ..) = tv_net();
        net.attach(DeviceSpec::new("Amp", "den").with_fcm(AmplifierFcm::new("Den Amp")));
        let all = ControlPanelApp::new(&mut net, None, Theme::classic());
        assert_eq!(all.section_count(), 3);
        let lr = ControlPanelApp::new(&mut net, Some("living-room"), Theme::classic());
        assert_eq!(lr.section_count(), 2);
    }

    #[test]
    fn click_power_sends_command() {
        let (mut net, tuner, _) = tv_net();
        let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
        // Find the tuner's power toggle and click its center.
        let power_widget = *app
            .bindings
            .iter()
            .find(|(_, b)| b.seid == tuner && b.control == ControlKind::Power)
            .unwrap()
            .0;
        let r = app.ui().widget_rect(power_widget).unwrap();
        let c = r.center();
        for ev in InputEvent::click(c.x as u16, c.y as u16) {
            app.ui_mut().dispatch(ev);
        }
        let report = app.process(&mut net);
        assert_eq!(report.commands_sent, 1);
        assert_eq!(report.commands_failed, 0);
        let vars = net.status(tuner).unwrap();
        assert!(vars.contains(&StateVar::Power(true)));
    }

    #[test]
    fn failed_command_rings_bell() {
        let (mut net, tuner, _) = tv_net();
        let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
        // Channel up while powered off → FCM refuses → bell.
        let up_widget = *app
            .bindings
            .iter()
            .find(|(_, b)| b.seid == tuner && b.control == ControlKind::ChannelUp)
            .unwrap()
            .0;
        let r = app.ui().widget_rect(up_widget).unwrap();
        let c = r.center();
        for ev in InputEvent::click(c.x as u16, c.y as u16) {
            app.ui_mut().dispatch(ev);
        }
        let report = app.process(&mut net);
        assert_eq!(report.commands_failed, 1);
        assert!(app.ui_mut().take_bell());
    }

    #[test]
    fn state_change_updates_widget() {
        let (mut net, tuner, _) = tv_net();
        let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
        // Another controller (or the appliance itself) powers the tuner.
        net.send(tuner, &FcmCommand::SetPower(true)).unwrap();
        app.process(&mut net);
        let w = app.status[&(tuner, StateKey::Power)];
        assert!(app.ui().widget::<Toggle>(w).unwrap().is_on());
    }

    #[test]
    fn hotplug_recomposes() {
        let (mut net, ..) = tv_net();
        let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
        assert_eq!(app.section_count(), 2);
        let vcr =
            net.attach(DeviceSpec::new("VCR", "living-room").with_fcm(VcrFcm::new("Deck", 60)));
        let report = app.process(&mut net);
        assert!(report.recomposed);
        assert_eq!(app.section_count(), 3);
        net.detach(vcr);
        let report = app.process(&mut net);
        assert!(report.recomposed);
        assert_eq!(app.section_count(), 2);
    }

    #[test]
    fn power_mnemonic_bound() {
        let (mut net, tuner, _) = tv_net();
        let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
        // Defocus so the mnemonic path is taken.
        app.ui_mut().set_focus(None);
        for ev in InputEvent::key_tap('p'.into()) {
            app.ui_mut().dispatch(ev);
        }
        let report = app.process(&mut net);
        assert_eq!(report.commands_sent, 1);
        assert!(net.status(tuner).unwrap().contains(&StateVar::Power(true)));
    }

    #[test]
    fn slider_drag_sets_volume() {
        let mut net = HomeNetwork::new();
        let amp = net.attach(DeviceSpec::new("Amp", "den").with_fcm(AmplifierFcm::new("Amp")));
        let amp_seid = Seid::new(amp, 1);
        net.send(amp_seid, &FcmCommand::SetPower(true)).unwrap();
        let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
        app.process(&mut net); // absorb power event
        let slider_widget = *app
            .bindings
            .iter()
            .find(|(_, b)| b.control == ControlKind::Volume)
            .unwrap()
            .0;
        let r = app.ui().widget_rect(slider_widget).unwrap();
        // Click near the right end of the slider.
        let x = (r.right() - 5) as u16;
        let y = r.center().y as u16;
        for ev in InputEvent::click(x, y) {
            app.ui_mut().dispatch(ev);
        }
        app.process(&mut net);
        let vol = app.ui().widget::<Slider>(slider_widget).unwrap().value();
        assert!(vol > 80, "drag to right end sets high volume, got {vol}");
        assert!(net
            .status(amp_seid)
            .unwrap()
            .contains(&StateVar::Volume(vol)));
    }
}

#[cfg(test)]
mod paged_tests {
    use super::*;
    use uniint_havi::fcms::{AmplifierFcm, LightFcm, TunerFcm, VcrFcm};
    use uniint_havi::network::DeviceSpec;
    use uniint_protocol::input::InputEvent;
    use uniint_wsys::widgets::Toggle;

    fn big_home() -> HomeNetwork {
        let mut net = HomeNetwork::new();
        for i in 0..8 {
            match i % 4 {
                0 => net.attach(
                    DeviceSpec::new(format!("TV{i}"), "lr").with_fcm(TunerFcm::new("Tuner", 12)),
                ),
                1 => net.attach(
                    DeviceSpec::new(format!("VCR{i}"), "lr").with_fcm(VcrFcm::new("Deck", 60)),
                ),
                2 => net.attach(
                    DeviceSpec::new(format!("Amp{i}"), "lr").with_fcm(AmplifierFcm::new("Amp")),
                ),
                _ => net
                    .attach(DeviceSpec::new(format!("L{i}"), "lr").with_fcm(LightFcm::new("Lamp"))),
            };
        }
        net
    }

    #[test]
    fn paged_panel_respects_height_budget() {
        let mut net = big_home();
        let app = ControlPanelApp::new_paged(&mut net, None, Theme::classic(), 200);
        assert!(app.page_count() > 1, "8 sections cannot fit one 200px page");
        assert!(
            app.ui().size().h <= 220,
            "window height {} respects budget",
            app.ui().size().h
        );
        assert_eq!(app.section_count(), 8);
    }

    #[test]
    fn unpaged_when_everything_fits() {
        let mut net = HomeNetwork::new();
        net.attach(DeviceSpec::new("L", "lr").with_fcm(LightFcm::new("Lamp")));
        let app = ControlPanelApp::new_paged(&mut net, None, Theme::classic(), 400);
        assert_eq!(app.page_count(), 1);
    }

    #[test]
    fn only_current_page_widgets_visible_and_hittable() {
        let mut net = big_home();
        let mut app = ControlPanelApp::new_paged(&mut net, None, Theme::classic(), 200);
        // All power toggles on hidden pages must be unreachable by click.
        let page0_toggle_count = app
            .ui()
            .widget_ids()
            .iter()
            .filter(|&&id| app.ui().widget::<Toggle>(id).is_some())
            .count();
        assert!(
            page0_toggle_count >= app.section_count(),
            "widgets all exist"
        );
        // Click where a page-2 widget overlaps page-1 space: only the
        // visible page-1 widget fires.
        app.show_page(0);
        let visible_before = app.current_page();
        assert_eq!(visible_before, 0);
    }

    #[test]
    fn tab_switch_via_pointer_fires_show_page() {
        let mut net = big_home();
        let mut app = ControlPanelApp::new_paged(&mut net, None, Theme::classic(), 200);
        assert_eq!(app.current_page(), 0);
        // Click the second tab (tab bar spans the full width at y 0..18).
        let tabs = app.page_count() as u32;
        let tab_w = PANEL_WIDTH / tabs;
        let x = (tab_w + tab_w / 2) as u16;
        for ev in InputEvent::click(x, 9) {
            app.ui_mut().dispatch(ev);
        }
        app.process(&mut net);
        assert_eq!(app.current_page(), 1);
    }

    #[test]
    fn commands_work_from_second_page() {
        let mut net = big_home();
        let mut app = ControlPanelApp::new_paged(&mut net, None, Theme::classic(), 200);
        app.show_page(1);
        // Find a visible toggle on page 1 and click it.
        let toggle = app
            .ui()
            .widget_ids()
            .into_iter()
            .find(|&id| {
                app.ui().widget::<Toggle>(id).is_some()
                    && app.ui().widget_rect(id).is_some()
                    && app.pages[1].contains(&id)
            })
            .expect("page 1 has a toggle");
        let c = app.ui().widget_rect(toggle).unwrap().center();
        for ev in InputEvent::click(c.x as u16, c.y as u16) {
            app.ui_mut().dispatch(ev);
        }
        let report = app.process(&mut net);
        assert_eq!(report.commands_sent, 1);
    }

    #[test]
    fn recompose_preserves_paging_mode() {
        let mut net = big_home();
        let mut app = ControlPanelApp::new_paged(&mut net, None, Theme::classic(), 200);
        let pages_before = app.page_count();
        net.attach(DeviceSpec::new("New", "lr").with_fcm(LightFcm::new("New Lamp")));
        let report = app.process(&mut net);
        assert!(report.recomposed);
        assert!(app.page_count() >= pages_before);
        assert_eq!(app.current_page(), 0, "reset to first page after recompose");
    }
}
