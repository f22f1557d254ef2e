//! A second appliance application: a read-only status monitor.
//!
//! Demonstrates the paper's third characteristic from the other side:
//! *any* application written against the ordinary toolkit is reachable
//! from every interaction device, not just the control panel. The
//! monitor composes one status line per FCM and live-updates from
//! network events, with no command bindings at all.

use crate::panels::fmt_time;
use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use uniint_havi::events::HaviEvent;
use uniint_havi::fcm::{FcmClass, StateVar};
use uniint_havi::id::Seid;
use uniint_havi::network::HomeNetwork;
use uniint_havi::registry::{ElementKind, Query};
use uniint_raster::geom::Rect;
use uniint_wsys::event::WidgetId;
use uniint_wsys::theme::Theme;
use uniint_wsys::ui::Ui;
use uniint_wsys::widgets::{Align, Label};

/// Height of one status row.
const ROW_H: u32 = 14;
/// Monitor window width.
const WIDTH: u32 = 300;

/// A live, read-only dashboard of every FCM on the network.
pub struct StatusMonitorApp {
    ui: Ui,
    rows: HashMap<Seid, WidgetId>,
    /// Last known state per FCM (merged from events).
    state: HashMap<Seid, Vec<StateVar>>,
    names: HashMap<Seid, (String, FcmClass)>,
    events: Receiver<HaviEvent>,
}

impl core::fmt::Debug for StatusMonitorApp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StatusMonitorApp")
            .field("rows", &self.rows.len())
            .finish()
    }
}

/// Renders a one-line summary of an FCM's state.
pub fn summarize(class: FcmClass, vars: &[StateVar]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for v in vars {
        match v {
            StateVar::Power(on) => parts.push(if *on { "on".into() } else { "off".into() }),
            StateVar::Volume(x) => parts.push(format!("vol {x}")),
            StateVar::Mute(true) => parts.push("muted".into()),
            StateVar::Mute(false) => {}
            StateVar::Channel(c) => parts.push(format!("ch {c}")),
            StateVar::Transport(t) => parts.push(t.to_string()),
            StateVar::TapePos(p) => parts.push(format!("{p}s")),
            StateVar::Brightness(b) => parts.push(format!("bri {b}")),
            StateVar::Input(i) => parts.push(format!("in {i}")),
            StateVar::Dimmer(d) => parts.push(format!("dim {d}")),
            StateVar::TargetTemp(t) => parts.push(format!("set {}.{}C", t / 10, t % 10)),
            StateVar::RoomTemp(t) => parts.push(format!("room {}.{}C", t / 10, t % 10)),
            StateVar::AirconMode(m) => parts.push(m.to_string()),
            StateVar::TimeOfDay(t) => parts.push(fmt_time(*t)),
            StateVar::FrameCounter(c) => parts.push(format!("frame {c}")),
        }
    }
    format!("{class}: {}", parts.join(", "))
}

impl StatusMonitorApp {
    /// Creates the monitor over the current network contents.
    pub fn new(net: &mut HomeNetwork, theme: Theme) -> StatusMonitorApp {
        let events = net.subscribe();
        let mut app = StatusMonitorApp {
            ui: Ui::new(WIDTH, 40, theme, "Status Monitor"),
            rows: HashMap::new(),
            state: HashMap::new(),
            names: HashMap::new(),
            events,
        };
        app.rebuild(net);
        app
    }

    /// The monitor window.
    pub fn ui(&self) -> &Ui {
        &self.ui
    }

    /// Mutable window access for the UniInt server.
    pub fn ui_mut(&mut self) -> &mut Ui {
        &mut self.ui
    }

    /// Number of monitored FCMs.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The current summary text shown for `seid`, if monitored.
    pub fn row_text(&self, seid: Seid) -> Option<&str> {
        let id = self.rows.get(&seid)?;
        self.ui.widget::<Label>(*id).map(|l| l.text())
    }

    fn rebuild(&mut self, net: &mut HomeNetwork) {
        let fcms: Vec<(Seid, FcmClass, String)> = net
            .registry()
            .query(&Query::new().kind(ElementKind::Fcm))
            .into_iter()
            .filter_map(|r| r.class.map(|c| (r.seid, c, r.name.clone())))
            .collect();
        let h = (fcms.len() as u32 * ROW_H + 8).max(40);
        let theme = self.ui.theme().clone();
        self.ui = Ui::new(WIDTH, h, theme, "Status Monitor");
        self.rows.clear();
        self.names.clear();
        for (i, (seid, class, name)) in fcms.into_iter().enumerate() {
            let vars = net.status(seid).unwrap_or_default();
            let text = format!("{name} — {}", summarize(class, &vars));
            let id = self.ui.add(
                Label::with_align(text, Align::Left),
                Rect::new(4, (i as u32 * ROW_H + 4) as i32, WIDTH - 8, ROW_H),
            );
            self.rows.insert(seid, id);
            self.state.insert(seid, vars);
            self.names.insert(seid, (name, class));
        }
        self.ui.render();
    }

    /// Drains network events into the display. Returns true when the
    /// window was rebuilt (hot-plug) and the server must announce a
    /// resize.
    pub fn process(&mut self, net: &mut HomeNetwork) -> bool {
        let mut rebuilt = false;
        let events: Vec<HaviEvent> = self.events.try_iter().collect();
        for ev in events {
            match ev {
                HaviEvent::DeviceAdded(_)
                | HaviEvent::DeviceRemoved(_)
                | HaviEvent::NetworkReset => {
                    self.rebuild(net);
                    rebuilt = true;
                }
                HaviEvent::StateChanged(change) => {
                    let entry = self.state.entry(change.seid).or_default();
                    for var in &change.vars {
                        // Merge: replace same-discriminant vars.
                        entry
                            .retain(|v| core::mem::discriminant(v) != core::mem::discriminant(var));
                        entry.push(var.clone());
                    }
                    if let (Some(&id), Some((name, class))) =
                        (self.rows.get(&change.seid), self.names.get(&change.seid))
                    {
                        let text =
                            format!("{name} — {}", summarize(*class, &self.state[&change.seid]));
                        if let Some(l) = self.ui.widget_mut::<Label>(id) {
                            l.set_text(text);
                        }
                    }
                }
            }
        }
        self.ui.render();
        rebuilt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniint_havi::fcm::FcmCommand;
    use uniint_havi::fcms::{AmplifierFcm, TunerFcm};
    use uniint_havi::network::DeviceSpec;

    fn net() -> (HomeNetwork, Seid) {
        let mut net = HomeNetwork::new();
        let tv = net
            .attach(DeviceSpec::new("TV", "living-room").with_fcm(TunerFcm::new("TV Tuner", 12)));
        (net, Seid::new(tv, 1))
    }

    #[test]
    fn monitor_shows_one_row_per_fcm() {
        let (mut net, _) = net();
        let app = StatusMonitorApp::new(&mut net, Theme::classic());
        assert_eq!(app.row_count(), 1);
    }

    #[test]
    fn state_change_updates_row() {
        let (mut net, tuner) = net();
        let mut app = StatusMonitorApp::new(&mut net, Theme::classic());
        assert!(app.row_text(tuner).unwrap().contains("off"));
        net.send(tuner, &FcmCommand::SetPower(true)).unwrap();
        net.send(tuner, &FcmCommand::SetChannel(7)).unwrap();
        app.process(&mut net);
        let text = app.row_text(tuner).unwrap();
        assert!(text.contains("on"), "{text}");
        assert!(text.contains("ch 7"), "{text}");
    }

    #[test]
    fn hotplug_rebuilds() {
        let (mut net, _) = net();
        let mut app = StatusMonitorApp::new(&mut net, Theme::classic());
        net.attach(DeviceSpec::new("Amp", "den").with_fcm(AmplifierFcm::new("Amp")));
        assert!(app.process(&mut net));
        assert_eq!(app.row_count(), 2);
    }

    #[test]
    fn summarize_formats() {
        let s = summarize(
            FcmClass::Amplifier,
            &[
                StateVar::Power(true),
                StateVar::Volume(40),
                StateVar::Mute(true),
            ],
        );
        assert_eq!(s, "amplifier: on, vol 40, muted");
        let s = summarize(FcmClass::Clock, &[StateVar::TimeOfDay(3600)]);
        assert!(s.contains("01:00:00"));
    }

    #[test]
    fn monitor_window_is_drivable_through_session() {
        // The monitor, like any toolkit app, exports through UniInt.
        let (mut net, tuner) = net();
        let mut app = StatusMonitorApp::new(&mut net, Theme::classic());
        let mut session = uniint_core::session::LocalSession::connect(app.ui_mut());
        net.send(tuner, &FcmCommand::SetPower(true)).unwrap();
        app.process(&mut net);
        session.pump(app.ui_mut());
        let remote = session.proxy.server_frame().unwrap();
        assert_eq!(remote, app.ui().framebuffer());
    }
}
