//! Scene macros: one-touch buttons that drive several appliances at once
//! ("Movie night" = TV on + lights dimmed + amplifier to 60).
//!
//! A third application on the same stack: scenes are plain data, the
//! panel is plain widgets, and every interaction device can fire them
//! through the universal pipeline.

use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use uniint_havi::events::HaviEvent;
use uniint_havi::fcm::{FcmClass, FcmCommand};
use uniint_havi::network::HomeNetwork;
use uniint_havi::registry::Query;
use uniint_protocol::input::KeySym;
use uniint_raster::geom::Rect;
use uniint_wsys::event::{Action, WidgetId};
use uniint_wsys::theme::Theme;
use uniint_wsys::ui::Ui;
use uniint_wsys::widgets::{Align, Button, Label};

/// One step of a scene: a command sent to every FCM of a class
/// (optionally restricted to a zone).
#[derive(Debug, Clone, PartialEq)]
pub struct SceneStep {
    /// Target FCM class.
    pub class: FcmClass,
    /// Restrict to one zone, or everywhere when `None`.
    pub zone: Option<String>,
    /// The command to send.
    pub command: FcmCommand,
}

/// A named scene: an ordered list of steps plus an optional mnemonic.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    /// Button caption.
    pub name: String,
    /// Steps executed in order.
    pub steps: Vec<SceneStep>,
    /// Keyboard mnemonic (what remote/voice plug-ins emit).
    pub mnemonic: Option<char>,
}

impl Scene {
    /// Starts a scene definition.
    pub fn new(name: impl Into<String>) -> Scene {
        Scene {
            name: name.into(),
            steps: Vec::new(),
            mnemonic: None,
        }
    }

    /// Adds a step targeting a class everywhere.
    pub fn step(mut self, class: FcmClass, command: FcmCommand) -> Scene {
        self.steps.push(SceneStep {
            class,
            zone: None,
            command,
        });
        self
    }

    /// Adds a step restricted to one zone.
    pub fn step_in(
        mut self,
        class: FcmClass,
        zone: impl Into<String>,
        command: FcmCommand,
    ) -> Scene {
        self.steps.push(SceneStep {
            class,
            zone: Some(zone.into()),
            command,
        });
        self
    }

    /// Sets the mnemonic key.
    pub fn with_mnemonic(mut self, c: char) -> Scene {
        self.mnemonic = Some(c);
        self
    }
}

/// The classic demo scenes.
pub fn standard_scenes() -> Vec<Scene> {
    vec![
        Scene::new("Movie night")
            .step(FcmClass::Tuner, FcmCommand::SetPower(true))
            .step(FcmClass::Display, FcmCommand::SetPower(true))
            .step(FcmClass::Amplifier, FcmCommand::SetPower(true))
            .step(FcmClass::Amplifier, FcmCommand::SetVolume(60))
            .step(FcmClass::Light, FcmCommand::SetDimmer(20))
            .with_mnemonic('v'),
        Scene::new("Good night")
            .step(FcmClass::Tuner, FcmCommand::SetPower(false))
            .step(FcmClass::Display, FcmCommand::SetPower(false))
            .step(FcmClass::Amplifier, FcmCommand::SetPower(false))
            .step(FcmClass::Vcr, FcmCommand::SetPower(false))
            .step(FcmClass::Light, FcmCommand::SetPower(false))
            .with_mnemonic('g'),
        Scene::new("Wake up")
            .step(FcmClass::Light, FcmCommand::SetPower(true))
            .step(FcmClass::Light, FcmCommand::SetDimmer(100))
            .step(FcmClass::AirConditioner, FcmCommand::SetPower(true))
            .with_mnemonic('w'),
    ]
}

/// Result of one scene activation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SceneReport {
    /// Commands attempted.
    pub sent: u32,
    /// Commands refused or unroutable.
    pub failed: u32,
}

/// A one-touch scene panel application.
pub struct ScenePanelApp {
    ui: Ui,
    scenes: Vec<Scene>,
    buttons: HashMap<WidgetId, usize>,
    events: Receiver<HaviEvent>,
    last_report: SceneReport,
}

impl core::fmt::Debug for ScenePanelApp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ScenePanelApp")
            .field("scenes", &self.scenes.len())
            .finish()
    }
}

impl ScenePanelApp {
    /// Creates the panel with the given scenes.
    pub fn new(net: &mut HomeNetwork, scenes: Vec<Scene>, theme: Theme) -> ScenePanelApp {
        let events = net.subscribe();
        let h = scenes.len() as u32 * 30 + 28;
        let mut ui = Ui::new(220, h, theme, "Scenes");
        ui.add(
            Label::with_align("One-touch scenes", Align::Left),
            Rect::new(6, 4, 200, 14),
        );
        let mut buttons = HashMap::new();
        for (i, scene) in scenes.iter().enumerate() {
            let id = ui.add(
                Button::new(scene.name.clone()),
                Rect::new(6, 22 + (i as i32) * 30, 208, 24),
            );
            if let Some(c) = scene.mnemonic {
                ui.bind_shortcut(KeySym::from_char(c), id);
            }
            buttons.insert(id, i);
        }
        ui.render();
        ScenePanelApp {
            ui,
            scenes,
            buttons,
            events,
            last_report: SceneReport::default(),
        }
    }

    /// The panel window.
    pub fn ui(&self) -> &Ui {
        &self.ui
    }

    /// Mutable window access.
    pub fn ui_mut(&mut self) -> &mut Ui {
        &mut self.ui
    }

    /// The report of the most recent scene execution.
    pub fn last_report(&self) -> SceneReport {
        self.last_report
    }

    /// Executes a scene by index against the network.
    pub fn run_scene(&mut self, net: &mut HomeNetwork, index: usize) -> SceneReport {
        let mut report = SceneReport::default();
        let Some(scene) = self.scenes.get(index) else {
            return report;
        };
        for step in &scene.steps {
            let mut q = Query::new().class(step.class);
            if let Some(z) = &step.zone {
                q = q.zone(z.clone());
            }
            let targets = net.find_fcms(&q);
            for seid in targets {
                report.sent += 1;
                match net.send(seid, &step.command) {
                    Ok(resp) if resp.is_ok() => {}
                    _ => report.failed += 1,
                }
            }
        }
        self.last_report = report;
        report
    }

    /// Routes pending button actions to scene executions. Drains (and
    /// ignores) hot-plug events: scenes re-query targets on every run, so
    /// no recomposition is needed.
    pub fn process(&mut self, net: &mut HomeNetwork) -> SceneReport {
        let mut total = SceneReport::default();
        for action in self.ui.take_actions() {
            if action.action != Action::Clicked {
                continue;
            }
            if let Some(&idx) = self.buttons.get(&action.widget) {
                let r = self.run_scene(net, idx);
                total.sent += r.sent;
                total.failed += r.failed;
            }
        }
        let _ = self.events.try_iter().count();
        self.ui.render();
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniint_havi::fcm::StateVar;
    use uniint_havi::fcms::{AmplifierFcm, DisplayFcm, LightFcm, TunerFcm};
    use uniint_havi::network::DeviceSpec;
    use uniint_protocol::input::InputEvent;

    fn full_home() -> HomeNetwork {
        let mut net = HomeNetwork::new();
        net.attach(
            DeviceSpec::new("TV", "living-room")
                .with_fcm(TunerFcm::new("Tuner", 12))
                .with_fcm(DisplayFcm::new("Display", 2)),
        );
        net.attach(DeviceSpec::new("Amp", "living-room").with_fcm(AmplifierFcm::new("Amp")));
        net.attach(DeviceSpec::new("Lamp", "living-room").with_fcm(LightFcm::new("Lamp")));
        net.attach(DeviceSpec::new("Hall Lamp", "hall").with_fcm(LightFcm::new("Hall Lamp")));
        net
    }

    #[test]
    fn movie_night_sets_everything() {
        let mut net = full_home();
        let mut app = ScenePanelApp::new(&mut net, standard_scenes(), Theme::classic());
        let report = app.run_scene(&mut net, 0);
        assert_eq!(report.failed, 0, "{report:?}");
        // tuner+display+amp power, amp volume, two lights dimmer = 6.
        assert_eq!(report.sent, 6);
        let amp = net.find_fcms(&Query::new().class(FcmClass::Amplifier))[0];
        let vars = net.status(amp).unwrap();
        assert!(vars.contains(&StateVar::Power(true)));
        assert!(vars.contains(&StateVar::Volume(60)));
        for light in net.find_fcms(&Query::new().class(FcmClass::Light)) {
            assert!(net.status(light).unwrap().contains(&StateVar::Dimmer(20)));
        }
    }

    #[test]
    fn zone_restricted_step() {
        let mut net = full_home();
        let scene =
            Scene::new("hall only").step_in(FcmClass::Light, "hall", FcmCommand::SetPower(true));
        let mut app = ScenePanelApp::new(&mut net, vec![scene], Theme::classic());
        let report = app.run_scene(&mut net, 0);
        assert_eq!(report.sent, 1);
        let hall = net.find_fcms(&Query::new().class(FcmClass::Light).zone("hall"))[0];
        assert!(net.status(hall).unwrap().contains(&StateVar::Power(true)));
        let lr = net.find_fcms(&Query::new().class(FcmClass::Light).zone("living-room"))[0];
        assert!(net.status(lr).unwrap().contains(&StateVar::Power(false)));
    }

    #[test]
    fn button_click_runs_scene() {
        let mut net = full_home();
        let mut app = ScenePanelApp::new(&mut net, standard_scenes(), Theme::classic());
        // Click the first scene button.
        let btn = *app.buttons.iter().find(|(_, &i)| i == 0).unwrap().0;
        let c = app.ui().widget_rect(btn).unwrap().center();
        for ev in InputEvent::click(c.x as u16, c.y as u16) {
            app.ui_mut().dispatch(ev);
        }
        let report = app.process(&mut net);
        assert_eq!(report.sent, 6);
    }

    #[test]
    fn mnemonic_fires_scene() {
        let mut net = full_home();
        let mut app = ScenePanelApp::new(&mut net, standard_scenes(), Theme::classic());
        app.ui_mut().set_focus(None);
        for ev in InputEvent::key_tap('g'.into()) {
            app.ui_mut().dispatch(ev);
        }
        let report = app.process(&mut net);
        assert!(report.sent >= 5, "{report:?}");
        let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
        assert!(net.status(tuner).unwrap().contains(&StateVar::Power(false)));
    }

    #[test]
    fn missing_targets_are_skipped_not_failed() {
        let mut net = HomeNetwork::new();
        net.attach(DeviceSpec::new("Lamp", "x").with_fcm(LightFcm::new("Lamp")));
        let mut app = ScenePanelApp::new(&mut net, standard_scenes(), Theme::classic());
        // Movie night in a home with only a light: only dimmer runs.
        let report = app.run_scene(&mut net, 0);
        assert_eq!(report.sent, 1);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn out_of_range_scene_is_noop() {
        let mut net = full_home();
        let mut app = ScenePanelApp::new(&mut net, vec![], Theme::classic());
        assert_eq!(app.run_scene(&mut net, 9), SceneReport::default());
    }
}
