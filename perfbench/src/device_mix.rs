//! `device_mix`: the paper's scenario. `ControlPanelApp` drives a HAVi
//! home network (TV tuner + display, VCR, amplifier: a 320×226 panel);
//! one `MultiServer` serves three proxies whose plug-ins the supervisor
//! shims, as the proxy hosts uploaded plug-ins:
//!
//! * PDA — stylus in, 240×320 RGB444 out;
//! * phone — keypad in, 128×128 Mono1 out with Floyd–Steinberg dither;
//! * TV — IR remote in, 640×480 RGB888 bilinear out.
//!
//! Interactions cycle through a PDA tap, a phone key, a remote key and
//! an appliance-side change (a HAVi command from outside the panel,
//! then `ControlPanelApp::process`). Every interaction repaints the
//! panel, so every device adapts a new frame; adaptation dominates.
//! Inputs are drawn from the seed among those the appliances accept in
//! their current state, so every HAVi command must succeed.

use std::time::Instant;

use uniint_apps::app::ControlPanelApp;
use uniint_core::context::{Situation, UserProfile};
use uniint_core::coordinator::Coordinator;
use uniint_core::plugin::{DeviceEvent, InputPlugin, Nav, OutputPlugin, RemoteKey};
use uniint_core::proxy::{fitted_view, UniIntProxy};
use uniint_core::supervisor::Supervisor;
use uniint_devices::input::{KeypadPlugin, RemotePlugin, StylusPlugin};
use uniint_devices::output::ScreenPlugin;
use uniint_havi::fcm::{FcmClass, FcmCommand, StateVar, Transport};
use uniint_havi::fcms::{AmplifierFcm, DisplayFcm, TunerFcm, VcrFcm};
use uniint_havi::id::Seid;
use uniint_havi::network::{DeviceSpec, HomeNetwork};
use uniint_havi::registry::{ElementKind, Query};
use uniint_raster::dither::dither_to_format;
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::{Rect, Size};
use uniint_raster::scale::scale_to_fit;
use uniint_wsys::event::WidgetId;
use uniint_wsys::prelude::{Button, Label, Slider, TextField, Theme, Toggle};

use crate::measure::Rng;
use crate::report::{Config, Report, Sums};
use crate::rig::{device_bytes, protocol_ratios, record_protocol, wire_bytes, Rig};
use crate::trace::{span, TimedInput, TimedOutput};
use crate::{add_traced, run_traced, run_untraced, Moved, Workload};

/// Nominal interactions per second (sets the fixed count).
const RATE: f64 = 70.0;
/// Device indices, which are also the proxies' client ids.
const PDA: usize = 0;
const PHONE: usize = 1;
const TV: usize = 2;
/// Device names, as span and metric suffixes.
const DEVICES: [&str; 3] = ["pda", "phone", "tv"];

/// What a panel widget controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Control {
    Power,
    Mute,
    Slider,
    Channel,
    Transport,
    Entry,
}

/// A panel widget with its role and the FCM it controls.
#[derive(Debug, Clone, Copy)]
struct Widget {
    id: WidgetId,
    rect: Rect,
    control: Control,
    fcm: usize,
}

/// What the benchmark knows about the composed panel: which widget
/// controls what, recovered from the widgets' captions and the section
/// headers, so the script can stay within what the appliances accept.
#[derive(Debug)]
struct Panel {
    fcms: Vec<(Seid, FcmClass)>,
    widgets: Vec<Widget>,
}

impl Panel {
    fn read(app: &ControlPanelApp, net: &HomeNetwork) -> Result<Panel, String> {
        let ui = app.ui();
        let regs: Vec<(Seid, FcmClass, String)> = net
            .registry()
            .query(&Query::new().kind(ElementKind::Fcm))
            .into_iter()
            .filter_map(|r| r.class.map(|c| (r.seid, c, r.name.clone())))
            .collect();
        // Section header y per FCM, from its "<name> [<class>]" label.
        let mut tops = Vec::new();
        for (i, (_, class, name)) in regs.iter().enumerate() {
            let header = format!("{name} [{class}]");
            let y = ui
                .widget_ids()
                .into_iter()
                .find(|&id| ui.widget::<Label>(id).is_some_and(|l| l.text() == header))
                .and_then(|id| ui.widget_rect(id))
                .ok_or_else(|| format!("no section header {header:?}"))?
                .y;
            tops.push((y, i));
        }
        tops.sort_unstable();
        let mut widgets = Vec::new();
        for id in ui.widget_ids() {
            let rect = ui.widget_rect(id).expect("listed widget has a rect");
            let Some(&(_, fcm)) = tops.iter().rev().find(|(y, _)| *y <= rect.y) else {
                continue;
            };
            let control = if let Some(t) = ui.widget::<Toggle>(id) {
                match t.caption() {
                    "Mute" => Control::Mute,
                    _ => Control::Power,
                }
            } else if let Some(b) = ui.widget::<Button>(id) {
                match b.caption() {
                    "Ch-" | "Ch+" => Control::Channel,
                    _ => Control::Transport,
                }
            } else if ui.widget::<Slider>(id).is_some() {
                Control::Slider
            } else if ui.widget::<TextField>(id).is_some() {
                Control::Entry
            } else {
                continue;
            };
            widgets.push(Widget {
                id,
                rect,
                control,
                fcm,
            });
        }
        Ok(Panel {
            fcms: regs.into_iter().map(|(s, c, _)| (s, c)).collect(),
            widgets,
        })
    }

    fn powered(&self, net: &HomeNetwork, fcm: usize) -> bool {
        net.status(self.fcms[fcm].0)
            .unwrap_or_default()
            .contains(&StateVar::Power(true))
    }

    fn fcm_of(&self, class: FcmClass) -> usize {
        self.fcms
            .iter()
            .position(|&(_, c)| c == class)
            .expect("the home has one FCM of each class used")
    }

    /// Whether activating `w` sends a command its FCM accepts now. Every
    /// control but power needs the function powered on; the channel
    /// entry field is never activated.
    fn accepts(&self, net: &HomeNetwork, w: &Widget) -> bool {
        match w.control {
            Control::Power => true,
            Control::Entry => false,
            _ => self.powered(net, w.fcm),
        }
    }

    fn focused(&self, app: &ControlPanelApp) -> Option<Widget> {
        let f = app.ui().focused()?;
        self.widgets.iter().find(|w| w.id == f).copied()
    }
}

/// One scripted interaction.
#[derive(Debug, Clone)]
enum Step {
    /// Device events for one proxy's input plug-in.
    Device(usize, Vec<DeviceEvent>),
    /// A HAVi command sent to an appliance from outside the panel.
    Appliance(Seid, FcmCommand),
}

/// The running scenario.
pub struct DeviceMix {
    net: HomeNetwork,
    app: ControlPanelApp,
    rig: Rig,
    panel: Panel,
    supervisors: Vec<(Supervisor, Coordinator)>,
    rng: Rng,
    pda_view: Size,
    next: Option<Step>,
    commands: u64,
    commands_failed: u64,
    routed: u64,
    /// Supervisor faults counted so far.
    faults_seen: u64,
    /// The proxies' coalesced-event and flood-dropped totals so far.
    proxy_seen: [u64; 2],
    /// Last re-adapted frame per device, for the `diff_region` re-timing.
    last_reduced: [Option<Framebuffer>; 3],
    ticks: u64,
}

fn home() -> HomeNetwork {
    let mut net = HomeNetwork::new();
    net.attach(
        DeviceSpec::new("TV-0", "living-room")
            .with_fcm(TunerFcm::new("Tuner 0", 12))
            .with_fcm(DisplayFcm::new("Display 0", 2)),
    );
    net.attach(DeviceSpec::new("VCR-1", "living-room").with_fcm(VcrFcm::new("Deck 1", 3600)));
    net.attach(DeviceSpec::new("Amp-2", "living-room").with_fcm(AmplifierFcm::new("Amp 2")));
    net
}

impl Workload for DeviceMix {
    const SEGMENTS: usize = 10;

    fn setup(cfg: &Config, traced: bool, segment: usize, _len: usize) -> Result<DeviceMix, String> {
        let mut net = home();
        let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
        let plugins: [(Box<dyn InputPlugin>, ScreenPlugin); 3] = [
            (Box::new(StylusPlugin::new()), ScreenPlugin::pda()),
            (Box::new(KeypadPlugin::new()), ScreenPlugin::phone_lcd()),
            (Box::new(RemotePlugin::new()), ScreenPlugin::tv()),
        ];
        let mut supervisors = Vec::new();
        let mut proxies = Vec::new();
        for (i, (input, output)) in plugins.into_iter().enumerate() {
            let name = DEVICES[i];
            let mut sup = Supervisor::new(cfg.seed.wrapping_add(i as u64));
            let output: Box<dyn OutputPlugin> = Box::new(output);
            let mut proxy = UniIntProxy::new(format!("{name}-proxy"));
            if traced {
                // Timing wrappers inside and outside the supervisor's
                // shim: the difference is the shim's own cost.
                let inner_in = TimedInput::boxed("devices.translate", input);
                let inner_out = TimedOutput::boxed(adapt_span(i), output);
                proxy.attach_input(TimedInput::boxed(
                    "supervisor.translate",
                    sup.wrap_input(name, inner_in),
                ));
                proxy.attach_output(TimedOutput::boxed(
                    "supervisor.adapt",
                    sup.wrap_output(name, inner_out),
                ));
            } else {
                proxy.attach_input(sup.wrap_input(name, input));
                proxy.attach_output(sup.wrap_output(name, output));
            }
            proxies.push(proxy);
            let coord =
                Coordinator::new(UserProfile::neutral(name), Situation::idle("living-room"));
            supervisors.push((sup, coord));
        }
        let rig = Rig::connect(app.ui_mut(), proxies)?;
        rig.check_viewers(app.ui())?;
        let panel = Panel::read(&app, &net)?;
        let pda_view = fitted_view(app.ui().size(), ScreenPlugin::pda().caps().size);
        Ok(DeviceMix {
            routed: net.messages_routed(),
            net,
            app,
            rig,
            panel,
            supervisors,
            rng: Rng::new(cfg.seed, 0xd300 + segment as u64),
            pda_view,
            next: None,
            commands: 0,
            commands_failed: 0,
            faults_seen: 0,
            proxy_seen: [0, 0],
            last_reduced: [None, None, None],
            ticks: 0,
        })
    }

    fn prepare(&mut self, i: usize) {
        self.next = Some(match i % 4 {
            0 => self.pda_tap(),
            1 => self.phone_key(),
            2 => self.remote_key(),
            _ => self.appliance_change(),
        });
    }

    fn interact(&mut self) -> Result<(), String> {
        let step = self.next.take().expect("prepared");
        let mut result = Ok(());
        match step {
            Step::Device(dev, events) => {
                for ev in events {
                    let proxy = &mut self.rig.proxies[dev];
                    let msgs = span("proxy.device_input", || proxy.device_input(&ev));
                    self.rig.deliver(self.app.ui_mut(), dev, msgs);
                }
            }
            Step::Appliance(seid, cmd) => {
                let net = &mut self.net;
                self.commands += 1;
                match span("havi.send", || net.send(seid, &cmd)) {
                    Ok(r) if r.is_ok() => {}
                    other => {
                        self.commands_failed += 1;
                        result = Err(format!("appliance refused {cmd:?}: {other:?}"));
                    }
                }
            }
        }
        let (app, net) = (&mut self.app, &mut self.net);
        let report = span("apps.process", || app.process(net));
        self.commands += report.commands_sent as u64;
        self.commands_failed += report.commands_failed as u64;
        if report.commands_failed > 0 {
            result = Err(format!(
                "{} panel command(s) refused",
                report.commands_failed
            ));
        }
        self.rig.settle(self.app.ui_mut())?;
        result
    }

    fn after(&mut self, timed: bool, traced: bool, sums: &mut Sums) -> Result<Moved, String> {
        let d = self.rig.take_delivered();
        self.ticks += 1;
        let mut faults = 0;
        for (i, (sup, coord)) in self.supervisors.iter_mut().enumerate() {
            sup.tick(self.ticks * 1_000, coord, &mut self.rig.proxies[i]);
            let s = sup.stats();
            faults += s.plugin_panics + s.plugin_timeouts + s.garbage_events;
        }
        let new_faults = faults - self.faults_seen;
        self.faults_seen = faults;
        let proxy_totals = self
            .rig
            .proxies
            .iter()
            .map(|p| p.stats())
            .fold([0, 0], |[c, f], s| {
                [c + s.events_coalesced, f + s.flood_dropped]
            });
        let [coalesced, dropped] = [0, 1].map(|k| proxy_totals[k] - self.proxy_seen[k]);
        self.proxy_seen = proxy_totals;
        if traced && timed {
            sums.add("proxy.events_coalesced", coalesced as f64);
            sums.add("proxy.flood_dropped", dropped as f64);
            record_protocol(self.app.ui(), &d, sums);
            self.retime_raster(sums);
            let routed = self.net.messages_routed();
            sums.add("havi.messages_routed", (routed - self.routed) as f64);
            sums.add("havi.commands", self.commands as f64);
            sums.add("havi.commands_failed", self.commands_failed as f64);
            sums.add("supervisor.faults", new_faults as f64);
            for (_, f) in &d.frames {
                sums.add("devices.frame_bytes", f.wire_bytes as f64);
                sums.add("devices.delta_bytes", f.delta_bytes() as f64);
                sums.add("sum.changed_px", f.changed.area() as f64);
                sums.add("sum.adapted_px", f.frame.bounds().area() as f64);
            }
        }
        self.routed = self.net.messages_routed();
        self.commands = 0;
        self.commands_failed = 0;
        if new_faults > 0 {
            return Err(format!("{new_faults} plug-in fault(s) under supervision"));
        }
        for (dev, name) in DEVICES.iter().enumerate() {
            if !d.frames.iter().any(|(c, _)| *c == dev) {
                return Err(format!("the {name} got no adapted frame"));
            }
        }
        self.rig.check_viewers(self.app.ui())?;
        Ok(Moved {
            wire: wire_bytes(&d),
            device: device_bytes(&d),
        })
    }

    fn corrupt(&mut self) {
        self.rig.corrupt(self.app.ui_mut(), PHONE);
    }
}

fn adapt_span(dev: usize) -> &'static str {
    [
        "devices.adapt.pda",
        "devices.adapt.phone",
        "devices.adapt.tv",
    ][dev]
}

impl DeviceMix {
    /// A stylus tap on a control the appliance accepts; sliders are
    /// tapped at a seeded position.
    fn pda_tap(&mut self) -> Step {
        let choices: Vec<Widget> = self
            .panel
            .widgets
            .iter()
            .filter(|w| self.panel.accepts(&self.net, w))
            .copied()
            .collect();
        let w = self.rng.pick(&choices);
        let c = w.rect.center();
        let x = match w.control {
            Control::Slider => self.rng.range(w.rect.x + 3, w.rect.x + w.rect.w as i32 - 4),
            _ => c.x,
        };
        // Server → PDA screen coordinates: the proxy maps them back.
        let server = self.app.ui().size();
        let dx = (x as u32 * self.pda_view.w).div_ceil(server.w) as u16;
        let dy = (c.y as u32 * self.pda_view.h).div_ceil(server.h) as u16;
        Step::Device(
            PDA,
            vec![
                DeviceEvent::StylusDown { x: dx, y: dy },
                DeviceEvent::StylusUp { x: dx, y: dy },
            ],
        )
    }

    /// Select on an activatable focused control, otherwise move focus.
    fn phone_key(&mut self) -> Step {
        let focused = self.panel.focused(&self.app);
        let can_select = focused.is_some_and(|w| {
            !matches!(w.control, Control::Slider | Control::Entry)
                && self.panel.accepts(&self.net, &w)
        });
        let ev = if can_select && self.rng.below(2) == 0 {
            DeviceEvent::KeypadSelect
        } else if self.rng.below(2) == 0 {
            DeviceEvent::KeypadNav(Nav::Down)
        } else {
            DeviceEvent::KeypadNav(Nav::Up)
        };
        Step::Device(PHONE, vec![ev])
    }

    /// Power and mute mnemonics, channel keys (focus traversal) and,
    /// on a slider of a powered appliance, volume keys.
    fn remote_key(&mut self) -> Step {
        let focused = self.panel.focused(&self.app);
        let in_entry = focused.is_some_and(|w| w.control == Control::Entry);
        let amp_on = self
            .panel
            .powered(&self.net, self.panel.fcm_of(FcmClass::Amplifier));
        let mut keys = vec![RemoteKey::ChannelUp, RemoteKey::ChannelDown];
        if !in_entry {
            keys.push(RemoteKey::Power);
            if amp_on {
                keys.push(RemoteKey::Mute);
            }
        }
        if focused
            .is_some_and(|w| w.control == Control::Slider && self.panel.accepts(&self.net, &w))
        {
            keys.extend([RemoteKey::VolumeUp, RemoteKey::VolumeDown]);
        }
        Step::Device(TV, vec![DeviceEvent::Remote(self.rng.pick(&keys))])
    }

    /// A command from outside the panel that changes a displayed state.
    fn appliance_change(&mut self) -> Step {
        let n = self.panel.fcms.len();
        let fcm = self.rng.below(n);
        let (seid, class) = self.panel.fcms[fcm];
        let status = self.net.status(seid).unwrap_or_default();
        let on = status.contains(&StateVar::Power(true));
        let cmd = if !on || self.rng.below(3) == 0 {
            FcmCommand::SetPower(!on)
        } else {
            match class {
                FcmClass::Tuner => {
                    FcmCommand::StepChannel(if self.rng.below(2) == 0 { 1 } else { -1 })
                }
                FcmClass::Display => FcmCommand::SetBrightness(self.rng.range(0, 100)),
                FcmClass::Vcr => FcmCommand::Transport(self.rng.pick(&[
                    Transport::Play,
                    Transport::Stop,
                    Transport::FastForward,
                    Transport::Rewind,
                ])),
                FcmClass::Amplifier if self.rng.below(2) == 0 => {
                    FcmCommand::SetMute(!status.contains(&StateVar::Mute(true)))
                }
                _ => FcmCommand::SetVolume(self.rng.range(0, 100)),
            }
        };
        Step::Appliance(seid, cmd)
    }

    /// Re-times each device's scale, dither and diff stages on the
    /// frame its proxy holds now.
    fn retime_raster(&mut self, sums: &mut Sums) {
        const SCALE: [&str; 3] = [
            "raster.scale_us.pda",
            "raster.scale_us.phone",
            "raster.scale_us.tv",
        ];
        const DITHER: [&str; 3] = [
            "raster.dither_us.pda",
            "raster.dither_us.phone",
            "raster.dither_us.tv",
        ];
        const DIFF: [&str; 3] = [
            "raster.diff_us.pda",
            "raster.diff_us.phone",
            "raster.diff_us.tv",
        ];
        let screens = [
            ScreenPlugin::pda(),
            ScreenPlugin::phone_lcd(),
            ScreenPlugin::tv(),
        ];
        for (dev, screen) in screens.iter().enumerate() {
            let caps = screen.caps();
            let Some(fb) = self.rig.proxies[dev].server_frame() else {
                continue;
            };
            let t0 = Instant::now();
            let scaled = scale_to_fit(fb, caps.size, caps.scale);
            let t1 = Instant::now();
            let reduced = dither_to_format(&scaled, caps.format, caps.dither);
            let t2 = Instant::now();
            if let Some(last) = &self.last_reduced[dev] {
                std::hint::black_box(last.diff_region(&reduced));
            }
            let t3 = Instant::now();
            sums.add(SCALE[dev], (t1 - t0).as_nanos() as f64 / 1e3);
            sums.add(DITHER[dev], (t2 - t1).as_nanos() as f64 / 1e3);
            sums.add(DIFF[dev], (t3 - t2).as_nanos() as f64 / 1e3);
            self.last_reduced[dev] = Some(reduced);
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let n = cfg.interactions(RATE, 1_100);
    if !cfg.trace {
        return run_untraced::<DeviceMix>(cfg, n);
    }
    let (mut report, traced) = run_traced::<DeviceMix>(cfg, n, |_| Ok(()))?;
    let mean = add_traced(&mut report, traced, DEVICES.len());
    let sums = &report.traced_sums;
    let adapted = sums.get("sum.adapted_px");
    let useful = if adapted > 0.0 {
        sums.get("sum.changed_px") / adapted
    } else {
        0.0
    };
    protocol_ratios(sums, &mut report.layers);
    let layers = &mut report.layers;
    layers.insert("devices.adapt_useful_ratio", useful);
    let adapt: f64 = [
        "devices.adapt_us.pda",
        "devices.adapt_us.phone",
        "devices.adapt_us.tv",
    ]
    .iter()
    .map(|k| layers[k])
    .sum();
    let share = adapt / mean.max(f64::MIN_POSITIVE);
    layers.insert("trace.target_share", share);
    let covered = layers["trace.layer_self_ratio"];
    report.notes.push(format!(
        "device_mix loads devices: devices.adapt_us.* is {:.1}% of the traced interaction; \
         layer self times cover {:.1}% of it",
        100.0 * share,
        100.0 * covered
    ));
    Ok(report)
}
