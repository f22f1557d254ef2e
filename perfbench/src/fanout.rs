//! `fanout`: one panel served in-process by one `MultiServer` to 16
//! `UniIntProxy` viewers in the native format, without plug-ins. A
//! seeded viewer clicks a seeded widget; the interaction ends when all
//! viewers are quiescent. `pump_all` encodes once per viewer, so the
//! interaction time sits in `core::multi` and `protocol`.
//!
//! [`InProcess`] runs any [`Scene`] this way; the in-process half of
//! `gateway.hop_us` is the gateway's panel and script through it.

use std::marker::PhantomData;

use uniint_core::proxy::UniIntProxy;
use uniint_protocol::input::InputEvent;
use uniint_protocol::message::ClientMessage;
use uniint_raster::geom::Rect;
use uniint_wsys::prelude::{Button, Label, ProgressBar, Slider, Theme, Toggle, Ui};

use crate::measure::Rng;
use crate::report::{Config, Report, Sums};
use crate::rig::{protocol_ratios, record_protocol, wire_bytes, Rig};
use crate::{add_traced, run_traced, run_untraced, Moved, Workload};

/// Viewers watching the panel.
pub const VIEWERS: usize = 16;
/// Nominal interactions per second (sets the fixed count).
const RATE: f64 = 300.0;

/// A clickable widget: sliders are clicked at a seeded position.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// Where the widget sits on the panel.
    pub rect: Rect,
    /// Whether the widget is a slider.
    pub slider: bool,
}

/// One scripted click: which viewer clicks where.
#[derive(Debug, Clone, Copy)]
pub struct Click {
    /// The clicking viewer.
    pub viewer: usize,
    /// Click position on the panel.
    pub x: u16,
    /// Click position on the panel.
    pub y: u16,
}

impl Click {
    /// The click as client messages.
    pub fn messages(self) -> Vec<ClientMessage> {
        InputEvent::click(self.x, self.y)
            .into_iter()
            .map(ClientMessage::Input)
            .collect()
    }
}

/// A panel, its viewer count and its seeded click script: what an
/// in-process session needs besides the server and its proxies.
pub trait Scene {
    /// Viewers watching the panel.
    const VIEWERS: usize;
    /// Segments per run.
    const SEGMENTS: usize;

    /// A freshly rendered panel and its clickable widgets.
    fn panel() -> (Ui, Vec<Target>);

    /// `len` clicks drawn from the seed and `segment`.
    fn script(seed: u64, segment: usize, len: usize, targets: &[Target]) -> Vec<Click>;
}

/// The `fanout` scene: the 320×240 appliance panel, 16 viewers, a
/// seeded viewer clicking a seeded widget.
pub struct Appliances;

impl Scene for Appliances {
    const VIEWERS: usize = VIEWERS;
    const SEGMENTS: usize = 10;

    /// A 320×240 panel in two columns of appliance rows, in the shape of
    /// the experiment harness's `panel_ui`: toggles with buttons, sliders,
    /// and progress bars with toggles. Widget widths vary by row so clicks
    /// damage rects of many sizes.
    fn panel() -> (Ui, Vec<Target>) {
        let mut ui = Ui::new(320, 240, Theme::classic(), "fanout-panel");
        let mut targets = Vec::new();
        for col in 0..2u32 {
            let x = 4 + 160 * col as i32;
            for row in 0..6u32 {
                let k = col * 6 + row;
                let y = 4 + 39 * row as i32;
                ui.add(
                    Label::new(format!("Appliance {k}")),
                    Rect::new(x, y, 100, 12),
                );
                let body = y + 14;
                match k % 3 {
                    0 => {
                        let t = Rect::new(x, body, 44 + 4 * (k % 4), 18);
                        let b = Rect::new(x + 70, body, 36 + 8 * (k % 3), 18);
                        ui.add(Toggle::new("Power", k % 2 == 0), t);
                        ui.add(Button::new("Ch+"), b);
                        targets.push(Target {
                            rect: t,
                            slider: false,
                        });
                        targets.push(Target {
                            rect: b,
                            slider: false,
                        });
                    }
                    1 => {
                        let s = Rect::new(x, body, 96 + 12 * (k % 5), 16);
                        ui.add(Slider::new(0, 100, (k * 17 % 100) as i32, 5), s);
                        targets.push(Target {
                            rect: s,
                            slider: true,
                        });
                    }
                    _ => {
                        ui.add(
                            ProgressBar::new(0, 100, (k * 29 % 100) as i32),
                            Rect::new(x, body + 3, 80, 12),
                        );
                        let t = Rect::new(x + 88, body, 48 + 6 * (k % 3), 18);
                        ui.add(Toggle::new("Mute", k % 2 == 1), t);
                        targets.push(Target {
                            rect: t,
                            slider: false,
                        });
                    }
                }
            }
        }
        ui.render();
        (ui, targets)
    }

    fn script(seed: u64, segment: usize, len: usize, targets: &[Target]) -> Vec<Click> {
        let mut rng = Rng::new(seed, 0xfa00 + segment as u64);
        (0..len)
            .map(|_| {
                let t = rng.pick(targets);
                let c = t.rect.center();
                let x = if t.slider {
                    rng.range(t.rect.x + 3, t.rect.x + t.rect.w as i32 - 4)
                } else {
                    c.x
                };
                Click {
                    viewer: rng.below(VIEWERS),
                    x: x as u16,
                    y: c.y as u16,
                }
            })
            .collect()
    }
}

/// A scene's panel served in-process to its viewers, and its script.
pub struct InProcess<S> {
    ui: Ui,
    rig: Rig,
    script: Vec<Click>,
    next: Vec<ClientMessage>,
    viewer: usize,
    scene: PhantomData<S>,
}

/// The `fanout` workload.
pub type Fanout = InProcess<Appliances>;

impl<S: Scene> Workload for InProcess<S> {
    const SEGMENTS: usize = S::SEGMENTS;

    fn setup(cfg: &Config, _traced: bool, segment: usize, len: usize) -> Result<Self, String> {
        let (mut ui, targets) = S::panel();
        let proxies = (0..S::VIEWERS)
            .map(|i| UniIntProxy::new(format!("viewer-{i}")))
            .collect();
        let rig = Rig::connect(&mut ui, proxies)?;
        rig.check_viewers(&ui)?;
        Ok(InProcess {
            ui,
            rig,
            script: S::script(cfg.seed, segment, len, &targets),
            next: Vec::new(),
            viewer: 0,
            scene: PhantomData,
        })
    }

    fn prepare(&mut self, i: usize) {
        let c = self.script[i];
        self.viewer = c.viewer;
        self.next = c.messages();
    }

    fn interact(&mut self) -> Result<(), String> {
        let msgs = std::mem::take(&mut self.next);
        self.rig.deliver(&mut self.ui, self.viewer, msgs);
        self.rig.settle(&mut self.ui)
    }

    fn after(&mut self, timed: bool, traced: bool, sums: &mut Sums) -> Result<Moved, String> {
        let d = self.rig.take_delivered();
        if traced && timed {
            record_protocol(&self.ui, &d, sums);
        }
        self.rig.check_viewers(&self.ui)?;
        Ok(Moved {
            wire: wire_bytes(&d),
            device: 0,
        })
    }

    fn corrupt(&mut self) {
        self.rig.corrupt(&mut self.ui, S::VIEWERS / 2);
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let n = cfg.interactions(RATE, 1_100);
    if !cfg.trace {
        return run_untraced::<Fanout>(cfg, n);
    }
    let (mut report, traced) = run_traced::<Fanout>(cfg, n, |_| Ok(()))?;
    let mean = add_traced(&mut report, traced, VIEWERS);
    protocol_ratios(&report.traced_sums, &mut report.layers);
    let share = report.layers["multi.pump_all_us"] / mean.max(f64::MIN_POSITIVE);
    report.layers.insert("trace.target_share", share);
    report.notes.push(format!(
        "fanout loads core::multi: multi.pump_all is {:.1}% of the traced interaction; \
         layer self times cover {:.1}% of it",
        100.0 * share,
        100.0 * report.layers["trace.layer_self_ratio"]
    ));
    Ok(report)
}
