//! E1–E12 and the design ablations, each defined once.
//!
//! An experiment builds its scenarios at a [`Scale`], runs each
//! scenario's step, and reads the result into [`Row`]s: deterministic
//! counts first (taken before any timing loop, so they do not depend on
//! how often the step was timed), then wall-clock medians. Snapshot keys
//! are written out per metric because `baseline.json` is not uniform
//! about them; they are unique within the [`Scale::Quick`] catalogue.

use std::time::{Duration, Instant};

use uniint_apps::prelude::*;
use uniint_core::prelude::*;
use uniint_devices::prelude::*;
use uniint_gateway::prelude::{Gateway, GatewayClient, GatewayConfig};
use uniint_havi::prelude::*;
use uniint_netsim::prelude::{FaultSchedule, LinkProfile};
use uniint_protocol::encoding::{decode_rect, encode_rect, Encoding};
use uniint_protocol::input::InputEvent;
use uniint_protocol::message::ClientMessage;
use uniint_raster::prelude::*;
use uniint_telemetry::registry::Registry;
use uniint_trace::prelude::{Replayer, TraceReader};
use uniint_wsys::prelude::{Slider, Theme, Toggle, Ui};

use crate::{
    e12_panel, home_with, panel_ui, power_center, slug, standard_scene, DamagePattern, Metric, Row,
    Scale, E2_SIZES,
};

/// One experiment: its report heading, its snapshot section and how to
/// run it.
pub struct Experiment {
    /// Report heading.
    pub title: &'static str,
    /// Snapshot section, the top-level key in `baseline.json`.
    pub key: &'static str,
    /// Header of the report's row-label column.
    pub label: &'static str,
    /// Builds the scenarios at a scale, runs them and reads the rows.
    pub run: fn(Scale) -> Vec<Row>,
}

/// Every experiment, in report order.
pub const CATALOGUE: &[Experiment] = &[
    Experiment {
        title: "E1: end-to-end input latency per device (one command)",
        key: "e1_input_latency",
        label: "device",
        run: e1,
    },
    Experiment {
        title: "E2: bytes per update, by encoding × damage pattern × screen",
        key: "e2_encoding",
        label: "screen pattern",
        run: e2,
    },
    Experiment {
        title: "E3: output adaptation cost per device (640x480 source)",
        key: "e3_adaptation",
        label: "device / stage",
        run: e3,
    },
    Experiment {
        title: "E4: dynamic switching latency",
        key: "e4_switching",
        label: "switch",
        run: e4,
    },
    Experiment {
        title: "E5: panel composition vs appliance count",
        key: "e5_composition",
        label: "appliances",
        run: e5,
    },
    Experiment {
        title: "E6: interactive rate over home links (virtual time)",
        key: "e6_links",
        label: "link",
        run: e6,
    },
    Experiment {
        title: "E7: universal interaction vs native per-device UI",
        key: "e7_baseline",
        label: "path",
        run: e7,
    },
    Experiment {
        title: "E8: HAVi substrate scaling",
        key: "e8_havi",
        label: "appliances",
        run: e8,
    },
    Experiment {
        title: "E9: session recovery under scheduled link faults",
        key: "e9_faults",
        label: "link fault",
        run: e9,
    },
    Experiment {
        title: "E10: device supervision",
        key: "e10_supervision",
        label: "case",
        run: e10,
    },
    Experiment {
        title: "E11: TCP gateway on loopback (4 clients, one killed socket)",
        key: "e11_gateway",
        label: "run",
        run: e11,
    },
    Experiment {
        title: "E12: replay of the golden E12 trace",
        key: "e12_replay",
        label: "run",
        run: e12,
    },
    Experiment {
        title: "Ablations: design choices switched off",
        key: "ablations",
        label: "ablation",
        run: ablations,
    },
];

/// A report label, a snapshot key token, an input plug-in and the
/// events of one command on the standard panel.
type Input = (
    &'static str,
    &'static str,
    fn() -> Box<dyn InputPlugin>,
    fn(&ControlPanelApp) -> Vec<DeviceEvent>,
);

/// E1's input devices; E7 times the keypad's command as its input-only path.
const INPUTS: [Input; 5] = [
    (
        "remote (Ok)",
        "remote",
        || Box::new(RemotePlugin::new()),
        |_| vec![SimRemote::press(RemoteKey::Ok)],
    ),
    (
        "pda stylus (tap)",
        "stylus",
        || Box::new(StylusPlugin::new()),
        |app| {
            let (x, y) = power_center(app);
            SimPda::tap(x, y)
        },
    ),
    (
        "phone keypad (5)",
        "keypad",
        || Box::new(KeypadPlugin::new()),
        |_| vec![select()],
    ),
    (
        "voice (\"select\")",
        "voice",
        || Box::new(VoicePlugin::new()),
        |_| vec![DeviceEvent::Voice("select".into())],
    ),
    (
        "gesture (fist)",
        "gesture",
        || Box::new(GesturePlugin::new()),
        |_| vec![DeviceEvent::Gesture(Gesture::Fist)],
    ),
];

/// The phone keypad's select key.
fn select() -> DeviceEvent {
    SimPhone::press('5').expect("keypad has 5")
}

/// The standard scene driven by `input`: its telemetry, and a step that
/// issues one command and lets the application send it to the appliance.
fn command(input: &Input) -> (Registry, impl FnMut() -> ProcessReport) {
    let (mut net, mut app, mut s) = standard_scene();
    s.proxy.attach_input((input.2)());
    let events = (input.3)(&app);
    let tel = s.telemetry().clone();
    let step = move || {
        for ev in &events {
            s.device_input(app.ui_mut(), ev);
        }
        app.process(&mut net)
    };
    (tel, step)
}

/// E1: one command from each input device through the whole pipeline.
fn e1(at: Scale) -> Vec<Row> {
    INPUTS
        .iter()
        .map(|input @ (label, key, ..)| {
            let (tel, mut step) = command(input);
            step();
            let counter = |n: &str| tel.counter(n).get();
            Row::new(*label)
                .count(
                    "events translated",
                    format!("{key}_events_translated"),
                    counter("proxy.events_translated"),
                )
                .count(
                    "updates applied",
                    format!("{key}_updates_applied"),
                    counter("proxy.updates_applied"),
                )
                .us("median µs", at.median_us(51, step))
        })
        .collect()
}

/// E2's encodings, by report column.
const ENCODINGS: [(&str, Encoding); 5] = [
    ("raw", Encoding::Raw),
    ("rre", Encoding::Rre),
    ("hextile", Encoding::Hextile),
    ("rle", Encoding::Rle),
    ("prle", Encoding::PaletteRle),
];

/// E2: encoded bytes, encode and decode time per damage pattern ×
/// encoding (PDA screen only at Quick).
fn e2(at: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for &size in at.pick(&E2_SIZES[1..2], &E2_SIZES[..]) {
        for pattern in DamagePattern::ALL {
            let (rect, px) = pattern.generate(size);
            let (name, token) = (pattern.name(), slug(pattern.name()));
            let mut bytes = Row::new(format!("{size} {name} B")).count(
                "pixels",
                format!("{token}_pixels"),
                rect.area(),
            );
            let mut encode = Row::new(format!("{size} {name} encode µs"));
            let mut decode = Row::new(format!("{size} {name} decode µs"));
            for (column, enc) in ENCODINGS {
                let wire = encode_rect(&px, rect, enc, PixelFormat::Rgb888);
                let key = format!("{token}_{enc:?}_bytes").to_lowercase();
                bytes = bytes.count(column, key, wire.len() as u64);
                encode = encode.us(
                    column,
                    at.median_us(11, || encode_rect(&px, rect, enc, PixelFormat::Rgb888)),
                );
                decode = decode.us(
                    column,
                    at.median_us(11, || {
                        decode_rect(&mut &wire[..], rect, enc, PixelFormat::Rgb888)
                            .expect("decodes")
                    }),
                );
            }
            rows.extend([bytes, encode, decode]);
        }
    }
    rows
}

/// E3: adapting a 640x480 panel per output device, whole-frame by a fresh
/// plug-in and incrementally after a slider-band change; then the scale
/// and dither stages alone.
fn e3(at: Scale) -> Vec<Row> {
    let frame = panel_ui(Size::new(640, 480)).framebuffer().clone();
    let mut dragged = frame.clone();
    dragged.fill_rect(Rect::new(8, 240, 600, 16), Color::DARK_GRAY);
    let devices: [fn() -> Box<dyn OutputPlugin>; 5] = [
        || Box::new(ScreenPlugin::tv()),
        || Box::new(ScreenPlugin::pda()),
        || Box::new(ScreenPlugin::phone_lcd()),
        || Box::new(ScreenPlugin::eyepiece()),
        || Box::new(TerminalPlugin::standard()),
    ];
    let mut rows: Vec<Row> = devices
        .into_iter()
        .map(|device| {
            let mut plugin = device();
            let kind = plugin.kind();
            let full_bytes = plugin.adapt(&frame).wire_bytes as u64;
            let delta = plugin.adapt(&dragged).delta_bytes() as u64;
            // Alternating the two frames makes every call redraw the band.
            let mut flip = false;
            let incr = at.median_us(21, || {
                flip = !flip;
                plugin.adapt(if flip { &frame } else { &dragged })
            });
            Row::new(kind)
                .us("full µs", at.median_us(21, || device().adapt(&frame)))
                .us("incr µs", incr)
                .count(
                    "full bytes",
                    format!("{}_full_bytes", slug(kind)),
                    full_bytes,
                )
                .count(
                    "drag delta bytes",
                    format!("{}_delta_bytes", slug(kind)),
                    delta,
                )
        })
        .collect();
    let to = Size::new(240, 180);
    for filter in [
        ScaleFilter::Nearest,
        ScaleFilter::Bilinear,
        ScaleFilter::Box,
    ] {
        let us = at.median_us(21, || scale(&frame, to, filter));
        rows.push(Row::new(format!("scale {filter} to {to}")).us("full µs", us));
    }
    let small = scale(&frame, to, ScaleFilter::Box);
    for mode in [
        DitherMode::None,
        DitherMode::Ordered4x4,
        DitherMode::FloydSteinberg,
    ] {
        let us = at.median_us(21, || dither_to_format(&small, PixelFormat::Mono1, mode));
        rows.push(Row::new(format!("dither {mode} {to} to mono")).us("full µs", us));
    }
    rows
}

/// E4: input and output plug-in swaps, a coordinator reselecting both on
/// a situation change (cooking in the kitchen ⇄ watching TV on the sofa),
/// and the selection policy alone.
fn e4(at: Scale) -> Vec<Row> {
    let (_net, _app, mut s) = standard_scene();
    let swap = at.median_us(101, || {
        s.proxy.attach_input(Box::new(VoicePlugin::new()));
        s.proxy.attach_input(Box::new(KeypadPlugin::new()));
    });
    let (_net, mut app, mut s) = standard_scene();
    let mut flip = false;
    let output = at.median_us(21, || {
        flip = !flip;
        let plugin: Box<dyn OutputPlugin> = if flip {
            Box::new(ScreenPlugin::pda())
        } else {
            Box::new(ScreenPlugin::tv())
        };
        let msgs = s.proxy.attach_output(plugin);
        s.deliver_to_server(app.ui_mut(), msgs);
        s.take_frame()
    });

    let situations = [
        ("kitchen", Activity::Cooking, true),
        ("living-room", Activity::WatchingTv, false),
    ]
    .map(|(zone, activity, hands_busy)| Situation {
        zone: zone.into(),
        activity,
        hands_busy,
        noise: Noise::Moderate,
    });
    let (_net, mut app, mut s) = standard_scene();
    let tel = s.telemetry().clone();
    let home = standard_home("kitchen", "living-room");
    let devices: Vec<DeviceDescriptor> = home.iter().map(|d| d.descriptor().clone()).collect();
    let mut coord = Coordinator::new(UserProfile::neutral("u"), Situation::idle("hall"));
    for d in home {
        let r = coord.register(d, &mut s.proxy);
        s.deliver_to_server(app.ui_mut(), r.messages);
    }
    let mut next = 0;
    let mut change = || {
        let r = coord.set_situation(situations[next % 2].clone(), &mut s.proxy);
        next += 1;
        s.deliver_to_server(app.ui_mut(), r.messages);
        s.take_frame()
    };
    change();
    change();
    let counter = |n: &str| tel.counter(n).get();
    let reselect = Row::new("situation change (full reselect)")
        .count(
            "input switches",
            "input_switches",
            counter("coordinator.input_switches"),
        )
        .count(
            "output switches",
            "output_switches",
            counter("coordinator.output_switches"),
        )
        .count(
            "frames adapted",
            "frames_adapted",
            counter("proxy.frames_adapted"),
        )
        .us("median µs", at.median_us(21, change));

    let user = UserProfile::neutral("u");
    let rank = at.median_us(101, || {
        (
            SelectionPolicy.rank_inputs(&devices, &situations[0], &user),
            SelectionPolicy.rank_outputs(&devices, &situations[0], &user),
        )
    });
    vec![
        Row::new("input plug-in swap (x2)").us("median µs", swap),
        Row::new("output switch to first frame").us("median µs", output),
        reselect,
        Row::new(format!("policy rank only ({} devices)", devices.len())).us("median µs", rank),
    ]
}

/// E5: composing the panel from `n` discovered appliances, and the no-op
/// recompose every hot-plug event triggers.
fn e5(at: Scale) -> Vec<Row> {
    at.pick(&[1usize, 4, 16][..], &[1, 2, 4, 8, 16])
        .iter()
        .map(|&n| {
            let mut net = home_with(n);
            let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
            let row = Row::new(n.to_string())
                .count(
                    "sections",
                    format!("sections_{n}"),
                    app.section_count() as u64,
                )
                .us(
                    "compose µs",
                    at.median_us(11, || {
                        ControlPanelApp::new(&mut net, None, Theme::classic())
                    }),
                )
                .count(
                    "panel height",
                    format!("panel_height_{n}"),
                    app.ui().size().h as u64,
                );
            row.us("recompose µs", at.median_us(11, || app.recompose(&mut net)))
        })
        .collect()
}

/// The standard three-appliance panel in a keypad session over `link`.
fn keypad_session(link: LinkProfile) -> (HomeNetwork, ControlPanelApp, SimSession) {
    let mut net = home_with(3);
    let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
    let mut s = SimSession::connect(app.ui_mut(), link, 7).expect("connect");
    s.proxy.attach_input(Box::new(KeypadPlugin::new()));
    (net, app, s)
}

/// Presses `ev` `n` times, letting the session settle after each press.
fn press_n(n: usize, ev: &DeviceEvent, scene: &mut (HomeNetwork, ControlPanelApp, SimSession)) {
    let (net, app, s) = scene;
    for _ in 0..n {
        s.device_input(app.ui_mut(), ev).expect("input settles");
        app.process(net);
        s.settle(app.ui_mut()).expect("session settles");
    }
}

/// E6: a slider drag on the phone LCD over every home link, in virtual
/// time (1 + 5 presses at Quick, 4 + 20 at Full).
fn e6(at: Scale) -> Vec<Row> {
    let (focus, steps) = at.pick((1, 5), (4, 20));
    let up = SimPhone::press('8').expect("keypad has 8");
    let right = SimPhone::press('6').expect("keypad has 6");
    LinkProfile::presets()
        .into_iter()
        .map(|link| {
            let drag = || {
                let mut scene = keypad_session(link);
                let (_, app, s) = &mut scene;
                let msgs = s.proxy.attach_output(Box::new(ScreenPlugin::phone_lcd()));
                s.send_client(app.ui_mut(), msgs)
                    .expect("renegotiation settles");
                let (t0, f0) = (s.now_us(), s.frames_delivered());
                press_n(focus, &up, &mut scene);
                press_n(steps, &right, &mut scene);
                let s = &scene.2;
                (
                    s.now_us() - t0,
                    s.frames_delivered() - f0,
                    s.server_wire_bytes(),
                )
            };
            let (us, frames, wire) = drag();
            let token = slug(link.name);
            Row::new(link.name)
                .with(
                    "drag ms",
                    Metric::VirtualUs(format!("{token}_virtual_us"), us),
                )
                .count("frames", format!("{token}_frames"), frames)
                .with("frames/s", Metric::Ratio(frames as f64 / (us as f64 / 1e6)))
                .count("wire bytes", format!("{token}_wire_bytes"), wire)
                .us("sim µs", at.median_us(5, drag))
        })
        .collect()
}

/// E7: the same power toggle through a hand-written native device UI and
/// through the universal pipeline.
fn e7(at: Scale) -> Vec<Row> {
    let mut net = home_with(1);
    let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
    let mut ui = Ui::new(128, 128, Theme::classic(), "native");
    let power = ui.add(Toggle::new("Power", false), Rect::new(10, 10, 60, 20));
    ui.render();
    let mut on = false;
    let native = at.median_us(51, || {
        for ev in InputEvent::click(40, 20) {
            ui.dispatch(ev);
        }
        for a in ui.take_actions() {
            if a.widget == power {
                on = !on;
                net.send(tuner, &FcmCommand::SetPower(on))
                    .expect("tuner answers");
            }
        }
        ui.render();
        ui.framebuffer_mut().take_damage()
    });

    let select = select();
    let (mut net, mut app, mut s) = standard_scene();
    let tel = s.telemetry().clone();
    s.proxy.attach_input(Box::new(KeypadPlugin::new()));
    let msgs = s.proxy.attach_output(Box::new(ScreenPlugin::phone_lcd()));
    s.deliver_to_server(app.ui_mut(), msgs);
    let mut round_trip = || {
        s.device_input(app.ui_mut(), &select);
        app.process(&mut net);
        s.pump(app.ui_mut());
        s.take_frame()
    };
    for _ in 0..4 {
        round_trip();
    }
    let counters: Vec<Row> = [
        "proxy.updates_applied",
        "proxy.rects_decoded",
        "proxy.frames_adapted",
        "proxy.events_translated",
        "server.inputs_injected",
    ]
    .into_iter()
    .map(|c| Row::new(c).count("after 4 presses", slug(c), tel.counter(c).get()))
    .collect();
    let universal = at.median_us(51, round_trip);

    let input_only = at.median_us(51, command(&INPUTS[2]).1);
    let mut rows = vec![
        Row::new("native per-device UI").us("median µs", native),
        Row::new("universal pipeline").us("median µs", universal),
        Row::new("universal (input only)").us("median µs", input_only),
        Row::new("overhead factor (universal / native)")
            .with("x", Metric::Ratio(universal / native.max(0.01))),
    ];
    rows.extend(counters);
    rows
}

/// E8: registry queries, command round-trips and hot-plug as the home
/// grows.
fn e8(at: Scale) -> Vec<Row> {
    at.pick(&[4usize, 64][..], &[4, 16, 64, 256])
        .iter()
        .map(|&n| {
            let mut net = home_with(n);
            let class = Query::new().class(FcmClass::Vcr);
            let compound = Query::new()
                .kind(ElementKind::Fcm)
                .zone("living-room")
                .name_contains("Amp");
            let row = Row::new(n.to_string())
                .count(
                    "elements",
                    format!("elements_{n}"),
                    net.registry().len() as u64,
                )
                .us(
                    "class query µs",
                    at.median_us(101, || net.registry().query(&class)),
                )
                .us(
                    "compound query µs",
                    at.median_us(101, || net.registry().query(&compound)),
                );
            let amp = net.find_fcms(&Query::new().class(FcmClass::Amplifier))[0];
            net.send(amp, &FcmCommand::SetPower(true))
                .expect("amp answers");
            let mut v = 0;
            let command = at.median_us(101, || {
                v = (v + 1) % 100;
                net.send(amp, &FcmCommand::SetVolume(v))
                    .expect("amp answers")
            });
            let hotplug = at.median_us(101, || {
                let light = LightFcm::new("Transient Light");
                let g = net.attach(DeviceSpec::new("Transient", "hall").with_fcm(light));
                net.detach(g)
            });
            row.us("command rtt µs", command).us("hot-plug µs", hotplug)
        })
        .collect()
}

/// A fault schedule, given the session's start time.
type Fault = (&'static str, fn(u64) -> FaultSchedule);

/// E9's faults; Quick runs `burst` and `flap2s`.
const FAULTS: [Fault; 4] = [
    ("clean", |_t0| FaultSchedule::new()),
    ("burst", |_t0| {
        FaultSchedule::new().burst_loss(0.05, 0.7, 0.8)
    }),
    ("flap2s", |t0| {
        FaultSchedule::new().flap(t0 + 50_000, t0 + 2_050_000)
    }),
    ("spike", |t0| {
        FaultSchedule::new().latency_spike(t0, t0 + 2_000_000, 200_000)
    }),
];

/// E9: keypad presses while the link misbehaves; the recovery counters
/// (802.11b, 2 faults × 4 presses at Quick; 3 links × 4 faults × 8
/// presses at Full).
fn e9(at: Scale) -> Vec<Row> {
    let wifi = [LinkProfile::wifi80211b()];
    let all = [
        wifi[0],
        LinkProfile::bluetooth(),
        LinkProfile::cellular_gprs(),
    ];
    let (links, faults, presses) =
        at.pick((&wifi[..], &FAULTS[1..3], 4), (&all[..], &FAULTS[..], 8));
    let select = select();
    let mut rows = Vec::new();
    for &link in links {
        for &(fault, schedule) in faults {
            let run = || {
                let mut scene = keypad_session(link);
                let s = &mut scene.2;
                let t0 = s.now_us();
                s.sim.set_link_faults(s.proxy_endpoint(), schedule(t0));
                press_n(presses, &select, &mut scene);
                (scene.2.now_us() - t0, scene.2.proxy.stats())
            };
            let (us, st) = run();
            rows.push(
                Row::new(format!("{} {fault}", link.name))
                    .with(
                        "virtual ms",
                        Metric::VirtualUs(format!("{fault}_virtual_us"), us),
                    )
                    .count("stalls", format!("{fault}_stalls"), st.stalls)
                    .count(
                        "backoffs",
                        format!("{fault}_backoff_attempts"),
                        st.backoff_attempts,
                    )
                    .count("resumes", format!("{fault}_resumes"), st.resumes)
                    .count(
                        "full resyncs",
                        format!("{fault}_full_resyncs"),
                        st.full_resyncs,
                    )
                    .count(
                        "retransmits",
                        format!("{fault}_retransmits"),
                        st.retransmits,
                    )
                    .us("sim µs", at.median_us(5, run)),
            );
        }
    }
    rows
}

/// E10: a quarantine → failover → probation → readmission cycle, an event
/// storm against flood protection, the supervising shim's per-event
/// overhead and an idle supervisor tick.
fn e10(at: Scale) -> Vec<Row> {
    let cycle = || {
        // A panicking preferred stylus is demoted, the keypad takes over,
        // probation expires and a clean streak readmits the PDA.
        let mut sup = Supervisor::new(7);
        let mut profile = UserProfile::neutral("u");
        profile.input_ranking = vec![InputModality::Stylus, InputModality::Keypad];
        let mut coord = Coordinator::new(profile, Situation::idle("living-room"));
        let mut proxy = UniIntProxy::new("bench");
        let schedule = (0..4).fold(DeviceFaultSchedule::new(), |s, i| s.panic_on_input(i));
        let (faulty, _h) = FaultyDevice::wrap(SimPda::interaction_device("pda-1"), schedule, 7);
        for dev in [
            sup.supervise(faulty),
            sup.supervise(SimPhone::interaction_device("phone-1")),
            sup.supervise(tv_interaction_device("tv-lr", "living-room")),
        ] {
            coord.register(dev, &mut proxy);
        }
        for _ in 0..4 {
            proxy.device_input(&DeviceEvent::StylusMove { x: 5, y: 5 });
        }
        let mut now = 1_000u64;
        sup.tick(now, &mut coord, &mut proxy);
        for _ in 0..12 {
            now += 200_000;
            for id in ["pda-1", "phone-1", "tv-lr"] {
                sup.heartbeat(id, now);
            }
            proxy.device_input(&DeviceEvent::StylusMove { x: 5, y: 5 });
            sup.tick(now, &mut coord, &mut proxy);
        }
        sup.stats()
    };
    let st = cycle();
    let quarantine = Row::new("quarantine cycle")
        .count("plugin panics", "plugin_panics", st.plugin_panics)
        .count("quarantines", "quarantines", st.quarantines)
        .count("failovers", "failovers", st.failovers)
        .count("readmissions", "readmissions", st.readmissions)
        .us("median µs", at.median_us(21, cycle));

    let storm = || {
        let (dev, _h) = FaultyDevice::wrap(
            SimPda::interaction_device("pda"),
            DeviceFaultSchedule::new().storm_on_input(0, 5000),
            7,
        );
        let mut proxy = UniIntProxy::new("bench");
        let mut coord = Coordinator::new(UserProfile::neutral("u"), Situation::idle("z"));
        coord.register(dev, &mut proxy);
        proxy.device_input(&DeviceEvent::StylusDown { x: 5, y: 5 });
        proxy.stats()
    };
    let st = storm();
    let storm = Row::new("event storm (5000 events)")
        .count("coalesced", "storm_events_coalesced", st.events_coalesced)
        .count("flood dropped", "storm_flood_dropped", st.flood_dropped)
        .us("median µs", at.median_us(11, storm));

    let ctx = InputContext {
        server_size: Size::new(320, 240),
        device_view: Size::new(240, 180),
    };
    let digit = DeviceEvent::KeypadDigit(5);
    let mut bare = KeypadPlugin::new();
    let bare = at.median_us(1001, || bare.translate(&digit, &ctx));
    let mut sup = Supervisor::new(1);
    let mut slot = None;
    let _phone = sup
        .supervise(SimPhone::interaction_device("phone-1"))
        .map_input_factory(|f| {
            slot = Some(f());
            f
        });
    let mut shimmed = slot.expect("phone has an input plug-in");
    let supervised = at.median_us(1001, || shimmed.translate(&digit, &ctx));

    let mut sup = Supervisor::new(2);
    let mut coord = Coordinator::new(UserProfile::neutral("u"), Situation::idle("living-room"));
    let mut proxy = UniIntProxy::new("bench");
    let mut ids = Vec::new();
    for d in standard_home("kitchen", "living-room") {
        ids.push(d.descriptor().id.clone());
        coord.register(sup.supervise(d), &mut proxy);
    }
    let mut now = 0u64;
    let tick = at.median_us(101, || {
        now += 100_000;
        for id in &ids {
            sup.heartbeat(id, now);
        }
        sup.tick(now, &mut coord, &mut proxy)
    });
    vec![
        quarantine,
        storm,
        Row::new("translate, bare keypad").us("median µs", bare),
        Row::new("translate, supervised keypad").us("median µs", supervised),
        Row::new(format!("idle tick, {} devices", ids.len())).us("median µs", tick),
    ]
}

/// E11: four socket clients converging on one panel through the TCP
/// gateway, plus one socket kill → reconnect → resume. Sockets run on the
/// wall clock, so only counters enter, and every click waits for the
/// fan-out before the next, so they cannot race.
fn e11(_at: Scale) -> Vec<Row> {
    const CLIENTS: usize = 4;

    fn pump_until(
        clients: &mut [GatewayClient],
        what: &str,
        mut cond: impl FnMut(&[GatewayClient]) -> bool,
    ) {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            for c in clients.iter_mut() {
                c.pump_once().expect("pump");
            }
            if cond(clients) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "e11 timed out waiting for {what}"
            );
        }
    }

    fn pump_quiescent(clients: &mut [GatewayClient]) {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut last_activity = Instant::now();
        while last_activity.elapsed() < Duration::from_millis(200) {
            for c in clients.iter_mut() {
                if c.pump_once().expect("pump") {
                    last_activity = Instant::now();
                }
            }
            assert!(Instant::now() < deadline, "e11 never quiesced");
        }
    }

    let click = || -> Vec<ClientMessage> {
        InputEvent::click(80, 34)
            .into_iter()
            .map(ClientMessage::Input)
            .collect()
    };
    let registry = Registry::new();
    let mut ui = Ui::new(160, 120, Theme::classic(), "e11-panel");
    ui.add(Toggle::new("Power", false), Rect::new(20, 20, 120, 28));
    let gw = Gateway::spawn(ui, GatewayConfig::default(), registry.clone()).expect("gateway binds");
    let mut clients: Vec<GatewayClient> = (0..CLIENTS)
        .map(|i| {
            GatewayClient::connect(gw.local_addr(), format!("bench-{i}"), i as u64)
                .expect("connect")
        })
        .collect();
    pump_quiescent(&mut clients);
    for i in 0..CLIENTS {
        let before: Vec<u64> = clients.iter().map(|c| c.stats().updates_applied).collect();
        clients[i].send_messages(click());
        pump_until(&mut clients, "click fan-out", |cs| {
            cs.iter()
                .zip(&before)
                .all(|(c, b)| c.stats().updates_applied > *b)
        });
    }
    pump_quiescent(&mut clients);

    // Damage from another client forces an update the killed socket's
    // client must pick up through reconnect + incremental resume.
    clients[1].send_messages(click());
    clients[0].kill_socket();
    pump_until(&mut clients, "victim resume", |cs| {
        cs[0].stats().resumes >= 1
    });
    pump_quiescent(&mut clients);

    let full_resyncs = clients.iter().map(|c| c.stats().full_resyncs).sum();
    let frames: Vec<_> = clients
        .iter()
        .map(|c| c.proxy.server_frame().expect("framebuffer").clone())
        .collect();
    let ui = gw.shutdown();
    let converged = frames.iter().all(|f| f == ui.framebuffer());
    let snap = registry.snapshot();
    let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0);
    vec![Row::new("clicks + kill/resume")
        .count("clients", "clients", CLIENTS as u64)
        .count(
            "inputs",
            "inputs_injected",
            counter("server.inputs_injected"),
        )
        .count("reconnects", "reconnects", counter("gateway.reconnects"))
        .count("resumes", "resumes", counter("gateway.resumes"))
        .count("full resyncs", "full_resyncs", full_resyncs)
        .count("converged", "converged", u64::from(converged))]
}

/// E12: replays the checked-in golden trace onto a PDA, and verifies that
/// a fresh server regenerates the recorded conversation byte for byte.
/// Any drift in decoding, reconstruction or server regeneration shows up
/// against the baseline; `record_golden` regenerates the golden when the
/// scenario itself changes.
fn e12(at: Scale) -> Vec<Row> {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/e12.trace");
    let reader = TraceReader::open(golden).expect("golden trace parses");
    let replay = || {
        Replayer::with_output(Box::new(ScreenPlugin::pda()))
            .replay(&reader)
            .expect("golden trace replays")
    };
    let verify = || Replayer::new().verify(&reader, &mut e12_panel()).is_err();
    let outcome = replay();
    let counter = |n: &str| outcome.snapshot.counters.get(n).copied().unwrap_or(0);
    vec![
        Row::new("replay to a PDA")
            .count("records", "records", outcome.records)
            .count("updates", "updates_applied", outcome.updates_applied)
            .count("rects", "rects_decoded", counter("proxy.rects_decoded"))
            .count("frames", "frames_adapted", counter("proxy.frames_adapted"))
            .count("payload B", "payload_bytes", outcome.payload_bytes)
            .with(
                "virtual ms",
                Metric::VirtualUs("virtual_elapsed_us".into(), outcome.virtual_elapsed_us),
            )
            .count(
                "digest",
                "final_digest",
                outcome.final_digest().unwrap_or(0),
            )
            .us("median µs", at.median_us(21, replay)),
        Row::new("verify on a fresh server")
            .count("diverged", "diverged", u64::from(verify()))
            .us("median µs", at.median_us(21, verify)),
    ]
}

/// The first slider of `ui`.
fn first_slider(ui: &Ui) -> uniint_wsys::prelude::WidgetId {
    ui.widget_ids()
        .into_iter()
        .find(|&id| ui.widget::<Slider>(id).is_some())
        .expect("panel has a slider")
}

/// Ablations of the design choices DESIGN.md calls out: content-based
/// encoding selection vs one pinned encoding, damage-driven updates vs a
/// full refresh per frame, region coalescing under sequential vs
/// scattered damage, dirty-widget vs full repaints, and changed-region
/// tracking on the device link.
fn ablations(at: Scale) -> Vec<Row> {
    // One interaction frame: move a slider, then run the server → proxy
    // update cycle, either damage-driven or as a full refresh.
    let slider_frames = |allowed: &[Encoding], full_refresh: bool| {
        let (_net, mut app, mut s) = standard_scene();
        s.deliver_to_server(
            app.ui_mut(),
            vec![ClientMessage::SetEncodings(allowed.to_vec())],
        );
        let slider = first_slider(app.ui());
        let bounds = app.ui().framebuffer().bounds();
        let mut v = 0;
        at.median_us(51, || {
            v = (v + 7) % 100;
            app.ui_mut()
                .widget_mut::<Slider>(slider)
                .expect("slider")
                .set_value(v);
            if full_refresh {
                let msgs = vec![ClientMessage::UpdateRequest {
                    incremental: false,
                    rect: bounds,
                }];
                s.deliver_to_server(app.ui_mut(), msgs);
            } else {
                s.pump(app.ui_mut());
            }
            s.take_frame()
        })
    };
    let mut rows = vec![
        Row::new("encoding: adaptive, damage-driven")
            .us("median µs", slider_frames(&Encoding::ALL, false)),
        Row::new("encoding: raw only").us("median µs", slider_frames(&[Encoding::Raw], false)),
        Row::new("encoding: hextile only")
            .us("median µs", slider_frames(&[Encoding::Hextile], false)),
        Row::new("encoding: palette-rle only")
            .us("median µs", slider_frames(&[Encoding::PaletteRle], false)),
        Row::new("damage: full refresh every frame")
            .us("median µs", slider_frames(&Encoding::ALL, true)),
    ];
    for n in [16usize, 128] {
        let coalesce = |rect: fn(usize) -> Rect| {
            at.median_us(101, || {
                let mut r = Region::new();
                for i in 0..n {
                    r.add(rect(i));
                }
                r.rect_count()
            })
        };
        let sequential = coalesce(|i| Rect::new(0, i as i32 * 4, 100, 4));
        let scattered =
            coalesce(|i| Rect::new((i * 37 % 500) as i32, (i * 91 % 400) as i32, 12, 9));
        rows.push(Row::new(format!("region: {n} sequential rows")).us("median µs", sequential));
        rows.push(Row::new(format!("region: {n} scattered rects")).us("median µs", scattered));
    }
    // Slider steps on a 320x240 panel, repainted three ways.
    let slider_steps = |paint: fn(&mut Ui, &mut ScreenPlugin)| {
        let mut ui = panel_ui(Size::new(320, 240));
        let slider = first_slider(&ui);
        let mut pda = ScreenPlugin::pda();
        let mut v = 0;
        at.median_us(51, || {
            v = (v + 3) % 100;
            ui.widget_mut::<Slider>(slider)
                .expect("slider")
                .set_value(v);
            paint(&mut ui, &mut pda);
            ui.framebuffer_mut().take_damage().area()
        })
    };
    let dirty = slider_steps(|ui, _| {
        ui.render();
    });
    let full = slider_steps(|ui, _| {
        let size = ui.size();
        ui.framebuffer_mut()
            .add_damage(Rect::new(0, 0, size.w, size.h));
        ui.render();
    });
    let adapt = slider_steps(|ui, pda| {
        ui.render();
        std::hint::black_box(pda.adapt(ui.framebuffer()).delta_bytes());
    });
    rows.push(Row::new("render: dirty widgets").us("median µs", dirty));
    rows.push(Row::new("render: full repaint").us("median µs", full));
    rows.push(Row::new("device link: render + adapt with delta tracking").us("median µs", adapt));
    rows
}
