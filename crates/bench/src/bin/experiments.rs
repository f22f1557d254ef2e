//! Prints the paper-facing experiment tables (E1–E9) to stdout.
//!
//! Run with `cargo run -p uniint-bench --bin experiments --release`.
//! Wall-clock micro-costs are measured inline (median of repeated runs);
//! network numbers use the deterministic simulator's virtual clock, so
//! they are exactly reproducible.

use std::time::Instant;
use uniint_apps::prelude::*;
use uniint_bench::{home_with, power_center, standard_scene, DamagePattern, E2_SIZES};
use uniint_core::prelude::*;
use uniint_devices::prelude::*;
use uniint_havi::prelude::*;
use uniint_netsim::prelude::LinkProfile;
use uniint_protocol::encoding::{encode_rect, Encoding};
use uniint_raster::prelude::*;
use uniint_wsys::prelude::Theme;

/// Median wall time of `f` over `n` runs, in microseconds.
fn median_us(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn e1() {
    println!("\n== E1: end-to-end input latency per device (one command) ==");
    println!("{:<22} {:>12}", "device", "median µs");
    let run = |name: &str, mut step: Box<dyn FnMut()>| {
        let us = median_us(51, &mut *step);
        println!("{name:<22} {us:>12.1}");
    };
    {
        let (mut net, mut app, mut session) = standard_scene();
        session.proxy.attach_input(Box::new(RemotePlugin::new()));
        run(
            "remote (Ok)",
            Box::new(move || {
                session.device_input(app.ui_mut(), &SimRemote::press(RemoteKey::Ok));
                app.process(&mut net);
            }),
        );
    }
    {
        let (mut net, mut app, mut session) = standard_scene();
        session.proxy.attach_input(Box::new(StylusPlugin::new()));
        let (x, y) = power_center(&app);
        run(
            "pda stylus (tap)",
            Box::new(move || {
                for ev in SimPda::tap(x, y) {
                    session.device_input(app.ui_mut(), &ev);
                }
                app.process(&mut net);
            }),
        );
    }
    {
        let (mut net, mut app, mut session) = standard_scene();
        session.proxy.attach_input(Box::new(KeypadPlugin::new()));
        run(
            "phone keypad (5)",
            Box::new(move || {
                session.device_input(app.ui_mut(), &SimPhone::press('5').unwrap());
                app.process(&mut net);
            }),
        );
    }
    {
        let (mut net, mut app, mut session) = standard_scene();
        session.proxy.attach_input(Box::new(VoicePlugin::new()));
        run(
            "voice (\"select\")",
            Box::new(move || {
                session.device_input(app.ui_mut(), &DeviceEvent::Voice("select".into()));
                app.process(&mut net);
            }),
        );
    }
    {
        let (mut net, mut app, mut session) = standard_scene();
        session.proxy.attach_input(Box::new(GesturePlugin::new()));
        run(
            "gesture (fist)",
            Box::new(move || {
                session.device_input(app.ui_mut(), &DeviceEvent::Gesture(Gesture::Fist));
                app.process(&mut net);
            }),
        );
    }
}

fn e2() {
    println!("\n== E2: bytes per update, by encoding × damage pattern × screen ==");
    println!(
        "{:<10} {:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "screen", "pattern", "pixels", "raw", "rre", "hextile", "rle", "prle"
    );
    for size in E2_SIZES {
        for pattern in DamagePattern::ALL {
            let (rect, px) = pattern.generate(size);
            let len = |e| encode_rect(&px, rect, e, PixelFormat::Rgb888).len();
            println!(
                "{:<10} {:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                size.to_string(),
                pattern.name(),
                rect.area(),
                len(Encoding::Raw),
                len(Encoding::Rre),
                len(Encoding::Hextile),
                len(Encoding::Rle),
                len(Encoding::PaletteRle),
            );
        }
    }
}

fn e3() {
    println!("\n== E3: output adaptation cost per device (640x480 source) ==");
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>18}",
        "device", "full µs", "incr µs", "full bytes", "drag delta bytes"
    );
    let ui = uniint_bench::panel_ui(Size::new(640, 480));
    let frame = ui.framebuffer().clone();
    // The same frame with a slider-band-sized change, for delta sizing
    // and for timing an incremental adapt.
    let mut dragged = frame.clone();
    dragged.fill_rect(Rect::new(8, 240, 600, 16), Color::DARK_GRAY);
    let devices: [fn() -> Box<dyn uniint_core::plugin::OutputPlugin>; 5] = [
        || Box::new(ScreenPlugin::tv()),
        || Box::new(ScreenPlugin::pda()),
        || Box::new(ScreenPlugin::phone_lcd()),
        || Box::new(ScreenPlugin::eyepiece()),
        || Box::new(TerminalPlugin::standard()),
    ];
    for device in devices {
        // Full: a fresh plug-in each time, so nothing is kept from the
        // previous call.
        let mut bytes = 0usize;
        let full = median_us(21, || {
            bytes = device().adapt(&frame).wire_bytes;
        });
        // Incremental: one plug-in fed the frame and the dragged frame
        // alternately, so every call redraws the slider band.
        let mut plugin = device();
        plugin.adapt(&frame);
        let delta = plugin.adapt(&dragged).delta_bytes();
        let mut flip = false;
        let incr = median_us(21, || {
            flip = !flip;
            plugin.adapt(if flip { &frame } else { &dragged });
        });
        println!(
            "{:<18} {full:>12.1} {incr:>12.1} {bytes:>12} {delta:>18}",
            plugin.kind()
        );
    }
}

fn e4() {
    println!("\n== E4: dynamic switching latency ==");
    println!("{:<34} {:>12}", "switch", "median µs");
    {
        let (_net, _app, mut session) = standard_scene();
        let us = median_us(101, || {
            session.proxy.attach_input(Box::new(VoicePlugin::new()));
            session.proxy.attach_input(Box::new(KeypadPlugin::new()));
        });
        println!("{:<34} {:>12.1}", "input plug-in swap (x2)", us);
    }
    {
        let (_net, mut app, mut session) = standard_scene();
        let mut flip = false;
        let us = median_us(21, || {
            flip = !flip;
            let msgs = if flip {
                session.proxy.attach_output(Box::new(ScreenPlugin::pda()))
            } else {
                session.proxy.attach_output(Box::new(ScreenPlugin::tv()))
            };
            session.deliver_to_server(app.ui_mut(), msgs);
            session.take_frame();
        });
        println!("{:<34} {:>12.1}", "output switch to first frame", us);
    }
    {
        let (_net, mut app, mut session) = standard_scene();
        let mut coord = Coordinator::new(UserProfile::neutral("u"), Situation::idle("hall"));
        for d in standard_home("kitchen", "living-room") {
            let r = coord.register(d, &mut session.proxy);
            session.deliver_to_server(app.ui_mut(), r.messages);
        }
        let mut flip = false;
        let us = median_us(21, || {
            flip = !flip;
            let sit = if flip {
                Situation {
                    zone: "kitchen".into(),
                    activity: Activity::Cooking,
                    hands_busy: true,
                    noise: Noise::Moderate,
                }
            } else {
                Situation {
                    zone: "living-room".into(),
                    activity: Activity::WatchingTv,
                    hands_busy: false,
                    noise: Noise::Moderate,
                }
            };
            let r = coord.set_situation(sit, &mut session.proxy);
            session.deliver_to_server(app.ui_mut(), r.messages);
            session.take_frame();
        });
        println!("{:<34} {:>12.1}", "situation change (full reselect)", us);
    }
}

fn e5() {
    println!("\n== E5: panel composition vs appliance count ==");
    println!(
        "{:<12} {:>10} {:>12} {:>14}",
        "appliances", "sections", "median µs", "panel height"
    );
    for n in [1usize, 2, 4, 8, 16] {
        let mut net = home_with(n);
        let mut sections = 0;
        let mut height = 0;
        let us = median_us(11, || {
            let app = ControlPanelApp::new(&mut net, None, Theme::classic());
            sections = app.section_count();
            height = app.ui().size().h;
        });
        println!("{n:<12} {sections:>10} {us:>12.1} {height:>14}");
    }
}

fn e6() {
    println!("\n== E6: interactive rate over home links (virtual time) ==");
    println!(
        "{:<16} {:>14} {:>10} {:>12} {:>12}",
        "link", "drag 20 steps", "frames", "frames/s", "wire bytes"
    );
    for link in LinkProfile::presets() {
        let mut net = home_with(3);
        let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
        let mut s = SimSession::connect(app.ui_mut(), link, 7).expect("connect");
        s.proxy.attach_input(Box::new(KeypadPlugin::new()));
        let msgs = s.proxy.attach_output(Box::new(ScreenPlugin::phone_lcd()));
        s.send_client(app.ui_mut(), msgs).unwrap();
        let t0 = s.now_us();
        let f0 = s.frames_delivered();
        for _ in 0..4 {
            s.device_input(app.ui_mut(), &SimPhone::press('8').unwrap())
                .unwrap();
            app.process(&mut net);
            s.settle(app.ui_mut()).unwrap();
        }
        for _ in 0..20 {
            s.device_input(app.ui_mut(), &SimPhone::press('6').unwrap())
                .unwrap();
            app.process(&mut net);
            s.settle(app.ui_mut()).unwrap();
        }
        let dt_us = s.now_us() - t0;
        let frames = s.frames_delivered() - f0;
        println!(
            "{:<16} {:>12.1}ms {:>10} {:>12.2} {:>12}",
            link.name,
            dt_us as f64 / 1000.0,
            frames,
            frames as f64 / (dt_us as f64 / 1e6),
            s.server_wire_bytes(),
        );
    }
}

fn e7() {
    println!("\n== E7: universal interaction vs native per-device UI ==");
    println!("{:<28} {:>12}", "path", "median µs");
    let native_us = {
        let mut net = home_with(1);
        let tuner = net.find_fcms(&Query::new().class(FcmClass::Tuner))[0];
        let mut ui = uniint_wsys::prelude::Ui::new(128, 128, Theme::classic(), "native");
        let power = ui.add(
            uniint_wsys::prelude::Toggle::new("Power", false),
            Rect::new(10, 10, 60, 20),
        );
        ui.render();
        let mut on = false;
        median_us(51, || {
            for ev in uniint_protocol::input::InputEvent::click(40, 20) {
                ui.dispatch(ev);
            }
            for a in ui.take_actions() {
                if a.widget == power {
                    on = !on;
                    net.send(tuner, &FcmCommand::SetPower(on)).unwrap();
                }
            }
            ui.render();
            ui.framebuffer_mut().take_damage();
        })
    };
    println!("{:<28} {native_us:>12.1}", "native per-device UI");
    let universal_us = {
        let (mut net, mut app, mut session) = standard_scene();
        session.proxy.attach_input(Box::new(KeypadPlugin::new()));
        let msgs = session
            .proxy
            .attach_output(Box::new(ScreenPlugin::phone_lcd()));
        session.deliver_to_server(app.ui_mut(), msgs);
        let ev = SimPhone::press('5').unwrap();
        median_us(51, || {
            session.device_input(app.ui_mut(), &ev);
            app.process(&mut net);
            session.pump(app.ui_mut());
            session.take_frame();
        })
    };
    println!("{:<28} {universal_us:>12.1}", "universal pipeline");
    let input_only_us = {
        let (mut net, mut app, mut session) = standard_scene();
        session.proxy.attach_input(Box::new(KeypadPlugin::new()));
        let ev = SimPhone::press('5').unwrap();
        median_us(51, || {
            session.device_input(app.ui_mut(), &ev);
            app.process(&mut net);
        })
    };
    println!("{:<28} {input_only_us:>12.1}", "universal (input only)");
    println!(
        "overhead factor: {:.1}x (cost of device-independence)",
        universal_us / native_us.max(0.01)
    );
}

fn e8() {
    println!("\n== E8: HAVi substrate scaling ==");
    println!(
        "{:<12} {:>10} {:>16} {:>18}",
        "appliances", "elements", "query µs", "command rtt µs"
    );
    for n in [4usize, 16, 64, 256] {
        let mut net = home_with(n);
        let elements = net.registry().len();
        let q = Query::new().class(FcmClass::Vcr);
        let query_us = median_us(101, || {
            let _ = net.registry().query(&q);
        });
        let amp = net.find_fcms(&Query::new().class(FcmClass::Amplifier))[0];
        net.send(amp, &FcmCommand::SetPower(true)).unwrap();
        let mut v = 0;
        let cmd_us = median_us(101, || {
            v = (v + 1) % 100;
            net.send(amp, &FcmCommand::SetVolume(v)).unwrap();
        });
        println!("{n:<12} {elements:>10} {query_us:>16.2} {cmd_us:>18.2}");
    }
}

fn e9() {
    use uniint_netsim::prelude::FaultSchedule;

    println!("\n== E9: session recovery under scheduled link faults ==");
    println!(
        "{:<14} {:<12} {:>12} {:>8} {:>9} {:>8} {:>12} {:>12}",
        "link",
        "fault",
        "virtual ms",
        "stalls",
        "backoffs",
        "resumes",
        "full resyncs",
        "retransmits"
    );
    type Fault = (&'static str, fn(u64) -> FaultSchedule);
    let faults: [Fault; 4] = [
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
    for link in [
        LinkProfile::wifi80211b(),
        LinkProfile::bluetooth(),
        LinkProfile::cellular_gprs(),
    ] {
        for (fault, schedule) in faults {
            let mut net = home_with(3);
            let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
            let mut s = SimSession::connect(app.ui_mut(), link, 7).expect("connect");
            s.proxy.attach_input(Box::new(KeypadPlugin::new()));
            let t0 = s.now_us();
            s.sim.set_link_faults(s.proxy_endpoint(), schedule(t0));
            for _ in 0..8 {
                s.device_input(app.ui_mut(), &SimPhone::press('5').unwrap())
                    .unwrap();
                app.process(&mut net);
                s.settle(app.ui_mut()).unwrap();
            }
            let st = s.proxy.stats();
            println!(
                "{:<14} {:<12} {:>12.1} {:>8} {:>9} {:>8} {:>12} {:>12}",
                link.name,
                fault,
                (s.now_us() - t0) as f64 / 1000.0,
                st.stalls,
                st.backoff_attempts,
                st.resumes,
                st.full_resyncs,
                st.retransmits
            );
        }
    }
}

fn main() {
    println!("Universal Interaction with Networked Home Appliances (ICDCS 2002)");
    println!("Experiment report — see EXPERIMENTS.md for interpretation.");
    e1();
    e2();
    e3();
    e4();
    e5();
    e6();
    e7();
    e8();
    e9();
}
