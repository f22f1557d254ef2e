//! `gateway_tcp`: real TCP over loopback with the smallest updates.
//! `Gateway::spawn` serves a grid of 20×16 toggles to two
//! `GatewayClient`s (no plug-ins) driven from the benchmark's thread.
//! Clicks alternate between the clients; the interaction ends when both
//! show the new panel state. At this update size framing, the
//! per-connection reader/writer threads, `OutQueue` and the state
//! thread's hand-offs dominate.
//!
//! The expected panel comes from a local replica of the served panel
//! that receives the same clicks. The traced run also replays the click
//! script in-process through a two-viewer `MultiServer` ([`InProcess`]);
//! the difference of the two medians is `gateway.hop_us`.

use std::time::{Duration, Instant};

use uniint_gateway::prelude::{Gateway, GatewayClient, GatewayConfig};
use uniint_protocol::input::InputEvent;
use uniint_protocol::message::ClientMessage;
use uniint_raster::geom::Rect;
use uniint_telemetry::registry::{Counter, Registry};
use uniint_wsys::prelude::{Theme, Toggle, Ui};

use crate::fanout::{Click, InProcess, Scene, Target};
use crate::measure::Rng;
use crate::report::{Config, Report, Sums};
use crate::rig::bogus_update;
use crate::trace::{self, span};
use crate::{add_traced, run_segment, run_traced, run_untraced, Moved, Run, Workload};

/// Nominal interactions per second (sets the fixed count).
const RATE: f64 = 3_000.0;
/// Clients connected to the gateway.
const CLIENTS: usize = 2;
/// Longest an interaction or the initial update may take.
const TIMEOUT: Duration = Duration::from_secs(5);

/// The gateway's scene: a 128×96 panel, a 5×5 grid of 20×16 toggles,
/// watched by two viewers that take turns clicking a seeded toggle.
pub struct Toggles;

impl Scene for Toggles {
    const VIEWERS: usize = CLIENTS;
    const SEGMENTS: usize = 30;

    fn panel() -> (Ui, Vec<Target>) {
        let mut ui = Ui::new(128, 96, Theme::classic(), "gateway-panel");
        let mut toggles = Vec::new();
        for row in 0..5 {
            for col in 0..5 {
                let rect = Rect::new(4 + 24 * col, 4 + 18 * row, 20, 16);
                ui.add(
                    Toggle::new(format!("{}", (row * 5 + col) % 10), (row + col) % 2 == 0),
                    rect,
                );
                toggles.push(Target {
                    rect,
                    slider: false,
                });
            }
        }
        ui.render();
        (ui, toggles)
    }

    fn script(seed: u64, segment: usize, len: usize, targets: &[Target]) -> Vec<Click> {
        let mut rng = Rng::new(seed, 0x7c900 + segment as u64);
        (0..len)
            .map(|i| {
                let c = rng.pick(targets).rect.center();
                Click {
                    viewer: i % CLIENTS,
                    x: c.x as u16,
                    y: c.y as u16,
                }
            })
            .collect()
    }
}

/// Gateway counters read per interaction.
struct Counters {
    frames_in: Counter,
    bytes_out: Counter,
    write_coalesced: Counter,
    dropped_connections: Counter,
    decode_errors: Counter,
}

impl Counters {
    fn new(r: &Registry) -> Counters {
        Counters {
            frames_in: r.counter("gateway.frames_in"),
            bytes_out: r.counter("gateway.bytes_out"),
            write_coalesced: r.counter("gateway.write_coalesced"),
            dropped_connections: r.counter("gateway.dropped_connections"),
            decode_errors: r.counter("gateway.decode_errors"),
        }
    }

    fn read(&self) -> [u64; 5] {
        [
            self.frames_in.get(),
            self.bytes_out.get(),
            self.write_coalesced.get(),
            self.dropped_connections.get(),
            self.decode_errors.get(),
        ]
    }
}

/// The running gateway, its two clients and the expected panel.
pub struct GatewayTcp {
    gw: Option<Gateway>,
    clients: Vec<GatewayClient>,
    model: Ui,
    script: Vec<Click>,
    counters: Counters,
    last: [u64; 5],
    next: Vec<ClientMessage>,
    sender: usize,
    expected: Vec<Rect>,
}

impl Drop for GatewayTcp {
    fn drop(&mut self) {
        if let Some(gw) = self.gw.take() {
            gw.shutdown();
        }
    }
}

/// Whether `c` shows the model's pixels inside `rects`.
fn shows(c: &GatewayClient, model: &Ui, rects: &[Rect]) -> bool {
    let Some(fb) = c.proxy.server_frame() else {
        return false;
    };
    rects
        .iter()
        .all(|&r| fb.read_rect(r).1 == model.framebuffer().read_rect(r).1)
}

impl Workload for GatewayTcp {
    const SEGMENTS: usize = Toggles::SEGMENTS;

    fn setup(
        cfg: &Config,
        _traced: bool,
        segment: usize,
        len: usize,
    ) -> Result<GatewayTcp, String> {
        let (served, _) = Toggles::panel();
        let (model, toggles) = Toggles::panel();
        let registry = Registry::new();
        let gw = Gateway::spawn(served, GatewayConfig::default(), registry.clone())
            .map_err(|e| format!("gateway spawn: {e}"))?;
        let counters = Counters::new(&registry);
        let mut w = GatewayTcp {
            clients: Vec::new(),
            model,
            script: Vec::new(),
            last: counters.read(),
            counters,
            next: Vec::new(),
            sender: 0,
            expected: Vec::new(),
            gw: Some(gw),
        };
        let addr = w.gw.as_ref().expect("just spawned").local_addr();
        for i in 0..CLIENTS {
            let c = GatewayClient::connect(addr, format!("tcp-{i}"), cfg.seed)
                .map_err(|e| format!("client {i} connect: {e}"))?;
            w.clients.push(c);
        }
        let whole = [w.model.framebuffer().bounds()];
        let deadline = Instant::now() + TIMEOUT;
        for (i, c) in w.clients.iter_mut().enumerate() {
            while !shows(c, &w.model, &whole) {
                c.pump_once().map_err(|e| format!("client {i}: {e}"))?;
                if Instant::now() > deadline {
                    return Err(format!("client {i} never received the full panel"));
                }
            }
        }
        w.script = Toggles::script(cfg.seed, segment, len, &toggles);
        w.last = w.counters.read();
        Ok(w)
    }

    fn prepare(&mut self, i: usize) {
        let c = self.script[i];
        self.sender = c.viewer;
        self.next = c.messages();
        for ev in InputEvent::click(c.x, c.y) {
            self.model.dispatch(ev);
        }
        self.model.render();
        self.expected = self.model.framebuffer_mut().take_damage().rects().to_vec();
    }

    fn interact(&mut self) -> Result<(), String> {
        let msgs = std::mem::take(&mut self.next);
        let sender = &mut self.clients[self.sender];
        span("gateway.client_send", || sender.send_messages(msgs));
        let deadline = Instant::now() + TIMEOUT;
        let mut waiting = [true; CLIENTS];
        while waiting.contains(&true) {
            for (k, c) in self.clients.iter_mut().enumerate() {
                if !waiting[k] {
                    continue;
                }
                // Only clients still waiting are pumped: an idle pump
                // blocks for the client's whole poll interval.
                let token = trace::begin("gateway.client_recv");
                let pumped = c.pump_once();
                let processed = matches!(pumped, Ok(true));
                trace::end(token, processed);
                pumped.map_err(|e| format!("client {k}: {e}"))?;
                if processed && shows(c, &self.model, &self.expected) {
                    waiting[k] = false;
                }
            }
            if Instant::now() > deadline {
                return Err("timed out waiting for the panel update".into());
            }
        }
        Ok(())
    }

    fn after(&mut self, timed: bool, traced: bool, sums: &mut Sums) -> Result<Moved, String> {
        let now = self.counters.read();
        let delta: Vec<u64> = now.iter().zip(self.last).map(|(a, b)| a - b).collect();
        self.last = now;
        if traced && timed {
            for (name, d) in [
                "gateway.frames_in",
                "gateway.bytes_out",
                "gateway.write_coalesced",
                "gateway.dropped_connections",
                "gateway.decode_errors",
            ]
            .into_iter()
            .zip(&delta)
            {
                sums.add(name, *d as f64);
            }
        }
        let (dropped, decode_errors) = (delta[3], delta[4]);
        if dropped + decode_errors > 0 {
            return Err(format!(
                "gateway dropped {dropped} connection(s), {decode_errors} decode error(s)"
            ));
        }
        for (k, c) in self.clients.iter().enumerate() {
            if c.proxy.server_frame() != Some(self.model.framebuffer()) {
                return Err(format!("client {k} does not show the panel"));
            }
        }
        Ok(Moved {
            wire: delta[1],
            device: 0,
        })
    }

    fn corrupt(&mut self) {
        let proxy = &mut self.clients[0].proxy;
        let bogus = bogus_update(proxy);
        // The request the proxy answers with is not sent: one is already
        // pending at the gateway.
        let _ = proxy.handle_server(&bogus);
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let n = cfg.interactions(RATE, 1_100);
    if !cfg.trace {
        return run_untraced::<GatewayTcp>(cfg, n);
    }
    let mut local = Run::default();
    let per = n.div_ceil(Toggles::SEGMENTS);
    let (mut report, traced) = run_traced::<GatewayTcp>(cfg, n, |segment| {
        run_segment::<InProcess<Toggles>>(cfg, segment, per, false, &mut local)
    })?;
    report.absorb(&local.phase);
    add_traced(&mut report, traced, CLIENTS);
    let tcp = report.phase.p50();
    let hop = tcp - local.phase.p50();
    let share = hop / tcp.max(f64::MIN_POSITIVE);
    report.layers.insert("gateway.hop_us", hop);
    report.layers.insert("trace.target_share", share);
    report.notes.push(format!(
        "gateway_tcp loads the gateway: p50 {tcp:.1} us over TCP vs {:.1} us in-process; \
         the hop is {:.1}% of the interaction",
        local.phase.p50(),
        100.0 * share
    ));
    Ok(report)
}
