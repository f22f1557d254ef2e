//! End-to-end sessions wiring application window, UniInt server and
//! UniInt proxy together — in memory ([`LocalSession`]) or across the
//! network simulator ([`SimSession`]). Both run the server side on a
//! [`SessionHost`], as the gateway does, so a recomposed panel reaches
//! every viewer the same way: the host's pump announces the new size.
//! In memory, messages cross as values between the host and any number
//! of proxies. Across the simulator the two sides only move bytes:
//! [`crate::resume::ResumeMachine`] drives the proxy side, as it does in
//! the gateway's client.
//! Both drain each proxy's outbox before they move anything, so after a
//! device switch, a supervisor tick or a recovery the caller only pumps
//! or settles.

use crate::host::{ConnId, Output, SessionHost};
use crate::multi::MultiServer;
use crate::plugin::{DeviceEvent, DeviceFrame};
use crate::proxy::UniIntProxy;
use crate::resume::{BackoffPolicy, ResumeMachine, SessionError};
use crate::tap::{Direction, SharedTap};
use uniint_netsim::link::LinkProfile;
use uniint_netsim::sim::{Endpoint, Simulator};
use uniint_protocol::message::{
    encode_client, encode_server, ClientMessage, FrameReader, ServerMessage,
};
use uniint_telemetry::registry::Registry;
use uniint_wsys::ui::Ui;

/// A complete session with a zero-latency in-process "wire".
///
/// The appliance application owns the [`Ui`]; the session owns a
/// [`SessionHost`] and the proxies of its viewers, each on its own host
/// connection, and hands messages across as values until quiescence
/// after every stimulus. Viewer 0 is [`proxy`](Self::proxy), which every
/// method without a viewer argument speaks for; [`join`](Self::join)
/// adds more. This is the workhorse of tests, examples and benchmarks.
///
/// The host runs with no clock (at time 0) and keeps a detached session
/// forever, so nothing ever expires. Viewer names must be distinct: the
/// host holds a `Hello` for a name it already knows until a `Resume` or
/// its grace tells a reconnect from a new client, and this session's
/// clock never moves, so such a viewer would never be answered.
#[derive(Debug)]
pub struct LocalSession {
    host: SessionHost,
    /// The UniInt proxy endpoint of viewer 0.
    pub proxy: UniIntProxy,
    /// The proxies of viewers 1, 2, …, in the order they joined.
    joined: Vec<UniIntProxy>,
    /// Each viewer's host connection, by viewer.
    conns: Vec<ConnId>,
    last_frame: Option<DeviceFrame>,
    bells: u32,
}

impl LocalSession {
    /// Connects a new session against `ui` (handshake completes before
    /// returning). Server and proxy share one telemetry [`Registry`].
    pub fn connect(ui: &mut Ui) -> LocalSession {
        let registry = Registry::new();
        let multi = MultiServer::with_telemetry(registry.clone());
        // As in `SimSession`, the host's `gateway.*` counters stay out of
        // the session's registry.
        let mut s = LocalSession {
            host: SessionHost::new(multi, &Registry::new(), u64::MAX),
            proxy: UniIntProxy::with_telemetry("local-proxy", registry),
            joined: Vec::new(),
            conns: Vec::new(),
            last_frame: None,
            bells: 0,
        };
        s.open(ui);
        s
    }

    /// Joins another viewer, a proxy named `name`, on its own host
    /// connection (handshake completes before returning), and returns its
    /// viewer number for [`viewer`](Self::viewer) and
    /// [`send_as`](Self::send_as).
    pub fn join(&mut self, ui: &mut Ui, name: &str) -> usize {
        self.joined.push(UniIntProxy::new(name));
        self.open(ui)
    }

    /// The proxy of `viewer` (0 is [`proxy`](Self::proxy)).
    pub fn viewer(&self, viewer: usize) -> &UniIntProxy {
        match viewer {
            0 => &self.proxy,
            v => &self.joined[v - 1],
        }
    }

    /// The proxy of `viewer`, mutably.
    pub fn viewer_mut(&mut self, viewer: usize) -> &mut UniIntProxy {
        match viewer {
            0 => &mut self.proxy,
            v => &mut self.joined[v - 1],
        }
    }

    /// The UniInt server all viewers share.
    pub fn server(&self) -> &MultiServer {
        self.host.multi()
    }

    /// The telemetry registry shared by this session's server and proxy.
    pub fn telemetry(&self) -> &Registry {
        self.proxy.telemetry()
    }

    /// The most recent frame adapted for the output device.
    pub fn last_frame(&self) -> Option<&DeviceFrame> {
        self.last_frame.as_ref()
    }

    /// Takes the most recent adapted frame.
    pub fn take_frame(&mut self) -> Option<DeviceFrame> {
        self.last_frame.take()
    }

    /// Bell count so far.
    pub fn bells(&self) -> u32 {
        self.bells
    }

    /// Feeds a device-native input event through the proxy to the server
    /// and pumps until quiescent. Widget actions land in `ui`.
    pub fn device_input(&mut self, ui: &mut Ui, ev: &DeviceEvent) {
        let msgs = self.proxy.device_input(ev);
        self.send_as(ui, 0, msgs);
        self.pump(ui);
    }

    /// Sends what every proxy queued, renders pending UI changes and
    /// flushes updates to the proxies, announcing a new window size first
    /// if the panel was recomposed. Call after a device switch, or after
    /// the application mutates widgets programmatically.
    pub fn pump(&mut self, ui: &mut Ui) {
        self.send_as(ui, 0, Vec::new());
    }

    /// Delivers every proxy's outbox, then client messages from `viewer`,
    /// to the server and pumps replies back: the pump answers any update
    /// request among them, and flushes the repaints their input caused.
    pub fn send_as(&mut self, ui: &mut Ui, viewer: usize, msgs: Vec<ClientMessage>) {
        let mut inbound: Vec<_> = (0..self.conns.len())
            .map(|v| (v, self.viewer_mut(v).take_outbox()))
            .collect();
        inbound[viewer].1.extend(msgs);
        self.exchange(ui, inbound);
    }

    /// Opens a host connection for the newest viewer and completes its
    /// handshake; returns the viewer.
    fn open(&mut self, ui: &mut Ui) -> usize {
        let viewer = self.conns.len();
        self.conns.push(self.host.open());
        let hello = self.viewer_mut(viewer).connect();
        self.send_as(ui, viewer, hello);
        viewer
    }

    /// Hands each viewer's messages to the host, ticks it, and hands what
    /// it sends to the proxies; repeats with the proxies' answers until
    /// none is left.
    fn exchange(&mut self, ui: &mut Ui, mut inbound: Vec<(usize, Vec<ClientMessage>)>) {
        loop {
            let mut out = Vec::new();
            for (viewer, msgs) in inbound {
                for m in msgs {
                    out.extend(self.host.receive(ui, self.conns[viewer], m, 0));
                }
            }
            out.extend(self.host.tick(ui, 0));
            inbound = Vec::new();
            for o in out {
                // The host closes no connection here: each viewer says
                // `Hello` first, under a name of its own.
                let Output::Send(conn, msgs) = o else {
                    continue;
                };
                let viewer = self.conns.iter().position(|&c| c == conn);
                let viewer = viewer.expect("the host sends only on its open connections");
                let answers = self.deliver_to_proxy(viewer, msgs);
                if !answers.is_empty() {
                    inbound.push((viewer, answers));
                }
            }
            if inbound.is_empty() {
                return;
            }
        }
    }

    /// Hands server messages to `viewer`'s proxy; returns its answers.
    /// Viewer 0's frames and bells are kept.
    fn deliver_to_proxy(&mut self, viewer: usize, msgs: Vec<ServerMessage>) -> Vec<ClientMessage> {
        let mut answers = Vec::new();
        for m in msgs {
            let out = self
                .viewer_mut(viewer)
                .handle_server(&m)
                .expect("local wire never corrupts messages");
            if viewer == 0 {
                if let Some(f) = out.frame {
                    self.last_frame = Some(f);
                }
                self.bells += u32::from(out.bell);
            }
            answers.extend(out.messages);
        }
        answers
    }
}

/// The simulator's reconnect schedule: 20 ms doubling to 1 s, 16 tries.
const BACKOFF: BackoffPolicy = BackoffPolicy {
    base_us: 20_000,
    cap_us: 1_000_000,
    max_attempts: 16,
};

/// A session whose server↔proxy wire crosses the discrete-event network
/// simulator, with full protocol serialization. Used to measure update
/// rates over realistic home links (wired/WLAN/Bluetooth/cellular).
///
/// The server side is a [`SessionHost`] on the simulator's virtual
/// clock, with one host connection per simulated connection, as the
/// gateway has one per socket. The proxy side is a [`ResumeMachine`].
///
/// The session is **self-healing**: hard link faults (flap windows,
/// Gilbert–Elliott burst drops) tear the simulated connection down, and
/// [`SimSession::settle`] detects the stall (network idle while the link
/// is down, or after the host closed the connection), closes the host
/// connection and steps the machine's backoff: it advances the virtual
/// clock by each delay the machine returns and reconnects the simulated
/// link. A new host connection then takes the machine's
/// `Hello` and `Resume`, and the host adopts the session by name. The
/// machine resends what the server reports missing when the ack arrives.
/// All recovery activity is visible in [`crate::proxy::ProxyStats`].
#[derive(Debug)]
pub struct SimSession {
    /// The UniInt server side.
    host: SessionHost,
    /// The host connection the proxy speaks on; `None` once it closed,
    /// until the next reconnect opens another.
    conn: Option<ConnId>,
    /// The UniInt proxy endpoint.
    pub proxy: UniIntProxy,
    /// The virtual network.
    pub sim: Simulator,
    server_ep: Endpoint,
    proxy_ep: Endpoint,
    server_rx: FrameReader,
    proxy_rx: FrameReader,
    /// The proxy-side driver: retransmission log, backoff, resume state
    /// and delivered frames.
    resume: ResumeMachine,
    /// Flight-recorder tap, if any: sees every client message the server
    /// consumes and every server message it produces, on the channel of
    /// its host connection, stamped with virtual time. `None` costs one
    /// branch per message.
    recorder: Option<SharedTap>,
}

impl SimSession {
    /// Creates a session over `link`, completing the handshake (the
    /// virtual clock advances accordingly).
    pub fn connect(ui: &mut Ui, link: LinkProfile, seed: u64) -> Result<SimSession, SessionError> {
        Self::connect_recorded(ui, link, seed, None)
    }

    /// Like [`SimSession::connect`], but attaches a flight-recorder tap
    /// *before* the handshake so the trace holds the complete
    /// conversation from `Hello` onwards (see [`crate::tap`] for the
    /// recording semantics).
    pub fn connect_recorded(
        ui: &mut Ui,
        link: LinkProfile,
        seed: u64,
        recorder: Option<SharedTap>,
    ) -> Result<SimSession, SessionError> {
        let registry = Registry::new();
        let mut sim = Simulator::new(seed);
        sim.attach_telemetry(&registry);
        let (proxy_ep, server_ep) = sim.link(link);
        // The host's `gateway.*` counters stay out of the session's
        // registry, whose snapshot reports proxy, server and links.
        let multi = MultiServer::with_telemetry(registry.clone());
        // A detached session waits for its proxy for as long as it takes.
        let mut host = SessionHost::new(multi, &Registry::new(), u64::MAX);
        let mut s = SimSession {
            conn: Some(host.open()),
            host,
            proxy: UniIntProxy::with_telemetry("sim-proxy", registry),
            sim,
            server_ep,
            proxy_ep,
            server_rx: FrameReader::new(),
            proxy_rx: FrameReader::new(),
            resume: ResumeMachine::new(BACKOFF, seed),
            recorder,
        };
        let hello = s.proxy.connect();
        s.send_client(ui, hello)?;
        Ok(s)
    }

    /// Virtual time, microseconds.
    pub fn now_us(&self) -> u64 {
        self.sim.now_us()
    }

    /// The UniInt server; the proxy is its one client.
    pub fn server(&self) -> &MultiServer {
        self.host.multi()
    }

    /// The telemetry registry shared by proxy, server and simulator.
    /// All readings are clocked from the simulator's virtual time, so
    /// two runs with the same seed produce byte-identical snapshots.
    pub fn telemetry(&self) -> &Registry {
        self.proxy.telemetry()
    }

    /// The proxy's network endpoint (e.g. for scheduling link faults).
    pub fn proxy_endpoint(&self) -> Endpoint {
        self.proxy_ep
    }

    /// Frames delivered to the output device so far.
    pub fn frames_delivered(&self) -> u64 {
        self.resume.frames_delivered()
    }

    /// The most recent adapted frame.
    pub fn last_frame(&self) -> Option<&DeviceFrame> {
        self.resume.last_frame()
    }

    /// Total bytes the server sent over the wire.
    pub fn server_wire_bytes(&self) -> u64 {
        self.sim.bytes_sent(self.server_ep)
    }

    /// Injects a device event at the proxy side and advances the network
    /// until idle.
    pub fn device_input(&mut self, ui: &mut Ui, ev: &DeviceEvent) -> Result<(), SessionError> {
        let msgs = self.proxy.device_input(ev);
        self.send_client(ui, msgs)
    }

    /// Sends the proxy's outbox, then `msgs`, across the simulated wire
    /// and settles.
    pub fn send_client(
        &mut self,
        ui: &mut Ui,
        msgs: Vec<ClientMessage>,
    ) -> Result<(), SessionError> {
        let (sim, ep) = (&mut self.sim, self.proxy_ep);
        let mut write = |m: &ClientMessage| sim.send(ep, encode_client(m));
        self.resume.flush(&mut self.proxy, &mut write);
        self.resume.send(msgs, write);
        self.settle(ui)
    }

    /// Sends what the proxy queued, flushes application-side UI changes
    /// into the network and runs it until idle, recovering from any
    /// connection breaks on the way.
    pub fn settle(&mut self, ui: &mut Ui) -> Result<(), SessionError> {
        let (sim, ep) = (&mut self.sim, self.proxy_ep);
        self.resume
            .flush(&mut self.proxy, |m| sim.send(ep, encode_client(m)));
        loop {
            // Answer parked update requests and flush application
            // damage first.
            let out = self.host.tick(ui, self.sim.now_us()).collect();
            self.carry_out(out);
            if self.sim.step().is_none() {
                if self.sim.link_up(self.proxy_ep) && self.conn.is_some() {
                    return Ok(());
                }
                // Idle with the connection dead: the pending exchange is
                // dead in the water.
                self.reconnect()?;
                continue;
            }
            // Deliver everything that has arrived by now at both ends.
            while let Some(bytes) = self.sim.recv(self.server_ep) {
                self.server_rx.feed(&bytes);
            }
            while let Some(frame) = self.server_rx.next_frame()? {
                // A closed connection's late frames reach no session.
                let Some(conn) = self.conn else { continue };
                if let Some(tap) = &self.recorder {
                    tap.record(self.sim.now_us(), conn as u32, Direction::ToServer, &frame);
                }
                let msg = ClientMessage::decode_body(&mut frame.as_slice())?;
                let out = self
                    .host
                    .receive(ui, conn, msg, self.sim.now_us())
                    .collect();
                self.carry_out(out);
            }
            while let Some(bytes) = self.sim.recv(self.proxy_ep) {
                self.proxy_rx.feed(&bytes);
            }
            self.resume
                .receive_frames(&mut self.proxy, &mut self.proxy_rx, |m| {
                    self.sim.send(self.proxy_ep, encode_client(m));
                })?;
        }
    }

    /// Carries out what the host asked: encodes and sends its messages
    /// across the simulated wire, recording each (production order, body
    /// only) when a tap is set. A connection the host closes is a broken
    /// link to the proxy.
    fn carry_out(&mut self, out: Vec<Output>) {
        for o in out {
            match o {
                Output::Send(to, msgs) => {
                    for msg in &msgs {
                        let bytes = encode_server(msg);
                        if let Some(tap) = &self.recorder {
                            let now = self.sim.now_us();
                            tap.record(now, to as u32, Direction::ToClient, &bytes[4..]);
                        }
                        self.sim.send(self.server_ep, bytes);
                    }
                }
                Output::Close(closed) => self.conn = self.conn.filter(|&c| c != closed),
            }
        }
    }

    /// Closes the dead host connection, runs the recovery (the span
    /// records the virtual time it takes) and writes the reattach on a
    /// new host connection.
    fn reconnect(&mut self) -> Result<(), SessionError> {
        if let Some(conn) = self.conn.take() {
            self.host.close(conn, self.sim.now_us());
        }
        let _span = self.proxy.telemetry().span("session.recovery");
        loop {
            self.sim.advance(self.resume.retry(&mut self.proxy)?);
            if self.sim.reconnect(self.proxy_ep) {
                break;
            }
        }
        let reattach = self.resume.reconnected(&mut self.proxy);
        self.conn = Some(self.host.open());
        for m in reattach.messages() {
            self.sim.send(self.proxy_ep, encode_client(m));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::{InputContext, InputPlugin, OutputCaps, OutputPlugin};
    use uniint_protocol::input::InputEvent;
    use uniint_raster::dither::DitherMode;
    use uniint_raster::framebuffer::Framebuffer;
    use uniint_raster::geom::{Point, Rect, Size};
    use uniint_raster::pixel::PixelFormat;
    use uniint_raster::scale::{scale_to_fit, ScaleFilter};
    use uniint_wsys::prelude::*;

    #[derive(Debug)]
    struct TapInput;
    impl InputPlugin for TapInput {
        fn kind(&self) -> &'static str {
            "tap"
        }
        fn translate(&mut self, ev: &DeviceEvent, ctx: &InputContext) -> Vec<InputEvent> {
            match ev {
                DeviceEvent::StylusDown { x, y } => {
                    let (sx, sy) = ctx.to_server(*x, *y);
                    InputEvent::click(sx, sy).to_vec()
                }
                _ => Vec::new(),
            }
        }
    }

    #[derive(Debug)]
    struct SmallScreen;
    impl OutputPlugin for SmallScreen {
        fn kind(&self) -> &'static str {
            "small"
        }
        fn caps(&self) -> OutputCaps {
            OutputCaps {
                size: Size::new(80, 60),
                format: PixelFormat::Rgb565,
                dither: DitherMode::None,
                scale: ScaleFilter::Nearest,
            }
        }
        fn adapt(&mut self, fb: &Framebuffer) -> DeviceFrame {
            let frame = scale_to_fit(fb, Size::new(80, 60), ScaleFilter::Nearest);
            let wire_bytes = PixelFormat::Rgb565.buffer_bytes(frame.width(), frame.height());
            DeviceFrame::new(frame, PixelFormat::Rgb565, wire_bytes)
        }
    }

    fn panel() -> Ui {
        let mut ui = Ui::new(160, 120, Theme::classic(), "panel");
        ui.add(Button::new("Power"), Rect::new(30, 30, 100, 30));
        ui
    }

    #[test]
    fn local_session_full_loop() {
        let mut ui = panel();
        let mut s = LocalSession::connect(&mut ui);
        assert!(s.proxy.is_connected());
        s.proxy.attach_input(Box::new(TapInput));
        s.proxy.attach_output(Box::new(SmallScreen));
        s.pump(&mut ui);
        assert!(s.last_frame().is_some(), "output got the first frame");
        // Tap the middle of the (fitted 80x60) view → button click.
        s.device_input(&mut ui, &DeviceEvent::StylusDown { x: 40, y: 22 });
        let actions = ui.take_actions();
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].action, Action::Clicked);
    }

    #[test]
    fn local_session_frame_tracks_ui_mutation() {
        let mut ui = panel();
        let mut s = LocalSession::connect(&mut ui);
        s.proxy.attach_output(Box::new(SmallScreen));
        s.pump(&mut ui);
        let before = s.take_frame().expect("initial frame");
        // Mutate the UI: the button caption changes.
        let id = ui.widget_ids()[0];
        ui.widget_mut::<Button>(id).unwrap().set_caption("Standby");
        s.pump(&mut ui);
        let after = s.take_frame().expect("updated frame");
        assert_ne!(before.frame, after.frame);
    }

    #[test]
    fn local_session_bell() {
        let mut ui = panel();
        let mut s = LocalSession::connect(&mut ui);
        ui.ring_bell();
        s.pump(&mut ui);
        assert_eq!(s.bells(), 1);
    }

    #[test]
    fn local_session_resize_propagates() {
        let mut ui = panel();
        let mut s = LocalSession::connect(&mut ui);
        ui.resize(320, 240);
        s.pump(&mut ui);
        assert_eq!(s.proxy.server_size(), Some(Size::new(320, 240)));
        assert_eq!(s.proxy.server_frame(), Some(ui.framebuffer()));
    }

    #[test]
    fn joined_viewers_share_the_panel_and_its_resizes() {
        let mut ui = panel();
        let mut s = LocalSession::connect(&mut ui);
        let other = s.join(&mut ui, "other");
        assert_eq!(s.server().client_count(), 2);
        s.viewer_mut(other).attach_input(Box::new(TapInput));
        let msgs = s
            .viewer_mut(other)
            .device_input(&DeviceEvent::StylusDown { x: 40, y: 40 });
        s.send_as(&mut ui, other, msgs);
        assert_eq!(ui.take_actions().len(), 1, "the joined viewer's click");
        ui.resize(200, 150);
        ui.ring_bell();
        s.pump(&mut ui);
        for v in [0, other] {
            assert_eq!(s.viewer(v).server_frame(), Some(ui.framebuffer()), "{v}");
        }
        assert_eq!(s.bells(), 1, "viewer 0's bell");
    }

    #[test]
    fn sim_session_handshake_and_click() {
        let mut ui = panel();
        let mut s = SimSession::connect(&mut ui, LinkProfile::wifi80211b(), 7).unwrap();
        assert!(s.proxy.is_connected());
        assert!(s.now_us() > 0, "handshake consumed virtual time");
        s.proxy.attach_input(Box::new(TapInput));
        s.device_input(&mut ui, &DeviceEvent::StylusDown { x: 80, y: 45 })
            .unwrap();
        assert_eq!(ui.take_actions().len(), 1);
    }

    #[test]
    fn sim_session_slower_link_takes_longer() {
        let run = |link| {
            let mut ui = panel();
            let s = SimSession::connect(&mut ui, link, 3).unwrap();
            s.now_us()
        };
        let fast = run(LinkProfile::ethernet100());
        let slow = run(LinkProfile::cellular_gprs());
        assert!(slow > 10 * fast, "gprs {slow}us vs ethernet {fast}us");
    }

    #[test]
    fn sim_session_counts_frames_and_bytes() {
        let mut ui = panel();
        let mut s = SimSession::connect(&mut ui, LinkProfile::ethernet100(), 1).unwrap();
        // A switch after Init: settling alone sends its renegotiation.
        s.proxy.attach_output(Box::new(SmallScreen));
        s.settle(&mut ui).unwrap();
        let (panel, fmt) = (ui.framebuffer().pixels(), PixelFormat::Rgb565);
        let reduced: Vec<_> = panel.iter().map(|&c| fmt.reduce(c)).collect();
        assert_ne!(reduced, panel, "Rgb565 loses colours");
        assert_eq!(s.proxy.server_frame().unwrap().pixels(), &reduced[..]);
        // Force a repaint by mutating the UI.
        let id = ui.widget_ids()[0];
        ui.widget_mut::<Button>(id).unwrap().set_caption("X");
        s.settle(&mut ui).unwrap();
        assert!(s.server_wire_bytes() > 0);
        assert!(s.frames_delivered() >= 1);
    }

    /// Compares the proxy's reconstructed framebuffer against the
    /// server-side UI pixel-for-pixel (transport format is Rgb888 by
    /// default, so equality is exact).
    fn assert_fb_converged(s: &SimSession, ui: &Ui) {
        let remote = s.proxy.server_frame().expect("proxy holds a framebuffer");
        let local = ui.framebuffer();
        assert_eq!(remote.size(), local.size());
        for y in 0..local.height() as i32 {
            for x in 0..local.width() as i32 {
                assert_eq!(
                    remote.pixel(Point::new(x, y)),
                    local.pixel(Point::new(x, y)),
                    "({x},{y})"
                );
            }
        }
    }

    #[test]
    fn sim_session_resumes_incrementally_after_flap() {
        use uniint_netsim::fault::FaultSchedule;

        let mut ui = panel();
        let mut s = SimSession::connect(&mut ui, LinkProfile::wifi80211b(), 11).unwrap();
        s.proxy.attach_input(Box::new(TapInput));
        // A 2 s flap opens right as the user interacts: the tap's input
        // messages die on the wire and the connection tears down.
        let t0 = s.now_us();
        s.sim
            .set_link_faults(s.proxy_ep, FaultSchedule::new().flap(t0, t0 + 2_000_000));
        s.device_input(&mut ui, &DeviceEvent::StylusDown { x: 80, y: 45 })
            .unwrap();

        let st = s.proxy.stats();
        assert!(st.stalls >= 1, "stall was detected: {st:?}");
        assert!(st.backoff_attempts >= 1, "backoff ran: {st:?}");
        assert!(st.resumes >= 1, "session resumed incrementally: {st:?}");
        assert_eq!(st.full_resyncs, 0, "no full resync needed: {st:?}");
        assert!(st.retransmits >= 1, "lost input was retransmitted: {st:?}");
        // The retransmitted click arrived exactly once.
        assert_eq!(ui.take_actions().len(), 1);
        // Backoff waited out the flap: well past 2 s of virtual time.
        assert!(s.now_us() >= t0 + 2_000_000);
        assert_fb_converged(&s, &ui);
    }

    #[test]
    fn sim_session_survives_burst_loss_mid_update() {
        use uniint_netsim::fault::FaultSchedule;

        let mut ui = panel();
        let mut s = SimSession::connect(&mut ui, LinkProfile::bluetooth(), 23).unwrap();
        s.proxy.attach_input(Box::new(TapInput));
        // A plausibly bursty radio: the chain enters the bad state on a
        // few percent of sends and then usually drops the connection.
        s.sim
            .set_link_faults(s.proxy_ep, FaultSchedule::new().burst_loss(0.05, 0.7, 0.8));
        // Several rounds of interaction while the Gilbert–Elliott chain
        // keeps snapping the link.
        for i in 0..4 {
            let id = ui.widget_ids()[0];
            ui.widget_mut::<Button>(id)
                .unwrap()
                .set_caption(if i % 2 == 0 { "Standby" } else { "Power" });
            s.device_input(&mut ui, &DeviceEvent::StylusDown { x: 80, y: 45 })
                .unwrap();
        }
        assert_eq!(ui.take_actions().len(), 4, "every click landed once");
        let st = s.proxy.stats();
        assert!(
            st.stalls >= 1,
            "burst loss broke the link at least once: {st:?}"
        );
        assert_fb_converged(&s, &ui);
    }

    #[test]
    fn sim_session_recovery_is_deterministic() {
        use uniint_netsim::fault::FaultSchedule;

        let run = |seed: u64| {
            let mut ui = panel();
            let mut s = SimSession::connect(&mut ui, LinkProfile::wifi80211b(), seed).unwrap();
            s.proxy.attach_input(Box::new(TapInput));
            let t0 = s.now_us();
            s.sim.set_link_faults(
                s.proxy_ep,
                FaultSchedule::new()
                    .flap(t0, t0 + 500_000)
                    .burst_loss(0.2, 0.5, 0.8),
            );
            s.device_input(&mut ui, &DeviceEvent::StylusDown { x: 80, y: 45 })
                .unwrap();
            (s.now_us(), s.proxy.stats(), s.server_wire_bytes())
        };
        assert_eq!(run(99), run(99), "same seed, same recovery timeline");
    }

    #[test]
    fn sim_session_stalls_out_when_flap_outlasts_backoff() {
        use uniint_netsim::fault::FaultSchedule;

        let mut ui = panel();
        let mut s = SimSession::connect(&mut ui, LinkProfile::wifi80211b(), 31).unwrap();
        let t0 = s.now_us();
        // Longer than the whole backoff budget (16 attempts capped at
        // 1 s + 25% jitter each).
        s.sim
            .set_link_faults(s.proxy_ep, FaultSchedule::new().flap(t0, t0 + 60_000_000));
        s.proxy.attach_input(Box::new(TapInput));
        let err = s
            .device_input(&mut ui, &DeviceEvent::StylusDown { x: 80, y: 45 })
            .unwrap_err();
        match err {
            SessionError::Stalled { attempts } => assert_eq!(attempts, 16),
            other => panic!("expected Stalled, got {other}"),
        }
    }

    #[test]
    fn sim_session_reconstructed_fb_matches_ui() {
        let mut ui = panel();
        let mut s = SimSession::connect(&mut ui, LinkProfile::bluetooth(), 5).unwrap();
        s.settle(&mut ui).unwrap();
        let remote = s.proxy.server_frame().unwrap();
        // The proxy transported at Rgb888 here, so pixels match exactly.
        for y in [0i32, 40, 80] {
            for x in [0i32, 50, 100] {
                assert_eq!(
                    remote.pixel(Point::new(x, y)),
                    ui.framebuffer().pixel(Point::new(x, y)),
                    "({x},{y})"
                );
            }
        }
    }
}
