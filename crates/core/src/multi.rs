//! The UniInt server: one appliance panel exported to its clients.
//!
//! The paper notes thin-client systems are "usually used to move a
//! user's desktop according to the location of a user, or show multiple
//! desktops on the same display". [`MultiServer`] serves one proxy, or
//! provides the dual: the *same* appliance panel exported to several
//! UniInt proxies at once — the whole family controlling the living
//! room from their own devices, every screen kept consistent.

use crate::server::{EncodeMemo, ServerMetrics, ServerStats, Slot};
use uniint_protocol::message::{ClientMessage, ServerMessage};
use uniint_telemetry::registry::Registry;
use uniint_wsys::ui::Ui;

/// Identifies one connected client (proxy) of a [`MultiServer`].
pub type ClientId = usize;

/// A UniInt server fanning one window out to its clients.
///
/// Each client keeps its own pixel format, encoding set and damage
/// account, so a TV proxy and a phone proxy can watch the same panel in
/// RGB888 and Mono1 respectively. Messages are handled one at a time by
/// [`handle_message`](Self::handle_message); updates leave only through
/// [`pump_all`](Self::pump_all), which answers every pending request.
#[derive(Debug)]
pub struct MultiServer {
    clients: Vec<Slot>,
    metrics: ServerMetrics,
}

impl Default for MultiServer {
    fn default() -> MultiServer {
        MultiServer::new()
    }
}

impl MultiServer {
    /// Creates a server with no clients and its own private registry.
    pub fn new() -> MultiServer {
        MultiServer::with_telemetry(Registry::new())
    }

    /// Creates a server with no clients recording into `registry`; the
    /// `server.*` counters aggregate across all its clients.
    pub fn with_telemetry(registry: Registry) -> MultiServer {
        MultiServer {
            clients: Vec::new(),
            metrics: ServerMetrics::new(&registry),
        }
    }

    /// Accepts a new connection, returning its id: the lowest id no live
    /// client holds, so a disconnected client's id may be handed out
    /// again. No session exists until the client's `Hello` arrives
    /// through [`handle_message`](Self::handle_message); before it, the
    /// server answers only `Resume` (with nothing to resume) and drops
    /// every other message. `_ui` goes unused: a session reads the
    /// window's size when its `Hello` opens it.
    pub fn accept(&mut self, _ui: &Ui) -> ClientId {
        if let Some(id) = self.clients.iter().position(|s| matches!(s, Slot::Free)) {
            self.clients[id] = Slot::Accepted;
            return id;
        }
        self.clients.push(Slot::Accepted);
        self.clients.len() - 1
    }

    /// Drops a client (its proxy disconnected). Ids of other clients stay
    /// stable. Messages for a disconnected id are ignored until
    /// [`accept`](Self::accept) reuses it, so a caller must forget the
    /// id once it disconnects it.
    pub fn disconnect(&mut self, client: ClientId) {
        if let Some(slot) = self.clients.get_mut(client) {
            *slot = Slot::Free;
        }
    }

    /// Number of live (not disconnected) connections.
    pub fn client_count(&self) -> usize {
        self.clients
            .iter()
            .filter(|s| !matches!(s, Slot::Free))
            .count()
    }

    /// Slots the server holds, live or free: the most clients it ever
    /// held at once, since [`accept`](Self::accept) reuses free slots.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.clients.len()
    }

    /// Whether `client` is connected and its `Hello` opened a session.
    pub fn has_session(&self, client: ClientId) -> bool {
        matches!(self.clients.get(client), Some(Slot::Live(_)))
    }

    /// Statistics over every client this server has served, read from
    /// its registry.
    pub fn stats(&self) -> ServerStats {
        self.metrics.stats()
    }

    /// Handles one message from `client`, returning replies for that
    /// client. Input events affect the shared window (and therefore every
    /// client's next update). An `UpdateRequest` is parked for the next
    /// [`pump_all`](Self::pump_all); no reply is ever an `Update`.
    pub fn handle_message(
        &mut self,
        ui: &mut Ui,
        client: ClientId,
        msg: ClientMessage,
    ) -> Vec<ServerMessage> {
        match self.clients.get_mut(client) {
            Some(slot) => slot.handle_message(ui, &self.metrics, msg),
            None => Vec::new(),
        }
    }

    /// Renders once, distributes new damage (and the bell) to every
    /// client, and answers all pending update requests. Returns per-client
    /// message batches (empty batches omitted).
    ///
    /// The damage is drained once per pump and narrowed there to the
    /// pixels that changed ([`Framebuffer::drain`]), and every client's
    /// account takes the same narrowed region. A client whose request a
    /// repaint reached is answered even when nothing in it changed: with
    /// an `Update` of no rects, so that every repaint still gets its
    /// update and its sequence number.
    ///
    /// [`Framebuffer::drain`]: uniint_raster::framebuffer::Framebuffer::drain
    ///
    /// A client told another window size than the window's now (the
    /// panel was recomposed) is sent `Resize` in place of an update: it
    /// is owed the whole screen, which the next pump sends once its
    /// proxy asks for the new geometry.
    ///
    /// Each damaged rect is analysed once per pump, in place in the
    /// framebuffer, whatever the clients' pixel formats; each client is
    /// sent the smallest payload its format and encodings allow, emitted
    /// once per distinct `(encoding, pixel format)` among the clients
    /// owed it, and clients that share that pair are sent copies of the
    /// same payload.
    pub fn pump_all(&mut self, ui: &mut Ui) -> Vec<(ClientId, Vec<ServerMessage>)> {
        self.pump_with(ui, |_| ())
    }

    /// [`pump_all`](Self::pump_all), showing `inspect` the pump's memo
    /// once every client is answered: tests read back what it analysed.
    pub(crate) fn pump_with(
        &mut self,
        ui: &mut Ui,
        inspect: impl FnOnce(&EncodeMemo),
    ) -> Vec<(ClientId, Vec<ServerMessage>)> {
        ui.render();
        let bell = ui.take_bell();
        let drained = ui.framebuffer_mut().drain();
        let ui = &*ui;
        let mut memo = EncodeMemo::default();
        let mut out = Vec::new();
        for (id, slot) in self.clients.iter_mut().enumerate() {
            let Slot::Live(c) = slot else { continue };
            let mut msgs = Vec::new();
            if bell {
                msgs.push(ServerMessage::Bell);
            }
            c.add_damage(&drained);
            match c.announce_resize(ui) {
                Some(resize) => msgs.push(resize),
                None => msgs.extend(c.answer_pending(ui, &self.metrics, &mut memo)),
            }
            if !msgs.is_empty() {
                out.push((id, msgs));
            }
        }
        inspect(&memo);
        out
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::proxy::UniIntProxy;
    use uniint_raster::geom::Rect;
    use uniint_wsys::prelude::{Button, Theme};

    pub(crate) struct Rig {
        pub(crate) ui: Ui,
        pub(crate) server: MultiServer,
        pub(crate) proxies: Vec<UniIntProxy>,
    }

    impl Rig {
        pub(crate) fn new(n: usize) -> Rig {
            let mut ui = Ui::new(160, 120, Theme::classic(), "shared");
            ui.add(Button::new("Power"), Rect::new(20, 20, 80, 24));
            let mut server = MultiServer::new();
            let mut proxies = Vec::new();
            for i in 0..n {
                let id = server.accept(&ui);
                assert_eq!(id, i);
                proxies.push(UniIntProxy::new(format!("viewer-{i}")));
            }
            let mut rig = Rig {
                ui,
                server,
                proxies,
            };
            for i in 0..n {
                let hello = rig.proxies[i].connect();
                rig.deliver(i, hello);
            }
            rig.settle();
            rig
        }

        /// Client → server → (replies) → client, recursively.
        pub(crate) fn deliver(&mut self, client: usize, msgs: Vec<ClientMessage>) {
            for m in msgs {
                let replies = self.server.handle_message(&mut self.ui, client, m);
                self.receive(client, replies);
            }
        }

        pub(crate) fn receive(&mut self, client: usize, msgs: Vec<ServerMessage>) {
            for m in msgs {
                let out = self.proxies[client].handle_server(&m).expect("clean wire");
                let back = out.messages;
                if !back.is_empty() {
                    self.deliver(client, back);
                }
            }
        }

        /// Pump shared damage to everyone until quiescent.
        pub(crate) fn settle(&mut self) {
            loop {
                let batches = self.server.pump_all(&mut self.ui);
                if batches.is_empty() {
                    break;
                }
                for (id, msgs) in batches {
                    self.receive(id, msgs);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::Rig;
    use super::*;
    use uniint_protocol::input::InputEvent;
    use uniint_raster::geom::Rect;

    #[test]
    fn all_clients_complete_handshake() {
        let rig = Rig::new(3);
        for p in &rig.proxies {
            assert!(p.is_connected());
        }
        assert_eq!(rig.server.client_count(), 3);
        for i in 0..3 {
            assert!(rig.server.has_session(i));
        }
    }

    #[test]
    fn all_clients_see_identical_screen() {
        let mut rig = Rig::new(3);
        rig.settle();
        let reference = rig.ui.framebuffer().clone();
        for p in &rig.proxies {
            assert_eq!(p.server_frame().unwrap(), &reference);
        }
    }

    #[test]
    fn one_clients_input_updates_every_viewer() {
        let mut rig = Rig::new(2);
        // Client 0 clicks the button.
        let events: Vec<ClientMessage> = InputEvent::click(40, 30)
            .into_iter()
            .map(ClientMessage::Input)
            .collect();
        rig.deliver(0, events);
        rig.settle();
        let reference = rig.ui.framebuffer().clone();
        for (i, p) in rig.proxies.iter().enumerate() {
            assert_eq!(p.server_frame().unwrap(), &reference, "viewer {i}");
        }
        assert_eq!(rig.ui.take_actions().len(), 1, "the click fired once");
    }

    #[test]
    fn per_client_formats_are_independent() {
        let mut rig = Rig::new(2);
        rig.deliver(
            1,
            vec![ClientMessage::SetPixelFormat(
                uniint_raster::pixel::PixelFormat::Mono1,
            )],
        );
        // A change arrives for both.
        rig.ui
            .framebuffer_mut()
            .fill_rect(Rect::new(0, 0, 10, 10), uniint_raster::color::Color::RED);
        rig.settle();
        // Client 0 (RGB888) sees red; client 1 (Mono1) sees its reduction.
        let p0 = rig.proxies[0]
            .server_frame()
            .unwrap()
            .pixel(uniint_raster::geom::Point::new(5, 5))
            .unwrap();
        let p1 = rig.proxies[1]
            .server_frame()
            .unwrap()
            .pixel(uniint_raster::geom::Point::new(5, 5))
            .unwrap();
        assert_eq!(p0, uniint_raster::color::Color::RED);
        assert_ne!(p0, p1, "mono client got the reduced pixel");
    }

    #[test]
    fn bell_reaches_every_client() {
        let mut rig = Rig::new(2);
        rig.settle();
        rig.ui.ring_bell();
        let batches = rig.server.pump_all(&mut rig.ui);
        let bells = batches
            .iter()
            .filter(|(_, msgs)| msgs.contains(&ServerMessage::Bell))
            .count();
        assert_eq!(bells, 2);
    }

    #[test]
    fn unknown_client_is_ignored() {
        let mut rig = Rig::new(1);
        let replies = rig.server.handle_message(
            &mut rig.ui,
            99,
            ClientMessage::Hello {
                version: 1,
                name: "ghost".into(),
            },
        );
        assert!(replies.is_empty());
    }

    #[test]
    fn aggregate_stats_count_all_clients() {
        let mut rig = Rig::new(2);
        rig.settle();
        let s = rig.server.stats();
        assert!(s.updates_sent >= 2, "both initial full updates counted");
        assert!(s.payload_bytes > 0);
    }

    #[test]
    fn stats_equal_the_shared_registry_counters() {
        use uniint_protocol::message::DeviceHealthState;

        let registry = Registry::new();
        let mut server = MultiServer::with_telemetry(registry.clone());
        let mut ui = Rig::new(0).ui;
        for name in ["a", "b"] {
            let id = server.accept(&ui);
            for msg in [
                ClientMessage::Hello {
                    version: 1,
                    name: name.into(),
                },
                ClientMessage::UpdateRequest {
                    incremental: false,
                    rect: Rect::new(0, 0, 160, 120),
                },
                ClientMessage::Input(InputEvent::click(40, 30)[0]),
                ClientMessage::DeviceHealth {
                    device: "pda".into(),
                    state: DeviceHealthState::Degraded,
                },
            ] {
                server.handle_message(&mut ui, id, msg);
            }
        }
        assert_eq!(server.pump_all(&mut ui).len(), 2);
        let counter = |name: &str| registry.counter(name).get();
        let s = server.stats();
        assert_eq!(
            s,
            ServerStats {
                updates_sent: counter("server.updates_sent"),
                rects_sent: counter("server.rects_sent"),
                payload_bytes: counter("server.payload_bytes"),
                inputs_injected: counter("server.inputs_injected"),
                health_reports: counter("server.health_reports"),
            }
        );
        assert_eq!(s.updates_sent, 2, "one full update per client");
        assert_eq!(s.inputs_injected, 2);
        assert_eq!(s.health_reports, 2);
    }
}

#[cfg(test)]
mod disconnect_tests {
    use super::tests_support::Rig;

    #[test]
    fn disconnected_client_no_longer_served() {
        let mut rig = Rig::new(2);
        rig.settle();
        rig.server.disconnect(0);
        assert_eq!(rig.server.client_count(), 1);
        assert!(!rig.server.has_session(0));
        assert!(rig.server.has_session(1));
        // Damage is still delivered to the survivor only.
        rig.ui.framebuffer_mut().fill_rect(
            uniint_raster::geom::Rect::new(0, 0, 5, 5),
            uniint_raster::color::Color::GREEN,
        );
        let batches = rig.server.pump_all(&mut rig.ui);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].0, 1);
    }

    #[test]
    fn churned_slots_are_reused_as_fresh_clients() {
        use uniint_protocol::message::{ClientMessage, ServerMessage};

        let mut rig = Rig::new(2);
        let bounds = rig.ui.framebuffer().bounds();
        for i in 0..1_000 {
            let id = rig.server.accept(&rig.ui);
            assert_eq!(id, 2, "cycle {i}: the freed slot is reused");
            // The slot's last holder said Hello and parked a request;
            // its successor has done neither, so it gets no Bell and no
            // update.
            rig.ui.ring_bell();
            for (client, msgs) in rig.server.pump_all(&mut rig.ui) {
                assert_ne!(client, id, "cycle {i}: {msgs:?}");
                rig.receive(client, msgs);
            }
            for msg in [
                ClientMessage::Hello {
                    version: 1,
                    name: format!("churn-{i}"),
                },
                ClientMessage::UpdateRequest {
                    incremental: false,
                    rect: bounds,
                },
            ] {
                let replies = rig.server.handle_message(&mut rig.ui, id, msg);
                assert!(!replies.contains(&ServerMessage::Bell));
            }
            rig.server.disconnect(id);
        }
        assert!(rig.server.clients.len() <= 3, "slots stay bounded");
        assert_eq!(rig.server.client_count(), 2);
        rig.settle();
        for p in &rig.proxies {
            assert_eq!(p.server_frame().unwrap(), rig.ui.framebuffer());
        }
    }
}

#[cfg(test)]
mod sharing_tests {
    use super::*;
    use crate::proxy::UniIntProxy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use uniint_protocol::encoding::{decode_rect, DecodedRect, Encoding};
    use uniint_protocol::input::InputEvent;
    use uniint_protocol::message::RectUpdate;
    use uniint_raster::color::Color;
    use uniint_raster::framebuffer::Framebuffer;
    use uniint_raster::geom::Rect;
    use uniint_raster::pixel::PixelFormat;
    use uniint_wsys::prelude::{Button, Theme, Toggle};

    /// The toggles the seeded script clicks.
    fn toggle_rects() -> Vec<Rect> {
        (0..6)
            .map(|i| Rect::new(8 + (i % 3) * 50, 8 + (i / 3) * 50, 44, 40))
            .collect()
    }

    fn panel() -> Ui {
        let mut ui = Ui::new(160, 120, Theme::classic(), "shared");
        for (i, r) in toggle_rects().into_iter().enumerate() {
            ui.add(Toggle::new(format!("T{i}"), i % 2 == 0), r);
        }
        ui.add(Button::new("Power"), Rect::new(8, 100, 60, 16));
        ui
    }

    /// What a viewer asks the server for, whatever its proxy says: the
    /// test rewrites the proxy's `SetPixelFormat`, `SetEncodings` and
    /// `UpdateRequest` messages to these.
    #[derive(Debug, Clone, Copy)]
    struct Policy {
        format: PixelFormat,
        encodings: &'static [Encoding],
        /// Area every update request is narrowed to.
        clip: Option<Rect>,
    }

    impl Policy {
        const FULL: Policy = Policy {
            format: PixelFormat::Rgb888,
            encodings: &Encoding::ALL,
            clip: None,
        };

        fn rewrite(self, msg: ClientMessage) -> ClientMessage {
            match msg {
                ClientMessage::SetPixelFormat(_) => ClientMessage::SetPixelFormat(self.format),
                ClientMessage::SetEncodings(_) => {
                    ClientMessage::SetEncodings(self.encodings.to_vec())
                }
                ClientMessage::UpdateRequest { incremental, rect } => {
                    ClientMessage::UpdateRequest {
                        incremental,
                        rect: self.clip.unwrap_or(rect),
                    }
                }
                other => other,
            }
        }
    }

    struct Viewer {
        proxy: UniIntProxy,
        policy: Policy,
        /// Every update received: its format and rects.
        updates: Vec<(PixelFormat, Vec<RectUpdate>)>,
    }

    /// One panel watched by viewers with the given policies.
    struct Mixed {
        ui: Ui,
        server: MultiServer,
        viewers: Vec<Viewer>,
        /// Per pump that sent anything: the rects its memo analysed, and
        /// every rect it sent, one entry per viewer that got it.
        pumps: Vec<(Vec<Rect>, Vec<Rect>)>,
    }

    impl Mixed {
        fn new(policies: &[Policy]) -> Mixed {
            let mut m = Mixed {
                ui: panel(),
                server: MultiServer::new(),
                viewers: Vec::new(),
                pumps: Vec::new(),
            };
            for (i, &policy) in policies.iter().enumerate() {
                assert_eq!(m.server.accept(&m.ui), i);
                m.viewers.push(Viewer {
                    proxy: UniIntProxy::new(format!("viewer-{i}")),
                    policy,
                    updates: Vec::new(),
                });
            }
            for i in 0..policies.len() {
                let hello = m.viewers[i].proxy.connect();
                m.deliver(i, hello);
            }
            m.settle();
            m
        }

        fn deliver(&mut self, id: ClientId, msgs: Vec<ClientMessage>) {
            for msg in msgs {
                let msg = self.viewers[id].policy.rewrite(msg);
                let replies = self.server.handle_message(&mut self.ui, id, msg);
                self.receive(id, replies);
            }
        }

        fn receive(&mut self, id: ClientId, msgs: Vec<ServerMessage>) {
            for msg in msgs {
                let viewer = &mut self.viewers[id];
                if let ServerMessage::Update { format, rects, .. } = &msg {
                    viewer.updates.push((*format, rects.clone()));
                }
                let back = viewer.proxy.handle_server(&msg).expect("clean wire");
                self.deliver(id, back.messages);
            }
        }

        fn settle(&mut self) {
            loop {
                let mut analysed = Vec::new();
                let batches = self
                    .server
                    .pump_with(&mut self.ui, |memo| analysed = memo.analysed());
                if batches.is_empty() {
                    break;
                }
                let sent = batches
                    .iter()
                    .flat_map(|(_, msgs)| msgs)
                    .filter_map(|m| match m {
                        ServerMessage::Update { rects, .. } => Some(rects),
                        _ => None,
                    })
                    .flatten()
                    .map(|r| r.rect)
                    .collect();
                self.pumps.push((analysed, sent));
                for (id, msgs) in batches {
                    self.receive(id, msgs);
                }
            }
        }

        /// Clicks seeded toggles on the panel, settling after each.
        fn click(&mut self, seed: u64, clicks: usize) {
            let toggles = toggle_rects();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..clicks {
                let t = toggles[rng.gen_range(0..toggles.len())];
                let (x, y) = (t.x as u32 + t.w / 2, t.y as u32 + t.h / 2);
                for ev in InputEvent::click(x as u16, y as u16) {
                    self.ui.dispatch(ev);
                }
                self.settle();
            }
        }
    }

    /// The pixels of `fb` within `area`, reduced to `format`.
    fn reduced(fb: &Framebuffer, area: Rect, format: PixelFormat) -> Vec<Color> {
        let (_, px) = fb.read_rect(area);
        px.into_iter().map(|c| format.reduce(c)).collect()
    }

    #[test]
    fn viewers_with_equal_keys_share_identical_rects() {
        let clip = Rect::new(0, 0, 80, 60);
        let mut policies = vec![Policy::FULL; 4];
        policies.push(Policy {
            format: PixelFormat::Mono1,
            ..Policy::FULL
        });
        policies.push(Policy {
            encodings: &[Encoding::Raw],
            ..Policy::FULL
        });
        policies.push(Policy {
            clip: Some(clip),
            ..Policy::FULL
        });
        let (mono, raw, clipped) = (4, 5, 6);
        for seed in [1, 2, 3] {
            let mut mixed = Mixed::new(&policies);
            mixed.click(seed, 30);
            let v = &mixed.viewers;

            // The four full viewers were sent the very same updates.
            assert!(v[0].updates.len() > 30, "seed {seed}: every click updates");
            for other in &v[1..4] {
                assert_eq!(other.updates, v[0].updates, "seed {seed}");
            }
            // The rest got their own format, encoding or clip.
            assert_eq!(v[mono].updates.len(), v[0].updates.len());
            for ((f, mono_rects), (_, full_rects)) in v[mono].updates.iter().zip(&v[0].updates) {
                assert_eq!(*f, PixelFormat::Mono1);
                let areas = |rs: &[RectUpdate]| rs.iter().map(|r| r.rect).collect::<Vec<_>>();
                assert_eq!(areas(mono_rects), areas(full_rects), "same damage");
            }
            let raw_rects = v[raw].updates.iter().flat_map(|(_, rs)| rs);
            assert!(raw_rects.clone().all(|r| r.encoding == Encoding::Raw));
            assert!(raw_rects.count() > 0);
            let clipped_rects = v[clipped].updates.iter().flat_map(|(_, rs)| rs);
            assert!(clipped_rects.clone().all(|r| clip.contains_rect(r.rect)));
            assert!(clipped_rects.count() > 0);

            // Every proxy holds the panel reduced to its format.
            let panel = mixed.ui.framebuffer();
            for (i, viewer) in v.iter().enumerate() {
                let frame = viewer.proxy.server_frame().unwrap();
                let area = viewer.policy.clip.unwrap_or(panel.bounds());
                assert_eq!(
                    frame.read_rect(area).1,
                    reduced(panel, area, viewer.policy.format),
                    "seed {seed} viewer {i}"
                );
            }

            assert_sharing_is_invisible(&mixed, seed, 30);
        }
    }

    /// Sharing is invisible per client: each viewer's updates equal those
    /// of a run where it watches alone, and the server's totals equal the
    /// sum of those runs'.
    fn assert_sharing_is_invisible(mixed: &Mixed, seed: u64, clicks: usize) {
        let mut solo_total = ServerStats::default();
        for (i, viewer) in mixed.viewers.iter().enumerate() {
            let mut solo = Mixed::new(&[viewer.policy]);
            solo.click(seed, clicks);
            assert_eq!(
                viewer.updates, solo.viewers[0].updates,
                "seed {seed} viewer {i}"
            );
            let s = solo.server.stats();
            solo_total.updates_sent += s.updates_sent;
            solo_total.rects_sent += s.rects_sent;
            solo_total.payload_bytes += s.payload_bytes;
            solo_total.inputs_injected += s.inputs_injected;
            solo_total.health_reports += s.health_reports;
        }
        assert_eq!(mixed.server.stats(), solo_total, "seed {seed}");
    }

    #[test]
    fn mixed_formats_share_one_analysis_per_rect() {
        // The paper's scenario: a TV, a PDA and a phone on one panel, each
        // in its own pixel format with the same encodings.
        let policies =
            [PixelFormat::Rgb888, PixelFormat::Rgb444, PixelFormat::Mono1].map(|format| Policy {
                format,
                ..Policy::FULL
            });
        for seed in [1, 2, 3] {
            let mut mixed = Mixed::new(&policies);
            mixed.pumps.clear();
            mixed.click(seed, 30);
            assert!(mixed.pumps.len() >= 30, "seed {seed}: every click pumps");
            for (p, (analysed, sent)) in mixed.pumps.iter().enumerate() {
                // Each damaged rect was analysed exactly once, and each
                // viewer was sent every one of them.
                for (i, r) in analysed.iter().enumerate() {
                    assert!(
                        !analysed[..i].contains(r),
                        "seed {seed} pump {p}: {r:?} twice"
                    );
                    let sends = sent.iter().filter(|s| *s == r).count();
                    assert_eq!(sends, policies.len(), "seed {seed} pump {p}: {r:?}");
                }
                assert_eq!(sent.len(), analysed.len() * policies.len());
            }
            let v = &mixed.viewers;
            for (i, viewer) in v.iter().enumerate() {
                assert_eq!(viewer.updates.len(), v[0].updates.len());
                for (f, _) in &viewer.updates {
                    assert_eq!(*f, policies[i].format);
                }
                let panel = mixed.ui.framebuffer();
                assert_eq!(
                    viewer.proxy.server_frame().unwrap().pixels(),
                    reduced(panel, panel.bounds(), viewer.policy.format),
                    "seed {seed} viewer {i}"
                );
            }
            assert_sharing_is_invisible(&mixed, seed, 30);
        }
    }

    #[test]
    fn copyrect_only_client_is_sent_raw() {
        let mut ui = panel();
        let mut server = MultiServer::new();
        let id = server.accept(&ui);
        let bounds = ui.framebuffer().bounds();
        for msg in [
            ClientMessage::Hello {
                version: 1,
                name: "copyrect-only".into(),
            },
            ClientMessage::SetEncodings(vec![Encoding::CopyRect]),
            ClientMessage::UpdateRequest {
                incremental: false,
                rect: bounds,
            },
        ] {
            let replies = server.handle_message(&mut ui, id, msg);
            assert!(
                !replies
                    .iter()
                    .any(|m| matches!(m, ServerMessage::Update { .. })),
                "updates leave only through pump_all: {replies:?}"
            );
        }
        let batches = server.pump_all(&mut ui);
        let [(0, replies)] = &batches[..] else {
            panic!("expected one batch, got {batches:?}");
        };
        let [ServerMessage::Update { format, rects, .. }] = &replies[..] else {
            panic!("expected one update, got {replies:?}");
        };
        let mut fb = Framebuffer::new(bounds.w, bounds.h, Color::BLACK);
        for r in rects {
            assert_eq!(r.encoding, Encoding::Raw);
            let mut payload: &[u8] = &r.payload;
            let DecodedRect::Pixels(px) =
                decode_rect(&mut payload, r.rect, r.encoding, *format).expect("raw decodes")
            else {
                panic!("raw carries pixels");
            };
            fb.write_rect(r.rect, &px);
        }
        assert_eq!(&fb, ui.framebuffer());
    }
}
