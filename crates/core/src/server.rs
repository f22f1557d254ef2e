//! The UniInt server's per-client protocol state: what each slot of
//! [`MultiServer`](crate::multi::MultiServer), the one server type,
//! holds for its connection.
//!
//! The paper stresses that *existing thin-client servers are used
//! unmodified*; accordingly this server knows nothing about interaction
//! devices. It speaks only the universal protocol: damage-driven
//! framebuffer updates out, keyboard/pointer events in. An
//! `UpdateRequest` only records what the client asked for; the next
//! [`MultiServer::pump_all`](crate::multi::MultiServer::pump_all)
//! answers it.

use std::collections::VecDeque;
use uniint_protocol::encoding::{Encoding, RectAnalysis};
use uniint_protocol::message::{ClientMessage, RectUpdate, ServerMessage, PROTOCOL_VERSION};
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::Rect;
use uniint_raster::pixel::PixelFormat;
use uniint_raster::region::Region;
use uniint_telemetry::histogram::Histogram;
use uniint_telemetry::registry::{Counter, Registry};
use uniint_wsys::ui::Ui;

/// How many sent updates the server retains for incremental resume. A
/// `Resume` pointing further back than this falls back to full damage.
pub const RESUME_RETENTION: usize = 64;

/// Rects analysed during one pump, shared by every client it answers.
///
/// A rect's analysis depends only on the framebuffer's pixels within it,
/// and a payload only on that analysis, the encoding chosen from it and
/// the pixel format. The memo borrows the framebuffer, so the pixels
/// cannot change while it lives, and it is keyed by the clipped rect
/// alone: it analyses each damaged rect once where its rows lie, chooses
/// an encoding per client from that analysis and the client's format,
/// and emits bytes once per distinct `(encoding, pixel format)`. Clients
/// in the same format get copies of one payload, and clients in
/// different formats share the analysis.
#[derive(Debug, Default)]
pub(crate) struct EncodeMemo<'fb> {
    entries: Vec<Analysed<'fb>>,
}

/// One memo entry: a rect's analysis and the payloads emitted from it.
#[derive(Debug)]
struct Analysed<'fb> {
    analysis: RectAnalysis<'fb>,
    payloads: Vec<(Encoding, PixelFormat, Vec<u8>)>,
}

impl<'fb> EncodeMemo<'fb> {
    /// The update for damaged rect `r` clipped to `fb`, in `format` and
    /// restricted to `encodings`; `None` when `r` lies outside `fb`.
    fn encode(
        &mut self,
        fb: &'fb Framebuffer,
        r: Rect,
        format: PixelFormat,
        encodings: &[Encoding],
    ) -> Option<RectUpdate> {
        let clipped = r.intersect(fb.bounds())?;
        let at = match self
            .entries
            .iter()
            .position(|e| e.analysis.rect() == clipped)
        {
            Some(at) => at,
            None => {
                self.entries.push(Analysed {
                    analysis: RectAnalysis::in_frame(fb, clipped)?,
                    payloads: Vec::new(),
                });
                self.entries.len() - 1
            }
        };
        let Analysed { analysis, payloads } = &mut self.entries[at];
        let encoding = analysis.choose(encodings, format);
        let emitted = payloads
            .iter()
            .find(|(e, f, _)| *e == encoding && *f == format);
        let payload = match emitted {
            Some((_, _, payload)) => payload.clone(),
            None => {
                let payload = analysis.encode(encoding, format);
                payloads.push((encoding, format, payload.clone()));
                payload
            }
        };
        Some(RectUpdate {
            rect: clipped,
            encoding,
            payload,
        })
    }

    /// The rects analysed so far, in the order they were first asked for.
    #[cfg(test)]
    pub(crate) fn analysed(&self) -> Vec<Rect> {
        self.entries.iter().map(|e| e.analysis.rect()).collect()
    }
}

/// One slot of a [`MultiServer`](crate::multi::MultiServer).
#[derive(Debug)]
pub(crate) enum Slot {
    /// No connection: [`accept`](crate::multi::MultiServer::accept) may
    /// hand the slot out.
    Free,
    /// An accepted connection that has not said `Hello`: no session.
    Accepted,
    /// The session the connection's `Hello` opened.
    Live(Client),
}

/// A client's session, opened by its `Hello`.
///
/// The server does not own the [`Ui`] — the appliance application does —
/// so every call that touches the window takes it.
#[derive(Debug)]
pub(crate) struct Client {
    /// Window size announced in `Init` and `Resize`.
    size: (u16, u16),
    format: PixelFormat,
    encodings: Vec<Encoding>,
    /// Area of the pending update request, answered by the next pump.
    pending: Option<Rect>,
    /// Damage accumulated since the client's last update.
    damage: Region,
    /// Client messages received this session (`Resume` not counted), so
    /// a reattaching client learns how much of its send stream was lost.
    msgs_received: u64,
    /// Sequence number the next update will carry (from 1).
    next_update_seq: u64,
    /// Regions of the last [`RESUME_RETENTION`] updates, by sequence —
    /// the replay log incremental resume re-damages from.
    sent_log: VecDeque<(u64, Region)>,
    /// Whether the window was resized since the last update sent: a
    /// resume then owes the whole screen, whatever the client applied.
    resized: bool,
}

/// A server's counters at one instant, as
/// [`MultiServer::stats`](crate::multi::MultiServer::stats) reads them
/// from its `server.*` registry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Update messages sent.
    pub updates_sent: u64,
    /// Rectangles sent across all updates.
    pub rects_sent: u64,
    /// Total payload bytes across all rectangles.
    pub payload_bytes: u64,
    /// Input events injected into the window system.
    pub inputs_injected: u64,
    /// Device-health notifications received from the proxy's supervisor.
    pub health_reports: u64,
}

/// Pre-registered metric handles for one server, shared by all its
/// clients; updates on the damage/encode hot path are lock-free atomics.
#[derive(Debug)]
pub(crate) struct ServerMetrics {
    updates_sent: Counter,
    rects_sent: Counter,
    payload_bytes: Counter,
    inputs_injected: Counter,
    health_reports: Counter,
    update_payload_bytes: Histogram,
}

impl ServerMetrics {
    pub(crate) fn new(registry: &Registry) -> ServerMetrics {
        ServerMetrics {
            updates_sent: registry.counter("server.updates_sent"),
            rects_sent: registry.counter("server.rects_sent"),
            payload_bytes: registry.counter("server.payload_bytes"),
            inputs_injected: registry.counter("server.inputs_injected"),
            health_reports: registry.counter("server.health_reports"),
            update_payload_bytes: registry.histogram("server.update_payload_bytes"),
        }
    }

    /// The counters as [`ServerStats`].
    pub(crate) fn stats(&self) -> ServerStats {
        ServerStats {
            updates_sent: self.updates_sent.get(),
            rects_sent: self.rects_sent.get(),
            payload_bytes: self.payload_bytes.get(),
            inputs_injected: self.inputs_injected.get(),
            health_reports: self.health_reports.get(),
        }
    }
}

impl Slot {
    /// Handles one client message, possibly producing replies. Never an
    /// `Update`: a request waits for [`Client::answer_pending`].
    ///
    /// A `Hello` opens a session, afresh on a live slot. Before it, a
    /// `Resume` learns that there is no session to resume, and every
    /// other message is dropped.
    pub(crate) fn handle_message(
        &mut self,
        ui: &mut Ui,
        metrics: &ServerMetrics,
        msg: ClientMessage,
    ) -> Vec<ServerMessage> {
        if let Slot::Live(c) = self {
            // Count every client message except Resume, which sits outside
            // the session's message stream (it describes the stream itself).
            if !matches!(msg, ClientMessage::Resume { .. }) {
                c.msgs_received += 1;
            }
        }
        match (self, msg) {
            (Slot::Free, _) => {}
            (slot, ClientMessage::Hello { version, name: _ }) => {
                let (client, init) = Client::open(ui, version);
                *slot = Slot::Live(client);
                return vec![init];
            }
            // No session to resume (e.g. the server restarted); the client
            // must fall back to a fresh Hello.
            (Slot::Accepted, ClientMessage::Resume { .. }) => {
                return vec![ServerMessage::ResumeAck {
                    client_msgs_received: 0,
                    replayed: false,
                }];
            }
            (Slot::Accepted, _) => {}
            (Slot::Live(c), ClientMessage::Resume { last_update_seq }) => {
                return c.resume(ui, last_update_seq);
            }
            (Slot::Live(c), ClientMessage::SetPixelFormat(format)) => {
                c.format = format;
                // Everything must be resent in the new format.
                c.damage = Region::from_rect(ui.framebuffer().bounds());
            }
            (Slot::Live(c), ClientMessage::SetEncodings(encs)) => {
                c.encodings = if encs.is_empty() {
                    vec![Encoding::Raw]
                } else {
                    encs
                };
            }
            (Slot::Live(c), ClientMessage::UpdateRequest { incremental, rect }) => {
                if !incremental {
                    c.damage.add(
                        rect.intersect(ui.framebuffer().bounds())
                            .unwrap_or(Rect::EMPTY),
                    );
                }
                c.pending = Some(rect);
            }
            (Slot::Live(_), ClientMessage::Input(ev)) => {
                metrics.inputs_injected.inc();
                ui.dispatch(ev);
            }
            (Slot::Live(_), ClientMessage::CutText(_)) => {}
            (Slot::Live(_), ClientMessage::DeviceHealth { .. }) => {
                // Telemetry only: the appliance side may surface it to the
                // user, but the session state does not depend on it.
                metrics.health_reports.inc();
            }
        }
        Vec::new()
    }
}

impl Client {
    /// The session a `Hello` of protocol `version` opens on `ui`'s
    /// window, and the `Init` that answers it.
    fn open(ui: &Ui, version: u16) -> (Client, ServerMessage) {
        let size = size_of(ui);
        let init = ServerMessage::Init {
            version: version.min(PROTOCOL_VERSION),
            width: size.0,
            height: size.1,
            format: PixelFormat::Rgb888,
            name: ui.title().to_owned(),
        };
        let client = Client {
            size,
            format: PixelFormat::Rgb888,
            encodings: vec![Encoding::Raw],
            pending: None,
            // A new session owes the client the whole screen.
            damage: Region::from_rect(ui.framebuffer().bounds()),
            msgs_received: 1,
            next_update_seq: 1,
            sent_log: VecDeque::new(),
            resized: false,
        };
        (client, init)
    }

    /// Answers a `Resume` from a client that last applied update
    /// `last_update_seq`: re-damages what it missed, from the send log
    /// if that still covers it, and tells it how many of its messages
    /// arrived.
    fn resume(&mut self, ui: &Ui, last_update_seq: u64) -> Vec<ServerMessage> {
        let newest = self.next_update_seq - 1;
        // A resize already owes the whole screen.
        let mut replayed = !self.resized;
        if replayed && last_update_seq < newest {
            // The log must cover every update past the client's
            // last applied one; otherwise retention was exceeded
            // and the whole screen is owed again.
            let covered = self
                .sent_log
                .front()
                .is_some_and(|(s, _)| *s <= last_update_seq + 1);
            if covered {
                for (s, region) in &self.sent_log {
                    if *s > last_update_seq {
                        self.damage.union_with(region);
                    }
                }
            } else {
                replayed = false;
                self.damage = Region::from_rect(ui.framebuffer().bounds());
            }
        }
        // Answer the re-damaged area on the next pump even if the
        // client's own UpdateRequest was among the lost messages.
        self.pending = Some(ui.framebuffer().bounds());
        vec![
            // Geometry may have changed while the client was gone;
            // a same-size Resize is a no-op client-side.
            ServerMessage::Resize {
                width: self.size.0,
                height: self.size.1,
            },
            ServerMessage::ResumeAck {
                client_msgs_received: self.msgs_received,
                replayed,
            },
        ]
    }

    /// Folds window damage drained by the pump into this client's
    /// account.
    ///
    /// The pump drains `damage` from the framebuffer, which builds it by
    /// [`Region::add`] alone: its rects are disjoint and no two of them
    /// merge. Added one by one to an empty account they come back as they
    /// are, in order, so an empty account takes a copy.
    pub(crate) fn add_damage(&mut self, damage: &Region) {
        if self.damage.is_empty() {
            self.damage.clone_from(damage);
        } else {
            self.damage.union_with(damage);
        }
    }

    /// Takes the part of the damage inside the request `rect` out of the
    /// account; `None` if none is.
    ///
    /// A proxy asks for the whole frame, so the request mostly covers all
    /// the damage, which then moves out whole: clipping each rect to
    /// `rect` would keep it as it is, and subtracting it would leave
    /// nothing.
    fn take_requested(&mut self, rect: Rect) -> Option<Region> {
        if self.damage.iter().all(|r| rect.contains_rect(*r)) {
            return (!self.damage.is_empty()).then(|| std::mem::take(&mut self.damage));
        }
        let mut to_send = self.damage.clone();
        to_send.intersect_rect(rect);
        if to_send.is_empty() {
            return None;
        }
        for r in to_send.rects() {
            self.damage.subtract(*r);
        }
        Some(to_send)
    }

    /// Answers the client's pending update request from the already
    /// rendered framebuffer. Rects are encoded through `memo`, which the
    /// pump shares between all the clients it answers.
    pub(crate) fn answer_pending<'fb>(
        &mut self,
        ui: &'fb Ui,
        metrics: &ServerMetrics,
        memo: &mut EncodeMemo<'fb>,
    ) -> Option<ServerMessage> {
        // Only the area the client asked about.
        let to_send = self.take_requested(self.pending?)?;
        self.pending = None;
        let fb = ui.framebuffer();
        let mut rects = Vec::with_capacity(to_send.rect_count());
        let mut update_bytes = 0u64;
        for &r in to_send.rects() {
            let Some(update) = memo.encode(fb, r, self.format, &self.encodings) else {
                continue;
            };
            metrics.rects_sent.inc();
            metrics.payload_bytes.add(update.payload.len() as u64);
            update_bytes += update.payload.len() as u64;
            rects.push(update);
        }
        if rects.is_empty() {
            return None;
        }
        metrics.updates_sent.inc();
        metrics.update_payload_bytes.record(update_bytes);
        let seq = self.next_update_seq;
        self.next_update_seq += 1;
        self.resized = false;
        self.sent_log.push_back((seq, to_send));
        if self.sent_log.len() > RESUME_RETENTION {
            self.sent_log.pop_front();
        }
        Some(ServerMessage::Update {
            seq,
            format: self.format,
            rects,
        })
    }

    /// Announces the window's new size if it differs from the one the
    /// client was last told (the panel was recomposed). The whole screen
    /// is then owed, at the new size.
    pub(crate) fn announce_resize(&mut self, ui: &Ui) -> Option<ServerMessage> {
        if self.size == size_of(ui) {
            return None;
        }
        self.size = size_of(ui);
        self.damage = Region::from_rect(ui.framebuffer().bounds());
        // Pre-resize updates describe a dead geometry: never replay
        // them. A resume across a resize degrades to full damage.
        self.sent_log.clear();
        self.resized = true;
        Some(ServerMessage::Resize {
            width: self.size.0,
            height: self.size.1,
        })
    }
}

/// The window size of `ui`, as the wire announces it.
fn size_of(ui: &Ui) -> (u16, u16) {
    (ui.size().w as u16, ui.size().h as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::MultiServer;
    use uniint_protocol::input::InputEvent;
    use uniint_wsys::prelude::*;

    fn session() -> (Ui, MultiServer) {
        let mut ui = Ui::new(160, 120, Theme::classic(), "test-panel");
        ui.add(Button::new("Power"), Rect::new(10, 10, 60, 20));
        let mut server = MultiServer::new();
        assert_eq!(server.accept(&ui), 0);
        (ui, server)
    }

    fn connect(ui: &mut Ui, server: &mut MultiServer) {
        let replies = server.handle_message(
            ui,
            0,
            ClientMessage::Hello {
                version: 1,
                name: "t".into(),
            },
        );
        assert!(matches!(
            replies[0],
            ServerMessage::Init {
                width: 160,
                height: 120,
                ..
            }
        ));
        server.handle_message(ui, 0, ClientMessage::SetEncodings(Encoding::ALL.to_vec()));
    }

    /// What the next pump sends the one client.
    fn pump(ui: &mut Ui, server: &mut MultiServer) -> Vec<ServerMessage> {
        let mut batches = server.pump_all(ui);
        assert!(batches.len() <= 1);
        batches.pop().map(|(_, msgs)| msgs).unwrap_or_default()
    }

    /// Sends an update request, then pumps.
    fn request(
        ui: &mut Ui,
        server: &mut MultiServer,
        incremental: bool,
        rect: Rect,
    ) -> Vec<ServerMessage> {
        let replies =
            server.handle_message(ui, 0, ClientMessage::UpdateRequest { incremental, rect });
        assert!(replies.is_empty(), "a request only parks: {replies:?}");
        pump(ui, server)
    }

    #[test]
    fn hello_yields_init() {
        let (mut ui, mut server) = session();
        assert!(!server.has_session(0));
        connect(&mut ui, &mut server);
        assert!(server.has_session(0));
    }

    #[test]
    fn full_update_covers_screen() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        let replies = request(&mut ui, &mut server, false, Rect::new(0, 0, 160, 120));
        let ServerMessage::Update { rects, .. } = &replies[0] else {
            panic!("expected update, got {replies:?}");
        };
        let covered: u64 = rects.iter().map(|r| r.rect.area()).sum();
        assert_eq!(covered, 160 * 120);
    }

    #[test]
    fn incremental_update_waits_for_damage() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        // Drain the initial full screen.
        request(&mut ui, &mut server, false, Rect::new(0, 0, 160, 120));
        // Incremental request with no damage: no reply yet.
        let replies = request(&mut ui, &mut server, true, Rect::new(0, 0, 160, 120));
        assert!(replies.is_empty());
        // An input event presses the button, causing damage.
        server.handle_message(
            &mut ui,
            0,
            ClientMessage::Input(InputEvent::Pointer {
                x: 20,
                y: 20,
                buttons: uniint_protocol::input::ButtonMask::LEFT,
            }),
        );
        let replies = pump(&mut ui, &mut server);
        let ServerMessage::Update { rects, .. } = &replies[0] else {
            panic!("expected update after damage");
        };
        assert!(!rects.is_empty());
        // Damaged area is just the button, not the whole screen.
        let covered: u64 = rects.iter().map(|r| r.rect.area()).sum();
        assert!(
            covered < 160 * 120 / 2,
            "incremental should be small: {covered}"
        );
    }

    #[test]
    fn update_respects_requested_rect() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        let replies = request(&mut ui, &mut server, false, Rect::new(0, 0, 50, 50));
        let ServerMessage::Update { rects, .. } = &replies[0] else {
            panic!()
        };
        for r in rects {
            assert!(Rect::new(0, 0, 50, 50).contains_rect(r.rect));
        }
    }

    #[test]
    fn set_pixel_format_resends_everything() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        request(&mut ui, &mut server, false, Rect::new(0, 0, 160, 120));
        server.handle_message(
            &mut ui,
            0,
            ClientMessage::SetPixelFormat(PixelFormat::Mono1),
        );
        let replies = request(&mut ui, &mut server, true, Rect::new(0, 0, 160, 120));
        let ServerMessage::Update { format, rects, .. } = &replies[0] else {
            panic!("format change must resend");
        };
        assert_eq!(*format, PixelFormat::Mono1);
        let covered: u64 = rects.iter().map(|r| r.rect.area()).sum();
        assert_eq!(covered, 160 * 120);
    }

    #[test]
    fn input_reaches_widgets() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        for ev in InputEvent::click(20, 20) {
            server.handle_message(&mut ui, 0, ClientMessage::Input(ev));
        }
        let actions = ui.take_actions();
        assert_eq!(actions.len(), 1);
        assert_eq!(server.stats().inputs_injected, 2);
    }

    #[test]
    fn bell_is_forwarded() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        ui.ring_bell();
        let replies = pump(&mut ui, &mut server);
        assert!(replies.contains(&ServerMessage::Bell));
    }

    #[test]
    fn resize_notification() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        request(&mut ui, &mut server, false, Rect::new(0, 0, 160, 120));
        ui.resize(320, 240);
        ui.ring_bell();
        // The pump announces the new size in place of an update, and
        // still rings the bell.
        let replies = request(&mut ui, &mut server, true, Rect::new(0, 0, 160, 120));
        assert_eq!(
            replies,
            [
                ServerMessage::Bell,
                ServerMessage::Resize {
                    width: 320,
                    height: 240
                }
            ]
        );
        // The proxy's fresh full request gets the whole new screen, once.
        let replies = request(&mut ui, &mut server, false, Rect::new(0, 0, 320, 240));
        let ServerMessage::Update { rects, .. } = &replies[0] else {
            panic!("expected update, got {replies:?}");
        };
        let covered: u64 = rects.iter().map(|r| r.rect.area()).sum();
        assert_eq!(covered, 320 * 240);
        assert!(pump(&mut ui, &mut server).is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        request(&mut ui, &mut server, false, Rect::new(0, 0, 160, 120));
        let s = server.stats();
        assert_eq!(s.updates_sent, 1);
        assert!(s.rects_sent >= 1);
        assert!(s.payload_bytes > 0);
    }

    #[test]
    fn memo_analyses_each_rect_once() {
        use uniint_protocol::encoding::{choose_encoding, encode_rect};

        let (mut ui, _) = session();
        ui.render();
        let fb = ui.framebuffer();
        let button = Rect::new(0, 0, 80, 40);
        let all = &Encoding::ALL[..];
        let mut memo = EncodeMemo::default();
        let first = memo.encode(fb, button, PixelFormat::Rgb888, all).unwrap();
        let again = memo.encode(fb, button, PixelFormat::Rgb888, all).unwrap();
        assert_eq!(again, first);
        let (_, px) = fb.read_rect(button);
        assert_eq!(first.encoding, choose_encoding(&px, button, all));
        // Another format or encoding list reuses the rect's analysis and
        // sends the shortest payload a fresh encode of each allowed
        // encoding gives in that format.
        for (format, encodings) in [
            (PixelFormat::Rgb888, all),
            (PixelFormat::Mono1, all),
            (PixelFormat::Rgb444, all),
            (PixelFormat::Rgb888, &[Encoding::Raw][..]),
        ] {
            let update = memo.encode(fb, button, format, encodings).unwrap();
            assert_eq!(
                update.payload,
                encode_rect(&px, button, update.encoding, format)
            );
            let shortest = encodings
                .iter()
                .filter(|e| ![Encoding::CopyRect, Encoding::Hextile].contains(e))
                .map(|&e| encode_rect(&px, button, e, format).len())
                .min();
            assert_eq!(Some(update.payload.len()), shortest, "{format}");
        }
        assert_eq!(memo.analysed(), [button], "one analysis per rect");
        assert_eq!(memo.entries[0].payloads.len(), 4, "one emit per format");
        // A different rect is analysed; rects are keyed by their clip to
        // the framebuffer.
        memo.encode(fb, Rect::new(0, 0, 80, 20), PixelFormat::Rgb888, all);
        let hanging = memo.encode(fb, Rect::new(100, 100, 500, 500), PixelFormat::Rgb888, all);
        assert_eq!(hanging.unwrap().rect, Rect::new(100, 100, 60, 20));
        assert!(memo
            .encode(fb, Rect::new(500, 500, 10, 10), PixelFormat::Rgb888, all)
            .is_none());
        assert_eq!(memo.analysed().len(), 3);
    }

    /// The rect-by-rect rule the hand-over must match, with no copy into
    /// an empty account and no move for a covering request: re-add each
    /// drained rect, clip a clone of the account to the request and
    /// subtract each clipped rect. Returns what is sent, or `None` when
    /// nothing is.
    fn hand_over_rect_by_rect(
        account: &mut Region,
        drained: &Region,
        rect: Rect,
    ) -> Option<Region> {
        account.union_with(drained);
        let mut to_send = account.clone();
        to_send.intersect_rect(rect);
        if to_send.is_empty() {
            return None;
        }
        for r in to_send.rects() {
            account.subtract(*r);
        }
        Some(to_send)
    }

    /// Hands `drained` to a client whose account holds `account` and whose
    /// pending request is `rect`, and checks the update's rects, the damage
    /// left and the send log against [`hand_over_rect_by_rect`].
    fn check_hand_over(account: &Region, drained: &Region, rect: Rect) {
        let mut ui = Ui::new(160, 120, Theme::classic(), "test-panel");
        ui.render();
        let (mut c, _) = Client::open(&ui, 1);
        c.encodings = Encoding::ALL.to_vec();
        c.damage = account.clone();
        c.pending = Some(rect);
        let mut want_left = account.clone();
        let want = hand_over_rect_by_rect(&mut want_left, drained, rect);
        let metrics = ServerMetrics::new(&Registry::new());
        c.add_damage(drained);
        let update = c.answer_pending(&ui, &metrics, &mut EncodeMemo::default());
        let case = (account, drained, rect);
        assert_eq!(c.damage, want_left, "{case:?}");
        let Some(sent) = want else {
            assert_eq!(update, None, "{case:?}");
            assert_eq!(c.pending, Some(rect), "{case:?}");
            assert!(c.sent_log.is_empty(), "{case:?}");
            return;
        };
        let Some(ServerMessage::Update { seq: 1, rects, .. }) = update else {
            panic!("{case:?}: expected update 1, got {update:?}");
        };
        let got: Vec<Rect> = rects.iter().map(|r| r.rect).collect();
        assert_eq!(got, sent.rects(), "{case:?}");
        assert_eq!(c.sent_log, [(1, sent)], "{case:?}");
        assert_eq!(c.pending, None, "{case:?}");
    }

    #[test]
    fn damage_hand_over_matches_the_rect_by_rect_rule() {
        let full = Rect::new(0, 0, 160, 120);
        // Built as the framebuffer builds its damage: by `Region::add`.
        let drained = Region::from_iter([
            Rect::new(10, 10, 60, 20),
            Rect::new(40, 20, 50, 30),
            Rect::new(0, 100, 160, 20),
            Rect::new(70, 10, 4, 20),
        ]);
        let mut carved = Region::from_rect(Rect::new(0, 0, 80, 60));
        carved.subtract(Rect::new(20, 20, 10, 10));
        let square = Region::from_rect(Rect::new(30, 0, 40, 40));
        for account in [Region::new(), square, carved] {
            // The whole frame, part of the damage, none of it, and an
            // empty request.
            for rect in [
                full,
                Rect::new(30, 15, 50, 100),
                Rect::new(100, 40, 10, 10),
                Rect::new(5, 5, 0, 0),
            ] {
                check_hand_over(&account, &drained, rect);
                check_hand_over(&account, &Region::new(), rect);
            }
        }
    }

    fn arb_rect() -> impl proptest::strategy::Strategy<Value = Rect> {
        use proptest::prelude::*;
        (0i32..160, 0i32..120, 1u32..80, 1u32..60).prop_map(|(x, y, w, h)| {
            Rect::new(x, y, w, h)
                .intersect(Rect::new(0, 0, 160, 120))
                .expect("starts inside")
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random drained damage, accounts (empty, or built by `add` and
        /// then carved by `subtract`) and requests (the whole frame or a
        /// random rect).
        #[test]
        fn random_damage_hand_over_matches_the_rect_by_rect_rule(
            drained in proptest::collection::vec(arb_rect(), 0..12),
            account in proptest::collection::vec(arb_rect(), 0..4),
            carve in proptest::option::of(arb_rect()),
            rect in proptest::option::of(arb_rect()),
        ) {
            let mut account = Region::from_iter(account);
            if let Some(hole) = carve {
                account.subtract(hole);
            }
            let rect = rect.unwrap_or(Rect::new(0, 0, 160, 120));
            check_hand_over(&account, &Region::from_iter(drained), rect);
        }
    }

    #[test]
    fn nothing_before_hello_reaches_the_panel() {
        use uniint_protocol::message::DeviceHealthState;

        let (mut ui, mut server) = session();
        let early = InputEvent::click(20, 20)
            .map(ClientMessage::Input)
            .into_iter();
        for msg in early.chain([
            ClientMessage::DeviceHealth {
                device: "pda".into(),
                state: DeviceHealthState::Degraded,
            },
            ClientMessage::SetPixelFormat(PixelFormat::Mono1),
            ClientMessage::UpdateRequest {
                incremental: false,
                rect: Rect::new(0, 0, 160, 120),
            },
        ]) {
            let replies = server.handle_message(&mut ui, 0, msg);
            assert!(replies.is_empty(), "{replies:?}");
        }
        // A Resume learns there is no session to resume.
        let replies =
            server.handle_message(&mut ui, 0, ClientMessage::Resume { last_update_seq: 5 });
        assert_eq!(
            replies,
            [ServerMessage::ResumeAck {
                client_msgs_received: 0,
                replayed: false,
            }]
        );
        assert!(
            ui.take_actions().is_empty(),
            "the early click pressed nothing"
        );
        assert_eq!(server.stats().inputs_injected, 0);
        assert_eq!(server.stats().health_reports, 0);
        assert!(pump(&mut ui, &mut server).is_empty());
        assert!(!server.has_session(0));
        // The handshake then runs as usual, in the session's own format.
        connect(&mut ui, &mut server);
        let replies = request(&mut ui, &mut server, false, Rect::new(0, 0, 160, 120));
        let ServerMessage::Update { format, .. } = &replies[0] else {
            panic!("expected update, got {replies:?}");
        };
        assert_eq!(*format, PixelFormat::Rgb888);
    }

    #[test]
    fn no_client_pump_is_quiet() {
        // Accepted, but no Hello yet: not even the bell is sent.
        let (mut ui, mut server) = session();
        ui.ring_bell();
        assert!(server.pump_all(&mut ui).is_empty());
    }
}
