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

/// A client's protocol state once its `Hello` arrived.
#[derive(Debug)]
struct ClientState {
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
}

/// Statistics the benchmarks read from a server.
///
/// A snapshot view reconstructed from registry counters by
/// [`MultiServer::stats`](crate::multi::MultiServer::stats).
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

/// One accepted connection of a
/// [`MultiServer`](crate::multi::MultiServer).
///
/// The server does not own the [`Ui`] — the appliance application does —
/// so every call that touches the window takes it.
#[derive(Debug)]
pub(crate) struct Client {
    /// `None` until the client's `Hello`.
    state: Option<ClientState>,
    /// Window size announced in `Init` and `Resize`.
    size: (u16, u16),
}

impl Client {
    /// A connection to a window of `ui`'s size, before its `Hello`.
    pub(crate) fn new(ui: &Ui) -> Client {
        Client {
            state: None,
            size: (ui.size().w as u16, ui.size().h as u16),
        }
    }

    /// Whether the client completed its handshake.
    pub(crate) fn has_session(&self) -> bool {
        self.state.is_some()
    }

    /// Handles one client message, possibly producing replies. Never an
    /// `Update`: a request waits for [`answer_pending`](Self::answer_pending).
    pub(crate) fn handle_message(
        &mut self,
        ui: &mut Ui,
        metrics: &ServerMetrics,
        msg: ClientMessage,
    ) -> Vec<ServerMessage> {
        // Count every client message except Resume, which sits outside
        // the session's message stream (it describes the stream itself).
        if !matches!(msg, ClientMessage::Resume { .. }) {
            if let Some(c) = &mut self.state {
                c.msgs_received += 1;
            }
        }
        match msg {
            ClientMessage::Hello { version, name: _ } => {
                let version = version.min(PROTOCOL_VERSION);
                self.state = Some(ClientState {
                    format: PixelFormat::Rgb888,
                    encodings: vec![Encoding::Raw],
                    pending: None,
                    // A new session owes the client the whole screen.
                    damage: Region::from_rect(ui.framebuffer().bounds()),
                    msgs_received: 1,
                    next_update_seq: 1,
                    sent_log: VecDeque::new(),
                });
                vec![ServerMessage::Init {
                    version,
                    width: self.size.0,
                    height: self.size.1,
                    format: PixelFormat::Rgb888,
                    name: ui.title().to_owned(),
                }]
            }
            ClientMessage::SetPixelFormat(format) => {
                if let Some(c) = &mut self.state {
                    c.format = format;
                    // Everything must be resent in the new format.
                    c.damage = Region::from_rect(ui.framebuffer().bounds());
                }
                Vec::new()
            }
            ClientMessage::SetEncodings(encs) => {
                if let Some(c) = &mut self.state {
                    c.encodings = if encs.is_empty() {
                        vec![Encoding::Raw]
                    } else {
                        encs
                    };
                }
                Vec::new()
            }
            ClientMessage::UpdateRequest { incremental, rect } => {
                if let Some(c) = &mut self.state {
                    if !incremental {
                        c.damage.add(
                            rect.intersect(ui.framebuffer().bounds())
                                .unwrap_or(Rect::EMPTY),
                        );
                    }
                    c.pending = Some(rect);
                }
                Vec::new()
            }
            ClientMessage::Input(ev) => {
                metrics.inputs_injected.inc();
                ui.dispatch(ev);
                Vec::new()
            }
            ClientMessage::CutText(_) => Vec::new(),
            ClientMessage::DeviceHealth { .. } => {
                // Telemetry only: the appliance side may surface it to the
                // user, but the session state does not depend on it.
                metrics.health_reports.inc();
                Vec::new()
            }
            ClientMessage::Resume { last_update_seq } => {
                let Some(c) = &mut self.state else {
                    // No session to resume (e.g. the server restarted);
                    // the client must fall back to a fresh Hello.
                    return vec![ServerMessage::ResumeAck {
                        client_msgs_received: 0,
                        replayed: false,
                    }];
                };
                let newest = c.next_update_seq - 1;
                let mut replayed = true;
                if last_update_seq < newest {
                    // The log must cover every update past the client's
                    // last applied one; otherwise retention was exceeded
                    // and the whole screen is owed again.
                    let covered = c
                        .sent_log
                        .front()
                        .is_some_and(|(s, _)| *s <= last_update_seq + 1);
                    if covered {
                        let ClientState {
                            sent_log, damage, ..
                        } = c;
                        for (s, region) in sent_log.iter() {
                            if *s > last_update_seq {
                                damage.union_with(region);
                            }
                        }
                    } else {
                        replayed = false;
                        c.damage = Region::from_rect(ui.framebuffer().bounds());
                    }
                }
                // Answer the re-damaged area on the next pump even if the
                // client's own UpdateRequest was among the lost messages.
                c.pending = Some(ui.framebuffer().bounds());
                let msgs_received = c.msgs_received;
                vec![
                    // Geometry may have changed while the client was gone;
                    // a same-size Resize is a no-op client-side.
                    ServerMessage::Resize {
                        width: self.size.0,
                        height: self.size.1,
                    },
                    ServerMessage::ResumeAck {
                        client_msgs_received: msgs_received,
                        replayed,
                    },
                ]
            }
        }
    }

    /// Folds window damage drained by the pump into this client's
    /// account.
    pub(crate) fn add_damage(&mut self, damage: &Region) {
        if let Some(c) = &mut self.state {
            c.damage.union_with(damage);
        }
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
        let c = self.state.as_mut()?;
        let rect = c.pending?;
        // Only the area the client asked about.
        let mut to_send = c.damage.clone();
        to_send.intersect_rect(rect);
        if to_send.is_empty() {
            return None;
        }
        for r in to_send.rects() {
            c.damage.subtract(*r);
        }
        c.pending = None;
        let fb = ui.framebuffer();
        let mut rects = Vec::with_capacity(to_send.rect_count());
        let mut update_bytes = 0u64;
        for &r in to_send.rects() {
            let Some(update) = memo.encode(fb, r, c.format, &c.encodings) else {
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
        let seq = c.next_update_seq;
        c.next_update_seq += 1;
        c.sent_log.push_back((seq, to_send));
        if c.sent_log.len() > RESUME_RETENTION {
            c.sent_log.pop_front();
        }
        Some(ServerMessage::Update {
            seq,
            format: c.format,
            rects,
        })
    }

    /// Notifies the client that the window was recomposed to a new size.
    pub(crate) fn notify_resize(&mut self, ui: &Ui) -> Option<ServerMessage> {
        self.size = (ui.size().w as u16, ui.size().h as u16);
        let c = self.state.as_mut()?;
        c.damage = Region::from_rect(ui.framebuffer().bounds());
        // Pre-resize updates describe a dead geometry: never replay
        // them. A resume across a resize degrades to full damage.
        c.sent_log.clear();
        Some(ServerMessage::Resize {
            width: self.size.0,
            height: self.size.1,
        })
    }
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
        ui.resize(320, 240);
        let replies = server.notify_resize_all(&mut ui);
        assert_eq!(
            replies,
            vec![(
                0,
                vec![ServerMessage::Resize {
                    width: 320,
                    height: 240
                }]
            )]
        );
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

    #[test]
    fn no_client_pump_is_quiet() {
        // Accepted, but no Hello yet: not even the bell is sent.
        let (mut ui, mut server) = session();
        ui.ring_bell();
        assert!(server.pump_all(&mut ui).is_empty());
    }
}
