//! The UniInt proxy — the paper's central component.
//!
//! The proxy replaces a thin-client *viewer*: it reconstructs the server's
//! framebuffer from protocol updates, hands frames to the currently
//! selected **output plug-in** for device-specific adaptation (scale,
//! quantize, dither), and pushes events from the currently selected
//! **input plug-in** to the server as universal keyboard/mouse events.
//! Both plug-ins can be swapped at any moment — that is the paper's
//! "dynamic change of interaction devices according to the user's
//! situation".
//!
//! Every client message the proxy originates (a switch's renegotiation,
//! a recovery's refresh, answers, input) waits in one outbox until a
//! transport drains it with [`UniIntProxy::take_outbox`] before moving
//! bytes, so no caller forwards a switch by hand. `connect`,
//! `device_input` and `handle_server` also return the drained outbox:
//! the benchmark under `perfbench/` drives a bare proxy through them.

use crate::plugin::{DeviceEvent, DeviceFrame, InputContext, InputPlugin, OutputPlugin};
use uniint_protocol::encoding::{decode_copy_rect, decode_into, Encoding};
use uniint_protocol::error::ProtocolError;
use uniint_protocol::input::InputEvent;
use uniint_protocol::message::{ClientMessage, ServerMessage, PROTOCOL_VERSION};
use uniint_raster::color::Color;
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::{Rect, Size};
use uniint_raster::pixel::PixelFormat;
use uniint_raster::scale::fit_size;
use uniint_telemetry::histogram::Histogram;
use uniint_telemetry::registry::{Counter, Registry};

/// Messages and frames produced by one proxy step.
#[derive(Debug, Default)]
pub struct ProxyOutput {
    /// The drained outbox: protocol messages for the UniInt server.
    pub messages: Vec<ClientMessage>,
    /// An adapted frame for the output device, when the display changed.
    pub frame: Option<DeviceFrame>,
    /// Whether the server rang the bell.
    pub bell: bool,
}

/// A proxy's counters at one instant, as [`UniIntProxy::stats`] reads
/// them from the `proxy.*` counters of its [`Registry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Server update messages applied.
    pub updates_applied: u64,
    /// Rectangles decoded.
    pub rects_decoded: u64,
    /// Frames adapted for the output device.
    pub frames_adapted: u64,
    /// Device events translated to universal events.
    pub events_translated: u64,
    /// Device events that produced no universal event.
    pub events_dropped: u64,
    /// Client messages retransmitted after a connection break.
    pub retransmits: u64,
    /// Stalls detected (connection found dead mid-session).
    pub stalls: u64,
    /// Reconnect attempts made under exponential backoff.
    pub backoff_attempts: u64,
    /// Successful incremental resumes (server replayed from its log).
    pub resumes: u64,
    /// Full resynchronizations: the server could not replay, or recovery
    /// discarded the cached framebuffer and requested everything again.
    pub full_resyncs: u64,
    /// Universal events merged away by pointer-move coalescing.
    pub events_coalesced: u64,
    /// Universal events dropped by the per-call flood cap.
    pub flood_dropped: u64,
}

/// Most universal events one device event may queue. A translate call
/// returning more (an event storm) is coalesced and then truncated, so a
/// misbehaving plug-in cannot grow the outgoing queue without bound.
pub const MAX_EVENTS_PER_DEVICE_EVENT: usize = 64;

/// Pre-registered metric handles for one proxy. Handles are created
/// once at construction; every update on the message/input hot paths is
/// a lock-free atomic operation.
#[derive(Debug)]
struct ProxyMetrics {
    registry: Registry,
    updates_applied: Counter,
    rects_decoded: Counter,
    frames_adapted: Counter,
    events_translated: Counter,
    events_dropped: Counter,
    retransmits: Counter,
    stalls: Counter,
    backoff_attempts: Counter,
    resumes: Counter,
    full_resyncs: Counter,
    events_coalesced: Counter,
    flood_dropped: Counter,
    rect_payload_bytes: Histogram,
    rects_per_update: Histogram,
    frame_wire_bytes: Histogram,
    events_per_device_event: Histogram,
}

impl ProxyMetrics {
    fn new(registry: Registry) -> ProxyMetrics {
        ProxyMetrics {
            updates_applied: registry.counter("proxy.updates_applied"),
            rects_decoded: registry.counter("proxy.rects_decoded"),
            frames_adapted: registry.counter("proxy.frames_adapted"),
            events_translated: registry.counter("proxy.events_translated"),
            events_dropped: registry.counter("proxy.events_dropped"),
            retransmits: registry.counter("proxy.retransmits"),
            stalls: registry.counter("proxy.stalls"),
            backoff_attempts: registry.counter("proxy.backoff_attempts"),
            resumes: registry.counter("proxy.resumes"),
            full_resyncs: registry.counter("proxy.full_resyncs"),
            events_coalesced: registry.counter("proxy.events_coalesced"),
            flood_dropped: registry.counter("proxy.flood_dropped"),
            rect_payload_bytes: registry.histogram("proxy.rect_payload_bytes"),
            rects_per_update: registry.histogram("proxy.rects_per_update"),
            frame_wire_bytes: registry.histogram("proxy.frame_wire_bytes"),
            events_per_device_event: registry.histogram("proxy.events_per_device_event"),
            registry,
        }
    }
}

/// The universal interaction proxy.
///
/// A session exists only once the server's `Init` has arrived: until
/// then the proxy holds no framebuffer, and a server message that needs
/// one (`Update`, `Resize`, `ResumeAck`) is `Malformed`.
///
/// ```
/// use uniint_core::proxy::UniIntProxy;
/// let mut proxy = UniIntProxy::new("hallway-proxy");
/// let hello = proxy.connect();
/// assert_eq!(hello.len(), 1); // Hello message for the server
/// ```
#[derive(Debug)]
pub struct UniIntProxy {
    name: String,
    state: State,
    format: PixelFormat,
    /// Client messages queued for the server, oldest first.
    outbox: Vec<ClientMessage>,
    input_plugin: Option<Box<dyn InputPlugin>>,
    output_plugin: Option<Box<dyn OutputPlugin>>,
    metrics: ProxyMetrics,
}

/// Where the proxy is in the handshake.
#[derive(Debug)]
enum State {
    /// No `Init` yet: there is no session.
    AwaitingInit,
    /// A session: the server framebuffer rebuilt from updates, and the
    /// sequence of the last update applied to it (echoed in `Resume`).
    Running { fb: Framebuffer, last_seq: u64 },
}

impl UniIntProxy {
    /// Creates a disconnected proxy with its own private registry.
    pub fn new(name: impl Into<String>) -> UniIntProxy {
        UniIntProxy::with_telemetry(name, Registry::new())
    }

    /// Creates a disconnected proxy recording into `registry` — a
    /// session shares one registry between the proxy, the server and
    /// the simulator so the export is a single coherent document.
    pub fn with_telemetry(name: impl Into<String>, registry: Registry) -> UniIntProxy {
        UniIntProxy {
            name: name.into(),
            state: State::AwaitingInit,
            format: PixelFormat::Rgb888,
            outbox: Vec::new(),
            input_plugin: None,
            output_plugin: None,
            metrics: ProxyMetrics::new(registry),
        }
    }

    /// The registry this proxy records into.
    pub fn telemetry(&self) -> &Registry {
        &self.metrics.registry
    }

    /// Proxy name (sent in the protocol hello).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the session is established (Init received).
    pub fn is_connected(&self) -> bool {
        matches!(self.state, State::Running { .. })
    }

    /// Accumulated statistics, reconstructed from the registry counters
    /// (same `Copy` struct the benchmarks have always read).
    pub fn stats(&self) -> ProxyStats {
        let m = &self.metrics;
        ProxyStats {
            updates_applied: m.updates_applied.get(),
            rects_decoded: m.rects_decoded.get(),
            frames_adapted: m.frames_adapted.get(),
            events_translated: m.events_translated.get(),
            events_dropped: m.events_dropped.get(),
            retransmits: m.retransmits.get(),
            stalls: m.stalls.get(),
            backoff_attempts: m.backoff_attempts.get(),
            resumes: m.resumes.get(),
            full_resyncs: m.full_resyncs.get(),
            events_coalesced: m.events_coalesced.get(),
            flood_dropped: m.flood_dropped.get(),
        }
    }

    /// The pixel format updates are currently transported in (the active
    /// output device's format, or the server's native format).
    pub fn transport_format(&self) -> PixelFormat {
        self.format
    }

    /// The reconstructed server framebuffer, when connected.
    pub fn server_frame(&self) -> Option<&Framebuffer> {
        match &self.state {
            State::Running { fb, .. } => Some(fb),
            State::AwaitingInit => None,
        }
    }

    /// Size of the server framebuffer, when known.
    pub fn server_size(&self) -> Option<Size> {
        self.server_frame().map(Framebuffer::size)
    }

    /// The kinds of the currently attached plug-ins `(input, output)`.
    pub fn attached(&self) -> (Option<&'static str>, Option<&'static str>) {
        (
            self.input_plugin.as_ref().map(|p| p.kind()),
            self.output_plugin.as_ref().map(|p| p.kind()),
        )
    }

    /// Takes every client message queued for the server, oldest first.
    pub fn take_outbox(&mut self) -> Vec<ClientMessage> {
        std::mem::take(&mut self.outbox)
    }

    /// Queues a client message the proxy originates.
    pub(crate) fn queue(&mut self, msg: ClientMessage) {
        self.outbox.push(msg);
    }

    /// Queues the session setup for the transport format: the format,
    /// every encoding, and a full refresh of the server framebuffer,
    /// whose bounds are `frame`.
    fn negotiate(&mut self, frame: Rect) {
        self.queue(ClientMessage::SetPixelFormat(self.format));
        self.queue(ClientMessage::SetEncodings(Encoding::ALL.to_vec()));
        self.queue(ClientMessage::UpdateRequest {
            incremental: false,
            rect: frame,
        });
    }

    /// Starts a handshake: the proxy awaits `Init`, and the outbox holds
    /// just the `Hello` to send (a new session owes nothing), drained.
    #[must_use = "the Hello is the only way the handshake starts"]
    pub fn connect(&mut self) -> Vec<ClientMessage> {
        self.state = State::AwaitingInit;
        self.outbox.clear();
        vec![self.hello()]
    }

    /// The `Hello` that names this proxy to the server.
    pub(crate) fn hello(&self) -> ClientMessage {
        ClientMessage::Hello {
            version: PROTOCOL_VERSION,
            name: self.name.clone(),
        }
    }

    /// Sequence of the last server update this session applied (0 with
    /// no session, or none applied yet).
    pub fn last_update_seq(&self) -> u64 {
        match self.state {
            State::Running { last_seq, .. } => last_seq,
            State::AwaitingInit => 0,
        }
    }

    /// Builds the reattach message after a connection break: asks the
    /// server to re-damage everything past the last applied update.
    pub(crate) fn make_resume(&self) -> ClientMessage {
        ClientMessage::Resume {
            last_update_seq: self.last_update_seq(),
        }
    }

    /// Records a detected stall (connection found dead mid-session).
    pub(crate) fn record_stall(&mut self) {
        self.metrics.stalls.inc();
        self.metrics
            .registry
            .journal()
            .record("proxy.stall", self.name.clone());
    }

    /// Records one reconnect attempt made under backoff.
    pub(crate) fn record_backoff_attempt(&mut self) {
        self.metrics.backoff_attempts.inc();
    }

    /// Records `n` client messages retransmitted after reattach.
    pub(crate) fn record_retransmits(&mut self, n: u64) {
        self.metrics.retransmits.add(n);
    }

    /// Installs (or replaces) the input plug-in. Takes effect immediately
    /// — the paper's dynamic input-device switch.
    pub fn attach_input(&mut self, plugin: Box<dyn InputPlugin>) {
        self.input_plugin = Some(plugin);
    }

    /// Removes the input plug-in (device went away).
    pub fn detach_input(&mut self) {
        self.input_plugin = None;
    }

    /// Installs (or replaces) the output plug-in and, in a session,
    /// queues its renegotiation for the new device: pixel format,
    /// encodings and a full refresh — the dynamic output switch.
    pub fn attach_output(&mut self, plugin: Box<dyn OutputPlugin>) {
        let caps = plugin.caps();
        self.output_plugin = Some(plugin);
        // Transport in the device's own format: a mono LCD session should
        // not ship 24-bit pixels over a phone link.
        self.format = caps.format;
        if let Some(frame) = self.server_frame().map(Framebuffer::bounds) {
            self.negotiate(frame);
        }
    }

    /// Removes the output plug-in.
    pub fn detach_output(&mut self) {
        self.output_plugin = None;
    }

    /// Handles one server message and returns the drained outbox with
    /// the answer in it. Update rects decode straight into the server
    /// framebuffer.
    ///
    /// # Errors
    ///
    /// `Malformed` for an `Update`, `Resize` or `ResumeAck` before
    /// `Init`. Propagates [`ProtocolError`] from rectangle decoding; a
    /// rect that does not lie inside the framebuffer, or a CopyRect whose
    /// source does not, is `Malformed`. A failed update
    /// may leave the framebuffer partly written: the caller should
    /// [`recover`](Self::recover) or tear the session down. An error
    /// leaves the outbox as it was.
    pub fn handle_server(&mut self, msg: &ServerMessage) -> Result<ProxyOutput, ProtocolError> {
        let mut out = ProxyOutput::default();
        match (&mut self.state, msg) {
            (state, ServerMessage::Init { width, height, .. }) => {
                let fb = server_framebuffer(*width, *height)?;
                let frame = fb.bounds();
                *state = State::Running { fb, last_seq: 0 };
                self.negotiate(frame);
            }
            (_, ServerMessage::Bell) => out.bell = true,
            (_, ServerMessage::CutText(_)) => {}
            // Every other message needs a session.
            (State::AwaitingInit, _) => {
                return Err(ProtocolError::Malformed("no session before init".into()));
            }
            (State::Running { fb, last_seq }, ServerMessage::Update { seq, format, rects }) => {
                *last_seq = *seq;
                let frame = fb.bounds();
                for ru in rects {
                    let mut cursor: &[u8] = &ru.payload;
                    let outside = || {
                        ProtocolError::Malformed(format!(
                            "rect {:?} outside the {}x{} frame",
                            ru.rect, frame.w, frame.h
                        ))
                    };
                    if ru.encoding == Encoding::CopyRect {
                        let from = decode_copy_rect(&mut cursor)?;
                        let src = Rect::new(from.x, from.y, ru.rect.w, ru.rect.h);
                        if !frame.contains_rect(ru.rect) || !frame.contains_rect(src) {
                            return Err(outside());
                        }
                        fb.copy_rect(src, ru.rect.origin());
                    } else {
                        let mut target = fb.rect_mut(ru.rect).ok_or_else(outside)?;
                        decode_into(&mut cursor, ru.encoding, *format, &mut target)?;
                    }
                    self.metrics.rects_decoded.inc();
                    self.metrics
                        .rect_payload_bytes
                        .record(ru.payload.len() as u64);
                }
                self.metrics.updates_applied.inc();
                self.metrics.rects_per_update.record(rects.len() as u64);
                out.frame = self.adapt_current();
                // Continuous update loop, as thin-client viewers do.
                self.outbox.push(ClientMessage::UpdateRequest {
                    incremental: true,
                    rect: frame,
                });
            }
            (State::Running { fb, .. }, ServerMessage::Resize { width, height }) => {
                let new = Size::new((*width).max(1) as u32, (*height).max(1) as u32);
                // A same-size Resize (e.g. sent defensively during resume)
                // must not blow away the cached framebuffer.
                if fb.size() != new {
                    *fb = server_framebuffer(*width, *height)?;
                    self.outbox.push(ClientMessage::UpdateRequest {
                        incremental: false,
                        rect: fb.bounds(),
                    });
                }
            }
            (State::Running { fb, .. }, ServerMessage::ResumeAck { replayed, .. }) => {
                // The server re-damaged whatever the break lost; an
                // incremental request fetches exactly that.
                self.outbox.push(ClientMessage::UpdateRequest {
                    incremental: true,
                    rect: fb.bounds(),
                });
                let (counter, detail) = if *replayed {
                    (&self.metrics.resumes, "incremental replay")
                } else {
                    (&self.metrics.full_resyncs, "full resync (log gap)")
                };
                counter.inc();
                self.metrics
                    .registry
                    .journal()
                    .record("proxy.resume", detail);
            }
        }
        out.messages = self.take_outbox();
        Ok(out)
    }

    /// Adapts the current framebuffer through the output plug-in (a forced
    /// refresh of the output device).
    pub fn adapt_current(&mut self) -> Option<DeviceFrame> {
        let State::Running { fb, .. } = &self.state else {
            return None;
        };
        let plugin = self.output_plugin.as_mut()?;
        self.metrics.frames_adapted.inc();
        let frame = plugin.adapt(fb);
        self.metrics
            .frame_wire_bytes
            .record(frame.wire_bytes as u64);
        Some(frame)
    }

    /// Recovery after a decode error: discards the (possibly corrupt)
    /// framebuffer contents and queues a request for a complete refresh.
    /// Callers should invoke this instead of tearing the session down
    /// when [`handle_server`](Self::handle_server) fails on a transport
    /// that is still alive. With no session there is nothing to recover.
    pub fn recover(&mut self) {
        let State::Running { fb, .. } = &mut self.state else {
            return;
        };
        // Blank the cache so stale pixels cannot survive a corrupt
        // update that was partially applied.
        fb.clear(Color::BLACK);
        self.metrics.full_resyncs.inc();
        self.metrics
            .registry
            .journal()
            .record("proxy.recover", "decode error: discarding cache");
        let frame = fb.bounds();
        self.negotiate(frame);
    }

    /// Translates a device-native event via the input plug-in into
    /// protocol messages for the server, queues them, and returns the
    /// drained outbox.
    #[must_use = "the outbox holds the input events for the server"]
    pub fn device_input(&mut self, ev: &DeviceEvent) -> Vec<ClientMessage> {
        let server_size = self.server_size().unwrap_or(Size::new(1, 1));
        let Some(plugin) = self.input_plugin.as_mut() else {
            self.metrics.events_dropped.inc();
            return self.take_outbox();
        };
        let device_view = match self.output_plugin.as_ref() {
            Some(out) => {
                let caps = out.caps();
                // The image shown on the device is aspect-fit; stylus
                // coordinates arrive in that fitted image's space.
                fitted_view(server_size, caps.size)
            }
            None => server_size,
        };
        let ctx = InputContext {
            server_size,
            device_view,
        };
        let events = plugin.translate(ev, &ctx);

        // Flood protection. A storming plug-in (or a high-rate stylus)
        // can return far more events than one device event warrants; the
        // queue must stay bounded. Consecutive pointer events with the
        // same button state are pure moves — only the last one matters.
        let mut queue: Vec<InputEvent> = Vec::with_capacity(events.len().min(16));
        for e in events {
            if let InputEvent::Pointer { buttons, .. } = e {
                let mergeable = matches!(
                    queue.last(),
                    Some(InputEvent::Pointer { buttons: prev, .. }) if *prev == buttons
                );
                if mergeable {
                    *queue.last_mut().expect("just matched") = e;
                    self.metrics.events_coalesced.inc();
                    continue;
                }
            }
            if queue.len() >= MAX_EVENTS_PER_DEVICE_EVENT {
                self.metrics.flood_dropped.inc();
                continue;
            }
            queue.push(e);
        }

        self.metrics
            .events_per_device_event
            .record(queue.len() as u64);
        if queue.is_empty() {
            self.metrics.events_dropped.inc();
        } else {
            self.metrics.events_translated.add(queue.len() as u64);
        }
        self.outbox
            .extend(queue.into_iter().map(ClientMessage::Input));
        self.take_outbox()
    }
}

/// A black framebuffer of the size a server message gives (a zero side
/// counts as one), or `Malformed` when that is larger than a framebuffer
/// may be: the size comes from the peer, so it must not panic the proxy
/// or make it allocate without bound.
fn server_framebuffer(width: u16, height: u16) -> Result<Framebuffer, ProtocolError> {
    let (w, h) = (width.max(1) as u32, height.max(1) as u32);
    Framebuffer::try_new(w, h, Color::BLACK)
        .ok_or_else(|| ProtocolError::Malformed(format!("server framebuffer {w}x{h} is too large")))
}

/// The size of `src` after aspect-preserving fit into `bounds`.
pub fn fitted_view(src: Size, bounds: Size) -> Size {
    if src.is_empty() || bounds.is_empty() {
        return bounds;
    }
    fit_size(src, bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::OutputCaps;
    use uniint_protocol::encoding::encode_rect;
    use uniint_protocol::input::InputEvent;
    use uniint_protocol::message::RectUpdate;
    use uniint_raster::dither::DitherMode;
    use uniint_raster::scale::{scale_to_fit, ScaleFilter};

    /// A minimal test output plug-in: quarter-size mono.
    #[derive(Debug)]
    struct TestOutput;

    impl OutputPlugin for TestOutput {
        fn kind(&self) -> &'static str {
            "test-output"
        }
        fn caps(&self) -> OutputCaps {
            OutputCaps {
                size: Size::new(80, 60),
                format: PixelFormat::Mono1,
                dither: DitherMode::None,
                scale: ScaleFilter::Nearest,
            }
        }
        fn adapt(&mut self, server_frame: &Framebuffer) -> DeviceFrame {
            let frame = scale_to_fit(server_frame, Size::new(80, 60), ScaleFilter::Nearest);
            let wire_bytes = PixelFormat::Mono1.buffer_bytes(frame.width(), frame.height());
            DeviceFrame::new(frame, PixelFormat::Mono1, wire_bytes)
        }
    }

    /// A test input plug-in mapping chars to key taps.
    #[derive(Debug)]
    struct TestInput;

    impl InputPlugin for TestInput {
        fn kind(&self) -> &'static str {
            "test-input"
        }
        fn translate(&mut self, ev: &DeviceEvent, ctx: &InputContext) -> Vec<InputEvent> {
            match ev {
                DeviceEvent::Char(c) => InputEvent::key_tap((*c).into()).to_vec(),
                DeviceEvent::StylusDown { x, y } => {
                    let (sx, sy) = ctx.to_server(*x, *y);
                    vec![InputEvent::Pointer {
                        x: sx,
                        y: sy,
                        buttons: uniint_protocol::input::ButtonMask::LEFT,
                    }]
                }
                _ => Vec::new(),
            }
        }
    }

    fn init_msg() -> ServerMessage {
        ServerMessage::Init {
            version: 1,
            width: 160,
            height: 120,
            format: PixelFormat::Rgb888,
            name: "t".into(),
        }
    }

    fn update_for(rect: Rect, color: Color, format: PixelFormat) -> ServerMessage {
        let px = vec![color; rect.area() as usize];
        let payload = encode_rect(&px, rect, Encoding::Raw, format);
        ServerMessage::Update {
            seq: 1,
            format,
            rects: vec![RectUpdate {
                rect,
                encoding: Encoding::Raw,
                payload,
            }],
        }
    }

    #[test]
    fn init_triggers_negotiation_and_full_request() {
        let mut p = UniIntProxy::new("p");
        let out = p.handle_server(&init_msg()).unwrap();
        assert!(p.is_connected());
        assert_eq!(out.messages.len(), 3);
        assert!(matches!(out.messages[0], ClientMessage::SetPixelFormat(_)));
        assert!(matches!(
            out.messages[2],
            ClientMessage::UpdateRequest {
                incremental: false,
                ..
            }
        ));
    }

    #[test]
    fn updates_rebuild_framebuffer() {
        let mut p = UniIntProxy::new("p");
        p.handle_server(&init_msg()).unwrap();
        let msg = update_for(Rect::new(0, 0, 160, 120), Color::WHITE, PixelFormat::Rgb888);
        let out = p.handle_server(&msg).unwrap();
        let fb = p.server_frame().unwrap();
        assert!(fb.pixels().iter().all(|&c| c == Color::WHITE));
        // Continuous loop: proxy immediately asks for more.
        assert!(matches!(
            out.messages.last(),
            Some(ClientMessage::UpdateRequest {
                incremental: true,
                ..
            })
        ));
    }

    #[test]
    fn oversized_init_is_malformed_not_a_panic() {
        let mut p = UniIntProxy::new("p");
        let huge = ServerMessage::Init {
            version: 1,
            width: u16::MAX,
            height: u16::MAX,
            format: PixelFormat::Rgb888,
            name: "t".into(),
        };
        let err = p.handle_server(&huge).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed(_)), "{err:?}");
        assert!(!p.is_connected());
        assert!(p.server_frame().is_none());
        p.handle_server(&init_msg()).unwrap();
        assert!(p.is_connected());
    }

    #[test]
    fn oversized_resize_is_malformed_and_keeps_the_frame() {
        let mut p = UniIntProxy::new("p");
        p.handle_server(&init_msg()).unwrap();
        let huge = ServerMessage::Resize {
            width: u16::MAX,
            height: u16::MAX,
        };
        let err = p.handle_server(&huge).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed(_)), "{err:?}");
        assert_eq!(
            p.server_frame().map(|f| f.size()),
            Some(Size::new(160, 120))
        );
    }

    #[test]
    fn before_init_only_bell_and_cut_text_are_accepted() {
        let mut p = UniIntProxy::new("p");
        for msg in [
            ServerMessage::Resize {
                width: 64,
                height: 48,
            },
            update_for(Rect::new(0, 0, 1, 1), Color::WHITE, PixelFormat::Rgb888),
            ServerMessage::ResumeAck {
                client_msgs_received: 0,
                replayed: true,
            },
            ServerMessage::ResumeAck {
                client_msgs_received: 3,
                replayed: false,
            },
            ServerMessage::Bell,
            ServerMessage::CutText("clip".into()),
        ] {
            let result = p.handle_server(&msg);
            match msg {
                ServerMessage::Update { .. }
                | ServerMessage::Resize { .. }
                | ServerMessage::ResumeAck { .. } => {
                    let err = result.unwrap_err();
                    assert!(matches!(err, ProtocolError::Malformed(_)), "{err:?}");
                }
                ServerMessage::Bell | ServerMessage::CutText(_) => {
                    let out = result.unwrap();
                    assert!(out.messages.is_empty() && out.frame.is_none(), "{msg:?}");
                    assert_eq!(out.bell, msg == ServerMessage::Bell);
                }
                ServerMessage::Init { .. } => unreachable!("Init opens the session"),
            }
            // No resume or resync counted, and no session opened.
            assert_eq!(p.stats(), ProxyStats::default(), "{msg:?}");
            assert!(!p.is_connected(), "{msg:?}");
            assert!(p.server_frame().is_none(), "{msg:?}");
            assert_eq!(p.last_update_seq(), 0, "{msg:?}");
        }
        p.handle_server(&init_msg()).unwrap();
        assert!(p.is_connected());
    }

    #[test]
    fn output_plugin_gets_adapted_frames() {
        let mut p = UniIntProxy::new("p");
        p.attach_output(Box::new(TestOutput));
        p.handle_server(&init_msg()).unwrap();
        let msg = update_for(Rect::new(0, 0, 160, 120), Color::WHITE, PixelFormat::Mono1);
        let out = p.handle_server(&msg).unwrap();
        let frame = out.frame.expect("adapted frame");
        assert_eq!(frame.frame.size(), Size::new(80, 60));
        assert_eq!(frame.format, PixelFormat::Mono1);
        assert_eq!(p.stats().frames_adapted, 1);
    }

    #[test]
    fn attach_output_queues_its_renegotiation_for_the_next_drain() {
        let mut p = UniIntProxy::new("p");
        p.attach_output(Box::new(TestOutput));
        assert!(p.take_outbox().is_empty(), "no session, nothing owed");
        p.handle_server(&init_msg()).unwrap();
        p.attach_output(Box::new(TestOutput));
        let update = update_for(Rect::new(0, 0, 8, 8), Color::WHITE, PixelFormat::Mono1);
        let msgs = p.handle_server(&update).unwrap().messages;
        // The renegotiation first, then the update's own request.
        assert_eq!(msgs[0], ClientMessage::SetPixelFormat(PixelFormat::Mono1));
        let request = |incremental| ClientMessage::UpdateRequest {
            incremental,
            rect: Rect::new(0, 0, 160, 120),
        };
        assert_eq!(msgs[2..], [request(false), request(true)], "{msgs:?}");
        // A new session owes nothing the old one queued.
        p.attach_output(Box::new(TestOutput));
        let hello = p.connect();
        assert!(
            matches!(hello[..], [ClientMessage::Hello { .. }]),
            "{hello:?}"
        );
        assert!(p.take_outbox().is_empty());
    }

    #[test]
    fn input_plugin_translates() {
        let mut p = UniIntProxy::new("p");
        p.handle_server(&init_msg()).unwrap();
        p.attach_input(Box::new(TestInput));
        let msgs = p.device_input(&DeviceEvent::Char('a'));
        assert_eq!(msgs.len(), 2, "press + release");
        assert_eq!(p.stats().events_translated, 2);
    }

    #[test]
    fn stylus_coordinates_mapped_to_server_space() {
        let mut p = UniIntProxy::new("p");
        p.attach_input(Box::new(TestInput));
        p.attach_output(Box::new(TestOutput));
        p.handle_server(&init_msg()).unwrap();
        // Device view is 80x60 (same aspect); tapping its center must land
        // at the server center.
        let msgs = p.device_input(&DeviceEvent::StylusDown { x: 40, y: 30 });
        match msgs[0] {
            ClientMessage::Input(InputEvent::Pointer { x, y, .. }) => {
                assert_eq!((x, y), (80, 60));
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_input_plugin_drops_events() {
        let mut p = UniIntProxy::new("p");
        p.handle_server(&init_msg()).unwrap();
        assert!(p.device_input(&DeviceEvent::Char('x')).is_empty());
        assert_eq!(p.stats().events_dropped, 1);
    }

    #[test]
    fn unrecognized_event_counts_dropped() {
        let mut p = UniIntProxy::new("p");
        p.handle_server(&init_msg()).unwrap();
        p.attach_input(Box::new(TestInput));
        assert!(p.device_input(&DeviceEvent::KeypadSelect).is_empty());
        assert_eq!(p.stats().events_dropped, 1);
    }

    /// Returns `n` identical-button pointer moves followed by a click.
    #[derive(Debug)]
    struct StormInput(usize);

    impl InputPlugin for StormInput {
        fn kind(&self) -> &'static str {
            "storm-input"
        }
        fn translate(&mut self, _ev: &DeviceEvent, _ctx: &InputContext) -> Vec<InputEvent> {
            let mut out: Vec<InputEvent> = (0..self.0)
                .map(|i| InputEvent::Pointer {
                    x: i as u16,
                    y: 0,
                    buttons: uniint_protocol::input::ButtonMask::NONE,
                })
                .collect();
            out.extend(InputEvent::click(5, 5));
            out
        }
    }

    #[test]
    fn pointer_moves_coalesce_to_last_position() {
        let mut p = UniIntProxy::new("p");
        p.handle_server(&init_msg()).unwrap();
        p.attach_input(Box::new(StormInput(10)));
        let msgs = p.device_input(&DeviceEvent::KeypadSelect);
        // 10 moves collapse to 1, the click's press+release survive as 2.
        assert_eq!(msgs.len(), 3);
        match msgs[0] {
            ClientMessage::Input(InputEvent::Pointer { x, .. }) => {
                assert_eq!(x, 9, "last move wins");
            }
            ref other => panic!("{other:?}"),
        }
        assert_eq!(p.stats().events_coalesced, 9);
        assert_eq!(p.stats().events_translated, 3);
        assert_eq!(p.stats().flood_dropped, 0);
    }

    #[test]
    fn event_storm_is_capped() {
        #[derive(Debug)]
        struct KeyStorm;
        impl InputPlugin for KeyStorm {
            fn kind(&self) -> &'static str {
                "key-storm"
            }
            fn translate(&mut self, _: &DeviceEvent, _: &InputContext) -> Vec<InputEvent> {
                // Keys never coalesce: the cap is the only defense.
                (0..1000)
                    .flat_map(|_| InputEvent::key_tap('x'.into()))
                    .collect()
            }
        }
        let mut p = UniIntProxy::new("p");
        p.handle_server(&init_msg()).unwrap();
        p.attach_input(Box::new(KeyStorm));
        let msgs = p.device_input(&DeviceEvent::KeypadSelect);
        assert_eq!(msgs.len(), MAX_EVENTS_PER_DEVICE_EVENT);
        assert_eq!(
            p.stats().flood_dropped,
            2000 - MAX_EVENTS_PER_DEVICE_EVENT as u64
        );
        assert_eq!(
            p.stats().events_translated,
            MAX_EVENTS_PER_DEVICE_EVENT as u64
        );
    }

    #[test]
    fn transport_format_tracks_output_caps() {
        let mut p = UniIntProxy::new("p");
        assert_eq!(p.transport_format(), PixelFormat::Rgb888);
        p.attach_output(Box::new(TestOutput));
        assert_eq!(p.transport_format(), PixelFormat::Mono1);
    }

    #[test]
    fn resize_reallocates_and_requests_full() {
        let mut p = UniIntProxy::new("p");
        p.handle_server(&init_msg()).unwrap();
        let out = p
            .handle_server(&ServerMessage::Resize {
                width: 320,
                height: 240,
            })
            .unwrap();
        assert_eq!(p.server_size(), Some(Size::new(320, 240)));
        assert!(matches!(
            out.messages[0],
            ClientMessage::UpdateRequest {
                incremental: false,
                ..
            }
        ));
    }

    #[test]
    fn bell_passes_through() {
        let mut p = UniIntProxy::new("p");
        p.handle_server(&init_msg()).unwrap();
        let out = p.handle_server(&ServerMessage::Bell).unwrap();
        assert!(out.bell);
    }

    #[test]
    fn copyrect_applies_against_cache() {
        let mut p = UniIntProxy::new("p");
        p.handle_server(&init_msg()).unwrap();
        // Paint left half white.
        let msg = update_for(Rect::new(0, 0, 80, 120), Color::WHITE, PixelFormat::Rgb888);
        p.handle_server(&msg).unwrap();
        // CopyRect the left half onto the right half.
        let cr = ServerMessage::Update {
            seq: 2,
            format: PixelFormat::Rgb888,
            rects: vec![RectUpdate {
                rect: Rect::new(80, 0, 80, 120),
                encoding: Encoding::CopyRect,
                payload: uniint_protocol::encoding::encode_copy_rect(
                    uniint_raster::geom::Point::new(0, 0),
                ),
            }],
        };
        p.handle_server(&cr).unwrap();
        let fb = p.server_frame().unwrap();
        assert_eq!(
            fb.pixel(uniint_raster::geom::Point::new(159, 60)),
            Some(Color::WHITE)
        );
    }

    #[test]
    fn attached_reports_kinds() {
        let mut p = UniIntProxy::new("p");
        assert_eq!(p.attached(), (None, None));
        p.attach_input(Box::new(TestInput));
        p.attach_output(Box::new(TestOutput));
        assert_eq!(p.attached(), (Some("test-input"), Some("test-output")));
        p.detach_input();
        p.detach_output();
        assert_eq!(p.attached(), (None, None));
    }

    #[test]
    fn fitted_view_math() {
        assert_eq!(
            fitted_view(Size::new(640, 480), Size::new(160, 160)),
            Size::new(160, 120)
        );
        assert_eq!(
            fitted_view(Size::new(100, 100), Size::new(50, 25)),
            Size::new(25, 25)
        );
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use uniint_protocol::message::RectUpdate;
    use uniint_raster::geom::Point;

    #[test]
    fn recover_before_connect_is_empty() {
        let mut p = UniIntProxy::new("p");
        p.recover();
        assert!(p.take_outbox().is_empty());
    }

    fn connected_64x48() -> UniIntProxy {
        let mut p = UniIntProxy::new("p");
        p.handle_server(&ServerMessage::Init {
            version: 1,
            width: 64,
            height: 48,
            format: PixelFormat::Rgb888,
            name: "x".into(),
        })
        .unwrap();
        p
    }

    #[test]
    fn recover_requests_full_refresh_after_corrupt_update() {
        use uniint_protocol::encoding::encode_rect;
        let mut p = connected_64x48();
        let frame = Rect::new(0, 0, 64, 48);
        let update = |seq, payload| ServerMessage::Update {
            seq,
            format: PixelFormat::Rgb888,
            rects: vec![RectUpdate {
                rect: frame,
                encoding: Encoding::Raw,
                payload,
            }],
        };
        let paint = |c| encode_rect(&[c; 64 * 48], frame, Encoding::Raw, PixelFormat::Rgb888);
        p.handle_server(&update(1, paint(Color::WHITE))).unwrap();
        // A corrupt update: truncated raw payload.
        assert!(p.handle_server(&update(2, vec![1, 2, 3])).is_err());
        p.recover();
        let msgs = p.take_outbox();
        assert_eq!(msgs.len(), 3);
        assert!(matches!(
            msgs[2],
            ClientMessage::UpdateRequest {
                incremental: false,
                ..
            }
        ));
        // The session keeps working: the refresh restores a consistent
        // screen.
        p.handle_server(&update(3, paint(Color::GREEN))).unwrap();
        let fb = p.server_frame().unwrap();
        assert!(fb.pixels().iter().all(|&c| c == Color::GREEN));
    }

    #[test]
    fn rect_partly_outside_the_frame_is_malformed() {
        use uniint_protocol::encoding::encode_rect;
        let mut p = connected_64x48();
        let before = p.server_frame().unwrap().clone();
        // Every encoding: each would have written the part inside.
        for (rect, encoding) in [
            (Rect::new(60, 40, 8, 8), Encoding::Raw),
            (Rect::new(0, 44, 64, 8), Encoding::Rre),
            (Rect::new(56, 0, 16, 16), Encoding::Hextile),
            (Rect::new(63, 0, 2, 1), Encoding::Rle),
            (Rect::new(0, 0, 65, 48), Encoding::PaletteRle),
        ] {
            let px = vec![Color::WHITE; rect.area() as usize];
            let bad = ServerMessage::Update {
                seq: 1,
                format: PixelFormat::Rgb888,
                rects: vec![RectUpdate {
                    rect,
                    encoding,
                    payload: encode_rect(&px, rect, encoding, PixelFormat::Rgb888),
                }],
            };
            let err = p.handle_server(&bad).unwrap_err();
            assert!(matches!(err, ProtocolError::Malformed(_)), "{err:?}");
            assert_eq!(p.server_frame(), Some(&before), "{encoding} wrote pixels");
        }
        // CopyRect: the destination, then the source, runs past the frame.
        for (dst, src) in [
            (Rect::new(60, 0, 8, 8), Point::new(0, 0)),
            (Rect::new(0, 0, 8, 8), Point::new(60, 44)),
        ] {
            let copy = ServerMessage::Update {
                seq: 2,
                format: PixelFormat::Rgb888,
                rects: vec![RectUpdate {
                    rect: dst,
                    encoding: Encoding::CopyRect,
                    payload: uniint_protocol::encoding::encode_copy_rect(src),
                }],
            };
            let err = p.handle_server(&copy).unwrap_err();
            assert!(matches!(err, ProtocolError::Malformed(_)), "{err:?}");
            assert_eq!(p.server_frame(), Some(&before), "copy {src:?} -> {dst:?}");
        }
        assert_eq!(p.stats().rects_decoded, 0);
        // Recovery still asks for everything again.
        p.recover();
        assert_eq!(
            p.take_outbox().last(),
            Some(&ClientMessage::UpdateRequest {
                incremental: false,
                rect: Rect::new(0, 0, 64, 48),
            })
        );
        assert!(p.is_connected());
    }

    #[test]
    fn rre_empty_subrect_outside_its_rect_is_malformed() {
        let mut p = connected_64x48();
        // One 0x1 subrect far below an 8x8 rect.
        let mut payload = vec![0, 0, 0, 1];
        payload.extend([0, 0, 0, 255, 255, 255]);
        payload.extend([0, 0, 0, 100, 0, 0, 0, 1]);
        let bad = ServerMessage::Update {
            seq: 1,
            format: PixelFormat::Rgb888,
            rects: vec![RectUpdate {
                rect: Rect::new(0, 0, 8, 8),
                encoding: Encoding::Rre,
                payload,
            }],
        };
        let err = p.handle_server(&bad).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed(_)), "{err:?}");
        assert_eq!(p.stats().rects_decoded, 0);
    }
}
