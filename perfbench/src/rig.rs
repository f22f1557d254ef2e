//! An in-process UniInt session: one `MultiServer` and its proxies,
//! messages handed across directly instead of over a link. `fanout`,
//! `device_mix` and the in-process half of `gateway.hop_us` drive the
//! program through it.

use std::collections::BTreeMap;
use std::time::Instant;

use uniint_core::multi::MultiServer;
use uniint_core::plugin::DeviceFrame;
use uniint_core::proxy::UniIntProxy;
use uniint_protocol::encoding::{choose_encoding, encode_rect, Encoding};
use uniint_protocol::message::{encode_server, ClientMessage, RectUpdate, ServerMessage};
use uniint_raster::color::Color;
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::Rect;
use uniint_raster::pixel::PixelFormat;
use uniint_wsys::ui::Ui;

use crate::report::Sums;
use crate::trace::span;

/// Most pump rounds one interaction may take before it counts as never
/// reaching quiescence.
const MAX_ROUNDS: usize = 64;

/// What the viewers received during one interaction.
#[derive(Debug, Default)]
pub struct Delivered {
    /// Server messages in delivery order, with the viewer they went to.
    pub messages: Vec<(usize, ServerMessage)>,
    /// Adapted device frames, with the viewer that produced them.
    pub frames: Vec<(usize, DeviceFrame)>,
}

/// The server and its viewers.
#[derive(Debug)]
pub struct Rig {
    /// The fan-out server.
    pub multi: MultiServer,
    /// The viewers, indexed by their `MultiServer` client id.
    pub proxies: Vec<UniIntProxy>,
    delivered: Delivered,
    error: Option<String>,
}

impl Rig {
    /// Accepts every proxy, runs the handshakes and settles the first
    /// full update. Plug-ins must already be attached, so each proxy
    /// negotiates its device's pixel format from the start.
    pub fn connect(ui: &mut Ui, proxies: Vec<UniIntProxy>) -> Result<Rig, String> {
        let mut multi = MultiServer::new();
        for (i, _) in proxies.iter().enumerate() {
            let id = multi.accept(ui);
            assert_eq!(id, i, "fresh server numbers clients from 0");
        }
        let mut rig = Rig {
            multi,
            proxies,
            delivered: Delivered::default(),
            error: None,
        };
        for i in 0..rig.proxies.len() {
            let hello = rig.proxies[i].connect();
            rig.deliver(ui, i, hello);
        }
        rig.settle(ui)?;
        rig.take_delivered();
        Ok(rig)
    }

    /// Hands client messages from viewer `client` to the server, and the
    /// replies back, until nothing more flows.
    pub fn deliver(&mut self, ui: &mut Ui, client: usize, msgs: Vec<ClientMessage>) {
        for m in msgs {
            // Render first so the render the server does on receipt is
            // a no-op and its cost is attributed to the window system.
            span("wsys.render", || ui.render());
            let multi = &mut self.multi;
            let replies = span("multi.handle_message", || {
                multi.handle_message(ui, client, m)
            });
            self.receive(ui, client, replies);
        }
    }

    /// Hands server messages to viewer `client`.
    pub fn receive(&mut self, ui: &mut Ui, client: usize, msgs: Vec<ServerMessage>) {
        for m in msgs {
            let proxy = &mut self.proxies[client];
            match span("proxy.handle_server", || proxy.handle_server(&m)) {
                Ok(out) => {
                    if let Some(f) = out.frame {
                        self.delivered.frames.push((client, f));
                    }
                    self.delivered.messages.push((client, m));
                    if !out.messages.is_empty() {
                        self.deliver(ui, client, out.messages);
                    }
                }
                Err(e) => {
                    self.error
                        .get_or_insert_with(|| format!("viewer {client} rejected an update: {e}"));
                }
            }
        }
    }

    /// Renders and pumps every viewer until no viewer has anything
    /// left to receive.
    pub fn settle(&mut self, ui: &mut Ui) -> Result<(), String> {
        for _ in 0..MAX_ROUNDS {
            span("wsys.render", || ui.render());
            let multi = &mut self.multi;
            let batches = span("multi.pump_all", || multi.pump_all(ui));
            if batches.is_empty() {
                return match self.error.take() {
                    Some(e) => Err(e),
                    None => Ok(()),
                };
            }
            for (id, msgs) in batches {
                self.receive(ui, id, msgs);
            }
        }
        Err(format!("no quiescence after {MAX_ROUNDS} pump rounds"))
    }

    /// Takes what the viewers received since the last call.
    pub fn take_delivered(&mut self) -> Delivered {
        std::mem::take(&mut self.delivered)
    }

    /// Feeds viewer `client` an update the server never sent.
    pub fn corrupt(&mut self, ui: &mut Ui, client: usize) {
        let bogus = bogus_update(&self.proxies[client]);
        self.receive(ui, client, vec![bogus]);
        self.take_delivered();
    }

    /// Checks that every viewer's framebuffer equals the panel reduced
    /// to that viewer's transport pixel format.
    pub fn check_viewers(&self, ui: &Ui) -> Result<(), String> {
        let mut reduced: BTreeMap<u8, Framebuffer> = BTreeMap::new();
        for (i, p) in self.proxies.iter().enumerate() {
            let fmt = p.transport_format();
            let expected = match fmt {
                PixelFormat::Rgb888 => ui.framebuffer(),
                _ => reduced
                    .entry(fmt as u8)
                    .or_insert_with(|| reduce(ui.framebuffer(), fmt)),
            };
            match p.server_frame() {
                Some(fb) if fb == expected => {}
                Some(fb) => {
                    return Err(format!(
                        "viewer {i} ({fmt:?}) digest {:016x} != panel {:016x}",
                        fb.digest(),
                        expected.digest()
                    ))
                }
                None => return Err(format!("viewer {i} has no framebuffer")),
            }
        }
        Ok(())
    }
}

/// An update no server sent: an 8×8 magenta square in the top-left
/// corner, in the proxy's transport format.
pub fn bogus_update(p: &UniIntProxy) -> ServerMessage {
    let format = p.transport_format();
    let rect = Rect::new(0, 0, 8, 8);
    let px = vec![Color::rgb(255, 0, 255); rect.area() as usize];
    ServerMessage::Update {
        seq: p.last_update_seq(),
        format,
        rects: vec![RectUpdate {
            rect,
            encoding: Encoding::Raw,
            payload: encode_rect(&px, rect, Encoding::Raw, format),
        }],
    }
}

/// The panel as a viewer in `fmt` must reconstruct it.
pub fn reduce(fb: &Framebuffer, fmt: PixelFormat) -> Framebuffer {
    let px: Vec<_> = fb.pixels().iter().map(|&c| fmt.reduce(c)).collect();
    let mut out = Framebuffer::new(fb.width(), fb.height(), Default::default());
    out.write_rect(fb.bounds(), &px);
    out
}

/// Framed server→viewer bytes of the delivered messages.
pub fn wire_bytes(d: &Delivered) -> u64 {
    d.messages
        .iter()
        .map(|(_, m)| encode_server(m).len() as u64)
        .sum()
}

/// Device-link bytes of the delivered frames (changed pixels only).
pub fn device_bytes(d: &Delivered) -> u64 {
    d.frames.iter().map(|(_, f)| f.delta_bytes() as u64).sum()
}

/// Per-layer protocol figures for one interaction, re-measured outside
/// the timed span on the exact rects the server sent.
#[derive(Debug, Default)]
struct ProtocolSample {
    /// `choose_encoding` time, nanoseconds.
    choose_ns: u64,
    /// `encode_rect` time, nanoseconds.
    encode_ns: u64,
    /// Pixels in the sent rects.
    pixels: u64,
    /// Payload bytes of the sent rects.
    payload_bytes: u64,
    /// Updates sent.
    updates: u64,
    /// Framed bytes of the updates minus their rect payloads.
    header_bytes: u64,
    /// Sent rects per encoding, in `Encoding::ALL` order.
    rects: [u64; 6],
}

/// Re-times encoder choice and encoding on the pixels of each rect the
/// server sent (read back from the panel framebuffer).
fn retime_protocol(ui: &Ui, d: &Delivered) -> ProtocolSample {
    let mut s = ProtocolSample::default();
    for (_, m) in &d.messages {
        let ServerMessage::Update { format, rects, .. } = m else {
            continue;
        };
        s.updates += 1;
        let payload: u64 = rects.iter().map(|r| r.payload.len() as u64).sum();
        s.payload_bytes += payload;
        s.header_bytes += encode_server(m).len() as u64 - payload;
        for ru in rects {
            let slot = Encoding::ALL
                .iter()
                .position(|&e| e == ru.encoding)
                .expect("every encoding is in ALL");
            s.rects[slot] += 1;
            s.pixels += ru.rect.area();
            if ru.encoding == Encoding::CopyRect {
                continue;
            }
            let (clipped, px) = ui.framebuffer().read_rect(ru.rect);
            let t0 = Instant::now();
            let enc = std::hint::black_box(choose_encoding(&px, clipped, &Encoding::ALL));
            let t1 = Instant::now();
            std::hint::black_box(encode_rect(&px, clipped, enc, *format));
            s.choose_ns += (t1 - t0).as_nanos() as u64;
            s.encode_ns += t1.elapsed().as_nanos() as u64;
        }
    }
    s
}

/// Adds one interaction's protocol re-timing and counts to `sums`.
pub fn record_protocol(ui: &Ui, d: &Delivered, sums: &mut Sums) {
    let s = retime_protocol(ui, d);
    sums.add("protocol.choose_encoding_us", s.choose_ns as f64 / 1e3);
    sums.add("protocol.encode_rect_us", s.encode_ns as f64 / 1e3);
    sums.add("server.updates", s.updates as f64);
    sums.add("sum.rects", s.rects.iter().sum::<u64>() as f64);
    sums.add("sum.pixels", s.pixels as f64);
    sums.add("sum.payload_bytes", s.payload_bytes as f64);
    sums.add("sum.header_bytes", s.header_bytes as f64);
    for (name, n) in [
        "protocol.rects.raw",
        "protocol.rects.copyrect",
        "protocol.rects.rre",
        "protocol.rects.hextile",
        "protocol.rects.rle",
        "protocol.rects.palette_rle",
    ]
    .into_iter()
    .zip(s.rects)
    {
        sums.add(name, n as f64);
    }
}

/// Turns the protocol sums into the per-update and per-pixel ratios.
pub fn protocol_ratios(sums: &Sums, layers: &mut BTreeMap<&'static str, f64>) {
    let updates = sums.get("server.updates").max(1.0);
    layers.insert("server.rects_per_update", sums.get("sum.rects") / updates);
    layers.insert(
        "server.payload_bytes_per_update",
        sums.get("sum.payload_bytes") / updates,
    );
    layers.insert(
        "protocol.header_bytes_per_update",
        sums.get("sum.header_bytes") / updates,
    );
    layers.insert(
        "protocol.payload_bytes_per_px",
        sums.get("sum.payload_bytes") / sums.get("sum.pixels").max(1.0),
    );
}
