//! The universal interaction protocol message vocabulary and framing.
//!
//! Every message is framed as `[u32 body_len][body]` where the body starts
//! with a one-byte tag. Length-prefixed framing keeps stream reassembly
//! trivial for transports that deliver arbitrary byte chunks.
//!
//! The vocabulary deliberately mirrors a classic thin-client protocol:
//! the *client* (UniInt proxy) sends pixel-format/encoding preferences,
//! update requests and input events; the *server* (UniInt server) sends
//! framebuffer updates, bell, clipboard and resize notifications.

use std::fmt;

use crate::encoding::Encoding;
use crate::error::{ProtocolError, Result};
use crate::input::{ButtonMask, InputEvent, KeySym};
use crate::wire;
use uniint_raster::geom::Rect;
use uniint_raster::pixel::PixelFormat;

/// Highest protocol version this implementation speaks.
pub const PROTOCOL_VERSION: u16 = 1;

/// Validates the version carried by a `Hello`.
///
/// Version 0 is garbage (the protocol starts at 1) and a version newer
/// than ours cannot be trusted to degrade; both are rejected with
/// [`ProtocolError::UnsupportedVersion`] so the caller can refuse the
/// session before any state is allocated for it.
pub fn check_hello_version(version: u16) -> Result<()> {
    if version == 0 || version > PROTOCOL_VERSION {
        return Err(ProtocolError::UnsupportedVersion {
            requested: version,
            supported: PROTOCOL_VERSION,
        });
    }
    Ok(())
}

/// Maximum accepted message body (8 MiB), a guard against hostile frames.
pub const MAX_BODY: usize = 8 * 1024 * 1024;

/// Health of an interaction device as reported by the proxy's
/// supervisor (see `core::supervisor`). The server does not act on
/// these — they are telemetry so appliances can surface "your remote is
/// misbehaving" to the user — but carrying them in-band keeps the
/// session the single ordered channel between proxy and server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceHealthState {
    /// Operating normally.
    #[default]
    Healthy,
    /// Faults or missed heartbeats observed recently.
    Degraded,
    /// Temporarily excluded from selection.
    Quarantined,
    /// Permanently removed.
    Dead,
}

impl DeviceHealthState {
    /// Stable wire id.
    pub fn wire_id(self) -> u8 {
        match self {
            DeviceHealthState::Healthy => 0,
            DeviceHealthState::Degraded => 1,
            DeviceHealthState::Quarantined => 2,
            DeviceHealthState::Dead => 3,
        }
    }

    /// Decodes a wire id.
    pub fn from_wire_id(id: u8) -> Option<DeviceHealthState> {
        match id {
            0 => Some(DeviceHealthState::Healthy),
            1 => Some(DeviceHealthState::Degraded),
            2 => Some(DeviceHealthState::Quarantined),
            3 => Some(DeviceHealthState::Dead),
            _ => None,
        }
    }
}

impl fmt::Display for DeviceHealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DeviceHealthState::Healthy => "healthy",
            DeviceHealthState::Degraded => "degraded",
            DeviceHealthState::Quarantined => "quarantined",
            DeviceHealthState::Dead => "dead",
        })
    }
}

/// One encoded rectangle inside a framebuffer update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RectUpdate {
    /// Destination rectangle in the server framebuffer.
    pub rect: Rect,
    /// Encoding of `payload`.
    pub encoding: Encoding,
    /// Encoding-specific bytes (see [`crate::encoding`]).
    pub payload: Vec<u8>,
}

/// Messages sent by the UniInt proxy (protocol client) to the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMessage {
    /// Opens a session; the first message on the wire.
    Hello {
        /// Protocol version spoken by the client.
        version: u16,
        /// Human-readable client identification.
        name: String,
    },
    /// Selects the pixel format for subsequent updates.
    SetPixelFormat(PixelFormat),
    /// Declares the encodings the client can decode, in preference order.
    /// Decoding skips the ids of encodings this side does not know; an
    /// empty list means Raw.
    SetEncodings(Vec<Encoding>),
    /// Asks for an update of `rect`; `incremental` means "only what
    /// changed since my last update".
    UpdateRequest {
        /// Only send damage since the last update when true.
        incremental: bool,
        /// Area of interest.
        rect: Rect,
    },
    /// A universal input event (key or pointer).
    Input(InputEvent),
    /// Client-side clipboard content.
    CutText(String),
    /// Reattaches after a connection break without discarding client
    /// state. `last_update_seq` is the sequence number of the last
    /// [`ServerMessage::Update`] the client applied; the server re-damages
    /// everything sent after it and answers with
    /// [`ServerMessage::ResumeAck`] so the client knows how many of its
    /// own messages were lost in flight.
    Resume {
        /// Sequence of the last update applied client-side (0 = none).
        last_update_seq: u64,
    },
    /// Health transition of an interaction device, reported by the
    /// proxy's device supervisor.
    DeviceHealth {
        /// The interaction device's id.
        device: String,
        /// Its new health state.
        state: DeviceHealthState,
    },
}

/// Messages sent by the UniInt server to the proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerMessage {
    /// Session acceptance: geometry, native pixel format and desktop name.
    Init {
        /// Negotiated protocol version.
        version: u16,
        /// Framebuffer width in pixels.
        width: u16,
        /// Framebuffer height in pixels.
        height: u16,
        /// The server's native pixel format.
        format: PixelFormat,
        /// Desktop/application name.
        name: String,
    },
    /// A batch of encoded rectangles, all encoded in `format`.
    ///
    /// Carrying the format per update (instead of RFB's implicit "current
    /// format" convention) makes mid-session `SetPixelFormat` switches
    /// race-free: updates already in flight decode with the format they
    /// were encoded in.
    Update {
        /// Monotonically increasing update sequence number (from 1).
        /// Echoed back in [`ClientMessage::Resume`] so the server knows
        /// exactly which damage a reattaching client already holds.
        seq: u64,
        /// Pixel format of every rectangle payload in this update.
        format: PixelFormat,
        /// The encoded rectangles.
        rects: Vec<RectUpdate>,
    },
    /// Ring the terminal bell (appliance beep).
    Bell,
    /// Server-side clipboard content.
    CutText(String),
    /// The server framebuffer changed size (e.g. panel recomposition).
    Resize {
        /// New width.
        width: u16,
        /// New height.
        height: u16,
    },
    /// Answer to [`ClientMessage::Resume`].
    ResumeAck {
        /// How many client messages the server had received before the
        /// break (Resume itself not counted). The client retransmits
        /// everything it sent past this count.
        client_msgs_received: u64,
        /// True when the server could replay from its retained send log;
        /// false means retention was exceeded and full damage was queued.
        replayed: bool,
    },
}

const CT_HELLO: u8 = 0;
const CT_SET_PIXEL_FORMAT: u8 = 1;
const CT_SET_ENCODINGS: u8 = 2;
const CT_UPDATE_REQUEST: u8 = 3;
const CT_KEY: u8 = 4;
const CT_POINTER: u8 = 5;
const CT_CUT_TEXT: u8 = 6;
const CT_RESUME: u8 = 7;
const CT_DEVICE_HEALTH: u8 = 8;

const ST_INIT: u8 = 0x80;
const ST_UPDATE: u8 = 0x81;
const ST_BELL: u8 = 0x82;
const ST_CUT_TEXT: u8 = 0x83;
const ST_RESIZE: u8 = 0x84;
const ST_RESUME_ACK: u8 = 0x85;

fn put_rect(out: &mut Vec<u8>, r: Rect) {
    out.extend_from_slice(&(r.x.max(0) as u16).to_be_bytes());
    out.extend_from_slice(&(r.y.max(0) as u16).to_be_bytes());
    out.extend_from_slice(&(r.w.min(u16::MAX as u32) as u16).to_be_bytes());
    out.extend_from_slice(&(r.h.min(u16::MAX as u32) as u16).to_be_bytes());
}

/// Reserves a frame's length prefix at the end of `out` and returns
/// where the frame starts; [`end_frame`] fills the prefix in.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    start
}

/// Writes the length of the body appended since [`begin_frame`]
/// returned `start` into that frame's prefix.
fn end_frame(out: &mut [u8], start: usize) {
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
}

fn get_rect(buf: &mut &[u8]) -> Result<Rect> {
    let x = wire::get_u16(buf)? as i32;
    let y = wire::get_u16(buf)? as i32;
    let w = wire::get_u16(buf)? as u32;
    let h = wire::get_u16(buf)? as u32;
    Ok(Rect::new(x, y, w, h))
}

impl ClientMessage {
    /// Appends the framed message to `out`: its 4-byte length, then
    /// its body.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = begin_frame(out);
        match self {
            ClientMessage::Hello { version, name } => {
                out.push(CT_HELLO);
                out.extend_from_slice(&version.to_be_bytes());
                wire::put_string(out, name);
            }
            ClientMessage::SetPixelFormat(f) => {
                out.push(CT_SET_PIXEL_FORMAT);
                out.push(f.wire_id());
            }
            ClientMessage::SetEncodings(encs) => {
                out.push(CT_SET_ENCODINGS);
                out.push(encs.len() as u8);
                for e in encs {
                    out.push(e.wire_id());
                }
            }
            ClientMessage::UpdateRequest { incremental, rect } => {
                out.push(CT_UPDATE_REQUEST);
                out.push(u8::from(*incremental));
                put_rect(out, *rect);
            }
            ClientMessage::Input(InputEvent::Key { down, sym }) => {
                out.push(CT_KEY);
                out.push(u8::from(*down));
                out.extend_from_slice(&sym.0.to_be_bytes());
            }
            ClientMessage::Input(InputEvent::Pointer { x, y, buttons }) => {
                out.push(CT_POINTER);
                out.push(buttons.0);
                out.extend_from_slice(&x.to_be_bytes());
                out.extend_from_slice(&y.to_be_bytes());
            }
            ClientMessage::CutText(text) => {
                out.push(CT_CUT_TEXT);
                wire::put_string(out, text);
            }
            ClientMessage::Resume { last_update_seq } => {
                out.push(CT_RESUME);
                out.extend_from_slice(&last_update_seq.to_be_bytes());
            }
            ClientMessage::DeviceHealth { device, state } => {
                out.push(CT_DEVICE_HEALTH);
                out.push(state.wire_id());
                wire::put_string(out, device);
            }
        }
        end_frame(out, start);
    }

    /// Decodes one message body (without the length prefix).
    pub fn decode_body(buf: &mut &[u8]) -> Result<ClientMessage> {
        let tag = wire::get_u8(buf)?;
        match tag {
            CT_HELLO => Ok(ClientMessage::Hello {
                version: wire::get_u16(buf)?,
                name: wire::get_string(buf)?,
            }),
            CT_SET_PIXEL_FORMAT => {
                let id = wire::get_u8(buf)?;
                PixelFormat::from_wire_id(id)
                    .map(ClientMessage::SetPixelFormat)
                    .ok_or(ProtocolError::UnknownPixelFormat(id))
            }
            CT_SET_ENCODINGS => {
                let n = wire::get_u8(buf)? as usize;
                let ids = wire::get_bytes(buf, n)?;
                // A server ignores the encodings it does not support.
                let encs = ids.iter().filter_map(|&id| Encoding::from_wire_id(id));
                Ok(ClientMessage::SetEncodings(encs.collect()))
            }
            CT_UPDATE_REQUEST => Ok(ClientMessage::UpdateRequest {
                incremental: wire::get_bool(buf)?,
                rect: get_rect(buf)?,
            }),
            CT_KEY => Ok(ClientMessage::Input(InputEvent::Key {
                down: wire::get_bool(buf)?,
                sym: KeySym(wire::get_u32(buf)?),
            })),
            CT_POINTER => {
                let buttons = ButtonMask(wire::get_u8(buf)?);
                let x = wire::get_u16(buf)?;
                let y = wire::get_u16(buf)?;
                Ok(ClientMessage::Input(InputEvent::Pointer { x, y, buttons }))
            }
            CT_CUT_TEXT => Ok(ClientMessage::CutText(wire::get_string(buf)?)),
            CT_RESUME => Ok(ClientMessage::Resume {
                last_update_seq: wire::get_u64(buf)?,
            }),
            CT_DEVICE_HEALTH => {
                let id = wire::get_u8(buf)?;
                let state = DeviceHealthState::from_wire_id(id)
                    .ok_or_else(|| ProtocolError::Malformed(format!("health state {id}")))?;
                let device = wire::get_string(buf)?;
                Ok(ClientMessage::DeviceHealth { device, state })
            }
            other => Err(ProtocolError::UnknownMessage(other)),
        }
    }
}

impl ServerMessage {
    /// Appends the framed message to `out`: its 4-byte length, then
    /// its body.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = begin_frame(out);
        match self {
            ServerMessage::Init {
                version,
                width,
                height,
                format,
                name,
            } => {
                out.push(ST_INIT);
                out.extend_from_slice(&version.to_be_bytes());
                out.extend_from_slice(&width.to_be_bytes());
                out.extend_from_slice(&height.to_be_bytes());
                out.push(format.wire_id());
                wire::put_string(out, name);
            }
            ServerMessage::Update { seq, format, rects } => {
                out.push(ST_UPDATE);
                out.extend_from_slice(&seq.to_be_bytes());
                out.push(format.wire_id());
                out.extend_from_slice(&(rects.len() as u16).to_be_bytes());
                for r in rects {
                    put_rect(out, r.rect);
                    out.push(r.encoding.wire_id());
                    out.extend_from_slice(&(r.payload.len() as u32).to_be_bytes());
                    out.extend_from_slice(&r.payload);
                }
            }
            ServerMessage::Bell => out.push(ST_BELL),
            ServerMessage::CutText(text) => {
                out.push(ST_CUT_TEXT);
                wire::put_string(out, text);
            }
            ServerMessage::Resize { width, height } => {
                out.push(ST_RESIZE);
                out.extend_from_slice(&width.to_be_bytes());
                out.extend_from_slice(&height.to_be_bytes());
            }
            ServerMessage::ResumeAck {
                client_msgs_received,
                replayed,
            } => {
                out.push(ST_RESUME_ACK);
                out.extend_from_slice(&client_msgs_received.to_be_bytes());
                out.push(u8::from(*replayed));
            }
        }
        end_frame(out, start);
    }

    /// Decodes one message body (without the length prefix).
    pub fn decode_body(buf: &mut &[u8]) -> Result<ServerMessage> {
        let tag = wire::get_u8(buf)?;
        match tag {
            ST_INIT => {
                let version = wire::get_u16(buf)?;
                let width = wire::get_u16(buf)?;
                let height = wire::get_u16(buf)?;
                let fid = wire::get_u8(buf)?;
                let format =
                    PixelFormat::from_wire_id(fid).ok_or(ProtocolError::UnknownPixelFormat(fid))?;
                let name = wire::get_string(buf)?;
                Ok(ServerMessage::Init {
                    version,
                    width,
                    height,
                    format,
                    name,
                })
            }
            ST_UPDATE => {
                let seq = wire::get_u64(buf)?;
                let fid = wire::get_u8(buf)?;
                let format =
                    PixelFormat::from_wire_id(fid).ok_or(ProtocolError::UnknownPixelFormat(fid))?;
                let n = wire::get_u16(buf)? as usize;
                let mut rects = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let rect = get_rect(buf)?;
                    let eid = wire::get_u8(buf)?;
                    let encoding =
                        Encoding::from_wire_id(eid).ok_or(ProtocolError::UnknownEncoding(eid))?;
                    let len = wire::get_u32(buf)? as usize;
                    if len > MAX_BODY {
                        return Err(ProtocolError::Malformed(format!(
                            "rect payload of {len} bytes"
                        )));
                    }
                    let payload = wire::get_bytes(buf, len)?.to_vec();
                    rects.push(RectUpdate {
                        rect,
                        encoding,
                        payload,
                    });
                }
                Ok(ServerMessage::Update { seq, format, rects })
            }
            ST_BELL => Ok(ServerMessage::Bell),
            ST_CUT_TEXT => Ok(ServerMessage::CutText(wire::get_string(buf)?)),
            ST_RESIZE => Ok(ServerMessage::Resize {
                width: wire::get_u16(buf)?,
                height: wire::get_u16(buf)?,
            }),
            ST_RESUME_ACK => Ok(ServerMessage::ResumeAck {
                client_msgs_received: wire::get_u64(buf)?,
                replayed: wire::get_bool(buf)?,
            }),
            other => Err(ProtocolError::UnknownMessage(other)),
        }
    }
}

/// Incremental stream decoder: feed byte chunks, pull whole messages.
///
/// ```
/// use uniint_protocol::message::{ClientMessage, FrameReader};
/// let mut wire_bytes = Vec::new();
/// ClientMessage::CutText("hi".into()).encode(&mut wire_bytes);
/// let mut reader = FrameReader::new();
/// reader.feed(&wire_bytes);
/// let frame = reader.next_frame().unwrap().expect("complete frame");
/// let msg = ClientMessage::decode_body(&mut frame.as_slice()).unwrap();
/// assert_eq!(msg, ClientMessage::CutText("hi".into()));
/// ```
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as frames.
    head: usize,
    max_body: usize,
}

impl Default for FrameReader {
    fn default() -> FrameReader {
        FrameReader::new()
    }
}

impl FrameReader {
    /// Creates an empty reader bounded by [`MAX_BODY`].
    pub fn new() -> FrameReader {
        FrameReader::with_max_body(MAX_BODY)
    }

    /// Creates an empty reader with a caller-chosen frame-size bound —
    /// a gateway accepting untrusted peers can run a much tighter limit
    /// than the protocol-wide [`MAX_BODY`].
    pub fn with_max_body(max_body: usize) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            head: 0,
            max_body,
        }
    }

    /// Appends raw bytes received from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Reclaim consumed space occasionally so a long-lived stream's
        // buffer does not grow without bound.
        if self.head > 4096 && self.head * 2 > self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Extracts the next complete frame body, if one is buffered.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::FrameTooLarge`] if a frame advertises a
    /// body larger than the configured bound (before any allocation for
    /// it); the stream is unrecoverable after that.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let mut rest = &self.buf[self.head..];
        let Ok(len) = wire::get_u32(&mut rest) else {
            return Ok(None);
        };
        let len = len as usize;
        if len > self.max_body {
            return Err(ProtocolError::FrameTooLarge {
                declared: len as u64,
                max: self.max_body as u64,
            });
        }
        let Ok(body) = wire::get_bytes(&mut rest, len) else {
            return Ok(None);
        };
        let body = body.to_vec();
        self.head += 4 + len;
        Ok(Some(body))
    }
}

/// Encodes any client message to a standalone byte vector.
pub fn encode_client(msg: &ClientMessage) -> Vec<u8> {
    let mut out = Vec::new();
    msg.encode(&mut out);
    out
}

/// Encodes any server message to a standalone byte vector.
pub fn encode_server(msg: &ServerMessage) -> Vec<u8> {
    let mut out = Vec::new();
    msg.encode(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client_roundtrip(msg: ClientMessage) {
        let bytes = encode_client(&msg);
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        let frame = reader.next_frame().unwrap().expect("frame");
        let got = ClientMessage::decode_body(&mut frame.as_slice()).unwrap();
        assert_eq!(got, msg);
    }

    fn server_roundtrip(msg: ServerMessage) {
        let bytes = encode_server(&msg);
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        let frame = reader.next_frame().unwrap().expect("frame");
        let got = ServerMessage::decode_body(&mut frame.as_slice()).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn client_messages_roundtrip() {
        client_roundtrip(ClientMessage::Hello {
            version: 1,
            name: "pda-proxy".into(),
        });
        client_roundtrip(ClientMessage::SetPixelFormat(PixelFormat::Gray4));
        client_roundtrip(ClientMessage::SetEncodings(Encoding::ALL.to_vec()));
        client_roundtrip(ClientMessage::UpdateRequest {
            incremental: true,
            rect: Rect::new(10, 20, 300, 200),
        });
        client_roundtrip(ClientMessage::Input(InputEvent::Key {
            down: true,
            sym: KeySym::RETURN,
        }));
        client_roundtrip(ClientMessage::Input(InputEvent::Pointer {
            x: 100,
            y: 200,
            buttons: ButtonMask::LEFT | ButtonMask::RIGHT,
        }));
        client_roundtrip(ClientMessage::CutText("クリップボード".into()));
        client_roundtrip(ClientMessage::Resume {
            last_update_seq: u64::MAX - 3,
        });
        for state in [
            DeviceHealthState::Healthy,
            DeviceHealthState::Degraded,
            DeviceHealthState::Quarantined,
            DeviceHealthState::Dead,
        ] {
            client_roundtrip(ClientMessage::DeviceHealth {
                device: "pda-1".into(),
                state,
            });
        }
    }

    #[test]
    fn bad_health_state_rejected() {
        let mut body: &[u8] = &[CT_DEVICE_HEALTH, 9, 0, 0];
        assert!(matches!(
            ClientMessage::decode_body(&mut body),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn server_messages_roundtrip() {
        server_roundtrip(ServerMessage::Init {
            version: 1,
            width: 640,
            height: 480,
            format: PixelFormat::Rgb888,
            name: "TV Control".into(),
        });
        server_roundtrip(ServerMessage::Update {
            seq: 41,
            format: PixelFormat::Gray4,
            rects: vec![
                RectUpdate {
                    rect: Rect::new(0, 0, 10, 10),
                    encoding: Encoding::Raw,
                    payload: vec![1, 2, 3],
                },
                RectUpdate {
                    rect: Rect::new(5, 5, 1, 1),
                    encoding: Encoding::Rre,
                    payload: vec![],
                },
            ],
        });
        server_roundtrip(ServerMessage::Bell);
        server_roundtrip(ServerMessage::CutText("s".into()));
        server_roundtrip(ServerMessage::Resize {
            width: 320,
            height: 240,
        });
        server_roundtrip(ServerMessage::ResumeAck {
            client_msgs_received: 17,
            replayed: true,
        });
    }

    #[test]
    fn frame_reader_handles_fragmentation() {
        let msg = ClientMessage::CutText("fragmented".into());
        let bytes = encode_client(&msg);
        let mut reader = FrameReader::new();
        for chunk in bytes.chunks(3) {
            reader.feed(chunk);
        }
        let frame = reader
            .next_frame()
            .unwrap()
            .expect("frame after all chunks");
        let got = ClientMessage::decode_body(&mut frame.as_slice()).unwrap();
        assert_eq!(got, msg);
        assert_eq!(reader.next_frame().unwrap(), None);
    }

    #[test]
    fn frame_reader_handles_coalescing() {
        let mut bytes = Vec::new();
        bytes.extend(encode_client(&ClientMessage::Input(InputEvent::Key {
            down: true,
            sym: 'a'.into(),
        })));
        bytes.extend(encode_client(&ClientMessage::Input(InputEvent::Key {
            down: false,
            sym: 'a'.into(),
        })));
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        assert!(reader.next_frame().unwrap().is_some());
        assert!(reader.next_frame().unwrap().is_some());
        assert!(reader.next_frame().unwrap().is_none());
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn frame_length_bomb_rejected() {
        let mut reader = FrameReader::new();
        reader.feed(&u32::MAX.to_be_bytes());
        assert!(matches!(
            reader.next_frame(),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn configured_bound_is_exact() {
        // A frame of exactly max_body bytes passes; one byte more is
        // rejected before the body is buffered out.
        let body = vec![CT_CUT_TEXT; 16];
        let mut ok = FrameReader::with_max_body(16);
        ok.feed(&(16u32).to_be_bytes());
        ok.feed(&body);
        assert_eq!(ok.next_frame().unwrap().unwrap().len(), 16);

        let mut too_small = FrameReader::with_max_body(15);
        too_small.feed(&(16u32).to_be_bytes());
        too_small.feed(&body);
        assert!(matches!(
            too_small.next_frame(),
            Err(ProtocolError::FrameTooLarge {
                declared: 16,
                max: 15
            })
        ));
    }

    #[test]
    fn unknown_encodings_are_skipped_in_set_encodings_but_not_in_updates() {
        let rre = Encoding::Rre.wire_id();
        let mut body: &[u8] = &[CT_SET_ENCODINGS, 3, 99, rre, 200];
        assert_eq!(
            ClientMessage::decode_body(&mut body).unwrap(),
            ClientMessage::SetEncodings(vec![Encoding::Rre])
        );
        let mut body: &[u8] = &[CT_SET_ENCODINGS, 2, 99, 200];
        assert_eq!(
            ClientMessage::decode_body(&mut body).unwrap(),
            ClientMessage::SetEncodings(Vec::new())
        );
        let mut body: &[u8] = &[CT_SET_ENCODINGS, 2, rre];
        assert!(ClientMessage::decode_body(&mut body).is_err(), "truncated");

        let update = ServerMessage::Update {
            seq: 1,
            format: PixelFormat::Rgb888,
            rects: vec![RectUpdate {
                rect: Rect::new(0, 0, 1, 1),
                encoding: Encoding::Raw,
                payload: vec![0; 3],
            }],
        };
        let mut body = encode_server(&update)[4..].to_vec();
        // Tag, seq, format and rect count, then the rect's area.
        let at = 1 + 8 + 1 + 2 + 8;
        assert_eq!(body[at], Encoding::Raw.wire_id());
        body[at] = 99;
        assert!(matches!(
            ServerMessage::decode_body(&mut body.as_slice()),
            Err(ProtocolError::UnknownEncoding(99))
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut body: &[u8] = &[0x7f];
        assert!(matches!(
            ClientMessage::decode_body(&mut body),
            Err(ProtocolError::UnknownMessage(0x7f))
        ));
        let mut body: &[u8] = &[0xff];
        assert!(matches!(
            ServerMessage::decode_body(&mut body),
            Err(ProtocolError::UnknownMessage(0xff))
        ));
    }

    #[test]
    fn truncated_body_is_error_not_panic() {
        let msg = ServerMessage::Init {
            version: 1,
            width: 640,
            height: 480,
            format: PixelFormat::Rgb888,
            name: "x".into(),
        };
        let bytes = encode_server(&msg);
        // Strip the framing and cut the body short.
        let body = &bytes[4..bytes.len() - 1];
        let mut cursor: &[u8] = body;
        assert!(ServerMessage::decode_body(&mut cursor).is_err());
    }
}
