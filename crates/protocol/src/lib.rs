//! # uniint-protocol
//!
//! The **universal interaction protocol** — the wire language between the
//! UniInt server (where appliance GUIs render) and the UniInt proxy (which
//! adapts them to interaction devices), reproduced from *Universal
//! Interaction with Networked Home Appliances* (ICDCS 2002).
//!
//! The paper fixes the protocol's vocabulary: **bitmap images** are the
//! universal output events and **keyboard/mouse events** the universal
//! input events, exactly as in the stateless thin-client systems the
//! authors build on (VNC, Citrix, Sun Ray). This crate provides:
//!
//! - [`input`] — universal input events ([`input::InputEvent`]);
//! - [`encoding`] — six framebuffer-update encodings (Raw, CopyRect,
//!   RRE, Hextile, RLE, PaletteRle), each rect sent in the smallest
//!   payload its client allows;
//! - [`message`] — the client/server message vocabulary with robust
//!   length-prefixed framing ([`message::FrameReader`]);
//! - [`wire`] — checked big-endian getters over `&[u8]`, through which
//!   every decoder (and the trace reader) reads its bytes;
//! - [`error`] — decoder errors that are returned, never panicked.
//!
//! ```
//! use uniint_protocol::prelude::*;
//! use uniint_raster::prelude::*;
//!
//! // Server side: encode a solid rectangle for a mono LCD client.
//! let pixels = vec![Color::WHITE; 64];
//! let rect = Rect::new(0, 0, 8, 8);
//! let enc = choose_encoding(&pixels, rect, &Encoding::ALL);
//! let payload = encode_rect(&pixels, rect, enc, PixelFormat::Mono1);
//! let mut wire_bytes = Vec::new();
//! ServerMessage::Update {
//!     seq: 1,
//!     format: PixelFormat::Mono1,
//!     rects: vec![RectUpdate { rect, encoding: enc, payload }],
//! }
//! .encode(&mut wire_bytes);
//!
//! // Client side: reassemble and decode.
//! let mut reader = FrameReader::new();
//! reader.feed(&wire_bytes);
//! let frame = reader.next_frame()?.expect("complete");
//! let msg = ServerMessage::decode_body(&mut frame.as_slice())?;
//! # let _ = msg;
//! # Ok::<(), uniint_protocol::error::ProtocolError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encoding;
pub mod error;
pub mod input;
pub mod message;
pub mod wire;

/// Convenient re-exports of the protocol surface.
pub mod prelude {
    pub use crate::encoding::{
        choose_encoding, decode_copy_rect, decode_into, decode_rect, encode_copy_rect, encode_rect,
        DecodedRect, Encoding,
    };
    pub use crate::error::ProtocolError;
    pub use crate::input::{ButtonMask, InputEvent, KeySym};
    pub use crate::message::{
        encode_client, encode_server, ClientMessage, FrameReader, RectUpdate, ServerMessage,
        PROTOCOL_VERSION,
    };
}
