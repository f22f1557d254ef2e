//! The socket frame codec of the gateway's two ends.
//!
//! Frames on the wire are exactly the protocol's native framing —
//! `[u32 body_len][body]` — reassembled by
//! [`uniint_protocol::message::FrameReader`] with a **configurable
//! max-frame-size bound** enforced before any allocation, so a hostile
//! or corrupted peer cannot make either end reserve memory for a length
//! field it invented. The codec also re-exports
//! [`check_hello_version`], the version check every `Hello` must pass
//! before a session is admitted.
//!
//! Both ends move bytes on non-blocking sockets with the same helpers:
//! `read_into` reads once into a connection's frame reader, `queue`
//! puts a batch behind its pending bytes (moving it in when none are
//! pending), and `write_pending` writes as much of those as the socket
//! takes now; what is left waits for `POLLOUT`. Each end encodes
//! a batch of frames into one buffer and hands it over whole, so a batch
//! that finds the pending bytes empty leaves in one `write`: a click's
//! down and up events reach the gateway in one read, and it answers them
//! with one update, not with one per event that a read between them
//! would cost.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;

pub use uniint_protocol::message::check_hello_version;
use uniint_protocol::message::FrameReader;

/// Default max frame size a gateway end accepts from an untrusted peer
/// (1 MiB — far above any real panel update, far below the 8 MiB
/// protocol ceiling).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Most bytes one socket read takes, on either end.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Reads once from `socket` into `reader`, through `scratch`. Returns
/// the bytes read (0 at end of stream), or `None` when none are ready:
/// the read would block, or a signal cut it short.
pub(crate) fn read_into(
    mut socket: &TcpStream,
    reader: &mut FrameReader,
    scratch: &mut [u8],
) -> io::Result<Option<usize>> {
    match socket.read(scratch) {
        Ok(n) => {
            reader.feed(&scratch[..n]);
            Ok(Some(n))
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Queues `batch` behind `pending`; into empty pending bytes it moves,
/// without a copy.
pub(crate) fn queue(pending: &mut VecDeque<u8>, batch: Vec<u8>) {
    if pending.is_empty() {
        *pending = batch.into();
    } else {
        pending.extend(batch);
    }
}

/// Writes as much of `pending` as `socket` takes now, and drops what it
/// wrote; once it is all written, lets go of the buffer.
///
/// # Errors
///
/// A failed write, or one that took nothing: the connection is broken.
pub(crate) fn write_pending(mut socket: &TcpStream, pending: &mut VecDeque<u8>) -> io::Result<()> {
    while !pending.is_empty() {
        match socket.write(pending.as_slices().0) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => drop(pending.drain(..n)),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) => return Err(e),
        }
    }
    *pending = VecDeque::new();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use uniint_protocol::error::ProtocolError;
    use uniint_protocol::message::{
        encode_client, encode_server, ClientMessage, ServerMessage, PROTOCOL_VERSION,
    };

    #[test]
    fn hello_version_policy() {
        assert!(check_hello_version(0).is_err());
        assert!(check_hello_version(PROTOCOL_VERSION).is_ok());
        assert!(matches!(
            check_hello_version(PROTOCOL_VERSION + 1),
            Err(ProtocolError::UnsupportedVersion { requested, supported })
                if requested == PROTOCOL_VERSION + 1 && supported == PROTOCOL_VERSION
        ));
    }

    /// Reads from `socket` until `reader` holds a whole frame.
    fn next_frame(socket: &TcpStream, reader: &mut FrameReader) -> Vec<u8> {
        let mut scratch = [0; READ_CHUNK];
        loop {
            if let Some(frame) = reader.next_frame().unwrap() {
                return frame;
            }
            match read_into(socket, reader, &mut scratch).unwrap() {
                Some(0) => panic!("peer closed early"),
                Some(_) => {}
                None => std::thread::yield_now(),
            }
        }
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            sock.set_nonblocking(true).unwrap();
            let frame = next_frame(&sock, &mut FrameReader::new());
            let msg = ClientMessage::decode_body(&mut frame.as_slice()).unwrap();
            assert_eq!(msg, ClientMessage::CutText("over tcp".into()));
            let mut pending = encode_server(&ServerMessage::Bell).into();
            write_pending(&sock, &mut pending).unwrap();
            assert!(pending.is_empty());
        });
        let sock = TcpStream::connect(addr).unwrap();
        sock.set_nonblocking(true).unwrap();
        let msg = ClientMessage::CutText("over tcp".into());
        let mut pending = VecDeque::from(encode_client(&msg));
        write_pending(&sock, &mut pending).unwrap();
        assert_eq!(pending.capacity(), 0, "the written batch was let go");
        write_pending(&sock, &mut pending).expect("an empty batch writes nothing");
        let frame = next_frame(&sock, &mut FrameReader::new());
        let msg = ServerMessage::decode_body(&mut frame.as_slice()).unwrap();
        assert_eq!(msg, ServerMessage::Bell);
        t.join().unwrap();
    }
}
