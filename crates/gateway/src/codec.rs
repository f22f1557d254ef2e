//! The socket frame codec of the gateway's two ends.
//!
//! Frames on the wire are exactly the protocol's native framing —
//! `[u32 body_len][body]` — reassembled by
//! [`uniint_protocol::message::FrameReader`] (on the client inside a
//! [`FramedSocket`], on the host directly) with a **configurable
//! max-frame-size bound** enforced before any allocation, so a hostile
//! or corrupted peer cannot make either end reserve memory for a length
//! field it invented. The codec also re-exports
//! [`check_hello_version`], the version check every `Hello` must pass
//! before a session is admitted.
//!
//! A [`FramedSocket`] writes client messages in batches: each is queued
//! ([`FramedSocket::queue`]) and a batch leaves with one `write_all`
//! ([`FramedSocket::send_batch`]). So a click's down and up events reach
//! the gateway in one read, and it answers them with one update, not
//! with one per event that a read between them would cost.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use uniint_protocol::error::Result as ProtocolResult;
pub use uniint_protocol::message::check_hello_version;
use uniint_protocol::message::{ClientMessage, FrameReader};

/// Default max frame size a gateway end accepts from an untrusted peer
/// (1 MiB — far above any real panel update, far below the 8 MiB
/// protocol ceiling).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Most bytes one socket read takes, on either end.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Outcome of one non-blocking read attempt on a [`FramedSocket`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStatus {
    /// `n` fresh bytes were buffered; pull frames with
    /// [`FramedSocket::next_frame`].
    Data(usize),
    /// Nothing arrived within the poll interval.
    Idle,
    /// The peer closed the connection cleanly.
    Eof,
}

/// A TCP stream with protocol framing on both directions.
///
/// Reads are polled: the socket runs with a short read timeout so the
/// owning thread can interleave reads with shutdown checks and idle
/// accounting instead of blocking forever. Writes are batched: see the
/// module docs.
#[derive(Debug)]
pub struct FramedSocket {
    stream: TcpStream,
    reader: FrameReader,
    buf: Vec<u8>,
    /// The frames queued since the last [`send_batch`](Self::send_batch).
    batch: Vec<u8>,
}

impl FramedSocket {
    /// Wraps `stream`, disabling Nagle (frames are latency-sensitive)
    /// and installing `poll` as the read timeout.
    pub fn new(
        stream: TcpStream,
        max_frame: usize,
        poll: Duration,
    ) -> std::io::Result<FramedSocket> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(poll))?;
        Ok(FramedSocket {
            stream,
            reader: FrameReader::with_max_body(max_frame),
            buf: vec![0u8; READ_CHUNK],
            batch: Vec::new(),
        })
    }

    /// The underlying stream (for `shutdown`, `peer_addr`...).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Encodes one client→server message onto the batch; nothing is
    /// written until [`send_batch`](Self::send_batch).
    pub fn queue(&mut self, msg: &ClientMessage) {
        msg.encode(&mut self.batch);
    }

    /// Writes every message queued since the last call with one
    /// `write_all` and empties the batch, also when the write fails;
    /// returns the batch size in bytes. An empty batch writes nothing.
    pub fn send_batch(&mut self) -> std::io::Result<usize> {
        if self.batch.is_empty() {
            return Ok(0);
        }
        let sent = self
            .stream
            .write_all(&self.batch)
            .map(|()| self.batch.len());
        self.batch.clear();
        sent
    }

    /// Attempts one read from the socket, feeding whatever arrives into
    /// the frame reassembler. Timeouts are reported as
    /// [`ReadStatus::Idle`], not errors.
    pub fn fill(&mut self) -> std::io::Result<ReadStatus> {
        match self.stream.read(&mut self.buf) {
            Ok(0) => Ok(ReadStatus::Eof),
            Ok(n) => {
                self.reader.feed(&self.buf[..n]);
                Ok(ReadStatus::Data(n))
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Ok(ReadStatus::Idle)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(ReadStatus::Idle),
            Err(e) => Err(e),
        }
    }

    /// The frames read so far and a writer onto the batch, at once: a
    /// reply can be queued while the frame it answers is handled.
    pub fn split(&mut self) -> (&mut FrameReader, impl FnMut(&ClientMessage) + '_) {
        let batch = &mut self.batch;
        (&mut self.reader, move |m: &ClientMessage| m.encode(batch))
    }

    /// Extracts the next complete frame body, if one is buffered.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::FrameTooLarge`](uniint_protocol::error::ProtocolError::FrameTooLarge) when the peer declares a frame
    /// beyond the configured bound; the connection should be dropped.
    pub fn next_frame(&mut self) -> ProtocolResult<Option<Vec<u8>>> {
        self.reader.next_frame()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use uniint_protocol::error::ProtocolError;
    use uniint_protocol::message::{encode_client, encode_server, ServerMessage, PROTOCOL_VERSION};

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

    #[test]
    fn frames_cross_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let mut fs =
                FramedSocket::new(sock, DEFAULT_MAX_FRAME, Duration::from_millis(20)).unwrap();
            loop {
                match fs.fill().unwrap() {
                    ReadStatus::Data(_) => {
                        if let Some(frame) = fs.next_frame().unwrap() {
                            let msg = ClientMessage::decode_body(&mut frame.as_slice()).unwrap();
                            assert_eq!(msg, ClientMessage::CutText("over tcp".into()));
                            let mut sock = fs.stream();
                            sock.write_all(&encode_server(&ServerMessage::Bell))
                                .unwrap();
                            return;
                        }
                    }
                    ReadStatus::Idle => {}
                    ReadStatus::Eof => panic!("peer closed early"),
                }
            }
        });
        let sock = TcpStream::connect(addr).unwrap();
        let mut fs = FramedSocket::new(sock, DEFAULT_MAX_FRAME, Duration::from_millis(20)).unwrap();
        let msg = ClientMessage::CutText("over tcp".into());
        fs.queue(&msg);
        assert_eq!(fs.send_batch().unwrap(), encode_client(&msg).len());
        assert_eq!(fs.send_batch().unwrap(), 0, "the batch was emptied");
        loop {
            match fs.fill().unwrap() {
                ReadStatus::Data(_) => {
                    if let Some(frame) = fs.next_frame().unwrap() {
                        let msg = ServerMessage::decode_body(&mut frame.as_slice()).unwrap();
                        assert_eq!(msg, ServerMessage::Bell);
                        break;
                    }
                }
                ReadStatus::Idle => {}
                ReadStatus::Eof => panic!("peer closed early"),
            }
        }
        t.join().unwrap();
    }

    #[test]
    fn oversized_frame_is_rejected_by_the_bound() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            // A declared 1 GiB body: only the length prefix ever ships.
            sock.write_all(&(1u32 << 30).to_be_bytes()).unwrap();
            sock
        });
        let sock = TcpStream::connect(addr).unwrap();
        let mut fs = FramedSocket::new(sock, 4096, Duration::from_millis(20)).unwrap();
        let _keep = t.join().unwrap();
        loop {
            match fs.fill().unwrap() {
                ReadStatus::Data(_) => {
                    assert!(matches!(
                        fs.next_frame(),
                        Err(ProtocolError::FrameTooLarge { .. })
                    ));
                    return;
                }
                ReadStatus::Idle => {}
                ReadStatus::Eof => panic!("expected the length prefix first"),
            }
        }
    }
}
