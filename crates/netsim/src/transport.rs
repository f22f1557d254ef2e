//! A live in-process transport for threaded examples: a reliable,
//! in-order duplex byte-message pipe built on `std::sync::mpsc` channels.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::Duration;

/// One end of a duplex message pipe.
#[derive(Debug)]
pub struct Pipe {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// Why a receive failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeError {
    /// The peer end was dropped.
    Disconnected,
    /// No message available (non-blocking/timeout receive).
    Empty,
}

impl core::fmt::Display for PipeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PipeError::Disconnected => f.write_str("peer disconnected"),
            PipeError::Empty => f.write_str("no message available"),
        }
    }
}

impl std::error::Error for PipeError {}

impl Pipe {
    /// Sends a message; returns false when the peer is gone.
    pub fn send(&self, msg: Vec<u8>) -> bool {
        self.tx.send(msg).is_ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Vec<u8>, PipeError> {
        self.rx.try_recv().map_err(|e| match e {
            TryRecvError::Empty => PipeError::Empty,
            TryRecvError::Disconnected => PipeError::Disconnected,
        })
    }

    /// Blocking receive with timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, PipeError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => PipeError::Empty,
            RecvTimeoutError::Disconnected => PipeError::Disconnected,
        })
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Ok(m) = self.rx.try_recv() {
            out.push(m);
        }
        out
    }
}

/// Creates a connected pair of pipes.
pub fn duplex() -> (Pipe, Pipe) {
    let (atx, brx) = channel();
    let (btx, arx) = channel();
    (Pipe { tx: atx, rx: arx }, Pipe { tx: btx, rx: brx })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_roundtrip() {
        let (a, b) = duplex();
        assert!(a.send(b"ping".to_vec()));
        assert_eq!(b.try_recv().unwrap(), b"ping");
        assert!(b.send(b"pong".to_vec()));
        assert_eq!(a.try_recv().unwrap(), b"pong");
    }

    #[test]
    fn empty_and_disconnected() {
        let (a, b) = duplex();
        assert_eq!(a.try_recv(), Err(PipeError::Empty));
        drop(b);
        assert_eq!(a.try_recv(), Err(PipeError::Disconnected));
        assert!(!a.send(vec![1]), "send to dropped peer fails");
    }

    #[test]
    fn drain_collects_all() {
        let (a, b) = duplex();
        a.send(vec![1]);
        a.send(vec![2]);
        a.send(vec![3]);
        assert_eq!(b.drain(), vec![vec![1], vec![2], vec![3]]);
        assert!(b.drain().is_empty());
    }

    #[test]
    fn works_across_threads() {
        let (a, b) = duplex();
        let handle = std::thread::spawn(move || {
            let msg = b.recv_timeout(Duration::from_secs(1)).unwrap();
            b.send(msg.iter().rev().copied().collect());
        });
        a.send(vec![1, 2, 3]);
        let back = a.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(back, vec![3, 2, 1]);
        handle.join().unwrap();
    }
}
