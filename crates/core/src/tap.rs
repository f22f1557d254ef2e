//! Session tap points for flight recording.
//!
//! A [`SessionTap`] observes every protocol message a session endpoint
//! consumes or produces, stamped with the session's notion of time. The
//! trait lives here (rather than in `uniint-trace`) so the session and
//! gateway layers can offer capture hooks without depending on the
//! recorder implementation — `uniint-trace` depends on core, implements
//! [`SessionTap`] for its writer, and hands sessions a [`SharedTap`].
//!
//! Recording semantics are **server-sided**: a [`Direction::ToServer`]
//! record is made when the server *consumes* a client message, and a
//! [`Direction::ToClient`] record when the server *produces* a reply —
//! not when the proxy happens to receive it. Messages the network drops
//! en route to the server are therefore never recorded (the server never
//! saw them), and retransmissions appear exactly as often as the server
//! processed them. Replaying the `ToServer` half into a fresh server
//! regenerates the `ToClient` half bit-for-bit, whatever the link did.

use std::sync::{Arc, Mutex};

/// Which way a recorded message was travelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// A client message, recorded at the moment the server consumed it.
    ToServer,
    /// A server message, recorded at the moment the server produced it.
    ToClient,
}

/// Observer for the protocol stream of one or more sessions.
///
/// `bytes` is a single message **body** (tag + payload), without the
/// 4-byte wire length prefix. `channel` is the host connection the
/// message travelled on, as both the gateway and a
/// [`crate::session::SimSession`] number them: a simulated session is on
/// channel 0 until its first reconnect.
pub trait SessionTap: Send {
    /// Records one message.
    fn record(&mut self, t_us: u64, channel: u32, dir: Direction, bytes: &[u8]);
}

/// A cloneable, thread-safe handle to a [`SessionTap`].
///
/// Sessions hold this by value; the gateway's state thread calls it from
/// another thread than the one that created it, hence the mutex.
#[derive(Clone)]
pub struct SharedTap {
    inner: Arc<Mutex<dyn SessionTap>>,
}

impl SharedTap {
    /// Wraps a tap implementation for sharing.
    pub fn new(tap: impl SessionTap + 'static) -> SharedTap {
        SharedTap {
            inner: Arc::new(Mutex::new(tap)),
        }
    }

    /// Records one message body through the shared tap.
    pub fn record(&self, t_us: u64, channel: u32, dir: Direction, bytes: &[u8]) {
        if let Ok(mut tap) = self.inner.lock() {
            tap.record(t_us, channel, dir, bytes);
        }
    }
}

impl std::fmt::Debug for SharedTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedTap").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Seen = Arc<Mutex<Vec<(u64, u32, Direction, usize)>>>;

    struct CountingTap {
        seen: Seen,
    }

    impl SessionTap for CountingTap {
        fn record(&mut self, t_us: u64, channel: u32, dir: Direction, bytes: &[u8]) {
            self.seen
                .lock()
                .unwrap()
                .push((t_us, channel, dir, bytes.len()));
        }
    }

    #[test]
    fn shared_tap_records_through_clones() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let tap = SharedTap::new(CountingTap { seen: seen.clone() });
        let clone = tap.clone();
        tap.record(1, 0, Direction::ToServer, &[1, 2, 3]);
        clone.record(2, 7, Direction::ToClient, &[4]);
        let seen = seen.lock().unwrap();
        assert_eq!(
            *seen,
            vec![
                (1, 0, Direction::ToServer, 3),
                (2, 7, Direction::ToClient, 1),
            ]
        );
    }
}
