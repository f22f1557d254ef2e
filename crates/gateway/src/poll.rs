//! `poll(2)` from the C library that std already links: the one wait of
//! the host on all of its sockets, and of the client on a set of
//! clients. This is the library's only unsafe code.

#![allow(unsafe_code)]

use std::os::fd::AsRawFd;
use std::time::Duration;

/// Readable, or at end of stream.
pub const POLLIN: i16 = 0x1;
/// Writable.
pub const POLLOUT: i16 = 0x4;

#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type Nfds = std::ffi::c_uint;

/// `struct pollfd`: a descriptor, the events asked for, and the events
/// `poll` found (errors and hang-ups are always reported).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: i32,
    pub events: i16,
    pub revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
}

impl PollFd {
    /// Asks for `events` on `socket`; `None` is an entry `poll` skips.
    pub fn new(socket: Option<&impl AsRawFd>, events: i16) -> PollFd {
        PollFd {
            fd: socket.map_or(-1, |s| s.as_raw_fd()),
            events,
            revents: 0,
        }
    }
}

/// Waits until an entry of `fds` is ready or `timeout` passes, rounded
/// up to whole milliseconds so that a wait for a deadline does not end
/// before it; retries when a signal interrupts it. Any other failure
/// (the kernel out of memory) sleeps out `timeout` and reports nothing
/// ready, so a caller looping on it cannot spin.
pub fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ms = i32::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(i32::MAX);
    loop {
        // SAFETY: `fds` is a valid, writable array of `struct pollfd` of
        // the length passed, and `poll` writes only their `revents`.
        if unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) } >= 0 {
            return;
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            fds.iter_mut().for_each(|f| f.revents = 0);
            std::thread::sleep(timeout);
            return;
        }
    }
}
