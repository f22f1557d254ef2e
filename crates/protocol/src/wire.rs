//! Checked big-endian wire primitives over `bytes::Buf`.
//!
//! `bytes::Buf`'s own getters panic on underflow; these helpers return
//! [`ProtocolError::Truncated`] instead so a hostile or fragmented stream
//! can never panic the decoder.

use crate::error::{ProtocolError, Result};
use bytes::{Buf, BufMut};

/// Maximum length accepted for a counted string/blob on the wire (1 MiB).
pub const MAX_BLOB: usize = 1 << 20;

/// Reads one byte.
pub fn get_u8(buf: &mut impl Buf) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(ProtocolError::Truncated { needed: 1 });
    }
    Ok(buf.get_u8())
}

/// Reads a big-endian u16.
pub fn get_u16(buf: &mut impl Buf) -> Result<u16> {
    if buf.remaining() < 2 {
        return Err(ProtocolError::Truncated {
            needed: 2 - buf.remaining(),
        });
    }
    Ok(buf.get_u16())
}

/// Reads a big-endian u32.
pub fn get_u32(buf: &mut impl Buf) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(ProtocolError::Truncated {
            needed: 4 - buf.remaining(),
        });
    }
    Ok(buf.get_u32())
}

/// Reads a big-endian u64.
pub fn get_u64(buf: &mut impl Buf) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(ProtocolError::Truncated {
            needed: 8 - buf.remaining(),
        });
    }
    Ok(buf.get_u64())
}

/// Reads exactly `n` bytes.
///
/// The declared count is validated against what the buffer actually
/// holds *before* the output vector is allocated, so a hostile length
/// field can never trigger a speculative allocation.
pub fn get_bytes(buf: &mut impl Buf, n: usize) -> Result<Vec<u8>> {
    if buf.remaining() < n {
        return Err(ProtocolError::Truncated {
            needed: n - buf.remaining(),
        });
    }
    let mut out = vec![0u8; n];
    buf.copy_to_slice(&mut out);
    Ok(out)
}

/// Reads exactly `n` bytes, additionally enforcing a caller-chosen upper
/// bound on `n`. Rejects with [`ProtocolError::FrameTooLarge`] before
/// any allocation when the declared count exceeds `max`.
pub fn get_bytes_bounded(buf: &mut impl Buf, n: usize, max: usize) -> Result<Vec<u8>> {
    if n > max {
        return Err(ProtocolError::FrameTooLarge {
            declared: n as u64,
            max: max as u64,
        });
    }
    get_bytes(buf, n)
}

/// Reads a u32-counted UTF-8 string (lossy for invalid sequences),
/// bounded by [`MAX_BLOB`].
pub fn get_string(buf: &mut impl Buf) -> Result<String> {
    get_string_bounded(buf, MAX_BLOB)
}

/// Reads a u32-counted UTF-8 string whose declared length must not
/// exceed `max`. Oversized declarations are rejected with
/// [`ProtocolError::FrameTooLarge`] before any allocation.
pub fn get_string_bounded(buf: &mut impl Buf, max: usize) -> Result<String> {
    let len = get_u32(buf)? as usize;
    let raw = get_bytes_bounded(buf, len, max)?;
    Ok(String::from_utf8_lossy(&raw).into_owned())
}

/// Writes a u32-counted UTF-8 string.
pub fn put_string(buf: &mut impl BufMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Reads a bool encoded as one byte (0 = false, anything else = true).
pub fn get_bool(buf: &mut impl Buf) -> Result<bool> {
    Ok(get_u8(buf)? != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn get_on_empty_is_truncated() {
        let mut b: &[u8] = &[];
        assert!(matches!(
            get_u8(&mut b),
            Err(ProtocolError::Truncated { .. })
        ));
        let mut b: &[u8] = &[1];
        assert!(matches!(
            get_u32(&mut b),
            Err(ProtocolError::Truncated { needed: 3 })
        ));
    }

    #[test]
    fn string_roundtrip() {
        let mut buf = BytesMut::new();
        put_string(&mut buf, "héllo");
        let mut rd = buf.freeze();
        assert_eq!(get_string(&mut rd).unwrap(), "héllo");
    }

    #[test]
    fn string_length_bomb_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(u32::MAX);
        let mut rd = buf.freeze();
        assert!(matches!(
            get_string(&mut rd),
            Err(ProtocolError::FrameTooLarge {
                declared,
                max,
            }) if declared == u32::MAX as u64 && max == MAX_BLOB as u64
        ));
    }

    #[test]
    fn bounded_reads_accept_exactly_max_and_reject_one_past() {
        // A blob of exactly `max` bytes decodes; `max + 1` is rejected
        // with the typed error before allocation.
        let max = 8usize;
        let mut buf = BytesMut::new();
        put_string(&mut buf, "12345678");
        let mut rd = buf.freeze();
        assert_eq!(get_string_bounded(&mut rd, max).unwrap(), "12345678");

        let mut buf = BytesMut::new();
        put_string(&mut buf, "123456789");
        let mut rd = buf.freeze();
        assert!(matches!(
            get_string_bounded(&mut rd, max),
            Err(ProtocolError::FrameTooLarge {
                declared: 9,
                max: 8
            })
        ));

        let mut b: &[u8] = &[1, 2, 3];
        assert_eq!(get_bytes_bounded(&mut b, 3, 3).unwrap(), vec![1, 2, 3]);
        let mut b: &[u8] = &[1, 2, 3];
        assert!(matches!(
            get_bytes_bounded(&mut b, 3, 2),
            Err(ProtocolError::FrameTooLarge {
                declared: 3,
                max: 2
            })
        ));
    }

    #[test]
    fn oversized_declaration_beats_truncation() {
        // Garbage length field on a short buffer: the bound check fires
        // first, so no allocation is ever attempted for the bogus count.
        let mut b: &[u8] = &[0xff];
        assert!(matches!(
            get_bytes_bounded(&mut b, usize::MAX, 16),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn get_bytes_exact() {
        let mut b: &[u8] = &[1, 2, 3];
        assert_eq!(get_bytes(&mut b, 2).unwrap(), vec![1, 2]);
        assert_eq!(get_u8(&mut b).unwrap(), 3);
    }

    #[test]
    fn bool_decoding() {
        let mut b: &[u8] = &[0, 1, 7];
        assert!(!get_bool(&mut b).unwrap());
        assert!(get_bool(&mut b).unwrap());
        assert!(get_bool(&mut b).unwrap());
    }
}
