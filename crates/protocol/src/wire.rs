//! Checked big-endian wire primitives over `&[u8]`.
//!
//! Every binary parser in the workspace reads through a `&mut &[u8]`
//! cursor with these getters. Each takes its bytes off the front of the
//! cursor, or returns [`ProtocolError::Truncated`] and leaves the cursor
//! as it was, so a hostile or fragmented stream can never panic a
//! decoder. Writers append big-endian bytes to a `Vec<u8>`.

use crate::error::{ProtocolError, Result};

/// Maximum length accepted for a counted string/blob on the wire (1 MiB).
pub const MAX_BLOB: usize = 1 << 20;

/// Takes the next `N` bytes.
fn get_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N]> {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .ok_or_else(|| ProtocolError::Truncated {
            needed: N - buf.len(),
        })?;
    *buf = rest;
    Ok(*head)
}

/// Reads one byte.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    get_array(buf).map(|[b]| b)
}

/// Reads a big-endian u16.
pub fn get_u16(buf: &mut &[u8]) -> Result<u16> {
    get_array(buf).map(u16::from_be_bytes)
}

/// Reads a big-endian u32.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    get_array(buf).map(u32::from_be_bytes)
}

/// Reads a big-endian u64.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    get_array(buf).map(u64::from_be_bytes)
}

/// Takes exactly `n` bytes, where they lie in the input.
pub fn get_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    let (head, rest) = buf
        .split_at_checked(n)
        .ok_or_else(|| ProtocolError::Truncated {
            needed: n - buf.len(),
        })?;
    *buf = rest;
    Ok(head)
}

/// Reads a u32-counted UTF-8 string (lossy for invalid sequences). A
/// declared length over [`MAX_BLOB`] is rejected with
/// [`ProtocolError::FrameTooLarge`] before any allocation.
pub fn get_string(buf: &mut &[u8]) -> Result<String> {
    let len = get_u32(buf)? as usize;
    if len > MAX_BLOB {
        return Err(ProtocolError::FrameTooLarge {
            declared: len as u64,
            max: MAX_BLOB as u64,
        });
    }
    Ok(String::from_utf8_lossy(get_bytes(buf, len)?).into_owned())
}

/// Writes a u32-counted UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Reads a bool encoded as one byte (0 = false, anything else = true).
pub fn get_bool(buf: &mut &[u8]) -> Result<bool> {
    Ok(get_u8(buf)? != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut buf = Vec::new();
        put_string(&mut buf, "héllo");
        let mut rd = buf.as_slice();
        assert_eq!(get_string(&mut rd).unwrap(), "héllo");
    }

    #[test]
    fn string_length_bomb_rejected() {
        let buf = u32::MAX.to_be_bytes();
        let mut rd = buf.as_slice();
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
        // A string of exactly `MAX_BLOB` bytes decodes; `MAX_BLOB + 1` is
        // rejected with the typed error before allocation.
        let mut buf = Vec::new();
        put_string(&mut buf, &"x".repeat(MAX_BLOB));
        assert_eq!(get_string(&mut buf.as_slice()).unwrap().len(), MAX_BLOB);

        let mut buf = Vec::new();
        put_string(&mut buf, &"x".repeat(MAX_BLOB + 1));
        assert!(matches!(
            get_string(&mut buf.as_slice()),
            Err(ProtocolError::FrameTooLarge { declared, max })
                if declared == MAX_BLOB as u64 + 1 && max == MAX_BLOB as u64
        ));
    }

    #[test]
    fn oversized_declaration_beats_truncation() {
        // Garbage length field on a short buffer: the bound check fires
        // first, so no allocation is ever attempted for the bogus count.
        let mut buf = (MAX_BLOB as u32 + 1).to_be_bytes().to_vec();
        buf.push(0xff);
        assert!(matches!(
            get_string(&mut buf.as_slice()),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn get_bytes_exact() {
        let mut b: &[u8] = &[1, 2, 3];
        assert_eq!(get_bytes(&mut b, 2).unwrap(), [1, 2]);
        assert_eq!(get_u8(&mut b).unwrap(), 3);
    }

    #[test]
    fn short_reads_leave_the_cursor_where_it_was() {
        let mut b: &[u8] = &[1, 2, 3];
        assert_eq!(
            get_bytes(&mut b, 5),
            Err(ProtocolError::Truncated { needed: 2 })
        );
        assert_eq!(get_u64(&mut b), Err(ProtocolError::Truncated { needed: 5 }));
        assert_eq!(b, [1, 2, 3]);
    }

    #[test]
    fn bool_decoding() {
        let mut b: &[u8] = &[0, 1, 7];
        assert!(!get_bool(&mut b).unwrap());
        assert!(get_bool(&mut b).unwrap());
        assert!(get_bool(&mut b).unwrap());
    }
}
