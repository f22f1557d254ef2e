//! Pixel formats and per-pixel packing.
//!
//! The universal interaction protocol negotiates a [`PixelFormat`] per
//! session (like RFB's `SetPixelFormat`); the UniInt proxy converts the
//! server's canonical 24-bit pixels to the format an output device can
//! actually display.

use crate::color::{websafe_color, websafe_nearest, Color, Palette};

/// Wire/display pixel formats supported by the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PixelFormat {
    /// 24-bit true color, 8 bits per channel, 3 bytes per pixel.
    Rgb888,
    /// 16-bit true color, 5-6-5 bits, 2 bytes per pixel.
    Rgb565,
    /// 12-bit true color packed into 2 bytes (`0x0RGB`), typical of early
    /// PDA displays.
    Rgb444,
    /// 8-bit grayscale.
    Gray8,
    /// 4-bit grayscale, two pixels per byte (high nibble first).
    Gray4,
    /// 1-bit monochrome, eight pixels per byte (MSB first).
    Mono1,
    /// 8-bit palette indices (palette carried out of band).
    Indexed8,
}

impl PixelFormat {
    /// All formats, useful for exhaustive tests.
    pub const ALL: [PixelFormat; 7] = [
        PixelFormat::Rgb888,
        PixelFormat::Rgb565,
        PixelFormat::Rgb444,
        PixelFormat::Gray8,
        PixelFormat::Gray4,
        PixelFormat::Mono1,
        PixelFormat::Indexed8,
    ];

    /// Bits needed per pixel.
    pub const fn bits_per_pixel(self) -> u32 {
        match self {
            PixelFormat::Rgb888 => 24,
            PixelFormat::Rgb565 => 16,
            PixelFormat::Rgb444 => 16, // packed in 2 bytes
            PixelFormat::Gray8 | PixelFormat::Indexed8 => 8,
            PixelFormat::Gray4 => 4,
            PixelFormat::Mono1 => 1,
        }
    }

    /// Whether the format is true color (no palette needed).
    pub const fn is_true_color(self) -> bool {
        !matches!(self, PixelFormat::Indexed8)
    }

    /// Number of distinct colors representable.
    pub const fn color_count(self) -> u32 {
        match self {
            PixelFormat::Rgb888 => 1 << 24,
            PixelFormat::Rgb565 => 1 << 16,
            PixelFormat::Rgb444 => 1 << 12,
            PixelFormat::Gray8 | PixelFormat::Indexed8 => 256,
            PixelFormat::Gray4 => 16,
            PixelFormat::Mono1 => 2,
        }
    }

    /// Bytes required for a `w`-pixel row (rows are byte-aligned).
    pub const fn row_bytes(self, w: u32) -> usize {
        (w as usize * self.bits_per_pixel() as usize).div_ceil(8)
    }

    /// Bytes required for a `w`×`h` raster.
    pub const fn buffer_bytes(self, w: u32, h: u32) -> usize {
        self.row_bytes(w) * h as usize
    }

    /// A stable wire identifier for format negotiation.
    pub const fn wire_id(self) -> u8 {
        match self {
            PixelFormat::Rgb888 => 0,
            PixelFormat::Rgb565 => 1,
            PixelFormat::Rgb444 => 2,
            PixelFormat::Gray8 => 3,
            PixelFormat::Gray4 => 4,
            PixelFormat::Mono1 => 5,
            PixelFormat::Indexed8 => 6,
        }
    }

    /// Inverse of [`wire_id`](Self::wire_id).
    pub const fn from_wire_id(id: u8) -> Option<PixelFormat> {
        match id {
            0 => Some(PixelFormat::Rgb888),
            1 => Some(PixelFormat::Rgb565),
            2 => Some(PixelFormat::Rgb444),
            3 => Some(PixelFormat::Gray8),
            4 => Some(PixelFormat::Gray4),
            5 => Some(PixelFormat::Mono1),
            6 => Some(PixelFormat::Indexed8),
            _ => None,
        }
    }

    /// Reduces `c` to the nearest color representable in this format
    /// (identity for `Rgb888`; `Indexed8` requires the session palette and
    /// uses web-safe here as the documented default).
    #[inline]
    pub fn reduce(self, c: Color) -> Color {
        match self {
            PixelFormat::Rgb888 => c,
            PixelFormat::Rgb565 => {
                let r = c.r & 0xf8;
                let g = c.g & 0xfc;
                let b = c.b & 0xf8;
                // Replicate high bits into low bits so white stays white.
                Color::rgb(r | (r >> 5), g | (g >> 6), b | (b >> 5))
            }
            PixelFormat::Rgb444 => {
                let r = c.r & 0xf0;
                let g = c.g & 0xf0;
                let b = c.b & 0xf0;
                Color::rgb(r | (r >> 4), g | (g >> 4), b | (b >> 4))
            }
            PixelFormat::Gray8 => Color::gray(c.luma()),
            PixelFormat::Gray4 => {
                let l = c.luma() & 0xf0;
                Color::gray(l | (l >> 4))
            }
            PixelFormat::Mono1 => {
                if c.luma() >= 128 {
                    Color::WHITE
                } else {
                    Color::BLACK
                }
            }
            PixelFormat::Indexed8 => websafe_color(websafe_nearest(c)),
        }
    }
}

impl core::fmt::Display for PixelFormat {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            PixelFormat::Rgb888 => "rgb888",
            PixelFormat::Rgb565 => "rgb565",
            PixelFormat::Rgb444 => "rgb444",
            PixelFormat::Gray8 => "gray8",
            PixelFormat::Gray4 => "gray4",
            PixelFormat::Mono1 => "mono1",
            PixelFormat::Indexed8 => "indexed8",
        };
        f.write_str(s)
    }
}

/// Packs a row of canonical colors into `format` bytes, appending to `out`.
pub fn pack_row(format: PixelFormat, row: &[Color], palette: Option<&Palette>, out: &mut Vec<u8>) {
    match format {
        PixelFormat::Rgb888 => {
            for c in row {
                out.extend_from_slice(&[c.r, c.g, c.b]);
            }
        }
        PixelFormat::Rgb565 => {
            for c in row {
                let v: u16 =
                    (((c.r as u16) >> 3) << 11) | (((c.g as u16) >> 2) << 5) | ((c.b as u16) >> 3);
                out.extend_from_slice(&v.to_be_bytes());
            }
        }
        PixelFormat::Rgb444 => {
            for c in row {
                let v: u16 =
                    (((c.r as u16) >> 4) << 8) | (((c.g as u16) >> 4) << 4) | ((c.b as u16) >> 4);
                out.extend_from_slice(&v.to_be_bytes());
            }
        }
        PixelFormat::Gray8 => {
            for c in row {
                out.push(c.luma());
            }
        }
        PixelFormat::Gray4 => {
            let mut i = 0;
            while i < row.len() {
                let hi = row[i].luma() >> 4;
                let lo = if i + 1 < row.len() {
                    row[i + 1].luma() >> 4
                } else {
                    0
                };
                out.push((hi << 4) | lo);
                i += 2;
            }
        }
        PixelFormat::Mono1 => {
            // A byte at a time: eight pixels' bits, most significant first.
            let bits = |px: &[Color]| {
                px.iter()
                    .fold(0u8, |byte, c| (byte << 1) | u8::from(c.luma() >= 128))
            };
            let mut bytes = row.chunks_exact(8);
            out.extend(bytes.by_ref().map(bits));
            let tail = bytes.remainder();
            if !tail.is_empty() {
                out.push(bits(tail) << (8 - tail.len()));
            }
        }
        PixelFormat::Indexed8 => match palette {
            Some(pal) => out.extend(row.iter().map(|&c| pal.nearest(c))),
            None => out.extend(row.iter().map(|&c| websafe_nearest(c))),
        },
    }
}

/// Unpacks a row of `w` pixels from `format` bytes.
///
/// Returns `None` if `bytes` is too short for `w` pixels.
pub fn unpack_row(
    format: PixelFormat,
    bytes: &[u8],
    w: usize,
    palette: Option<&Palette>,
) -> Option<Vec<Color>> {
    // Checked before allocating, so a short buffer costs nothing.
    if bytes.len() < format.row_bytes(w as u32) {
        return None;
    }
    let mut row = vec![Color::BLACK; w];
    unpack_row_into(format, bytes, &mut row, palette)?;
    Some(row)
}

/// Unpacks `out.len()` pixels from `format` bytes into `out`, allocating
/// nothing.
///
/// Returns `None`, and leaves `out` as it was, if `bytes` is too short.
pub fn unpack_row_into(
    format: PixelFormat,
    bytes: &[u8],
    out: &mut [Color],
    palette: Option<&Palette>,
) -> Option<()> {
    if bytes.len() < format.row_bytes(out.len() as u32) {
        return None;
    }
    match format {
        PixelFormat::Rgb888 => {
            for (o, &px) in out.iter_mut().zip(bytes.as_chunks().0) {
                *o = rgb888(px);
            }
        }
        PixelFormat::Rgb565 => {
            for (o, &px) in out.iter_mut().zip(bytes.as_chunks().0) {
                *o = rgb565(px);
            }
        }
        PixelFormat::Rgb444 => {
            for (o, &px) in out.iter_mut().zip(bytes.as_chunks().0) {
                *o = rgb444(px);
            }
        }
        PixelFormat::Gray8 => {
            for (o, &v) in out.iter_mut().zip(bytes) {
                *o = Color::gray(v);
            }
        }
        PixelFormat::Gray4 => {
            for (i, o) in out.iter_mut().enumerate() {
                let byte = bytes[i / 2];
                *o = gray4(if i % 2 == 0 { byte >> 4 } else { byte & 0x0f });
            }
        }
        PixelFormat::Mono1 => {
            // A byte at a time: its eight pixels, most significant bit
            // first, stored as one array.
            let pixel = |byte: u8, i: usize| mono1(byte >> (7 - i));
            let last = bytes.get(out.len() / 8).copied();
            let mut whole = out.chunks_exact_mut(8);
            for (px, &byte) in whole.by_ref().zip(bytes) {
                let px: &mut [Color; 8] = px.try_into().expect("chunks of 8");
                *px = std::array::from_fn(|i| pixel(byte, i));
            }
            let tail = whole.into_remainder();
            if let Some(byte) = last {
                for (i, o) in tail.iter_mut().enumerate() {
                    *o = pixel(byte, i);
                }
            }
        }
        PixelFormat::Indexed8 => {
            for (o, &v) in out.iter_mut().zip(bytes) {
                *o = indexed8(v, palette);
            }
        }
    }
    Some(())
}

/// The first pixel of `format` bytes, read as a row of one pixel is
/// packed: a sub-byte format's pixel is the first byte's high bits. The
/// one-pixel reader of [`unpack_row_into`], through the same per-format
/// layouts, for a pixel that stands alone in a record.
///
/// Returns `None` if `bytes` is shorter than one pixel.
#[inline(always)]
pub fn unpack_pixel(format: PixelFormat, bytes: &[u8], palette: Option<&Palette>) -> Option<Color> {
    Some(match format {
        PixelFormat::Rgb888 => rgb888(*bytes.first_chunk()?),
        PixelFormat::Rgb565 => rgb565(*bytes.first_chunk()?),
        PixelFormat::Rgb444 => rgb444(*bytes.first_chunk()?),
        PixelFormat::Gray8 => Color::gray(*bytes.first()?),
        PixelFormat::Gray4 => gray4(bytes.first()? >> 4),
        PixelFormat::Mono1 => mono1(bytes.first()? >> 7),
        PixelFormat::Indexed8 => indexed8(*bytes.first()?, palette),
    })
}

// The per-format pixel layouts, which both readers above share.

#[inline(always)]
fn rgb888([r, g, b]: [u8; 3]) -> Color {
    Color::rgb(r, g, b)
}

#[inline(always)]
fn rgb565(px: [u8; 2]) -> Color {
    let v = u16::from_be_bytes(px);
    let r = ((v >> 11) as u8) << 3;
    let g = ((v >> 5) as u8 & 0x3f) << 2;
    let b = (v as u8 & 0x1f) << 3;
    Color::rgb(r | (r >> 5), g | (g >> 6), b | (b >> 5))
}

#[inline(always)]
fn rgb444(px: [u8; 2]) -> Color {
    let v = u16::from_be_bytes(px);
    let r = ((v >> 8) as u8 & 0x0f) << 4;
    let g = ((v >> 4) as u8 & 0x0f) << 4;
    let b = (v as u8 & 0x0f) << 4;
    Color::rgb(r | (r >> 4), g | (g >> 4), b | (b >> 4))
}

/// The grey of a 4-bit level (the low nibble of `nib`).
#[inline(always)]
fn gray4(nib: u8) -> Color {
    let nib = nib & 0x0f;
    Color::gray((nib << 4) | nib)
}

/// Black or white by the low bit of `bit`.
#[inline(always)]
fn mono1(bit: u8) -> Color {
    [Color::BLACK, Color::WHITE][usize::from(bit & 1)]
}

/// Palette entry `v`, clamped to the palette; web-safe without one.
#[inline(always)]
fn indexed8(v: u8, palette: Option<&Palette>) -> Color {
    match palette {
        Some(pal) => pal.color(v.min((pal.len() - 1) as u8)),
        None => websafe_color(v.min(215)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_bytes_alignment() {
        assert_eq!(PixelFormat::Rgb888.row_bytes(10), 30);
        assert_eq!(PixelFormat::Mono1.row_bytes(9), 2);
        assert_eq!(PixelFormat::Gray4.row_bytes(3), 2);
        assert_eq!(PixelFormat::Rgb565.row_bytes(4), 8);
    }

    #[test]
    fn wire_id_roundtrip() {
        for f in PixelFormat::ALL {
            assert_eq!(PixelFormat::from_wire_id(f.wire_id()), Some(f));
        }
        assert_eq!(PixelFormat::from_wire_id(200), None);
    }

    #[test]
    fn reduce_is_idempotent() {
        let samples = [
            Color::rgb(13, 200, 77),
            Color::BLACK,
            Color::WHITE,
            Color::rgb(128, 128, 128),
        ];
        for f in PixelFormat::ALL {
            for c in samples {
                let once = f.reduce(c);
                assert_eq!(f.reduce(once), once, "{f} on {c}");
            }
        }
    }

    #[test]
    fn reduce_preserves_extremes() {
        for f in PixelFormat::ALL {
            assert_eq!(f.reduce(Color::BLACK), Color::BLACK, "{f} black");
            assert_eq!(f.reduce(Color::WHITE), Color::WHITE, "{f} white");
        }
    }

    #[test]
    fn pack_unpack_rgb888_exact() {
        let row = vec![Color::rgb(1, 2, 3), Color::rgb(250, 128, 0)];
        let mut bytes = Vec::new();
        pack_row(PixelFormat::Rgb888, &row, None, &mut bytes);
        let back = unpack_row(PixelFormat::Rgb888, &bytes, 2, None).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn pack_unpack_reduced_formats_roundtrip_reduced_colors() {
        let raw = [
            Color::rgb(13, 200, 77),
            Color::rgb(255, 255, 255),
            Color::rgb(0, 0, 0),
            Color::rgb(90, 33, 150),
            Color::rgb(17, 17, 17),
        ];
        for f in [
            PixelFormat::Rgb565,
            PixelFormat::Rgb444,
            PixelFormat::Gray8,
            PixelFormat::Gray4,
            PixelFormat::Mono1,
        ] {
            let reduced: Vec<Color> = raw.iter().map(|&c| f.reduce(c)).collect();
            let mut bytes = Vec::new();
            pack_row(f, &reduced, None, &mut bytes);
            assert_eq!(bytes.len(), f.row_bytes(raw.len() as u32));
            let back = unpack_row(f, &bytes, raw.len(), None).unwrap();
            assert_eq!(back, reduced, "{f}");
        }
    }

    #[test]
    fn indexed_roundtrip_with_palette() {
        let pal = Palette::vga16();
        let row: Vec<Color> = (0..16u8).map(|i| pal.color(i)).collect();
        let mut bytes = Vec::new();
        pack_row(PixelFormat::Indexed8, &row, Some(&pal), &mut bytes);
        let back = unpack_row(PixelFormat::Indexed8, &bytes, 16, Some(&pal)).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn one_pixel_reads_as_a_one_pixel_row() {
        let pal = Palette::vga16();
        for f in PixelFormat::ALL {
            for palette in [None, Some(&pal)] {
                for v in 0..=u16::MAX {
                    let bytes = [(v >> 8) as u8, v as u8, 0x5a];
                    let mut row = [Color::BLACK];
                    unpack_row_into(f, &bytes, &mut row, palette).unwrap();
                    assert_eq!(unpack_pixel(f, &bytes, palette), Some(row[0]), "{f} {v}");
                }
            }
            let short = &[0u8; 3][..f.row_bytes(1) - 1];
            assert_eq!(unpack_pixel(f, short, None), None, "{f}");
        }
    }

    #[test]
    fn unpack_short_buffer_is_none() {
        assert!(unpack_row(PixelFormat::Rgb888, &[1, 2], 1, None).is_none());
        assert!(unpack_row(PixelFormat::Mono1, &[], 1, None).is_none());
    }

    #[test]
    fn mono_packing_msb_first() {
        let row = vec![
            Color::WHITE,
            Color::BLACK,
            Color::BLACK,
            Color::BLACK,
            Color::BLACK,
            Color::BLACK,
            Color::BLACK,
            Color::WHITE,
        ];
        let mut bytes = Vec::new();
        pack_row(PixelFormat::Mono1, &row, None, &mut bytes);
        assert_eq!(bytes, vec![0b1000_0001]);
    }

    #[test]
    fn mono_partial_byte_padded_low() {
        let row = vec![Color::WHITE, Color::WHITE, Color::BLACK];
        let mut bytes = Vec::new();
        pack_row(PixelFormat::Mono1, &row, None, &mut bytes);
        assert_eq!(bytes, vec![0b1100_0000]);
    }
}
