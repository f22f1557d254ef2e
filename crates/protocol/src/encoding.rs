//! Rectangle encodings for framebuffer updates.
//!
//! The universal interaction protocol ships damaged rectangles from the
//! UniInt server to the proxy. Six encodings are supported, mirroring the
//! classic thin-client repertoire:
//!
//! - [`Encoding::Raw`] — packed pixels, row by row.
//! - [`Encoding::CopyRect`] — "copy from elsewhere on screen" (scrolls).
//! - [`Encoding::Rre`] — rise-and-run-length: background + colored
//!   subrectangles; excellent for flat GUI panels.
//! - [`Encoding::Hextile`] — 16×16 tiles, each raw or bg/fg/subrects.
//! - [`Encoding::Rle`] — simple run-length over the whole rectangle.
//! - [`Encoding::PaletteRle`] — indexed palette + run-length, the
//!   best fit for flat GUI content (a simplified ZRLE).
//!
//! Encoders consume canonical [`Color`] pixels and produce wire bytes in
//! the session's negotiated [`PixelFormat`]; decoders do the reverse.

use crate::error::{ProtocolError, Result};
use crate::wire;
use bytes::{Buf, BufMut};
use serde::{Deserialize, Serialize};
use uniint_raster::color::Color;
use uniint_raster::geom::{Point, Rect};
use uniint_raster::pixel::{pack_row, unpack_row, PixelFormat};

/// Sanity limit on a single update rectangle (pixels).
pub const MAX_RECT_AREA: u64 = 16 * 1024 * 1024;

/// Available rectangle encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Encoding {
    /// Packed pixels row by row.
    Raw,
    /// Source-offset copy within the remote framebuffer.
    CopyRect,
    /// Background color plus colored subrectangles.
    Rre,
    /// 16×16 tiling with per-tile raw/solid/subrect modes.
    Hextile,
    /// Run-length encoding in scanline order.
    Rle,
    /// Per-rect color palette (≤255 entries) with index run-length;
    /// falls back to raw packing for high-color content.
    PaletteRle,
}

impl Encoding {
    /// All encodings, for negotiation and tests.
    pub const ALL: [Encoding; 6] = [
        Encoding::Raw,
        Encoding::CopyRect,
        Encoding::Rre,
        Encoding::Hextile,
        Encoding::Rle,
        Encoding::PaletteRle,
    ];

    /// Stable wire tag.
    pub const fn wire_id(self) -> u8 {
        match self {
            Encoding::Raw => 0,
            Encoding::CopyRect => 1,
            Encoding::Rre => 2,
            Encoding::Hextile => 5,
            Encoding::Rle => 16,
            Encoding::PaletteRle => 17,
        }
    }

    /// Inverse of [`wire_id`](Self::wire_id).
    pub const fn from_wire_id(id: u8) -> Option<Encoding> {
        match id {
            0 => Some(Encoding::Raw),
            1 => Some(Encoding::CopyRect),
            2 => Some(Encoding::Rre),
            5 => Some(Encoding::Hextile),
            16 => Some(Encoding::Rle),
            17 => Some(Encoding::PaletteRle),
            _ => None,
        }
    }
}

impl core::fmt::Display for Encoding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Encoding::Raw => "raw",
            Encoding::CopyRect => "copyrect",
            Encoding::Rre => "rre",
            Encoding::Hextile => "hextile",
            Encoding::Rle => "rle",
            Encoding::PaletteRle => "palette-rle",
        };
        f.write_str(s)
    }
}

/// The decoded content of one update rectangle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodedRect {
    /// Row-major pixels covering the rectangle.
    Pixels(Vec<Color>),
    /// Copy pixels from `src` (top-left) in the receiver's framebuffer.
    CopyFrom(Point),
}

/// Writes one pixel in `fmt` (byte-aligned; sub-byte formats use one byte
/// per pixel when standing alone).
fn put_pixel(fmt: PixelFormat, c: Color, out: &mut Vec<u8>) {
    pack_row(fmt, &[c], None, out);
}

/// Reads one pixel in `fmt`.
fn get_pixel(fmt: PixelFormat, buf: &mut impl Buf) -> Result<Color> {
    let n = fmt.row_bytes(1);
    let bytes = wire::get_bytes(buf, n)?;
    unpack_row(fmt, &bytes, 1, None)
        .and_then(|v| v.first().copied())
        .ok_or_else(|| ProtocolError::Malformed("pixel decode failed".into()))
}

/// Encodes `pixels` (row-major, covering `rect`) with `encoding` into wire
/// bytes.
///
/// # Panics
///
/// Panics if `pixels.len() != rect.area()`, or if `encoding` is
/// [`Encoding::CopyRect`] (use [`encode_copy_rect`]).
pub fn encode_rect(pixels: &[Color], rect: Rect, encoding: Encoding, fmt: PixelFormat) -> Vec<u8> {
    assert_eq!(pixels.len() as u64, rect.area(), "pixel count mismatch");
    match encoding {
        Encoding::Raw => encode_raw(pixels, rect, fmt),
        Encoding::CopyRect => panic!("CopyRect carries no pixels; use encode_copy_rect"),
        Encoding::Rre => encode_rre(pixels, rect, fmt),
        Encoding::Hextile => encode_hextile(pixels, rect, fmt),
        Encoding::Rle => encode_rle(pixels, rect, fmt),
        Encoding::PaletteRle => encode_palette_rle(pixels, rect, fmt),
    }
}

/// Encodes a CopyRect payload: the source top-left in the remote
/// framebuffer.
pub fn encode_copy_rect(src: Point) -> Vec<u8> {
    let mut out = Vec::with_capacity(4);
    out.put_u16(src.x.max(0) as u16);
    out.put_u16(src.y.max(0) as u16);
    out
}

/// Decodes one rectangle payload.
///
/// # Errors
///
/// Returns [`ProtocolError`] when bytes are truncated or malformed, or the
/// rectangle exceeds [`MAX_RECT_AREA`].
pub fn decode_rect(
    buf: &mut impl Buf,
    rect: Rect,
    encoding: Encoding,
    fmt: PixelFormat,
) -> Result<DecodedRect> {
    if rect.area() > MAX_RECT_AREA {
        return Err(ProtocolError::OversizedRect { area: rect.area() });
    }
    match encoding {
        Encoding::Raw => decode_raw(buf, rect, fmt).map(DecodedRect::Pixels),
        Encoding::CopyRect => {
            let x = wire::get_u16(buf)?;
            let y = wire::get_u16(buf)?;
            Ok(DecodedRect::CopyFrom(Point::new(x as i32, y as i32)))
        }
        Encoding::Rre => decode_rre(buf, rect, fmt).map(DecodedRect::Pixels),
        Encoding::Hextile => decode_hextile(buf, rect, fmt).map(DecodedRect::Pixels),
        Encoding::Rle => decode_rle(buf, rect, fmt).map(DecodedRect::Pixels),
        Encoding::PaletteRle => decode_palette_rle(buf, rect, fmt).map(DecodedRect::Pixels),
    }
}

// ---------------------------------------------------------------- raw --

fn encode_raw(pixels: &[Color], rect: Rect, fmt: PixelFormat) -> Vec<u8> {
    let mut out = Vec::with_capacity(fmt.buffer_bytes(rect.w, rect.h));
    for row in pixels.chunks_exact(rect.w as usize) {
        pack_row(fmt, row, None, &mut out);
    }
    out
}

fn decode_raw(buf: &mut impl Buf, rect: Rect, fmt: PixelFormat) -> Result<Vec<Color>> {
    let row_bytes = fmt.row_bytes(rect.w);
    let mut pixels = Vec::with_capacity(rect.area() as usize);
    for _ in 0..rect.h {
        let bytes = wire::get_bytes(buf, row_bytes)?;
        let row = unpack_row(fmt, &bytes, rect.w as usize, None)
            .ok_or_else(|| ProtocolError::Malformed("raw row decode failed".into()))?;
        pixels.extend(row);
    }
    Ok(pixels)
}

// ---------------------------------------------------------------- rre --

/// A solid-color subrectangle relative to its parent rect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SubRect {
    color: Color,
    x: u16,
    y: u16,
    w: u16,
    h: u16,
}

/// Finds the most frequent color (the RRE background).
fn dominant_color(pixels: &[Color]) -> Color {
    let mut counts: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for p in pixels {
        *counts.entry(p.to_u32()).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(_, n)| n)
        .map(|(c, _)| Color::from_u32(c))
        .unwrap_or(Color::BLACK)
}

/// Extracts maximal same-color horizontal runs, merging vertically adjacent
/// identical runs into taller subrects.
fn subrects_for(pixels: &[Color], rect: Rect, bg: Color) -> Vec<SubRect> {
    let w = rect.w as usize;
    let mut out: Vec<SubRect> = Vec::new();
    // Open runs from the previous row keyed by (x, w, color) → index in out.
    let mut prev_open: std::collections::HashMap<(u16, u16, u32), usize> =
        std::collections::HashMap::new();
    for y in 0..rect.h as usize {
        let row = &pixels[y * w..(y + 1) * w];
        let mut cur_open: std::collections::HashMap<(u16, u16, u32), usize> =
            std::collections::HashMap::new();
        let mut x = 0usize;
        while x < w {
            let c = row[x];
            if c == bg {
                x += 1;
                continue;
            }
            let start = x;
            while x < w && row[x] == c {
                x += 1;
            }
            let run_w = (x - start) as u16;
            let key = (start as u16, run_w, c.to_u32());
            if let Some(&idx) = prev_open.get(&key) {
                // Grow the rect from the previous row.
                if out[idx].y as usize + out[idx].h as usize == y {
                    out[idx].h += 1;
                    cur_open.insert(key, idx);
                    continue;
                }
            }
            out.push(SubRect {
                color: c,
                x: start as u16,
                y: y as u16,
                w: run_w,
                h: 1,
            });
            cur_open.insert(key, out.len() - 1);
        }
        prev_open = cur_open;
    }
    out
}

fn encode_rre(pixels: &[Color], rect: Rect, fmt: PixelFormat) -> Vec<u8> {
    let bg = dominant_color(pixels);
    let subs = subrects_for(pixels, rect, bg);
    let mut out = Vec::new();
    out.put_u32(subs.len() as u32);
    put_pixel(fmt, bg, &mut out);
    for s in subs {
        put_pixel(fmt, s.color, &mut out);
        out.put_u16(s.x);
        out.put_u16(s.y);
        out.put_u16(s.w);
        out.put_u16(s.h);
    }
    out
}

fn decode_rre(buf: &mut impl Buf, rect: Rect, fmt: PixelFormat) -> Result<Vec<Color>> {
    let count = wire::get_u32(buf)? as usize;
    if count as u64 > rect.area().max(1) {
        return Err(ProtocolError::Malformed(format!(
            "rre subrect count {count} exceeds rect area"
        )));
    }
    let bg = get_pixel(fmt, buf)?;
    let mut pixels = vec![bg; rect.area() as usize];
    let w = rect.w as usize;
    for _ in 0..count {
        let c = get_pixel(fmt, buf)?;
        let x = wire::get_u16(buf)? as usize;
        let y = wire::get_u16(buf)? as usize;
        let sw = wire::get_u16(buf)? as usize;
        let sh = wire::get_u16(buf)? as usize;
        if x + sw > w || y + sh > rect.h as usize {
            return Err(ProtocolError::Malformed("rre subrect out of bounds".into()));
        }
        for yy in y..y + sh {
            pixels[yy * w + x..yy * w + x + sw].fill(c);
        }
    }
    Ok(pixels)
}

// ------------------------------------------------------------ hextile --

const TILE: usize = 16;
const HEX_RAW: u8 = 1;
const HEX_BG: u8 = 2;
const HEX_SUBRECTS: u8 = 8;
const HEX_COLOURED: u8 = 16;

fn encode_hextile(pixels: &[Color], rect: Rect, fmt: PixelFormat) -> Vec<u8> {
    let w = rect.w as usize;
    let h = rect.h as usize;
    let mut out = Vec::new();
    let mut last_bg: Option<Color> = None;
    for ty in (0..h).step_by(TILE) {
        for tx in (0..w).step_by(TILE) {
            let tw = TILE.min(w - tx);
            let th = TILE.min(h - ty);
            let mut tile = Vec::with_capacity(tw * th);
            for yy in ty..ty + th {
                tile.extend_from_slice(&pixels[yy * w + tx..yy * w + tx + tw]);
            }
            let bg = dominant_color(&tile);
            let trect = Rect::new(0, 0, tw as u32, th as u32);
            let subs = subrects_for(&tile, trect, bg);
            // Estimate cost: subrect path vs raw path.
            let px_bytes = fmt.row_bytes(1);
            let sub_cost = 1
                + if last_bg == Some(bg) { 0 } else { px_bytes }
                + 1
                + subs.len() * (px_bytes + 2);
            let raw_cost = 1 + th * fmt.row_bytes(tw as u32);
            if subs.len() > 255 || sub_cost >= raw_cost {
                out.push(HEX_RAW);
                for yy in 0..th {
                    pack_row(fmt, &tile[yy * tw..(yy + 1) * tw], None, &mut out);
                }
                last_bg = None;
                continue;
            }
            let mut flags = HEX_SUBRECTS | HEX_COLOURED;
            if last_bg != Some(bg) {
                flags |= HEX_BG;
            }
            out.push(flags);
            if flags & HEX_BG != 0 {
                put_pixel(fmt, bg, &mut out);
                last_bg = Some(bg);
            }
            out.push(subs.len() as u8);
            for s in subs {
                put_pixel(fmt, s.color, &mut out);
                out.push(((s.x as u8) << 4) | (s.y as u8 & 0x0f));
                out.push((((s.w - 1) as u8) << 4) | ((s.h - 1) as u8 & 0x0f));
            }
        }
    }
    out
}

fn decode_hextile(buf: &mut impl Buf, rect: Rect, fmt: PixelFormat) -> Result<Vec<Color>> {
    let w = rect.w as usize;
    let h = rect.h as usize;
    let mut pixels = vec![Color::BLACK; w * h];
    let mut last_bg = Color::BLACK;
    for ty in (0..h).step_by(TILE) {
        for tx in (0..w).step_by(TILE) {
            let tw = TILE.min(w - tx);
            let th = TILE.min(h - ty);
            let flags = wire::get_u8(buf)?;
            if flags & HEX_RAW != 0 {
                for yy in 0..th {
                    let bytes = wire::get_bytes(buf, fmt.row_bytes(tw as u32))?;
                    let row = unpack_row(fmt, &bytes, tw, None)
                        .ok_or_else(|| ProtocolError::Malformed("hextile raw row".into()))?;
                    pixels[(ty + yy) * w + tx..(ty + yy) * w + tx + tw].copy_from_slice(&row);
                }
                continue;
            }
            if flags & HEX_BG != 0 {
                last_bg = get_pixel(fmt, buf)?;
            }
            for yy in 0..th {
                pixels[(ty + yy) * w + tx..(ty + yy) * w + tx + tw].fill(last_bg);
            }
            if flags & HEX_SUBRECTS != 0 {
                let n = wire::get_u8(buf)? as usize;
                for _ in 0..n {
                    let c = if flags & HEX_COLOURED != 0 {
                        get_pixel(fmt, buf)?
                    } else {
                        last_bg
                    };
                    let xy = wire::get_u8(buf)?;
                    let wh = wire::get_u8(buf)?;
                    let sx = (xy >> 4) as usize;
                    let sy = (xy & 0x0f) as usize;
                    let sw = ((wh >> 4) + 1) as usize;
                    let sh = ((wh & 0x0f) + 1) as usize;
                    if sx + sw > tw || sy + sh > th {
                        return Err(ProtocolError::Malformed("hextile subrect oob".into()));
                    }
                    for yy in sy..sy + sh {
                        let base = (ty + yy) * w + tx + sx;
                        pixels[base..base + sw].fill(c);
                    }
                }
            }
        }
    }
    Ok(pixels)
}

// ---------------------------------------------------------------- rle --

fn encode_rle(pixels: &[Color], _rect: Rect, fmt: PixelFormat) -> Vec<u8> {
    let mut runs: Vec<(u16, Color)> = Vec::new();
    for &p in pixels {
        match runs.last_mut() {
            Some((n, c)) if *c == p && *n < u16::MAX => *n += 1,
            _ => runs.push((1, p)),
        }
    }
    let mut out = Vec::new();
    out.put_u32(runs.len() as u32);
    for (n, c) in runs {
        out.put_u16(n);
        put_pixel(fmt, c, &mut out);
    }
    out
}

fn decode_rle(buf: &mut impl Buf, rect: Rect, fmt: PixelFormat) -> Result<Vec<Color>> {
    let nruns = wire::get_u32(buf)? as usize;
    if nruns as u64 > rect.area() {
        return Err(ProtocolError::Malformed(
            "rle has more runs than pixels".into(),
        ));
    }
    let mut pixels = Vec::with_capacity(rect.area() as usize);
    for _ in 0..nruns {
        let n = wire::get_u16(buf)? as usize;
        let c = get_pixel(fmt, buf)?;
        if pixels.len() + n > rect.area() as usize {
            return Err(ProtocolError::Malformed("rle overruns rect".into()));
        }
        pixels.extend(std::iter::repeat_n(c, n));
    }
    if pixels.len() as u64 != rect.area() {
        return Err(ProtocolError::Malformed(format!(
            "rle covered {} of {} pixels",
            pixels.len(),
            rect.area()
        )));
    }
    Ok(pixels)
}

// -------------------------------------------------------- palette-rle --

const PRLE_RAW: u8 = 0;
const PRLE_SOLID: u8 = 1;
const PRLE_INDEXED: u8 = 2;

fn encode_palette_rle(pixels: &[Color], rect: Rect, fmt: PixelFormat) -> Vec<u8> {
    // Build the palette in first-appearance order.
    let mut palette: Vec<Color> = Vec::new();
    let mut index: std::collections::HashMap<u32, u8> = std::collections::HashMap::new();
    for &p in pixels {
        if let std::collections::hash_map::Entry::Vacant(e) = index.entry(p.to_u32()) {
            if palette.len() == 255 {
                // Too many colors: raw fallback.
                let mut out = vec![PRLE_RAW];
                out.extend(encode_raw(pixels, rect, fmt));
                return out;
            }
            e.insert(palette.len() as u8);
            palette.push(p);
        }
    }
    if palette.len() == 1 {
        let mut out = vec![PRLE_SOLID];
        put_pixel(fmt, palette[0], &mut out);
        return out;
    }
    let mut out = vec![PRLE_INDEXED, palette.len() as u8];
    for &c in &palette {
        put_pixel(fmt, c, &mut out);
    }
    // Index runs: (u8 index, u16 len).
    let mut runs: Vec<(u8, u16)> = Vec::new();
    for &p in pixels {
        let idx = index[&p.to_u32()];
        match runs.last_mut() {
            Some((i, n)) if *i == idx && *n < u16::MAX => *n += 1,
            _ => runs.push((idx, 1)),
        }
    }
    out.put_u32(runs.len() as u32);
    for (i, n) in runs {
        out.push(i);
        out.put_u16(n);
    }
    out
}

fn decode_palette_rle(buf: &mut impl Buf, rect: Rect, fmt: PixelFormat) -> Result<Vec<Color>> {
    let mode = wire::get_u8(buf)?;
    match mode {
        PRLE_RAW => decode_raw(buf, rect, fmt),
        PRLE_SOLID => {
            let c = get_pixel(fmt, buf)?;
            Ok(vec![c; rect.area() as usize])
        }
        PRLE_INDEXED => {
            let n = wire::get_u8(buf)? as usize;
            if n < 2 {
                return Err(ProtocolError::Malformed(
                    "palette-rle palette too small".into(),
                ));
            }
            let mut palette = Vec::with_capacity(n);
            for _ in 0..n {
                palette.push(get_pixel(fmt, buf)?);
            }
            let nruns = wire::get_u32(buf)? as usize;
            if nruns as u64 > rect.area() {
                return Err(ProtocolError::Malformed("palette-rle too many runs".into()));
            }
            let mut pixels = Vec::with_capacity(rect.area() as usize);
            for _ in 0..nruns {
                let idx = wire::get_u8(buf)? as usize;
                let len = wire::get_u16(buf)? as usize;
                let c = *palette
                    .get(idx)
                    .ok_or_else(|| ProtocolError::Malformed("palette-rle index oob".into()))?;
                if pixels.len() + len > rect.area() as usize {
                    return Err(ProtocolError::Malformed("palette-rle overruns rect".into()));
                }
                pixels.extend(std::iter::repeat_n(c, len));
            }
            if pixels.len() as u64 != rect.area() {
                return Err(ProtocolError::Malformed(format!(
                    "palette-rle covered {} of {} pixels",
                    pixels.len(),
                    rect.area()
                )));
            }
            Ok(pixels)
        }
        other => Err(ProtocolError::Malformed(format!(
            "palette-rle unknown subencoding {other}"
        ))),
    }
}

/// How many distinct colours [`choose_encoding`] counts before it stops
/// scanning: one more than the most it treats as "few".
const CHOOSE_DISTINCT_CAP: usize = 65;

/// Picks a good encoding for `pixels` by content inspection: solid and
/// low-color rects go to RRE, mid-complexity to Hextile, photographic
/// content to Raw. `allowed` restricts the choice (from `SetEncodings`).
///
/// Never returns [`Encoding::CopyRect`], which carries no pixels: when
/// `allowed` names no pixel encoding the answer is [`Encoding::Raw`],
/// which every client decodes.
pub fn choose_encoding(pixels: &[Color], rect: Rect, allowed: &[Encoding]) -> Encoding {
    let allows = |e: Encoding| allowed.contains(&e);
    // One scanline-order pass counting colour transitions and distinct
    // colours, stopping at the pixel that brings in the 65th colour. A
    // pixel repeating its predecessor costs one comparison; only a
    // transition scans the (at most 64-entry) table of colours seen.
    let mut seen = [0u32; CHOOSE_DISTINCT_CAP];
    let mut distinct = 0usize;
    let mut transitions = 0usize;
    let mut prev: Option<Color> = None;
    for &p in pixels {
        if prev == Some(p) {
            continue;
        }
        prev = Some(p);
        transitions += 1;
        let c = p.to_u32();
        if !seen[..distinct].contains(&c) {
            seen[distinct] = c;
            distinct += 1;
            if distinct == CHOOSE_DISTINCT_CAP {
                break;
            }
        }
    }
    let area = rect.area().max(1) as usize;
    let density = transitions as f64 / area as f64;
    if distinct <= 2 && allows(Encoding::Rre) {
        return Encoding::Rre;
    }
    if distinct <= 64 && allows(Encoding::PaletteRle) {
        return Encoding::PaletteRle;
    }
    if density < 0.05 && allows(Encoding::Rle) {
        return Encoding::Rle;
    }
    if distinct <= 64 && allows(Encoding::Hextile) {
        return Encoding::Hextile;
    }
    if allows(Encoding::Raw) {
        return Encoding::Raw;
    }
    allowed
        .iter()
        .copied()
        .find(|&e| e != Encoding::CopyRect)
        .unwrap_or(Encoding::Raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gui_like(rect: Rect) -> Vec<Color> {
        // Flat panel with a "button" and a line of noise, GUI-ish content.
        let mut px = vec![Color::LIGHT_GRAY; rect.area() as usize];
        let w = rect.w as usize;
        for y in 4..10.min(rect.h as usize) {
            for x in 4..20.min(w) {
                px[y * w + x] = Color::BLUE;
            }
        }
        for (x, p) in px.iter_mut().enumerate().take(w) {
            *p = Color::rgb((x * 7 % 256) as u8, 0, 0);
        }
        px
    }

    fn roundtrip(enc: Encoding, fmt: PixelFormat, rect: Rect, pixels: &[Color]) {
        let reduced: Vec<Color> = pixels.iter().map(|&c| fmt.reduce(c)).collect();
        let bytes = encode_rect(&reduced, rect, enc, fmt);
        let mut buf: &[u8] = &bytes;
        let decoded = decode_rect(&mut buf, rect, enc, fmt).unwrap();
        assert_eq!(buf.remaining(), 0, "{enc}/{fmt}: trailing bytes");
        match decoded {
            DecodedRect::Pixels(px) => assert_eq!(px, reduced, "{enc}/{fmt}"),
            DecodedRect::CopyFrom(_) => panic!("unexpected copyrect"),
        }
    }

    #[test]
    fn all_encodings_roundtrip_gui_content() {
        let rect = Rect::new(0, 0, 37, 23);
        let px = gui_like(rect);
        for enc in [
            Encoding::Raw,
            Encoding::Rre,
            Encoding::Hextile,
            Encoding::Rle,
            Encoding::PaletteRle,
        ] {
            for fmt in [PixelFormat::Rgb888, PixelFormat::Rgb565, PixelFormat::Mono1] {
                roundtrip(enc, fmt, rect, &px);
            }
        }
    }

    #[test]
    fn solid_rect_rre_is_tiny() {
        let rect = Rect::new(0, 0, 64, 64);
        let px = vec![Color::GRAY; rect.area() as usize];
        let rre = encode_rect(&px, rect, Encoding::Rre, PixelFormat::Rgb888);
        let raw = encode_rect(&px, rect, Encoding::Raw, PixelFormat::Rgb888);
        assert!(rre.len() < 10);
        assert_eq!(raw.len(), 64 * 64 * 3);
    }

    #[test]
    fn rle_compresses_runs() {
        let rect = Rect::new(0, 0, 100, 1);
        let mut px = vec![Color::BLACK; 50];
        px.extend(vec![Color::WHITE; 50]);
        let rle = encode_rect(&px, rect, Encoding::Rle, PixelFormat::Rgb888);
        assert_eq!(rle.len(), 4 + 2 * (2 + 3));
        roundtrip(Encoding::Rle, PixelFormat::Rgb888, rect, &px);
    }

    #[test]
    fn copy_rect_payload() {
        let bytes = encode_copy_rect(Point::new(12, 34));
        let mut buf: &[u8] = &bytes;
        match decode_rect(
            &mut buf,
            Rect::new(0, 0, 5, 5),
            Encoding::CopyRect,
            PixelFormat::Rgb888,
        )
        .unwrap()
        {
            DecodedRect::CopyFrom(p) => assert_eq!(p, Point::new(12, 34)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_raw_errors() {
        let rect = Rect::new(0, 0, 10, 10);
        let px = vec![Color::RED; 100];
        let bytes = encode_rect(&px, rect, Encoding::Raw, PixelFormat::Rgb888);
        let mut buf: &[u8] = &bytes[..bytes.len() - 5];
        assert!(matches!(
            decode_rect(&mut buf, rect, Encoding::Raw, PixelFormat::Rgb888),
            Err(ProtocolError::Truncated { .. })
        ));
    }

    #[test]
    fn malformed_rre_subrect_rejected() {
        let mut bytes = Vec::new();
        bytes.put_u32(1);
        bytes.extend_from_slice(&[0, 0, 0]); // bg
        bytes.extend_from_slice(&[255, 0, 0]); // sub color
        bytes.put_u16(90); // x out of bounds for 10-wide rect
        bytes.put_u16(0);
        bytes.put_u16(5);
        bytes.put_u16(1);
        let mut buf: &[u8] = &bytes;
        assert!(matches!(
            decode_rect(
                &mut buf,
                Rect::new(0, 0, 10, 10),
                Encoding::Rre,
                PixelFormat::Rgb888
            ),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn rle_wrong_total_rejected() {
        let mut bytes = Vec::new();
        bytes.put_u32(1);
        bytes.put_u16(3);
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut buf: &[u8] = &bytes;
        assert!(matches!(
            decode_rect(
                &mut buf,
                Rect::new(0, 0, 2, 2),
                Encoding::Rle,
                PixelFormat::Rgb888
            ),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_rect_rejected() {
        let rect = Rect::new(0, 0, 65535, 65535);
        let mut buf: &[u8] = &[];
        assert!(matches!(
            decode_rect(&mut buf, rect, Encoding::Raw, PixelFormat::Rgb888),
            Err(ProtocolError::OversizedRect { .. })
        ));
    }

    #[test]
    fn choose_encoding_heuristics() {
        let rect = Rect::new(0, 0, 32, 32);
        let solid = vec![Color::GRAY; rect.area() as usize];
        assert_eq!(choose_encoding(&solid, rect, &Encoding::ALL), Encoding::Rre);
        let noise: Vec<Color> = (0..rect.area())
            .map(|i| {
                Color::rgb(
                    (i * 37 % 251) as u8,
                    (i * 83 % 241) as u8,
                    (i * 61 % 239) as u8,
                )
            })
            .collect();
        assert_eq!(choose_encoding(&noise, rect, &Encoding::ALL), Encoding::Raw);
        assert_eq!(
            choose_encoding(&noise, rect, &[Encoding::Hextile]),
            Encoding::Hextile,
            "restricted set is honored"
        );
    }

    #[test]
    fn hextile_large_rect_roundtrip() {
        let rect = Rect::new(0, 0, 100, 70);
        let px = gui_like(rect);
        roundtrip(Encoding::Hextile, PixelFormat::Rgb888, rect, &px);
        roundtrip(Encoding::Hextile, PixelFormat::Gray4, rect, &px);
    }

    #[test]
    fn wire_ids_roundtrip() {
        for e in Encoding::ALL {
            assert_eq!(Encoding::from_wire_id(e.wire_id()), Some(e));
        }
        assert_eq!(Encoding::from_wire_id(99), None);
    }

    #[test]
    fn all_matches_from_wire_id_coverage() {
        // `ALL` must list exactly the encodings `from_wire_id` accepts:
        // an encoding added to one and not the other would ship in
        // `SetEncodings` but fail to decode (or vice versa).
        let decodable = (0..=u8::MAX)
            .filter_map(Encoding::from_wire_id)
            .collect::<Vec<_>>();
        assert_eq!(decodable.len(), Encoding::ALL.len());
        for e in &decodable {
            assert!(Encoding::ALL.contains(e), "{e} decodable but not in ALL");
        }
    }

    #[test]
    fn subrects_cover_non_bg_exactly() {
        let rect = Rect::new(0, 0, 8, 4);
        let mut px = vec![Color::BLACK; 32];
        px[9] = Color::RED;
        px[10] = Color::RED;
        px[17] = Color::RED;
        px[18] = Color::RED;
        let subs = subrects_for(&px, rect, Color::BLACK);
        assert_eq!(subs.len(), 1, "vertically merged: {subs:?}");
        assert_eq!(subs[0].h, 2);
    }
}

#[cfg(test)]
mod palette_rle_tests {
    use super::*;

    #[test]
    fn solid_is_two_bytes_plus_pixel() {
        let rect = Rect::new(0, 0, 50, 50);
        let px = vec![Color::GRAY; 2500];
        let bytes = encode_rect(&px, rect, Encoding::PaletteRle, PixelFormat::Rgb888);
        assert_eq!(bytes.len(), 1 + 3);
    }

    #[test]
    fn gui_panel_beats_plain_rle() {
        let rect = Rect::new(0, 0, 64, 64);
        // A 4-color panel with many short runs.
        let px: Vec<Color> = (0..rect.area())
            .map(|i| match (i / 3) % 4 {
                0 => Color::LIGHT_GRAY,
                1 => Color::BLACK,
                2 => Color::WHITE,
                _ => Color::BLUE,
            })
            .collect();
        let prle = encode_rect(&px, rect, Encoding::PaletteRle, PixelFormat::Rgb888).len();
        let rle = encode_rect(&px, rect, Encoding::Rle, PixelFormat::Rgb888).len();
        assert!(prle < rle, "palette-rle {prle} < rle {rle}");
    }

    #[test]
    fn high_color_falls_back_to_raw() {
        let rect = Rect::new(0, 0, 32, 32);
        let px: Vec<Color> = (0..rect.area())
            .map(|i| Color::rgb((i % 256) as u8, (i / 256) as u8, 0))
            .collect();
        let bytes = encode_rect(&px, rect, Encoding::PaletteRle, PixelFormat::Rgb888);
        assert_eq!(bytes[0], 0, "raw subencoding tag");
        let mut cursor: &[u8] = &bytes;
        let DecodedRect::Pixels(out) =
            decode_rect(&mut cursor, rect, Encoding::PaletteRle, PixelFormat::Rgb888).unwrap()
        else {
            panic!()
        };
        assert_eq!(out, px);
    }

    #[test]
    fn malformed_palette_index_rejected() {
        let mut bytes: Vec<u8> = vec![2, 2]; // indexed, 2 colors
        bytes.extend_from_slice(&[0, 0, 0]);
        bytes.extend_from_slice(&[255, 255, 255]);
        bytes.put_u32(1);
        bytes.push(9); // index out of palette
        bytes.put_u16(4);
        let mut cursor: &[u8] = &bytes;
        assert!(matches!(
            decode_rect(
                &mut cursor,
                Rect::new(0, 0, 2, 2),
                Encoding::PaletteRle,
                PixelFormat::Rgb888
            ),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn choose_encoding_prefers_palette_rle_for_gui() {
        let rect = Rect::new(0, 0, 32, 32);
        let px: Vec<Color> = (0..rect.area())
            .map(|i| match i % 7 {
                0..=2 => Color::LIGHT_GRAY,
                3 => Color::BLACK,
                4 => Color::WHITE,
                _ => Color::BLUE,
            })
            .collect();
        assert_eq!(
            choose_encoding(&px, rect, &Encoding::ALL),
            Encoding::PaletteRle
        );
    }
}
