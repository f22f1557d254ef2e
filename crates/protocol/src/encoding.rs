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
//! Each decoder writes its rows, fills and runs straight into a
//! [`RectMut`]: [`decode_into`] takes a rect of the receiver's
//! framebuffer ([`Framebuffer::rect_mut`]), [`decode_rect`] decodes into
//! a fresh buffer through the same decoders. They read a `&mut &[u8]`
//! cursor through [`crate::wire`]: pixel rows and run tables are read
//! where they lie in the payload, and a short payload is
//! [`ProtocolError::Truncated`], never a panic. RRE and Hextile read each
//! subrect record, its pixel and its geometry, with one bounds check, and
//! take the pixel from it with [`unpack_pixel`], which shares
//! [`unpack_row_into`]'s per-format layouts; a record cut short is read
//! again a field at a time, off the hot path, so its error names the
//! first field that is missing. RLE and PaletteRle
//! write through one run writer that holds the current row of the target
//! across runs ([`RectMut::rows_mut`]) and writes a run's colour as
//! blocks of 4 pixels; a run of at most 4 pixels with at least 4 left in
//! its row is one block store, whose extra pixels the following runs
//! overwrite, so it never writes outside the row and a valid payload
//! decodes to the same pixels.
//!
//! Encoding is two steps. A [`RectAnalysis`] reads a rect's pixels once,
//! in one scanline pass where they lie, into colour runs and a palette
//! that depend on no pixel format. [`RectAnalysis::choose`] then sends
//! the rect in as few bytes as it can: for the client's pixel format it
//! prices Raw, RRE, RLE and PaletteRle, as far as the client allows them,
//! from that one analysis, and picks the smallest payload. Raw, RLE and
//! PaletteRle are priced by arithmetic on the rect's size, palette and
//! run count; RRE by its subrects, which are built once and reused when
//! RRE is emitted. A tie goes to the first of Raw, RRE, RLE, PaletteRle.
//! Hextile, which would have to be emitted to be priced, is sent only to
//! a client that allows none of the four. A client may be sent any
//! encoding it listed in `SetEncodings`, so the choice needs no decoder
//! or protocol change. [`RectAnalysis::encode`] emits the chosen encoding
//! in any format, so a server with clients in several formats analyses
//! each damaged rect once. [`choose_encoding`] and [`encode_rect`] do
//! both steps for one call, choosing for [`PixelFormat::Rgb888`].
//!
//! [`Framebuffer::rect_mut`]: uniint_raster::framebuffer::Framebuffer::rect_mut

use crate::error::{ProtocolError, Result};
use crate::wire;
use std::cell::OnceCell;
use uniint_raster::color::Color;
use uniint_raster::framebuffer::{fill_row, Framebuffer, RectMut};
use uniint_raster::geom::{Point, Rect};
use uniint_raster::pixel::{pack_row, unpack_pixel, unpack_row_into, PixelFormat};

/// Sanity limit on a single update rectangle (pixels).
pub const MAX_RECT_AREA: u64 = 16 * 1024 * 1024;

/// Available rectangle encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// The pixel `bytes` (at least one pixel's worth) start with, in `fmt`.
#[inline(always)]
fn pixel_at(fmt: PixelFormat, bytes: &[u8]) -> Result<Color> {
    unpack_pixel(fmt, bytes, None)
        .ok_or_else(|| ProtocolError::Malformed("pixel decode failed".into()))
}

/// Reads one pixel in `fmt`, allocating nothing.
fn get_pixel(fmt: PixelFormat, buf: &mut &[u8]) -> Result<Color> {
    pixel_at(fmt, wire::get_bytes(buf, fmt.row_bytes(1))?)
}

/// Reads the next row of `out.len()` pixels in `fmt` into `out`, from
/// where its bytes lie.
fn get_row(fmt: PixelFormat, buf: &mut &[u8], out: &mut [Color]) -> Result<()> {
    let bytes = wire::get_bytes(buf, fmt.row_bytes(out.len() as u32))?;
    unpack_row_into(fmt, bytes, out, None)
        .ok_or_else(|| ProtocolError::Malformed("row decode failed".into()))
}

/// Encodes `pixels` (row-major, covering `rect`) with `encoding` into wire
/// bytes: [`RectAnalysis::new`] then [`RectAnalysis::encode`].
///
/// # Panics
///
/// Panics if `pixels.len() != rect.area()`, or if `encoding` is
/// [`Encoding::CopyRect`] (use [`encode_copy_rect`]).
pub fn encode_rect(pixels: &[Color], rect: Rect, encoding: Encoding, fmt: PixelFormat) -> Vec<u8> {
    RectAnalysis::new(pixels, rect).encode(encoding, fmt)
}

/// Picks the encoding that sends `pixels` (row-major, covering `rect`)
/// in the fewest bytes in [`PixelFormat::Rgb888`]:
/// [`RectAnalysis::new`] then [`RectAnalysis::choose`], whose rule this
/// follows. `allowed` restricts the choice (from `SetEncodings`). A
/// client in another format may be sent another encoding; the server
/// chooses per format through [`RectAnalysis::choose`].
///
/// # Panics
///
/// Panics if `pixels.len() != rect.area()`.
pub fn choose_encoding(pixels: &[Color], rect: Rect, allowed: &[Encoding]) -> Encoding {
    RectAnalysis::new(pixels, rect).choose(allowed, PixelFormat::Rgb888)
}

/// Encodes a CopyRect payload: the source top-left in the remote
/// framebuffer.
pub fn encode_copy_rect(src: Point) -> Vec<u8> {
    [src.x, src.y]
        .map(|v| (v.max(0) as u16).to_be_bytes())
        .concat()
}

/// Decodes a CopyRect payload: the source top-left in the receiver's
/// framebuffer.
///
/// # Errors
///
/// Returns [`ProtocolError::Truncated`] when the payload is short.
pub fn decode_copy_rect(buf: &mut &[u8]) -> Result<Point> {
    let x = wire::get_u16(buf)?;
    let y = wire::get_u16(buf)?;
    Ok(Point::new(x as i32, y as i32))
}

/// Decodes one rectangle payload into a fresh buffer, through the same
/// decoders as [`decode_into`].
///
/// # Errors
///
/// Returns [`ProtocolError`] when bytes are truncated or malformed, or the
/// rectangle exceeds [`MAX_RECT_AREA`].
pub fn decode_rect(
    buf: &mut &[u8],
    rect: Rect,
    encoding: Encoding,
    fmt: PixelFormat,
) -> Result<DecodedRect> {
    if rect.area() > MAX_RECT_AREA {
        return Err(ProtocolError::OversizedRect { area: rect.area() });
    }
    if encoding == Encoding::CopyRect {
        return decode_copy_rect(buf).map(DecodedRect::CopyFrom);
    }
    let mut pixels = vec![Color::BLACK; rect.area() as usize];
    decode_into(
        buf,
        encoding,
        fmt,
        &mut RectMut::packed(&mut pixels, rect.w, rect.h),
    )?;
    Ok(DecodedRect::Pixels(pixels))
}

/// Decodes one rectangle payload that carries pixels straight into
/// `target`, which has the rectangle's size: a receiver passes the rect
/// of its framebuffer the update names.
///
/// # Errors
///
/// Returns [`ProtocolError`] when bytes are truncated or malformed, the
/// rectangle exceeds [`MAX_RECT_AREA`], or `encoding` is
/// [`Encoding::CopyRect`], which carries no pixels (use
/// [`decode_copy_rect`]). A payload that fails may leave `target` partly
/// written.
pub fn decode_into(
    buf: &mut &[u8],
    encoding: Encoding,
    fmt: PixelFormat,
    target: &mut RectMut<'_>,
) -> Result<()> {
    let area = target.bounds().area();
    if area > MAX_RECT_AREA {
        return Err(ProtocolError::OversizedRect { area });
    }
    match encoding {
        Encoding::Raw => decode_raw(buf, fmt, target),
        Encoding::CopyRect => Err(ProtocolError::Malformed(
            "copyrect carries no pixels".into(),
        )),
        Encoding::Rre => decode_rre(buf, fmt, target),
        Encoding::Hextile => decode_hextile(buf, fmt, target),
        Encoding::Rle => decode_rle(buf, fmt, target),
        Encoding::PaletteRle => decode_palette_rle(buf, fmt, target),
    }
}

/// The error for runs that pass the last pixel: out of line, so the
/// per-run path stays small.
#[cold]
fn overrun(what: &str) -> ProtocolError {
    ProtocolError::Malformed(format!("{what} overruns rect"))
}

/// Longest run [`RunWriter::run`] writes with one fixed-size store, and
/// the pixels in a [`Block`].
const SHORT_RUN: usize = 4;

/// [`SHORT_RUN`] copies of a run's colour: written as one copy of 12
/// bytes, where a fill stores each 3-byte pixel on its own.
type Block = [Color; SHORT_RUN];

/// Writes runs of one colour into a target in scanline order. A run may
/// wrap rows; no run may pass the last pixel.
///
/// The writer holds the unwritten rest of the current row across runs,
/// so a run costs no row lookup. A run of at most [`SHORT_RUN`] pixels
/// that starts at least that many pixels before the row's end stores
/// its colour's [`Block`] with no branch on its length, then advances
/// by the length. The store never leaves the row, and the runs that
/// follow overwrite its extra pixels, so a payload that covers the rect
/// decodes to the same pixels as one fill per run. Longer runs are
/// written block by block through [`fill_row`], as solid RRE and
/// Hextile rects are through [`RectMut::fill`].
struct RunWriter<'r, R> {
    /// The unwritten rest of the current row.
    row: &'r mut [Color],
    /// The rows below it.
    rows: R,
    width: usize,
    area: u64,
}

impl<'r, R: ExactSizeIterator<Item = &'r mut [Color]>> RunWriter<'r, R> {
    /// Pixels not yet written.
    fn left(&self) -> u64 {
        self.row.len() as u64 + self.rows.len() as u64 * self.width as u64
    }

    /// Writes the next `n` pixels in the colour of `block`. `what` names
    /// the encoding in the error when they pass the last pixel.
    #[inline(always)]
    fn run(&mut self, n: usize, block: &Block, what: &str) -> Result<()> {
        if n <= SHORT_RUN {
            if let Some(head) = self.row.first_chunk_mut::<SHORT_RUN>() {
                *head = *block;
                self.row = &mut std::mem::take(&mut self.row)[n..];
                return Ok(());
            }
        }
        self.long_run(n, block, what)
    }

    /// [`run`](Self::run) for a run that may reach the row's end: out of
    /// line, so the short-run path stays small.
    #[inline(never)]
    fn long_run(&mut self, mut n: usize, block: &Block, what: &str) -> Result<()> {
        loop {
            let take = n.min(self.row.len());
            let (head, rest) = std::mem::take(&mut self.row).split_at_mut(take);
            fill_row(head, block);
            self.row = rest;
            n -= take;
            if n == 0 {
                return Ok(());
            }
            self.row = self.rows.next().ok_or_else(|| overrun(what))?;
        }
    }

    /// Fails unless the runs covered every pixel.
    fn finish(&self, what: &str) -> Result<()> {
        let left = self.left();
        if left == 0 {
            return Ok(());
        }
        Err(ProtocolError::Malformed(format!(
            "{what} covered {} of {} pixels",
            self.area - left,
            self.area
        )))
    }
}

/// A writer for `target`'s pixels, starting at its top-left.
fn run_writer<'r>(
    target: &'r mut RectMut<'_>,
) -> RunWriter<'r, impl ExactSizeIterator<Item = &'r mut [Color]>> {
    let (width, area) = (target.width() as usize, target.bounds().area());
    RunWriter {
        row: &mut [],
        rows: target.rows_mut(),
        width,
        area,
    }
}

// ----------------------------------------------------------- analysis --

/// Most colours a palette holds: PaletteRle indexes them with a `u8`, and
/// sends a rect with more colours raw.
const PALETTE_CAP: usize = 255;

/// Longest run one RLE or PaletteRle run length can carry.
const MAX_RUN: usize = u16::MAX as usize;

/// Runs per row [`Colours::scan`] makes room for before its pass, so that
/// the runs of a flat GUI rect are stored without growing the buffer.
const RUNS_PER_ROW: usize = 8;

/// The encodings [`RectAnalysis::choose`] prices, in the order that breaks
/// a tie in bytes.
const PRICED: [Encoding; 4] = [
    Encoding::Raw,
    Encoding::Rre,
    Encoding::Rle,
    Encoding::PaletteRle,
];

/// A maximal run of one colour in scanline order; it may wrap rows.
#[derive(Debug, Clone, Copy)]
struct Run {
    color: Color,
    /// The colour's palette index; 0 once the palette overflowed.
    index: u8,
    /// Pixels in the run: a `u32` keeps a run in 8 bytes, and an
    /// analysed rect holds at most `u32::MAX` pixels.
    len: u32,
}

/// The colours of a stream of pixel rows read as one scanline sequence:
/// its runs and its palette.
#[derive(Debug, Default)]
struct Colours {
    runs: Vec<Run>,
    /// Distinct colours ([`Color::to_u32`]) in first-appearance order.
    palette: Vec<u32>,
    /// More than [`PALETTE_CAP`] colours appeared. The palette and the
    /// runs' indices stop at the run that brought in the first colour
    /// that did not fit.
    overflow: bool,
    /// Runs once those longer than [`MAX_RUN`] are split.
    pieces: usize,
}

impl Colours {
    /// Scans `rows` into `self`, reusing its buffers. The pass steps run
    /// by run: a pixel repeating its predecessor costs one comparison,
    /// and only a run's first pixel searches the palette.
    fn scan<'p>(&mut self, rows: impl ExactSizeIterator<Item = &'p [Color]>) {
        self.runs.clear();
        self.palette.clear();
        self.overflow = false;
        self.runs.reserve(rows.len() * RUNS_PER_ROW);
        self.palette.reserve(PALETTE_CAP);
        for mut rest in rows {
            while let Some(&color) = rest.first() {
                let len = rest.iter().position(|&p| p != color).unwrap_or(rest.len());
                rest = &rest[len..];
                match self.runs.last_mut() {
                    // Only a run that wraps into the next row continues.
                    Some(run) if run.color == color => run.len += len as u32,
                    _ => self.open(color, len),
                }
            }
        }
        self.pieces = self
            .runs
            .iter()
            .map(|r| (r.len as usize).div_ceil(MAX_RUN))
            .sum();
    }

    /// Starts a run, entering its colour in the palette.
    fn open(&mut self, color: Color, len: usize) {
        let mut index = 0;
        if !self.overflow {
            match self.runs.len().checked_sub(2).map(|i| self.runs[i]) {
                // The colour before the last run's, as text on a
                // background alternates: no palette search.
                Some(back) if back.color == color => index = back.index,
                _ => {
                    let key = color.to_u32();
                    match self.palette.iter().position(|&c| c == key) {
                        Some(i) => index = i as u8,
                        None if self.palette.len() < PALETTE_CAP => {
                            index = self.palette.len() as u8;
                            self.palette.push(key);
                        }
                        None => self.overflow = true,
                    }
                }
            }
        }
        self.runs.push(Run {
            color,
            index,
            len: len as u32,
        });
    }

    /// The most frequent colour; of colours with equal counts, the one
    /// that appears first wins. Black when there are no pixels.
    fn dominant(&self) -> Color {
        if !self.overflow {
            let mut counts = vec![0; self.palette.len()];
            for run in &self.runs {
                counts[run.index as usize] += run.len as usize;
            }
            let mut best: Option<(usize, u32)> = None;
            for (&c, &n) in self.palette.iter().zip(&counts) {
                if best.is_none_or(|(most, _)| n > most) {
                    best = Some((n, c));
                }
            }
            return best.map_or(Color::BLACK, |(_, c)| Color::from_u32(c));
        }
        // Too many colours for the palette: total each colour's runs by
        // sorting them, keeping run order within a colour for the tie.
        let mut runs: Vec<(u32, usize, usize)> = self
            .runs
            .iter()
            .enumerate()
            .map(|(i, r)| (r.color.to_u32(), i, r.len as usize))
            .collect();
        runs.sort_unstable();
        let mut best = (0, usize::MAX, Color::BLACK);
        for same in runs.chunk_by(|a, b| a.0 == b.0) {
            let n: usize = same.iter().map(|r| r.2).sum();
            let first = same[0].1;
            if n > best.0 || (n == best.0 && first < best.1) {
                best = (n, first, Color::from_u32(same[0].0));
            }
        }
        best.2
    }

    /// The palette packed in `fmt`, one standalone pixel per entry.
    fn packed_palette(&self, fmt: PixelFormat) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.palette.len() * fmt.row_bytes(1));
        for &c in &self.palette {
            put_pixel(fmt, Color::from_u32(c), &mut out);
        }
        out
    }

    /// Calls `emit` with each run and a length, splitting runs longer than
    /// [`MAX_RUN`] into [`pieces`](Self::pieces) as RLE and PaletteRle
    /// send them.
    fn for_each_piece(&self, mut emit: impl FnMut(&Run, u16)) {
        for run in &self.runs {
            let mut left = run.len as usize;
            while left > MAX_RUN {
                emit(run, MAX_RUN as u16);
                left -= MAX_RUN;
            }
            emit(run, left as u16);
        }
    }
}

/// RRE's background, the most frequent colour, and the subrects that
/// cover every other pixel.
#[derive(Debug)]
struct Rre {
    bg: Color,
    subs: Vec<SubRect>,
}

/// One rect's pixels, analysed once for every encoder and pixel format.
///
/// [`new`](Self::new) and [`in_frame`](Self::in_frame) make one scanline
/// pass over the rect's canonical pixels, where they lie, and keep:
///
/// - the colour runs, each with its palette index;
/// - the palette in first-appearance order, capped at 255 entries
///   (PaletteRle sends a rect with more colours raw);
/// - a view of the pixels, for Raw and Hextile.
///
/// Every encoder reads this one table. PaletteRle emits the palette and
/// the index runs; RLE emits the runs; Mono1 Raw sets each run's bit;
/// RRE takes its background (the colour with the most pixels) and its
/// subrects from the runs, built once, the first time RRE is priced or
/// emitted. Hextile analyses each tile the same way.
/// Nothing in it depends on a pixel format, so one analysis serves
/// clients in every format: [`choose`](Self::choose) prices the
/// encodings in any of them and [`encode`](Self::encode) emits them.
#[derive(Debug)]
pub struct RectAnalysis<'a> {
    rect: Rect,
    /// The rect's rows: row `y` is the `rect.w` pixels from
    /// `y * stride`.
    pixels: &'a [Color],
    stride: usize,
    colours: Colours,
    rre: OnceCell<Rre>,
}

impl<'a> RectAnalysis<'a> {
    /// Analyses `pixels` (row-major, covering `rect`).
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != rect.area()`, or if the rect holds
    /// more than `u32::MAX` pixels (a run's length is a `u32`).
    pub fn new(pixels: &'a [Color], rect: Rect) -> RectAnalysis<'a> {
        assert_eq!(pixels.len() as u64, rect.area(), "pixel count mismatch");
        assert!(rect.area() <= u32::MAX as u64, "rect too large to analyse");
        RectAnalysis::over(pixels, rect.w as usize, rect)
    }

    /// Analyses `rect` clipped to `fb` in place, copying no pixel; `None`
    /// when `rect` lies outside `fb`. A framebuffer holds at most
    /// [`MAX_PIXELS`] pixels, so any rect of it can be analysed.
    ///
    /// [`MAX_PIXELS`]: uniint_raster::framebuffer::MAX_PIXELS
    pub fn in_frame(fb: &'a Framebuffer, rect: Rect) -> Option<RectAnalysis<'a>> {
        let rect = rect.intersect(fb.bounds())?;
        let stride = fb.width() as usize;
        let start = rect.y as usize * stride + rect.x as usize;
        let end = start + (rect.h as usize - 1) * stride + rect.w as usize;
        Some(RectAnalysis::over(&fb.pixels()[start..end], stride, rect))
    }

    fn over(pixels: &'a [Color], stride: usize, rect: Rect) -> RectAnalysis<'a> {
        let mut analysis = RectAnalysis {
            rect,
            pixels,
            stride,
            colours: Colours::default(),
            rre: OnceCell::new(),
        };
        analysis.colours.scan(analysis.rows());
        analysis
    }

    /// The analysed rect.
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// The rect's rows of pixels, top to bottom.
    fn rows(&self) -> impl ExactSizeIterator<Item = &'a [Color]> + Clone {
        let (pixels, stride, w) = (self.pixels, self.stride, self.rect.w as usize);
        (0..self.rect.h as usize).map(move |y| &pixels[y * stride..][..w])
    }

    /// RRE's background and subrects, built on first use.
    fn rre(&self) -> &Rre {
        self.rre.get_or_init(|| {
            let bg = self.colours.dominant();
            Rre {
                bg,
                subs: subrects(&self.colours.runs, self.rect.w as usize, bg),
            }
        })
    }

    /// The length of [`encode`](Self::encode)'s payload for `encoding`,
    /// one of [`PRICED`], in `fmt`: worked out from the analysis, without
    /// emitting a byte.
    fn wire_len(&self, encoding: Encoding, fmt: PixelFormat) -> usize {
        let px = fmt.row_bytes(1);
        let raw = fmt.buffer_bytes(self.rect.w, self.rect.h);
        let c = &self.colours;
        match encoding {
            Encoding::Raw => raw,
            // Count, background, then a pixel and four u16s per subrect.
            Encoding::Rre => 4 + px + self.rre().subs.len() * (px + 8),
            // Count, then a u16 length and a pixel per run.
            Encoding::Rle => 4 + c.pieces * (2 + px),
            Encoding::PaletteRle if c.overflow => 1 + raw,
            Encoding::PaletteRle if c.palette.len() == 1 => 1 + px,
            // Mode, palette size, palette, run count, then an index and a
            // u16 length per run.
            Encoding::PaletteRle => 6 + c.palette.len() * px + c.pieces * 3,
            Encoding::CopyRect | Encoding::Hextile => {
                unreachable!("{encoding} is not priced")
            }
        }
    }

    /// The encoding whose payload in `fmt` is smallest, among Raw, RRE,
    /// RLE and PaletteRle as far as `allowed` (from `SetEncodings`)
    /// contains them. Each is priced from the analysis by arithmetic,
    /// except RRE, whose subrects are built once and kept for
    /// [`encode`](Self::encode). Of encodings with equal payloads, the
    /// first in the order Raw, RRE, RLE, PaletteRle wins.
    ///
    /// Hextile is not priced: it is the answer only when `allowed` holds
    /// none of the four. Never returns [`Encoding::CopyRect`], which
    /// carries no pixels: when `allowed` names no pixel encoding the
    /// answer is [`Encoding::Raw`], which every client decodes.
    pub fn choose(&self, allowed: &[Encoding], fmt: PixelFormat) -> Encoding {
        PRICED
            .into_iter()
            .filter(|e| allowed.contains(e))
            .min_by_key(|&e| self.wire_len(e, fmt))
            .unwrap_or(if allowed.contains(&Encoding::Hextile) {
                Encoding::Hextile
            } else {
                Encoding::Raw
            })
    }

    /// The rect's wire bytes with `encoding`, in `fmt`.
    ///
    /// # Panics
    ///
    /// Panics if `encoding` is [`Encoding::CopyRect`] (use
    /// [`encode_copy_rect`]).
    pub fn encode(&self, encoding: Encoding, fmt: PixelFormat) -> Vec<u8> {
        match encoding {
            Encoding::Raw => encode_raw(self, fmt),
            Encoding::CopyRect => panic!("CopyRect carries no pixels; use encode_copy_rect"),
            Encoding::Rre => encode_rre(self.rre(), fmt),
            Encoding::Hextile => encode_hextile(self, fmt),
            Encoding::Rle => encode_rle(&self.colours, fmt),
            Encoding::PaletteRle => encode_palette_rle(self, fmt),
        }
    }
}

// ---------------------------------------------------------------- raw --

/// Packs the rect's pixels row by row, except in Mono1, which
/// [`encode_mono_raw`] packs from the runs.
fn encode_raw(analysis: &RectAnalysis, fmt: PixelFormat) -> Vec<u8> {
    let rect = analysis.rect;
    if fmt == PixelFormat::Mono1 {
        return encode_mono_raw(&analysis.colours, rect);
    }
    let mut out = Vec::with_capacity(fmt.buffer_bytes(rect.w, rect.h));
    for row in analysis.rows() {
        pack_row(fmt, row, None, &mut out);
    }
    out
}

/// Raw in [`PixelFormat::Mono1`], packed from the runs: each run's bit
/// is worked out once and set across its pixels, a whole byte at a time
/// where it covers one. The bytes are those [`pack_row`] gives.
fn encode_mono_raw(c: &Colours, rect: Rect) -> Vec<u8> {
    let w = rect.w as usize;
    let row_bytes = PixelFormat::Mono1.row_bytes(rect.w);
    let mut out = vec![0u8; row_bytes * rect.h as usize];
    let mut rows = out.chunks_exact_mut(row_bytes.max(1));
    let mut row: &mut [u8] = &mut [];
    let mut x = w;
    for run in &c.runs {
        // All ones for a white run, no bits for a black one.
        let bits = 0u8.wrapping_sub(u8::from(run.color.luma() >= 128));
        let mut left = run.len as usize;
        while left > 0 {
            if x == w {
                row = rows.next().expect("runs cover the rect");
                x = 0;
            }
            let n = left.min(w - x);
            set_bits(row, x, x + n, bits);
            x += n;
            left -= n;
        }
    }
    out
}

/// ORs `bits` into bits `from..to` of `row` (`from < to`), most
/// significant bit first.
fn set_bits(row: &mut [u8], from: usize, to: usize, bits: u8) {
    let (first, last) = (from / 8, (to - 1) / 8);
    let head = bits >> (from % 8);
    let tail = bits << (7 - (to - 1) % 8);
    if first == last {
        row[first] |= head & tail;
    } else {
        row[first] |= head;
        row[first + 1..last].fill(bits);
        row[last] |= tail;
    }
}

fn decode_raw(buf: &mut &[u8], fmt: PixelFormat, target: &mut RectMut) -> Result<()> {
    for y in 0..target.height() {
        get_row(fmt, buf, target.row(y))?;
    }
    Ok(())
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

/// The subrects covering every pixel not `bg` in `runs`, a scanline
/// stream `w` pixels wide. Each run is cut at the row edges; a cut run
/// with the same x, width and colour as one in the row above grows that
/// one's subrect by a row, and any other starts a new subrect. The rows'
/// runs are kept in x order, so the match is a merge, not a lookup.
/// Background runs only move the position.
fn subrects(runs: &[Run], w: usize, bg: Color) -> Vec<SubRect> {
    let mut out: Vec<SubRect> = Vec::with_capacity(runs.len() / 2);
    // (x, width, index in `out`) of the previous row's and this row's
    // runs that are not background.
    let mut above: Vec<(u32, u32, u32)> = Vec::with_capacity(w.min(runs.len()));
    let mut row: Vec<(u32, u32, u32)> = Vec::with_capacity(w.min(runs.len()));
    let mut next_above = 0;
    let (mut x, mut y) = (0, 0);
    for run in runs {
        let mut left = run.len as usize;
        if run.color == bg {
            x += left;
            if x >= w {
                // It ends this row, whose runs go above the next...
                std::mem::swap(&mut above, &mut row);
                row.clear();
                next_above = 0;
                y += 1;
                x -= w;
                if x >= w {
                    // ...unless it fills that row too.
                    above.clear();
                    y += x / w;
                    x %= w;
                }
            }
            continue;
        }
        while left > 0 {
            let n = left.min(w - x);
            while above.get(next_above).is_some_and(|a| (a.0 as usize) < x) {
                next_above += 1;
            }
            let idx = match above.get(next_above) {
                Some(&(ax, an, i))
                    if (ax as usize, an as usize) == (x, n)
                        && out[i as usize].color == run.color =>
                {
                    out[i as usize].h += 1;
                    i
                }
                _ => {
                    out.push(SubRect {
                        color: run.color,
                        x: x as u16,
                        y: y as u16,
                        w: n as u16,
                        h: 1,
                    });
                    (out.len() - 1) as u32
                }
            };
            row.push((x as u32, n as u32, idx));
            x += n;
            left -= n;
            if x == w {
                std::mem::swap(&mut above, &mut row);
                row.clear();
                next_above = 0;
                x = 0;
                y += 1;
            }
        }
    }
    out
}

fn encode_rre(rre: &Rre, fmt: PixelFormat) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + (rre.subs.len() + 1) * (fmt.row_bytes(1) + 8));
    out.extend_from_slice(&(rre.subs.len() as u32).to_be_bytes());
    put_pixel(fmt, rre.bg, &mut out);
    for s in &rre.subs {
        put_pixel(fmt, s.color, &mut out);
        for v in [s.x, s.y, s.w, s.h] {
            out.extend_from_slice(&v.to_be_bytes());
        }
    }
    out
}

fn decode_rre(buf: &mut &[u8], fmt: PixelFormat, target: &mut RectMut) -> Result<()> {
    let bounds = target.bounds();
    let count = wire::get_u32(buf)?;
    if count as u64 > bounds.area().max(1) {
        return Err(ProtocolError::Malformed(format!(
            "rre subrect count {count} exceeds rect area"
        )));
    }
    target.fill(bounds, get_pixel(fmt, buf)?);
    // Each subrect is a pixel, then its x, y, width and height as u16s.
    let px = fmt.row_bytes(1);
    for _ in 0..count {
        let (c, [x, y, sw, sh]) = match wire::get_bytes(buf, px + 8) {
            Ok(record) => {
                let (c, xywh) = record.split_at(px);
                let field = |i: usize| u16::from_be_bytes([xywh[i], xywh[i + 1]]) as u32;
                (pixel_at(fmt, c)?, [field(0), field(2), field(4), field(6)])
            }
            Err(_) => rre_subrect_by_fields(buf, fmt)?,
        };
        // Per axis, so that an empty subrect must lie inside too:
        // `contains_rect` passes every empty rect.
        if x + sw > bounds.w || y + sh > bounds.h {
            return Err(ProtocolError::Malformed("rre subrect out of bounds".into()));
        }
        target.fill(Rect::new(x as i32, y as i32, sw, sh), c);
    }
    Ok(())
}

/// Reads an RRE subrect record one field at a time: the path of a record
/// cut short, which fails at the first field that is, and leaves the
/// cursor past the fields before it.
#[cold]
fn rre_subrect_by_fields(buf: &mut &[u8], fmt: PixelFormat) -> Result<(Color, [u32; 4])> {
    let c = get_pixel(fmt, buf)?;
    let mut xywh = [0; 4];
    for v in &mut xywh {
        *v = wire::get_u16(buf)? as u32;
    }
    Ok((c, xywh))
}

// ------------------------------------------------------------ hextile --

const TILE: usize = 16;
const HEX_RAW: u8 = 1;
const HEX_BG: u8 = 2;
const HEX_SUBRECTS: u8 = 8;
const HEX_COLOURED: u8 = 16;

/// Each tile is analysed like a rect (runs and palette) for its
/// background and subrects, and sent raw when that is no larger in
/// `fmt`.
fn encode_hextile(analysis: &RectAnalysis, fmt: PixelFormat) -> Vec<u8> {
    let w = analysis.rect.w as usize;
    let h = analysis.rect.h as usize;
    let px_bytes = fmt.row_bytes(1);
    let mut out = Vec::new();
    let mut tile = Colours::default();
    let mut last_bg: Option<Color> = None;
    for ty in (0..h).step_by(TILE) {
        for tx in (0..w).step_by(TILE) {
            let tw = TILE.min(w - tx);
            let th = TILE.min(h - ty);
            let rows = analysis
                .rows()
                .skip(ty)
                .take(th)
                .map(|row| &row[tx..tx + tw]);
            tile.scan(rows.clone());
            let bg = tile.dominant();
            let subs = subrects(&tile.runs, tw, bg);
            // Estimate cost: subrect path vs raw path.
            let sub_cost = 1
                + if last_bg == Some(bg) { 0 } else { px_bytes }
                + 1
                + subs.len() * (px_bytes + 2);
            let raw_cost = 1 + th * fmt.row_bytes(tw as u32);
            if subs.len() > 255 || sub_cost >= raw_cost {
                out.push(HEX_RAW);
                for row in rows {
                    pack_row(fmt, row, None, &mut out);
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

fn decode_hextile(buf: &mut &[u8], fmt: PixelFormat, target: &mut RectMut) -> Result<()> {
    let w = target.width() as usize;
    let h = target.height() as usize;
    let px = fmt.row_bytes(1);
    let mut last_bg = Color::BLACK;
    for ty in (0..h).step_by(TILE) {
        for tx in (0..w).step_by(TILE) {
            let tw = TILE.min(w - tx);
            let th = TILE.min(h - ty);
            // The `sw`×`sh` rect at `(x, y)` in this tile, in the
            // target's space.
            let at = |x: usize, y: usize, sw: usize, sh: usize| {
                Rect::new((tx + x) as i32, (ty + y) as i32, sw as u32, sh as u32)
            };
            let flags = wire::get_u8(buf)?;
            if flags & HEX_RAW != 0 {
                for y in ty..ty + th {
                    let row = &mut target.row(y as u32)[tx..tx + tw];
                    get_row(fmt, buf, row)?;
                }
                continue;
            }
            if flags & HEX_BG != 0 {
                last_bg = get_pixel(fmt, buf)?;
            }
            target.fill(at(0, 0, tw, th), last_bg);
            if flags & HEX_SUBRECTS != 0 {
                let n = wire::get_u8(buf)? as usize;
                // Each subrect is its pixel, if coloured, then a byte
                // each of position and size.
                let px = if flags & HEX_COLOURED != 0 { px } else { 0 };
                for _ in 0..n {
                    let (c, [xy, wh]) = match wire::get_bytes(buf, px + 2) {
                        Ok(record) => {
                            let (c, xywh) = record.split_at(px);
                            let c = if px == 0 { last_bg } else { pixel_at(fmt, c)? };
                            (c, [xywh[0], xywh[1]])
                        }
                        Err(_) => hextile_subrect_by_fields(buf, fmt, px, last_bg)?,
                    };
                    let sx = (xy >> 4) as usize;
                    let sy = (xy & 0x0f) as usize;
                    let sw = ((wh >> 4) + 1) as usize;
                    let sh = ((wh & 0x0f) + 1) as usize;
                    if sx + sw > tw || sy + sh > th {
                        return Err(ProtocolError::Malformed("hextile subrect oob".into()));
                    }
                    target.fill(at(sx, sy, sw, sh), c);
                }
            }
        }
    }
    Ok(())
}

/// Reads a Hextile subrect record one field at a time, its pixel only if
/// `px` is not 0 (else the colour is `bg`): the path of a record cut
/// short, as for [`rre_subrect_by_fields`].
#[cold]
fn hextile_subrect_by_fields(
    buf: &mut &[u8],
    fmt: PixelFormat,
    px: usize,
    bg: Color,
) -> Result<(Color, [u8; 2])> {
    let c = if px == 0 { bg } else { get_pixel(fmt, buf)? };
    Ok((c, [wire::get_u8(buf)?, wire::get_u8(buf)?]))
}

// ---------------------------------------------------------------- rle --

fn encode_rle(c: &Colours, fmt: PixelFormat) -> Vec<u8> {
    let px_bytes = fmt.row_bytes(1);
    let mut out = Vec::with_capacity(4 + c.pieces * (2 + px_bytes));
    out.extend_from_slice(&(c.pieces as u32).to_be_bytes());
    // Each palette colour is packed once; past an overflow, each run.
    let palette = (!c.overflow).then(|| c.packed_palette(fmt));
    c.for_each_piece(|run, n| {
        out.extend_from_slice(&n.to_be_bytes());
        match &palette {
            Some(packed) => {
                let at = run.index as usize * px_bytes;
                out.extend_from_slice(&packed[at..at + px_bytes]);
            }
            None => put_pixel(fmt, run.color, &mut out),
        }
    });
    out
}

fn decode_rle(buf: &mut &[u8], fmt: PixelFormat, target: &mut RectMut) -> Result<()> {
    let mut out = run_writer(target);
    let nruns = wire::get_u32(buf)?;
    if nruns as u64 > out.area {
        return Err(ProtocolError::Malformed(
            "rle has more runs than pixels".into(),
        ));
    }
    // Each run is a u16 length and a pixel.
    let run_bytes = 2 + fmt.row_bytes(1);
    let runs = wire::get_bytes(buf, nruns as usize * run_bytes)?;
    for run in runs.chunks_exact(run_bytes) {
        let c = pixel_at(fmt, &run[2..])?;
        out.run(
            u16::from_be_bytes([run[0], run[1]]) as usize,
            &[c; SHORT_RUN],
            "rle",
        )?;
    }
    out.finish("rle")
}

// -------------------------------------------------------- palette-rle --

const PRLE_RAW: u8 = 0;
const PRLE_SOLID: u8 = 1;
const PRLE_INDEXED: u8 = 2;

fn encode_palette_rle(analysis: &RectAnalysis, fmt: PixelFormat) -> Vec<u8> {
    let c = &analysis.colours;
    if c.overflow {
        // Too many colors: raw fallback.
        let mut out = vec![PRLE_RAW];
        out.extend(encode_raw(analysis, fmt));
        return out;
    }
    if let [solid] = c.palette[..] {
        let mut out = vec![PRLE_SOLID];
        put_pixel(fmt, Color::from_u32(solid), &mut out);
        return out;
    }
    let mut out = Vec::with_capacity(6 + c.palette.len() * fmt.row_bytes(1) + c.pieces * 3);
    out.push(PRLE_INDEXED);
    out.push(c.palette.len() as u8);
    out.extend(c.packed_palette(fmt));
    // Index runs: (u8 index, u16 len).
    out.extend_from_slice(&(c.pieces as u32).to_be_bytes());
    c.for_each_piece(|run, n| {
        let [hi, lo] = n.to_be_bytes();
        out.extend_from_slice(&[run.index, hi, lo]);
    });
    out
}

fn decode_palette_rle(buf: &mut &[u8], fmt: PixelFormat, target: &mut RectMut) -> Result<()> {
    let mode = wire::get_u8(buf)?;
    match mode {
        PRLE_RAW => decode_raw(buf, fmt, target),
        PRLE_SOLID => {
            target.fill(target.bounds(), get_pixel(fmt, buf)?);
            Ok(())
        }
        PRLE_INDEXED => {
            let n = wire::get_u8(buf)? as usize;
            if n < 2 {
                return Err(ProtocolError::Malformed(
                    "palette-rle palette too small".into(),
                ));
            }
            // Each entry as the block its runs are written with.
            let mut entries = [[Color::BLACK; SHORT_RUN]; PALETTE_CAP];
            for entry in &mut entries[..n] {
                *entry = [get_pixel(fmt, buf)?; SHORT_RUN];
            }
            let palette = &entries[..n];
            let mut out = run_writer(target);
            let nruns = wire::get_u32(buf)?;
            if nruns as u64 > out.area {
                return Err(ProtocolError::Malformed("palette-rle too many runs".into()));
            }
            // Each run is a u8 palette index and a u16 length.
            let runs = wire::get_bytes(buf, nruns as usize * 3)?;
            for run in runs.chunks_exact(3) {
                let block = palette
                    .get(run[0] as usize)
                    .ok_or_else(|| ProtocolError::Malformed("palette-rle index oob".into()))?;
                out.run(
                    u16::from_be_bytes([run[1], run[2]]) as usize,
                    block,
                    "palette-rle",
                )?;
            }
            out.finish("palette-rle")
        }
        other => Err(ProtocolError::Malformed(format!(
            "palette-rle unknown subencoding {other}"
        ))),
    }
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
        assert_eq!(buf.len(), 0, "{enc}/{fmt}: trailing bytes");
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
    fn rre_empty_subrect_outside_the_rect_is_malformed() {
        let rect = Rect::new(0, 0, 8, 8);
        let rre = |x: u16, y: u16, w: u16, h: u16| {
            let mut out = Vec::new();
            out.extend_from_slice(&1u32.to_be_bytes());
            put_pixel(PixelFormat::Rgb888, Color::BLACK, &mut out);
            put_pixel(PixelFormat::Rgb888, Color::RED, &mut out);
            for v in [x, y, w, h] {
                out.extend_from_slice(&v.to_be_bytes());
            }
            out
        };
        for (x, y, w, h) in [(0, 100, 0, 1), (1000, 0, 0, 1), (0, 9, 1, 0), (7, 0, 2, 1)] {
            let payload = rre(x, y, w, h);
            let err = decode_rect(&mut &payload[..], rect, Encoding::Rre, PixelFormat::Rgb888)
                .unwrap_err();
            assert!(matches!(err, ProtocolError::Malformed(_)), "{err:?}");
        }
        // An empty subrect that lies inside writes nothing.
        let payload = rre(8, 8, 0, 0);
        let decoded =
            decode_rect(&mut &payload[..], rect, Encoding::Rre, PixelFormat::Rgb888).unwrap();
        assert_eq!(decoded, DecodedRect::Pixels(vec![Color::BLACK; 64]));
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
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&[0, 0, 0]); // bg
        bytes.extend_from_slice(&[255, 0, 0]); // sub color
        bytes.extend_from_slice(&90u16.to_be_bytes()); // x out of bounds for 10-wide rect
        bytes.extend_from_slice(&0u16.to_be_bytes());
        bytes.extend_from_slice(&5u16.to_be_bytes());
        bytes.extend_from_slice(&1u16.to_be_bytes());
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
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&3u16.to_be_bytes());
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
    fn choose_encoding_sends_the_fewest_bytes() {
        let rect = Rect::new(0, 0, 32, 32);
        // A solid rect: PaletteRle's mode and pixel (4 bytes) beat RRE's
        // count and background (7).
        let solid = vec![Color::GRAY; rect.area() as usize];
        assert_eq!(
            choose_encoding(&solid, rect, &Encoding::ALL),
            Encoding::PaletteRle
        );
        assert_eq!(
            choose_encoding(&solid, rect, &[Encoding::Rle, Encoding::Rre]),
            Encoding::Rre
        );
        // A flat panel with one box: one subrect beats the box's runs.
        let mut panel = vec![Color::LIGHT_GRAY; rect.area() as usize];
        for row in panel.chunks_exact_mut(32).skip(8).take(10) {
            row[4..24].fill(Color::BLUE);
        }
        assert_eq!(choose_encoding(&panel, rect, &Encoding::ALL), Encoding::Rre);
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
        // Hextile is not priced: Raw, when allowed, is sent instead.
        assert_eq!(
            choose_encoding(&noise, rect, &[Encoding::Hextile, Encoding::Raw]),
            Encoding::Raw
        );
        assert_eq!(
            choose_encoding(&noise, rect, &[Encoding::CopyRect]),
            Encoding::Raw
        );
    }

    #[test]
    fn the_choice_depends_on_the_format() {
        // A checkerboard of 2×1 cells: in Rgb888 three bytes a run beat
        // three bytes a pixel, in Mono1 one bit a pixel beats them.
        let rect = Rect::new(0, 0, 64, 8);
        let px: Vec<Color> = (0..rect.area() as usize)
            .map(|i| [Color::BLACK, Color::WHITE][(i % 64 / 2 + i / 64) % 2])
            .collect();
        let analysis = RectAnalysis::new(&px, rect);
        assert_eq!(
            analysis.choose(&Encoding::ALL, PixelFormat::Rgb888),
            Encoding::PaletteRle
        );
        assert_eq!(
            analysis.choose(&Encoding::ALL, PixelFormat::Mono1),
            Encoding::Raw
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
    fn rre_background_tie_goes_to_the_first_color() {
        // Red and green cover 8 pixels each: the background must not
        // depend on a hash map's iteration order.
        let rect = Rect::new(0, 0, 8, 2);
        let mut px = vec![Color::RED; 8];
        px.extend([Color::GREEN; 8]);
        let payloads: std::collections::BTreeSet<Vec<u8>> = (0..200)
            .map(|_| encode_rect(&px, rect, Encoding::Rre, PixelFormat::Rgb888))
            .collect();
        assert_eq!(payloads.len(), 1, "one payload across 200 calls");
        let payload = payloads.into_iter().next().unwrap();
        assert_eq!(payload[4..7], [255, 0, 0], "red background");
        roundtrip(Encoding::Rre, PixelFormat::Rgb888, rect, &px);
    }

    #[test]
    fn subrects_cover_non_bg_exactly() {
        let rect = Rect::new(0, 0, 8, 4);
        let mut px = [Color::BLACK; 32];
        px[9] = Color::RED;
        px[10] = Color::RED;
        px[17] = Color::RED;
        px[18] = Color::RED;
        let runs = RectAnalysis::new(&px[..], rect).colours.runs;
        let subs = subrects(&runs, 8, Color::BLACK);
        assert_eq!(subs.len(), 1, "vertically merged: {subs:?}");
        assert_eq!(subs[0].h, 2);
    }

    #[test]
    fn subrects_cut_runs_at_row_edges() {
        // One red run fills rows 1 and 2 and wraps into row 3: the two
        // full rows merge, the tail of the run starts its own subrect.
        let rect = Rect::new(0, 0, 5, 4);
        let mut px = [Color::BLACK; 20];
        px[5..18].fill(Color::RED);
        let runs = RectAnalysis::new(&px[..], rect).colours.runs;
        assert_eq!(runs.len(), 3);
        let subs = subrects(&runs, 5, Color::BLACK);
        let at = |x, y, w, h| SubRect {
            color: Color::RED,
            x,
            y,
            w,
            h,
        };
        assert_eq!(subs, [at(0, 1, 5, 2), at(0, 3, 3, 1)]);
    }

    #[test]
    fn background_past_the_palette_cap_breaks_ties_by_first_appearance() {
        // 300 distinct colours, then two that cover 20 pixels each: the
        // palette overflows, and the earlier of the two is the background.
        let mut px: Vec<Color> = (0..300u32).map(|i| Color::from_u32(i + 1)).collect();
        px.extend([Color::GREEN; 10]);
        px.extend([Color::RED; 20]);
        px.extend([Color::GREEN; 10]);
        let rect = Rect::new(0, 0, 10, 34);
        let analysis = RectAnalysis::new(&px[..], rect);
        assert!(analysis.colours.overflow);
        assert_eq!(analysis.colours.dominant(), Color::GREEN);
        roundtrip(Encoding::Rre, PixelFormat::Rgb888, rect, &px);
    }

    #[test]
    fn mono_raw_from_the_runs_is_what_pack_row_gives() {
        // Widths on both sides of a byte, runs that wrap rows and runs
        // longer than a row.
        for w in 1..=19 {
            let rect = Rect::new(0, 0, w, 5);
            let mut px = gui_like(rect);
            px[(w as usize * 2)..].fill(Color::WHITE);
            px[(w as usize * 3 + w as usize / 2)..].fill(Color::BLACK);
            let mut packed = Vec::new();
            for row in px.chunks_exact(w as usize) {
                pack_row(PixelFormat::Mono1, row, None, &mut packed);
            }
            let analysis = RectAnalysis::new(&px, rect);
            assert_eq!(
                analysis.encode(Encoding::Raw, PixelFormat::Mono1),
                packed,
                "{w}"
            );
        }
    }

    #[test]
    fn one_analysis_emits_every_format() {
        let rect = Rect::new(0, 0, 37, 23);
        let px = gui_like(rect);
        let analysis = RectAnalysis::new(&px, rect);
        assert_eq!(
            analysis.choose(&Encoding::ALL, PixelFormat::Rgb888),
            choose_encoding(&px, rect, &Encoding::ALL)
        );
        for fmt in PixelFormat::ALL {
            for enc in [
                Encoding::Raw,
                Encoding::Rre,
                Encoding::Hextile,
                Encoding::Rle,
                Encoding::PaletteRle,
            ] {
                let payload = analysis.encode(enc, fmt);
                assert_eq!(payload, encode_rect(&px, rect, enc, fmt), "{enc}/{fmt}");
                if PRICED.contains(&enc) {
                    assert_eq!(analysis.wire_len(enc, fmt), payload.len(), "{enc}/{fmt}");
                }
                let mut buf: &[u8] = &payload;
                let DecodedRect::Pixels(out) = decode_rect(&mut buf, rect, enc, fmt).unwrap()
                else {
                    panic!("{enc}/{fmt} carries pixels");
                };
                assert!(
                    out.iter().zip(&px).all(|(&o, &p)| o == fmt.reduce(p)),
                    "{enc}/{fmt}"
                );
            }
        }
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
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.push(9); // index out of palette
        bytes.extend_from_slice(&4u16.to_be_bytes());
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

#[cfg(test)]
mod run_writer_tests {
    use super::*;

    fn pixels(
        payload: &[u8],
        w: u32,
        h: u32,
        enc: Encoding,
        fmt: PixelFormat,
    ) -> Result<Vec<Color>> {
        match decode_rect(&mut &payload[..], Rect::new(0, 0, w, h), enc, fmt)? {
            DecodedRect::Pixels(px) => Ok(px),
            DecodedRect::CopyFrom(p) => panic!("copyrect {p:?}"),
        }
    }

    /// Decodes a `w`×`h` PaletteRle rect in Rgb888 with a black and
    /// white palette and `runs` of (palette index, length).
    fn prle(runs: &[(u8, u16)], w: u32, h: u32) -> Result<Vec<Color>> {
        let mut out = vec![PRLE_INDEXED, 2, 0, 0, 0, 255, 255, 255];
        out.extend_from_slice(&(runs.len() as u32).to_be_bytes());
        for &(i, n) in runs {
            out.push(i);
            out.extend_from_slice(&n.to_be_bytes());
        }
        pixels(&out, w, h, Encoding::PaletteRle, PixelFormat::Rgb888)
    }

    /// Decodes a `w`×`h` RLE rect in Gray8 with `runs` of (length, grey
    /// level).
    fn rle(runs: &[(u16, u8)], w: u32, h: u32) -> Result<Vec<Color>> {
        let mut out = (runs.len() as u32).to_be_bytes().to_vec();
        for &(n, v) in runs {
            out.extend_from_slice(&n.to_be_bytes());
            out.push(v);
        }
        pixels(&out, w, h, Encoding::Rle, PixelFormat::Gray8)
    }

    fn malformed(what: &str) -> Result<Vec<Color>> {
        Err(ProtocolError::Malformed(what.into()))
    }

    #[test]
    fn a_run_past_the_last_pixel_overruns() {
        let overrun = malformed("palette-rle overruns rect");
        // From a short run's store position, from the end of a row, and
        // from the last row's last pixels.
        assert_eq!(prle(&[(0, 15)], 7, 2), overrun);
        assert_eq!(prle(&[(0, 7), (1, 8)], 7, 2), overrun);
        assert_eq!(prle(&[(0, 12), (1, 1), (0, 2)], 7, 2), overrun);
        assert_eq!(prle(&[(0, 14), (1, 1)], 7, 2), overrun);
        let overrun = malformed("rle overruns rect");
        assert_eq!(rle(&[(3, 9), (12, 1)], 7, 2), overrun);
        assert_eq!(rle(&[(14, 9), (1, 1)], 7, 2), overrun);
    }

    #[test]
    fn runs_that_stop_short_name_the_pixels_covered() {
        let short = prle(&[(0, 3), (1, 1), (0, 9)], 7, 2);
        assert_eq!(short, malformed("palette-rle covered 13 of 14 pixels"));
        let none = prle(&[], 7, 2);
        assert_eq!(none, malformed("palette-rle covered 0 of 14 pixels"));
        let short = rle(&[(2, 4), (0, 5), (3, 6)], 7, 2);
        assert_eq!(short, malformed("rle covered 5 of 14 pixels"));
    }

    #[test]
    fn a_palette_index_past_the_palette_is_oob() {
        let oob = prle(&[(0, 3), (2, 1), (0, 10)], 7, 2);
        assert_eq!(oob, malformed("palette-rle index oob"));
    }

    #[test]
    fn more_runs_than_pixels_are_refused_before_any_run() {
        let many = prle(&[(0, 1); 15], 7, 2);
        assert_eq!(many, malformed("palette-rle too many runs"));
        let many = rle(&[(1, 0); 15], 7, 2);
        assert_eq!(many, malformed("rle has more runs than pixels"));
        // As many runs as pixels is fine, and so are empty runs.
        assert_eq!(prle(&[(1, 1); 14], 7, 2), Ok(vec![Color::WHITE; 14]));
        let empty = rle(&[(0, 1), (6, 2), (0, 3), (1, 4)], 7, 1);
        let want = [vec![Color::gray(2); 6], vec![Color::gray(4)]].concat();
        assert_eq!(empty, Ok(want));
    }

    #[test]
    fn short_runs_leave_no_extra_pixels_behind() {
        // Each pixel takes the colour of the run it lies in: runs of 0 to
        // 4 pixels at every offset of rows 6 wide, some wrapping; and
        // white runs of 4 and 5 inside rows 12 wide over a frame that
        // starts black, where a store that misses a pixel of its run
        // shows.
        let narrow = [1u16, 0, 2, 4, 3, 1, 4, 0, 2, 2, 3, 1, 4, 2, 1];
        let wide = [4u16, 4, 4, 0, 1, 5, 1, 2, 3];
        for (lens, w, h) in [(&narrow[..], 6, 5), (&wide[..], 12, 2)] {
            let runs: Vec<(u8, u16)> = (0..).zip(lens).map(|(i, &n)| (i % 2, n)).collect();
            let want: Vec<Color> = runs
                .iter()
                .flat_map(|&(i, n)| vec![[Color::BLACK, Color::WHITE][i as usize]; n as usize])
                .collect();
            assert_eq!(want.len() as u32, w * h);
            assert_eq!(prle(&runs, w, h), Ok(want), "{w}x{h}");
        }
    }
}
