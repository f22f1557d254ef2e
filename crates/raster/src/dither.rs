//! Color quantization and dithering.
//!
//! Shallow output devices (4-bit PDA panels, 1-bit phone LCDs) cannot show
//! 24-bit pixels; the UniInt output plug-ins quantize frames to the device
//! palette, optionally with error-diffusion or ordered dithering so GUI
//! gradients and images stay legible.
//!
//! Position-local reductions run by table ([`Reducer`]): one lookup per
//! channel, indexed by Bayer phase and channel value, stands for bias,
//! clamp and reduction. Floyd–Steinberg runs two rows at a time through
//! one kernel, with the quantizer chosen once per rect or rerun, so a
//! pixel does not dispatch on the palette's shape; [`Diffusion`] keeps
//! each pixel's error and reduces again only the columns a change can
//! reach.

use crate::color::{Color, Palette, SUMS};
use crate::framebuffer::{Framebuffer, RowDiff};
use crate::geom::{Rect, Size};
use crate::pixel::PixelFormat;
use core::ops::Range;

/// Dithering algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DitherMode {
    /// Straight nearest-color quantization.
    #[default]
    None,
    /// Floyd–Steinberg error diffusion (serpentine-free, row major).
    FloydSteinberg,
    /// Ordered dithering with a 4×4 Bayer matrix.
    Ordered4x4,
}

impl core::fmt::Display for DitherMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            DitherMode::None => "none",
            DitherMode::FloydSteinberg => "floyd-steinberg",
            DitherMode::Ordered4x4 => "ordered4x4",
        };
        f.write_str(s)
    }
}

/// 4×4 Bayer threshold matrix, values `0..16`.
const BAYER4: [[i32; 4]; 4] = [[0, 8, 2, 10], [12, 4, 14, 6], [3, 11, 1, 9], [15, 7, 13, 5]];

/// Quantizes every pixel of `src` to `palette`, applying `mode`.
/// Returns a new framebuffer whose pixels are all palette colors.
pub fn dither_to_palette(src: &Framebuffer, palette: &Palette, mode: DitherMode) -> Framebuffer {
    let mut out = src.clone();
    let bounds = out.bounds();
    reduce(&mut out, bounds, Target::Palette(palette.clone()), mode);
    out
}

/// Reduces every pixel of `src` to what `format` can represent, dithering
/// with `mode`. True-color formats quantize channel-wise; palette-ish
/// formats (`Gray4`, `Mono1`, `Indexed8`) go through an explicit palette.
pub fn dither_to_format(src: &Framebuffer, format: PixelFormat, mode: DitherMode) -> Framebuffer {
    let mut out = src.clone();
    let bounds = out.bounds();
    reduce_rect(&mut out, bounds, format, mode);
    out
}

/// Reduces the pixels of `rect` (clipped) in place, as
/// [`dither_to_format`] reduces them. Position-local modes give every
/// pixel exactly its whole-frame value; where error diffuses (see
/// [`Diffusion`]), that is true only when `rect` spans the whole frame.
/// Records no damage.
pub fn reduce_rect(fb: &mut Framebuffer, rect: Rect, format: PixelFormat, mode: DitherMode) {
    if let Some(rect) = rect.intersect(fb.bounds()) {
        reduce(fb, rect, Target::of(format), mode);
    }
}

/// Reduces the pixels of `rect` (already clipped) through `target` in
/// place, applying `mode`. Error diffusion starts afresh at the rect's
/// top-left.
fn reduce(fb: &mut Framebuffer, rect: Rect, target: Target, mode: DitherMode) {
    let cols = rect.x as usize..rect.right() as usize;
    let rows = rect.y as u32..rect.bottom() as u32;
    match Reducer::of(target, mode) {
        Ok(Reducer { map: Map::Keep }) => {}
        Ok(reducer) => {
            let mut src = vec![Color::BLACK; cols.len()];
            for y in rows {
                let row = &mut fb.row_mut(y)[cols.clone()];
                src.copy_from_slice(row);
                reducer.row(y, rect.x as u32, &src, row, None);
            }
        }
        // The quantizer is chosen once per rect, not per pixel.
        Err(palette) => match palette.ramp() {
            Some(levels) => diffuse_rect(fb, cols, rows, &ramp(levels)),
            None => diffuse_rect(fb, cols, rows, &|c| palette.quantize(c)),
        },
    }
}

/// Floyd–Steinberg over columns `cols` of rows `rows` of `fb`, in place,
/// two rows at a time.
fn diffuse_rect(
    fb: &mut Framebuffer,
    cols: Range<usize>,
    rows: Range<u32>,
    quantize: &impl Fn(Color) -> Color,
) {
    let w = cols.len();
    let [mut src, mut out] = [(); 2].map(|_| vec![Color::BLACK; 2 * w]);
    // The errors of the row above and of the two rows reduced. Every
    // pixel is reduced, so only the zero cells at either end matter.
    let mut errors = [(); 3].map(|_| vec![[0; 3]; w + 2]);
    let mut kept = [Vec::new(), Vec::new()];
    for y in rows.clone().step_by(2) {
        let n = (rows.end - y).min(2) as usize;
        for (i, sy) in (y..).take(n).enumerate() {
            src[i * w..(i + 1) * w].copy_from_slice(&fb.row(sy)[cols.clone()]);
        }
        let [above, mid, below] = &mut errors;
        let (src_a, src_b) = src.split_at(w);
        let (out_a, out_b) = out.split_at_mut(w);
        diffuse_rows(
            Row {
                src: src_a,
                out: out_a,
            },
            (n == 2).then_some(Row {
                src: src_b,
                out: out_b,
            }),
            above,
            mid,
            below,
            &mut kept,
            0..w,
            0..w,
            quantize,
        );
        for (i, sy) in (y..).take(n).enumerate() {
            fb.row_mut(sy)[cols.clone()].copy_from_slice(&out[i * w..(i + 1) * w]);
        }
        errors.swap(0, 2);
    }
}

/// What pixels are reduced to.
#[derive(Debug, Clone)]
enum Target {
    /// Every colour as it is (`Rgb888`).
    Keep,
    /// The nearest `Rgb565` colour, channel by channel.
    Rgb565,
    /// The nearest `Rgb444` colour, channel by channel.
    Rgb444,
    /// The nearest palette entry.
    Palette(Palette),
}

impl Target {
    fn of(format: PixelFormat) -> Target {
        match format {
            PixelFormat::Rgb888 => Target::Keep,
            PixelFormat::Rgb565 => Target::Rgb565,
            PixelFormat::Rgb444 => Target::Rgb444,
            PixelFormat::Mono1 => Target::Palette(Palette::mono()),
            PixelFormat::Gray4 => Target::Palette(Palette::grayscale(16)),
            PixelFormat::Indexed8 => Target::Palette(Palette::websafe()),
            PixelFormat::Gray8 => Target::Palette(Palette::grayscale(256)),
        }
    }
}

/// How a format and dither mode reduce frames of one size: pixel by
/// pixel, or by error diffusion that runs down the frame.
#[derive(Debug, Clone)]
pub enum Reduction {
    /// Each pixel's result depends only on its colour and position.
    Local(Reducer),
    /// Floyd–Steinberg onto a palette format: a pixel's result depends
    /// on the pixels above and left of it.
    Diffused(Diffusion),
}

impl Reduction {
    /// The reduction of `size` frames to `format` with `mode`.
    pub fn new(format: PixelFormat, mode: DitherMode, size: Size) -> Reduction {
        match Reducer::of(Target::of(format), mode) {
            Ok(reducer) => Reduction::Local(reducer),
            Err(palette) => Reduction::Diffused(Diffusion::onto(palette, size)),
        }
    }
}

/// A reduction in which each pixel's result depends only on its colour
/// and position, applied a row at a time: the kernel behind every
/// reduction here except error diffusion onto a palette, which
/// [`Diffusion`] and [`reduce_rect`] run with the same quantizer.
///
/// It works by table wherever the result splits by channel. The tables
/// hold an entry per Bayer phase, `(y % 4) * 4 + x % 4`, when dithering,
/// else one for every pixel; an entry maps each channel value to what
/// bias, clamp and reduction make of it, so a pixel costs one lookup per
/// channel. `Rgb565`, `Rgb444` and the web-safe cube reduce each channel
/// on its own; a grey ramp's nearest level depends on the sum of the
/// biased channels alone, so the tables bias and clamp and the sum picks
/// the level. Any other palette biases each pixel and searches it.
#[derive(Debug, Clone)]
pub struct Reducer {
    map: Map,
}

/// How a [`Reducer`] maps pixels, with its tables.
#[derive(Debug, Clone)]
enum Map {
    /// Every colour as it is (`Rgb888`).
    Keep,
    /// Channel by channel: each channel value's result, per phase.
    Channels(Box<[[[u8; 256]; 3]]>),
    /// Onto a grey ramp: each channel value biased and clamped, per
    /// phase, and the nearest level's grey for each sum of three.
    Ramp {
        biased: Box<[[u8; 256]]>,
        grey: Box<[u8; SUMS]>,
    },
    /// Onto any other palette: the bias per phase.
    Scan { palette: Palette, bias: Box<[i32]> },
}

impl Reducer {
    /// The reduction to `target` with `mode`, or the palette to diffuse
    /// error onto. Error diffusion is overkill for >=12bpp GUI content,
    /// so the channel-wise formats take it as no dithering.
    fn of(target: Target, mode: DitherMode) -> Result<Reducer, Palette> {
        // The Bayer threshold, -8..8, at each phase; one 0 undithered.
        let thresholds: Vec<i32> = if mode == DitherMode::Ordered4x4 {
            BAYER4.iter().flatten().map(|t| t - 8).collect()
        } else {
            vec![0]
        };
        let channels = |bias: &dyn Fn(i32) -> i32, reduce: &dyn Fn(Color) -> Color| {
            let table = |t: i32| {
                let mut table = [[0; 256]; 3];
                for v in 0..=255u8 {
                    let c = reduce(offset(Color::gray(v), bias(t)));
                    [
                        table[0][v as usize],
                        table[1][v as usize],
                        table[2][v as usize],
                    ] = [c.r, c.g, c.b];
                }
                table
            };
            Map::Channels(thresholds.iter().map(|&t| table(t)).collect())
        };
        let map = match target {
            Target::Palette(palette) if mode == DitherMode::FloydSteinberg => return Err(palette),
            Target::Keep => Map::Keep,
            // Rgb565 keeps more bits per channel: half the bias.
            Target::Rgb565 => channels(&|t| t / 2, &|c| PixelFormat::Rgb565.reduce(c)),
            Target::Rgb444 => channels(&|t| t, &|c| PixelFormat::Rgb444.reduce(c)),
            Target::Palette(palette) => {
                // Bias amplitude scaled to the palette's average
                // quantization step so 2-color and 256-color palettes
                // both dither sensibly.
                let amp = (256 / (palette.len().min(64)) as i32).max(8);
                let bias = |t: i32| t * amp / 8;
                if let Some(levels) = palette.ramp() {
                    let biased =
                        |t: i32| core::array::from_fn(|v| offset(Color::gray(v as u8), bias(t)).r);
                    Map::Ramp {
                        biased: thresholds.iter().map(|&t| biased(t)).collect(),
                        grey: Box::new(levels.map(|(_, grey)| grey)),
                    }
                } else if palette.by_channel() {
                    channels(&bias, &|c| palette.quantize(c))
                } else {
                    Map::Scan {
                        bias: thresholds.iter().map(|&t| bias(t)).collect(),
                        palette,
                    }
                }
            }
        };
        Ok(Reducer { map })
    }

    /// Reduces `src`, the pixels from column `x0` on of row `y`, into
    /// `dst`, as long, first adding where `dst` changes to `diff` if
    /// there is one. A reducing map writes through [`RowDiff::replace`]:
    /// one pass reduces, compares and stores each pixel. A row kept as
    /// it is is compared and copied whole.
    ///
    /// # Panics
    ///
    /// Panics if the rows differ in length.
    pub fn row(
        &self,
        y: u32,
        x0: u32,
        src: &[Color],
        dst: &mut [Color],
        diff: Option<&mut RowDiff>,
    ) {
        assert_eq!(src.len(), dst.len(), "reduced rows differ in length");
        // One loop per kind of map, so that no pixel dispatches on it.
        match &self.map {
            // Nothing to reduce: a whole-row compare and copy move many
            // pixels per instruction, where the fused loop stores each
            // pixel's bytes on their own.
            Map::Keep => {
                if let Some(diff) = diff {
                    diff.push(x0, y, src, dst);
                }
                dst.copy_from_slice(src);
            }
            Map::Channels(tables) => {
                let phase = phases(tables, y, x0);
                write(x0, y, src, dst, diff, |i, c| {
                    let [r, g, b] = phase[i % 4];
                    Color::rgb(r[c.r as usize], g[c.g as usize], b[c.b as usize])
                })
            }
            Map::Ramp { biased, grey } => {
                let phase = phases(biased, y, x0);
                write(x0, y, src, dst, diff, |i, c| {
                    let t = phase[i % 4];
                    let sum = t[c.r as usize] as usize
                        + t[c.g as usize] as usize
                        + t[c.b as usize] as usize;
                    Color::gray(grey[sum])
                })
            }
            Map::Scan { palette, bias } => {
                let phase = phases(bias, y, x0);
                write(x0, y, src, dst, diff, |i, c| {
                    palette.quantize(offset(c, *phase[i % 4]))
                })
            }
        }
    }
}

/// Writes `map(i, src[i])` over every `dst[i]`, through `diff` if there
/// is one (the row starting at `(x, y)`).
#[inline(always)]
fn write(
    x: u32,
    y: u32,
    src: &[Color],
    dst: &mut [Color],
    diff: Option<&mut RowDiff>,
    map: impl Fn(usize, Color) -> Color,
) {
    match diff {
        Some(diff) => diff.replace(x, y, dst, src, map),
        None => {
            for (i, (d, &s)) in dst.iter_mut().zip(src).enumerate() {
                *d = map(i, s);
            }
        }
    }
}

/// The entries of `tables` for columns `x0 + i` of row `y` by `i % 4`:
/// `tables` holds an entry per Bayer phase, or a single one for every
/// pixel.
fn phases<T>(tables: &[T], y: u32, x0: u32) -> [&T; 4] {
    let phase = |k: usize| (y as usize % 4 * 4 + (x0 as usize + k) % 4) % tables.len();
    core::array::from_fn(|k| &tables[phase(k)])
}

/// `c` with `bias` added to every channel, clamped.
fn offset(c: Color, bias: i32) -> Color {
    let ch = |v: u8| (v as i32 + bias).clamp(0, 255) as u8;
    Color::rgb(ch(c.r), ch(c.g), ch(c.b))
}

/// A pixel's Floyd–Steinberg quantization error in each channel: the
/// colour it asked for, with the error it received, minus the colour it
/// shows. Within ±255.
type Error = [i16; 3];

/// Reduces pixel `x` of a row by Floyd–Steinberg and returns its error:
/// `src` holds the row's input and `out` gets its reduced pixels, both a
/// row wide; `above` holds the errors of the row above and `errs` this
/// row's, each with a zero cell at either end (column `x` at `x + 1`);
/// `left` is the error of the pixel left of `x`. The error is stored in
/// `errs` too.
#[inline(always)]
fn diffuse(
    src: &[Color],
    out: &mut [Color],
    above: &[Error],
    errs: &mut [Error],
    x: usize,
    left: Error,
    quantize: &impl Fn(Color) -> Color,
) -> Error {
    // 1/16 of the error above-left, 5/16 of the one above, 3/16 of the
    // one above-right and 7/16 of the one left, summed first.
    let (ul, u, ur) = (above[x], above[x + 1], above[x + 2]);
    let ch = |v: u8, k: usize| {
        let owed = ul[k] as i32 + 5 * u[k] as i32 + 3 * ur[k] as i32 + 7 * left[k] as i32;
        (v as i32 + owed / 16).clamp(0, 255)
    };
    let p = src[x];
    let adj = [ch(p.r, 0), ch(p.g, 1), ch(p.b, 2)];
    let q = quantize(Color::rgb(adj[0] as u8, adj[1] as u8, adj[2] as u8));
    out[x] = q;
    let err = [
        (adj[0] - q.r as i32) as i16,
        (adj[1] - q.g as i32) as i16,
        (adj[2] - q.b as i32) as i16,
    ];
    errs[x + 1] = err;
    err
}

/// A row of a Floyd–Steinberg run: its input and output, a row wide.
struct Row<'a> {
    src: &'a [Color],
    out: &'a mut [Color],
}

/// What a [`diffuse_rows`] did to a row: the columns it reduced, and
/// those whose error changed, from the first to the last.
struct Walked {
    cols: Range<usize>,
    changed: Range<usize>,
}

impl Walked {
    /// The walk over `cols` of a row whose errors were `kept` and are
    /// `now` (column `x` at `x + 1`), where no error left of `from`
    /// changed.
    fn new(cols: Range<usize>, from: usize, kept: &[Error], now: &[Error]) -> Walked {
        let cells = from + 1..cols.end + 1;
        let (kept, now) = (&kept[cells.clone()], &now[cells]);
        let differs = |(k, n): (&Error, &Error)| k != n;
        let changed = match kept.iter().zip(now).position(differs) {
            Some(first) => {
                let last = kept.iter().zip(now).rposition(differs).unwrap_or(first);
                from + first..from + last + 1
            }
            None => 0..0,
        };
        Walked { cols, changed }
    }
}

/// Floyd–Steinberg over row `a` and row `b` below it, where they need it:
/// the one kernel behind [`Diffusion`] and [`reduce_rect`]. `above`,
/// `mid` and `below` hold the errors of the row above `a`, of `a` and of
/// `b` (see [`diffuse`]); each pixel reduced stores its error over the
/// one held. `kept` is scratch for two rows of errors.
///
/// Row `a` is reduced from `a_cols.start`, every pixel before
/// `a_cols.end` and on while the pixel left of the next changed its error.
/// Row `b` is reduced, if there is one, from the first pixel in `b_input`
/// or next to one whose error changed on `a`, up to the last such pixel
/// and on while errors change. Where both are reduced, `b` runs one pixel
/// behind `a`, as soon as the error above-right of its pixel is final, so
/// the two chains of dependent pixels overlap in the processor. Which
/// errors changed is found afterwards, by comparing each row with its
/// errors as they were; pixel by pixel, a walk compares only while it
/// looks for the first change on `a` and past the pixels it must reduce.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn diffuse_rows(
    a: Row,
    b: Option<Row>,
    above: &[Error],
    mid: &mut [Error],
    below: &mut [Error],
    [kept_a, kept_b]: &mut [Vec<Error>; 2],
    a_cols: Range<usize>,
    b_input: Range<usize>,
    quantize: &impl Fn(Color) -> Color,
) -> [Option<Walked>; 2] {
    let w = a.src.len();
    let (above, mid) = (&above[..w + 2], &mut mid[..w + 2]);
    kept_a.clear();
    kept_a.extend_from_slice(mid);
    let a_walked = |xa: usize, from: usize, mid: &[Error]| {
        (!a_cols.is_empty()).then(|| Walked::new(a_cols.start..xa, from, kept_a, mid))
    };
    // Row `a` up to its first changed error.
    let (mut xa, mut left_a) = (a_cols.start, mid[a_cols.start.min(w)]);
    let mut first = None;
    while xa < a_cols.end {
        left_a = diffuse(a.src, a.out, above, mid, xa, left_a, quantize);
        xa += 1;
        if left_a != kept_a[xa] {
            first = Some(xa - 1);
            break;
        }
    }
    let Some(b) = b else {
        while first.is_some() && (xa < a_cols.end || (xa < w && left_a != kept_a[xa])) {
            left_a = diffuse(a.src, a.out, above, mid, xa, left_a, quantize);
            xa += 1;
        }
        return [a_walked(xa, first.unwrap_or(xa), mid), None];
    };
    // Row `b` from the first pixel it needs: caught up to one pixel behind
    // `a`, then beside it while `a` goes on.
    let below = &mut below[..w + 2];
    kept_b.clear();
    kept_b.extend_from_slice(below);
    let start = match first {
        Some(f) => b_input.start.min(f.saturating_sub(1)),
        None => b_input.start,
    };
    let (mut xb, mut left_b) = (start, below[start.min(w)]);
    if first.is_some() {
        while xb + 1 < xa {
            left_b = diffuse(b.src, b.out, mid, below, xb, left_b, quantize);
            xb += 1;
        }
        while xa < a_cols.end || (xa < w && left_a != kept_a[xa]) {
            left_a = diffuse(a.src, a.out, above, mid, xa, left_a, quantize);
            xa += 1;
            left_b = diffuse(b.src, b.out, mid, below, xb, left_b, quantize);
            xb += 1;
        }
    }
    let a = a_walked(xa, first.unwrap_or(xa), mid);
    // The rest of `b`: up to the last pixel a changed error on `a`
    // reaches, and on while its own errors change.
    let reached = a.as_ref().map_or(0..0, |a| a.changed.clone());
    let must = match reached.is_empty() {
        true => b_input.end,
        false => b_input.end.max((reached.end + 1).min(w)),
    };
    if start >= must {
        return [a, None];
    }
    while xb < must || (xb < w && left_b != kept_b[xb]) {
        left_b = diffuse(b.src, b.out, mid, below, xb, left_b, quantize);
        xb += 1;
    }
    [a, Some(Walked::new(start..xb, start, kept_b, below))]
}

/// A grey ramp's nearest level, by its table of channel sums.
fn ramp(levels: &[(u8, u8); SUMS]) -> impl Fn(Color) -> Color + '_ {
    |c| Color::gray(levels[c.r as usize + c.g as usize + c.b as usize].1)
}

/// What a [`Diffusion::rerun`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rerun {
    /// From the first changed row to the row where the error entering it
    /// was the kept one (or the frame's end); rows in between that
    /// nothing reached were not touched.
    pub rows: Range<u32>,
    /// How many pixels were reduced again.
    pub pixels: usize,
}

/// Floyd–Steinberg reduction of a whole frame that redoes only what a
/// change reaches. It keeps the quantization error of every pixel of the
/// frame it reduced last; [`rerun`](Self::rerun) takes the rects of the
/// unreduced frame that changed since and reduces again, on each row, one
/// span of columns, two rows at a time. The result is bit-for-bit what
/// [`dither_to_format`] gives.
///
/// A pixel's result depends on its input and on the error it receives:
/// 7/16 of its left neighbour's and 1/16, 5/16 and 3/16 of the three
/// errors above it. On each row the span starts at the leftmost pixel
/// whose input changed or one of whose errors above did (the row above's
/// changed errors, a column wider on each side). Left of it input and
/// received error are the kept ones, so the kept errors there are exact
/// and the span's first pixel takes 7/16 of its left neighbour's. Past the
/// last such pixel the span ends at the first pixel whose left neighbour
/// kept its error: from there on input and received error are the kept
/// ones again, and so are results and errors. Below the changed rects the
/// rerun stops at the first row under a row whose errors all stayed, the
/// row where the error entering it is the kept one.
#[derive(Debug, Clone)]
pub struct Diffusion {
    palette: Palette,
    frame: Errors,
}

/// The errors a [`Diffusion`] keeps, with its scratch.
#[derive(Debug, Clone)]
struct Errors {
    size: Size,
    /// The error of every pixel, a row of `size.w + 2` cells per frame row
    /// with a zero cell at either end, below a zero row.
    cells: Vec<Error>,
    /// Scratch: the columns of each row whose input changed, the reduced
    /// pixels of two rows and their errors as they were.
    spans: Vec<Range<usize>>,
    out: Vec<Color>,
    kept: [Vec<Error>; 2],
}

impl Diffusion {
    /// State for reducing `size` frames to `format` with `mode`, before
    /// any run; `None` unless that diffuses error from pixel to pixel
    /// (Floyd–Steinberg onto a palette format), so that a pixel's result
    /// depends on the pixels above and left of it.
    pub fn new(format: PixelFormat, mode: DitherMode, size: Size) -> Option<Diffusion> {
        match Reduction::new(format, mode, size) {
            Reduction::Diffused(diffusion) => Some(diffusion),
            Reduction::Local(_) => None,
        }
    }

    fn onto(palette: Palette, size: Size) -> Diffusion {
        let (w, h) = (size.w as usize, size.h as usize);
        Diffusion {
            palette,
            frame: Errors {
                size,
                cells: vec![[0; 3]; (w + 2) * (h + 1)],
                spans: Vec::with_capacity(h),
                out: vec![Color::BLACK; 2 * w],
                kept: [Vec::with_capacity(w + 2), Vec::with_capacity(w + 2)],
            },
        }
    }

    /// Reduces `src` into `dst` (both the size given to
    /// [`new`](Self::new)) again where the pixels of `changed` (clipped)
    /// changed since the previous run, first adding where `dst` changes to
    /// `diff` if there is one. The rest of `dst` must hold the previous
    /// run's output; on the first run pass the whole frame as changed.
    ///
    /// # Panics
    ///
    /// Panics if either frame is not the size given to `new`.
    pub fn rerun(
        &mut self,
        src: &Framebuffer,
        dst: &mut Framebuffer,
        changed: &[Rect],
        diff: Option<&mut RowDiff>,
    ) -> Rerun {
        // The quantizer is chosen once per run, not per pixel.
        let Diffusion { palette, frame } = self;
        match palette.ramp() {
            Some(levels) => frame.rerun(src, dst, changed, diff, ramp(levels)),
            None => frame.rerun(src, dst, changed, diff, |c| palette.quantize(c)),
        }
    }
}

impl Errors {
    fn rerun(
        &mut self,
        src: &Framebuffer,
        dst: &mut Framebuffer,
        changed: &[Rect],
        mut diff: Option<&mut RowDiff>,
        quantize: impl Fn(Color) -> Color,
    ) -> Rerun {
        assert!(src.size() == self.size, "diffusion size");
        assert!(dst.size() == self.size, "diffusion size");
        let (w, h) = (self.size.w as usize, self.size.h as usize);
        let stride = w + 2;
        // Each row's columns of changed input: the hull of the rects on it.
        self.spans.clear();
        self.spans.resize(h, w..0);
        let (mut from, mut through) = (h, 0);
        for r in changed.iter().filter_map(|r| r.intersect(src.bounds())) {
            let (x, right) = (r.x as usize, r.right() as usize);
            let (top, bottom) = (r.y as usize, r.bottom() as usize);
            for span in &mut self.spans[top..bottom] {
                *span = span.start.min(x)..span.end.max(right);
            }
            (from, through) = (from.min(top), through.max(bottom));
        }
        let from = from.min(through);
        let mut pixels = 0;
        // The columns of the row above whose error changed.
        let mut above: Range<usize> = 0..0;
        let mut y = from;
        while y < h && (y < through || !above.is_empty()) {
            let mut cols = self.spans[y].clone();
            if !above.is_empty() {
                cols = cols.start.min(above.start.saturating_sub(1))
                    ..cols.end.max((above.end + 1).min(w));
            }
            let (upper, rest) = self.cells.split_at_mut((y + 1) * stride);
            let (mid, below) = rest.split_at_mut(stride);
            let (out_a, out_b) = self.out.split_at_mut(w);
            let b = (y + 1 < h).then(|| Row {
                src: src.row(y as u32 + 1),
                out: out_b,
            });
            let a = Row {
                src: src.row(y as u32),
                out: out_a,
            };
            let b_input = self.spans.get(y + 1).cloned().unwrap_or(w..0);
            let walked = diffuse_rows(
                a,
                b,
                &upper[y * stride..],
                mid,
                below,
                &mut self.kept,
                cols,
                b_input,
                &quantize,
            );
            for (i, walk) in walked.iter().enumerate() {
                let Some(Walked { cols, .. }) = walk else {
                    continue;
                };
                let now = &self.out[i * w..][cols.clone()];
                let row = (y + i) as u32;
                let before = &mut dst.row_mut(row)[cols.clone()];
                if let Some(diff) = diff.as_deref_mut() {
                    diff.push(cols.start as u32, row, now, before);
                }
                before.copy_from_slice(now);
                pixels += cols.len();
            }
            // Go on below `b` if it was reduced; if not, `a` is the last
            // row or changed no error.
            (y, above) = match walked {
                [_, Some(b)] => (y + 2, b.changed),
                [a, None] => (y + 1, a.map_or(0..0, |a| a.changed)),
            };
        }
        Rerun {
            rows: from as u32..y as u32,
            pixels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point, Rect};

    fn gradient(w: u32, h: u32) -> Framebuffer {
        let mut fb = Framebuffer::new(w, h, Color::BLACK);
        for y in 0..h as i32 {
            for x in 0..w as i32 {
                let v = (x * 255 / (w as i32 - 1).max(1)) as u8;
                fb.set_pixel(Point::new(x, y), Color::gray(v));
            }
        }
        fb
    }

    #[test]
    fn none_mode_outputs_only_palette_colors() {
        let src = gradient(32, 8);
        let pal = Palette::grayscale(4);
        let out = dither_to_palette(&src, &pal, DitherMode::None);
        for &p in out.pixels() {
            assert!(pal.colors().contains(&p));
        }
    }

    #[test]
    fn fs_mode_outputs_only_palette_colors() {
        let src = gradient(32, 8);
        let pal = Palette::mono();
        let out = dither_to_palette(&src, &pal, DitherMode::FloydSteinberg);
        for &p in out.pixels() {
            assert!(p == Color::BLACK || p == Color::WHITE);
        }
    }

    #[test]
    fn ordered_mode_outputs_only_palette_colors() {
        let src = gradient(32, 8);
        let pal = Palette::vga16();
        let out = dither_to_palette(&src, &pal, DitherMode::Ordered4x4);
        for &p in out.pixels() {
            assert!(pal.colors().contains(&p));
        }
    }

    #[test]
    fn dither_preserves_mean_brightness() {
        // Mid-gray dithered to mono should be ~50% white.
        let mut src = Framebuffer::new(64, 64, Color::BLACK);
        src.fill_rect(Rect::new(0, 0, 64, 64), Color::gray(128));
        for mode in [DitherMode::FloydSteinberg, DitherMode::Ordered4x4] {
            let out = dither_to_palette(&src, &Palette::mono(), mode);
            let white = out.pixels().iter().filter(|&&p| p == Color::WHITE).count();
            let frac = white as f64 / (64.0 * 64.0);
            assert!(
                (0.35..=0.65).contains(&frac),
                "{mode}: expected ~half white, got {frac}"
            );
        }
    }

    #[test]
    fn none_mode_mid_gray_is_uniform() {
        let mut src = Framebuffer::new(8, 8, Color::BLACK);
        src.fill_rect(Rect::new(0, 0, 8, 8), Color::gray(128));
        let out = dither_to_palette(&src, &Palette::mono(), DitherMode::None);
        let first = out.pixels()[0];
        assert!(out.pixels().iter().all(|&p| p == first));
    }

    #[test]
    fn dither_to_format_rgb888_identity() {
        let src = gradient(16, 4);
        let out = dither_to_format(&src, PixelFormat::Rgb888, DitherMode::FloydSteinberg);
        assert_eq!(out, src);
    }

    #[test]
    fn dither_to_format_reduced_is_representable() {
        let src = gradient(16, 4);
        for f in [
            PixelFormat::Rgb565,
            PixelFormat::Rgb444,
            PixelFormat::Gray8,
            PixelFormat::Gray4,
            PixelFormat::Mono1,
            PixelFormat::Indexed8,
        ] {
            let out = dither_to_format(&src, f, DitherMode::None);
            for &p in out.pixels() {
                assert_eq!(f.reduce(p), p, "{f}: {p} not representable");
            }
        }
    }

    /// A 128×90 control panel as the phone shows it: on light grey, two
    /// rows of framed buttons with white, blue and grey faces and a ramp
    /// between them, then under a black rule a white status field.
    fn panel() -> Framebuffer {
        let mut fb = Framebuffer::new(128, 90, Color::LIGHT_GRAY);
        let faces = [Color::WHITE, Color::BLUE, Color::GRAY];
        for (i, y) in [4, 32].into_iter().enumerate() {
            for (j, x) in [4, 46, 88].into_iter().enumerate() {
                let r = Rect::new(x, y, 36, 22);
                fb.fill_rect(r, Color::WHITE);
                fb.fill_rect(Rect::new(r.x + 1, r.y + 1, r.w - 1, r.h - 1), Color::BLACK);
                let face = Rect::new(r.x + 1, r.y + 1, r.w - 2, r.h - 2);
                fb.fill_rect(face, faces[(i + j) % 3]);
            }
        }
        for x in 0..128 {
            let v = (x * 2) as u8;
            fb.fill_rect(Rect::new(x, 27, 1, 3), Color::rgb(v, 60, 120));
        }
        fb.fill_rect(Rect::new(0, 60, 128, 1), Color::BLACK);
        fb.fill_rect(Rect::new(0, 61, 128, 29), Color::WHITE);
        fb
    }

    /// `src` dithered to Mono1 over the whole frame.
    fn fresh(src: &Framebuffer) -> Framebuffer {
        dither_to_format(src, PixelFormat::Mono1, DitherMode::FloydSteinberg)
    }

    /// [`fresh`] of `src`, and a diffusion that reduced it.
    fn reduced(src: &Framebuffer) -> (Framebuffer, Diffusion) {
        let fs = DitherMode::FloydSteinberg;
        let mut diffusion = Diffusion::new(PixelFormat::Mono1, fs, src.size()).unwrap();
        let mut dst = Framebuffer::new(src.width(), src.height(), Color::BLACK);
        diffusion.rerun(src, &mut dst, &[src.bounds()], None);
        assert_eq!(dst, fresh(src));
        (dst, diffusion)
    }

    /// Greys of the given levels, one pixel each.
    fn greys(levels: &[u8]) -> Vec<Color> {
        levels.iter().map(|&v| Color::gray(v)).collect()
    }

    #[test]
    fn a_rerun_reduces_only_the_columns_a_change_reaches() {
        let mut src = panel();
        let (mut dst, mut diffusion) = reduced(&src);
        // One pixel of the grey face mid-panel: its error runs on down to
        // the button's frame, but no row reduces much more than the
        // columns below the row above's changed errors.
        let dot = Rect::new(64, 43, 1, 1);
        src.fill_rect(dot, Color::BLACK);
        let run = diffusion.rerun(&src, &mut dst, &[dot], None);
        assert_eq!(dst, fresh(&src));
        let whole_rows = run.rows.len() * 128;
        assert!(run.rows.len() > 1, "the change settles at once: {run:?}");
        assert!(
            2 * run.pixels < whole_rows,
            "{} pixels against {whole_rows} for whole rows",
            run.pixels
        );
        // A pixel of the white field turned black keeps its error, 0, so
        // nothing past it is reduced again.
        let dot = Rect::new(64, 75, 1, 1);
        src.fill_rect(dot, Color::BLACK);
        let run = diffusion.rerun(&src, &mut dst, &[dot], None);
        assert_eq!(dst, fresh(&src));
        let (rows, pixels) = (75..76, 1);
        assert_eq!(run, Rerun { rows, pixels });
    }

    #[test]
    fn a_changed_error_reaches_the_column_right_of_it_on_the_row_below() {
        // Row 1's white pixels absorb what rows 0 leaves them, so their
        // errors stay 0; only the 1/16 that (1, 0) leaves below right
        // tips (2, 1), mid-grey, from black to white.
        let mut src = Framebuffer::new(4, 2, Color::BLACK);
        src.write_rect(Rect::new(0, 0, 4, 1), &greys(&[0, 0, 255, 255]));
        src.write_rect(Rect::new(0, 1, 4, 1), &greys(&[255, 255, 127, 0]));
        let (mut dst, mut diffusion) = reduced(&src);
        let dot = Rect::new(1, 0, 1, 1);
        src.fill_rect(dot, Color::gray(100));
        diffusion.rerun(&src, &mut dst, &[dot], None);
        assert_eq!(dst, fresh(&src));
        assert_eq!(dst.pixel(Point::new(2, 1)), Some(Color::WHITE));
    }

    #[test]
    fn a_changed_error_reaches_the_column_right_of_it_on_the_next_pair_of_rows() {
        // Rows are reduced in pairs from the change down. The last error
        // the change moves on row 1 is at column 2, and (3, 2), the
        // first row of the next pair, flips on the 1/16 of it it gets.
        let mut src = Framebuffer::new(4, 3, Color::BLACK);
        src.write_rect(Rect::new(0, 0, 4, 1), &greys(&[0, 0, 220, 128]));
        src.write_rect(Rect::new(0, 1, 4, 1), &greys(&[0, 40, 220, 255]));
        src.write_rect(Rect::new(0, 2, 4, 1), &greys(&[90, 128, 0, 128]));
        let (mut dst, mut diffusion) = reduced(&src);
        let before = dst.pixel(Point::new(3, 2));
        let dot = Rect::new(2, 0, 1, 1);
        src.fill_rect(dot, Color::gray(170));
        diffusion.rerun(&src, &mut dst, &[dot], None);
        assert_eq!(dst, fresh(&src));
        assert_ne!(dst.pixel(Point::new(3, 2)), before);
    }

    #[test]
    fn black_and_white_are_fixed_points() {
        let mut src = Framebuffer::new(8, 2, Color::BLACK);
        src.fill_rect(Rect::new(4, 0, 4, 2), Color::WHITE);
        for mode in [
            DitherMode::None,
            DitherMode::FloydSteinberg,
            DitherMode::Ordered4x4,
        ] {
            let out = dither_to_palette(&src, &Palette::mono(), mode);
            assert_eq!(out.pixel(Point::new(0, 0)), Some(Color::BLACK), "{mode}");
            assert_eq!(out.pixel(Point::new(7, 0)), Some(Color::WHITE), "{mode}");
        }
    }
}
