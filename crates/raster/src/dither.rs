//! Color quantization and dithering.
//!
//! Shallow output devices (4-bit PDA panels, 1-bit phone LCDs) cannot show
//! 24-bit pixels; the UniInt output plug-ins quantize frames to the device
//! palette, optionally with error-diffusion or ordered dithering so GUI
//! gradients and images stay legible.
//!
//! Position-local reductions run by table ([`Reducer`]): one lookup per
//! channel, indexed by Bayer phase and channel value, stands for bias,
//! clamp and reduction. Floyd–Steinberg ([`Diffusion`]) runs two rows at
//! a time with the quantizer chosen once per pair of rows, so a pixel
//! does not dispatch on the palette's shape.

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
        Err(palette) => {
            let mut band = Band::new(cols.len());
            let mut above: ErrorRow = vec![[0; 3]; cols.len() + 2];
            let mut y = rows.start;
            while y < rows.end {
                let n = ((rows.end - y) as usize).min(BAND);
                for (row, sy) in band.rows[..n].iter_mut().zip(y..) {
                    row.copy_from_slice(&fb.row(sy)[cols.clone()]);
                }
                band.diffuse(&palette, &above, n);
                for row in &band.rows[..n] {
                    fb.row_mut(y)[cols.clone()].copy_from_slice(row);
                    y += 1;
                }
                core::mem::swap(&mut above, &mut band.leaving[n - 1]);
            }
        }
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
            Err(palette) => Reduction::Diffused(Diffusion {
                palette,
                size,
                entering: vec![vec![[0; 3]; size.w as usize + 2]; size.h as usize],
                band: Band::new(size.w as usize),
            }),
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

/// Per-channel Floyd–Steinberg error, in sixteenths, for one row plus a
/// cell of margin at each end.
type ErrorRow = Vec<[i32; 3]>;

/// What Floyd–Steinberg carries along a row from pixel to pixel, in
/// locals rather than through the error rows.
#[derive(Default)]
struct Carry {
    /// 7/16 of the last pixel's error, for the next pixel.
    right: [i32; 3],
    /// What the pixels so far owe the two cells below, left to right,
    /// that are not finished yet.
    owed: [[i32; 3]; 2],
}

impl Carry {
    /// Reduces `p`, the next pixel, with `above`, the error the row
    /// above left for it. Returns the error below its left neighbour,
    /// now finished: 3/16 of this pixel's error on top of 5/16 and 1/16
    /// of the two before it.
    #[inline(always)]
    fn step(
        &mut self,
        p: &mut Color,
        above: [i32; 3],
        quantize: impl Fn(Color) -> Color,
    ) -> [i32; 3] {
        let ch = |v: u8, k: usize| (v as i32 + (above[k] + self.right[k]) / 16).clamp(0, 255) as u8;
        let adj = Color::rgb(ch(p.r, 0), ch(p.g, 1), ch(p.b, 2));
        let q = quantize(adj);
        *p = q;
        let err = [
            adj.r as i32 - q.r as i32,
            adj.g as i32 - q.g as i32,
            adj.b as i32 - q.b as i32,
        ];
        let mut done = [0; 3];
        for k in 0..3 {
            self.right[k] = err[k] * 7;
            done[k] = self.owed[0][k] + err[k] * 3;
            self.owed[0][k] = self.owed[1][k] + err[k] * 5;
            self.owed[1][k] = err[k];
        }
        done
    }
}

/// Floyd–Steinberg over one row, in place: `above` holds the error
/// entering the row; every cell of `below` is overwritten with the error
/// entering the row below.
fn diffuse_row(
    row: &mut [Color],
    quantize: impl Fn(Color) -> Color + Copy,
    above: &[[i32; 3]],
    below: &mut [[i32; 3]],
) {
    let w = row.len();
    let mut carry = Carry::default();
    for (x, p) in row.iter_mut().enumerate() {
        below[x] = carry.step(p, above[x + 1], quantize);
    }
    [below[w], below[w + 1]] = carry.owed;
}

/// [`diffuse_row`] over row `a` and then row `b` below it, interleaved:
/// a pixel of `b` needs only the error below the pixel right of it in
/// `a`, so `b` runs one pixel behind `a`, and the two chains of
/// dependent pixels overlap in the processor. `mid` gets the error
/// entering `b`, `below` the error leaving it. (Two rows keep both
/// carries in registers; more rows spill them and run slower.)
fn diffuse_rows(
    [a, b]: [&mut [Color]; 2],
    quantize: impl Fn(Color) -> Color + Copy,
    above: &[[i32; 3]],
    mid: &mut [[i32; 3]],
    below: &mut [[i32; 3]],
) {
    let w = a.len();
    let (mut ca, mut cb) = (Carry::default(), Carry::default());
    mid[0] = ca.step(&mut a[0], above[1], quantize);
    for x in 1..w {
        let m = ca.step(&mut a[x], above[x + 1], quantize);
        mid[x] = m;
        below[x - 1] = cb.step(&mut b[x - 1], m, quantize);
    }
    [mid[w], mid[w + 1]] = ca.owed;
    below[w - 1] = cb.step(&mut b[w - 1], mid[w], quantize);
    [below[w], below[w + 1]] = cb.owed;
}

/// How many rows Floyd–Steinberg reduces at a time.
const BAND: usize = 2;

/// Scratch for Floyd–Steinberg over rows of one width, up to [`BAND`]
/// rows at a time: the rows and the error leaving each.
#[derive(Debug, Clone)]
struct Band {
    rows: [Vec<Color>; BAND],
    leaving: [ErrorRow; BAND],
}

impl Band {
    fn new(w: usize) -> Band {
        Band {
            rows: core::array::from_fn(|_| vec![Color::BLACK; w]),
            leaving: core::array::from_fn(|_| vec![[0; 3]; w + 2]),
        }
    }

    /// Reduces the first `n` rows (`1..=BAND`) in place, with `above`
    /// the error entering the first.
    fn diffuse(&mut self, palette: &Palette, above: &[[i32; 3]], n: usize) {
        // The quantizer is chosen once per band, not per pixel.
        match palette.ramp() {
            Some(levels) => self.run(above, n, |c| {
                Color::gray(levels[c.r as usize + c.g as usize + c.b as usize].1)
            }),
            None => self.run(above, n, |c| palette.quantize(c)),
        }
    }

    fn run(&mut self, above: &[[i32; 3]], n: usize, quantize: impl Fn(Color) -> Color + Copy) {
        let [a, b] = &mut self.rows;
        let [mid, below] = &mut self.leaving;
        match n {
            1 => diffuse_row(a, quantize, above, mid),
            _ => diffuse_rows([a, b], quantize, above, mid, below),
        }
    }
}

/// Floyd–Steinberg reduction of a whole frame that can restart at any
/// row. It keeps the error row entering each row of the frame it reduced
/// last; when rows of the unreduced frame change, [`rerun`](Self::rerun)
/// redoes the reduction from the first changed row and stops as soon as
/// the error entering an unchanged row is the kept one, because from
/// there on input and error state, and so the output, are as before.
/// The result is bit-for-bit what [`dither_to_format`] gives.
#[derive(Debug, Clone)]
pub struct Diffusion {
    palette: Palette,
    size: Size,
    /// The error entering each row.
    entering: Vec<ErrorRow>,
    /// Scratch for the rows being reduced.
    band: Band,
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

    /// Reduces `src` into `dst` (both the size given to
    /// [`new`](Self::new)) from row `from` on, taking rows `from..through`
    /// of `src` as changed since the previous run, and returns the rows of
    /// `dst` written. The rest of `dst` must hold the previous run's
    /// output; on the first run pass the whole frame as changed.
    ///
    /// # Panics
    ///
    /// Panics if either frame is not the size given to `new`.
    pub fn rerun(
        &mut self,
        src: &Framebuffer,
        dst: &mut Framebuffer,
        from: u32,
        through: u32,
    ) -> Range<u32> {
        assert!(dst.size() == self.size, "diffusion size");
        self.rerun_rows(src, from, through, |y, row| {
            dst.row_mut(y).copy_from_slice(row)
        })
    }

    /// [`rerun`](Self::rerun), handing each reduced row to `emit` with
    /// its index instead of writing it to a frame, so that the caller
    /// can compare it with the row it replaces first.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not the size given to [`new`](Self::new).
    pub fn rerun_rows(
        &mut self,
        src: &Framebuffer,
        from: u32,
        through: u32,
        mut emit: impl FnMut(u32, &[Color]),
    ) -> Range<u32> {
        let h = self.size.h;
        assert!(src.size() == self.size, "diffusion size");
        if from >= h.min(through) {
            return from..from;
        }
        // Nothing above `from` changed, so the error entering it is the
        // kept one.
        let mut y = from;
        while y < h {
            let n = ((h - y) as usize).min(BAND);
            for (row, sy) in self.band.rows[..n].iter_mut().zip(y..) {
                row.copy_from_slice(src.row(sy));
            }
            let above = &self.entering[y as usize];
            self.band.diffuse(&self.palette, above, n);
            for i in 0..n {
                emit(y, &self.band.rows[i]);
                y += 1;
                if y == h {
                    break;
                }
                // Rows reduced past this point are dropped unseen.
                let kept = &mut self.entering[y as usize];
                if y >= through && *kept == self.band.leaving[i] {
                    return from..y;
                }
                core::mem::swap(kept, &mut self.band.leaving[i]);
            }
        }
        from..h
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
