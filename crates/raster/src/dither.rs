//! Color quantization and dithering.
//!
//! Shallow output devices (4-bit PDA panels, 1-bit phone LCDs) cannot show
//! 24-bit pixels; the UniInt output plug-ins quantize frames to the device
//! palette, optionally with error-diffusion or ordered dithering so GUI
//! gradients and images stay legible.

use crate::color::{Color, Palette};
use crate::framebuffer::Framebuffer;
use crate::geom::{Rect, Size};
use crate::pixel::PixelFormat;
use core::ops::Range;
use serde::{Deserialize, Serialize};

/// Dithering algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
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
    quantize_rect(&mut out, bounds, palette, mode);
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
    let Some(rect) = rect.intersect(fb.bounds()) else {
        return;
    };
    match palette_of(format) {
        Some(palette) => quantize_rect(fb, rect, &palette, mode),
        None if format == PixelFormat::Rgb888 => {}
        None => {
            // Channel-wise reduction; error diffusion is overkill for >=12bpp
            // GUI content, so only ordered/none modes perturb here.
            for y in rect.y as usize..rect.bottom() as usize {
                let row = &mut fb.row_mut(y as u32)[rect.x as usize..rect.right() as usize];
                for (p, x) in row.iter_mut().zip(rect.x as usize..) {
                    let adj = if mode == DitherMode::Ordered4x4 {
                        let t = BAYER4[y % 4][x % 4] - 8;
                        let bias = if format == PixelFormat::Rgb444 {
                            t
                        } else {
                            t / 2
                        };
                        Color::rgb(
                            (p.r as i32 + bias).clamp(0, 255) as u8,
                            (p.g as i32 + bias).clamp(0, 255) as u8,
                            (p.b as i32 + bias).clamp(0, 255) as u8,
                        )
                    } else {
                        *p
                    };
                    *p = format.reduce(adj);
                }
            }
        }
    }
}

/// The palette a palette-ish format reduces through, or `None` for the
/// channel-wise formats.
fn palette_of(format: PixelFormat) -> Option<Palette> {
    match format {
        PixelFormat::Rgb888 | PixelFormat::Rgb565 | PixelFormat::Rgb444 => None,
        PixelFormat::Mono1 => Some(Palette::mono()),
        PixelFormat::Gray4 => Some(Palette::grayscale(16)),
        PixelFormat::Indexed8 => Some(Palette::websafe()),
        PixelFormat::Gray8 => Some(Palette::grayscale(256)),
    }
}

/// Per-channel Floyd–Steinberg error, in sixteenths, for one row plus a
/// cell of margin at each end.
type ErrorRow = Vec<[i32; 3]>;

/// Quantizes the pixels of `rect` (already clipped) to `palette` in place,
/// applying `mode`. Error diffusion starts afresh at the rect's top-left.
fn quantize_rect(fb: &mut Framebuffer, rect: Rect, palette: &Palette, mode: DitherMode) {
    let (x0, x1) = (rect.x as usize, rect.right() as usize);
    let rows = rect.y as usize..rect.bottom() as usize;
    match mode {
        DitherMode::None => {
            for y in rows {
                for p in &mut fb.row_mut(y as u32)[x0..x1] {
                    *p = palette.quantize(*p);
                }
            }
        }
        DitherMode::Ordered4x4 => {
            // Bias amplitude scaled to the palette's average quantization
            // step so 2-color and 256-color palettes both dither sensibly.
            let amp = (256 / (palette.len().min(64)) as i32).max(8);
            for y in rows {
                for (p, x) in fb.row_mut(y as u32)[x0..x1].iter_mut().zip(x0..) {
                    let t = BAYER4[y % 4][x % 4] - 8; // -8..8
                    let bias = t * amp / 8;
                    let adj = Color::rgb(
                        (p.r as i32 + bias).clamp(0, 255) as u8,
                        (p.g as i32 + bias).clamp(0, 255) as u8,
                        (p.b as i32 + bias).clamp(0, 255) as u8,
                    );
                    *p = palette.quantize(adj);
                }
            }
        }
        DitherMode::FloydSteinberg => {
            let mut cur: ErrorRow = vec![[0; 3]; x1 - x0 + 2];
            let mut next = cur.clone();
            for y in rows {
                diffuse_row(
                    &mut fb.row_mut(y as u32)[x0..x1],
                    palette,
                    &mut cur,
                    &mut next,
                );
            }
        }
    }
}

/// Floyd–Steinberg over one row, in place: `cur` holds the error entering
/// the row and `next` must be zero. Afterwards `cur` holds the error
/// entering the row below and `next` is zero again.
fn diffuse_row(row: &mut [Color], palette: &Palette, cur: &mut ErrorRow, next: &mut ErrorRow) {
    for (x, p) in row.iter_mut().enumerate() {
        let e = cur[x + 1];
        let adj = Color::rgb(
            (p.r as i32 + e[0] / 16).clamp(0, 255) as u8,
            (p.g as i32 + e[1] / 16).clamp(0, 255) as u8,
            (p.b as i32 + e[2] / 16).clamp(0, 255) as u8,
        );
        let q = palette.quantize(adj);
        *p = q;
        let err = [
            adj.r as i32 - q.r as i32,
            adj.g as i32 - q.g as i32,
            adj.b as i32 - q.b as i32,
        ];
        for ch in 0..3 {
            cur[x + 2][ch] += err[ch] * 7;
            next[x][ch] += err[ch] * 3;
            next[x + 1][ch] += err[ch] * 5;
            next[x + 2][ch] += err[ch];
        }
    }
    core::mem::swap(cur, next);
    next.iter_mut().for_each(|e| *e = [0; 3]);
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
}

impl Diffusion {
    /// State for reducing `size` frames to `format` with `mode`, before
    /// any run; `None` unless that diffuses error from pixel to pixel
    /// (Floyd–Steinberg onto a palette format), so that a pixel's result
    /// depends on the pixels above and left of it.
    pub fn new(format: PixelFormat, mode: DitherMode, size: Size) -> Option<Diffusion> {
        if mode != DitherMode::FloydSteinberg {
            return None;
        }
        let palette = palette_of(format)?;
        let row = vec![[0; 3]; size.w as usize + 2];
        Some(Diffusion {
            palette,
            size,
            entering: vec![row; size.h as usize],
        })
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
        let size = self.size;
        assert!(src.size() == size && dst.size() == size, "diffusion size");
        let Some(start) = self.entering.get(from as usize) else {
            return from..from;
        };
        let mut cur = start.clone();
        let mut next = vec![[0; 3]; cur.len()];
        for y in from..size.h {
            let kept = &mut self.entering[y as usize];
            if y >= through && *kept == cur {
                return from..y;
            }
            kept.clone_from(&cur);
            let row = dst.row_mut(y);
            row.copy_from_slice(src.row(y));
            diffuse_row(row, &self.palette, &mut cur, &mut next);
        }
        from..size.h
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
