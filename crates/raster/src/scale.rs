//! Image scaling: the UniInt proxy rescales server frames to each output
//! device's native resolution (TV overscan, QVGA PDA, 128×128 phone LCD...).

use crate::color::{Color, Lanes};
use crate::framebuffer::Framebuffer;
use crate::geom::{Rect, Size};
use core::ops::Range;

/// Scaling filter selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScaleFilter {
    /// Nearest-neighbor: fastest, blockiest. What a 2002 PDA viewer did.
    #[default]
    Nearest,
    /// Bilinear interpolation: smoother, ~4 taps per output pixel.
    Bilinear,
    /// Box filter (area average): best for large downscales such as
    /// 640×480 → 128×128 phone LCDs.
    Box,
}

impl core::fmt::Display for ScaleFilter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ScaleFilter::Nearest => "nearest",
            ScaleFilter::Bilinear => "bilinear",
            ScaleFilter::Box => "box",
        };
        f.write_str(s)
    }
}

/// Scales `src` to exactly `target` using `filter`.
///
/// Copies the pixels unchanged when the size already matches.
///
/// # Panics
///
/// Panics if `target` is empty.
pub fn scale(src: &Framebuffer, target: Size, filter: ScaleFilter) -> Framebuffer {
    assert!(!target.is_empty(), "scale target must be non-empty");
    let mut dst = Framebuffer::new(target.w, target.h, Color::BLACK);
    let bounds = dst.bounds();
    scale_rect(src, &mut dst, bounds, filter);
    dst
}

/// Scales `src` to fit within `bounds` preserving aspect ratio; result is
/// at least 1×1.
pub fn scale_to_fit(src: &Framebuffer, bounds: Size, filter: ScaleFilter) -> Framebuffer {
    scale(src, fit_size(src.size(), bounds), filter)
}

/// The size [`scale_to_fit`] gives a `src`-sized frame fitted into
/// `bounds`: aspect preserved, rounded, at least 1×1.
///
/// # Panics
///
/// Panics if `bounds` is empty.
pub fn fit_size(src: Size, bounds: Size) -> Size {
    assert!(!bounds.is_empty(), "scale bounds must be non-empty");
    let sx = bounds.w as f64 / src.w as f64;
    let sy = bounds.h as f64 / src.h as f64;
    let s = sx.min(sy);
    let w = ((src.w as f64 * s).round() as u32).clamp(1, bounds.w);
    let h = ((src.h as f64 * s).round() as u32).clamp(1, bounds.h);
    Size::new(w, h)
}

/// Writes the `rect` part (clipped) of `src` scaled to `dst`'s size into
/// `dst`, leaving its other pixels alone. Every pixel comes out as
/// [`scale`] would compute it. Records no damage in `dst`.
pub fn scale_rect(src: &Framebuffer, dst: &mut Framebuffer, rect: Rect, filter: ScaleFilter) {
    let Some(rect) = rect.intersect(dst.bounds()) else {
        return;
    };
    let cols = rect.x as usize..rect.right() as usize;
    let mut rows = RowScaler::new(src, dst.size(), filter, rect.x as u32..rect.right() as u32);
    for y in rect.y as u32..rect.bottom() as u32 {
        rows.row(y, &mut dst.row_mut(y)[cols.clone()]);
    }
}

/// Scales `src` to a `dst`-sized frame one destination row at a time,
/// over a fixed range of columns: the kernel behind [`scale`] and
/// [`scale_rect`]. Bilinear scaling interpolates across before it
/// interpolates down, so the scaler keeps the across-interpolated source
/// rows it used last: destination rows that read the same two source
/// rows, as rows of an upscale do, interpolate them once.
#[derive(Debug)]
pub struct RowScaler<'a> {
    src: &'a Framebuffer,
    filter: ScaleFilter,
    dst_h: u32,
    /// The columns' taps; empty when the size does not change.
    cols: Vec<Taps>,
    x0: usize,
    /// Bilinear only: source rows interpolated across `cols`, each with
    /// the row it came from (`u32::MAX` before it is filled).
    across: [(u32, Vec<Lanes>); 2],
    /// Box only: the [`reciprocal`] of each column's window width, and
    /// the source rows of the window being summed.
    widths: Vec<u64>,
    window: Vec<&'a [Color]>,
}

impl<'a> RowScaler<'a> {
    /// A scaler of `src` to `dst` for destination columns `cols`.
    pub fn new(src: &'a Framebuffer, dst: Size, filter: ScaleFilter, cols: Range<u32>) -> Self {
        let s = src.size();
        let taps: Vec<Taps> = if s == dst {
            Vec::new()
        } else {
            cols.clone().map(|x| taps(filter, x, s.w, dst.w)).collect()
        };
        // Scratch is as wide as the columns for the filter that uses it.
        let wide = |f| if filter == f { taps.len() } else { 0 };
        let across = || {
            (
                u32::MAX,
                vec![Lanes::default(); wide(ScaleFilter::Bilinear)],
            )
        };
        let widths = taps[..wide(ScaleFilter::Box)]
            .iter()
            .map(|t| reciprocal((t.hi - t.lo) as u64))
            .collect();
        RowScaler {
            src,
            filter,
            dst_h: dst.h,
            x0: cols.start as usize,
            across: [across(), across()],
            widths,
            window: Vec::new(),
            cols: taps,
        }
    }

    /// Writes destination row `y` of the scaler's columns into `out`,
    /// which must be exactly as wide as they are.
    pub fn row(&mut self, y: u32, out: &mut [Color]) {
        let s = self.src.size();
        if self.cols.is_empty() {
            // Every filter maps a pixel to itself at scale 1.
            out.copy_from_slice(&self.src.row(y)[self.x0..self.x0 + out.len()]);
            return;
        }
        assert_eq!(out.len(), self.cols.len(), "scaled row width");
        let ty = taps(self.filter, y, s.h, self.dst_h);
        match self.filter {
            ScaleFilter::Nearest => {
                let row = self.src.row(ty.lo);
                for (px, tx) in out.iter_mut().zip(&self.cols) {
                    *px = row[tx.lo as usize];
                }
            }
            ScaleFilter::Bilinear => {
                let (top, bottom) = (ty.lo, ty.hi - 1);
                self.interpolate(top, bottom);
                let [(_, a), (_, b)] = &self.across;
                if ty.t == 0 || top == bottom {
                    // `lerp` by 0, or of a row with itself, is the row.
                    for (px, &a) in out.iter_mut().zip(a) {
                        *px = a.color();
                    }
                } else {
                    for ((px, &a), &b) in out.iter_mut().zip(a).zip(b) {
                        *px = a.lerp(b, ty.t).color();
                    }
                }
            }
            ScaleFilter::Box => {
                // The window mean, `sum / (height * width)` rounded down,
                // is `sum / height / width`, each rounded down.
                let height = reciprocal((ty.hi - ty.lo) as u64);
                self.window.clear();
                self.window
                    .extend((ty.lo..ty.hi).map(|sy| self.src.row(sy)));
                for ((px, tx), &width) in out.iter_mut().zip(&self.cols).zip(&self.widths) {
                    let mut sum = [0u64; 3];
                    for row in &self.window {
                        for c in &row[tx.lo as usize..tx.hi as usize] {
                            sum[0] += c.r as u64;
                            sum[1] += c.g as u64;
                            sum[2] += c.b as u64;
                        }
                    }
                    let mean = |v: u64| divide(divide(v, height), width) as u8;
                    *px = Color::rgb(mean(sum[0]), mean(sum[1]), mean(sum[2]));
                }
            }
        }
    }

    /// Makes `across[0]` source row `top` and, unless that is the same
    /// row, `across[1]` source row `bottom`, both interpolated across,
    /// reusing what the previous row left.
    fn interpolate(&mut self, top: u32, bottom: u32) {
        let [(a, _), (b, _)] = &self.across;
        if *a != top && (*b == top || *a == bottom) {
            self.across.swap(0, 1);
        }
        for (slot, sy) in [(0, top), (1, bottom)] {
            if self.across[slot].0 == sy || (slot == 1 && sy == top) {
                continue;
            }
            let row = self.src.row(sy);
            let (held, out) = &mut self.across[slot];
            *held = sy;
            for (px, tx) in out.iter_mut().zip(&self.cols) {
                let (a, b) = (row[tx.lo as usize], row[tx.hi as usize - 1]);
                *px = Lanes::from(a).lerp(Lanes::from(b), tx.t);
            }
        }
    }
}

/// `⌈2⁶⁰ / n⌉`, with which [`divide`] divides by `n`.
fn reciprocal(n: u64) -> u64 {
    (1u64 << 60).div_ceil(n)
}

/// `x / n`, rounded down, by a multiplication with `m = reciprocal(n)`.
/// Exact whenever `x · n < 2⁶⁰`: `x·m / 2⁶⁰` exceeds `x / n` by less
/// than `x / 2⁶⁰ < 1 / n`, too little to reach the next integer. A box
/// mean divides a sum of at most `255 · w · h` channel values by `h`,
/// then a quotient of at most `255 · w` by `w`. The window lies inside a
/// framebuffer, so `w · h`, `w` and `h` are each at most 2²⁶, and both
/// products `x · n` are at most `255 · 2⁵²`.
fn divide(x: u64, m: u64) -> u64 {
    ((x as u128 * m as u128) >> 60) as u64
}

/// The destination rectangle whose pixels read at least one source pixel
/// of `changed` when a `src`-sized frame is scaled to `dst` with
/// `filter`: after `changed` is redrawn, rescaling this rectangle with
/// [`scale_rect`] brings the scaled frame up to date.
pub fn footprint(src: Size, dst: Size, filter: ScaleFilter, changed: Rect) -> Rect {
    let Some(c) = changed.intersect(Rect::new(0, 0, src.w, src.h)) else {
        return Rect::EMPTY;
    };
    let (x0, x1) = axis_footprint(filter, src.w, dst.w, c.x as u32, c.right() as u32);
    let (y0, y1) = axis_footprint(filter, src.h, dst.h, c.y as u32, c.bottom() as u32);
    Rect::new(x0 as i32, y0 as i32, x1 - x0, y1 - y0)
}

/// The source pixels one destination column (or row) reads along its
/// axis: `lo..hi`, plus for bilinear the weight of `hi - 1` in 1/256.
#[derive(Debug, Clone, Copy)]
struct Taps {
    lo: u32,
    hi: u32,
    t: u32,
}

/// The taps of destination coordinate `i` when scaling `src` pixels to
/// `dst` along one axis. Both ends are non-decreasing in `i`.
fn taps(filter: ScaleFilter, i: u32, src: u32, dst: u32) -> Taps {
    let lo = (i as u64 * src as u64 / dst as u64) as u32;
    match filter {
        ScaleFilter::Nearest => Taps {
            lo,
            hi: lo + 1,
            t: 0,
        },
        ScaleFilter::Box => Taps {
            lo,
            hi: (((i as u64 + 1) * src as u64 / dst as u64) as u32).max(lo + 1),
            t: 0,
        },
        ScaleFilter::Bilinear => {
            // Map pixel centers.
            let f = ((i as f64 + 0.5) * src as f64 / dst as f64 - 0.5).max(0.0);
            let lo = f.floor() as u32;
            Taps {
                lo,
                hi: (lo + 1).min(src - 1) + 1,
                t: ((f - lo as f64) * 256.0) as u32,
            }
        }
    }
}

/// The destination range `lo..hi` along one axis whose taps meet source
/// range `a..b`. Exact, because tap ranges are contiguous and monotone.
fn axis_footprint(filter: ScaleFilter, src: u32, dst: u32, a: u32, b: u32) -> (u32, u32) {
    // The first `i` in `0..dst` for which `before(i)` is false.
    let first = |before: &dyn Fn(Taps) -> bool| {
        let (mut lo, mut hi) = (0, dst);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(taps(filter, mid, src, dst)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    (first(&|t| t.hi <= a), first(&|t| t.lo < b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point, Rect};

    fn checkerboard(w: u32, h: u32) -> Framebuffer {
        let mut fb = Framebuffer::new(w, h, Color::BLACK);
        for y in 0..h as i32 {
            for x in 0..w as i32 {
                if (x + y) % 2 == 0 {
                    fb.set_pixel(Point::new(x, y), Color::WHITE);
                }
            }
        }
        fb
    }

    #[test]
    fn identity_scale_is_clone() {
        let src = checkerboard(8, 8);
        for f in [
            ScaleFilter::Nearest,
            ScaleFilter::Bilinear,
            ScaleFilter::Box,
        ] {
            let out = scale(&src, Size::new(8, 8), f);
            assert_eq!(out, src);
        }
    }

    #[test]
    fn upscale_nearest_replicates() {
        let mut src = Framebuffer::new(2, 1, Color::BLACK);
        src.set_pixel(Point::new(1, 0), Color::WHITE);
        let out = scale(&src, Size::new(4, 2), ScaleFilter::Nearest);
        assert_eq!(out.pixel(Point::new(0, 0)), Some(Color::BLACK));
        assert_eq!(out.pixel(Point::new(1, 1)), Some(Color::BLACK));
        assert_eq!(out.pixel(Point::new(2, 0)), Some(Color::WHITE));
        assert_eq!(out.pixel(Point::new(3, 1)), Some(Color::WHITE));
    }

    #[test]
    fn downscale_box_averages() {
        let src = checkerboard(8, 8);
        let out = scale(&src, Size::new(1, 1), ScaleFilter::Box);
        let c = out.pixel(Point::new(0, 0)).unwrap();
        assert!(
            (120..=135).contains(&c.r),
            "average of checkerboard ~127, got {c}"
        );
    }

    #[test]
    fn bilinear_midpoint_blends() {
        let mut src = Framebuffer::new(2, 1, Color::BLACK);
        src.set_pixel(Point::new(1, 0), Color::WHITE);
        let out = scale(&src, Size::new(3, 1), ScaleFilter::Bilinear);
        let mid = out.pixel(Point::new(1, 0)).unwrap();
        assert!(mid.r > 0 && mid.r < 255, "midpoint should blend, got {mid}");
    }

    #[test]
    fn solid_color_survives_all_filters() {
        let mut src = Framebuffer::new(10, 10, Color::BLACK);
        src.fill_rect(Rect::new(0, 0, 10, 10), Color::rgb(40, 90, 200));
        for f in [
            ScaleFilter::Nearest,
            ScaleFilter::Bilinear,
            ScaleFilter::Box,
        ] {
            let out = scale(&src, Size::new(3, 7), f);
            for &p in out.pixels() {
                assert_eq!(p, Color::rgb(40, 90, 200), "{f}");
            }
        }
    }

    #[test]
    fn scale_to_fit_preserves_aspect() {
        let src = Framebuffer::new(100, 50, Color::BLACK);
        let out = scale_to_fit(&src, Size::new(20, 20), ScaleFilter::Nearest);
        assert_eq!(out.size(), Size::new(20, 10));
        let out2 = scale_to_fit(&src, Size::new(200, 20), ScaleFilter::Nearest);
        assert_eq!(out2.size(), Size::new(40, 20));
    }

    #[test]
    fn scale_to_fit_never_zero() {
        let src = Framebuffer::new(1000, 10, Color::BLACK);
        let out = scale_to_fit(&src, Size::new(5, 5), ScaleFilter::Box);
        assert!(out.width() >= 1 && out.height() >= 1);
    }

    #[test]
    fn fit_size_matches_scaled_size() {
        // The size `scale_to_fit` had when it computed it inline.
        fn fitted(src: Size, bounds: Size) -> Size {
            let sx = bounds.w as f64 / src.w as f64;
            let sy = bounds.h as f64 / src.h as f64;
            let s = sx.min(sy);
            let w = ((src.w as f64 * s).round() as u32).clamp(1, bounds.w);
            let h = ((src.h as f64 * s).round() as u32).clamp(1, bounds.h);
            Size::new(w, h)
        }
        let sides = [1, 2, 3, 7, 16, 100, 127, 240, 333];
        for &sw in &sides {
            for &sh in &sides {
                let src = Framebuffer::new(sw, sh, Color::BLACK);
                for &bw in &sides {
                    for &bh in &sides {
                        let bounds = Size::new(bw, bh);
                        let fit = fit_size(src.size(), bounds);
                        assert_eq!(fit, fitted(src.size(), bounds), "{sw}x{sh} in {bounds}");
                        if sw * sh <= 1_000 {
                            let out = scale_to_fit(&src, bounds, ScaleFilter::Nearest);
                            assert_eq!(out.size(), fit, "{sw}x{sh} in {bounds}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn footprint_holds_every_pixel_reading_the_change() {
        let sides = [1, 2, 3, 5, 8, 13, 21];
        for filter in [
            ScaleFilter::Nearest,
            ScaleFilter::Bilinear,
            ScaleFilter::Box,
        ] {
            for &sw in &sides {
                for &dw in &sides {
                    let (src, dst) = (Size::new(sw, sw + 1), Size::new(dw, dw / 2 + 1));
                    for (x, y, w, h) in [(0, 0u32, 1, 1), (sw / 2, 1, 1, 1), (sw - 1, 0, 1, sw + 1)]
                    {
                        let changed = Rect::new(x as i32, y as i32, w, h);
                        let fp = footprint(src, dst, filter, changed);
                        for dy in 0..dst.h {
                            let ty = taps(filter, dy, src.h, dst.h);
                            for dx in 0..dst.w {
                                let tx = taps(filter, dx, src.w, dst.w);
                                let reads = (ty.lo..ty.hi).any(|sy| {
                                    (tx.lo..tx.hi).any(|sx| {
                                        changed.contains(Point::new(sx as i32, sy as i32))
                                    })
                                });
                                let p = Point::new(dx as i32, dy as i32);
                                assert_eq!(
                                    reads,
                                    fp.contains(p),
                                    "{filter} {src}->{dst} {changed}: {p} vs {fp}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rescaling_the_footprint_matches_a_full_scale() {
        let mut src = checkerboard(19, 11);
        for filter in [
            ScaleFilter::Nearest,
            ScaleFilter::Bilinear,
            ScaleFilter::Box,
        ] {
            for target in [Size::new(7, 5), Size::new(19, 11), Size::new(40, 23)] {
                let mut dst = scale(&src, target, filter);
                let changed = Rect::new(4, 3, 5, 2);
                src.fill_rect(changed, Color::rgb(200, 30, 60));
                let fp = footprint(src.size(), target, filter, changed);
                scale_rect(&src, &mut dst, fp, filter);
                assert_eq!(dst, scale(&src, target, filter), "{filter} to {target}");
                src = checkerboard(19, 11);
            }
        }
    }

    #[test]
    fn reciprocal_division_is_exact_for_box_means() {
        let max = crate::framebuffer::MAX_PIXELS;
        for n in [1, 2, 3, 7, 255, 256, 1_000_003, max / 3, max - 1, max] {
            let m = reciprocal(n);
            for x in [0, 1, n - 1, n, n + 1, 127 * n + n / 2, 255 * n - 1, 255 * n] {
                assert_eq!(divide(x, m), x / n, "{x} / {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_target_panics() {
        let src = Framebuffer::new(4, 4, Color::BLACK);
        scale(&src, Size::ZERO, ScaleFilter::Nearest);
    }
}
