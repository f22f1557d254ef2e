//! Image scaling: the UniInt proxy rescales server frames to each output
//! device's native resolution (TV overscan, QVGA PDA, 128×128 phone LCD...).
//!
//! Every filter reads, for each destination column and row, a range of
//! source pixels (its taps) fixed by the two sizes. [`Scaler`] works them
//! out once per pair of sizes, in `f64` for bilinear, and keeps them: a
//! plug-in that rescales a few rects per call slices the kept taps
//! instead of recomputing them per rect and per row, and looks a change's
//! [`footprint`](Scaler::footprint) up in tables derived from them.
//! [`RowScaler`] is the row kernel, one per filter.

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
    Scaler::new(src.size(), dst.size(), filter).scale_rect(src, dst, rect);
}

/// How `src`-sized frames are scaled to `dst` with one filter, worked
/// out once per pair of sizes: the taps of every destination column and
/// row, and for the box filter the reciprocals its windows divide by. A
/// plug-in keeps one for as long as its sizes hold, so a call that
/// rescales a few rects computes no tap; [`footprint`](Self::footprint)
/// reads which destination columns and rows read each source one. It
/// also keeps the scratch rows its kernels reuse.
#[derive(Debug, Clone)]
pub struct Scaler {
    filter: ScaleFilter,
    src: Size,
    dst: Size,
    /// Every destination column's taps, and every row's.
    cols: Vec<Taps>,
    rows: Vec<Taps>,
    /// For every source column, and every row, the destination ones
    /// whose taps read it (see [`reach`]).
    reach_cols: Vec<(u32, u32)>,
    reach_rows: Vec<(u32, u32)>,
    /// Box only: the column sums of the row being scaled, in the form
    /// every window of these sizes fits.
    sums: Sums,
    /// Bilinear only: source rows interpolated across the columns being
    /// scaled, each with the row it came from (`u32::MAX` when stale),
    /// and the source pixels the columns read, in lanes.
    across: [(u32, Vec<Lanes>); 2],
    lanes: Vec<Lanes>,
}

/// The column sums of a box row, packed when every window's sums fit
/// 16-bit lanes, else a `u64` per channel.
#[derive(Debug, Clone)]
enum Sums {
    Packed(Vec<Packed>),
    Wide(Vec<[u64; 3]>),
}

impl Scaler {
    /// The taps of scaling `src`-sized frames to `dst` with `filter`.
    ///
    /// # Panics
    ///
    /// Panics if either size is empty.
    pub fn new(src: Size, dst: Size, filter: ScaleFilter) -> Scaler {
        assert!(
            !src.is_empty() && !dst.is_empty(),
            "scale sizes must be non-empty"
        );
        let mut cols: Vec<Taps> = (0..dst.w).map(|x| taps(filter, x, src.w, dst.w)).collect();
        let mut rows: Vec<Taps> = (0..dst.h).map(|y| taps(filter, y, src.h, dst.h)).collect();
        let widest = |t: &[Taps]| t.iter().map(|t| t.hi - t.lo).max().unwrap_or(1) as u64;
        let packed = widest(&cols) * widest(&rows) <= Packed::MAX_AREA;
        if filter == ScaleFilter::Box {
            let reciprocal = if packed {
                Packed::reciprocal
            } else {
                <[u64; 3]>::reciprocal
            };
            for t in cols.iter_mut().chain(&mut rows) {
                t.m = reciprocal((t.hi - t.lo) as u64);
            }
        }
        Scaler {
            filter,
            src,
            dst,
            reach_cols: reach(&cols, src.w),
            reach_rows: reach(&rows, src.h),
            cols,
            rows,
            sums: if packed {
                Sums::Packed(Vec::new())
            } else {
                Sums::Wide(Vec::new())
            },
            across: [(u32::MAX, Vec::new()), (u32::MAX, Vec::new())],
            lanes: Vec::new(),
        }
    }

    /// The source size given to [`new`](Self::new).
    pub fn src(&self) -> Size {
        self.src
    }

    /// The destination rectangle whose pixels read at least one source
    /// pixel of `changed`: after `changed` is redrawn, rescaling this
    /// rectangle brings the scaled frame up to date. Exact, because tap
    /// ranges are contiguous and both their ends are non-decreasing: the
    /// range starts at the first destination reading the first source
    /// pixel, and ends after the last reading the last.
    pub fn footprint(&self, changed: Rect) -> Rect {
        let Some(c) = changed.intersect(Rect::new(0, 0, self.src.w, self.src.h)) else {
            return Rect::EMPTY;
        };
        // The destination range whose taps meet source range `a..b`.
        let meet = |reach: &[(u32, u32)], a: i32, b: i32| {
            let (lo, hi) = (reach[a as usize].0, reach[b as usize - 1].1);
            (lo as i32, hi - lo)
        };
        let (x, w) = meet(&self.reach_cols, c.x, c.right());
        let (y, h) = meet(&self.reach_rows, c.y, c.bottom());
        Rect::new(x, y, w, h)
    }

    /// Writes the `rect` part (clipped) of `src` scaled into `dst`, as
    /// [`scale_rect`] does.
    ///
    /// # Panics
    ///
    /// Panics if the frames are not the sizes given to [`new`](Self::new).
    pub fn scale_rect(&mut self, src: &Framebuffer, dst: &mut Framebuffer, rect: Rect) {
        assert_eq!(dst.size(), self.dst, "scaled frame size");
        let Some(rect) = rect.intersect(dst.bounds()) else {
            return;
        };
        let cols = rect.x as usize..rect.right() as usize;
        let mut rows = self.rows(src, rect.x as u32..rect.right() as u32);
        for y in rect.y as u32..rect.bottom() as u32 {
            rows.row(y, &mut dst.row_mut(y)[cols.clone()]);
        }
    }

    /// A scaler of `src` for destination columns `cols`, one row at a
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not the size given to [`new`](Self::new) or
    /// `cols` is not a range of destination columns.
    pub fn rows<'a>(&'a mut self, src: &'a Framebuffer, cols: Range<u32>) -> RowScaler<'a> {
        assert_eq!(src.size(), self.src, "scaled source size");
        assert!(
            cols.start <= cols.end && cols.end <= self.dst.w,
            "scaled columns"
        );
        let cols = cols.start as usize..cols.end as usize;
        if self.filter == ScaleFilter::Bilinear {
            // Interpolated rows of another frame or other columns are stale.
            for (held, row) in &mut self.across {
                *held = u32::MAX;
                row.resize(cols.len(), Lanes::default());
            }
        }
        RowScaler {
            scaler: self,
            src,
            cols,
        }
    }
}

/// Scales a frame one destination row at a time over a fixed range of
/// columns, with the taps and scratch of a [`Scaler`]: the kernel behind
/// [`scale`] and [`scale_rect`].
///
/// * Bilinear interpolates across before it interpolates down, and keeps
///   the across-interpolated source rows it used last: destination rows
///   that read the same two source rows, as rows of an upscale do,
///   interpolate them once.
/// * Box sums each source column of the row's window once, then each
///   window from those column sums, and divides by the window's height
///   and width with their reciprocals. Where every window holds at most
///   257 pixels (a downscale by at most 16:1 on each axis), the sums stay in
///   16-bit lanes of one `u64` and divide with a `u64` multiplication;
///   larger windows sum a `u64` per channel and divide with a `u128` one.
#[derive(Debug)]
pub struct RowScaler<'a> {
    scaler: &'a mut Scaler,
    src: &'a Framebuffer,
    cols: Range<usize>,
}

impl RowScaler<'_> {
    /// Writes destination row `y` of the scaler's columns into `out`,
    /// which must be exactly as wide as they are.
    pub fn row(&mut self, y: u32, out: &mut [Color]) {
        let Scaler {
            filter,
            src: size,
            dst,
            cols,
            rows,
            sums,
            across,
            lanes,
            ..
        } = &mut *self.scaler;
        assert_eq!(out.len(), self.cols.len(), "scaled row width");
        if size == dst {
            // Every filter maps a pixel to itself at scale 1.
            out.copy_from_slice(&self.src.row(y)[self.cols.clone()]);
            return;
        }
        let cols = &cols[self.cols.clone()];
        let ty = rows[y as usize];
        match filter {
            ScaleFilter::Nearest => {
                let row = self.src.row(ty.lo);
                for (px, tx) in out.iter_mut().zip(cols) {
                    *px = row[tx.lo as usize];
                }
            }
            ScaleFilter::Bilinear => {
                let (top, bottom) = (ty.lo, ty.hi - 1);
                interpolate(self.src, cols, across, lanes, top, bottom);
                let [(_, a), (_, b)] = &*across;
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
            ScaleFilter::Box => match sums {
                Sums::Packed(sums) => box_row(self.src, ty, cols, sums, out),
                Sums::Wide(sums) => box_row(self.src, ty, cols, sums, out),
            },
        }
    }
}

/// Makes `across[0]` source row `top` and, unless that is the same row,
/// `across[1]` source row `bottom`, both interpolated across `cols`,
/// reusing what the previous row left. `lanes` is scratch for the source
/// pixels the columns read, each spread into lanes once.
fn interpolate(
    src: &Framebuffer,
    cols: &[Taps],
    across: &mut [(u32, Vec<Lanes>); 2],
    lanes: &mut Vec<Lanes>,
    top: u32,
    bottom: u32,
) {
    let [(a, _), (b, _)] = across;
    if *a != top && (*b == top || *a == bottom) {
        across.swap(0, 1);
    }
    let Some((first, last)) = cols.first().zip(cols.last()) else {
        return;
    };
    let span = first.lo as usize..last.hi as usize;
    for (slot, sy) in [(0, top), (1, bottom)] {
        if across[slot].0 == sy || (slot == 1 && sy == top) {
            continue;
        }
        lanes.clear();
        lanes.extend(src.row(sy)[span.clone()].iter().map(|&c| Lanes::from(c)));
        let (held, out) = &mut across[slot];
        *held = sy;
        for (px, tx) in out.iter_mut().zip(cols) {
            let (a, b) = (tx.lo as usize - span.start, tx.hi as usize - 1 - span.start);
            *px = lanes[a].lerp(lanes[b], tx.t);
        }
    }
}

/// One box-filtered row: the window mean of each column in `cols`, over
/// source rows `ty`. `sums` is scratch: it gets the sums of the source
/// columns the windows read, then their running totals, so each window
/// sum is one difference of two totals.
fn box_row<S: WindowSum>(
    src: &Framebuffer,
    ty: Taps,
    cols: &[Taps],
    sums: &mut Vec<S>,
    out: &mut [Color],
) {
    let Some((first, last)) = cols.first().zip(cols.last()) else {
        return;
    };
    let span = first.lo as usize..last.hi as usize;
    // `sums[1 + i]` sums source column `span.start + i` down the window.
    sums.clear();
    sums.push(S::default());
    sums.extend(src.row(ty.lo)[span.clone()].iter().map(|&c| S::of(c)));
    for sy in ty.lo + 1..ty.hi {
        for (sum, &c) in sums[1..].iter_mut().zip(&src.row(sy)[span.clone()]) {
            *sum = sum.add(S::of(c));
        }
    }
    // Now `sums[i]` totals the columns before `span.start + i`.
    let mut total = S::default();
    for sum in &mut sums[1..] {
        total = total.add(*sum);
        *sum = total;
    }
    for (px, tx) in out.iter_mut().zip(cols) {
        let (lo, hi) = (tx.lo as usize - span.start, tx.hi as usize - span.start);
        *px = sums[hi].sub(sums[lo]).mean(ty.m, tx.m);
    }
}

/// The channel sums of a box window, and their mean. Sums add and
/// subtract modulo 2⁶⁴, so running totals may wrap: the difference of
/// two totals is the sum of the columns between them all the same.
trait WindowSum: Copy + Default {
    /// The sums of the window holding only `c`.
    fn of(c: Color) -> Self;
    fn add(self, other: Self) -> Self;
    fn sub(self, other: Self) -> Self;
    /// The multiplier with which [`mean`](Self::mean) divides by `n`.
    fn reciprocal(n: u64) -> u64;
    /// The window mean `⌊sum / (h · w)⌋` of each channel, which is
    /// `⌊⌊sum / h⌋ / w⌋`, given the reciprocals of `h` and `w`.
    fn mean(self, h: u64, w: u64) -> Color;
}

/// The three channel sums of a window in 16-bit lanes of a `u64`: a
/// channel sums to at most `255 · 257 = 65 535` over a window of at most
/// [`MAX_AREA`](Self::MAX_AREA) pixels, so one addition adds all three.
/// A running total's lanes carry into each other, but it is the lanes
/// read as one integer modulo 2⁶⁴ that add up: the difference of two
/// totals is a window's sums, each in its own lane again.
#[derive(Debug, Clone, Copy, Default)]
struct Packed(u64);

impl Packed {
    /// The most pixels a packed window may hold.
    const MAX_AREA: u64 = 257;
}

impl WindowSum for Packed {
    #[inline]
    fn of(c: Color) -> Packed {
        Packed(c.r as u64 | (c.g as u64) << 16 | (c.b as u64) << 32)
    }

    #[inline]
    fn add(self, other: Packed) -> Packed {
        Packed(self.0.wrapping_add(other.0))
    }

    #[inline]
    fn sub(self, other: Packed) -> Packed {
        Packed(self.0.wrapping_sub(other.0))
    }

    /// `⌈2³² / n⌉`. `x / n` rounded down is `x·m / 2³²` whenever
    /// `x · n < 2³²`, by the argument at [`divide`]. Both divisions stay
    /// below that: a sum of at most 65 535 by a height of at most 257,
    /// then a quotient of at most `255 · w` by a width `w` of at most 257.
    fn reciprocal(n: u64) -> u64 {
        (1u64 << 32).div_ceil(n)
    }

    #[inline]
    fn mean(self, h: u64, w: u64) -> Color {
        let ch = |shift: u32| {
            let sum = (self.0 >> shift) & 0xffff;
            let rows = (sum * h) >> 32;
            ((rows * w) >> 32) as u8
        };
        Color::rgb(ch(0), ch(16), ch(32))
    }
}

impl WindowSum for [u64; 3] {
    #[inline]
    fn of(c: Color) -> [u64; 3] {
        [c.r as u64, c.g as u64, c.b as u64]
    }

    #[inline]
    fn add(self, other: [u64; 3]) -> [u64; 3] {
        core::array::from_fn(|k| self[k].wrapping_add(other[k]))
    }

    #[inline]
    fn sub(self, other: [u64; 3]) -> [u64; 3] {
        core::array::from_fn(|k| self[k].wrapping_sub(other[k]))
    }

    fn reciprocal(n: u64) -> u64 {
        reciprocal(n)
    }

    #[inline]
    fn mean(self, h: u64, w: u64) -> Color {
        let ch = |v: u64| divide(divide(v, h), w) as u8;
        Color::rgb(ch(self[0]), ch(self[1]), ch(self[2]))
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

/// The source pixels one destination column (or row) reads along its
/// axis: `lo..hi`, plus for bilinear the weight of `hi - 1` in 1/256,
/// and for box the reciprocal of `hi - lo` its window sums divide by.
#[derive(Debug, Clone, Copy)]
struct Taps {
    lo: u32,
    hi: u32,
    t: u32,
    m: u64,
}

/// For each of `src` source coordinates, the destination ones whose
/// `taps` read it, `first..end`: the first whose taps end after it, and
/// the first whose taps start after it. Both are non-decreasing, as the
/// taps' ends are, so one walk finds them all.
fn reach(taps: &[Taps], src: u32) -> Vec<(u32, u32)> {
    let (mut first, mut end) = (0, 0);
    (0..src)
        .map(|s| {
            first += taps[first..].iter().take_while(|t| t.hi <= s).count();
            end += taps[end..].iter().take_while(|t| t.lo <= s).count();
            (first as u32, end as u32)
        })
        .collect()
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
            m: 0,
        },
        ScaleFilter::Box => Taps {
            lo,
            hi: (((i as u64 + 1) * src as u64 / dst as u64) as u32).max(lo + 1),
            t: 0,
            m: 0,
        },
        ScaleFilter::Bilinear => {
            // Map pixel centers.
            let f = ((i as f64 + 0.5) * src as f64 / dst as f64 - 0.5).max(0.0);
            let lo = f.floor() as u32;
            Taps {
                lo,
                hi: (lo + 1).min(src - 1) + 1,
                t: ((f - lo as f64) * 256.0) as u32,
                m: 0,
            }
        }
    }
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
                        let fp = Scaler::new(src, dst, filter).footprint(changed);
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
                let fp = Scaler::new(src.size(), target, filter).footprint(changed);
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
    fn packed_division_is_exact_for_packed_windows() {
        // Every divisor a packed window divides by, at every multiple of
        // it up to the largest lane sum and one below: where a reciprocal
        // that is too small would first round down too far.
        for n in 1..=Packed::MAX_AREA {
            let m = Packed::reciprocal(n);
            for k in (0..=65_535u64).step_by(n as usize) {
                for x in [k, k.saturating_sub(1), 65_535] {
                    assert_eq!((x * m) >> 32, x / n, "{x} / {n}");
                }
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
