//! The software framebuffer: canonical 24-bit RGB pixels plus damage
//! tracking.
//!
//! The window system renders into a [`Framebuffer`]; the UniInt server
//! drains its [`Region`] of accumulated damage to decide which rectangles
//! to re-encode and ship to the proxy.
//!
//! Independently of damage, every framebuffer keeps a short journal of
//! the rects its mutators wrote, under an id no other framebuffer shares.
//! A reader that adapts the same frame again and again (the proxy's
//! output plug-ins) keeps a [`Stamp`] and asks
//! [`changes_since`](Framebuffer::changes_since) what was written after
//! it, instead of comparing the frame with a copy. Draining damage does
//! not touch the journal, so the server and the plug-ins never disturb
//! each other.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::color::Color;
use crate::geom::{Point, Rect, Size};
use crate::region::Region;

/// How many writes a framebuffer's journal remembers. A [`Stamp`] taken
/// more writes ago than this gets `None` from
/// [`Framebuffer::changes_since`].
pub const JOURNAL_CAPACITY: usize = 128;

/// The largest area a framebuffer may have: 64 Mpixels, a guard against
/// nonsense sizes, not a real display limit.
pub const MAX_PIXELS: u64 = 64 * 1024 * 1024;

/// One state of one framebuffer: its id and its write generation, as
/// [`Framebuffer::stamp`] returned them.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    id: u64,
    gen: u64,
}

impl core::fmt::Debug for Stamp {
    /// The generation only: ids depend on how many frames other threads
    /// made first, so they stay out of anything printed.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Stamp")
            .field("gen", &self.gen)
            .finish_non_exhaustive()
    }
}

/// A framebuffer id no other framebuffer in this process has had.
fn fresh_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A `w`×`h` raster of [`Color`] pixels with an accumulated damage region.
///
/// ```
/// use uniint_raster::framebuffer::Framebuffer;
/// use uniint_raster::color::Color;
/// use uniint_raster::geom::{Point, Rect};
/// let mut fb = Framebuffer::new(64, 48, Color::BLACK);
/// fb.take_damage(); // a fresh framebuffer starts fully damaged
/// fb.fill_rect(Rect::new(0, 0, 8, 8), Color::RED);
/// assert_eq!(fb.pixel(Point::new(3, 3)), Some(Color::RED));
/// assert_eq!(fb.damage().bounding_rect(), Rect::new(0, 0, 8, 8));
/// ```
pub struct Framebuffer {
    width: u32,
    height: u32,
    pixels: Vec<Color>,
    damage: Region,
    /// Unique per framebuffer; a clone gets its own.
    id: u64,
    /// Writes logged so far.
    gen: u64,
    /// The clipped rects of the last `journal.len()` writes, oldest first.
    journal: VecDeque<Rect>,
}

impl Framebuffer {
    /// Creates a framebuffer filled with `background`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the area exceeds
    /// [`MAX_PIXELS`]; [`try_new`](Self::try_new) returns `None` instead.
    pub fn new(width: u32, height: u32, background: Color) -> Framebuffer {
        assert!(width > 0 && height > 0, "framebuffer must be non-empty");
        Framebuffer::try_new(width, height, background).expect("framebuffer too large")
    }

    /// Whether [`try_new`](Self::try_new) accepts a `width`×`height`
    /// frame: both dimensions non-zero and the area at most
    /// [`MAX_PIXELS`].
    pub fn fits(width: u32, height: u32) -> bool {
        let area = width as u64 * height as u64;
        area != 0 && area <= MAX_PIXELS
    }

    /// Creates a framebuffer filled with `background`, or `None` if
    /// either dimension is zero or the area exceeds [`MAX_PIXELS`]. Sizes
    /// a peer sends go through here, so that no message can make the
    /// receiver allocate past the limit or panic.
    ///
    /// ```
    /// use uniint_raster::framebuffer::Framebuffer;
    /// use uniint_raster::color::Color;
    /// assert!(Framebuffer::try_new(640, 480, Color::BLACK).is_some());
    /// assert!(Framebuffer::try_new(65_535, 65_535, Color::BLACK).is_none());
    /// assert!(Framebuffer::try_new(0, 1, Color::BLACK).is_none());
    /// ```
    pub fn try_new(width: u32, height: u32, background: Color) -> Option<Framebuffer> {
        if !Framebuffer::fits(width, height) {
            return None;
        }
        let area = width as u64 * height as u64;
        Some(Framebuffer {
            width,
            height,
            pixels: vec![background; area as usize],
            damage: Region::from_rect(Rect::new(0, 0, width, height)),
            id: fresh_id(),
            gen: 0,
            journal: VecDeque::new(),
        })
    }

    /// This framebuffer's current state, to pass back to
    /// [`changes_since`](Self::changes_since) later.
    pub fn stamp(&self) -> Stamp {
        Stamp {
            id: self.id,
            gen: self.gen,
        }
    }

    /// The clipped rects written since `stamp` was taken, oldest first;
    /// together they cover every pixel that may have changed. `None`
    /// when `stamp` belongs to another framebuffer (a clone included) or
    /// is older than the journal reaches back.
    ///
    /// ```
    /// use uniint_raster::framebuffer::Framebuffer;
    /// use uniint_raster::color::Color;
    /// use uniint_raster::geom::Rect;
    /// let mut fb = Framebuffer::new(64, 48, Color::BLACK);
    /// let seen = fb.stamp();
    /// fb.fill_rect(Rect::new(60, 0, 8, 8), Color::RED);
    /// assert_eq!(fb.changes_since(seen), Some(vec![Rect::new(60, 0, 4, 8)]));
    /// assert_eq!(fb.clone().changes_since(seen), None);
    /// ```
    pub fn changes_since(&self, stamp: Stamp) -> Option<Vec<Rect>> {
        let behind = self.gen.checked_sub(stamp.gen)?;
        if stamp.id != self.id || behind > self.journal.len() as u64 {
            return None;
        }
        let from = self.journal.len() - behind as usize;
        Some(self.journal.range(from..).copied().collect())
    }

    /// Logs a write to the already clipped, non-empty `rect`.
    fn log(&mut self, rect: Rect) {
        if self.journal.len() == JOURNAL_CAPACITY {
            self.journal.pop_front();
        }
        self.journal.push_back(rect);
        self.gen += 1;
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Size as a [`Size`].
    pub fn size(&self) -> Size {
        Size::new(self.width, self.height)
    }

    /// The rectangle `(0, 0, w, h)`.
    pub fn bounds(&self) -> Rect {
        Rect::new(0, 0, self.width, self.height)
    }

    /// Raw pixel storage in row-major order.
    pub fn pixels(&self) -> &[Color] {
        &self.pixels
    }

    /// A cheap, stable 64-bit content hash (FNV-1a over dimensions and
    /// row-major RGB bytes). Two framebuffers digest equal iff they
    /// have the same size and identical pixels; damage and journal state
    /// are ignored. Used by the trace replayer's divergence checker and
    /// printable from examples to eyeball two runs for identity.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        };
        for b in self
            .width
            .to_be_bytes()
            .into_iter()
            .chain(self.height.to_be_bytes())
        {
            eat(b);
        }
        for px in &self.pixels {
            eat(px.r);
            eat(px.g);
            eat(px.b);
        }
        h
    }

    /// The pixel at `p`, or `None` when out of bounds.
    pub fn pixel(&self, p: Point) -> Option<Color> {
        if !self.bounds().contains(p) {
            return None;
        }
        Some(self.pixels[(p.y as u32 * self.width + p.x as u32) as usize])
    }

    /// Sets one pixel; out-of-bounds writes are ignored. Records damage
    /// and journals the pixel, unless it already had color `c`.
    pub fn set_pixel(&mut self, p: Point, c: Color) {
        if !self.bounds().contains(p) {
            return;
        }
        let idx = (p.y as u32 * self.width + p.x as u32) as usize;
        if self.pixels[idx] != c {
            self.pixels[idx] = c;
            let px = Rect::new(p.x, p.y, 1, 1);
            self.damage.add(px);
            self.log(px);
        }
    }

    /// A row slice clipped to the framebuffer, or an empty slice when the
    /// row is out of range.
    pub fn row(&self, y: u32) -> &[Color] {
        if y >= self.height {
            return &[];
        }
        let start = (y * self.width) as usize;
        &self.pixels[start..start + self.width as usize]
    }

    /// A mutable row slice, for kernels that rewrite pixels in place.
    /// Writes through it record no damage, but the call journals the
    /// whole row as written.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of range.
    pub fn row_mut(&mut self, y: u32) -> &mut [Color] {
        assert!(y < self.height, "row {y} out of range");
        self.log(Rect::new(0, y as i32, self.width, 1));
        let start = (y * self.width) as usize;
        &mut self.pixels[start..start + self.width as usize]
    }

    /// Copies the pixels of `rect` (clipped) into a new row-major vector,
    /// together with the clipped rectangle.
    pub fn read_rect(&self, rect: Rect) -> (Rect, Vec<Color>) {
        let Some(clipped) = rect.intersect(self.bounds()) else {
            return (Rect::EMPTY, Vec::new());
        };
        let mut out = Vec::with_capacity(clipped.area() as usize);
        for y in clipped.y..clipped.bottom() {
            let start = (y as u32 * self.width + clipped.x as u32) as usize;
            out.extend_from_slice(&self.pixels[start..start + clipped.w as usize]);
        }
        (clipped, out)
    }

    /// Writes a row-major block of pixels at `rect` (clipped to bounds).
    /// `data` must be `rect.w * rect.h` long. Records damage and journals
    /// the clipped rect.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not match `rect`'s area.
    pub fn write_rect(&mut self, rect: Rect, data: &[Color]) {
        assert_eq!(
            data.len() as u64,
            rect.area(),
            "write_rect data length mismatch"
        );
        let Some(clipped) = rect.intersect(self.bounds()) else {
            return;
        };
        for y in clipped.y..clipped.bottom() {
            let src_row = (y - rect.y) as usize * rect.w as usize + (clipped.x - rect.x) as usize;
            let dst = (y as u32 * self.width + clipped.x as u32) as usize;
            self.pixels[dst..dst + clipped.w as usize]
                .copy_from_slice(&data[src_row..src_row + clipped.w as usize]);
        }
        self.damage.add(clipped);
        self.log(clipped);
    }

    /// The pixels of `rect`, to write in place (a protocol decoder writes
    /// an update rect straight into the frame this way), or `None` unless
    /// `rect` lies inside the frame. An empty rect always fits.
    ///
    /// The call records damage and journals `rect` once, before any write
    /// through the view, so the view's writes are covered even when the
    /// writer stops halfway.
    ///
    /// ```
    /// use uniint_raster::framebuffer::Framebuffer;
    /// use uniint_raster::color::Color;
    /// use uniint_raster::geom::{Point, Rect};
    /// let mut fb = Framebuffer::new(8, 8, Color::BLACK);
    /// let seen = fb.stamp();
    /// let mut view = fb.rect_mut(Rect::new(2, 3, 4, 2)).unwrap();
    /// view.row(1)[3] = Color::RED;
    /// assert_eq!(fb.pixel(Point::new(5, 4)), Some(Color::RED));
    /// assert_eq!(fb.changes_since(seen), Some(vec![Rect::new(2, 3, 4, 2)]));
    /// assert!(fb.rect_mut(Rect::new(6, 0, 4, 1)).is_none());
    /// ```
    pub fn rect_mut(&mut self, rect: Rect) -> Option<RectMut<'_>> {
        if !self.bounds().contains_rect(rect) {
            return None;
        }
        if rect.is_empty() {
            return Some(RectMut {
                pixels: &mut [],
                width: rect.w as usize,
                height: rect.h as usize,
                stride: 0,
            });
        }
        self.damage.add(rect);
        self.log(rect);
        let stride = self.width as usize;
        let (w, h) = (rect.w as usize, rect.h as usize);
        let start = rect.y as usize * stride + rect.x as usize;
        Some(RectMut {
            pixels: &mut self.pixels[start..start + (h - 1) * stride + w],
            width: w,
            height: h,
            stride,
        })
    }

    /// Fills `rect` (clipped) with `c`. Records damage and journals the
    /// clipped rect.
    pub fn fill_rect(&mut self, rect: Rect, c: Color) {
        let Some(clipped) = rect.intersect(self.bounds()) else {
            return;
        };
        for y in clipped.y..clipped.bottom() {
            let start = (y as u32 * self.width + clipped.x as u32) as usize;
            self.pixels[start..start + clipped.w as usize].fill(c);
        }
        self.damage.add(clipped);
        self.log(clipped);
    }

    /// Fills the whole framebuffer.
    pub fn clear(&mut self, c: Color) {
        self.fill_rect(self.bounds(), c);
    }

    /// Copies `src` (clipped) so its top-left lands on `dst` — the
    /// protocol's `CopyRect` primitive. Overlapping copies are safe.
    pub fn copy_rect(&mut self, src: Rect, dst: Point) {
        let Some(src) = src.intersect(self.bounds()) else {
            return;
        };
        let dst_rect = Rect::new(dst.x, dst.y, src.w, src.h);
        let Some(dst_clipped) = dst_rect.intersect(self.bounds()) else {
            return;
        };
        // Re-clip the source to match the destination clip.
        let src = Rect::new(
            src.x + (dst_clipped.x - dst_rect.x),
            src.y + (dst_clipped.y - dst_rect.y),
            dst_clipped.w,
            dst_clipped.h,
        );
        let (_, data) = self.read_rect(src);
        self.write_rect(dst_clipped, &data);
    }

    /// Blits `src_rect` from another framebuffer to `dst` in `self`.
    pub fn blit_from(&mut self, src: &Framebuffer, src_rect: Rect, dst: Point) {
        let (clipped, data) = src.read_rect(src_rect);
        if clipped.is_empty() {
            return;
        }
        self.write_rect(
            Rect::new(
                dst.x + (clipped.x - src_rect.x),
                dst.y + (clipped.y - src_rect.y),
                clipped.w,
                clipped.h,
            ),
            &data,
        );
    }

    /// The accumulated damage region.
    pub fn damage(&self) -> &Region {
        &self.damage
    }

    /// Marks `rect` damaged without touching pixels (used when an external
    /// writer mutates the raster through `write_rect`-free paths).
    pub fn add_damage(&mut self, rect: Rect) {
        if let Some(clipped) = rect.intersect(self.bounds()) {
            self.damage.add(clipped);
        }
    }

    /// Drains and returns the damage accumulated since the last call.
    pub fn take_damage(&mut self) -> Region {
        core::mem::take(&mut self.damage)
    }

    /// Whether any damage is pending.
    pub fn is_damaged(&self) -> bool {
        !self.damage.is_empty()
    }

    /// Computes the region where `self` and `other` differ, as row bands
    /// coalesced into a [`Region`] (see [`RowDiff`]).
    ///
    /// # Panics
    ///
    /// Panics if the framebuffers have different sizes.
    pub fn diff_region(&self, other: &Framebuffer) -> Region {
        assert_eq!(self.size(), other.size(), "diff requires equal sizes");
        let mut diff = RowDiff::default();
        for y in 0..self.height {
            diff.push(0, y, self.row(y), other.row(y));
        }
        diff.into_region()
    }
}

/// A rect of pixels to write in place: `height` rows of `width` pixels,
/// each row `stride` pixels after the one above. It is either a rect of a
/// [`Framebuffer`] ([`Framebuffer::rect_mut`]) or a packed buffer of its
/// own ([`RectMut::packed`]), so one writer serves both.
#[derive(Debug)]
pub struct RectMut<'a> {
    pixels: &'a mut [Color],
    width: usize,
    height: usize,
    stride: usize,
}

impl<'a> RectMut<'a> {
    /// A `width`×`height` rect over `pixels`, row-major with no gaps.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` is not `width * height`.
    pub fn packed(pixels: &'a mut [Color], width: u32, height: u32) -> RectMut<'a> {
        assert_eq!(
            pixels.len() as u64,
            width as u64 * height as u64,
            "packed rect length mismatch"
        );
        RectMut {
            pixels,
            width: width as usize,
            height: height as usize,
            stride: width as usize,
        }
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width as u32
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height as u32
    }

    /// The rectangle `(0, 0, width, height)`.
    #[inline]
    pub fn bounds(&self) -> Rect {
        Rect::new(0, 0, self.width(), self.height())
    }

    /// Row `y` of the rect, `width` pixels long.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of range.
    #[inline]
    pub fn row(&mut self, y: u32) -> &mut [Color] {
        assert!((y as usize) < self.height, "row {y} out of range");
        let start = y as usize * self.stride;
        &mut self.pixels[start..start + self.width]
    }

    /// The rect's rows from the top, each `width` pixels long, to hold
    /// across writes. A rect with no pixels has no rows.
    pub fn rows_mut(&mut self) -> impl ExactSizeIterator<Item = &mut [Color]> + '_ {
        let w = self.width;
        // Every row but the last is followed by the gap to the next.
        self.pixels
            .chunks_mut(self.stride.max(1))
            .map(move |row| &mut row[..w])
    }

    /// Fills `rect`, given relative to the rect's top-left, with `c`. An
    /// empty `rect` writes nothing, wherever it lies.
    ///
    /// # Panics
    ///
    /// Panics unless a non-empty `rect` lies inside the rect.
    #[inline]
    pub fn fill(&mut self, rect: Rect, c: Color) {
        if rect.is_empty() {
            return;
        }
        let (x, w) = (rect.x as usize, rect.w as usize);
        // Opaque, so the optimizer copies the block whole instead of
        // splitting it back into a store per pixel.
        let block = std::hint::black_box([c; 4]);
        for y in rect.y..rect.bottom() {
            fill_row(&mut self.row(y as u32)[x..x + w], &block);
        }
    }
}

/// Sets every pixel of `row` to the colour of `block`, which holds four
/// copies of it, writing a block at a time: one 12-byte copy, where
/// `slice::fill` stores each 3-byte pixel on its own.
#[inline]
pub fn fill_row(row: &mut [Color], block: &[Color; 4]) {
    let mut blocks = row.chunks_exact_mut(block.len());
    for b in &mut blocks {
        b.copy_from_slice(block);
    }
    blocks.into_remainder().fill(block[0]);
}

/// The region where rows changed, built one row at a time: each pushed
/// row adds its runs of differing pixels, left to right, and a run with
/// the same span as one on the row above extends that run's band
/// downwards. The runs are disjoint by construction, so the region is
/// assembled directly instead of via `Region::add`, whose per-insert
/// subtract scan goes quadratic on the tens of thousands of runs a
/// dithered-noise diff produces.
///
/// Output plug-ins push each device row as they rebuild it, compared
/// with the row it replaces, so no copy of the old pixels is kept.
#[derive(Debug, Default)]
pub struct RowDiff {
    rects: Vec<Rect>,
    /// Indices in `rects` of the runs on the row pushed last, left to
    /// right: the bands the next row may extend.
    open: Vec<usize>,
    /// The same for the row being pushed.
    next: Vec<usize>,
}

impl RowDiff {
    /// Closes every band: no run pushed from now on extends a run pushed
    /// before, even on the row below it.
    pub fn restart(&mut self) {
        self.open.clear();
    }

    /// Adds the runs where `now` and `before` (equally long) differ, the
    /// row starting at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the rows differ in length.
    pub fn push(&mut self, x: u32, y: u32, now: &[Color], before: &[Color]) {
        assert_eq!(now.len(), before.len(), "diff rows differ in length");
        self.next.clear();
        if now != before {
            let (x, y) = (x as i32, y as i32);
            let mut above = self.open.iter().copied().peekable();
            let mut i = 0;
            while let Some(skip) = now[i..].iter().zip(&before[i..]).position(|(a, b)| a != b) {
                let start = i + skip;
                let len = now[start..]
                    .iter()
                    .zip(&before[start..])
                    .position(|(a, b)| a == b)
                    .unwrap_or(now.len() - start);
                i = start + len;
                let run = Rect::new(x + start as i32, y, len as u32, 1);
                while above.next_if(|&k| self.rects[k].x < run.x).is_some() {}
                match above.peek() {
                    Some(&k)
                        if self.rects[k].x == run.x
                            && self.rects[k].w == run.w
                            && self.rects[k].bottom() == y =>
                    {
                        self.rects[k].h += 1;
                        self.next.push(k);
                    }
                    _ => {
                        self.next.push(self.rects.len());
                        self.rects.push(run);
                    }
                }
            }
        }
        core::mem::swap(&mut self.open, &mut self.next);
    }

    /// The region of every run pushed.
    pub fn into_region(self) -> Region {
        Region::from_disjoint_rects(self.rects)
    }
}

impl Clone for Framebuffer {
    /// Copies the pixels and damage under a fresh id with an empty
    /// journal, so the original's stamps mean nothing to the copy.
    fn clone(&self) -> Self {
        Framebuffer {
            width: self.width,
            height: self.height,
            pixels: self.pixels.clone(),
            damage: self.damage.clone(),
            id: fresh_id(),
            gen: 0,
            journal: VecDeque::new(),
        }
    }
}

impl core::fmt::Debug for Framebuffer {
    /// Size, pixels and damage. The id depends on how many frames other
    /// threads made first, so it and the journal stay out of anything
    /// printed or exported.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Framebuffer")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("pixels", &self.pixels)
            .field("damage", &self.damage)
            .finish()
    }
}

impl PartialEq for Framebuffer {
    /// Framebuffers compare by size and pixel content; damage and journal
    /// bookkeeping is ignored.
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.height == other.height && self.pixels == other.pixels
    }
}

impl Eq for Framebuffer {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_row_matches_slice_fill() {
        let c = Color::rgb(0x12, 0x34, 0x56);
        for n in 0..10u8 {
            let before: Vec<Color> = (0..n).map(|i| Color::rgb(i, 2 * i, 3 * i)).collect();
            let mut blocks = before.clone();
            fill_row(&mut blocks, &[c; 4]);
            let mut filled = before;
            filled.fill(c);
            assert_eq!(blocks, filled, "row of {n}");
        }
    }

    #[test]
    fn new_is_fully_damaged() {
        let fb = Framebuffer::new(10, 10, Color::BLACK);
        assert_eq!(fb.damage().area(), 100);
        assert_eq!(fb.size(), Size::new(10, 10));
    }

    #[test]
    fn set_and_get_pixel() {
        let mut fb = Framebuffer::new(4, 4, Color::BLACK);
        fb.take_damage();
        fb.set_pixel(Point::new(2, 1), Color::RED);
        assert_eq!(fb.pixel(Point::new(2, 1)), Some(Color::RED));
        assert_eq!(fb.pixel(Point::new(9, 9)), None);
        assert_eq!(fb.damage().bounding_rect(), Rect::new(2, 1, 1, 1));
    }

    #[test]
    fn set_pixel_same_color_no_damage() {
        let mut fb = Framebuffer::new(4, 4, Color::BLACK);
        fb.take_damage();
        fb.set_pixel(Point::new(0, 0), Color::BLACK);
        assert!(!fb.is_damaged());
    }

    #[test]
    fn fill_rect_clips() {
        let mut fb = Framebuffer::new(8, 8, Color::BLACK);
        fb.fill_rect(Rect::new(6, 6, 10, 10), Color::GREEN);
        assert_eq!(fb.pixel(Point::new(7, 7)), Some(Color::GREEN));
        assert_eq!(fb.pixel(Point::new(5, 5)), Some(Color::BLACK));
    }

    #[test]
    fn read_write_rect_roundtrip() {
        let mut fb = Framebuffer::new(8, 8, Color::BLACK);
        fb.fill_rect(Rect::new(2, 2, 3, 3), Color::BLUE);
        let (r, data) = fb.read_rect(Rect::new(2, 2, 3, 3));
        assert_eq!(r, Rect::new(2, 2, 3, 3));
        let mut fb2 = Framebuffer::new(8, 8, Color::BLACK);
        fb2.write_rect(r, &data);
        assert_eq!(fb, fb2);
    }

    #[test]
    fn read_rect_out_of_bounds_clips() {
        let fb = Framebuffer::new(4, 4, Color::WHITE);
        let (r, data) = fb.read_rect(Rect::new(2, 2, 10, 10));
        assert_eq!(r, Rect::new(2, 2, 2, 2));
        assert_eq!(data.len(), 4);
        let (r2, d2) = fb.read_rect(Rect::new(100, 100, 5, 5));
        assert!(r2.is_empty());
        assert!(d2.is_empty());
    }

    #[test]
    fn copy_rect_moves_pixels() {
        let mut fb = Framebuffer::new(8, 8, Color::BLACK);
        fb.fill_rect(Rect::new(0, 0, 2, 2), Color::RED);
        fb.copy_rect(Rect::new(0, 0, 2, 2), Point::new(4, 4));
        assert_eq!(fb.pixel(Point::new(4, 4)), Some(Color::RED));
        assert_eq!(fb.pixel(Point::new(5, 5)), Some(Color::RED));
        assert_eq!(fb.pixel(Point::new(0, 0)), Some(Color::RED), "source kept");
    }

    #[test]
    fn copy_rect_overlapping() {
        let mut fb = Framebuffer::new(8, 1, Color::BLACK);
        for x in 0..4 {
            fb.set_pixel(Point::new(x, 0), Color::rgb(x as u8 + 1, 0, 0));
        }
        fb.copy_rect(Rect::new(0, 0, 4, 1), Point::new(2, 0));
        assert_eq!(fb.pixel(Point::new(2, 0)), Some(Color::rgb(1, 0, 0)));
        assert_eq!(fb.pixel(Point::new(5, 0)), Some(Color::rgb(4, 0, 0)));
    }

    #[test]
    fn blit_from_other() {
        let mut src = Framebuffer::new(4, 4, Color::CYAN);
        src.fill_rect(Rect::new(0, 0, 2, 2), Color::MAGENTA);
        let mut dst = Framebuffer::new(8, 8, Color::BLACK);
        dst.blit_from(&src, src.bounds(), Point::new(1, 1));
        assert_eq!(dst.pixel(Point::new(1, 1)), Some(Color::MAGENTA));
        assert_eq!(dst.pixel(Point::new(4, 4)), Some(Color::CYAN));
        assert_eq!(dst.pixel(Point::new(0, 0)), Some(Color::BLACK));
    }

    #[test]
    fn take_damage_resets() {
        let mut fb = Framebuffer::new(4, 4, Color::BLACK);
        let d = fb.take_damage();
        assert_eq!(d.area(), 16);
        assert!(!fb.is_damaged());
    }

    #[test]
    fn try_new_refuses_empty_and_oversized_areas() {
        assert!(Framebuffer::try_new(0, 10, Color::BLACK).is_none());
        assert!(Framebuffer::try_new(10, 0, Color::BLACK).is_none());
        assert!(Framebuffer::try_new(MAX_PIXELS as u32 + 1, 1, Color::BLACK).is_none());
        assert!(Framebuffer::try_new(u32::MAX, u32::MAX, Color::BLACK).is_none());
        let fb = Framebuffer::try_new(3, 2, Color::RED).expect("small frame");
        assert_eq!(fb, Framebuffer::new(3, 2, Color::RED));
    }

    #[test]
    #[should_panic(expected = "framebuffer too large")]
    fn oversized_new_panics() {
        Framebuffer::new(65_535, 65_535, Color::BLACK);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_panics() {
        Framebuffer::new(0, 10, Color::BLACK);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn write_rect_bad_len_panics() {
        let mut fb = Framebuffer::new(4, 4, Color::BLACK);
        fb.write_rect(Rect::new(0, 0, 2, 2), &[Color::RED]);
    }
}

#[cfg(test)]
mod journal_tests {
    use super::*;

    #[test]
    fn changes_since_reports_every_mutator() {
        let mut fb = Framebuffer::new(8, 8, Color::BLACK);
        let mut other = Framebuffer::new(4, 4, Color::RED);
        let seen = fb.stamp();
        fb.set_pixel(Point::new(1, 1), Color::RED);
        fb.write_rect(Rect::new(6, 6, 4, 1), &[Color::BLUE; 4]);
        fb.fill_rect(Rect::new(-2, 2, 4, 2), Color::GREEN);
        fb.copy_rect(Rect::new(0, 0, 2, 2), Point::new(7, 3));
        fb.blit_from(&other, other.bounds(), Point::new(5, 0));
        fb.row_mut(4)[3] = Color::WHITE;
        fb.clear(Color::GRAY);
        assert_eq!(
            fb.changes_since(seen),
            Some(vec![
                Rect::new(1, 1, 1, 1),
                Rect::new(6, 6, 2, 1),
                Rect::new(0, 2, 2, 2),
                Rect::new(7, 3, 1, 2),
                Rect::new(5, 0, 3, 4),
                Rect::new(0, 4, 8, 1),
                Rect::new(0, 0, 8, 8),
            ])
        );
        let now = fb.stamp();
        assert_eq!(fb.changes_since(now), Some(Vec::new()));
        other.fill_rect(other.bounds(), Color::BLACK);
        assert_eq!(fb.changes_since(now), Some(Vec::new()), "own journal only");
    }

    #[test]
    fn rect_mut_writes_in_place_and_journals_once() {
        let mut fb = Framebuffer::new(8, 6, Color::BLACK);
        fb.take_damage();
        let seen = fb.stamp();
        let rect = Rect::new(3, 1, 4, 3);
        let mut view = fb.rect_mut(rect).expect("inside");
        assert_eq!((view.width(), view.height()), (4, 3));
        view.fill(Rect::new(0, 0, 4, 3), Color::BLUE);
        view.fill(Rect::new(1, 1, 2, 2), Color::RED);
        view.row(0)[3] = Color::GREEN;
        // Empty rects write nothing, even where a row would be out of range.
        view.fill(Rect::new(0, 100, 0, 1), Color::WHITE);
        view.fill(Rect::new(1000, 0, 0, 3), Color::WHITE);
        let mut want = Framebuffer::new(8, 6, Color::BLACK);
        want.fill_rect(rect, Color::BLUE);
        want.fill_rect(Rect::new(4, 2, 2, 2), Color::RED);
        want.set_pixel(Point::new(6, 1), Color::GREEN);
        assert_eq!(fb, want);
        assert_eq!(fb.changes_since(seen), Some(vec![rect]));
        assert_eq!(fb.damage().bounding_rect(), rect);
    }

    #[test]
    fn rect_mut_refuses_rects_outside_the_frame() {
        let mut fb = Framebuffer::new(8, 6, Color::BLACK);
        fb.take_damage();
        let seen = fb.stamp();
        for rect in [
            Rect::new(5, 0, 4, 1),
            Rect::new(0, 5, 1, 2),
            Rect::new(-1, 0, 2, 2),
            Rect::new(0, -1, 2, 2),
            Rect::new(8, 0, 1, 1),
            Rect::new(1, 0, u32::MAX, 1),
        ] {
            assert!(fb.rect_mut(rect).is_none(), "{rect:?}");
        }
        let empty = fb.rect_mut(Rect::new(100, 100, 0, 3)).expect("empty fits");
        assert_eq!((empty.width(), empty.height()), (0, 3));
        assert!(fb.rect_mut(fb.bounds()).is_some());
        assert_eq!(fb.changes_since(seen), Some(vec![fb.bounds()]));
    }

    #[test]
    fn packed_rect_is_row_major() {
        let mut px = [Color::BLACK; 6];
        let mut view = RectMut::packed(&mut px, 3, 2);
        view.fill(Rect::new(1, 0, 2, 2), Color::WHITE);
        view.row(1)[2] = Color::RED;
        assert_eq!(
            px,
            [
                Color::BLACK,
                Color::WHITE,
                Color::WHITE,
                Color::BLACK,
                Color::WHITE,
                Color::RED
            ]
        );
    }

    #[test]
    fn rows_of_a_frame_rect_skip_the_gaps() {
        let mut fb = Framebuffer::new(5, 4, Color::BLACK);
        let mut view = fb.rect_mut(Rect::new(1, 1, 3, 2)).expect("inside");
        assert_eq!(view.rows_mut().len(), 2);
        for (y, row) in view.rows_mut().enumerate() {
            assert_eq!(row.len(), 3);
            row.fill(Color::gray(y as u8 + 1));
        }
        let mut want = Framebuffer::new(5, 4, Color::BLACK);
        want.fill_rect(Rect::new(1, 1, 3, 1), Color::gray(1));
        want.fill_rect(Rect::new(1, 2, 3, 1), Color::gray(2));
        assert_eq!(fb.read_rect(fb.bounds()), want.read_rect(want.bounds()));
        let mut none = fb.rect_mut(Rect::new(1, 1, 0, 3)).expect("inside");
        assert_eq!(none.rows_mut().len(), 0);
    }

    #[test]
    fn same_color_set_pixel_logs_nothing() {
        let mut fb = Framebuffer::new(4, 4, Color::BLACK);
        let seen = fb.stamp();
        fb.set_pixel(Point::new(2, 2), Color::BLACK);
        fb.set_pixel(Point::new(9, 9), Color::RED);
        assert_eq!(fb.changes_since(seen), Some(Vec::new()));
        assert_eq!(fb.stamp(), seen);
    }

    #[test]
    fn clone_has_its_own_id() {
        let mut fb = Framebuffer::new(4, 4, Color::BLACK);
        fb.fill_rect(Rect::new(0, 0, 2, 2), Color::RED);
        let seen = fb.stamp();
        let copy = fb.clone();
        assert_eq!(copy.changes_since(seen), None);
        assert_eq!(fb.changes_since(copy.stamp()), None);
        assert_eq!(fb.changes_since(seen), Some(Vec::new()));
    }

    #[test]
    fn stamp_older_than_the_journal_gets_none() {
        let mut fb = Framebuffer::new(4, 4, Color::BLACK);
        let oldest = fb.stamp();
        fb.fill_rect(Rect::new(0, 0, 1, 1), Color::RED);
        let last_kept = fb.stamp();
        for i in 0..JOURNAL_CAPACITY {
            fb.fill_rect(Rect::new(i as i32 % 4, 0, 1, 1), Color::BLUE);
        }
        assert_eq!(fb.changes_since(oldest), None);
        let changes = fb.changes_since(last_kept).expect("within the journal");
        assert_eq!(changes.len(), JOURNAL_CAPACITY);
    }

    #[test]
    fn equality_and_digest_ignore_the_journal() {
        let mut a = Framebuffer::new(6, 4, Color::BLACK);
        let mut b = a.clone();
        a.fill_rect(Rect::new(0, 0, 2, 2), Color::RED);
        a.fill_rect(Rect::new(0, 0, 2, 2), Color::BLACK);
        b.take_damage();
        assert_ne!(a.stamp(), b.stamp());
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(format!("{a:?}"), format!("{:?}", a.clone()));
    }
}

#[cfg(test)]
mod diff_tests {
    use super::*;

    #[test]
    fn identical_frames_diff_empty() {
        let a = Framebuffer::new(8, 8, Color::GRAY);
        let b = a.clone();
        assert!(a.diff_region(&b).is_empty());
    }

    #[test]
    fn single_pixel_diff() {
        let a = Framebuffer::new(8, 8, Color::GRAY);
        let mut b = a.clone();
        b.set_pixel(Point::new(3, 5), Color::RED);
        let d = a.diff_region(&b);
        assert_eq!(d.area(), 1);
        assert!(d.contains(Point::new(3, 5)));
    }

    #[test]
    fn horizontal_runs_coalesce() {
        let a = Framebuffer::new(16, 4, Color::BLACK);
        let mut b = a.clone();
        b.fill_rect(Rect::new(2, 1, 10, 2), Color::WHITE);
        let d = a.diff_region(&b);
        assert_eq!(d.area(), 20);
        assert_eq!(d.bounding_rect(), Rect::new(2, 1, 10, 2));
        // Vertical merging keeps the representation compact.
        assert!(d.rect_count() <= 2, "{}", d.rect_count());
    }

    #[test]
    fn diff_is_symmetric_in_coverage() {
        let a = Framebuffer::new(10, 10, Color::BLACK);
        let mut b = a.clone();
        b.fill_rect(Rect::new(0, 0, 3, 3), Color::BLUE);
        b.fill_rect(Rect::new(7, 7, 3, 3), Color::RED);
        let d1 = a.diff_region(&b);
        let d2 = b.diff_region(&a);
        assert_eq!(d1.area(), d2.area());
        assert_eq!(d1.bounding_rect(), d2.bounding_rect());
    }

    #[test]
    fn vertically_aligned_runs_merge_into_bands() {
        // Same columns differ on every row → one tall band per column.
        let a = Framebuffer::new(8, 6, Color::BLACK);
        let mut b = a.clone();
        for y in 0..6 {
            b.set_pixel(Point::new(2, y), Color::RED);
            b.set_pixel(Point::new(5, y), Color::RED);
        }
        let d = a.diff_region(&b);
        assert_eq!(d.area(), 12);
        assert_eq!(d.rect_count(), 2, "{:?}", d.rects());
    }

    #[test]
    fn dense_noise_diff_stays_linear() {
        // A dithered-noise diff: every other pixel differs, offset by row
        // parity so no vertical merging applies — ~21k one-pixel runs.
        // This once went through `Region::add`, whose quadratic insert
        // (plus cubic coalesce) made a 240×180 diff effectively hang;
        // the scanline builder must handle it instantly and exactly.
        let (w, h) = (240u32, 180u32);
        let a = Framebuffer::new(w, h, Color::BLACK);
        let mut b = a.clone();
        for y in 0..h as i32 {
            let mut x = y % 2;
            while x < w as i32 {
                b.set_pixel(Point::new(x, y), Color::WHITE);
                x += 2;
            }
        }
        let d = a.diff_region(&b);
        assert_eq!(d.area(), (w as u64 * h as u64).div_ceil(2));
        for p in [Point::new(0, 0), Point::new(239, 179)] {
            assert_eq!(d.contains(p), a.pixel(p) != b.pixel(p), "pixel {p}");
        }
    }

    /// The band builder as it was, with a hash map from each open run's
    /// span to its band: the reference `RowDiff` must reproduce.
    fn hashed_runs(rects: &mut Vec<Rect>, area: Rect, rows: &[(&[Color], &[Color])]) {
        let mut prev_open: std::collections::HashMap<(i32, usize), usize> =
            std::collections::HashMap::new();
        for (&(a, b), y) in rows.iter().zip(area.y..) {
            let mut cur_open = std::collections::HashMap::new();
            let mut x = 0usize;
            while x < a.len() {
                if a[x] == b[x] {
                    x += 1;
                    continue;
                }
                let start = x;
                while x < a.len() && a[x] != b[x] {
                    x += 1;
                }
                let key = (area.x + start as i32, x - start);
                if let Some(&idx) = prev_open.get(&key) {
                    let r: Rect = rects[idx];
                    if r.bottom() == y {
                        rects[idx] = Rect::new(r.x, r.y, r.w, r.h + 1);
                        cur_open.insert(key, idx);
                        continue;
                    }
                }
                rects.push(Rect::new(key.0, y, key.1 as u32, 1));
                cur_open.insert(key, rects.len() - 1);
            }
            prev_open = cur_open;
        }
    }

    /// A 1-bit error-diffused ramp, so neighbouring rows share some runs.
    fn dithered(w: u32, h: u32, seed: u32) -> Framebuffer {
        let mut fb = Framebuffer::new(w, h, Color::BLACK);
        let mut err = vec![0i32; w as usize + 1];
        for y in 0..h {
            for (x, p) in fb.row_mut(y).iter_mut().enumerate() {
                let v = ((x as u32 * 7 + y * seed) % 256) as i32 + err[x];
                let out = if v >= 128 { 255 } else { 0 };
                err[x + 1] += (v - out) / 2;
                err[x] = (v - out) / 2;
                *p = Color::gray(out as u8);
            }
        }
        fb
    }

    #[test]
    fn row_diff_matches_the_hashed_band_builder() {
        let (w, h) = (96u32, 40u32);
        let a = dithered(w, h, 3);
        let mut b = dithered(w, h, 5);
        // Columns that differ all the way down merge into tall bands.
        for y in 0..h as i32 {
            for x in [10, 11, 12, 50] {
                let c = a.pixel(Point::new(x, y)).unwrap();
                b.set_pixel(Point::new(x, y), Color::rgb(!c.r, c.g, c.b));
            }
        }
        // Two areas side by side and one below, each its own band set.
        let areas = [
            Rect::new(0, 0, 48, 20),
            Rect::new(48, 0, 48, 20),
            Rect::new(0, 20, 96, 20),
        ];
        let mut want = Vec::new();
        let mut diff = RowDiff::default();
        for r in areas {
            let cols = r.x as usize..r.right() as usize;
            let rows: Vec<_> = (r.y as u32..r.bottom() as u32)
                .map(|y| (&b.row(y)[cols.clone()], &a.row(y)[cols.clone()]))
                .collect();
            hashed_runs(&mut want, r, &rows);
            diff.restart();
            for (&(now, before), y) in rows.iter().zip(r.y as u32..) {
                diff.push(r.x as u32, y, now, before);
            }
        }
        assert!(want.iter().any(|r| r.h > 2), "no band merged: {want:?}");
        assert!(want.len() > 200, "too few runs: {}", want.len());
        assert_eq!(diff.into_region().rects(), &want[..]);
        let mut whole = Vec::new();
        let rows: Vec<_> = (0..h).map(|y| (b.row(y), a.row(y))).collect();
        hashed_runs(&mut whole, b.bounds(), &rows);
        assert_eq!(b.diff_region(&a).rects(), &whole[..]);
    }

    #[test]
    #[should_panic(expected = "equal sizes")]
    fn size_mismatch_panics() {
        let a = Framebuffer::new(4, 4, Color::BLACK);
        let b = Framebuffer::new(5, 4, Color::BLACK);
        let _ = a.diff_region(&b);
    }
}
