//! The software framebuffer: canonical 24-bit RGB pixels plus damage
//! tracking.
//!
//! The window system renders into a [`Framebuffer`]; the UniInt server
//! drains its [`Region`] of accumulated damage to decide which rectangles
//! to re-encode and ship to the proxy.
//!
//! Damage is what was written, and the window system repaints whole
//! widgets, so most damaged pixels keep their colour. The first write to
//! each piece of the frame after a drain keeps that piece's old pixels
//! (its pre-image), and [`drain`](Framebuffer::drain) compares them with
//! the pixels now, while they are still in cache, to return the part of
//! the damage that changed ([`Drained`]).
//!
//! Independently of damage, every framebuffer keeps a short journal of
//! the rects its mutators wrote, under an id no other framebuffer shares.
//! A reader that adapts the same frame again and again (the proxy's
//! output plug-ins) keeps a [`Stamp`] and asks
//! [`changes_since`](Framebuffer::changes_since) what was written after
//! it, so that it re-adapts only what those rects reach. Draining damage
//! does not touch the journal, so the server and the plug-ins never
//! disturb each other.

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

/// What one more rect in an update costs, in pixels that did not change:
/// its 13-byte header on the wire, and the fixed work of analysing,
/// encoding, decoding and rescaling it. [`Framebuffer::drain`] bridges a
/// gap between changed runs when the gap has fewer pixels than this.
///
/// A constant of the cost model, measured: swept from 0 to 128 on
/// perfbench's `fanout` and `device_mix` panels (seed 7), 12 sent the
/// fewest bytes per interaction on `fanout` and within 1 % of the fewest
/// on `device_mix`. Larger prices bridge unchanged text, which costs more
/// bytes than the rect headers they save.
pub const RECT_PRICE: u64 = 12;

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
    /// The damage's pixels as they were at the last drain.
    pre: PreImage,
}

/// The pixels the damage had at the last drain, for [`Framebuffer::drain`]
/// to compare with.
///
/// The damage is kept as disjoint pieces: the parts each write or
/// [`add_damage`](Framebuffer::add_damage) added to it, as
/// [`Region::add`] finds them. A write keeps the old pixels of the piece
/// it adds, before it stores; a piece of marked damage has none and
/// counts as changed whole.
#[derive(Debug, Clone, Default)]
struct PreImage {
    /// The pieces, each with the offset in `pixels` of its old pixels,
    /// row-major, or `None`.
    pieces: Vec<(Rect, Option<usize>)>,
    pixels: Vec<Color>,
    /// The drain's scratch, kept from drain to drain (boxed: a frame is
    /// held by value in enums).
    bands: Box<Bands>,
}

impl PreImage {
    /// Pieces for a frame whose damage is `whole`, with no old pixels.
    fn unknown(whole: Rect) -> PreImage {
        PreImage {
            pieces: vec![(whole, None)],
            ..PreImage::default()
        }
    }

    /// Keeps the pixels of `piece` in `frame`, rows `stride` apart.
    fn keep(&mut self, piece: Rect, frame: &[Color], stride: usize) {
        let at = self.pixels.len();
        let (x, w) = (piece.x as usize, piece.w as usize);
        for y in piece.y as usize..piece.bottom() as usize {
            let start = y * stride + x;
            self.pixels.extend_from_slice(&frame[start..start + w]);
        }
        self.pieces.push((piece, Some(at)));
    }

    fn clear(&mut self) {
        self.pieces.clear();
        self.pixels.clear();
    }
}

/// What [`Framebuffer::drain`] took out of a frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Drained {
    /// Every pixel written since the last drain: the region
    /// [`take_damage`](Framebuffer::take_damage) returns.
    pub written: Region,
    /// The part of `written` that covers every pixel now different from
    /// what it was at the last drain, in disjoint rects.
    pub changed: Region,
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
            pre: PreImage::unknown(Rect::new(0, 0, width, height)),
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
            let px = Rect::new(p.x, p.y, 1, 1);
            self.damage_write(px);
            self.pixels[idx] = c;
            self.log(px);
        }
    }

    /// Adds `rect`, inside the frame, to the damage before it is
    /// written: the part no damage covered yet keeps its pixels as they
    /// are now.
    fn damage_write(&mut self, rect: Rect) {
        let Framebuffer {
            width,
            pixels,
            damage,
            pre,
            ..
        } = self;
        damage.add_with(rect, |piece| pre.keep(piece, pixels, *width as usize));
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
    /// whole row as written. On a frame whose damage is drained, mark
    /// what it wrote with [`add_damage`](Self::add_damage).
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
        self.damage_write(clipped);
        for y in clipped.y..clipped.bottom() {
            let src_row = (y - rect.y) as usize * rect.w as usize + (clipped.x - rect.x) as usize;
            let dst = (y as u32 * self.width + clipped.x as u32) as usize;
            self.pixels[dst..dst + clipped.w as usize]
                .copy_from_slice(&data[src_row..src_row + clipped.w as usize]);
        }
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
        self.damage_write(rect);
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

    /// Fills `rect` (clipped) with `c`, through [`RectMut::fill`]. Records
    /// damage and journals the clipped rect.
    pub fn fill_rect(&mut self, rect: Rect, c: Color) {
        let clipped = rect.intersect(self.bounds());
        let Some(mut view) = clipped.and_then(|r| self.rect_mut(r)) else {
            return;
        };
        view.fill(view.bounds(), c);
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
    /// writer mutates the raster through `write_rect`-free paths). Its
    /// pixels count as changed at the next [`drain`](Self::drain), and so
    /// does all of any damage written before that meets it.
    pub fn add_damage(&mut self, rect: Rect) {
        let Some(clipped) = rect.intersect(self.bounds()) else {
            return;
        };
        let Framebuffer { damage, pre, .. } = self;
        for (piece, old) in &mut pre.pieces {
            if piece.intersects(clipped) {
                *old = None;
            }
        }
        damage.add_with(clipped, |piece| pre.pieces.push((piece, None)));
    }

    /// Drains and returns the damage accumulated since the last call.
    pub fn take_damage(&mut self) -> Region {
        self.pre.clear();
        core::mem::take(&mut self.damage)
    }

    /// Drains the damage, as [`take_damage`](Self::take_damage) does, and
    /// narrows it to what changed since the last drain.
    ///
    /// Each piece of the damage is compared with its pre-image one row at
    /// a time, 16 pixels at a time, so a run of changes ends only where
    /// 16 pixels, aligned from the piece's left edge, are all equal. The
    /// runs of consecutive rows are gathered into bands of equal column
    /// spans. A band grows by a row, and spans side by side become one,
    /// whenever the pixels that adds cost no more than the rects it
    /// saves, at [`RECT_PRICE`] pixels a rect; the rects of each piece
    /// stay inside it. Marked damage, and a frame's first damage, count
    /// as changed whole.
    ///
    /// ```
    /// use uniint_raster::framebuffer::Framebuffer;
    /// use uniint_raster::color::Color;
    /// use uniint_raster::geom::{Point, Rect};
    /// let mut fb = Framebuffer::new(64, 48, Color::BLACK);
    /// fb.drain();
    /// // A repaint of a 40×20 widget that changes one pixel.
    /// fb.fill_rect(Rect::new(8, 8, 40, 20), Color::BLACK);
    /// fb.set_pixel(Point::new(30, 12), Color::RED);
    /// let drained = fb.drain();
    /// assert_eq!(drained.written.rects(), &[Rect::new(8, 8, 40, 20)]);
    /// assert_eq!(drained.changed.rects(), &[Rect::new(30, 12, 1, 1)]);
    /// ```
    pub fn drain(&mut self) -> Drained {
        let written = core::mem::take(&mut self.damage);
        let mut changed = Vec::new();
        let stride = self.width as usize;
        let PreImage {
            pieces,
            pixels,
            bands,
        } = &mut self.pre;
        for &(piece, old) in pieces.iter() {
            let Some(at) = old else {
                changed.push(piece);
                continue;
            };
            let old = &pixels[at..at + piece.area() as usize];
            bands.narrow(&self.pixels, stride, piece, old, &mut changed);
        }
        self.pre.clear();
        Drained {
            written,
            changed: Region::from_disjoint_rects(changed),
        }
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
        assert!(
            self.bounds().contains_rect(rect),
            "fill {rect:?} outside {:?}",
            self.bounds()
        );
        let (x, w, h) = (rect.x as usize, rect.w as usize, rect.h as usize);
        let start = rect.y as usize * self.stride + x;
        if w < 4 {
            // Narrower than a block: a store per pixel, a column at a
            // time, is all it takes.
            for col in start..start + w {
                for p in self.pixels[col..].iter_mut().step_by(self.stride).take(h) {
                    *p = c;
                }
            }
            return;
        }
        // Opaque, so the optimizer copies the block whole instead of
        // splitting it back into a store per pixel.
        let block = std::hint::black_box([c; 4]);
        for row in (start..).step_by(self.stride).take(h) {
            fill_row(&mut self.pixels[row..row + w], &block);
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

/// The region where rows changed, built one row at a time: each row adds
/// its runs of differing pixels, left to right, and a run with the same
/// span as one on the row above extends that run's band downwards. The
/// runs are disjoint by construction, so the region is assembled directly
/// instead of via `Region::add`, whose per-insert subtract scan goes
/// quadratic on the tens of thousands of runs a dithered-noise diff
/// produces.
///
/// Output plug-ins [`replace`](Self::replace) each device row as they
/// rebuild it, so no copy of the old pixels is kept; a row that needs no
/// reduction is compared before it is copied ([`push`](Self::push)).
#[derive(Debug, Default)]
pub struct RowDiff {
    rects: Vec<Rect>,
    /// Indices in `rects` of the runs on the row added last, left to
    /// right: the bands the next row may extend.
    open: Vec<usize>,
    /// The same for the row being added.
    next: Vec<usize>,
    /// The runs of the row being added, as `start..end` offsets from its
    /// first pixel.
    runs: Vec<(u32, u32)>,
}

impl RowDiff {
    /// Closes every band: no run added from now on extends a run added
    /// before, even on the row below it.
    pub fn restart(&mut self) {
        self.open.clear();
    }

    /// Adds the runs where `now` and `before` (equally long) differ, the
    /// row starting at `(x, y)`, and returns whether there were any.
    /// Stretches without a difference are passed 16 pixels at a time.
    ///
    /// # Panics
    ///
    /// Panics if the rows differ in length.
    pub fn push(&mut self, x: u32, y: u32, now: &[Color], before: &[Color]) -> bool {
        assert_eq!(now.len(), before.len(), "diff rows differ in length");
        self.runs.clear();
        chunked_runs(&mut self.runs, now, before);
        self.add_runs(x, y);
        !self.runs.is_empty()
    }

    /// Writes `map(i, src[i])` over every `row[i]` and adds the runs where
    /// that changed the row, which starts at `(x, y)`: the runs
    /// [`push`](Self::push) adds for the row as it was and as it is,
    /// found in the pass that writes it. Each pixel is written whether or
    /// not it changed, so the loop branches only where a run starts or
    /// ends.
    ///
    /// # Panics
    ///
    /// Panics if the rows differ in length.
    #[inline]
    pub fn replace(
        &mut self,
        x: u32,
        y: u32,
        row: &mut [Color],
        src: &[Color],
        map: impl Fn(usize, Color) -> Color,
    ) {
        assert_eq!(row.len(), src.len(), "diff rows differ in length");
        self.runs.clear();
        let written = row.iter_mut().zip(src).enumerate().map(|(i, (old, &s))| {
            let new = map(i, s);
            let differs = *old != new;
            *old = new;
            differs
        });
        runs(&mut self.runs, written);
        self.add_runs(x, y);
    }

    /// Adds `self.runs`, found on the row starting at `(x, y)`.
    fn add_runs(&mut self, x: u32, y: u32) {
        self.next.clear();
        let (x, y) = (x as i32, y as i32);
        let mut above = self.open.iter().copied().peekable();
        for &(start, end) in &self.runs {
            let run = Rect::new(x + start as i32, y, end - start, 1);
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
        core::mem::swap(&mut self.open, &mut self.next);
    }

    /// The region of every run added.
    pub fn into_region(self) -> Region {
        Region::from_disjoint_rects(self.rects)
    }
}

/// How many pixels [`RowDiff::push`] and [`Framebuffer::drain`] compare
/// at a time.
const CHUNK: usize = 16;

/// Whether two chunks of pixels differ: every channel's difference OR-ed
/// into one byte. With the length known, the compiler does this many
/// pixels per instruction, where `==` compares a pixel at a time.
#[inline]
fn chunk_differs(now: &[Color; CHUNK], before: &[Color; CHUNK]) -> bool {
    let bits = now.iter().zip(before).fold(0, |acc, (p, q)| {
        acc | (p.r ^ q.r) | (p.g ^ q.g) | (p.b ^ q.b)
    });
    bits != 0
}

/// Whether two equally long rows differ: [`chunk_differs`] for a row
/// shorter than a chunk.
#[inline]
fn rest_differs(now: &[Color], before: &[Color]) -> bool {
    let bits = now.iter().zip(before).fold(0, |acc, (p, q)| {
        acc | (p.r ^ q.r) | (p.g ^ q.g) | (p.b ^ q.b)
    });
    bits != 0
}

/// Appends to `out` the runs where `now` and `before` (equally long)
/// differ, found a [`CHUNK`] at a time from the first pixel, as
/// `start..end` offsets, left to right: a run starts at the first pixel
/// that differs and ends after the last one before a chunk that is all
/// equal, so the gaps it spans are shorter than two chunks.
///
/// The chunks are compared 64 at a time into one bit each, in a pass
/// with no branch, so the compares overlap; only a run's first and last
/// chunk are then searched pixel by pixel.
#[inline]
fn chunk_runs(out: &mut Vec<(u32, u32)>, now: &[Color], before: &[Color]) {
    let len = now.len();
    let pairs = |from: usize, to: usize| now[from..to].iter().zip(&before[from..to]);
    // Closes the run that starts at `start` and whose last chunk starts
    // at `last`.
    let close = |out: &mut Vec<(u32, u32)>, start: usize, last: usize| {
        let to = (last + CHUNK).min(len);
        let back = pairs(last, to).rev().position(|(p, q)| p != q);
        out.push((start as u32, (to - back.expect("the chunk differs")) as u32));
    };
    // The open run: its first pixel, and where its last chunk starts.
    let mut open: Option<(usize, usize)> = None;
    for block in (0..len).step_by(64 * CHUNK) {
        let end = (block + 64 * CHUNK).min(len);
        let (now, before) = (&now[block..end], &before[block..end]);
        let mut flags = 0u64;
        let full = now.chunks_exact(CHUNK).zip(before.chunks_exact(CHUNK));
        for (i, (p, q)) in full.enumerate() {
            let p = p.try_into().expect("chunk");
            flags |= u64::from(chunk_differs(p, q.try_into().expect("chunk"))) << i;
        }
        let rest = now.len() / CHUNK * CHUNK;
        if rest < now.len() {
            flags |= u64::from(rest_differs(&now[rest..], &before[rest..])) << (rest / CHUNK);
        }
        if flags == 0 && open.is_none() {
            continue;
        }
        for (i, at) in (block..end).step_by(CHUNK).enumerate() {
            match (flags >> i & 1 == 1, open) {
                (true, None) => {
                    let skip = pairs(at, len).position(|(p, q)| p != q);
                    open = Some((at + skip.expect("the chunk differs"), at));
                }
                (true, Some((start, _))) => open = Some((start, at)),
                (false, Some((start, last))) => {
                    close(out, start, last);
                    open = None;
                }
                (false, None) => {}
            }
        }
    }
    if let Some((start, last)) = open {
        close(out, start, last);
    }
}

/// The bands [`Framebuffer::drain`] gathers the changed runs of one piece
/// into, with the scratch it reuses from piece to piece.
#[derive(Debug, Clone, Default)]
struct Bands {
    /// The open band's column spans, disjoint, left to right, as
    /// `start..end` offsets from the piece's left edge.
    spans: Vec<(u32, u32)>,
    /// Its first row, and how many rows it has.
    top: i32,
    height: u32,
    /// Rows without a change below the band since its last row.
    gap: u32,
    /// The runs of the row being added, then its spans.
    runs: Vec<(u32, u32)>,
    /// The band's spans if the row joins it.
    merged: Vec<(u32, u32)>,
}

impl Bands {
    /// Appends to `out` disjoint rects inside `piece` that cover every
    /// pixel where `frame` (rows `stride` apart) differs from `old`, the
    /// piece's pixels, row-major.
    fn narrow(
        &mut self,
        frame: &[Color],
        stride: usize,
        piece: Rect,
        old: &[Color],
        out: &mut Vec<Rect>,
    ) {
        self.spans.clear();
        self.height = 0;
        let (x, w) = (piece.x as usize, piece.w as usize);
        for (y, before) in (piece.y..piece.bottom()).zip(old.chunks_exact(w)) {
            let start = y as usize * stride + x;
            self.runs.clear();
            chunk_runs(&mut self.runs, &frame[start..start + w], before);
            if self.runs.is_empty() {
                self.gap += 1;
                continue;
            }
            bridge(&mut self.runs, 1);
            if !self.join() {
                self.close(piece.x, out);
                self.top = y;
                self.height = 1;
                core::mem::swap(&mut self.spans, &mut self.runs);
            }
            self.gap = 0;
        }
        self.close(piece.x, out);
    }

    /// Adds the row whose spans are `runs` to the open band, with the
    /// rows between, if that costs no more than starting a band of its
    /// own; returns whether it did.
    fn join(&mut self) -> bool {
        if self.height == 0 {
            return false;
        }
        if self.gap == 0 && self.spans == self.runs {
            self.height += 1;
            return true;
        }
        let height = self.height + self.gap + 1;
        self.merged.clear();
        let (mut a, mut b) = (self.spans.iter().peekable(), self.runs.iter().peekable());
        while let Some(&next) = match (a.peek(), b.peek()) {
            (Some(p), Some(q)) if q.0 < p.0 => b.next(),
            (Some(_), _) => a.next(),
            (None, _) => b.next(),
        } {
            match self.merged.last_mut() {
                Some(last) if next.0 <= last.1 => last.1 = last.1.max(next.1),
                _ => self.merged.push(next),
            }
        }
        bridge(&mut self.merged, height);
        let cost = |spans: &[(u32, u32)], rows: u32| -> u64 {
            let px: u64 = spans.iter().map(|&(s, e)| (e - s) as u64).sum();
            px * rows as u64 + RECT_PRICE * spans.len() as u64
        };
        let joined = cost(&self.merged, height);
        let apart = cost(&self.spans, self.height) + cost(&self.runs, 1);
        if joined > apart {
            return false;
        }
        core::mem::swap(&mut self.spans, &mut self.merged);
        self.height = height;
        true
    }

    /// Appends the open band's rects, in the piece whose left edge is
    /// `x`, to `out`, and closes it.
    fn close(&mut self, x: i32, out: &mut Vec<Rect>) {
        if self.height > 0 {
            let rect = |&(s, e): &(u32, u32)| Rect::new(x + s as i32, self.top, e - s, self.height);
            out.extend(self.spans.iter().map(rect));
        }
        self.spans.clear();
        self.height = 0;
        self.gap = 0;
    }
}

/// Joins neighbouring `spans` (disjoint, left to right) of bands `rows`
/// high when the pixels between them cost less than a rect.
#[inline]
fn bridge(spans: &mut Vec<(u32, u32)>, rows: u32) {
    spans.dedup_by(|next, last| {
        let joins = ((next.0 - last.1) as u64) * (rows as u64) < RECT_PRICE;
        if joins {
            last.1 = next.1;
        }
        joins
    });
}

/// Appends to `out` the maximal runs where `now` and `before` (equally
/// long) differ, as `start..end` offsets, left to right. Between runs,
/// the rows are compared a [`CHUNK`] at a time while whole chunks are
/// equal, and the chunk that ends the row stands for a shorter rest; a
/// chunk that differs is searched pixel by pixel for where the run
/// starts, and on for where it ends.
#[inline]
fn chunked_runs(out: &mut Vec<(u32, u32)>, now: &[Color], before: &[Color]) {
    let len = now.len();
    let chunk = |at: usize| {
        let now = now[at..at + CHUNK].try_into().expect("chunk");
        chunk_differs(now, before[at..at + CHUNK].try_into().expect("chunk"))
    };
    let mut at = 0;
    loop {
        while at + CHUNK <= len && !chunk(at) {
            at += CHUNK;
        }
        // Fewer than a chunk left: the last chunk holds them all.
        if at + CHUNK > len && len >= CHUNK && !chunk(len - CHUNK) {
            return;
        }
        let pairs = |from: usize| now[from..].iter().zip(&before[from..]);
        let Some(skip) = pairs(at).position(|(p, q)| p != q) else {
            return;
        };
        let start = at + skip;
        let end = pairs(start + 1)
            .position(|(p, q)| p == q)
            .map_or(len, |n| start + 1 + n);
        out.push((start as u32, end as u32));
        // The pixel at `end`, if any, is equal.
        at = (end + 1).min(len);
    }
}

/// Appends to `out` the maximal runs of `true` in `differs`, as
/// `start..end` offsets, left to right. Each item is taken once, in
/// order: a search for the next `true`, then for the `false` that ends
/// its run.
#[inline]
fn runs(out: &mut Vec<(u32, u32)>, mut differs: impl ExactSizeIterator<Item = bool>) {
    let len = differs.len();
    let mut at = 0;
    while let Some(skip) = differs.position(|d| d) {
        let start = at + skip;
        // The item at `end`, if any, is equal and already taken.
        let end = differs.position(|d| !d).map_or(len, |n| start + 1 + n);
        out.push((start as u32, end as u32));
        at = end + 1;
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
            pre: self.pre.clone(),
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
