//! A 2-D region maintained as a set of disjoint rectangles.
//!
//! Regions are the damage-tracking currency of the window system and the
//! UniInt server: widgets damage regions, the server turns damage into
//! framebuffer-update rectangles. The representation keeps rectangles
//! disjoint at all times and coalesces adjacent bands opportunistically,
//! mirroring the classic X server region code (in spirit, not in layout).

use crate::geom::{Point, Rect};

/// A set of pixels represented as disjoint rectangles.
///
/// ```
/// use uniint_raster::geom::Rect;
/// use uniint_raster::region::Region;
/// let mut r = Region::new();
/// r.add(Rect::new(0, 0, 10, 10));
/// r.add(Rect::new(5, 5, 10, 10));
/// assert_eq!(r.area(), 175);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Region {
    rects: Vec<Rect>,
}

impl Region {
    /// Creates an empty region.
    pub fn new() -> Self {
        Region { rects: Vec::new() }
    }

    /// Creates a region covering a single rectangle.
    pub fn from_rect(r: Rect) -> Self {
        let mut reg = Region::new();
        reg.add(r);
        reg
    }

    /// True when the region covers no pixels.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Total number of pixels covered.
    pub fn area(&self) -> u64 {
        self.rects.iter().map(|r| r.area()).sum()
    }

    /// Number of disjoint rectangles in the representation.
    pub fn rect_count(&self) -> usize {
        self.rects.len()
    }

    /// The disjoint rectangles making up the region.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Iterates over the disjoint rectangles.
    pub fn iter(&self) -> core::slice::Iter<'_, Rect> {
        self.rects.iter()
    }

    /// Smallest rectangle covering the whole region.
    pub fn bounding_rect(&self) -> Rect {
        self.rects.iter().fold(Rect::EMPTY, |acc, r| acc.union(*r))
    }

    /// Whether `p` is covered.
    pub fn contains(&self, p: Point) -> bool {
        self.rects.iter().any(|r| r.contains(p))
    }

    /// Adds a rectangle to the region (set union with one rectangle).
    ///
    /// Keeps the invariant that stored rectangles are pairwise disjoint by
    /// inserting only the parts of `rect` not already covered.
    pub fn add(&mut self, rect: Rect) {
        if rect.is_empty() {
            return;
        }
        let mut meets = false;
        for r in &self.rects {
            // Fully covered already.
            if r.contains_rect(rect) {
                return;
            }
            meets |= r.intersects(rect);
        }
        // Meeting no stored rect, it is added whole.
        if !meets {
            self.rects.push(rect);
            self.coalesce();
            return;
        }
        let mut pending = vec![rect];
        for existing in &self.rects {
            let mut next = Vec::with_capacity(pending.len());
            for p in pending {
                subtract_rect(p, *existing, &mut next);
            }
            pending = next;
            if pending.is_empty() {
                return;
            }
        }
        self.rects.extend(pending);
        self.coalesce();
    }

    /// Set union with another region.
    pub fn union_with(&mut self, other: &Region) {
        for r in &other.rects {
            self.add(*r);
        }
    }

    /// Removes a rectangle from the region (set difference).
    pub fn subtract(&mut self, rect: Rect) {
        if rect.is_empty() || self.rects.is_empty() {
            return;
        }
        let mut out = Vec::with_capacity(self.rects.len());
        for r in &self.rects {
            subtract_rect(*r, rect, &mut out);
        }
        self.rects = out;
    }

    /// Intersects the region with a rectangle (clipping).
    pub fn intersect_rect(&mut self, rect: Rect) {
        self.rects = self
            .rects
            .iter()
            .filter_map(|r| r.intersect(rect))
            .collect();
    }

    /// Returns the intersection of two regions as a new region.
    pub fn intersection(&self, other: &Region) -> Region {
        let mut out = Region::new();
        for a in &self.rects {
            for b in &other.rects {
                if let Some(i) = a.intersect(*b) {
                    out.add(i);
                }
            }
        }
        out
    }

    /// Translates the whole region.
    pub fn translate(&mut self, dx: i32, dy: i32) {
        for r in &mut self.rects {
            *r = r.translate(dx, dy);
        }
    }

    /// Empties the region.
    pub fn clear(&mut self) {
        self.rects.clear();
    }

    /// Drains the region, returning its rectangles and leaving it empty.
    pub fn take(&mut self) -> Vec<Rect> {
        core::mem::take(&mut self.rects)
    }

    /// Builds a region from rectangles the caller guarantees are pairwise
    /// disjoint, skipping the subtract/coalesce machinery of [`add`].
    ///
    /// [`add`] costs O(existing rects) per insertion, which turns
    /// quadratic (plus a cubic coalesce) when tens of thousands of tiny
    /// rects arrive — e.g. a framebuffer diff of dithered noise. Bulk
    /// construction from known-disjoint rects is linear instead.
    ///
    /// [`add`]: Self::add
    pub(crate) fn from_disjoint_rects(rects: Vec<Rect>) -> Region {
        // Checking disjointness is quadratic, so debug builds only verify
        // inputs small enough not to reintroduce the very blowup this
        // constructor exists to avoid.
        debug_assert!(
            rects.len() > 256
                || rects
                    .iter()
                    .enumerate()
                    .all(|(i, a)| rects[i + 1..].iter().all(|b| a.intersect(*b).is_none())),
            "from_disjoint_rects requires pairwise disjoint input"
        );
        Region {
            rects: rects.into_iter().filter(|r| !r.is_empty()).collect(),
        }
    }

    /// Merge pairs of rectangles that tile exactly (share a full edge).
    /// Keeps the representation compact after many small `add`s; purely an
    /// optimization, the covered pixel set is unchanged.
    fn coalesce(&mut self) {
        let mut merged = true;
        while merged && self.rects.len() > 1 {
            merged = false;
            'outer: for i in 0..self.rects.len() {
                for j in (i + 1)..self.rects.len() {
                    if let Some(m) = merge_exact(self.rects[i], self.rects[j]) {
                        self.rects[i] = m;
                        self.rects.swap_remove(j);
                        merged = true;
                        break 'outer;
                    }
                }
            }
        }
    }
}

impl FromIterator<Rect> for Region {
    fn from_iter<T: IntoIterator<Item = Rect>>(iter: T) -> Self {
        let mut reg = Region::new();
        for r in iter {
            reg.add(r);
        }
        reg
    }
}

impl Extend<Rect> for Region {
    fn extend<T: IntoIterator<Item = Rect>>(&mut self, iter: T) {
        for r in iter {
            self.add(r);
        }
    }
}

impl<'a> IntoIterator for &'a Region {
    type Item = &'a Rect;
    type IntoIter = core::slice::Iter<'a, Rect>;
    fn into_iter(self) -> Self::IntoIter {
        self.rects.iter()
    }
}

/// Pushes the parts of `a` not covered by `b` onto `out` (up to 4 pieces).
fn subtract_rect(a: Rect, b: Rect, out: &mut Vec<Rect>) {
    let Some(i) = a.intersect(b) else {
        out.push(a);
        return;
    };
    // Top band.
    if i.y > a.y {
        out.push(Rect::new(a.x, a.y, a.w, (i.y - a.y) as u32));
    }
    // Bottom band.
    if i.bottom() < a.bottom() {
        out.push(Rect::new(
            a.x,
            i.bottom(),
            a.w,
            (a.bottom() - i.bottom()) as u32,
        ));
    }
    // Left band (within i's vertical extent).
    if i.x > a.x {
        out.push(Rect::new(a.x, i.y, (i.x - a.x) as u32, i.h));
    }
    // Right band.
    if i.right() < a.right() {
        out.push(Rect::new(
            i.right(),
            i.y,
            (a.right() - i.right()) as u32,
            i.h,
        ));
    }
}

/// If `a` and `b` tile exactly into a rectangle, returns it.
fn merge_exact(a: Rect, b: Rect) -> Option<Rect> {
    if a.y == b.y && a.h == b.h {
        if a.right() == b.x {
            return Some(Rect::new(a.x, a.y, a.w + b.w, a.h));
        }
        if b.right() == a.x {
            return Some(Rect::new(b.x, b.y, a.w + b.w, a.h));
        }
    }
    if a.x == b.x && a.w == b.w {
        if a.bottom() == b.y {
            return Some(Rect::new(a.x, a.y, a.w, a.h + b.h));
        }
        if b.bottom() == a.y {
            return Some(Rect::new(b.x, b.y, a.w, a.h + b.h));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_disjoint(reg: &Region) {
        let rs = reg.rects();
        for i in 0..rs.len() {
            for j in (i + 1)..rs.len() {
                assert!(
                    !rs[i].intersects(rs[j]),
                    "rects {} and {} overlap",
                    rs[i],
                    rs[j]
                );
            }
        }
    }

    #[test]
    fn empty_region() {
        let r = Region::new();
        assert!(r.is_empty());
        assert_eq!(r.area(), 0);
        assert_eq!(r.bounding_rect(), Rect::EMPTY);
    }

    #[test]
    fn add_disjoint_rects() {
        let mut r = Region::new();
        r.add(Rect::new(0, 0, 5, 5));
        r.add(Rect::new(10, 10, 5, 5));
        assert_eq!(r.area(), 50);
        assert_disjoint(&r);
    }

    #[test]
    fn add_overlapping_counts_once() {
        let mut r = Region::new();
        r.add(Rect::new(0, 0, 10, 10));
        r.add(Rect::new(5, 5, 10, 10));
        assert_eq!(r.area(), 175);
        assert_disjoint(&r);
    }

    #[test]
    fn add_contained_is_noop() {
        let mut r = Region::new();
        r.add(Rect::new(0, 0, 10, 10));
        r.add(Rect::new(2, 2, 3, 3));
        assert_eq!(r.area(), 100);
        assert_eq!(r.rect_count(), 1);
    }

    #[test]
    fn adjacent_rects_coalesce() {
        let mut r = Region::new();
        r.add(Rect::new(0, 0, 5, 10));
        r.add(Rect::new(5, 0, 5, 10));
        assert_eq!(r.rect_count(), 1);
        assert_eq!(r.bounding_rect(), Rect::new(0, 0, 10, 10));
    }

    #[test]
    fn subtract_center_leaves_frame() {
        let mut r = Region::from_rect(Rect::new(0, 0, 10, 10));
        r.subtract(Rect::new(2, 2, 6, 6));
        assert_eq!(r.area(), 100 - 36);
        assert_disjoint(&r);
        assert!(!r.contains(Point::new(5, 5)));
        assert!(r.contains(Point::new(0, 0)));
        assert!(r.contains(Point::new(9, 9)));
    }

    #[test]
    fn subtract_everything() {
        let mut r = Region::from_rect(Rect::new(0, 0, 10, 10));
        r.subtract(Rect::new(-1, -1, 20, 20));
        assert!(r.is_empty());
    }

    #[test]
    fn intersect_rect_clips() {
        let mut r = Region::new();
        r.add(Rect::new(0, 0, 10, 10));
        r.add(Rect::new(20, 20, 10, 10));
        r.intersect_rect(Rect::new(5, 5, 20, 20));
        assert_eq!(r.area(), 25 + 25);
        assert_disjoint(&r);
    }

    #[test]
    fn intersection_of_regions() {
        let a = Region::from_rect(Rect::new(0, 0, 10, 10));
        let b = Region::from_rect(Rect::new(5, 5, 10, 10));
        let i = a.intersection(&b);
        assert_eq!(i.area(), 25);
    }

    #[test]
    fn translate_moves_all() {
        let mut r = Region::from_rect(Rect::new(0, 0, 4, 4));
        r.translate(10, 20);
        assert!(r.contains(Point::new(10, 20)));
        assert!(!r.contains(Point::new(0, 0)));
    }

    #[test]
    fn union_with_other_region() {
        let mut a = Region::from_rect(Rect::new(0, 0, 4, 4));
        let b = Region::from_rect(Rect::new(2, 2, 4, 4));
        a.union_with(&b);
        assert_eq!(a.area(), 16 + 16 - 4);
        assert_disjoint(&a);
    }

    #[test]
    fn take_empties() {
        let mut r = Region::from_rect(Rect::new(0, 0, 2, 2));
        let rects = r.take();
        assert_eq!(rects.len(), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn from_iterator() {
        let r: Region = [Rect::new(0, 0, 2, 2), Rect::new(4, 0, 2, 2)]
            .into_iter()
            .collect();
        assert_eq!(r.area(), 8);
    }

    #[test]
    fn subtract_rect_pieces_cover_difference() {
        let a = Rect::new(0, 0, 8, 8);
        let b = Rect::new(3, 3, 2, 2);
        let mut out = Vec::new();
        subtract_rect(a, b, &mut out);
        let total: u64 = out.iter().map(|r| r.area()).sum();
        assert_eq!(total, 64 - 4);
        for p in a.pixels() {
            let in_pieces = out.iter().any(|r| r.contains(p));
            assert_eq!(in_pieces, !b.contains(p), "pixel {p}");
        }
    }
}
