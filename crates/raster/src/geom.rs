//! Integer geometry primitives used throughout the workspace.
//!
//! All coordinates are in pixels. Rectangles are half-open: a [`Rect`]
//! covers `x..x+w` by `y..y+h`.

/// A point in pixel coordinates.
///
/// ```
/// use uniint_raster::geom::Point;
/// let p = Point::new(3, 4) + Point::new(1, 1);
/// assert_eq!(p, Point::new(4, 5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Point {
    /// Horizontal coordinate, growing rightwards.
    pub x: i32,
    /// Vertical coordinate, growing downwards.
    pub y: i32,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0, y: 0 };

    /// Creates a point.
    pub const fn new(x: i32, y: i32) -> Self {
        Point { x, y }
    }

    /// Component-wise offset.
    pub const fn offset(self, dx: i32, dy: i32) -> Self {
        Point::new(self.x + dx, self.y + dy)
    }

    /// Squared Euclidean distance to `other` (avoids floats).
    pub fn dist2(self, other: Point) -> i64 {
        let dx = (self.x - other.x) as i64;
        let dy = (self.y - other.y) as i64;
        dx * dx + dy * dy
    }
}

impl core::ops::Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl core::ops::Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl core::fmt::Display for Point {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(i32, i32)> for Point {
    fn from((x, y): (i32, i32)) -> Self {
        Point::new(x, y)
    }
}

/// A size in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Size {
    /// Width in pixels.
    pub w: u32,
    /// Height in pixels.
    pub h: u32,
}

impl Size {
    /// Zero-area size.
    pub const ZERO: Size = Size { w: 0, h: 0 };

    /// Creates a size.
    pub const fn new(w: u32, h: u32) -> Self {
        Size { w, h }
    }

    /// Number of pixels covered (`w * h`).
    pub const fn area(self) -> u64 {
        self.w as u64 * self.h as u64
    }

    /// True when either dimension is zero.
    pub const fn is_empty(self) -> bool {
        self.w == 0 || self.h == 0
    }
}

impl core::fmt::Display for Size {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}x{}", self.w, self.h)
    }
}

impl From<(u32, u32)> for Size {
    fn from((w, h): (u32, u32)) -> Self {
        Size::new(w, h)
    }
}

/// An axis-aligned rectangle, half-open on the right and bottom edges.
///
/// ```
/// use uniint_raster::geom::Rect;
/// let a = Rect::new(0, 0, 10, 10);
/// let b = Rect::new(5, 5, 10, 10);
/// assert_eq!(a.intersect(b), Some(Rect::new(5, 5, 5, 5)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    /// Left edge.
    pub x: i32,
    /// Top edge.
    pub y: i32,
    /// Width in pixels.
    pub w: u32,
    /// Height in pixels.
    pub h: u32,
}

impl Rect {
    /// The empty rectangle at the origin.
    pub const EMPTY: Rect = Rect {
        x: 0,
        y: 0,
        w: 0,
        h: 0,
    };

    /// Creates a rectangle from its top-left corner and size.
    pub const fn new(x: i32, y: i32, w: u32, h: u32) -> Self {
        Rect { x, y, w, h }
    }

    /// Creates a rectangle from a [`Point`] and [`Size`].
    pub const fn from_origin_size(origin: Point, size: Size) -> Self {
        Rect::new(origin.x, origin.y, size.w, size.h)
    }

    /// Creates a rectangle spanning two corner points (any order).
    pub fn from_corners(a: Point, b: Point) -> Self {
        let x0 = a.x.min(b.x);
        let y0 = a.y.min(b.y);
        let x1 = a.x.max(b.x);
        let y1 = a.y.max(b.y);
        Rect::new(x0, y0, (x1 - x0) as u32, (y1 - y0) as u32)
    }

    /// Top-left corner.
    pub const fn origin(self) -> Point {
        Point::new(self.x, self.y)
    }

    /// Extent of the rectangle.
    pub const fn size(self) -> Size {
        Size::new(self.w, self.h)
    }

    /// Exclusive right edge.
    pub const fn right(self) -> i32 {
        self.x + self.w as i32
    }

    /// Exclusive bottom edge.
    pub const fn bottom(self) -> i32 {
        self.y + self.h as i32
    }

    /// Number of pixels covered.
    pub const fn area(self) -> u64 {
        self.w as u64 * self.h as u64
    }

    /// True when the rectangle covers no pixels.
    pub const fn is_empty(self) -> bool {
        self.w == 0 || self.h == 0
    }

    /// Whether `p` lies inside the rectangle.
    pub const fn contains(self, p: Point) -> bool {
        p.x >= self.x && p.y >= self.y && p.x < self.right() && p.y < self.bottom()
    }

    /// Whether `other` lies entirely inside `self`. An empty `other` is
    /// contained by everything. Edges are compared in `i64`, so a width
    /// or height past `i32::MAX` cannot wrap into range.
    pub fn contains_rect(self, other: Rect) -> bool {
        let end = |at: i32, len: u32| at as i64 + len as i64;
        other.is_empty()
            || (other.x >= self.x
                && other.y >= self.y
                && end(other.x, other.w) <= end(self.x, self.w)
                && end(other.y, other.h) <= end(self.y, self.h))
    }

    /// Whether the two rectangles share at least one pixel.
    pub fn intersects(self, other: Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.x < other.right()
            && other.x < self.right()
            && self.y < other.bottom()
            && other.y < self.bottom()
    }

    /// The overlapping area, if any.
    pub fn intersect(self, other: Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        let x = self.x.max(other.x);
        let y = self.y.max(other.y);
        let r = self.right().min(other.right());
        let b = self.bottom().min(other.bottom());
        Some(Rect::new(x, y, (r - x) as u32, (b - y) as u32))
    }

    /// Smallest rectangle covering both inputs. Empty inputs are ignored.
    pub fn union(self, other: Rect) -> Rect {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        let x = self.x.min(other.x);
        let y = self.y.min(other.y);
        let r = self.right().max(other.right());
        let b = self.bottom().max(other.bottom());
        Rect::new(x, y, (r - x) as u32, (b - y) as u32)
    }

    /// Translates the rectangle by `(dx, dy)`.
    pub const fn translate(self, dx: i32, dy: i32) -> Rect {
        Rect::new(self.x + dx, self.y + dy, self.w, self.h)
    }

    /// Shrinks the rectangle by `margin` on every side; returns `EMPTY`
    /// when the margin consumes it entirely.
    pub fn inset(self, margin: i32) -> Rect {
        let w = self.w as i64 - 2 * margin as i64;
        let h = self.h as i64 - 2 * margin as i64;
        if w <= 0 || h <= 0 {
            return Rect::EMPTY;
        }
        Rect::new(self.x + margin, self.y + margin, w as u32, h as u32)
    }

    /// Grows the rectangle by `margin` on every side.
    pub fn outset(self, margin: u32) -> Rect {
        Rect::new(
            self.x - margin as i32,
            self.y - margin as i32,
            self.w + 2 * margin,
            self.h + 2 * margin,
        )
    }

    /// Center point (rounded towards the top-left).
    pub const fn center(self) -> Point {
        Point::new(self.x + (self.w / 2) as i32, self.y + (self.h / 2) as i32)
    }

    /// Clamps a point to lie within the rectangle (closest interior pixel).
    /// Returns the origin for an empty rectangle.
    pub fn clamp_point(self, p: Point) -> Point {
        if self.is_empty() {
            return self.origin();
        }
        Point::new(
            p.x.clamp(self.x, self.right() - 1),
            p.y.clamp(self.y, self.bottom() - 1),
        )
    }

    /// Iterates over every pixel `(x, y)` in row-major order.
    pub fn pixels(self) -> impl Iterator<Item = Point> {
        let (x0, y0, r, b) = (self.x, self.y, self.right(), self.bottom());
        (y0..b).flat_map(move |y| (x0..r).map(move |x| Point::new(x, y)))
    }
}

impl core::fmt::Display for Rect {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}x{}+{}+{}", self.w, self.h, self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        assert_eq!(Point::new(1, 2) + Point::new(3, 4), Point::new(4, 6));
        assert_eq!(Point::new(5, 5) - Point::new(2, 3), Point::new(3, 2));
        assert_eq!(Point::new(0, 0).dist2(Point::new(3, 4)), 25);
    }

    #[test]
    fn rect_edges_and_area() {
        let r = Rect::new(2, 3, 4, 5);
        assert_eq!(r.right(), 6);
        assert_eq!(r.bottom(), 8);
        assert_eq!(r.area(), 20);
        assert!(!r.is_empty());
        assert!(Rect::new(1, 1, 0, 5).is_empty());
    }

    #[test]
    fn rect_contains_point() {
        let r = Rect::new(0, 0, 10, 10);
        assert!(r.contains(Point::new(0, 0)));
        assert!(r.contains(Point::new(9, 9)));
        assert!(!r.contains(Point::new(10, 9)));
        assert!(!r.contains(Point::new(-1, 5)));
    }

    #[test]
    fn rect_intersection() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        assert_eq!(a.intersect(b), Some(Rect::new(5, 5, 5, 5)));
        let c = Rect::new(10, 0, 5, 5);
        assert_eq!(a.intersect(c), None, "touching edges do not overlap");
        assert!(a.intersect(Rect::EMPTY).is_none());
    }

    #[test]
    fn rect_union_ignores_empty() {
        let a = Rect::new(0, 0, 4, 4);
        assert_eq!(a.union(Rect::EMPTY), a);
        assert_eq!(Rect::EMPTY.union(a), a);
        assert_eq!(a.union(Rect::new(8, 8, 2, 2)), Rect::new(0, 0, 10, 10));
    }

    #[test]
    fn rect_inset_outset() {
        let r = Rect::new(0, 0, 10, 10);
        assert_eq!(r.inset(2), Rect::new(2, 2, 6, 6));
        assert_eq!(r.inset(5), Rect::EMPTY);
        assert_eq!(r.inset(9), Rect::EMPTY);
        assert_eq!(r.outset(1), Rect::new(-1, -1, 12, 12));
    }

    #[test]
    fn rect_contains_rect() {
        let big = Rect::new(0, 0, 10, 10);
        assert!(big.contains_rect(Rect::new(2, 2, 3, 3)));
        assert!(big.contains_rect(Rect::EMPTY));
        assert!(!big.contains_rect(Rect::new(8, 8, 4, 4)));
        assert!(!big.contains_rect(Rect::new(1, 0, u32::MAX, 1)));
        assert!(!big.contains_rect(Rect::new(0, 1, 1, 1 << 31)));
    }

    #[test]
    fn rect_from_corners_any_order() {
        let r = Rect::from_corners(Point::new(5, 7), Point::new(1, 2));
        assert_eq!(r, Rect::new(1, 2, 4, 5));
    }

    #[test]
    fn rect_clamp_point() {
        let r = Rect::new(0, 0, 10, 10);
        assert_eq!(r.clamp_point(Point::new(-5, 20)), Point::new(0, 9));
        assert_eq!(r.clamp_point(Point::new(3, 3)), Point::new(3, 3));
    }

    #[test]
    fn rect_pixel_iteration() {
        let r = Rect::new(1, 1, 2, 2);
        let pts: Vec<_> = r.pixels().collect();
        assert_eq!(
            pts,
            vec![
                Point::new(1, 1),
                Point::new(2, 1),
                Point::new(1, 2),
                Point::new(2, 2)
            ]
        );
    }

    #[test]
    fn rect_center() {
        assert_eq!(Rect::new(0, 0, 10, 10).center(), Point::new(5, 5));
        assert_eq!(Rect::new(2, 2, 3, 3).center(), Point::new(3, 3));
    }
}
