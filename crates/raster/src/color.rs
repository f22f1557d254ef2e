//! Colors and palettes.
//!
//! The canonical in-memory color is 24-bit RGB ([`Color`]). Output devices
//! with shallower displays (PDA, phone LCD, terminal) get their pixels via
//! the palettes and pixel formats in this crate.

/// A 24-bit RGB color.
///
/// ```
/// use uniint_raster::color::Color;
/// let c = Color::rgb(0x12, 0x34, 0x56);
/// assert_eq!(c.to_u32(), 0x123456);
/// assert_eq!(Color::from_u32(0x123456), c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Color {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Color {
    /// Pure black.
    pub const BLACK: Color = Color::rgb(0, 0, 0);
    /// Pure white.
    pub const WHITE: Color = Color::rgb(255, 255, 255);
    /// Pure red.
    pub const RED: Color = Color::rgb(255, 0, 0);
    /// Pure green.
    pub const GREEN: Color = Color::rgb(0, 255, 0);
    /// Pure blue.
    pub const BLUE: Color = Color::rgb(0, 0, 255);
    /// Mid gray.
    pub const GRAY: Color = Color::rgb(128, 128, 128);
    /// Light gray (classic toolkit chrome).
    pub const LIGHT_GRAY: Color = Color::rgb(200, 200, 200);
    /// Dark gray.
    pub const DARK_GRAY: Color = Color::rgb(64, 64, 64);
    /// Yellow.
    pub const YELLOW: Color = Color::rgb(255, 255, 0);
    /// Cyan.
    pub const CYAN: Color = Color::rgb(0, 255, 255);
    /// Magenta.
    pub const MAGENTA: Color = Color::rgb(255, 0, 255);

    /// Creates a color from channel values.
    pub const fn rgb(r: u8, g: u8, b: u8) -> Color {
        Color { r, g, b }
    }

    /// Creates a gray level.
    pub const fn gray(v: u8) -> Color {
        Color::rgb(v, v, v)
    }

    /// Packs to `0x00RRGGBB`.
    pub const fn to_u32(self) -> u32 {
        ((self.r as u32) << 16) | ((self.g as u32) << 8) | self.b as u32
    }

    /// Unpacks from `0x00RRGGBB`.
    pub const fn from_u32(v: u32) -> Color {
        Color::rgb((v >> 16) as u8, (v >> 8) as u8, v as u8)
    }

    /// ITU-R BT.601 luma, `0..=255`.
    pub fn luma(self) -> u8 {
        // Fixed-point 0.299 R + 0.587 G + 0.114 B.
        ((self.r as u32 * 77 + self.g as u32 * 150 + self.b as u32 * 29) >> 8) as u8
    }

    /// Squared Euclidean distance in RGB space.
    pub fn dist2(self, other: Color) -> u32 {
        let dr = self.r as i32 - other.r as i32;
        let dg = self.g as i32 - other.g as i32;
        let db = self.b as i32 - other.b as i32;
        (dr * dr + dg * dg + db * db) as u32
    }

    /// Linear interpolation between two colors; `t` in `0..=256` where 0 is
    /// `self` and 256 is `other`. Each channel is
    /// `(a * (256 - t) + b * t) >> 8`.
    #[inline]
    pub fn lerp(self, other: Color, t: u32) -> Color {
        Lanes::from(self).lerp(Lanes::from(other), t).color()
    }

    /// A lighter version of the color (for bevel highlights).
    pub fn lighten(self) -> Color {
        self.lerp(Color::WHITE, 96)
    }

    /// A darker version of the color (for bevel shadows).
    pub fn darken(self) -> Color {
        self.lerp(Color::BLACK, 96)
    }
}

/// A colour with each channel in the low byte of its own 16-bit lane of
/// a `u64`, so that one multiplication scales all three: a channel times
/// a weight of at most 256 stays below 2¹⁶ and never carries into the
/// next lane. Bilinear scaling keeps its interpolated rows in this form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Lanes(u64);

impl Lanes {
    /// The low byte of each lane.
    const CHANNELS: u64 = 0x0000_00ff_00ff_00ff;

    /// [`Color::lerp`], every channel at once.
    #[inline]
    pub(crate) fn lerp(self, other: Lanes, t: u32) -> Lanes {
        let t = t.min(256) as u64;
        Lanes(((self.0 * (256 - t) + other.0 * t) >> 8) & Lanes::CHANNELS)
    }

    #[inline]
    pub(crate) fn color(self) -> Color {
        Color::rgb(self.0 as u8, (self.0 >> 16) as u8, (self.0 >> 32) as u8)
    }
}

impl From<Color> for Lanes {
    #[inline]
    fn from(c: Color) -> Lanes {
        Lanes(c.r as u64 | (c.g as u64) << 16 | (c.b as u64) << 32)
    }
}

impl core::fmt::Display for Color {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "#{:02x}{:02x}{:02x}", self.r, self.g, self.b)
    }
}

impl From<u32> for Color {
    fn from(v: u32) -> Self {
        Color::from_u32(v)
    }
}

impl From<Color> for u32 {
    fn from(c: Color) -> Self {
        c.to_u32()
    }
}

/// An indexed palette of colors, used for shallow output devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Palette {
    entries: Vec<Color>,
    /// How `entries` are laid out, as [`Palette::new`] recognised it.
    shape: Shape,
}

/// The layouts [`Palette::nearest`] has a closed form for. A function of
/// the entries alone, so two palettes with equal entries have equal
/// shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Shape {
    /// Anything else: a linear scan.
    Scan,
    /// `n` grey levels `i * 255 / (n - 1)`, as [`Palette::grayscale`]
    /// (and so [`Palette::mono`]) makes them, with the nearest level's
    /// index and grey value for each channel sum `r + g + b` (see
    /// [`Shape::ramp`]).
    Ramp(Box<[(u8, u8); SUMS]>),
    /// The web-safe cube in [`Palette::websafe`]'s order.
    Cube,
}

impl Shape {
    fn of(entries: &[Color]) -> Shape {
        let n = entries.len();
        let ramp = |(i, &e): (usize, &Color)| e == Color::gray((i * 255 / (n - 1)) as u8);
        if n >= 2 && entries.iter().enumerate().all(ramp) {
            Shape::ramp(entries)
        } else if n == 216
            && entries
                .iter()
                .enumerate()
                .all(|(i, &e)| e == websafe_color(i as u8))
        {
            Shape::Cube
        } else {
            Shape::Scan
        }
    }

    /// The nearest-level table of a grey ramp. Level `v` lies
    /// `(r-v)² + (g-v)² + (b-v)² = ((3v - s)² + 3(r²+g²+b²) - s²) / 3`
    /// from `(r, g, b)`, where `s = r + g + b`, so the nearest level is
    /// the one with the least `|3v - s|`: it depends on `s` alone. Levels
    /// rise strictly, so level `i + 1` is nearer than level `i` exactly
    /// when `2s > 3(v_i + v_{i+1})`, and on a tie the lower index wins,
    /// as it does in a scan.
    fn ramp(levels: &[Color]) -> Shape {
        let v = |i: usize| levels[i].r as u32;
        let mut i = 0;
        let nearest = (0..=765u32).map(|s| {
            while i + 1 < levels.len() && 2 * s > 3 * (v(i) + v(i + 1)) {
                i += 1;
            }
            (i as u8, v(i) as u8)
        });
        let nearest: Box<[(u8, u8)]> = nearest.collect();
        Shape::Ramp(nearest.try_into().expect("one level per channel sum"))
    }
}

/// The number of channel sums `r + g + b`, `0..=765`.
pub(crate) const SUMS: usize = 766;

/// `r + g + b`, which is all a grey ramp's nearest level depends on.
fn channel_sum(c: Color) -> usize {
    c.r as usize + c.g as usize + c.b as usize
}

/// The web-safe cube's level nearest `v`, `0..6`: a channel is 51 apart
/// from the next level, and no value lies half way, so there are no ties.
fn cube_level(v: u8) -> u8 {
    ((v as u32 + 25) / 51) as u8
}

/// Index of the web-safe cube entry nearest `c`, as
/// `Palette::websafe().nearest(c)` returns it. The distance is a sum over
/// channels, so each channel rounds to its nearest level on its own.
pub(crate) fn websafe_nearest(c: Color) -> u8 {
    cube_level(c.r) * 36 + cube_level(c.g) * 6 + cube_level(c.b)
}

/// The colour of web-safe cube entry `index` (`0..216`).
pub(crate) fn websafe_color(index: u8) -> Color {
    Color::rgb(index / 36 * 51, index / 6 % 6 * 51, index % 6 * 51)
}

impl Palette {
    /// Creates a palette from explicit entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or holds more than 256 colors.
    pub fn new(entries: Vec<Color>) -> Palette {
        assert!(
            !entries.is_empty() && entries.len() <= 256,
            "palette must hold 1..=256 colors"
        );
        let shape = Shape::of(&entries);
        Palette { entries, shape }
    }

    /// Black-and-white palette (1-bit displays).
    pub fn mono() -> Palette {
        Palette::new(vec![Color::BLACK, Color::WHITE])
    }

    /// `n`-level grayscale ramp.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > 256`.
    pub fn grayscale(n: usize) -> Palette {
        assert!((2..=256).contains(&n), "grayscale needs 2..=256 levels");
        let entries = (0..n)
            .map(|i| Color::gray((i * 255 / (n - 1)) as u8))
            .collect();
        Palette::new(entries)
    }

    /// The 16-color EGA/VGA palette, typical of early PDA screens.
    pub fn vga16() -> Palette {
        Palette::new(vec![
            Color::rgb(0, 0, 0),
            Color::rgb(128, 0, 0),
            Color::rgb(0, 128, 0),
            Color::rgb(128, 128, 0),
            Color::rgb(0, 0, 128),
            Color::rgb(128, 0, 128),
            Color::rgb(0, 128, 128),
            Color::rgb(192, 192, 192),
            Color::rgb(128, 128, 128),
            Color::rgb(255, 0, 0),
            Color::rgb(0, 255, 0),
            Color::rgb(255, 255, 0),
            Color::rgb(0, 0, 255),
            Color::rgb(255, 0, 255),
            Color::rgb(0, 255, 255),
            Color::rgb(255, 255, 255),
        ])
    }

    /// The 216-color "web-safe" cube (6 levels per channel).
    pub fn websafe() -> Palette {
        Palette::new((0..216).map(websafe_color).collect())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false: palettes hold at least one entry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The palette entries.
    pub fn colors(&self) -> &[Color] {
        &self.entries
    }

    /// The nearest level's index and grey value for each channel sum
    /// `r + g + b`, when the palette is a grey ramp.
    pub(crate) fn ramp(&self) -> Option<&[(u8, u8); SUMS]> {
        match &self.shape {
            Shape::Ramp(by_sum) => Some(by_sum),
            _ => None,
        }
    }

    /// Whether [`quantize`](Self::quantize) maps each channel on its own,
    /// as it does onto the web-safe cube.
    pub(crate) fn by_channel(&self) -> bool {
        self.shape == Shape::Cube
    }

    /// Color at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn color(&self, index: u8) -> Color {
        self.entries[index as usize]
    }

    /// Index of the entry closest (RGB distance) to `c`; the first one
    /// on a tie.
    #[inline]
    pub fn nearest(&self, c: Color) -> u8 {
        match &self.shape {
            Shape::Ramp(by_sum) => by_sum[channel_sum(c)].0,
            Shape::Cube => websafe_nearest(c),
            Shape::Scan => self.scan_nearest(c),
        }
    }

    /// [`nearest`](Self::nearest) over any entries, one by one.
    fn scan_nearest(&self, c: Color) -> u8 {
        let mut best = 0usize;
        let mut best_d = u32::MAX;
        for (i, &e) in self.entries.iter().enumerate() {
            let d = c.dist2(e);
            if d < best_d {
                best_d = d;
                best = i;
                if d == 0 {
                    break;
                }
            }
        }
        best as u8
    }

    /// Quantizes `c` to the nearest palette color: the entry
    /// [`nearest`](Self::nearest) picks, read without its index where
    /// the layout gives it directly.
    #[inline]
    pub fn quantize(&self, c: Color) -> Color {
        match &self.shape {
            Shape::Ramp(by_sum) => Color::gray(by_sum[channel_sum(c)].1),
            Shape::Cube => {
                let ch = |v: u8| cube_level(v) * 51;
                Color::rgb(ch(c.r), ch(c.g), ch(c.b))
            }
            Shape::Scan => self.color(self.scan_nearest(c)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        for v in [0u32, 0xffffff, 0x123456, 0x00ff00] {
            assert_eq!(Color::from_u32(v).to_u32(), v);
        }
    }

    #[test]
    fn luma_extremes() {
        assert_eq!(Color::BLACK.luma(), 0);
        assert!(Color::WHITE.luma() >= 254);
        assert!(Color::GREEN.luma() > Color::BLUE.luma());
    }

    #[test]
    fn lerp_endpoints() {
        let a = Color::rgb(10, 20, 30);
        let b = Color::rgb(200, 100, 50);
        assert_eq!(a.lerp(b, 0), a);
        assert_eq!(a.lerp(b, 256), b);
        let mid = a.lerp(b, 128);
        assert!(mid.r > a.r && mid.r < b.r);
    }

    #[test]
    fn lerp_is_the_per_channel_formula() {
        let formula = |a: u8, b: u8, t: u32| ((a as u32 * (256 - t) + b as u32 * t) >> 8) as u8;
        for (a, b) in [(0, 255), (255, 0), (255, 255), (17, 200), (128, 127)] {
            for t in [0, 1, 64, 127, 128, 255, 256] {
                let (x, y) = (Color::rgb(a, b, a ^ b), Color::rgb(b, a, 255 - a));
                let want = Color::rgb(
                    formula(x.r, y.r, t),
                    formula(x.g, y.g, t),
                    formula(x.b, y.b, t),
                );
                assert_eq!(x.lerp(y, t), want, "{x} {y} {t}");
            }
        }
        assert_eq!(Color::BLACK.lerp(Color::WHITE, 1000), Color::WHITE);
    }

    #[test]
    fn lighten_darken_move_towards_extremes() {
        let c = Color::rgb(100, 100, 100);
        assert!(c.lighten().r > c.r);
        assert!(c.darken().r < c.r);
    }

    #[test]
    fn mono_palette_nearest() {
        let p = Palette::mono();
        assert_eq!(p.nearest(Color::rgb(10, 10, 10)), 0);
        assert_eq!(p.nearest(Color::rgb(250, 250, 250)), 1);
    }

    #[test]
    fn grayscale_palette_is_ramp() {
        let p = Palette::grayscale(4);
        assert_eq!(p.len(), 4);
        assert_eq!(p.color(0), Color::BLACK);
        assert_eq!(p.color(3), Color::WHITE);
        let c1 = p.color(1);
        let c2 = p.color(2);
        assert!(c1.r < c2.r);
    }

    #[test]
    fn vga16_and_websafe_sizes() {
        assert_eq!(Palette::vga16().len(), 16);
        assert_eq!(Palette::websafe().len(), 216);
    }

    #[test]
    fn websafe_quantize_is_idempotent() {
        let p = Palette::websafe();
        let q = p.quantize(Color::rgb(123, 45, 67));
        assert_eq!(p.quantize(q), q);
    }

    #[test]
    fn nearest_exact_match() {
        let p = Palette::vga16();
        for (i, &c) in p.colors().iter().enumerate() {
            assert_eq!(p.nearest(c) as usize, i);
        }
    }

    /// Channel triples summing to `s`: the extremes (one channel full
    /// before the next, in three orders), the most even split and two
    /// lopsided ones.
    fn splits(s: u32) -> Vec<Color> {
        let rgb = |ch: [u32; 3]| Color::rgb(ch[0] as u8, ch[1] as u8, ch[2] as u8);
        let fill = |order: [usize; 3]| {
            let mut ch = [0u32; 3];
            let mut left = s;
            for i in order {
                ch[i] = left.min(255);
                left -= ch[i];
            }
            rgb(ch)
        };
        let lopsided = |a: u32| {
            let a = a.clamp(s.saturating_sub(510), s.min(255));
            let g = (s - a) / 2;
            rgb([a, g, s - a - g])
        };
        vec![
            fill([0, 1, 2]),
            fill([2, 1, 0]),
            fill([1, 0, 2]),
            rgb([s / 3, (s + 1) / 3, s.div_ceil(3)]),
            lopsided(s / 5),
            lopsided(s * 3 / 5),
        ]
    }

    #[test]
    fn grey_ramps_match_the_linear_scan_at_every_channel_sum() {
        for levels in [2, 16, 256, 7, 3] {
            let p = Palette::grayscale(levels);
            assert!(matches!(p.shape, Shape::Ramp(_)), "{levels} levels");
            for s in 0..=765 {
                for c in splits(s) {
                    let sum = c.r as u32 + c.g as u32 + c.b as u32;
                    assert_eq!(sum, s, "{c} splits {s}");
                    assert_eq!(p.nearest(c), p.scan_nearest(c), "{levels} levels, {c}");
                    assert_eq!(p.quantize(c), p.color(p.nearest(c)), "{levels} levels, {c}");
                }
            }
        }
        assert_eq!(Palette::mono(), Palette::grayscale(2));
    }

    #[test]
    fn websafe_cube_matches_the_linear_scan_on_every_channel_value() {
        let p = Palette::websafe();
        assert_eq!(p.shape, Shape::Cube);
        let others = [0u8, 25, 26, 51, 127, 128, 204, 229, 230, 255];
        for v in 0..=255u8 {
            for &a in &others {
                for &b in &others {
                    for c in [
                        Color::rgb(v, a, b),
                        Color::rgb(a, v, b),
                        Color::rgb(a, b, v),
                    ] {
                        assert_eq!(p.nearest(c), p.scan_nearest(c), "{c}");
                        assert_eq!(p.quantize(c), p.color(p.scan_nearest(c)), "{c}");
                        assert_eq!(websafe_nearest(c), p.nearest(c), "{c}");
                    }
                }
            }
        }
        for i in 0..216u8 {
            assert_eq!(websafe_color(i), p.color(i));
        }
    }

    #[test]
    fn other_palettes_scan() {
        assert_eq!(Palette::vga16().shape, Shape::Scan);
        let almost = Palette::new(vec![Color::BLACK, Color::rgb(255, 255, 254)]);
        assert_eq!(almost.shape, Shape::Scan);
        assert_eq!(almost.nearest(Color::rgb(200, 200, 200)), 1);
    }

    #[test]
    #[should_panic(expected = "palette must hold")]
    fn empty_palette_panics() {
        Palette::new(vec![]);
    }
}
