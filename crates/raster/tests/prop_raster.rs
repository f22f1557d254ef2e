//! Property-based tests for the raster substrate: region algebra laws,
//! pixel packing round-trips, dither/scale invariants, and the row
//! kernels of device adaptation against per-pixel references.

use proptest::prelude::*;
use uniint_raster::color::{Color, Palette};
use uniint_raster::dither::{
    dither_to_format, dither_to_palette, reduce_rect, Diffusion, DitherMode,
};
use uniint_raster::framebuffer::{Framebuffer, RowDiff};
use uniint_raster::geom::{Point, Rect, Size};
use uniint_raster::pixel::{pack_row, unpack_row, PixelFormat};
use uniint_raster::region::Region;
use uniint_raster::scale::{scale, ScaleFilter, Scaler};

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0i32..40, 0i32..40, 0u32..20, 0u32..20).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

fn arb_color() -> impl Strategy<Value = Color> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(r, g, b)| Color::rgb(r, g, b))
}

fn arb_fb(max: u32) -> impl Strategy<Value = Framebuffer> {
    (1..=max, 1..=max)
        .prop_flat_map(|(w, h)| {
            (
                Just(w),
                Just(h),
                proptest::collection::vec(arb_color(), (w * h) as usize),
            )
        })
        .prop_map(|(w, h, px)| {
            let mut fb = Framebuffer::new(w, h, Color::BLACK);
            fb.write_rect(Rect::new(0, 0, w, h), &px);
            fb
        })
}

/// Counts the pixels of `rects` covering the probe grid directly.
fn covered(rects: &[Rect], probe: Rect) -> Vec<bool> {
    probe
        .pixels()
        .map(|p| rects.iter().any(|r| r.contains(p)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn region_rects_stay_disjoint(rects in proptest::collection::vec(arb_rect(), 1..12)) {
        let mut reg = Region::new();
        for r in &rects {
            reg.add(*r);
        }
        let rs = reg.rects();
        for i in 0..rs.len() {
            for j in (i + 1)..rs.len() {
                prop_assert!(!rs[i].intersects(rs[j]));
            }
        }
    }

    #[test]
    fn region_union_matches_naive_cover(rects in proptest::collection::vec(arb_rect(), 1..10)) {
        let mut reg = Region::new();
        for r in &rects {
            reg.add(*r);
        }
        let probe = Rect::new(0, 0, 64, 64);
        let naive = covered(&rects, probe);
        for (i, p) in probe.pixels().enumerate() {
            prop_assert_eq!(reg.contains(p), naive[i], "pixel {}", p);
        }
    }

    #[test]
    fn region_subtract_then_contains_false(base in arb_rect(), cut in arb_rect()) {
        let mut reg = Region::from_rect(base);
        reg.subtract(cut);
        for p in cut.pixels() {
            prop_assert!(!reg.contains(p));
        }
        // Area identity: |A \ B| = |A| - |A ∩ B|.
        let overlap = base.intersect(cut).map(|r| r.area()).unwrap_or(0);
        prop_assert_eq!(reg.area(), base.area() - overlap);
    }

    #[test]
    fn region_intersection_commutes(a in arb_rect(), b in arb_rect(), c in arb_rect()) {
        let mut ra = Region::from_rect(a);
        ra.add(b);
        let rc = Region::from_rect(c);
        let i1 = ra.intersection(&rc);
        let i2 = rc.intersection(&ra);
        prop_assert_eq!(i1.area(), i2.area());
    }

    #[test]
    fn rect_union_contains_both(a in arb_rect(), b in arb_rect()) {
        let u = a.union(b);
        prop_assert!(u.contains_rect(a));
        prop_assert!(u.contains_rect(b));
    }

    #[test]
    fn rect_intersect_is_subset(a in arb_rect(), b in arb_rect()) {
        if let Some(i) = a.intersect(b) {
            prop_assert!(a.contains_rect(i));
            prop_assert!(b.contains_rect(i));
            prop_assert!(!i.is_empty());
        }
    }

    #[test]
    fn pack_unpack_roundtrips_reduced(row in proptest::collection::vec(arb_color(), 1..40)) {
        for f in [
            PixelFormat::Rgb888,
            PixelFormat::Rgb565,
            PixelFormat::Rgb444,
            PixelFormat::Gray8,
            PixelFormat::Gray4,
            PixelFormat::Mono1,
        ] {
            let reduced: Vec<Color> = row.iter().map(|&c| f.reduce(c)).collect();
            let mut bytes = Vec::new();
            pack_row(f, &reduced, None, &mut bytes);
            prop_assert_eq!(bytes.len(), f.row_bytes(row.len() as u32));
            let back = unpack_row(f, &bytes, row.len(), None);
            prop_assert_eq!(back.as_deref(), Some(&reduced[..]), "{}", f);
        }
    }

    #[test]
    fn indexed_pack_roundtrips(row in proptest::collection::vec(arb_color(), 1..40)) {
        let pal = Palette::vga16();
        let quantized: Vec<Color> = row.iter().map(|&c| pal.quantize(c)).collect();
        let mut bytes = Vec::new();
        pack_row(PixelFormat::Indexed8, &quantized, Some(&pal), &mut bytes);
        let back = unpack_row(PixelFormat::Indexed8, &bytes, row.len(), Some(&pal)).unwrap();
        prop_assert_eq!(back, quantized);
    }

    #[test]
    fn reduce_idempotent(c in arb_color()) {
        for f in PixelFormat::ALL {
            let once = f.reduce(c);
            prop_assert_eq!(f.reduce(once), once);
        }
    }

    #[test]
    fn palette_nearest_in_range(c in arb_color()) {
        for pal in [Palette::mono(), Palette::vga16(), Palette::websafe(), Palette::grayscale(7)] {
            let idx = pal.nearest(c);
            prop_assert!((idx as usize) < pal.len());
        }
    }

    #[test]
    fn dither_output_always_in_palette(fb in arb_fb(16)) {
        let pal = Palette::grayscale(4);
        for mode in [DitherMode::None, DitherMode::FloydSteinberg, DitherMode::Ordered4x4] {
            let out = dither_to_palette(&fb, &pal, mode);
            prop_assert_eq!(out.size(), fb.size());
            for &p in out.pixels() {
                prop_assert!(pal.colors().contains(&p), "{} produced {}", mode, p);
            }
        }
    }

    #[test]
    fn scale_dimensions_exact(fb in arb_fb(12), w in 1u32..24, h in 1u32..24) {
        for filter in [ScaleFilter::Nearest, ScaleFilter::Bilinear, ScaleFilter::Box] {
            let out = scale(&fb, Size::new(w, h), filter);
            prop_assert_eq!(out.size(), Size::new(w, h));
        }
    }

    #[test]
    fn scale_output_within_input_range(fb in arb_fb(10), w in 1u32..16, h in 1u32..16) {
        // Every filter's output luma must stay within [min, max] input luma.
        let min = fb.pixels().iter().map(|c| c.luma()).min().unwrap();
        let max = fb.pixels().iter().map(|c| c.luma()).max().unwrap();
        for filter in [ScaleFilter::Nearest, ScaleFilter::Bilinear, ScaleFilter::Box] {
            let out = scale(&fb, Size::new(w, h), filter);
            for p in out.pixels() {
                // Small slack for per-channel rounding in lerp/average.
                prop_assert!(p.luma() as i32 >= min as i32 - 2, "{}", filter);
                prop_assert!(p.luma() as i32 <= max as i32 + 2, "{}", filter);
            }
        }
    }

    #[test]
    fn fb_copy_rect_never_panics(fb in arb_fb(16), src in arb_rect(), dx in -20i32..20, dy in -20i32..20) {
        let mut fb = fb;
        fb.copy_rect(src, Point::new(dx, dy));
    }

    #[test]
    fn fb_read_write_roundtrip(fb in arb_fb(16), r in arb_rect()) {
        let (clipped, data) = fb.read_rect(r);
        if !clipped.is_empty() {
            let mut fb2 = fb.clone();
            fb2.write_rect(clipped, &data);
            prop_assert_eq!(fb2, fb);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn diff_region_is_exact(fb in arb_fb(12), patch in arb_rect(), c in arb_color()) {
        let mut modified = fb.clone();
        modified.fill_rect(patch, c);
        let diff = fb.diff_region(&modified);
        // Every pixel in the diff differs; every pixel outside matches.
        for p in fb.bounds().pixels() {
            let differs = fb.pixel(p) != modified.pixel(p);
            prop_assert_eq!(diff.contains(p), differs, "pixel {}", p);
        }
    }
}

// The row kernels behind the output plug-ins, each against a per-pixel
// reference that is its definition.

/// A destination coordinate's source range `lo..hi` along one axis and,
/// for bilinear, the weight of `hi - 1` in 1/256.
fn reference_taps(filter: ScaleFilter, i: u32, src: u32, dst: u32) -> (u32, u32, u32) {
    let lo = (i as u64 * src as u64 / dst as u64) as u32;
    match filter {
        ScaleFilter::Nearest => (lo, lo + 1, 0),
        ScaleFilter::Box => {
            let hi = ((i as u64 + 1) * src as u64 / dst as u64) as u32;
            (lo, hi.max(lo + 1), 0)
        }
        ScaleFilter::Bilinear => {
            let f = ((i as f64 + 0.5) * src as f64 / dst as f64 - 0.5).max(0.0);
            let lo = f.floor() as u32;
            (
                lo,
                (lo + 1).min(src - 1) + 1,
                ((f - lo as f64) * 256.0) as u32,
            )
        }
    }
}

/// Destination pixel `(x, y)` of `src` scaled to `dst`, one pixel at a
/// time: the box window's mean by plain integer division, or bilinear's
/// two-stage lerp, across and then down.
fn reference_pixel(src: &Framebuffer, dst: Size, filter: ScaleFilter, x: u32, y: u32) -> Color {
    let (x0, x1, tx) = reference_taps(filter, x, src.width(), dst.w);
    let (y0, y1, ty) = reference_taps(filter, y, src.height(), dst.h);
    let at = |x: u32, y: u32| src.pixel(Point::new(x as i32, y as i32)).unwrap();
    match filter {
        ScaleFilter::Nearest => at(x0, y0),
        ScaleFilter::Bilinear => {
            let across = |y| at(x0, y).lerp(at(x1 - 1, y), tx);
            across(y0).lerp(across(y1 - 1), ty)
        }
        ScaleFilter::Box => {
            let mut sum = [0u64; 3];
            for sy in y0..y1 {
                for sx in x0..x1 {
                    let c = at(sx, sy);
                    sum[0] += c.r as u64;
                    sum[1] += c.g as u64;
                    sum[2] += c.b as u64;
                }
            }
            let n = ((x1 - x0) * (y1 - y0)) as u64;
            Color::rgb((sum[0] / n) as u8, (sum[1] / n) as u8, (sum[2] / n) as u8)
        }
    }
}

/// 4×4 Bayer threshold matrix, values `0..16`.
const BAYER4: [[i32; 4]; 4] = [[0, 8, 2, 10], [12, 4, 14, 6], [3, 11, 1, 9], [15, 7, 13, 5]];

/// `c` with `bias` added to every channel, clamped.
fn offset(c: Color, bias: i32) -> Color {
    let ch = |v: u8| (v as i32 + bias).clamp(0, 255) as u8;
    Color::rgb(ch(c.r), ch(c.g), ch(c.b))
}

/// Pixel `c` at `(x, y)` reduced to `format` with `mode` (not error
/// diffusion), one pixel at a time.
fn reference_reduce(format: PixelFormat, mode: DitherMode, c: Color, x: u32, y: u32) -> Color {
    let t = match mode {
        DitherMode::Ordered4x4 => BAYER4[y as usize % 4][x as usize % 4] - 8,
        _ => 0,
    };
    let palette = |p: Palette| {
        let amp = (256 / (p.len().min(64)) as i32).max(8);
        p.quantize(offset(c, t * amp / 8))
    };
    match format {
        PixelFormat::Rgb888 => c,
        PixelFormat::Rgb565 => format.reduce(offset(c, t / 2)),
        PixelFormat::Rgb444 => format.reduce(offset(c, t)),
        PixelFormat::Mono1 => palette(Palette::mono()),
        PixelFormat::Gray4 => palette(Palette::grayscale(16)),
        PixelFormat::Gray8 => palette(Palette::grayscale(256)),
        PixelFormat::Indexed8 => palette(Palette::websafe()),
    }
}

/// Rows of colours drawn from a few, so that runs of equal and of
/// differing pixels both occur.
fn arb_rows(w: usize, h: usize) -> impl Strategy<Value = Vec<Vec<Color>>> {
    let few = prop_oneof![
        Just(Color::BLACK),
        Just(Color::WHITE),
        Just(Color::rgb(10, 200, 30))
    ];
    proptest::collection::vec(proptest::collection::vec(few, w), h)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scaled_rows_match_the_per_pixel_definition(
        fb in arb_fb(24),
        w in 1u32..32,
        h in 1u32..32,
        cols in (0u32..32, 0u32..32),
    ) {
        let dst = Size::new(w, h);
        for filter in [ScaleFilter::Nearest, ScaleFilter::Bilinear, ScaleFilter::Box] {
            let whole = scale(&fb, dst, filter);
            for y in 0..h {
                for x in 0..w {
                    let want = reference_pixel(&fb, dst, filter, x, y);
                    prop_assert_eq!(whole.pixel(Point::new(x as i32, y as i32)), Some(want), "{} {}x{} at {},{}", filter, w, h, x, y);
                }
            }
            // A range of columns, row by row, through a kept scaler.
            let (a, b) = (cols.0.min(w), cols.1.min(w));
            let cols = a.min(b)..a.max(b);
            let mut scaler = Scaler::new(fb.size(), dst, filter);
            let mut rows = scaler.rows(&fb, cols.clone());
            let mut out = vec![Color::BLACK; cols.len()];
            for y in (0..h).rev() {
                rows.row(y, &mut out);
                for (x, &px) in cols.clone().zip(&out) {
                    prop_assert_eq!(px, reference_pixel(&fb, dst, filter, x, y), "{} row {} col {}", filter, y, x);
                }
            }
        }
    }

    #[test]
    fn reduced_rows_match_offset_and_reduce_per_pixel(fb in arb_fb(12), r in arb_rect()) {
        for format in PixelFormat::ALL {
            for mode in [DitherMode::None, DitherMode::Ordered4x4] {
                let mut out = fb.clone();
                reduce_rect(&mut out, r, format, mode);
                for p in fb.bounds().pixels() {
                    let c = fb.pixel(p).unwrap();
                    let want = if r.contains(p) {
                        reference_reduce(format, mode, c, p.x as u32, p.y as u32)
                    } else {
                        c
                    };
                    prop_assert_eq!(out.pixel(p), Some(want), "{} {} at {}", format, mode, p);
                }
            }
        }
        // A palette with no closed form, searched per pixel.
        let pal = Palette::vga16();
        let out = dither_to_palette(&fb, &pal, DitherMode::Ordered4x4);
        for p in fb.bounds().pixels() {
            let t = BAYER4[p.y as usize % 4][p.x as usize % 4] - 8;
            let want = pal.quantize(offset(fb.pixel(p).unwrap(), t * 16 / 8));
            prop_assert_eq!(out.pixel(p), Some(want), "vga16 at {}", p);
        }
    }

    #[test]
    fn replaced_rows_add_the_runs_of_a_per_pixel_diff(
        (old, new) in (1usize..24, 1usize..8).prop_flat_map(|(w, h)| (arb_rows(w, h), arb_rows(w, h))),
        x in 0u32..8,
        y in 0u32..8,
        flip in any::<u8>(),
    ) {
        // Some pixels pass through, the others change by `flip`.
        let map = |i: usize, c: Color| if i.is_multiple_of(3) { c } else { Color::rgb(c.r ^ flip, c.g, c.b) };
        let mut diff = RowDiff::default();
        let mut want = Vec::<Rect>::new();
        for (dy, (before, now)) in old.iter().zip(&new).enumerate() {
            let row_y = y as i32 + dy as i32;
            let mut row = before.clone();
            diff.replace(x, row_y as u32, &mut row, now, map);
            let written: Vec<Color> = now.iter().enumerate().map(|(i, &c)| map(i, c)).collect();
            prop_assert_eq!(&row, &written);
            // The runs where the row changed, found pixel by pixel, each
            // extending a band that ended on the row above at the same span.
            let mut runs = Vec::new();
            let mut i = 0;
            while i < row.len() {
                if written[i] == before[i] {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < row.len() && written[i] != before[i] {
                    i += 1;
                }
                runs.push((x as i32 + start as i32, (i - start) as u32));
            }
            for (rx, rw) in runs {
                match want.iter_mut().find(|r| r.x == rx && r.w == rw && r.bottom() == row_y) {
                    Some(band) => band.h += 1,
                    None => want.push(Rect::new(rx, row_y, rw, 1)),
                }
            }
        }
        let region = diff.into_region();
        prop_assert_eq!(region.rects(), &want[..]);
    }
}

/// A rect on a small grid, so that rects often meet, touch or nest.
fn arb_grid_rect() -> impl Strategy<Value = Rect> {
    (0i32..12, 0i32..12, 0u32..7, 0u32..7).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

/// The pixels of `rects` on a 24×24 grid, row-major.
fn pixel_set(rects: &[Rect]) -> Vec<bool> {
    Rect::new(0, 0, 24, 24)
        .pixels()
        .map(|p| rects.iter().any(|r| r.contains(p)))
        .collect()
}

/// Checks that `region` holds exactly the pixels of `set` (see
/// [`pixel_set`]) in rects that do not overlap.
fn holds_exactly(region: &Region, set: &[bool]) -> Result<(), TestCaseError> {
    let rs = region.rects();
    for (i, a) in rs.iter().enumerate() {
        prop_assert!(!a.is_empty(), "empty rect {}", a);
        for b in &rs[i + 1..] {
            prop_assert!(!a.intersects(*b), "{} overlaps {}", a, b);
        }
    }
    for (p, &want) in Rect::new(0, 0, 24, 24).pixels().zip(set) {
        prop_assert_eq!(region.contains(p), want, "pixel {}", p);
    }
    prop_assert_eq!(region.area(), set.iter().filter(|&&b| b).count() as u64);
    Ok(())
}

/// How many pixels `RowDiff::push` compares at a time.
const CHUNK: usize = 16;

/// A row `before` and the same row with some pixels changed: at any
/// offset, next to a chunk boundary or at the row's ends, and in
/// stretches that cross chunks.
fn arb_row_change() -> impl Strategy<Value = (Vec<Color>, Vec<Color>)> {
    // A stretch's first pixel, counted from the start or from the end,
    // and its length.
    let stretch = prop_oneof![
        any::<usize>().prop_map(|i| (i, false, 1usize)),
        (1usize..5, 0usize..3).prop_map(|(k, d)| (k * CHUNK + d - 1, false, 1)),
        (0usize..3).prop_map(|d| (d, true, 1)),
        (any::<usize>(), 1usize..40).prop_map(|(i, n)| (i, false, n)),
    ];
    (0usize..=70)
        .prop_flat_map(move |n| {
            let changes = proptest::collection::vec((stretch.clone(), 0usize..3, 1u8..=255), 0..6);
            (proptest::collection::vec(arb_color(), n), changes)
        })
        .prop_map(|(before, changes)| {
            let mut now = before.clone();
            let n = now.len();
            for ((at, from_end, len), channel, flip) in changes {
                if n == 0 {
                    break;
                }
                let start = if from_end {
                    n - 1 - at.min(n - 1)
                } else {
                    at % n
                };
                for px in &mut now[start..(start + len).min(n)] {
                    match channel {
                        0 => px.r ^= flip,
                        1 => px.g ^= flip,
                        _ => px.b ^= flip,
                    }
                }
            }
            (before, now)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pushed_rows_add_the_runs_of_a_per_pixel_diff(
        (before, now) in arb_row_change(),
        x in 0u32..40,
        y in 0u32..40,
    ) {
        let mut diff = RowDiff::default();
        let differs = diff.push(x, y, &now, &before);
        let mut want = Vec::new();
        let mut i = 0;
        while i < now.len() {
            if now[i] == before[i] {
                i += 1;
                continue;
            }
            let start = i;
            while i < now.len() && now[i] != before[i] {
                i += 1;
            }
            want.push(Rect::new((x as usize + start) as i32, y as i32, (i - start) as u32, 1));
        }
        prop_assert_eq!(differs, !want.is_empty());
        let region = diff.into_region();
        prop_assert_eq!(region.rects(), &want[..]);
    }

    #[test]
    fn region_add_matches_a_pixel_set_model(rects in proptest::collection::vec(arb_grid_rect(), 1..16)) {
        let mut region = Region::new();
        for (i, &r) in rects.iter().enumerate() {
            region.add(r);
            holds_exactly(&region, &pixel_set(&rects[..=i]))?;
        }
    }
}

/// `src` reduced onto `palette` by Floyd–Steinberg, one pixel at a time:
/// each pixel's error, in sixteenths, added to the four neighbours that
/// come after it (7 right; 3, 5 and 1 below left, below and below right),
/// and what a pixel received added to it before it is quantized.
fn reference_floyd_steinberg(src: &Framebuffer, palette: &Palette) -> Framebuffer {
    let (w, h) = (src.width() as i32, src.height() as i32);
    let mut owed = vec![[0i32; 3]; (w * h) as usize];
    let mut out = src.clone();
    for y in 0..h {
        for x in 0..w {
            let c = src.pixel(Point::new(x, y)).unwrap();
            let e = owed[(y * w + x) as usize];
            let ch = |v: u8, k: usize| (v as i32 + e[k] / 16).clamp(0, 255) as u8;
            let adj = Color::rgb(ch(c.r, 0), ch(c.g, 1), ch(c.b, 2));
            let q = palette.quantize(adj);
            out.set_pixel(Point::new(x, y), q);
            let err = [
                adj.r as i32 - q.r as i32,
                adj.g as i32 - q.g as i32,
                adj.b as i32 - q.b as i32,
            ];
            for (dx, dy, share) in [(1, 0, 7), (-1, 1, 3), (0, 1, 5), (1, 1, 1)] {
                let (nx, ny) = (x + dx, y + dy);
                if (0..w).contains(&nx) && ny < h {
                    let cell = &mut owed[(ny * w + nx) as usize];
                    for k in 0..3 {
                        cell[k] += err[k] * share;
                    }
                }
            }
        }
    }
    out
}

/// Frame sizes of 1 to 24 columns and 1 to 16 rows, one column or one
/// row wide often.
fn arb_size() -> impl Strategy<Value = Size> {
    let side = |max: u32| prop_oneof![Just(1u32), Just(2u32), 1..=max];
    (side(24), side(16)).prop_map(|(w, h)| Size::new(w, h))
}

/// One rect of changed pixels, placed in a frame in the test: its corner
/// and size, taken modulo what fits; which edge it is stretched to (none,
/// column 0, the last column, the last row); and its fill, one colour or
/// seeded noise.
type Change = (u32, u32, u32, u32, u8, Option<Color>, u64);

fn arb_change() -> impl Strategy<Value = Change> {
    let fill = prop_oneof![
        Just(None),
        Just(Some(Color::BLACK)),
        Just(Some(Color::WHITE)),
        Just(Some(Color::LIGHT_GRAY)),
        arb_color().prop_map(Some),
    ];
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        0u8..4,
        fill,
        any::<u64>(),
    )
}

/// Applies `change` to `src`, returning the rect it wrote.
fn apply(src: &mut Framebuffer, change: &Change) -> Rect {
    let &(x, y, w, h, edge, fill, seed) = change;
    let size = src.size();
    let (mut x, y) = (x % size.w, y % size.h);
    let (mut w, mut h) = (1 + w % (size.w - x), 1 + h % (size.h - y));
    match edge {
        1 => {
            w += x;
            x = 0;
        }
        2 => w = size.w - x,
        3 => h = size.h - y,
        _ => {}
    }
    let rect = Rect::new(x as i32, y as i32, w, h);
    let mut state = seed | 1;
    for p in rect.pixels() {
        let c = fill.unwrap_or_else(|| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Color::from_u32(state as u32 & 0xff_ffff)
        });
        src.set_pixel(p, c);
    }
    rect
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn diffusion_reruns_match_a_whole_frame_dither(
        size in arb_size(),
        start in arb_change(),
        steps in proptest::collection::vec(proptest::collection::vec(arb_change(), 1..4), 1..8),
    ) {
        for (format, palette) in [
            (PixelFormat::Mono1, Palette::mono()),
            (PixelFormat::Gray4, Palette::grayscale(16)),
            (PixelFormat::Gray8, Palette::grayscale(256)),
            (PixelFormat::Indexed8, Palette::websafe()),
        ] {
            let fs = DitherMode::FloydSteinberg;
            let mut src = Framebuffer::new(size.w, size.h, Color::LIGHT_GRAY);
            apply(&mut src, &start);
            let mut dst = Framebuffer::new(size.w, size.h, Color::BLACK);
            let mut diffusion = Diffusion::new(format, fs, size).unwrap();
            let first = diffusion.rerun(&src, &mut dst, &[src.bounds()], None);
            prop_assert_eq!(first.rows, 0..size.h);
            prop_assert_eq!(first.pixels, size.area() as usize);
            let whole = dither_to_format(&src, format, fs);
            prop_assert_eq!(&whole, &reference_floyd_steinberg(&src, &palette), "{}", format);
            prop_assert_eq!(&dst, &whole, "{} first run", format);
            for (i, changes) in steps.iter().enumerate() {
                let rects: Vec<Rect> = changes.iter().map(|c| apply(&mut src, c)).collect();
                let before = dst.clone();
                let mut diff = RowDiff::default();
                let run = diffusion.rerun(&src, &mut dst, &rects, Some(&mut diff));
                let whole = dither_to_format(&src, format, fs);
                prop_assert_eq!(&dst, &whole, "{} step {} {:?}", format, i, rects);
                let top = rects.iter().map(|r| r.y as u32).min().unwrap();
                prop_assert_eq!(run.rows.start, top);
                prop_assert!(run.pixels <= run.rows.len() * size.w as usize);
                // The runs it reports are the pixels that changed, once each.
                let region = diff.into_region();
                let bounds = dst.bounds();
                let differs: Vec<bool> = bounds
                    .pixels()
                    .map(|p| before.pixel(p) != dst.pixel(p))
                    .collect();
                prop_assert_eq!(covered(region.rects(), bounds), differs.clone());
                let area: u64 = region.rects().iter().map(|r| r.area()).sum();
                prop_assert_eq!(area as usize, differs.iter().filter(|&&d| d).count());
            }
        }
    }
}

#[test]
fn box_windows_too_large_for_packed_sums_match_the_definition() {
    // Windows of 552 to 10 800 pixels, each channel summing past 16 bits;
    // the flat left half makes sums that are exact multiples of the area.
    let mut fb = Framebuffer::new(120, 90, Color::rgb(90, 180, 45));
    for (i, p) in Rect::new(60, 0, 60, 90).pixels().enumerate() {
        let v = (i * 37) as u8;
        fb.set_pixel(p, Color::rgb(v, v.wrapping_mul(3), 255 - v));
    }
    for dst in [
        Size::new(1, 1),
        Size::new(2, 3),
        Size::new(5, 4),
        Size::new(7, 1),
    ] {
        let out = scale(&fb, dst, ScaleFilter::Box);
        for p in out.bounds().pixels() {
            let want = reference_pixel(&fb, dst, ScaleFilter::Box, p.x as u32, p.y as u32);
            assert_eq!(out.pixel(p), Some(want), "{dst} at {p}");
        }
    }
}
