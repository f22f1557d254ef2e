//! Adaptation kernel corpus golden: a fixed set of seeded frames, scaled
//! with every filter, reduced to every pixel format with every dither
//! mode, re-diffused from a middle row and adapted by the screen plug-in
//! presets over a scripted sequence of panel writes, must give exactly
//! the frames (by FNV-1a digest) and `changed` rects recorded in
//! `tests/golden/adapt_corpus.txt`.
//!
//! The property tests compare a plug-in with a fresh one that runs the
//! same kernels, so a kernel whose output drifts passes them; this file
//! pins the output itself. Run with `UPDATE_GOLDEN=1` to record the file
//! again after an intended change.

use uniint_core::plugin::OutputPlugin;
use uniint_devices::output::ScreenPlugin;
use uniint_raster::color::{Color, Palette};
use uniint_raster::dither::{dither_to_format, dither_to_palette, Diffusion, DitherMode};
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::{Point, Rect, Size};
use uniint_raster::pixel::PixelFormat;
use uniint_raster::scale::{scale, ScaleFilter};

const FILTERS: [ScaleFilter; 3] = [
    ScaleFilter::Nearest,
    ScaleFilter::Bilinear,
    ScaleFilter::Box,
];
const MODES: [DitherMode; 3] = [
    DitherMode::None,
    DitherMode::FloydSteinberg,
    DitherMode::Ordered4x4,
];

/// SplitMix64: a seeded generator with no dependencies, so the corpus
/// never changes with a library version.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % n as u64) as u32
    }

    fn color(&mut self) -> Color {
        let v = self.next();
        Color::rgb(v as u8, (v >> 8) as u8, (v >> 16) as u8)
    }
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A digest of a rect list, order included.
fn rects_digest(rects: &[Rect]) -> u64 {
    fnv1a(rects.iter().flat_map(|r| {
        [
            r.x.to_be_bytes(),
            r.y.to_be_bytes(),
            r.w.to_be_bytes(),
            r.h.to_be_bytes(),
        ]
        .into_iter()
        .flatten()
    }))
}

/// A control panel: bevelled buttons on a flat background, a line of
/// glyph-like pixels in a few shades and a colour gradient strip.
fn panel(w: u32, h: u32, seed: u64) -> Framebuffer {
    let mut rng = Rng(seed);
    let mut fb = Framebuffer::new(w, h, Color::LIGHT_GRAY);
    for _ in 0..3 + rng.below(5) {
        let r = Rect::new(
            rng.below(w) as i32,
            rng.below(h) as i32,
            4 + rng.below(w / 3 + 1),
            4 + rng.below(h / 4 + 1),
        );
        let face = [
            Color::GRAY,
            Color::BLUE,
            Color::rgb(200, 80, 0),
            rng.color(),
        ][rng.below(4) as usize];
        fb.fill_rect(r, Color::WHITE);
        fb.fill_rect(Rect::new(r.x + 1, r.y + 1, r.w - 1, r.h - 1), Color::BLACK);
        fb.fill_rect(Rect::new(r.x + 1, r.y + 1, r.w - 2, r.h - 2), face);
    }
    let shades = [Color::BLACK, Color::gray(85), Color::gray(170)];
    let line = rng.below(h) as i32;
    for y in line..(line + 7).min(h as i32) {
        for x in 0..w as i32 {
            if rng.below(3) == 0 {
                fb.set_pixel(Point::new(x, y), shades[rng.below(3) as usize]);
            }
        }
    }
    let y = rng.below(h) as i32;
    for x in 0..w as i32 {
        let c = Color::rgb((x as u32 * 255 / w) as u8, 60, 120);
        fb.set_pixel(Point::new(x, y), c);
    }
    fb
}

/// Seeded noise over every pixel.
fn noise(w: u32, h: u32, seed: u64) -> Framebuffer {
    let mut rng = Rng(seed);
    let mut fb = Framebuffer::new(w, h, Color::BLACK);
    for y in 0..h {
        for p in fb.row_mut(y) {
            *p = rng.color();
        }
    }
    fb
}

/// A grey ramp left to right with a colour ramp top to bottom.
fn ramps(w: u32, h: u32) -> Framebuffer {
    let mut fb = Framebuffer::new(w, h, Color::BLACK);
    for y in 0..h {
        for (x, p) in fb.row_mut(y).iter_mut().enumerate() {
            let v = (x as u32 * 255 / (w - 1).max(1)) as u8;
            let t = (y * 255 / (h - 1).max(1)) as u8;
            *p = Color::rgb(v, v / 2 + t / 2, 255 - t);
        }
    }
    fb
}

fn scale_section(out: &mut String) {
    let sources = [
        ("panel", panel(37, 23, 1)),
        ("noise", noise(16, 12, 2)),
        ("ramps", ramps(20, 15)),
        ("pixel", noise(1, 1, 3)),
    ];
    for (name, src) in &sources {
        let s = src.size();
        let targets = [
            ("up2", Size::new(s.w * 2, s.h * 2)),
            ("up3x2", Size::new(s.w * 3, s.h * 2)),
            ("down2", Size::new(s.w.div_ceil(2), s.h.div_ceil(2))),
            ("down3", Size::new(s.w.div_ceil(3), s.h.div_ceil(3))),
            ("frac", Size::new(s.w * 4 / 3 + 1, s.h * 5 / 7 + 1)),
            ("one", Size::new(1, 1)),
            ("same", s),
        ];
        for filter in FILTERS {
            for (label, target) in targets {
                let fb = scale(src, target, filter);
                out.push_str(&format!(
                    "scale {name} {s} {filter} {label} {target} {:016x}\n",
                    fb.digest()
                ));
            }
        }
    }
}

fn dither_section(out: &mut String) {
    let sources = [
        ("panel", panel(41, 29, 4)),
        ("noise", noise(23, 17, 5)),
        ("ramps", ramps(33, 9)),
        ("column", noise(1, 7, 6)),
        ("line", noise(3, 1, 7)),
    ];
    for (name, src) in &sources {
        for format in PixelFormat::ALL {
            for mode in MODES {
                let fb = dither_to_format(src, format, mode);
                out.push_str(&format!(
                    "dither {name} {} {format} {mode} {:016x}\n",
                    src.size(),
                    fb.digest()
                ));
            }
        }
        for (label, palette) in [
            ("vga16", Palette::vga16()),
            ("gray7", Palette::grayscale(7)),
        ] {
            for mode in MODES {
                let fb = dither_to_palette(src, &palette, mode);
                out.push_str(&format!(
                    "palette {name} {} {label} {mode} {:016x}\n",
                    src.size(),
                    fb.digest()
                ));
            }
        }
    }
}

fn diffusion_section(out: &mut String) {
    let size = Size::new(29, 21);
    for format in [
        PixelFormat::Mono1,
        PixelFormat::Gray4,
        PixelFormat::Gray8,
        PixelFormat::Indexed8,
    ] {
        let mut src = panel(size.w, size.h, 8);
        let mut dst = Framebuffer::new(size.w, size.h, Color::BLACK);
        let mut diffusion =
            Diffusion::new(format, DitherMode::FloydSteinberg, size).expect("diffuses");
        let first = diffusion.rerun(&src, &mut dst, &[src.bounds()], None).rows;
        // Rewrite two middle rows, then one row whose change dies out.
        let band = Rect::new(3, 9, 11, 2);
        src.fill_rect(band, Color::rgb(90, 140, 210));
        let middle = diffusion.rerun(&src, &mut dst, &[band], None).rows;
        assert_eq!(
            dst,
            dither_to_format(&src, format, DitherMode::FloydSteinberg)
        );
        src.set_pixel(Point::new(28, 15), Color::WHITE);
        let late = diffusion
            .rerun(&src, &mut dst, &[Rect::new(28, 15, 1, 1)], None)
            .rows;
        assert_eq!(
            dst,
            dither_to_format(&src, format, DitherMode::FloydSteinberg)
        );
        out.push_str(&format!(
            "diffusion {format} {size} rows {first:?} {middle:?} {late:?} {:016x}\n",
            dst.digest()
        ));
    }
}

/// One write to the panel a screen plug-in adapts.
enum Write {
    Same,
    Fill(Rect, Color),
    Pixel(Point, Color),
    Row(u32, Color),
    Noise(Rect, u64),
    Resize(Size, u64),
}

fn script() -> Vec<(&'static str, Write)> {
    vec![
        ("first", Write::Same),
        ("same", Write::Same),
        (
            "button",
            Write::Fill(Rect::new(40, 30, 60, 22), Color::BLUE),
        ),
        (
            "release",
            Write::Fill(Rect::new(40, 30, 60, 22), Color::GRAY),
        ),
        (
            "corner",
            Write::Fill(Rect::new(300, 210, 40, 40), Color::RED),
        ),
        ("pixel", Write::Pixel(Point::new(160, 113), Color::WHITE)),
        ("row", Write::Row(77, Color::rgb(10, 200, 30))),
        ("text", Write::Noise(Rect::new(8, 150, 40, 3), 11)),
        ("two", Write::Fill(Rect::new(0, 0, 320, 4), Color::YELLOW)),
        (
            "slider",
            Write::Fill(Rect::new(120, 90, 150, 6), Color::rgb(30, 30, 90)),
        ),
        ("flood", Write::Noise(Rect::new(200, 40, 90, 60), 12)),
        ("resize", Write::Resize(Size::new(226, 320), 13)),
        (
            "after",
            Write::Fill(Rect::new(10, 300, 100, 15), Color::DARK_GRAY),
        ),
    ]
}

fn plugin_section(out: &mut String) {
    let presets: [fn() -> ScreenPlugin; 4] = [
        ScreenPlugin::pda,
        ScreenPlugin::phone_lcd,
        ScreenPlugin::tv,
        ScreenPlugin::eyepiece,
    ];
    for preset in presets {
        let mut plugin = preset();
        let mut fb = panel(320, 226, 9);
        // The caller keeps the frame returned last, as the proxy does.
        let mut _held = None;
        for (step, write) in script() {
            match write {
                Write::Same => {}
                Write::Fill(r, c) => fb.fill_rect(r, c),
                Write::Pixel(p, c) => fb.set_pixel(p, c),
                Write::Row(y, c) => fb.row_mut(y).fill(c),
                Write::Noise(r, seed) => {
                    let mut rng = Rng(seed);
                    for p in r.pixels() {
                        fb.set_pixel(p, rng.color());
                    }
                }
                Write::Resize(size, seed) => fb = panel(size.w, size.h, seed),
            }
            let frame = plugin.adapt(&fb);
            let rects = frame.changed.rects();
            out.push_str(&format!(
                "plugin {} {step} {} {:016x} changed {} in {} rects {:016x}\n",
                plugin.kind(),
                frame.frame.size(),
                frame.frame.digest(),
                frame.changed.area(),
                rects.len(),
                rects_digest(rects)
            ));
            _held = Some(frame);
        }
    }
}

fn corpus() -> String {
    let mut out = String::new();
    scale_section(&mut out);
    dither_section(&mut out);
    diffusion_section(&mut out);
    plugin_section(&mut out);
    out
}

#[test]
fn adaptation_corpus_matches_golden() {
    let got = corpus();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/adapt_corpus.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file exists");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "line {}: adaptation output drifted from the golden",
            i + 1
        );
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "corpus size differs from the golden; run with UPDATE_GOLDEN=1 \
         if the change is intentional"
    );
}
