//! Encoder corpus golden: a fixed set of rects, encoded with every pixel
//! encoding in every pixel format, must give exactly the payloads
//! recorded in `tests/golden/encode_corpus.txt` (by FNV-1a digest), and
//! each payload must decode to the rect's pixels reduced to its format.
//!
//! The corpus is seeded GUI-like panels plus edge cases: a 1×1 rect,
//! rects of exactly 1, 2, 64, 65, 255 and 256 colours, a rect on the
//! choice's 5 % transition cut-off, a run longer than a `u16` run length,
//! a two-colour background tie, and sizes that do not divide into 16×16
//! tiles. Any change to an encoder's wire bytes shows up here as a
//! digest mismatch. Run with `UPDATE_GOLDEN=1` to record the file again
//! after an intended change.

use uniint_protocol::encoding::{choose_encoding, decode_rect, encode_rect, DecodedRect, Encoding};
use uniint_raster::color::Color;
use uniint_raster::geom::Rect;
use uniint_raster::pixel::PixelFormat;

/// Every encoding that carries pixels.
const PIXEL_ENCODINGS: [Encoding; 5] = [
    Encoding::Raw,
    Encoding::Rre,
    Encoding::Hextile,
    Encoding::Rle,
    Encoding::PaletteRle,
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

struct Case {
    name: String,
    rect: Rect,
    pixels: Vec<Color>,
}

impl Case {
    fn new(name: impl Into<String>, w: u32, h: u32, pixels: Vec<Color>) -> Case {
        assert_eq!(pixels.len(), (w * h) as usize);
        Case {
            name: name.into(),
            rect: Rect::new(0, 0, w, h),
            pixels,
        }
    }
}

/// A panel with bevelled buttons, a text line in anti-aliased shades and
/// an occasional gradient strip, sized so tiles rarely divide by 16.
fn gui_panel(seed: u64) -> Case {
    let mut rng = Rng(seed);
    let (w, h) = (1 + rng.below(120), 1 + rng.below(90));
    let bg = [Color::LIGHT_GRAY, Color::WHITE, Color::rgb(32, 48, 64)][rng.below(3) as usize];
    let mut px = vec![bg; (w * h) as usize];
    let fill = |px: &mut [Color], x0: u32, y0: u32, x1: u32, y1: u32, c: Color| {
        for y in y0..y1.min(h) {
            for x in x0..x1.min(w) {
                px[(y * w + x) as usize] = c;
            }
        }
    };
    for _ in 0..rng.below(6) {
        let (x, y) = (rng.below(w), rng.below(h));
        let (bw, bh) = (4 + rng.below(40), 4 + rng.below(24));
        let face = [
            Color::GRAY,
            Color::BLUE,
            Color::rgb(200, 80, 0),
            rng.color(),
        ][rng.below(4) as usize];
        fill(&mut px, x, y, x + bw, y + bh, Color::WHITE);
        fill(&mut px, x + 1, y + 1, x + bw, y + bh, Color::BLACK);
        fill(&mut px, x + 1, y + 1, x + bw - 1, y + bh - 1, face);
    }
    // Glyph-like pixels in a few shades on one text line.
    let shades = [Color::BLACK, Color::gray(85), Color::gray(170)];
    let line = rng.below(h);
    for y in line..(line + 7).min(h) {
        for x in 0..w {
            if rng.below(3) == 0 {
                px[(y * w + x) as usize] = shades[rng.below(3) as usize];
            }
        }
    }
    if rng.below(3) == 0 {
        let y = rng.below(h);
        for x in 0..w {
            px[(y * w + x) as usize] = Color::rgb((x * 255 / w) as u8, 60, 120);
        }
    }
    Case::new(format!("gui-{seed}"), w, h, px)
}

/// A `w`×`h` rect using exactly `n` colours, each in short runs.
fn n_colours(n: u32, w: u32, h: u32) -> Case {
    let area = w * h;
    assert!(area >= n);
    let run = (area / (n * 2)).max(1);
    let px = (0..area)
        .map(|i| {
            let k = (i / run) % n;
            Color::rgb(k as u8, 7, 200 - (k % 7) as u8)
        })
        .collect();
    Case::new(format!("colours-{n}"), w, h, px)
}

fn corpus() -> Vec<Case> {
    let mut cases = vec![Case::new("one-pixel", 1, 1, vec![Color::BLUE])];
    for (n, w, h) in [
        (1, 20, 10),
        (2, 33, 17),
        (64, 40, 30),
        (65, 40, 30),
        (255, 48, 32),
        (256, 48, 32),
    ] {
        cases.push(n_colours(n, w, h));
    }
    // 65 colours in 65 runs over 1 300 pixels: the transitions counted up
    // to the 65th colour are exactly 5 % of the area, the cut-off between
    // RLE and Raw.
    let px = (0..65u32 * 20)
        .map(|i| Color::rgb((i / 20) as u8, 90, 30))
        .collect();
    cases.push(Case::new("choice-cutoff", 65, 20, px));
    // One run of more than u16::MAX pixels, then a short tail.
    let (w, h) = (300, 240);
    let mut px = vec![Color::GRAY; (w * h) as usize];
    for (i, p) in px.iter_mut().rev().take(150).enumerate() {
        *p = [Color::BLACK, Color::WHITE, Color::RED][i / 10 % 3];
    }
    cases.push(Case::new("long-run", w, h, px));
    // Red and green cover the rect equally: the background is red.
    let mut px = vec![Color::RED; 8];
    px.extend([Color::GREEN; 8]);
    cases.push(Case::new("bg-tie", 8, 2, px));
    // Tiles that do not divide by 16, both ways.
    for (w, h) in [(17, 33), (37, 23), (15, 1), (1, 40)] {
        let px = (0..w * h)
            .map(|i| match (i % w / 3 + i / w / 5) % 4 {
                0 => Color::LIGHT_GRAY,
                1 => Color::BLACK,
                2 => Color::WHITE,
                _ => Color::rgb(0, 0, (i % 251) as u8),
            })
            .collect();
        cases.push(Case::new(format!("tiles-{w}x{h}"), w, h, px));
    }
    cases.extend((1..=12).map(gui_panel));
    cases
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The corpus as golden-file text, checking every payload's decode on
/// the way.
fn corpus_digests() -> String {
    let mut out = String::new();
    for case in corpus() {
        let Case { name, rect, pixels } = &case;
        let chosen = choose_encoding(pixels, *rect, &Encoding::ALL);
        out += &format!("{name} {}x{} chooses {chosen}\n", rect.w, rect.h);
        for fmt in PixelFormat::ALL {
            let reduced: Vec<Color> = pixels.iter().map(|&c| fmt.reduce(c)).collect();
            for enc in PIXEL_ENCODINGS {
                let payload = encode_rect(pixels, *rect, enc, fmt);
                let mut cursor: &[u8] = &payload;
                let decoded = decode_rect(&mut cursor, *rect, enc, fmt)
                    .unwrap_or_else(|e| panic!("{name} {fmt} {enc}: {e}"));
                assert!(cursor.is_empty(), "{name} {fmt} {enc}: trailing bytes");
                assert!(
                    decoded == DecodedRect::Pixels(reduced.clone()),
                    "{name} {fmt} {enc}: decode differs from the reduced pixels"
                );
                out += &format!(
                    "{name} {fmt} {enc} {} {:016x}\n",
                    payload.len(),
                    fnv1a(&payload)
                );
            }
        }
    }
    out
}

#[test]
fn encoder_corpus_matches_golden() {
    let got = corpus_digests();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/encode_corpus.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file exists");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "line {}: encoder output drifted from the golden",
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
