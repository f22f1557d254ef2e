//! Device plug-in property tests: every input plug-in is total over
//! arbitrary device events (no panic, and every pointer it emits lands
//! inside the server framebuffer), and every output plug-in adapts an
//! arbitrary framebuffer into a non-empty frame that respects its own
//! capabilities.

use std::sync::Arc;

use proptest::prelude::*;
use uniint::core::plugin::{InputContext, InputPlugin, OutputPlugin};
use uniint::prelude::*;
use uniint::protocol::input::InputEvent;
use uniint::raster::framebuffer::JOURNAL_CAPACITY;

fn arb_device_event() -> impl Strategy<Value = DeviceEvent> {
    prop_oneof![
        (any::<u16>(), any::<u16>()).prop_map(|(x, y)| DeviceEvent::StylusDown { x, y }),
        (any::<u16>(), any::<u16>()).prop_map(|(x, y)| DeviceEvent::StylusMove { x, y }),
        (any::<u16>(), any::<u16>()).prop_map(|(x, y)| DeviceEvent::StylusUp { x, y }),
        any::<u8>().prop_map(DeviceEvent::KeypadDigit),
        proptest::sample::select(vec![Nav::Up, Nav::Down, Nav::Left, Nav::Right])
            .prop_map(DeviceEvent::KeypadNav),
        Just(DeviceEvent::KeypadSelect),
        Just(DeviceEvent::KeypadBack),
        proptest::sample::select(vec![
            "next",
            "select",
            "up",
            "louder",
            "five",
            "p",
            "",
            "garbage words that no grammar knows",
        ])
        .prop_map(|s| DeviceEvent::Voice(s.to_string())),
        proptest::sample::select(vec![
            Gesture::Swipe(Nav::Up),
            Gesture::Swipe(Nav::Right),
            Gesture::Fist,
            Gesture::Palm,
            Gesture::Circle,
        ])
        .prop_map(DeviceEvent::Gesture),
        proptest::sample::select(vec![
            RemoteKey::Power,
            RemoteKey::Ok,
            RemoteKey::Menu,
            RemoteKey::ChannelUp,
            RemoteKey::ChannelDown,
            RemoteKey::VolumeUp,
            RemoteKey::VolumeDown,
            RemoteKey::Mute,
        ])
        .prop_map(DeviceEvent::Remote),
        (0u8..12).prop_map(|d| DeviceEvent::Remote(RemoteKey::Digit(d))),
        any::<char>().prop_map(DeviceEvent::Char),
    ]
}

/// Arbitrary-but-plausible geometry: any non-degenerate server size and
/// device view, including views larger than the server.
fn arb_ctx() -> impl Strategy<Value = InputContext> {
    (1u32..500, 1u32..500, 1u32..500, 1u32..500).prop_map(|(sw, sh, dw, dh)| InputContext {
        server_size: Size::new(sw, sh),
        device_view: Size::new(dw, dh),
    })
}

fn all_input_plugins() -> Vec<Box<dyn InputPlugin>> {
    vec![
        Box::new(StylusPlugin::new()),
        Box::new(KeypadPlugin::new()),
        Box::new(VoicePlugin::new()),
        Box::new(GesturePlugin::new()),
        Box::new(RemotePlugin::new()),
        Box::new(KeyboardPlugin::new()),
    ]
}

fn all_output_plugins() -> Vec<Box<dyn OutputPlugin>> {
    vec![
        Box::new(ScreenPlugin::pda()),
        Box::new(ScreenPlugin::phone_lcd()),
        Box::new(ScreenPlugin::tv()),
        Box::new(ScreenPlugin::eyepiece()),
        Box::new(TerminalPlugin::standard()),
        Box::new(FallbackTerminal),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every input plug-in consumes every device event without panicking,
    /// and every pointer event it produces is inside the server frame.
    #[test]
    fn input_plugins_are_total_and_in_bounds(
        events in proptest::collection::vec(arb_device_event(), 1..40),
        ctx in arb_ctx(),
    ) {
        for plugin in &mut all_input_plugins() {
            for ev in &events {
                for out in plugin.translate(ev, &ctx) {
                    if let InputEvent::Pointer { x, y, .. } = out {
                        prop_assert!(
                            (x as u32) < ctx.server_size.w && (y as u32) < ctx.server_size.h,
                            "{}: pointer ({x},{y}) outside {:?}",
                            plugin.kind(),
                            ctx.server_size,
                        );
                    }
                }
            }
        }
    }

    /// Every output plug-in adapts an arbitrary framebuffer into a
    /// non-empty frame no larger than its own declared capabilities.
    #[test]
    fn output_plugins_adapt_any_frame_within_caps(
        w in 1u32..260,
        h in 1u32..260,
        r in any::<u8>(),
        g in any::<u8>(),
        b in any::<u8>(),
    ) {
        let mut fb = Framebuffer::new(w, h, Color::rgb(r, g, b));
        // A couple of contrasting pixels so dithering has edges to chew on.
        fb.set_pixel(Point::new(0, 0), Color::rgb(255 - r, g, b));
        fb.set_pixel(
            Point::new(w as i32 - 1, h as i32 - 1),
            Color::rgb(r, 255 - g, b),
        );
        for plugin in &mut all_output_plugins() {
            let caps = plugin.caps();
            // First adaptation: full frame.
            let frame = plugin.adapt(&fb);
            let size = frame.frame.size();
            prop_assert!(size.w >= 1 && size.h >= 1, "{}: empty frame", plugin.kind());
            prop_assert!(
                size.w <= caps.size.w && size.h <= caps.size.h,
                "{}: {size:?} exceeds caps {:?}",
                plugin.kind(),
                caps.size,
            );
            prop_assert_eq!(frame.format, caps.format);
            prop_assert!(frame.wire_bytes > 0);
            // Re-adapting the identical frame must stay in bounds too
            // (exercises the delta path) and never grow the change set
            // beyond the frame itself.
            let again = plugin.adapt(&fb);
            prop_assert_eq!(again.frame.size(), size);
            prop_assert!(
                again.changed.area() <= (size.w as u64) * (size.h as u64),
                "{}: changed region larger than the frame",
                plugin.kind(),
            );
        }
    }
}

/// One step of a frame sequence fed to a screen plug-in.
#[derive(Debug, Clone)]
enum Step {
    /// Fill a rectangle (clipped to the frame) with one color.
    Fill(Rect, Color),
    /// Feed the frame unchanged.
    Same,
    /// Repaint one pixel on the frame's border; `at` picks which.
    Border(u32, Color),
    /// Repaint one pixel through `Framebuffer::row_mut`; `at` picks which.
    Row(u32, Color),
    /// Invert more single pixels, one write each, than the frame's write
    /// journal holds; `at` picks where the run starts.
    Flood(u32),
    /// Rewrite a rectangle (clipped) with the pixels it already holds.
    Rewrite(Rect),
    /// Rewrite a rectangle (clipped) with its own pixels but for a few,
    /// which `at` picks, set to one colour.
    Retouch(Rect, u32, Color),
    /// Replace the current source with a new one of another size.
    Resize(Size, u64),
    /// Switch to the other source.
    Swap,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let color = (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(r, g, b)| Color::rgb(r, g, b));
    let rect =
        (-4i32..44, -4i32..44, 1u32..24, 1u32..24).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h));
    prop_oneof![
        4 => (rect.clone(), color.clone()).prop_map(|(r, c)| Step::Fill(r, c)),
        2 => rect.clone().prop_map(Step::Rewrite),
        2 => (rect, any::<u32>(), color.clone()).prop_map(|(r, at, c)| Step::Retouch(r, at, c)),
        1 => Just(Step::Same),
        2 => (any::<u32>(), color.clone()).prop_map(|(at, c)| Step::Border(at, c)),
        1 => (any::<u32>(), color).prop_map(|(at, c)| Step::Row(at, c)),
        1 => any::<u32>().prop_map(Step::Flood),
        1 => (1u32..40, 1u32..40, any::<u64>()).prop_map(|(w, h, s)| Step::Resize(Size::new(w, h), s)),
        2 => Just(Step::Swap),
    ]
}

/// A seeded source frame: noise over part of it, flat panels elsewhere,
/// so both dithering edges and unchanged stretches occur.
fn source(size: Size, seed: u64) -> Framebuffer {
    let mut fb = Framebuffer::new(size.w, size.h, Color::LIGHT_GRAY);
    let mut s = seed | 1;
    for y in 0..size.h as i32 {
        for x in 0..size.w as i32 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if (x + y) % 3 != 0 {
                fb.set_pixel(Point::new(x, y), Color::from_u32(s as u32 & 0xff_ffff));
            }
        }
    }
    fb
}

/// A pixel on the border of `fb`, picked by `at`.
fn border_pixel(fb: &Framebuffer, at: u32) -> Point {
    let (w, h) = (fb.width() as i32, fb.height() as i32);
    let along = |n: i32| (at / 4) as i32 % n;
    match at % 4 {
        0 => Point::new(along(w), 0),
        1 => Point::new(along(w), h - 1),
        2 => Point::new(0, along(h)),
        _ => Point::new(w - 1, along(h)),
    }
}

/// The pixel `at` picks from the `n`th on, in row-major order, wrapping.
fn nth_pixel(fb: &Framebuffer, at: u32, n: usize) -> Point {
    let i = (at as u64 + n as u64) % fb.size().area();
    Point::new(
        (i % fb.width() as u64) as i32,
        (i / fb.width() as u64) as i32,
    )
}

/// Which returned frames the caller of `adapt` keeps alive, so that the
/// plug-in writes in place, reuses the frame before last, or clones.
#[derive(Debug, Clone, Copy)]
enum Holds {
    Nothing,
    Last,
    All,
}

/// The pixels of `rects` as a `size` bitmap; panics if two rects overlap.
fn mark(rects: &[Rect], size: Size) -> Vec<bool> {
    let mut hit = vec![false; size.area() as usize];
    for r in rects {
        for p in r.pixels() {
            let i = (p.y as u32 * size.w + p.x as u32) as usize;
            assert!(!hit[i], "changed rects overlap at {p}");
            hit[i] = true;
        }
    }
    hit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A screen plug-in fed a sequence of frames returns, after every
    /// call, exactly the frame a fresh plug-in returns for the same server
    /// frame, and `changed` covers exactly the pixels where consecutive
    /// fresh adaptations differ. Covers every pixel format, dither mode
    /// and scale filter, with devices smaller and larger than the source,
    /// writes through every mutator including `row_mut`, rewrites that
    /// change no pixel or only a few, runs that overflow the write
    /// journal, and callers that drop every frame,
    /// keep the last one or keep them all; no frame changes once
    /// returned.
    #[test]
    fn screen_plugin_matches_a_fresh_adapt_after_every_call(
        first in (1u32..40, 1u32..40, any::<u64>()),
        second in (1u32..40, 1u32..40, any::<u64>()),
        device in (1u32..64, 1u32..64),
        steps in proptest::collection::vec(arb_step(), 1..10),
    ) {
        let modes = [DitherMode::None, DitherMode::FloydSteinberg, DitherMode::Ordered4x4];
        let filters = [ScaleFilter::Nearest, ScaleFilter::Bilinear, ScaleFilter::Box];
        let start = [first, second].map(|(w, h, s)| source(Size::new(w, h), s));
        for format in PixelFormat::ALL {
            for dither in modes {
                for scale in filters {
                    for holds in [Holds::Nothing, Holds::Last, Holds::All] {
                        let caps = OutputCaps { size: Size::new(device.0, device.1), format, dither, scale };
                        let mut plugin = ScreenPlugin::new("prop", caps);
                        let mut sources = start.clone();
                        let mut cur = 0;
                        let mut last_full: Option<Arc<Framebuffer>> = None;
                        let mut held: Vec<(Arc<Framebuffer>, u64)> = Vec::new();
                        for step in std::iter::once(&Step::Same).chain(&steps) {
                            let fb = &mut sources[cur];
                            match step {
                                Step::Fill(r, c) => fb.fill_rect(*r, *c),
                                Step::Same => {}
                                Step::Border(at, c) => fb.set_pixel(border_pixel(fb, *at), *c),
                                Step::Row(at, c) => {
                                    let p = nth_pixel(fb, *at, 0);
                                    fb.row_mut(p.y as u32)[p.x as usize] = *c;
                                }
                                Step::Flood(at) => {
                                    for n in 0..=JOURNAL_CAPACITY {
                                        let p = nth_pixel(fb, *at, n);
                                        let c = fb.pixel(p).expect("in bounds");
                                        fb.set_pixel(p, Color::from_u32(!c.to_u32() & 0xff_ffff));
                                    }
                                }
                                Step::Rewrite(r) => {
                                    let (r, pixels) = fb.read_rect(*r);
                                    fb.write_rect(r, &pixels);
                                }
                                Step::Retouch(r, at, c) => {
                                    let (r, mut pixels) = fb.read_rect(*r);
                                    for n in 0..pixels.len().min(3) {
                                        let i = (*at as usize + 7 * n) % pixels.len();
                                        pixels[i] = *c;
                                    }
                                    fb.write_rect(r, &pixels);
                                }
                                Step::Resize(size, seed) => *fb = source(*size, *seed),
                                Step::Swap => cur = 1 - cur,
                            }
                            let fb = &sources[cur];
                            let got = plugin.adapt(fb);
                            let want = ScreenPlugin::new("prop", caps).adapt(fb);
                            let what = format!("{format} {dither} {scale} {holds:?} {step:?} src {}", fb.size());
                            for (frame, digest) in &held {
                                prop_assert_eq!(frame.digest(), *digest, "a returned frame changed: {}", what);
                            }
                            match holds {
                                Holds::Nothing => {}
                                Holds::Last => held = vec![(got.frame.clone(), got.frame.digest())],
                                Holds::All => held.push((got.frame.clone(), got.frame.digest())),
                            }
                            prop_assert!(got.frame == want.frame, "frame differs: {}", what);
                            prop_assert_eq!(got.format, want.format);
                            prop_assert_eq!(got.wire_bytes, want.wire_bytes);
                            let size = want.frame.size();
                            let expect = match &last_full {
                                Some(prev) if prev.size() == size => prev.diff_region(&want.frame),
                                _ => Region::from_rect(want.frame.bounds()),
                            };
                            prop_assert_eq!(got.changed.area(), expect.area(), "{}", what);
                            let hit = mark(got.changed.rects(), size);
                            for p in expect.rects().iter().flat_map(|r| r.pixels()) {
                                prop_assert!(hit[(p.y as u32 * size.w + p.x as u32) as usize], "{p} missed: {}", what);
                            }
                            last_full = Some(want.frame);
                        }
                    }
                }
            }
        }
    }
}
