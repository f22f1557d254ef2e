//! Property tests: every encoding round-trips arbitrary images; decoding
//! straight into a framebuffer matches decoding into a fresh buffer and
//! copying it in; narrow rects of short runs decode with RLE and
//! PaletteRle to their source pixels, and valid or damaged run and
//! subrect payloads decode as a pixel-by-pixel model does; arbitrary
//! messages survive encode→frame→decode; a message body decodes exactly,
//! and every strict prefix of it fails; and the decoders never panic on
//! arbitrary bytes (robustness against hostile/corrupt streams), nor
//! write outside their rect.

use proptest::prelude::*;
use std::collections::BTreeSet;
use uniint_protocol::encoding::{
    choose_encoding, decode_into, decode_rect, encode_copy_rect, encode_rect, DecodedRect,
    Encoding, RectAnalysis,
};
use uniint_protocol::error::ProtocolError;
use uniint_protocol::input::{ButtonMask, InputEvent, KeySym};
use uniint_protocol::message::{
    encode_client, encode_server, ClientMessage, DeviceHealthState, FrameReader, RectUpdate,
    ServerMessage,
};
use uniint_protocol::wire;
use uniint_raster::color::Color;
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::{Point, Rect};
use uniint_raster::pixel::{unpack_row_into, PixelFormat};

/// Every pixel encoding (CopyRect is exercised separately: its payload is
/// a source point, not pixels).
const PIXEL_ENCODINGS: [Encoding; 5] = [
    Encoding::Raw,
    Encoding::Rre,
    Encoding::Hextile,
    Encoding::Rle,
    Encoding::PaletteRle,
];

fn arb_color() -> impl Strategy<Value = Color> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(r, g, b)| Color::rgb(r, g, b))
}

/// Low-cardinality colors make RRE/Hextile take their interesting paths.
fn arb_gui_color() -> impl Strategy<Value = Color> {
    prop_oneof![
        Just(Color::LIGHT_GRAY),
        Just(Color::BLACK),
        Just(Color::WHITE),
        Just(Color::BLUE),
        arb_color(),
    ]
}

fn arb_image() -> impl Strategy<Value = (Rect, Vec<Color>)> {
    (1u32..50, 1u32..40).prop_flat_map(|(w, h)| {
        proptest::collection::vec(arb_gui_color(), (w * h) as usize)
            .prop_map(move |px| (Rect::new(0, 0, w, h), px))
    })
}

fn arb_input() -> impl Strategy<Value = InputEvent> {
    prop_oneof![
        (any::<bool>(), any::<u32>()).prop_map(|(down, s)| InputEvent::Key {
            down,
            sym: KeySym(s)
        }),
        (any::<u16>(), any::<u16>(), any::<u8>()).prop_map(|(x, y, b)| InputEvent::Pointer {
            x,
            y,
            buttons: ButtonMask(b)
        }),
    ]
}

fn arb_client_message() -> impl Strategy<Value = ClientMessage> {
    prop_oneof![
        (any::<u16>(), ".{0,32}")
            .prop_map(|(version, name)| ClientMessage::Hello { version, name }),
        proptest::sample::select(PixelFormat::ALL.to_vec()).prop_map(ClientMessage::SetPixelFormat),
        proptest::collection::vec(proptest::sample::select(Encoding::ALL.to_vec()), 0..5)
            .prop_map(ClientMessage::SetEncodings),
        (
            any::<bool>(),
            0u16..1000,
            0u16..1000,
            0u32..2000,
            0u32..2000
        )
            .prop_map(|(inc, x, y, w, h)| ClientMessage::UpdateRequest {
                incremental: inc,
                rect: Rect::new(x as i32, y as i32, w, h),
            }),
        arb_input().prop_map(ClientMessage::Input),
        ".{0,64}".prop_map(ClientMessage::CutText),
        any::<u64>().prop_map(|last_update_seq| ClientMessage::Resume { last_update_seq }),
    ]
}

/// The one client message kind [`arb_client_message`] leaves out.
fn arb_device_health() -> impl Strategy<Value = ClientMessage> {
    (".{0,32}", 0u8..4).prop_map(|(device, id)| ClientMessage::DeviceHealth {
        device,
        state: DeviceHealthState::from_wire_id(id).expect("ids 0..4 name states"),
    })
}

fn arb_server_message() -> impl Strategy<Value = ServerMessage> {
    prop_oneof![
        (any::<u16>(), any::<u16>(), any::<u16>(), ".{0,32}").prop_map(|(v, w, h, name)| {
            ServerMessage::Init {
                version: v,
                width: w,
                height: h,
                format: PixelFormat::Rgb565,
                name,
            }
        }),
        proptest::collection::vec(
            (
                0u16..500,
                0u16..500,
                1u32..64,
                1u32..64,
                proptest::collection::vec(any::<u8>(), 0..64)
            )
                .prop_map(|(x, y, w, h, payload)| RectUpdate {
                    rect: Rect::new(x as i32, y as i32, w, h),
                    encoding: Encoding::Raw,
                    payload,
                }),
            0..4
        )
        .prop_flat_map(|rects| {
            any::<u64>().prop_map(move |seq| ServerMessage::Update {
                seq,
                format: PixelFormat::Rgb888,
                rects: rects.clone(),
            })
        }),
        Just(ServerMessage::Bell),
        ".{0,64}".prop_map(ServerMessage::CutText),
        (any::<u16>(), any::<u16>())
            .prop_map(|(width, height)| ServerMessage::Resize { width, height }),
        (any::<u64>(), any::<bool>()).prop_map(|(client_msgs_received, replayed)| {
            ServerMessage::ResumeAck {
                client_msgs_received,
                replayed,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encodings_roundtrip_arbitrary_images((rect, px) in arb_image()) {
        for enc in PIXEL_ENCODINGS {
            for fmt in PixelFormat::ALL {
                let reduced: Vec<Color> = px.iter().map(|&c| fmt.reduce(c)).collect();
                let bytes = encode_rect(&reduced, rect, enc, fmt);
                let mut cursor: &[u8] = &bytes;
                match decode_rect(&mut cursor, rect, enc, fmt) {
                    Ok(DecodedRect::Pixels(out)) => {
                        prop_assert_eq!(&out, &reduced, "{}/{}", enc, fmt);
                        prop_assert!(cursor.is_empty(), "{}/{} trailing bytes", enc, fmt);
                    }
                    other => return Err(TestCaseError::fail(format!("{enc}/{fmt}: {other:?}"))),
                }
            }
        }
    }

    #[test]
    fn copy_rect_roundtrips_arbitrary_points((x, y) in (0u16..u16::MAX, 0u16..u16::MAX)) {
        let src = Point::new(x as i32, y as i32);
        let bytes = encode_copy_rect(src);
        for fmt in PixelFormat::ALL {
            let mut cursor: &[u8] = &bytes;
            match decode_rect(&mut cursor, Rect::new(0, 0, 8, 8), Encoding::CopyRect, fmt) {
                Ok(DecodedRect::CopyFrom(p)) => {
                    prop_assert_eq!(p, src);
                    prop_assert!(cursor.is_empty());
                }
                other => return Err(TestCaseError::fail(format!("copyrect/{fmt}: {other:?}"))),
            }
        }
    }

    #[test]
    fn truncated_copy_rect_errors_not_panics(keep in 0usize..4) {
        let bytes = encode_copy_rect(Point::new(12, 34));
        let mut cursor: &[u8] = &bytes[..keep];
        prop_assert!(
            decode_rect(&mut cursor, Rect::new(0, 0, 4, 4), Encoding::CopyRect, PixelFormat::Rgb888)
                .is_err()
        );
    }

    #[test]
    fn client_messages_roundtrip(msg in arb_client_message()) {
        let bytes = encode_client(&msg);
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        let frame = reader.next_frame().unwrap().expect("complete frame");
        let got = ClientMessage::decode_body(&mut frame.as_slice()).unwrap();
        prop_assert_eq!(got, msg);
    }

    #[test]
    fn server_messages_roundtrip(msg in arb_server_message()) {
        let bytes = encode_server(&msg);
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        let frame = reader.next_frame().unwrap().expect("complete frame");
        let got = ServerMessage::decode_body(&mut frame.as_slice()).unwrap();
        prop_assert_eq!(got, msg);
    }

    #[test]
    fn fragmentation_is_transparent(msg in arb_client_message(), cut in 1usize..16) {
        let bytes = encode_client(&msg);
        let mut reader = FrameReader::new();
        for chunk in bytes.chunks(cut) {
            reader.feed(chunk);
        }
        let frame = reader.next_frame().unwrap().expect("complete frame");
        let got = ClientMessage::decode_body(&mut frame.as_slice()).unwrap();
        prop_assert_eq!(got, msg);
    }

    #[test]
    fn bodies_decode_exactly_and_every_strict_prefix_is_an_error(
        client in prop_oneof![arb_client_message(), arb_device_health()],
        server in arb_server_message(),
    ) {
        // A whole body decodes back to its message and leaves nothing in
        // the cursor; any strict prefix of it is an error, not a panic.
        let body = &encode_client(&client)[4..];
        let mut cursor = body;
        prop_assert_eq!(ClientMessage::decode_body(&mut cursor), Ok(client));
        prop_assert!(cursor.is_empty(), "client: {} bytes left", cursor.len());
        for cut in 0..body.len() {
            let res = ClientMessage::decode_body(&mut &body[..cut]);
            prop_assert!(res.is_err(), "client prefix of {} bytes: {:?}", cut, res);
        }
        let body = &encode_server(&server)[4..];
        let mut cursor = body;
        prop_assert_eq!(ServerMessage::decode_body(&mut cursor), Ok(server));
        prop_assert!(cursor.is_empty(), "server: {} bytes left", cursor.len());
        for cut in 0..body.len() {
            let res = ServerMessage::decode_body(&mut &body[..cut]);
            prop_assert!(res.is_err(), "server prefix of {} bytes: {:?}", cut, res);
        }
    }

    #[test]
    fn decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ClientMessage::decode_body(&mut bytes.as_slice());
        let _ = ServerMessage::decode_body(&mut bytes.as_slice());
        let rect = Rect::new(0, 0, 16, 16);
        for enc in Encoding::ALL {
            for fmt in PixelFormat::ALL {
                let _ = decode_rect(&mut bytes.as_slice(), rect, enc, fmt);
            }
        }
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        while let Ok(Some(frame)) = reader.next_frame() {
            let _ = ClientMessage::decode_body(&mut frame.as_slice());
        }
    }

    #[test]
    fn truncated_encodings_error_not_panic((rect, px) in arb_image(), keep_frac in 0.0f64..1.0) {
        for enc in PIXEL_ENCODINGS {
            for fmt in PixelFormat::ALL {
                let reduced: Vec<Color> = px.iter().map(|&c| fmt.reduce(c)).collect();
                let bytes = encode_rect(&reduced, rect, enc, fmt);
                let keep = ((bytes.len() as f64) * keep_frac) as usize;
                if keep == bytes.len() {
                    continue;
                }
                let mut cursor: &[u8] = &bytes[..keep];
                // Either a clean error, or (for prefix-complete encodings
                // such as RLE with zero runs) a decode that must not panic.
                let _ = decode_rect(&mut cursor, rect, enc, fmt);
            }
        }
    }

    #[test]
    fn corrupt_encodings_error_not_panic((rect, px) in arb_image(), flip in 0usize..64, xor in 1u8..=255) {
        for enc in PIXEL_ENCODINGS {
            let mut bytes = encode_rect(&px, rect, enc, PixelFormat::Rgb888);
            if bytes.is_empty() {
                continue;
            }
            let i = flip % bytes.len();
            bytes[i] ^= xor;
            let mut cursor: &[u8] = &bytes;
            // Corruption may still decode (payload bytes are data), but it
            // must never panic or read past the buffer.
            let _ = decode_rect(&mut cursor, rect, enc, PixelFormat::Rgb888);
        }
    }
}

/// A patterned frame with room for `rect` at `origin` and a margin on
/// every side, so a stray write shows.
fn canvas(rect: Rect, origin: Point) -> Framebuffer {
    let (w, h) = (rect.w + origin.x as u32 + 3, rect.h + origin.y as u32 + 2);
    let mut fb = Framebuffer::new(w, h, Color::BLACK);
    for y in 0..h {
        for (x, p) in fb.row_mut(y).iter_mut().enumerate() {
            *p = Color::rgb(x as u8, y as u8, 0x5a);
        }
    }
    fb
}

/// Whether `a` and `b` hold the same pixels outside `rect`.
fn same_outside(a: &Framebuffer, b: &Framebuffer, rect: Rect) -> bool {
    let (mut a, mut b) = (a.clone(), b.clone());
    a.fill_rect(rect, Color::BLACK);
    b.fill_rect(rect, Color::BLACK);
    a == b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decode_into_a_frame_matches_decode_then_write(
        (rect, px) in arb_image(),
        (ox, oy) in (1i32..9, 1i32..9),
    ) {
        let placed = Rect::new(ox, oy, rect.w, rect.h);
        let before = canvas(rect, placed.origin());
        for enc in PIXEL_ENCODINGS {
            for fmt in PixelFormat::ALL {
                let bytes = encode_rect(&px, rect, enc, fmt);
                let mut want = before.clone();
                match decode_rect(&mut bytes.as_slice(), placed, enc, fmt) {
                    Ok(DecodedRect::Pixels(out)) => want.write_rect(placed, &out),
                    other => return Err(TestCaseError::fail(format!("{enc}/{fmt}: {other:?}"))),
                }
                let mut got = before.clone();
                let mut cursor: &[u8] = &bytes;
                let mut target = got.rect_mut(placed).expect("rect inside the canvas");
                prop_assert_eq!(decode_into(&mut cursor, enc, fmt, &mut target), Ok(()));
                prop_assert!(cursor.is_empty(), "{}/{} trailing bytes", enc, fmt);
                prop_assert!(got == want, "{}/{}", enc, fmt);
                prop_assert!(same_outside(&got, &before, placed), "{}/{}", enc, fmt);
            }
        }
    }

    #[test]
    fn bad_payloads_never_write_outside_the_rect(
        (rect, px) in arb_image(),
        (ox, oy) in (1i32..9, 1i32..9),
        keep_frac in 0.0f64..1.0,
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let placed = Rect::new(ox, oy, rect.w, rect.h);
        let before = canvas(rect, placed.origin());
        for enc in PIXEL_ENCODINGS {
            for fmt in PixelFormat::ALL {
                let bytes = encode_rect(&px, rect, enc, fmt);
                // Every decoder reads its whole payload, so any strict
                // prefix runs out of bytes.
                let keep = ((bytes.len() as f64) * keep_frac) as usize;
                let mut fb = before.clone();
                let mut target = fb.rect_mut(placed).expect("rect inside the canvas");
                let res = decode_into(&mut &bytes[..keep], enc, fmt, &mut target);
                prop_assert!(res.is_err(), "{}/{}: {} of {} bytes decoded", enc, fmt, keep, bytes.len());
                prop_assert!(same_outside(&fb, &before, placed), "{}/{} truncated", enc, fmt);
                // Garbage may decode (payload bytes are data), but stays
                // inside the rect either way.
                let mut fb = before.clone();
                let mut target = fb.rect_mut(placed).expect("rect inside the canvas");
                let _ = decode_into(&mut garbage.as_slice(), enc, fmt, &mut target);
                prop_assert!(same_outside(&fb, &before, placed), "{}/{} garbage", enc, fmt);
            }
        }
    }
}

/// Rects 1–9 pixels wide and 1–6 high, made of runs 1–5 pixels long in
/// four colours, each run a colour other than the one before: most runs
/// are short and end near a row's end, where the run decoders switch
/// between their short-run store and their row-wrapping path.
fn arb_short_runs() -> impl Strategy<Value = (Rect, Vec<Color>)> {
    const COLOURS: [Color; 4] = [Color::LIGHT_GRAY, Color::BLACK, Color::WHITE, Color::BLUE];
    (
        1u32..=9,
        1u32..=6,
        proptest::collection::vec((1usize..=3, 1usize..=5), 54),
    )
        .prop_map(|(w, h, runs)| {
            let mut colour = 0;
            let px = runs
                .iter()
                .flat_map(|&(step, n)| {
                    colour = (colour + step) % COLOURS.len();
                    std::iter::repeat_n(COLOURS[colour], n)
                })
                .take((w * h) as usize)
                .collect();
            (Rect::new(0, 0, w, h), px)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn short_runs_decode_to_the_source_pixels_in_a_narrow_rect(
        (rect, px) in arb_short_runs(),
        (ox, oy) in (1i32..5, 1i32..5),
    ) {
        let placed = Rect::new(ox, oy, rect.w, rect.h);
        let before = canvas(rect, placed.origin());
        for enc in [Encoding::PaletteRle, Encoding::Rle] {
            for fmt in PixelFormat::ALL {
                let reduced: Vec<Color> = px.iter().map(|&c| fmt.reduce(c)).collect();
                let bytes = encode_rect(&reduced, rect, enc, fmt);
                let mut got = before.clone();
                let mut cursor: &[u8] = &bytes;
                let mut target = got.rect_mut(placed).expect("rect inside the canvas");
                prop_assert_eq!(decode_into(&mut cursor, enc, fmt, &mut target), Ok(()));
                prop_assert!(cursor.is_empty(), "{}/{} trailing bytes", enc, fmt);
                prop_assert!(got.read_rect(placed).1 == reduced, "{}/{}", enc, fmt);
                prop_assert!(same_outside(&got, &before, placed), "{}/{}", enc, fmt);
            }
        }
    }
}

/// The RLE and PaletteRle run decoders as one fill per pixel: each run
/// is checked against the pixels left before any is written, then written
/// one pixel at a time. Errors are word for word the decoders'. PaletteRle
/// payloads must be run-coded (subencoding 2); the raw and solid
/// subencodings write no runs.
fn decode_runs_pixel_by_pixel(
    buf: &mut &[u8],
    enc: Encoding,
    fmt: PixelFormat,
    fb: &mut Framebuffer,
    at: Rect,
) -> Result<(), ProtocolError> {
    let rle = enc == Encoding::Rle;
    let what = if rle { "rle" } else { "palette-rle" };
    let malformed = |m: String| ProtocolError::Malformed(m);
    let pixel = |bytes: &[u8]| {
        let mut c = [Color::BLACK];
        unpack_row_into(fmt, bytes, &mut c, None).expect("one pixel");
        c[0]
    };
    let size = fmt.row_bytes(1);
    let mut palette = Vec::new();
    if !rle {
        assert_eq!(wire::get_u8(buf)?, 2, "a run-coded payload");
        let n = wire::get_u8(buf)?;
        if n < 2 {
            return Err(malformed("palette-rle palette too small".into()));
        }
        for _ in 0..n {
            palette.push(pixel(wire::get_bytes(buf, size)?));
        }
    }
    let area = at.w as u64 * at.h as u64;
    let nruns = wire::get_u32(buf)?;
    if nruns as u64 > area {
        let msg = if rle {
            "rle has more runs than pixels"
        } else {
            "palette-rle too many runs"
        };
        return Err(malformed(msg.into()));
    }
    let run_bytes = if rle { 2 + size } else { 3 };
    let runs = wire::get_bytes(buf, nruns as usize * run_bytes)?;
    let mut done = 0;
    for run in runs.chunks_exact(run_bytes) {
        let (n, c) = if rle {
            (u16::from_be_bytes([run[0], run[1]]), pixel(&run[2..]))
        } else {
            let c = palette
                .get(run[0] as usize)
                .ok_or_else(|| malformed("palette-rle index oob".into()))?;
            (u16::from_be_bytes([run[1], run[2]]), *c)
        };
        if done + n as u64 > area {
            return Err(malformed(format!("{what} overruns rect")));
        }
        for i in done..done + n as u64 {
            let (x, y) = ((i % at.w as u64) as i32, (i / at.w as u64) as i32);
            fb.row_mut((at.y + y) as u32)[(at.x + x) as usize] = c;
        }
        done += n as u64;
    }
    if done < area {
        return Err(malformed(format!("{what} covered {done} of {area} pixels")));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Valid, truncated and byte-changed RLE and PaletteRle payloads, in
    /// every format, decoded into their own rect and into the transposed
    /// one (same area, other row ends): every `Result` equals the
    /// pixel-by-pixel model's, every success leaves the same pixels and
    /// bytes, and nothing outside the rect is written.
    #[test]
    fn run_decoders_match_a_pixel_by_pixel_model_on_damaged_payloads(
        (rect, px) in arb_short_runs(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        for enc in [Encoding::PaletteRle, Encoding::Rle] {
            for fmt in PixelFormat::ALL {
                let reduced: Vec<Color> = px.iter().map(|&c| fmt.reduce(c)).collect();
                let bytes = encode_rect(&reduced, rect, enc, fmt);
                if enc == Encoding::PaletteRle && bytes[0] != 2 {
                    continue;
                }
                // PaletteRle's subencoding byte stays: other values write
                // no runs.
                let keep = usize::from(enc == Encoding::PaletteRle);
                let mut changed = bytes.clone();
                for (i, b) in &edits {
                    changed[keep + i % (bytes.len() - keep)] = *b;
                }
                let payloads = (0..=bytes.len()).map(|n| &bytes[..n]).chain([&changed[..]]);
                for payload in payloads {
                    for placed in [Rect::new(2, 1, rect.w, rect.h), Rect::new(1, 2, rect.h, rect.w)] {
                        let before = canvas(placed, placed.origin());
                        let mut want = before.clone();
                        let mut model: &[u8] = payload;
                        let expected =
                            decode_runs_pixel_by_pixel(&mut model, enc, fmt, &mut want, placed);
                        let mut got = before.clone();
                        let mut cursor: &[u8] = payload;
                        let mut target = got.rect_mut(placed).expect("rect inside the canvas");
                        let result = decode_into(&mut cursor, enc, fmt, &mut target);
                        let case = (enc, fmt, placed, payload);
                        prop_assert_eq!(&result, &expected, "{:?}", case);
                        prop_assert!(same_outside(&got, &before, placed), "{:?}", case);
                        if result.is_ok() {
                            prop_assert_eq!(cursor.len(), model.len(), "{:?}", case);
                            prop_assert!(got == want, "{:?}", case);
                        }
                    }
                }
            }
        }
    }
}

/// The RRE and Hextile decoders as one field read at a time and one
/// pixel written at a time: each subrect's colour and geometry are read
/// field by field, checked, then written pixel by pixel, in the order the
/// decoders write. Errors are word for word the decoders', and so are the
/// cursor and the pixels a payload that fails leaves behind.
fn decode_subrects_pixel_by_pixel(
    buf: &mut &[u8],
    enc: Encoding,
    fmt: PixelFormat,
    fb: &mut Framebuffer,
    at: Rect,
) -> Result<(), ProtocolError> {
    let malformed = |m: &str| ProtocolError::Malformed(m.into());
    let size = fmt.row_bytes(1);
    let pixel = |buf: &mut &[u8]| -> Result<Color, ProtocolError> {
        let mut c = [Color::BLACK];
        unpack_row_into(fmt, wire::get_bytes(buf, size)?, &mut c, None).expect("one pixel");
        Ok(c[0])
    };
    let mut fill = |x: u32, y: u32, w: u32, h: u32, c: Color| {
        for py in y..y + h {
            for px in x..x + w {
                fb.row_mut(at.y as u32 + py)[at.x as usize + px as usize] = c;
            }
        }
    };
    if enc == Encoding::Rre {
        let count = wire::get_u32(buf)?;
        if count as u64 > at.area().max(1) {
            return Err(ProtocolError::Malformed(format!(
                "rre subrect count {count} exceeds rect area"
            )));
        }
        fill(0, 0, at.w, at.h, pixel(buf)?);
        for _ in 0..count {
            let c = pixel(buf)?;
            let mut xywh = [0u32; 4];
            for v in &mut xywh {
                *v = wire::get_u16(buf)? as u32;
            }
            let [x, y, w, h] = xywh;
            if x + w > at.w || y + h > at.h {
                return Err(malformed("rre subrect out of bounds"));
            }
            fill(x, y, w, h, c);
        }
        return Ok(());
    }
    let mut bg = Color::BLACK;
    for ty in (0..at.h).step_by(16) {
        for tx in (0..at.w).step_by(16) {
            let (tw, th) = (16.min(at.w - tx), 16.min(at.h - ty));
            let flags = wire::get_u8(buf)?;
            if flags & 1 != 0 {
                for y in ty..ty + th {
                    let mut row = vec![Color::BLACK; tw as usize];
                    let bytes = wire::get_bytes(buf, fmt.row_bytes(tw))?;
                    unpack_row_into(fmt, bytes, &mut row, None).expect("one row");
                    for (x, &c) in (tx..).zip(&row) {
                        fill(x, y, 1, 1, c);
                    }
                }
                continue;
            }
            if flags & 2 != 0 {
                bg = pixel(buf)?;
            }
            fill(tx, ty, tw, th, bg);
            if flags & 8 == 0 {
                continue;
            }
            for _ in 0..wire::get_u8(buf)? {
                let c = if flags & 16 != 0 { pixel(buf)? } else { bg };
                let (xy, wh) = (wire::get_u8(buf)? as u32, wire::get_u8(buf)? as u32);
                let (x, y, w, h) = (xy >> 4, xy & 15, (wh >> 4) + 1, (wh & 15) + 1);
                if x + w > tw || y + h > th {
                    return Err(malformed("hextile subrect oob"));
                }
                fill(tx + x, ty + y, w, h, c);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Valid, truncated and byte-changed RRE and Hextile payloads, in
    /// every format, decoded into their own rect and into the transposed
    /// one (same area, other tiles and bounds): every `Result`, cursor and
    /// frame equals the one-field-at-a-time model's, and nothing outside
    /// the rect is written.
    #[test]
    fn subrect_decoders_match_a_field_by_field_model_on_damaged_payloads(
        (rect, px) in arb_image(),
        cuts in proptest::collection::vec(any::<usize>(), 8),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        for enc in [Encoding::Rre, Encoding::Hextile] {
            for fmt in PixelFormat::ALL {
                let reduced: Vec<Color> = px.iter().map(|&c| fmt.reduce(c)).collect();
                let bytes = encode_rect(&reduced, rect, enc, fmt);
                let mut changed = bytes.clone();
                for (i, b) in &edits {
                    changed[i % bytes.len()] = *b;
                }
                // Every cut in the first records, random cuts, the whole
                // payload and a changed one.
                let ends = (0..bytes.len().min(40))
                    .chain(cuts.iter().map(|c| c % bytes.len()))
                    .chain([bytes.len()]);
                let payloads = ends.map(|n| &bytes[..n]).chain([&changed[..]]);
                for payload in payloads {
                    for placed in [Rect::new(2, 1, rect.w, rect.h), Rect::new(1, 2, rect.h, rect.w)] {
                        let before = canvas(placed, placed.origin());
                        let mut want = before.clone();
                        let mut model: &[u8] = payload;
                        let expected =
                            decode_subrects_pixel_by_pixel(&mut model, enc, fmt, &mut want, placed);
                        let mut got = before.clone();
                        let mut cursor: &[u8] = payload;
                        let mut target = got.rect_mut(placed).expect("rect inside the canvas");
                        let result = decode_into(&mut cursor, enc, fmt, &mut target);
                        let case = (enc, fmt, placed, payload.len());
                        prop_assert_eq!(&result, &expected, "{:?}", case);
                        prop_assert_eq!(cursor.len(), model.len(), "{:?}", case);
                        prop_assert!(got == want, "{:?}", case);
                        prop_assert!(same_outside(&got, &before, placed), "{:?}", case);
                    }
                }
            }
        }
    }
}

#[test]
fn copy_rect_does_not_decode_into_a_frame() {
    let bytes = encode_copy_rect(Point::new(0, 0));
    for fmt in PixelFormat::ALL {
        let mut fb = Framebuffer::new(8, 8, Color::BLACK);
        let mut target = fb.rect_mut(Rect::new(1, 1, 4, 4)).expect("inside");
        let res = decode_into(&mut bytes.as_slice(), Encoding::CopyRect, fmt, &mut target);
        assert!(res.is_err(), "{fmt}");
    }
}

/// Rects drawn from a palette of up to 80 colours in runs of up to 120
/// pixels: they straddle both the 64-colour cut-off and the 5 % run
/// density the old threshold rule decided on.
fn arb_palette_image() -> impl Strategy<Value = (Rect, Vec<Color>)> {
    (
        1u32..48,
        1u32..32,
        proptest::collection::vec(arb_color(), 1..80),
        proptest::collection::vec((any::<u8>(), 1usize..120), 1..40),
    )
        .prop_map(|(w, h, palette, runs)| {
            let area = (w * h) as usize;
            let px = runs
                .iter()
                .cycle()
                .flat_map(|&(i, n)| std::iter::repeat_n(palette[i as usize % palette.len()], n))
                .take(area)
                .collect();
            (Rect::new(0, 0, w, h), px)
        })
}

fn arb_noise_image() -> impl Strategy<Value = (Rect, Vec<Color>)> {
    (1u32..48, 1u32..32).prop_flat_map(|(w, h)| {
        proptest::collection::vec(arb_color(), (w * h) as usize)
            .prop_map(move |px| (Rect::new(0, 0, w, h), px))
    })
}

/// Strips of 1 200–1 400 pixels holding 60–70 colours in equal runs of
/// at most 18: the old threshold rule counted 65 transitions up to the
/// 65th colour, about 5 % of the area, so its choice flips between Rle
/// and Hextile here.
fn arb_cutoff_image() -> impl Strategy<Value = (Rect, Vec<Color>)> {
    (1u32..=4, 1200u32..1400, 60usize..=70, 1usize..=18).prop_map(|(h, area, colours, run)| {
        let w = area / h;
        let px = (0..(w * h) as usize)
            .map(|i| Color::rgb((i / run % colours) as u8, 7, 3))
            .collect();
        (Rect::new(0, 0, w, h), px)
    })
}

/// The threshold rule `choose_encoding` followed before it priced the
/// encodings, written out plainly: the first pixels up to the one that
/// brings in the 65th distinct colour are inspected, and the first
/// allowed encoding whose condition holds wins. The byte-cost rule must
/// never send more than this one did.
fn threshold_choice(pixels: &[Color], allowed: &[Encoding]) -> Encoding {
    let mut distinct = BTreeSet::new();
    let mut inspected = pixels;
    for (i, p) in pixels.iter().enumerate() {
        distinct.insert(p.to_u32());
        if distinct.len() == 65 {
            inspected = &pixels[..=i];
            break;
        }
    }
    let transitions =
        inspected.len().min(1) + inspected.windows(2).filter(|w| w[0] != w[1]).count();
    let density = transitions as f64 / pixels.len().max(1) as f64;
    let few = distinct.len() <= 64;
    [
        (distinct.len() <= 2, Encoding::Rre),
        (few, Encoding::PaletteRle),
        (density < 0.05, Encoding::Rle),
        (few, Encoding::Hextile),
        (true, Encoding::Raw),
    ]
    .into_iter()
    .find(|&(holds, e)| holds && allowed.contains(&e))
    .map(|(_, e)| e)
    .or_else(|| allowed.iter().copied().find(|&e| e != Encoding::CopyRect))
    .unwrap_or(Encoding::Raw)
}

/// The encodings the chooser prices, in the order that breaks a tie.
const PRICED: [Encoding; 4] = [
    Encoding::Raw,
    Encoding::Rre,
    Encoding::Rle,
    Encoding::PaletteRle,
];

/// Random `SetEncodings` lists (duplicates, CopyRect and the empty list
/// included), and every encoding, which is what the proxy sends.
fn arb_allowed() -> impl Strategy<Value = Vec<Encoding>> {
    prop_oneof![
        3 => proptest::collection::vec(proptest::sample::select(Encoding::ALL.to_vec()), 0..5),
        1 => Just(Encoding::ALL.to_vec()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_choice_is_the_shortest_allowed_payload(
        (rect, px) in prop_oneof![
            3 => arb_palette_image(),
            1 => arb_noise_image(),
            1 => arb_cutoff_image(),
        ],
        allowed in arb_allowed(),
        fmt in proptest::sample::select(PixelFormat::ALL.to_vec()),
    ) {
        let analysis = RectAnalysis::new(&px, rect);
        let chosen = analysis.choose(&allowed, fmt);
        let payload = analysis.encode(chosen, fmt);
        prop_assert_eq!(&payload, &encode_rect(&px, rect, chosen, fmt));
        // Every allowed candidate, actually encoded, in tie order.
        let lens: Vec<(Encoding, usize)> = PRICED
            .into_iter()
            .filter(|e| allowed.contains(e))
            .map(|e| (e, encode_rect(&px, rect, e, fmt).len()))
            .collect();
        match lens.iter().map(|&(_, n)| n).min() {
            Some(shortest) => {
                prop_assert_eq!(payload.len(), shortest);
                let first = lens.iter().find(|&&(_, n)| n == shortest).map(|&(e, _)| e);
                prop_assert_eq!(Some(chosen), first, "a tie goes to the first in {:?}", PRICED);
            }
            None if allowed.contains(&Encoding::Hextile) => {
                prop_assert_eq!(chosen, Encoding::Hextile)
            }
            None => prop_assert_eq!(chosen, Encoding::Raw),
        }
        // The old rule picked Hextile only for lists without PaletteRle,
        // and Hextile is not priced; its other picks are candidates here.
        let old = threshold_choice(&px, &allowed);
        if old != Encoding::Hextile {
            let old_len = encode_rect(&px, rect, old, fmt).len();
            prop_assert!(payload.len() <= old_len, "{} B, the old {} took {} B", payload.len(), old, old_len);
        }
        if fmt == PixelFormat::Rgb888 {
            prop_assert_eq!(chosen, choose_encoding(&px, rect, &allowed));
        }
        let mut cursor: &[u8] = &payload;
        let decoded = decode_rect(&mut cursor, rect, chosen, fmt).expect("own payload decodes");
        prop_assert!(cursor.is_empty());
        let reduced: Vec<Color> = px.iter().map(|&c| fmt.reduce(c)).collect();
        prop_assert_eq!(decoded, DecodedRect::Pixels(reduced));
    }
}
