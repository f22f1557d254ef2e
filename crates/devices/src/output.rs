//! Output plug-ins: adapt server bitmaps to each display device.
//!
//! [`ScreenPlugin`] adapts in proportion to what changed. It keeps the
//! server frame it adapted last and the device frame it returned (and,
//! for error-diffusion devices, the scaled frame before reduction). Each
//! call compares the new server frame with the kept one row by row,
//! widens every changed band by the scaling filter's footprint and
//! recomputes only those device pixels, so `changed` is computed only
//! there too. Error diffusion is not local: those devices rescale the
//! bands but re-reduce their (small) frame whole. The first frame, a
//! resize, or a call after a panic runs the same code over the whole
//! frame. The result is always bit-for-bit what a fresh plug-in returns.

use uniint_core::plugin::{DeviceFrame, OutputCaps, OutputPlugin};
use uniint_raster::color::Color;
use uniint_raster::dither::{diffuses_error, dither_to_format, reduce_rect, DitherMode};
use uniint_raster::framebuffer::Framebuffer;
use uniint_raster::geom::{Rect, Size};
use uniint_raster::pixel::PixelFormat;
use uniint_raster::scale::{fit_size, footprint, scale_rect, scale_to_fit, ScaleFilter};

/// A generic screen plug-in: aspect-fit scale, then depth reduction with
/// dithering, parameterized by the device's [`OutputCaps`]. Reports the
/// device pixels that changed since its previous frame, so partial-
/// refresh device links only ship deltas.
#[derive(Debug, Clone)]
pub struct ScreenPlugin {
    kind: &'static str,
    caps: OutputCaps,
    kept: Option<Kept>,
}

/// What a [`ScreenPlugin`] keeps from its previous call.
#[derive(Debug, Clone)]
struct Kept {
    /// The server frame adapted last.
    server: Framebuffer,
    /// Its scaled frame before reduction; kept only when the reduction
    /// diffuses error and so must rerun over the whole frame.
    scaled: Option<Framebuffer>,
    /// The device frame returned last.
    device: Framebuffer,
}

impl ScreenPlugin {
    /// Creates a screen plug-in with explicit capabilities.
    pub fn new(kind: &'static str, caps: OutputCaps) -> ScreenPlugin {
        ScreenPlugin {
            kind,
            caps,
            kept: None,
        }
    }

    /// A 2002-era PDA: QVGA portrait, 12-bit color, box downscale with
    /// ordered dithering.
    pub fn pda() -> ScreenPlugin {
        ScreenPlugin::new(
            "pda-screen",
            OutputCaps {
                size: Size::new(240, 320),
                format: PixelFormat::Rgb444,
                dither: DitherMode::Ordered4x4,
                scale: ScaleFilter::Box,
            },
        )
    }

    /// A cellular-phone LCD: 128×128, 1-bit, error-diffusion dithering so
    /// panels stay legible.
    pub fn phone_lcd() -> ScreenPlugin {
        ScreenPlugin::new(
            "phone-lcd",
            OutputCaps {
                size: Size::new(128, 128),
                format: PixelFormat::Mono1,
                dither: DitherMode::FloydSteinberg,
                scale: ScaleFilter::Box,
            },
        )
    }

    /// A television used as the output surface: VGA, full color, bilinear.
    pub fn tv() -> ScreenPlugin {
        ScreenPlugin::new(
            "tv-screen",
            OutputCaps {
                size: Size::new(640, 480),
                format: PixelFormat::Rgb888,
                dither: DitherMode::None,
                scale: ScaleFilter::Bilinear,
            },
        )
    }

    /// A grayscale wearable eyepiece.
    pub fn eyepiece() -> ScreenPlugin {
        ScreenPlugin::new(
            "eyepiece",
            OutputCaps {
                size: Size::new(160, 120),
                format: PixelFormat::Gray4,
                dither: DitherMode::Ordered4x4,
                scale: ScaleFilter::Box,
            },
        )
    }
}

impl OutputPlugin for ScreenPlugin {
    fn kind(&self) -> &'static str {
        self.kind
    }

    fn caps(&self) -> OutputCaps {
        self.caps
    }

    fn adapt(&mut self, server_frame: &Framebuffer) -> DeviceFrame {
        let caps = self.caps;
        let src = server_frame.size();
        // Taken rather than borrowed: a panic below leaves no half-updated
        // copy behind, and the next call adapts the whole frame.
        let (mut kept, rescale, fresh) = match self.kept.take() {
            Some(mut kept) if kept.server.size() == src => {
                let to = kept.device.size();
                let rects = sync_rows(&mut kept.server, server_frame)
                    .into_iter()
                    .map(|band| footprint(src, to, caps.scale, band));
                (kept, disjoint(rects), false)
            }
            kept => {
                let size = fit_size(src, caps.size);
                let blank = || Framebuffer::new(size.w, size.h, Color::BLACK);
                let last = kept.map(|k| k.device).filter(|d| d.size() == size);
                let fresh = last.is_none();
                let kept = Kept {
                    server: server_frame.clone(),
                    scaled: diffuses_error(caps.format, caps.dither).then(blank),
                    device: last.unwrap_or_else(blank),
                };
                (kept, vec![Rect::new(0, 0, size.w, size.h)], fresh)
            }
        };
        // Error diffusion is not local: those devices rescale into the kept
        // scaled frame and then reduce a copy of it whole.
        let reduce = match kept.scaled {
            Some(_) if rescale.is_empty() => Vec::new(),
            Some(_) => vec![kept.device.bounds()],
            None => rescale.clone(),
        };
        let saved: Vec<_> = reduce.iter().map(|&r| kept.device.read_rect(r)).collect();
        let target = kept.scaled.as_mut().unwrap_or(&mut kept.device);
        for &r in &rescale {
            scale_rect(server_frame, target, r, caps.scale);
        }
        if let Some(scaled) = kept.scaled.as_ref().filter(|_| !reduce.is_empty()) {
            kept.device.clone_from(scaled);
        }
        for &r in &reduce {
            reduce_rect(&mut kept.device, r, caps.format, caps.dither);
        }
        let device = &kept.device;
        let wire_bytes = caps.format.buffer_bytes(device.width(), device.height());
        let mut out = DeviceFrame::new(device.clone(), caps.format, wire_bytes);
        if !fresh {
            out = out.with_changed(device.diff_since(&saved));
        }
        self.kept = Some(kept);
        out
    }
}

/// Brings `kept` up to date with `server` (same size) row by row and
/// returns where they differed as bands: runs of consecutive changed rows,
/// each spanning the union of their changed columns.
fn sync_rows(kept: &mut Framebuffer, server: &Framebuffer) -> Vec<Rect> {
    let mut bands: Vec<Rect> = Vec::new();
    for y in 0..server.height() {
        let (new, old) = (server.row(y), kept.row_mut(y));
        if new == old {
            continue;
        }
        let differs = |(a, b): (&Color, &Color)| a != b;
        let x0 = new.iter().zip(old.iter()).position(differs).unwrap_or(0);
        let x1 = new.len()
            - new
                .iter()
                .rev()
                .zip(old.iter().rev())
                .position(differs)
                .unwrap_or(0);
        old[x0..x1].copy_from_slice(&new[x0..x1]);
        let row = Rect::new(x0 as i32, y as i32, (x1 - x0) as u32, 1);
        match bands.last_mut() {
            Some(band) if band.bottom() == row.y => *band = band.union(row),
            _ => bands.push(row),
        }
    }
    bands
}

/// Merges overlapping rects into their bounding boxes until no two
/// overlap; empty rects are dropped.
fn disjoint(rects: impl IntoIterator<Item = Rect>) -> Vec<Rect> {
    let mut out: Vec<Rect> = Vec::new();
    for mut r in rects.into_iter().filter(|r| !r.is_empty()) {
        while let Some(i) = out.iter().position(|o| o.intersects(r)) {
            r = r.union(out.swap_remove(i));
        }
        out.push(r);
    }
    out
}

/// Character ramp from dark to light used by [`ascii_art`].
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders a framebuffer as ASCII art, one character per pixel. Used by
/// the terminal output device and handy for debugging panels in tests.
pub fn ascii_art(fb: &Framebuffer) -> String {
    let mut out = String::with_capacity((fb.width() as usize + 1) * fb.height() as usize);
    for y in 0..fb.height() {
        for &px in fb.row(y) {
            let idx = px.luma() as usize * (RAMP.len() - 1) / 255;
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

/// A text terminal as an output device: the frame is downscaled to one
/// pixel per character cell and rendered with [`ascii_art`].
#[derive(Debug, Clone)]
pub struct TerminalPlugin {
    cols: u32,
    rows: u32,
}

impl TerminalPlugin {
    /// Creates a terminal plug-in; defaults are 80×24.
    pub fn new(cols: u32, rows: u32) -> TerminalPlugin {
        TerminalPlugin {
            cols: cols.max(2),
            rows: rows.max(2),
        }
    }

    /// The classic 80×24 terminal.
    pub fn standard() -> TerminalPlugin {
        TerminalPlugin::new(80, 24)
    }

    /// Renders the adapted frame to text.
    pub fn render_text(&self, frame: &DeviceFrame) -> String {
        ascii_art(&frame.frame)
    }
}

impl OutputPlugin for TerminalPlugin {
    fn kind(&self) -> &'static str {
        "terminal"
    }

    fn caps(&self) -> OutputCaps {
        OutputCaps {
            size: Size::new(self.cols, self.rows),
            format: PixelFormat::Gray8,
            dither: DitherMode::None,
            scale: ScaleFilter::Box,
        }
    }

    fn adapt(&mut self, server_frame: &Framebuffer) -> DeviceFrame {
        // Characters are ~2x taller than wide; compensate by halving rows
        // during the fit so shapes stay recognizable.
        let scaled = scale_to_fit(
            server_frame,
            Size::new(self.cols, self.rows),
            ScaleFilter::Box,
        );
        let gray = dither_to_format(&scaled, PixelFormat::Gray8, DitherMode::None);
        // One byte per character over the wire.
        let wire_bytes = (gray.width() * gray.height()) as usize;
        DeviceFrame::new(gray, PixelFormat::Gray8, wire_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniint_raster::color::Color;
    use uniint_raster::geom::{Point, Rect};

    fn server_frame() -> Framebuffer {
        let mut fb = Framebuffer::new(320, 240, Color::LIGHT_GRAY);
        fb.fill_rect(Rect::new(20, 20, 100, 60), Color::BLUE);
        fb.fill_rect(Rect::new(200, 100, 80, 80), Color::BLACK);
        fb
    }

    #[test]
    fn pda_adapt_dimensions_and_depth() {
        let mut p = ScreenPlugin::pda();
        let out = p.adapt(&server_frame());
        // 320x240 fit into 240x320 → 240x180.
        assert_eq!(out.frame.size(), Size::new(240, 180));
        assert_eq!(out.format, PixelFormat::Rgb444);
        for &px in out.frame.pixels() {
            assert_eq!(PixelFormat::Rgb444.reduce(px), px);
        }
        assert_eq!(out.wire_bytes, PixelFormat::Rgb444.buffer_bytes(240, 180));
    }

    #[test]
    fn phone_lcd_is_monochrome() {
        let mut p = ScreenPlugin::phone_lcd();
        let out = p.adapt(&server_frame());
        assert!(out.frame.width() <= 128 && out.frame.height() <= 128);
        for &px in out.frame.pixels() {
            assert!(px == Color::BLACK || px == Color::WHITE);
        }
    }

    #[test]
    fn tv_keeps_colors() {
        let mut p = ScreenPlugin::tv();
        let out = p.adapt(&server_frame());
        assert_eq!(out.format, PixelFormat::Rgb888);
        assert_eq!(out.frame.size(), Size::new(640, 480));
    }

    #[test]
    fn wire_bytes_ordering_matches_device_class() {
        let frame = server_frame();
        let tv = ScreenPlugin::tv().adapt(&frame).wire_bytes;
        let pda = ScreenPlugin::pda().adapt(&frame).wire_bytes;
        let phone = ScreenPlugin::phone_lcd().adapt(&frame).wire_bytes;
        assert!(tv > pda, "tv {tv} vs pda {pda}");
        assert!(pda > phone, "pda {pda} vs phone {phone}");
    }

    #[test]
    fn ascii_art_shape() {
        let mut fb = Framebuffer::new(4, 2, Color::BLACK);
        fb.set_pixel(Point::new(0, 0), Color::WHITE);
        let art = ascii_art(&fb);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), 4);
        assert_eq!(&art[0..1], "@");
        assert_eq!(&lines[1][0..1], " ");
    }

    #[test]
    fn terminal_renders_text() {
        let mut p = TerminalPlugin::standard();
        let out = p.adapt(&server_frame());
        let text = p.render_text(&out);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() <= 24);
        assert!(lines[0].len() <= 80);
        // Dark square must show as dark characters somewhere.
        assert!(text.contains(' '));
    }

    #[test]
    fn terminal_minimum_size_clamped() {
        let p = TerminalPlugin::new(0, 0);
        assert_eq!(p.caps().size, Size::new(2, 2));
    }

    #[test]
    fn adapt_is_deterministic() {
        let frame = server_frame();
        let a = ScreenPlugin::phone_lcd().adapt(&frame);
        let b = ScreenPlugin::phone_lcd().adapt(&frame);
        assert_eq!(a.frame, b.frame);
    }
}

#[cfg(test)]
mod delta_tests {
    use super::*;
    use uniint_raster::color::Color;
    use uniint_raster::geom::Rect;

    #[test]
    fn first_frame_is_fully_changed() {
        let mut p = ScreenPlugin::tv();
        let fb = Framebuffer::new(320, 240, Color::GRAY);
        let out = p.adapt(&fb);
        assert_eq!(out.changed.area(), out.frame.size().area());
        assert_eq!(out.delta_bytes(), out.wire_bytes);
    }

    #[test]
    fn unchanged_frame_has_empty_delta() {
        let mut p = ScreenPlugin::tv();
        let fb = Framebuffer::new(320, 240, Color::GRAY);
        p.adapt(&fb);
        let out = p.adapt(&fb);
        assert!(out.changed.is_empty());
        assert_eq!(out.delta_bytes(), 0);
        assert!(out.wire_bytes > 0, "full-frame accounting unchanged");
    }

    #[test]
    fn small_change_yields_small_delta() {
        let mut p = ScreenPlugin::tv();
        let mut fb = Framebuffer::new(640, 480, Color::GRAY);
        p.adapt(&fb);
        fb.fill_rect(Rect::new(10, 10, 40, 12), Color::BLACK);
        let out = p.adapt(&fb);
        assert!(!out.changed.is_empty());
        assert!(
            out.delta_bytes() < out.wire_bytes / 10,
            "delta {} much smaller than full {}",
            out.delta_bytes(),
            out.wire_bytes
        );
    }

    #[test]
    fn resize_falls_back_to_full_change() {
        let mut p = ScreenPlugin::tv();
        p.adapt(&Framebuffer::new(320, 240, Color::GRAY));
        // Different server aspect → different device frame size → full.
        let out = p.adapt(&Framebuffer::new(100, 300, Color::GRAY));
        assert_eq!(out.changed.area(), out.frame.size().area());
    }
}
