//! Output plug-ins: adapt server bitmaps to each display device.
//!
//! [`ScreenPlugin`] adapts in proportion to what changed. The server
//! frame's own write journal says which rects were written since the
//! last call: the plug-in keeps the frame's [`Stamp`] and asks
//! [`Framebuffer::changes_since`]. On a proxy those are the rects the
//! server's updates carried, and the server sends only what changed
//! (`Framebuffer::drain`), so the plug-in keeps no copy of the panel to
//! compare with. The device pixels rebuilt are the union of the written
//! rects' footprints ([`Scaler::footprint`]) as a [`Region`]: the
//! footprints of neighbouring rects overlap, and their bounding box
//! would grow into whole widgets. Another server frame, one written more
//! often than the journal remembers, the first frame, a server or device
//! of another size and a call after a panic rebuild the whole device
//! frame.
//!
//! Everything that depends only on the sizes and the caps is worked out
//! once and kept until they change: the scaling taps of every device
//! column and row, with the box filter's reciprocals and the device
//! columns and rows that read each server one ([`Scaler`]), and the
//! reduction's tables ([`Reducer`]). A call computes no tap and no
//! bias, and a footprint is four table lookups.
//!
//! Each device row is scaled into a scratch row, then reduced, compared
//! with the device row it replaces and stored over it in one pass
//! ([`Reducer::row`] through [`RowDiff::replace`]); the runs that
//! differ make `changed`. A row that needs no reduction (`Rgb888`) is
//! compared and copied whole. Error-diffusion devices keep their scaled
//! frame and each device pixel's quantization error ([`Diffusion`]).
//! From the first rescaled row down, each row is dithered again only
//! over the columns that were rescaled or whose error from above
//! changed, and only those are compared and stored; below the rescaled
//! rows the dither stops at the first row whose errors above all stayed.
//!
//! A returned frame is a shared snapshot the plug-in never writes again.
//! The plug-in keeps two device buffers: it writes in place when nobody
//! else holds the last one; when the caller holds only the last one it
//! brings the one before up to date and writes there; when the caller
//! holds both it clones. A supervised plug-in's caller always holds the
//! last one (the supervisor keeps it as `last_good`, to stand in for a
//! failed call), so the catching up runs on nearly every call: it copies
//! the region that changed on the last call, which is all the two
//! buffers differ in. The result is always bit-for-bit what a fresh
//! plug-in returns.

use std::sync::Arc;

use uniint_core::plugin::{DeviceFrame, OutputCaps, OutputPlugin};
use uniint_raster::color::Color;
use uniint_raster::dither::{dither_to_format, Diffusion, DitherMode, Reducer, Reduction};
use uniint_raster::framebuffer::{Framebuffer, RowDiff, Stamp};
use uniint_raster::geom::{Rect, Size};
use uniint_raster::pixel::PixelFormat;
use uniint_raster::region::Region;
use uniint_raster::scale::{fit_size, scale_to_fit, ScaleFilter, Scaler};

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
    /// The server frame adapted last, as it was then.
    seen: Stamp,
    /// The taps of scaling server frames of its size to the device.
    scaler: Scaler,
    /// How device rows are reduced.
    reduce: Reduce,
    /// The device frame returned last.
    device: Arc<Framebuffer>,
    /// The device frame returned before it, while the plug-in may reuse
    /// it, with the device rects where `device` may differ from it.
    spare: Option<(Arc<Framebuffer>, Vec<Rect>)>,
    /// Scratch for the device row being rebuilt, a device row wide.
    row: Vec<Color>,
}

/// How a [`ScreenPlugin`] reduces the device rows it rebuilds.
#[derive(Debug, Clone)]
enum Reduce {
    /// Each rescaled row on its own, as it is scaled.
    Local(Reducer),
    /// By error diffusion, which is not local: the scaled frame before
    /// reduction, and the diffusion state over it.
    Diffused(Box<(Framebuffer, Diffusion)>),
}

impl Kept {
    /// Blank state for adapting `server` to `size` device frames, before
    /// any call.
    fn new(server: &Framebuffer, size: Size, caps: OutputCaps) -> Kept {
        let blank = || Framebuffer::new(size.w, size.h, Color::BLACK);
        Kept {
            seen: server.stamp(),
            scaler: Scaler::new(server.size(), size, caps.scale),
            reduce: match Reduction::new(caps.format, caps.dither, size) {
                Reduction::Local(reducer) => Reduce::Local(reducer),
                Reduction::Diffused(diffusion) => Reduce::Diffused(Box::new((blank(), diffusion))),
            },
            device: Arc::new(blank()),
            spare: None,
            row: vec![Color::BLACK; size.w as usize],
        }
    }

    /// The device pixels that read a server pixel written since the last
    /// call, while the frame's journal reaches back that far; all of them
    /// otherwise. A server frame of another size makes every device pixel
    /// new, with taps for its size.
    fn outdated(&mut self, server: &Framebuffer, filter: ScaleFilter) -> Region {
        if self.scaler.src() != server.size() {
            self.scaler = Scaler::new(server.size(), self.device.size(), filter);
            return Region::from_rect(self.device.bounds());
        }
        let Some(written) = server.changes_since(self.seen) else {
            return Region::from_rect(self.device.bounds());
        };
        // The footprints of neighbouring rects overlap.
        written.iter().map(|&r| self.scaler.footprint(r)).collect()
    }

    /// Re-adapts the device pixels in `rescale` from `server`, one device
    /// row at a time: each row is scaled into a scratch row, then reduced,
    /// compared with the device row and stored over it in one pass.
    /// Returns where the rows changed if `diff` is set; without `diff` the
    /// whole frame is new.
    fn redo(&mut self, server: &Framebuffer, rescale: &[Rect], diff: bool) -> Region {
        let Kept {
            scaler,
            reduce,
            device,
            spare,
            row,
            ..
        } = self;
        let device = writable(device, spare);
        let mut changed = diff.then(RowDiff::default);
        match reduce {
            // Rescale into the scaled frame, then reduce again what that
            // reaches.
            Reduce::Diffused(state) => {
                let (scaled, diffusion) = &mut **state;
                for &r in rescale {
                    scaler.scale_rect(server, scaled, r);
                }
                diffusion.rerun(scaled, device, rescale, changed.as_mut());
            }
            Reduce::Local(reducer) => {
                for &r in rescale {
                    let x = r.x as u32;
                    let span = r.x as usize..r.right() as usize;
                    let scaled = &mut row[..r.w as usize];
                    let mut rows = scaler.rows(server, x..x + r.w);
                    for y in r.y as u32..r.bottom() as u32 {
                        rows.row(y, scaled);
                        let old = &mut device.row_mut(y)[span.clone()];
                        reducer.row(y, x, scaled, old, changed.as_mut());
                    }
                    // Bands of one rect never merge with another's.
                    if let Some(changed) = &mut changed {
                        changed.restart();
                    }
                }
            }
        }
        match changed {
            Some(changed) => {
                let changed = changed.into_region();
                // The frame returned last differs from this one only there.
                if let Some((_, lag)) = spare {
                    lag.extend_from_slice(changed.rects());
                }
                changed
            }
            None => Region::from_rect(device.bounds()),
        }
    }
}

/// A device buffer no caller holds, equal to the frame returned last
/// (`device`), made the one returned next. The one returned last becomes
/// the spare.
fn writable<'a>(
    device: &'a mut Arc<Framebuffer>,
    spare: &mut Option<(Arc<Framebuffer>, Vec<Rect>)>,
) -> &'a mut Framebuffer {
    if Arc::get_mut(device).is_some() {
        // Nobody else holds it: write in place.
        *spare = None;
    } else {
        // Reuse the frame before last if nobody else holds it, else clone.
        let reuse = spare.take().and_then(|(mut spare, lag)| {
            copy_rects(device, Arc::get_mut(&mut spare)?, &lag);
            Some(spare)
        });
        let next = reuse.unwrap_or_else(|| Arc::new(Framebuffer::clone(device)));
        let last = std::mem::replace(device, next);
        *spare = Some((last, Vec::new()));
    }
    Arc::make_mut(device)
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
        let size = fit_size(src, caps.size);
        // Taken rather than borrowed: a panic below leaves no half-updated
        // state behind, and the next call adapts the whole frame.
        let (mut kept, rescale, fresh) = match self.kept.take() {
            Some(mut kept) if kept.device.size() == size => {
                let rescale = kept.outdated(server_frame, caps.scale);
                (kept, rescale, false)
            }
            _ => {
                let whole = Region::from_rect(Rect::new(0, 0, size.w, size.h));
                (Kept::new(server_frame, size, caps), whole, true)
            }
        };
        kept.seen = server_frame.stamp();
        let changed = if rescale.is_empty() {
            Region::default()
        } else {
            kept.redo(server_frame, rescale.rects(), !fresh)
        };
        let wire_bytes = caps.format.buffer_bytes(size.w, size.h);
        let out = DeviceFrame::new(Arc::clone(&kept.device), caps.format, wire_bytes);
        self.kept = Some(kept);
        out.with_changed(changed)
    }
}

/// Copies the pixels of `rects` (inside both frames) from `from` to `to`.
fn copy_rects(from: &Framebuffer, to: &mut Framebuffer, rects: &[Rect]) {
    for r in rects {
        let cols = r.x as usize..r.right() as usize;
        for y in r.y as u32..r.bottom() as u32 {
            to.row_mut(y)[cols.clone()].copy_from_slice(&from.row(y)[cols.clone()]);
        }
    }
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
        // One pixel per character cell, fitted with the panel's aspect
        // ratio as it is; rows are not halved for the taller cells.
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

#[cfg(test)]
mod rescale_tests {
    use super::*;
    use uniint_raster::geom::Point;

    #[test]
    fn a_call_rescales_the_footprints_of_what_was_written_since_the_last() {
        for mut plugin in [
            ScreenPlugin::tv(),
            ScreenPlugin::pda(),
            ScreenPlugin::phone_lcd(),
        ] {
            let mut fb = Framebuffer::new(320, 226, Color::LIGHT_GRAY);
            fb.fill_rect(Rect::new(20, 20, 100, 60), Color::BLUE);
            let first = plugin.adapt(&fb);
            // Nothing written: the same frame, with nothing changed.
            let again = plugin.adapt(&fb);
            assert!(Arc::ptr_eq(&first.frame, &again.frame), "{}", plugin.kind);
            assert!(again.changed.is_empty());
            fb.set_pixel(Point::new(200, 35), Color::RED);
            fb.fill_rect(Rect::new(202, 35, 2, 1), Color::RED);
            let kept = plugin.kept.as_mut().expect("kept after a call");
            let rescale = kept.outdated(&fb, plugin.caps.scale);
            let footprint = kept.scaler.footprint(Rect::new(200, 35, 4, 1));
            assert_eq!(rescale.bounding_rect(), footprint, "{}", plugin.kind);
            // A copy of the frame has no journal the plug-in knows.
            let copy = fb.clone();
            let whole = kept.outdated(&copy, plugin.caps.scale);
            assert_eq!(whole.rects(), &[kept.device.bounds()]);
        }
    }
}
