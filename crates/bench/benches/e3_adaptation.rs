//! E3 — Output adaptation throughput at the UniInt proxy.
//!
//! Cost of adapting a 640×480 server frame to each output device profile
//! (scale + quantize + dither): whole-frame by a fresh plug-in, and
//! incrementally after a slider-band change; plus the individual
//! pipeline stages.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use uniint_bench::panel_ui;
use uniint_core::plugin::OutputPlugin;
use uniint_devices::prelude::{ScreenPlugin, TerminalPlugin};
use uniint_raster::color::Color;
use uniint_raster::dither::{dither_to_format, DitherMode};
use uniint_raster::geom::{Rect, Size};
use uniint_raster::pixel::PixelFormat;
use uniint_raster::scale::{scale, ScaleFilter};

/// The device profiles E3 adapts for.
const DEVICES: [fn() -> Box<dyn OutputPlugin>; 5] = [
    || Box::new(ScreenPlugin::tv()),
    || Box::new(ScreenPlugin::pda()),
    || Box::new(ScreenPlugin::phone_lcd()),
    || Box::new(ScreenPlugin::eyepiece()),
    || Box::new(TerminalPlugin::standard()),
];

fn bench_plugins(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_adapt");
    let ui = panel_ui(Size::new(640, 480));
    let frame = ui.framebuffer();
    group.throughput(Throughput::Elements(frame.size().area()));
    for device in DEVICES {
        // A fresh plug-in per iteration: nothing is kept from the last
        // call, so this times a whole-frame adapt.
        group.bench_function(device().kind(), |b| {
            b.iter(|| black_box(device().adapt(frame)));
        });
    }
    group.finish();
}

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_adapt_incremental");
    let ui = panel_ui(Size::new(640, 480));
    let frame = ui.framebuffer();
    // The slider-band change E3's delta column measures, undone and
    // redone on alternate calls.
    let mut dragged = frame.clone();
    dragged.fill_rect(Rect::new(8, 240, 600, 16), Color::DARK_GRAY);
    for device in DEVICES {
        let mut plugin = device();
        plugin.adapt(frame);
        let mut flip = false;
        group.bench_function(plugin.kind(), |b| {
            b.iter(|| {
                flip = !flip;
                black_box(plugin.adapt(if flip { frame } else { &dragged }))
            });
        });
    }
    group.finish();
}

fn bench_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_stages");
    let ui = panel_ui(Size::new(640, 480));
    let frame = ui.framebuffer();
    for filter in [
        ScaleFilter::Nearest,
        ScaleFilter::Bilinear,
        ScaleFilter::Box,
    ] {
        group.bench_function(format!("scale_{filter}"), |b| {
            b.iter(|| black_box(scale(frame, Size::new(240, 180), filter)));
        });
    }
    let small = scale(frame, Size::new(240, 180), ScaleFilter::Box);
    for mode in [
        DitherMode::None,
        DitherMode::Ordered4x4,
        DitherMode::FloydSteinberg,
    ] {
        group.bench_function(format!("dither_{mode}_mono"), |b| {
            b.iter(|| black_box(dither_to_format(&small, PixelFormat::Mono1, mode)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_plugins, bench_incremental, bench_stages);
criterion_main!(benches);
