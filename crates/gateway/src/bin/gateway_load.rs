//! Loopback load generator for the TCP gateway.
//!
//! Spawns one gateway serving a small appliance panel and N concurrent
//! socket clients, each in its own thread clicking the panel and
//! waiting for the resulting framebuffer update. Reports aggregate
//! update throughput, per-interaction latency percentiles, CPU per
//! update split between the gateway and the load clients, and the bytes
//! the gateway wrote per update (`gateway.bytes_out`).
//!
//! ```text
//! gateway_load [--clients N] [--duration-ms MS] [--record PATH]
//! ```
//!
//! With `--record`, the gateway's state thread captures every message
//! it processes into a flight-recorder trace written to `PATH` on exit
//! (inspect it with `trace_dump`).
//!
//! CPU comes from the C library's `clock_gettime` (Linux). Each
//! `gl-client-N` thread reads its own `CLOCK_THREAD_CPUTIME_ID` when its
//! run ends; the gateway's share is the whole process
//! (`CLOCK_PROCESS_CPUTIME_ID`) minus the clients and the main thread.
//! On other systems both read 0.
//!
//! The run exits with status 1 if the gateway dropped any connection
//! (`gateway.dropped_connections`): every load client reads all it is
//! sent, so a drop means the outbound bound cut off a healthy client.
//! On Linux it also exits with status 1 if a client that applied
//! updates reports no CPU time (the gateway's share would then silently
//! include the clients'), or unless, once every client has connected,
//! exactly one thread is named `gw-*` (`/proc/self/task/*/comm`): the
//! gateway serves every socket from its `gw-state` thread.

use std::time::{Duration, Instant};

use uniint_gateway::prelude::*;
use uniint_protocol::input::InputEvent;
use uniint_protocol::message::{ClientMessage, PROTOCOL_VERSION};
use uniint_raster::geom::Rect;
use uniint_raster::pixel::PixelFormat;
use uniint_telemetry::registry::Registry;
use uniint_trace::format::TraceHeader;
use uniint_trace::recorder::Recorder;
use uniint_wsys::prelude::{Theme, Toggle, Ui};

struct Args {
    clients: usize,
    duration: Duration,
    record: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        clients: 8,
        duration: Duration::from_millis(2000),
        record: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab =
            |name: &str| -> String { it.next().unwrap_or_else(|| panic!("{name} needs a value")) };
        let num = |name: &str, v: String| -> u64 {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} needs a numeric value"))
        };
        match flag.as_str() {
            "--clients" => args.clients = num("--clients", grab("--clients")) as usize,
            "--duration-ms" => {
                args.duration = Duration::from_millis(num("--duration-ms", grab("--duration-ms")))
            }
            "--record" => args.record = Some(grab("--record")),
            other => {
                eprintln!(
                    "unknown flag {other}; usage: gateway_load [--clients N] \
                     [--duration-ms MS] [--record PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

#[cfg(target_os = "linux")]
mod clock {
    /// `struct timespec` on Linux: `time_t` and `long`, both the width
    /// of a pointer.
    #[repr(C)]
    struct Timespec {
        tv_sec: isize,
        tv_nsec: isize,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    pub const PROCESS_CPUTIME: i32 = 2;
    pub const THREAD_CPUTIME: i32 = 3;

    /// The clock's reading in nanoseconds, or 0 if it cannot be read.
    pub fn read_ns(clock_id: i32) -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec`, and the
        // call writes nothing else.
        if unsafe { clock_gettime(clock_id, &mut ts) } != 0 {
            return 0;
        }
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

#[cfg(not(target_os = "linux"))]
mod clock {
    pub const PROCESS_CPUTIME: i32 = 0;
    pub const THREAD_CPUTIME: i32 = 0;

    pub fn read_ns(_clock_id: i32) -> u64 {
        0
    }
}

/// CPU time of the calling thread, nanoseconds.
fn thread_cpu_ns() -> u64 {
    clock::read_ns(clock::THREAD_CPUTIME)
}

/// CPU time of the whole process, every thread that ever ran included,
/// nanoseconds.
fn process_cpu_ns() -> u64 {
    clock::read_ns(clock::PROCESS_CPUTIME)
}

/// Threads of this process whose name starts with `gw-`; `None` where
/// `/proc/self/task` cannot be read.
fn gateway_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let names = tasks.filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok());
    Some(names.filter(|name| name.starts_with("gw-")).count())
}

fn main() {
    let args = parse_args();

    let mut ui = Ui::new(160, 120, Theme::classic(), "load-panel");
    ui.add(Toggle::new("Power", false), Rect::new(20, 20, 120, 28));
    let registry = Registry::new();
    let mut config = GatewayConfig::default();
    let recorder = args.record.as_ref().map(|_| {
        let rec = Recorder::new(TraceHeader {
            seed: 0, // Wall-clock run: there is no seed.
            protocol_version: PROTOCOL_VERSION,
            pixel_format: PixelFormat::Rgb888,
        });
        rec.attach_telemetry(&registry);
        config.recorder = Some(rec.tap());
        rec
    });
    let gw = Gateway::spawn(ui, config, registry.clone()).expect("gateway binds loopback");
    let addr = gw.local_addr();

    let (connected, all_connected) = std::sync::mpsc::channel();
    let workers: Vec<_> = (0..args.clients)
        .map(|i| {
            let duration = args.duration;
            let connected = connected.clone();
            let worker = move || -> (u64, Vec<u64>, u64) {
                let mut c = GatewayClient::connect(addr, format!("load-{i}"), i as u64)
                    .expect("client connects");
                let _ = connected.send(());
                // Drain the initial full update before timing starts.
                let warmup = Instant::now();
                while c.stats().updates_applied == 0 && warmup.elapsed() < Duration::from_secs(5) {
                    c.pump_once().expect("pump");
                }
                let mut latencies_us = Vec::new();
                let t0 = Instant::now();
                while t0.elapsed() < duration {
                    let before = c.stats().updates_applied;
                    let sent = Instant::now();
                    c.send_messages(
                        InputEvent::click(80, 34)
                            .into_iter()
                            .map(ClientMessage::Input)
                            .collect(),
                    );
                    // Wait for the update this click provokes.
                    while c.stats().updates_applied == before
                        && sent.elapsed() < Duration::from_secs(2)
                    {
                        c.pump_once().expect("pump");
                    }
                    latencies_us.push(sent.elapsed().as_micros() as u64);
                }
                (c.stats().updates_applied, latencies_us, thread_cpu_ns())
            };
            std::thread::Builder::new()
                .name(format!("gl-client-{i}"))
                .spawn(worker)
                .expect("spawn load client")
        })
        .collect();
    drop(connected);
    // Stops early only if a client failed to connect; its join says why.
    let _ = (0..args.clients).try_for_each(|_| all_connected.recv());
    let gw_threads = gateway_threads();

    let mut total_updates = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut client_cpu_ns = 0u64;
    let mut clients_without_cpu = 0;
    for w in workers {
        let (updates, lat, cpu_ns) = w.join().expect("worker");
        total_updates += updates;
        latencies.extend(lat);
        client_cpu_ns += cpu_ns;
        clients_without_cpu += usize::from(updates > 0 && cpu_ns == 0);
    }
    let _panel = gw.shutdown();
    let gateway_cpu_ns = process_cpu_ns()
        .saturating_sub(client_cpu_ns)
        .saturating_sub(thread_cpu_ns());
    let counters = registry.snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let dropped = counter("gateway.dropped_connections");

    if let (Some(rec), Some(path)) = (recorder, args.record.as_ref()) {
        let records = rec.records_written();
        let dropped = rec.dropped_chunks();
        rec.finish_to(path).expect("write trace");
        println!("gateway_load: recorded {records} messages to {path} ({dropped} chunks dropped)");
    }

    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    let secs = args.duration.as_secs_f64();
    println!(
        "gateway_load: {} clients, {:.1}s: {} updates ({:.0} updates/sec), \
         frame latency p50 {} us, p99 {} us",
        args.clients,
        secs,
        total_updates,
        total_updates as f64 / secs,
        pct(0.50),
        pct(0.99),
    );
    let per_update = |v: u64| v as f64 / total_updates.max(1) as f64;
    println!(
        "gateway_load: cpu per update: gateway {:.1} us (gw-state thread), \
         load clients {:.1} us (gl-client-* threads); \
         bytes per update: gateway.bytes_out {:.1} B",
        per_update(gateway_cpu_ns) / 1e3,
        per_update(client_cpu_ns) / 1e3,
        per_update(counter("gateway.bytes_out")),
    );
    let counted = gw_threads.map_or("unknown".to_string(), |n| n.to_string());
    println!("gateway_load: gateway threads (gw-*) {counted}");
    println!("gateway_load: gateway.dropped_connections {dropped}");
    if dropped > 0 {
        eprintln!("gateway_load: the gateway dropped {dropped} load client(s)");
        std::process::exit(1);
    }
    // Only Linux has the clock and `/proc`; elsewhere both read nothing.
    if cfg!(target_os = "linux") && gw_threads != Some(1) {
        eprintln!("gateway_load: the gateway should run on one gw-* thread");
        std::process::exit(1);
    }
    if cfg!(target_os = "linux") && clients_without_cpu > 0 {
        eprintln!(
            "gateway_load: {clients_without_cpu} client(s) applied updates but read no CPU time"
        );
        std::process::exit(1);
    }
}
