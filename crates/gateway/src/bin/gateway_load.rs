//! Loopback load generator for the TCP gateway.
//!
//! Spawns one gateway serving a small appliance panel and N socket
//! clients, all driven from the main thread through one
//! `pump_clients` wait: each client clicks the panel, waits for the
//! resulting framebuffer update, and clicks again. Reports aggregate
//! update throughput, per-interaction latency percentiles, CPU per
//! update split between the gateway and the load clients, the bytes the
//! gateway wrote per update (`gateway.bytes_out`), the process's
//! threads and its peak resident set (`VmHWM`).
//!
//! ```text
//! gateway_load [--clients N] [--duration-ms MS] [--record PATH]
//! ```
//!
//! With `--record`, the gateway's state thread captures every message
//! it processes into a flight-recorder trace written to `PATH` on exit
//! (inspect it with `trace_dump`).
//!
//! CPU comes from the C library's `clock_gettime` (Linux): the load
//! clients' share is the main thread's `CLOCK_THREAD_CPUTIME_ID`, and
//! the gateway's is the whole process (`CLOCK_PROCESS_CPUTIME_ID`) minus
//! the main thread. On other systems both read 0.
//!
//! The run exits with status 1 if the gateway dropped any connection
//! (`gateway.dropped_connections`): every load client reads all it is
//! sent, so a drop means the outbound bound cut off a healthy client.
//! On Linux it also exits with status 1 unless, once every client has
//! connected, the process runs exactly two threads
//! (`/proc/self/task/*/comm`): the main thread with every client, and
//! the gateway's `gw-state` thread with every socket of the gateway.

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

/// This process's threads, and how many of them are named `gw-*`;
/// `None` where `/proc/self/task` cannot be read.
fn threads() -> Option<(usize, usize)> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let names: Vec<String> = tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .collect();
    Some((
        names.len(),
        names.iter().filter(|n| n.starts_with("gw-")).count(),
    ))
}

/// The process's peak resident set (`VmHWM`), kB; `None` where
/// `/proc/self/status` cannot be read.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Sends one click; returns when it left and the updates applied before.
fn click(c: &mut GatewayClient) -> (Instant, u64) {
    let msgs = InputEvent::click(80, 34)
        .into_iter()
        .map(ClientMessage::Input);
    let sent = (Instant::now(), c.stats().updates_applied);
    c.send_messages(msgs.collect());
    sent
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

    let mut clients: Vec<GatewayClient> = (0..args.clients)
        .map(|i| {
            GatewayClient::connect(addr, format!("load-{i}"), i as u64).expect("client connects")
        })
        .collect();
    let threads = threads();
    // Drain the initial full updates before timing starts.
    let warmup = Instant::now();
    while clients.iter().any(|c| c.stats().updates_applied == 0)
        && warmup.elapsed() < Duration::from_secs(5)
    {
        for r in pump_clients(&mut clients) {
            r.expect("pump");
        }
    }

    // Closed loop: each client clicks again once the update its click
    // provoked has arrived (or after 2 s without one), until the run
    // ends; the last clicks are still waited for.
    let mut latencies: Vec<u64> = Vec::new();
    let t0 = Instant::now();
    let mut waiting: Vec<_> = clients.iter_mut().map(|c| Some(click(c))).collect();
    while waiting.iter().any(Option::is_some) {
        for r in pump_clients(&mut clients) {
            r.expect("pump");
        }
        let more = t0.elapsed() < args.duration;
        for (c, w) in clients.iter_mut().zip(&mut waiting) {
            let Some((sent, before)) = *w else { continue };
            if c.stats().updates_applied > before || sent.elapsed() >= Duration::from_secs(2) {
                latencies.push(sent.elapsed().as_micros() as u64);
                *w = more.then(|| click(c));
            }
        }
    }
    let total_updates: u64 = clients.iter().map(|c| c.stats().updates_applied).sum();
    let _panel = gw.shutdown();
    // The main thread ran every client; every other thread that ever ran
    // was the gateway's.
    let client_cpu_ns = clock::read_ns(clock::THREAD_CPUTIME);
    let gateway_cpu_ns = clock::read_ns(clock::PROCESS_CPUTIME).saturating_sub(client_cpu_ns);
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
        let idx = (latencies.len().saturating_sub(1) as f64 * p).round() as usize;
        latencies.get(idx).copied().unwrap_or(0)
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
         load clients {:.1} us (main thread); \
         bytes per update: gateway.bytes_out {:.1} B",
        per_update(gateway_cpu_ns) / 1e3,
        per_update(client_cpu_ns) / 1e3,
        per_update(counter("gateway.bytes_out")),
    );
    let unknown = || "unknown".to_string();
    println!(
        "gateway_load: threads {}, peak RSS (VmHWM) {}",
        threads.map_or_else(unknown, |(all, gw)| format!("{all} (gw-* {gw})")),
        peak_rss_kb().map_or_else(unknown, |kb| format!("{kb} kB")),
    );
    println!("gateway_load: gateway.dropped_connections {dropped}");
    if dropped > 0 {
        eprintln!("gateway_load: the gateway dropped {dropped} load client(s)");
        std::process::exit(1);
    }
    // Only Linux has the clock and `/proc`; elsewhere both read nothing.
    if cfg!(target_os = "linux") && threads != Some((2, 1)) {
        eprintln!("gateway_load: expected two threads, main and gw-state");
        std::process::exit(1);
    }
}
