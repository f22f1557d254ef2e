//! Deterministic experiment snapshot for CI regression gating.
//!
//! Runs the quick catalogue (E1–E12, see [`uniint_bench::snapshot`]) and
//! emits one canonical-JSON document of shape
//! `{ experiment: { metric: integer } }`. Every metric is derived from
//! the virtual clock, wire byte counts or telemetry counters — never
//! from wall time — so the same toolchain produces the same bytes on
//! every run and the document can be diffed against a checked-in
//! baseline. (E11 exercises the loopback TCP gateway; it runs under
//! wall-clock but records only serialized, race-free counters.)
//!
//! Usage:
//!
//! ```text
//! bench_snapshot [--out FILE] [--baseline FILE]
//! ```
//!
//! With `--out` the JSON is written to `FILE` (stdout otherwise). With
//! `--baseline` the snapshot is compared against the baseline document
//! by [`uniint_bench::compare`]: regression counters (`full_resyncs`,
//! `flood_dropped`, `diverged`) must not increase, digests must not
//! change, everything else must stay within a per-metric tolerance.
//! Exits non-zero if any metric fails.

use std::process::ExitCode;

use uniint_telemetry::json::parse;

fn main() -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next(),
            "--baseline" => baseline_path = args.next(),
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let snap = uniint_bench::snapshot();
    let json = snap.to_canonical();
    match &out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(p, &json) {
                eprintln!("cannot write {p}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {p}");
        }
        None => print!("{json}"),
    }

    let Some(p) = baseline_path else {
        return ExitCode::SUCCESS;
    };
    let baseline = match std::fs::read_to_string(&p)
        .map_err(|e| e.to_string())
        .and_then(|t| parse(&t).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cannot read baseline {p}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failures = uniint_bench::compare(&snap, &baseline);
    if failures.is_empty() {
        eprintln!("baseline check passed ({p})");
        return ExitCode::SUCCESS;
    }
    eprintln!("baseline check FAILED ({p}):");
    for f in &failures {
        eprintln!("  {f}");
    }
    ExitCode::FAILURE
}
