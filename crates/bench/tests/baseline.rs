//! The quick catalogue against the checked-in baseline, so a renamed
//! snapshot key or a drifted counter fails `cargo test`, not only the
//! release-mode snapshot job.

#[test]
fn quick_snapshot_passes_baseline() {
    let baseline =
        uniint_telemetry::json::parse(include_str!("../baseline.json")).expect("baseline parses");
    let failures = uniint_bench::compare(&uniint_bench::snapshot(), &baseline);
    assert!(
        failures.is_empty(),
        "baseline check failed:\n{}",
        failures.join("\n")
    );
}
