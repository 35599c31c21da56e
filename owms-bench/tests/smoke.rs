//! Runs `owms-bench --smoke` through `run.sh`, the way `BENCHMARK.json`
//! runs the benchmark: builds `owms-serve` and `owms-bench` in release
//! mode into this package's target directory, then takes all five
//! workloads and one traced run at small sizes with every output check.
//! Keeps the harness from rotting while the program changes under it.

use std::process::Command;

#[test]
fn smoke_run_passes_every_check() {
    let package = env!("CARGO_MANIFEST_DIR");
    let out = Command::new("bash")
        .arg(format!("{package}/run.sh"))
        .arg("--smoke")
        .current_dir(package)
        // The smoke run builds release binaries whatever profile and
        // target directory this test was built with.
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .expect("bash runs run.sh");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed\n--- stdout\n{stdout}\n--- stderr\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(
        results.len(),
        6,
        "five workloads and one traced run:\n{stdout}"
    );
    for line in results {
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    }
}
