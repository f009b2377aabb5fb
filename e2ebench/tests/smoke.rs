//! Smoke run of the benchmark binary: every workload at tiny size, with
//! every output check, in both the timed and the traced mode.

use std::process::Command;

fn run(trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_xfd-e2ebench"))
        .args([
            "--workload",
            "all",
            "--smoke",
            "--seconds",
            "1",
            "--seed",
            "1",
        ])
        .args(["--trace", trace])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "exit {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// The result lines of the four workloads, then the summary line.
fn results(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\": "))
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_metric() {
    let stdout = run("0");
    let lines = results(&stdout);
    assert_eq!(lines.len(), 5, "{stdout}");
    for line in &lines {
        assert!(line.starts_with("{\"correct\": true"), "{line}\n{stdout}");
        assert!(line.contains("\"failed\": 0,"), "{line}");
    }
    // Every end-to-end metric BENCHMARK.json names, on every workload.
    let benchmark = include_str!("../../BENCHMARK.json");
    let end_to_end = &benchmark
        [benchmark.find("\"end_to_end\"").unwrap()..benchmark.find("\"per_layer\"").unwrap()];
    let names: Vec<&str> = end_to_end
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert!(names.contains(&"setup_s") && names.len() >= 4, "{names:?}");
    for line in &lines[..4] {
        for name in &names {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}: {line}"
            );
        }
        assert!(
            line.contains("\"ok_frac\": {\"value\": 1, \"unit\": \"ratio\"}"),
            "{line}"
        );
    }
}

#[test]
fn traced_runs_report_layers_and_write_spans() {
    let stdout = run("1");
    let lines = results(&stdout);
    assert_eq!(lines.len(), 5, "{stdout}");
    for line in &lines {
        assert!(line.starts_with("{\"correct\": true"), "{line}\n{stdout}");
    }
    for name in [
        "xml.parse_ms",
        "core.discover_forest_ms",
        "lattice.nodes_visited",
        "memo.hit_ratio",
        "server.result_cache_hit_ratio",
        "trace.unaccounted_frac",
    ] {
        assert!(
            lines[0].contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
    }
    assert!(stdout.contains("spans written to"), "{stdout}");
}
