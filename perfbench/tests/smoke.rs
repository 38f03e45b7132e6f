//! Runs every workload at smoke scale and checks that the final line holds
//! exactly the metrics `BENCHMARK.json` declares, that every output check
//! ran and passed, and that the report names the workload's own metrics.

use std::process::Command;

/// The `"name"` values of one list in `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list end")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name value") + 1..];
            rest[..rest.find('"').expect("name end")].to_string()
        })
        .collect()
}

/// Runs one smoke workload; returns its standard output.
fn smoke(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Metric names of the final JSON line, in order.
fn metric_names(result: &str) -> Vec<String> {
    let metrics = &result[result.find("\"metrics\"").expect("metrics key")..];
    let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
    // Each chunk but the last ends with the name of the metric that the
    // next chunk's value belongs to.
    chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| {
            let end = chunk.rfind("\": ")?;
            let start = chunk[..end].rfind('"')? + 1;
            Some(chunk[start..end].to_string())
        })
        .collect()
}

fn check_workload(workload: &str, named: &[&str]) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let stdout = smoke(workload, trace);
        let result = stdout.lines().last().expect("a result line");
        assert!(
            result.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {result}"
        );
        assert!(result.contains("\"failed\": 0,"), "{workload}: {result}");
        assert_eq!(
            metric_names(result),
            declared(section),
            "{workload} trace {trace}"
        );
        let checks = stdout
            .lines()
            .find_map(|l| l.strip_prefix("checks: "))
            .and_then(|l| l.split(' ').next())
            .and_then(|n| n.parse::<u64>().ok())
            .expect("a checks line");
        assert!(checks > 0, "{workload} ran no checks");
        for name in named {
            assert!(
                stdout.lines().any(|l| l.starts_with(name)),
                "{workload} report lacks {name}:\n{stdout}"
            );
        }
        if trace == 1 {
            assert!(
                stdout.contains("attribution: layer spans explain"),
                "{stdout}"
            );
            assert!(stdout.contains("trace overhead: "), "{stdout}");
        }
    }
}

#[test]
fn reproduce_smoke() {
    check_workload(
        "reproduce",
        &[
            "setup_s",
            "reproduce_s",
            "generate_payments_per_s",
            "studies_s",
        ],
    );
}

#[test]
fn replay_smoke() {
    check_workload(
        "replay",
        &[
            "setup_s",
            "table2_replay_payments_per_s",
            "mm_replay_payments_per_s",
            "control_replay_payments_per_s",
            "probes_per_s",
        ],
    );
}

#[test]
fn serve_smoke() {
    check_workload(
        "serve",
        &["setup_s", "lookups_per_s", "point_us", "scan_us"],
    );
}
