//! Harness tests: failing cells are counted, and each mode prints exactly the
//! metrics `BENCHMARK.json` names.

use blockfed_cellbench::workload::{Workload, WORKLOADS};
use blockfed_cellbench::{run_traced, run_untraced, Args, Report, END_TO_END, PER_LAYER};
use blockfed_scenario::ScenarioSpec;

/// A 3-peer, 2-round cell that runs in milliseconds.
fn tiny(accuracy_floor: f64) -> Workload {
    Workload {
        name: "tiny".into(),
        spec: ScenarioSpec::new("tiny", 3).rounds(2),
        accuracy_floor,
        lossy: false,
    }
}

/// `(name, unit)` of every entry in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("closed")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            let unit = if entry.contains("\"unit\"") {
                field(entry, "unit")
            } else {
                String::new()
            };
            (field(entry, "name"), unit)
        })
        .collect()
}

fn names(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|(n, _, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn listed(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_names_the_harness_workloads_and_metrics() {
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(declared("end_to_end"), listed(&END_TO_END));
    assert_eq!(declared("per_layer"), listed(&PER_LAYER));
    for name in WORKLOADS {
        assert!(Workload::named(name, None).is_some(), "{name}");
    }
}

#[test]
fn untraced_mode_prints_every_end_to_end_metric() {
    let report = run_untraced(&tiny(0.0), 0.0);
    assert!(report.correct, "{report:?}");
    assert_eq!((report.attempted, report.failed), (3, 0));
    assert_eq!(names(&report), listed(&END_TO_END));
    assert!(
        report.metrics.iter().all(|(_, v, _)| *v > 0.0),
        "{report:?}"
    );
    let json = report.to_json();
    for (name, unit) in END_TO_END {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{json}"
        );
        assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{json}");
    }
    assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
}

#[test]
fn traced_mode_prints_exactly_the_per_layer_metrics_and_matches_untraced() {
    let report = run_traced(&tiny(0.0), 0.0, 7);
    assert!(
        report.correct,
        "traced outputs must equal untraced ones: {report:?}"
    );
    assert_eq!((report.attempted, report.failed), (2, 0));
    assert_eq!(names(&report), listed(&PER_LAYER));
    let value = |name: &str| report.metrics.iter().find(|m| m.0 == name).expect(name).1;
    assert_eq!(value("core.peer_rounds"), 6.0);
    assert_eq!(value("nn.local_trainings"), 6.0);
    assert!(value("core.loop_s") > 0.0 && value("nn.train_s") > 0.0);
}

#[test]
fn the_command_prints_every_declared_metric_on_its_last_line() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cellbench"))
            .args([
                "--workload",
                "lossy64",
                "--seed",
                "3",
                "--seconds",
                "0",
                "--trace",
                trace,
            ])
            .output()
            .expect("the benchmark binary runs");
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{stdout}"
        );
        let declared = declared(section);
        assert_eq!(last.matches("\"unit\"").count(), declared.len(), "{last}");
        for (name, unit) in declared {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = last
                .find(&entry)
                .unwrap_or_else(|| panic!("{name} missing: {last}"));
            let tail = &last[at..];
            assert!(
                tail[..tail.find('}').expect("closed")].ends_with(&format!("\"unit\": \"{unit}\""))
            );
        }
    }
    let bad = std::process::Command::new(env!("CARGO_BIN_EXE_cellbench"))
        .args(["--workload", "nope", "--seconds", "0"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!bad.status.success() && bad.stdout.iter().all(|&b| b != b'{'));
}

#[test]
fn a_cell_failing_its_check_is_counted_not_crashed() {
    let report = run_untraced(&tiny(2.0), 0.0);
    assert!(!report.correct);
    assert_eq!((report.attempted, report.failed), (6, 6));
    assert_eq!(names(&report), listed(&END_TO_END));
}

#[test]
fn a_panicking_cell_is_counted_not_crashed() {
    let mut w = tiny(0.0);
    w.spec = ScenarioSpec::new("one-peer", 1); // rejected by validation: panics
    let report = run_untraced(&w, 0.0);
    assert!(!report.correct);
    assert_eq!((report.attempted, report.failed), (6, 6));
    let traced = run_traced(&w, 0.0, 7);
    assert!(!traced.correct);
    assert_eq!(traced.failed, traced.attempted);
}

#[test]
fn args_parse_the_command_line_form() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let args = parse("--workload lossy64 --seed 9 --seconds 20 --trace 1").unwrap();
    assert_eq!(
        (args.workload.as_str(), args.seed, args.cell_seed),
        ("lossy64", 9, None)
    );
    assert!(args.trace && args.seconds == 20.0);
    assert_eq!(
        parse("--workload x --cell-seed 5").unwrap().cell_seed,
        Some(5)
    );
    assert!(parse("--workload x --trace 2").is_err());
    assert!(parse("--seed 1").is_err());
    assert!(parse("--workload x --bogus 1").is_err());
}
