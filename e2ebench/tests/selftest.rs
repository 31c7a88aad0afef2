//! Self-tests: every workload at a smoke size reports every metric, and an
//! injected fault fails the output check that should catch it.

use e2ebench::report::{result_line, END_TO_END, PER_LAYER};
use e2ebench::{run, Inject, RunArgs, Scale, WORKLOADS};

fn args(workload: &str, trace: bool, inject: Option<Inject>) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.01,
        trace,
        scale: Scale::Smoke,
        inject,
    }
}

fn check_ok(out: &e2ebench::report::Outcome, name: &str) -> bool {
    out.checks
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no check {name}: {:?}", out.checks))
        .ok
}

#[test]
fn smoke_every_workload_reports_every_metric_with_its_unit() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let out = run(&args(w, trace, None)).unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(out.correct(), "{w} trace={trace}: {:?}", out.checks);
            assert_eq!(out.error_rate(), 0.0);
            let table = out.table(trace).unwrap_or_else(|e| panic!("{w}: {e}"));
            let defs = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(table.len(), defs.len());
            for ((name, unit, v), (want_name, want_unit)) in table.iter().zip(defs) {
                assert_eq!((name, unit), (want_name, want_unit));
                assert!(v.is_finite(), "{w}: {name} = {v}");
                if !trace {
                    assert!(*v > 0.0, "{w}: end-to-end metric {name} reads {v}");
                }
            }
            let line = result_line(out.correct(), out.attempted, out.failed, &table);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            for (name, unit) in defs {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
            }
        }
    }
}

#[test]
fn traced_unit_run_closes_its_ledger() {
    let out = run(&args("unit_noop", true, None)).expect("traced smoke run");
    assert!(check_ok(&out, "ledger_closes"));
    let shares: f64 = [
        "submit", "queue", "dispatch", "kernel", "report", "sink", "fold", "query",
    ]
    .iter()
    .map(|s| out.values[format!("ledger.{s}_share_mean").as_str()])
    .sum();
    assert!((shares - 1.0).abs() < 1e-9, "mean shares sum to {shares}");
    assert!(out.values["ledger.units"] > 0.0);
}

#[test]
fn a_corrupted_frame_fails_the_peak_check() {
    let out = run(&args("stream_frames", false, Some(Inject::CorruptFrame))).expect("run");
    assert!(!check_ok(&out, "frame_peaks"), "{:?}", out.checks);
    assert!(check_ok(&out, "group_committed"));
    assert!(out.failed >= 1 && !out.correct());
}

#[test]
fn a_suppressed_done_fails_the_visibility_checks() {
    let out = run(&args("unit_noop", false, Some(Inject::SuppressDone))).expect("run");
    assert!(!check_ok(&out, "all_units_visible"), "{:?}", out.checks);
    assert!(!check_ok(&out, "dashboard_done"));
    assert!(check_ok(&out, "service_units_done"));
    assert_eq!(out.failed, 1);
    assert!(!out.correct());
}

/// Innermost `{...}` objects of a JSON text that carry a `"name"`, as
/// `(name, unit)` (unit empty when absent).
fn named_objects(json: &str) -> Vec<(String, String)> {
    let field = |obj: &str, key: &str| {
        let pat = format!("\"{key}\": \"");
        obj.find(&pat).map(|i| {
            let rest = &obj[i + pat.len()..];
            rest[..rest.find('"').unwrap_or(rest.len())].to_string()
        })
    };
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in json.char_indices() {
        match c {
            '{' => start = Some(i),
            '}' => {
                if let Some(s) = start.take() {
                    let obj = &json[s..=i];
                    if let Some(name) = field(obj, "name") {
                        out.push((name, field(obj, "unit").unwrap_or_default()));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[test]
fn benchmark_json_lists_the_workloads_and_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let objs = named_objects(&json);
    let want: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.to_string(), String::new()))
        .chain(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .map(|(n, u)| (n.to_string(), u.to_string())),
        )
        .collect();
    assert_eq!(objs, want);
}
