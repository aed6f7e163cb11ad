//! Smoke mode: every workload runs in-process at a tiny size, untraced
//! and traced, and its result line carries every named metric with its
//! unit and no failed operation. It is the only test in this binary
//! because the heap counter is process-wide: another test freeing memory
//! during a run could hide the run's own peak.

use resmatch_perfbench::report::{END_TO_END, PER_LAYER};
use resmatch_perfbench::{run, Scale, WORKLOADS};

/// The number after `"<name>": {"value": ` in the result line, checking
/// the unit that follows it.
fn metric(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("metric {name} missing from {line}"));
    let rest = &line[at + key.len()..];
    let end = rest.find(',').expect("value is followed by its unit");
    let tail = format!(", \"unit\": \"{unit}\"}}");
    assert!(
        rest[end..].starts_with(&tail),
        "{name} must carry unit {unit}"
    );
    rest[..end].parse().expect("metric value is a number")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for (traced, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let report = run(workload, 7, 0.2, traced, &Scale::smoke())
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert_eq!(report.failed(), 0, "{workload} traced={traced}");
            let line = report.json(traced);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload}: {line}"
            );
            assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
            assert_eq!(
                line.matches("\"unit\"").count(),
                defs.len(),
                "{workload}: {line}"
            );
            for (name, unit) in defs {
                let v = metric(&line, name, unit);
                assert!(v.is_finite() && v >= 0.0, "{workload} {name} = {v}");
                if !traced {
                    assert!(v > 0.0, "end-to-end {name} on {workload} must not be zero");
                }
            }
        }
    }
}
