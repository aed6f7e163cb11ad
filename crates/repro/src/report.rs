//! Structured experiment output: a human-readable report plus named
//! scalar metrics.
//!
//! Every experiment in [`crate::manifest`] produces both artifacts from a
//! single run: the `text` is what `resmatch-repro run` prints and what
//! `render` commits under `results/`, and the `metrics` are what
//! [`crate::expect`] gates and what the EXPERIMENTS.md tables are rendered
//! from. Keeping them in one value is the point of the pipeline — the
//! document can never show numbers the checks did not see.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named scalar measurements extracted from one experiment run.
///
/// Keys are stable snake_case identifiers referenced by expectations and
/// by the EXPERIMENTS.md table templates; values are `f64` (boolean facts
/// are recorded as `0.0` / `1.0`). A `BTreeMap` keeps serialization and
/// iteration deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Empty metric set.
    pub fn new() -> Self {
        Metrics(BTreeMap::new())
    }

    /// Record `name = value`, overwriting any previous value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of recorded metrics.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// What one experiment run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutput {
    /// The full self-describing report, byte-for-byte what the
    /// corresponding `results/<id>.txt` artifact holds.
    pub text: String,
    /// Scalar measurements gated by the manifest's expectations.
    pub metrics: Metrics,
}

/// Incremental builder for an [`ExperimentOutput`].
///
/// The formatting helpers mirror what the experiment binaries printed
/// before the extraction (PR 4), so regenerated `results/` artifacts stay
/// diffable against their history.
#[derive(Debug, Default)]
pub struct Report {
    text: String,
    metrics: Metrics,
}

impl Report {
    /// Start an empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Append a ruled section header (the `== title ====` rule the
    /// binaries always printed).
    pub fn header(&mut self, title: &str) {
        let _ = writeln!(
            self.text,
            "\n== {title} {}",
            "=".repeat(68usize.saturating_sub(title.len()))
        );
    }

    /// Append one formatted line (use through the [`crate::out!`] macro).
    pub fn push_line(&mut self, args: std::fmt::Arguments<'_>) {
        let _ = self.text.write_fmt(args);
        self.text.push('\n');
    }

    /// Record a named scalar metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.set(name, value);
    }

    /// Record a boolean fact as a `0.0` / `1.0` metric.
    pub fn flag(&mut self, name: &str, value: bool) {
        self.metrics.set(name, if value { 1.0 } else { 0.0 });
    }

    /// Finish the report.
    pub fn finish(self) -> ExperimentOutput {
        ExperimentOutput {
            text: self.text,
            metrics: self.metrics,
        }
    }
}

/// Append one `format!`-style line to a [`Report`].
///
/// ```
/// use resmatch_repro::{out, report::Report};
/// let mut r = Report::new();
/// out!(r, "utilization {:.3}", 0.5);
/// assert_eq!(r.finish().text, "utilization 0.500\n");
/// ```
#[macro_export]
macro_rules! out {
    ($r:expr) => { $r.push_line(format_args!("")) };
    ($r:expr, $($arg:tt)*) => { $r.push_line(format_args!($($arg)*)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_builds_text_and_metrics() {
        let mut r = Report::new();
        r.header("t");
        out!(r, "x {:>5.2}", 1.25);
        r.metric("a", 2.0);
        r.flag("b", true);
        let o = r.finish();
        assert!(o.text.starts_with("\n== t "));
        assert!(o.text.contains("x  1.25\n"));
        assert_eq!(o.metrics.get("a"), Some(2.0));
        assert_eq!(o.metrics.get("b"), Some(1.0));
    }
}
