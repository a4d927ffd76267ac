//! The result a run prints: named metrics with units, the output checks,
//! and the operations attempted and failed.

use std::fmt::Write as _;

use crate::probe::json_escape;

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The measured value behind the verdict.
    pub detail: String,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Output {
    metrics: Vec<(String, f64, &'static str)>,
    checks: Vec<Check>,
    /// Serving operations attempted: blocks, epoch boundaries, resumes.
    pub operations: u64,
    /// The end-to-end timings before host-speed scaling, as a JSON
    /// object, for the information line.
    pub raw_timings: Option<String>,
}

impl Output {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a check and its evidence.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        });
    }

    /// The checks so far.
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    fn non_finite(&self) -> usize {
        self.metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .count()
    }

    /// Failed operations: failed checks plus metrics that could not be
    /// measured (not finite).
    pub fn failed(&self) -> u64 {
        (self.checks.iter().filter(|c| !c.passed).count() + self.non_finite()) as u64
    }

    /// Operations attempted: serving operations plus checks.
    pub fn attempted(&self) -> u64 {
        self.operations + self.checks.len() as u64
    }

    /// The checks as a JSON array.
    pub fn checks_json(&self) -> String {
        let items: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": \"{}\", \"passed\": {}, \"detail\": \"{}\"}}",
                    json_escape(&c.name),
                    c.passed,
                    json_escape(&c.detail)
                )
            })
            .collect();
        format!("[{}]", items.join(", "))
    }

    /// The metrics as a JSON object of `{"value", "unit"}` objects. A
    /// metric that is not finite is printed as `null`.
    pub fn metrics_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                json_escape(name)
            );
        }
        format!("{{{metrics}}}")
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// A metric that is not finite counts as a failure.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed() == 0,
            self.attempted(),
            self.failed(),
            self.metrics_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_make_the_result_incorrect() {
        let mut out = Output {
            operations: 10,
            ..Output::default()
        };
        out.metric("latency_ms", 1.25, "ms");
        out.check("labels in range", true, "ok");
        assert!(out
            .result_json()
            .starts_with("{\"correct\": true, \"attempted\": 11, \"failed\": 0"));
        out.check("digest", false, "mismatch");
        out.metric("broken", f64::NAN, "s");
        let line = out.result_json();
        assert!(line.contains("\"failed\": 2"), "{line}");
        assert!(line.contains("\"broken\": {\"value\": null"), "{line}");
    }
}
