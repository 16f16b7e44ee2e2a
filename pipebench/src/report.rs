//! Metric names, units and the result line.

use std::fmt::Write as _;

/// End-to-end metrics every workload reports (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("blocks_per_s", "1/s"),
    ("pct_optimal", "%"),
    ("mean_nops", "count"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports (`--trace 1`), with units.
/// A layer a workload does not call reports 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("bnb.omega_calls", "count"),
    ("bnb.ns_per_omega", "ns"),
    ("bnb.nodes", "count"),
    ("bnb.prune_ratio", "ratio"),
    ("bnb.truncated_ratio", "ratio"),
    ("bnb.self_ms", "ms"),
    ("bounds.lb_us", "us"),
    ("bounds.prune_share", "ratio"),
    ("timing.ns_per_tuple", "ns"),
    ("list.self_us", "us"),
    ("list.proved_ratio", "ratio"),
    ("windowed.self_us", "us"),
    ("windowed.proved_ratio", "ratio"),
    ("request.parse_us", "us"),
    ("json.render_us", "us"),
    ("ir.dag_us", "us"),
    ("core.ctx_us", "us"),
    ("canon.self_us", "us"),
    ("cache.get_us", "us"),
    ("cache.translate_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("serve.service_us_p50", "us"),
    ("serve.service_us_p99", "us"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_p99", "ms"),
    ("serve.backlog_max", "count"),
    ("serve.capacity_rps", "1/s"),
    ("proof.log_us", "us"),
    ("proof.events", "count"),
    ("proof.check_us", "us"),
    ("certify.us", "us"),
    ("sat.self_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.propagations_per_s", "1/s"),
    ("audit.us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("replay.requests", "count"),
    ("replay.mismatches", "count"),
    ("bnb.calls", "count"),
    ("list.calls", "count"),
    ("windowed.calls", "count"),
    ("sat.calls", "count"),
];

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"))
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Everything one run produces.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// False when the run's outputs or its own validity checks failed.
    pub valid: bool,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn new() -> Self {
        RunReport {
            valid: true,
            ..Default::default()
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = unit_of(&END_TO_END, name);
        self.end_to_end.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = unit_of(&PER_LAYER, name);
        self.per_layer.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a failed output check (counted in `failed`, shown once per
    /// kind in the notes).
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 20 {
            self.notes.push(format!("FAIL {what}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.valid && self.failed == 0
    }

    /// The metric set `--trace` selects, in declaration order; every
    /// declared name must have been reported exactly once.
    fn selected(&self, trace: bool) -> Vec<&Metric> {
        let (table, got) = if trace {
            (&PER_LAYER[..], &self.per_layer)
        } else {
            (&END_TO_END[..], &self.end_to_end)
        };
        table
            .iter()
            .map(|(name, _)| {
                let mut hits = got.iter().filter(|m| m.name == *name);
                let m = hits
                    .next()
                    .unwrap_or_else(|| panic!("metric `{name}` was not reported"));
                assert!(hits.next().is_none(), "metric `{name}` reported twice");
                m
            })
            .collect()
    }

    /// Human-readable metric lines: name, value, unit, sample count.
    pub fn metric_lines(&self, trace: bool) -> Vec<String> {
        self.selected(trace)
            .into_iter()
            .map(|m| {
                format!(
                    "metric {:<26} {:>16.6} {:<6} n={}",
                    m.name, m.value, m.unit, m.samples
                )
            })
            .collect()
    }

    /// The final result line.
    pub fn result_json(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.selected(trace).into_iter().enumerate() {
            // A non-finite value (a failed request's latency) still has to
            // be a JSON number; such a run is already marked incorrect.
            let value = if m.value.is_finite() {
                m.value
            } else {
                f64::MAX
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_report() -> RunReport {
        let mut r = RunReport::new();
        r.attempted = 10;
        for (name, _) in END_TO_END {
            r.e2e(name, 1.5, 10);
        }
        for (name, _) in PER_LAYER {
            r.layer(name, 0.0, 0);
        }
        r
    }

    #[test]
    fn result_line_is_json_with_every_declared_metric() {
        let r = full_report();
        for trace in [false, true] {
            let line = r.result_json(trace);
            let doc = pipesched_json::parse(&line).expect("result line is JSON");
            assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
            let metrics = doc
                .get("metrics")
                .and_then(|m| m.as_object())
                .expect("metrics");
            let want = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(metrics.len(), want);
        }
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = full_report();
        r.fail("schedule rejected");
        assert!(!r.correct());
        assert!(r.result_json(false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn benchmark_json_declares_what_the_program_reports() {
        // The benchmark definition at the repository root must declare the
        // same names and units this program reports.
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let doc = pipesched_json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let get = |k| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .expect("string")
                            .to_string()
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("workload name")
            })
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
