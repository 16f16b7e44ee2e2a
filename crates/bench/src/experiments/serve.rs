//! Serving-throughput experiment: what does canonical-DAG memoization buy
//! on a workload with repeated block shapes?
//!
//! Compilers emit the same few dozen shapes over and over (inlining,
//! unrolling, macro expansion), so the workload generator stamps out
//! `shapes` distinct synthetic blocks and cycles through them, renaming
//! every variable per request — each repeat is isomorphic but textually
//! different, which is exactly the case the canonicalizer must catch. The
//! whole NDJSON batch then runs through the real service path
//! (`run_batch`, worker pool and all), and per-response timings are split
//! by cache outcome.

use pipesched_json::{json_object, Json};
use pipesched_service::{run_batch, EngineConfig, ServeConfig, ServiceEngine};
use pipesched_synth::{generate_block, FrequencyTable, GeneratorConfig};

use crate::report::{f, percentile, TextTable};

/// Measured outcome of one serving replay.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests replayed.
    pub requests: u64,
    /// Distinct block shapes in the workload.
    pub shapes: usize,
    /// Validated cache hits.
    pub cache_hits: u64,
    /// Whole-replay wall clock, microseconds.
    pub wall_micros: u64,
    /// Requests per second.
    pub throughput_rps: f64,
    /// Per-response service times of cache hits, microseconds.
    pub hit_micros: Vec<u64>,
    /// Per-response service times of misses (live searches), microseconds.
    pub miss_micros: Vec<u64>,
}

impl ServeReport {
    /// Mean of a sample set (0 when empty).
    fn mean(samples: &[u64]) -> f64 {
        if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<u64>() as f64 / samples.len() as f64
        }
    }

    /// Render the comparison table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["outcome", "count", "mean µs", "p50 µs", "p99 µs"]);
        let mut hits = self.hit_micros.clone();
        let mut misses = self.miss_micros.clone();
        hits.sort_unstable();
        misses.sort_unstable();
        t.row([
            "cache hit".to_string(),
            hits.len().to_string(),
            f(Self::mean(&hits), 1),
            percentile(&hits, 50.0).to_string(),
            percentile(&hits, 99.0).to_string(),
        ]);
        t.row([
            "miss (search)".to_string(),
            misses.len().to_string(),
            f(Self::mean(&misses), 1),
            percentile(&misses, 50.0).to_string(),
            percentile(&misses, 99.0).to_string(),
        ]);
        t
    }

    /// Mean hit-vs-miss speedup (×), 0 when either side is empty.
    pub fn speedup(&self) -> f64 {
        let hit = Self::mean(&self.hit_micros);
        let miss = Self::mean(&self.miss_micros);
        if hit == 0.0 || miss == 0.0 {
            0.0
        } else {
            miss / hit
        }
    }
}

/// Build the NDJSON workload: `requests` lines cycling over `shapes`
/// distinct synthetic blocks, every variable renamed per request.
pub fn workload(requests: usize, shapes: usize) -> String {
    let base: Vec<String> = (0..shapes)
        .map(|k| {
            let mut cfg = GeneratorConfig::new(6 + (k % 7) * 3, 6, 3, 0x5EED ^ k as u64);
            cfg.frequencies = FrequencyTable::mul_heavy();
            generate_block(&cfg).to_string()
        })
        .collect();
    let mut out = String::new();
    for i in 0..requests {
        // Rename every variable: `#v3` becomes e.g. `#r17_v3`, keeping the
        // request isomorphic to its shape but textually distinct.
        let block = base[i % shapes].replace('#', &format!("#r{i}_"));
        let line = json_object![
            ("id", i as i64),
            ("block", block.as_str()),
            ("machine", "paper-simulation"),
        ];
        out.push_str(&line.to_compact());
        out.push('\n');
    }
    out
}

/// Replay a repeated-shapes workload through the service and split
/// response times by cache outcome.
pub fn run(requests: usize, shapes: usize, workers: usize) -> ServeReport {
    let input = workload(requests, shapes);
    let engine = ServiceEngine::new(EngineConfig::default(), 4096, 8);
    let summary = run_batch(
        &engine,
        input.as_bytes(),
        &ServeConfig { workers },
        false,
        false,
    )
    .expect("in-memory batch replay cannot fail on IO");

    let mut hit_micros = Vec::new();
    let mut miss_micros = Vec::new();
    for line in &summary.responses {
        let Ok(doc) = pipesched_json::parse(line) else {
            continue;
        };
        let micros = doc.get("micros").and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
        match doc.get("cache_hit").and_then(Json::as_bool) {
            Some(true) => hit_micros.push(micros),
            _ => miss_micros.push(micros),
        }
    }
    ServeReport {
        requests: summary.requests,
        shapes,
        cache_hits: summary.cache_hits,
        wall_micros: summary.wall_micros,
        throughput_rps: summary.throughput(),
        hit_micros,
        miss_micros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_shapes_hit_and_hits_are_cheaper() {
        // One worker keeps the replay sequential, so hit counts are exact;
        // with several workers a repeat can race its shape's first request
        // and miss.
        let report = run(40, 4, 1);
        assert_eq!(report.requests, 40);
        // 4 shapes, 40 requests: all 36 isomorphic repeats must hit.
        assert_eq!(report.cache_hits, 36, "hits = {}", report.cache_hits);
        assert_eq!(
            report.hit_micros.len() as u64,
            report.cache_hits,
            "per-response hit flags must agree with the cache counters"
        );
        assert!(report.throughput_rps > 0.0);
        let table = report.table().render();
        assert!(table.contains("cache hit"));
    }

    #[test]
    fn workload_renames_but_preserves_shape_count() {
        let text = workload(12, 3);
        assert_eq!(text.lines().count(), 12);
        // Renaming makes every line unique even within one shape class.
        let first = text.lines().next().unwrap();
        let fourth = text.lines().nth(3).unwrap();
        assert_ne!(first, fourth);
    }
}
