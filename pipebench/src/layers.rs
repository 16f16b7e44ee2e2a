//! Per-layer counters gathered during a traced replay, and the per-layer
//! metrics derived from them and the replay's spans.

use pipesched_core::SearchStats;
use pipesched_solve::SolveStats;

use crate::report::RunReport;
use crate::spans::{by_name, Agg, Span};

/// Counters the replay takes from `SearchStats`, `SolveStats`, the proof
/// events and the cache. Open-loop serving numbers come from the untraced
/// run and are reported by the serve workloads themselves.
#[derive(Debug, Default)]
pub struct Layers {
    /// Final-tier branch-and-bound searches.
    pub bnb_calls: u64,
    pub omega: u64,
    pub nodes: u64,
    pub pruned: u64,
    pub pruned_bound: u64,
    /// Candidates considered: Ω calls plus those rejected before Ω.
    pub candidates: u64,
    pub truncated: u64,
    pub list_calls: u64,
    pub list_proved: u64,
    pub windowed_calls: u64,
    pub windowed_proved: u64,
    pub tuples_timed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub proof_events: u64,
    pub sat_calls: u64,
    pub sat_conflicts: u64,
    pub sat_propagations: u64,
}

impl Layers {
    /// Account one final-tier branch-and-bound search.
    pub fn search(&mut self, s: &SearchStats) {
        self.bnb_calls += 1;
        self.omega += s.omega_calls;
        self.nodes += s.nodes_visited;
        self.pruned += s.pruned_total();
        self.pruned_bound += s.pruned_bound;
        self.candidates += s.omega_calls + s.pruned_total() - s.pruned_bound;
        self.truncated += u64::from(s.truncated);
    }

    pub fn solve(&mut self, s: &SolveStats) {
        self.sat_calls += 1;
        self.sat_conflicts += s.conflicts;
        self.sat_propagations += s.propagations;
    }

    /// Report every per-layer metric from these counters and `spans`;
    /// `replayed` requests, `mismatches` answers that differed from the
    /// untraced run, and `overhead_pct` the traced-vs-untraced replay time.
    pub fn report(
        &self,
        spans: &[Span],
        replayed: usize,
        mismatches: u64,
        overhead_pct: f64,
        r: &mut RunReport,
    ) {
        let agg = by_name(spans);
        let get = |name: &str| agg.get(name).copied().unwrap_or_default();
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let per_call = |name: &'static str, metric: &'static str, r: &mut RunReport| {
            let a: Agg = get(name);
            r.layer(metric, a.self_us(), a.calls as usize);
        };

        let bnb = get("bnb");
        let n = self.bnb_calls as usize;
        r.layer("bnb.calls", self.bnb_calls as f64, n);
        r.layer("bnb.omega_calls", self.omega as f64, n);
        r.layer("bnb.nodes", self.nodes as f64, n);
        r.layer("bnb.ns_per_omega", ratio(bnb.self_ns, self.omega), n);
        r.layer("bnb.prune_ratio", ratio(self.pruned, self.candidates), n);
        r.layer(
            "bnb.truncated_ratio",
            ratio(self.truncated, self.bnb_calls),
            n,
        );
        r.layer("bnb.self_ms", bnb.self_ns as f64 / 1e6, n);
        per_call("bounds.lb", "bounds.lb_us", r);
        r.layer(
            "bounds.prune_share",
            ratio(self.pruned_bound, self.pruned),
            n,
        );
        let eval = get("timing.eval");
        r.layer(
            "timing.ns_per_tuple",
            ratio(eval.self_ns, self.tuples_timed),
            eval.calls as usize,
        );

        let list = self.list_calls as usize;
        r.layer("list.calls", self.list_calls as f64, list);
        per_call("list", "list.self_us", r);
        r.layer(
            "list.proved_ratio",
            ratio(self.list_proved, self.list_calls),
            list,
        );
        let win = self.windowed_calls as usize;
        r.layer("windowed.calls", self.windowed_calls as f64, win);
        per_call("windowed", "windowed.self_us", r);
        r.layer(
            "windowed.proved_ratio",
            ratio(self.windowed_proved, self.windowed_calls),
            win,
        );

        per_call("request.parse", "request.parse_us", r);
        per_call("json.render", "json.render_us", r);
        per_call("ir.dag", "ir.dag_us", r);
        per_call("core.ctx", "core.ctx_us", r);
        per_call("canon", "canon.self_us", r);
        per_call("cache.get", "cache.get_us", r);
        per_call("cache.translate", "cache.translate_us", r);
        per_call("cache.insert", "cache.insert_us", r);
        let lookups = self.cache_hits + self.cache_misses;
        r.layer(
            "cache.hit_ratio",
            ratio(self.cache_hits, lookups),
            lookups as usize,
        );
        r.layer(
            "cache.evictions",
            self.cache_evictions as f64,
            lookups as usize,
        );

        per_call("proof.log", "proof.log_us", r);
        r.layer(
            "proof.events",
            self.proof_events as f64,
            get("proof.log").calls as usize,
        );
        per_call("proof.check", "proof.check_us", r);
        per_call("certify", "certify.us", r);
        let sat = get("sat");
        let sats = self.sat_calls as usize;
        r.layer("sat.calls", self.sat_calls as f64, sats);
        r.layer("sat.self_ms", sat.self_ns as f64 / 1e6, sats);
        r.layer("sat.conflicts", self.sat_conflicts as f64, sats);
        r.layer(
            "sat.propagations_per_s",
            if sat.self_ns == 0 {
                0.0
            } else {
                self.sat_propagations as f64 / (sat.self_ns as f64 / 1e9)
            },
            sats,
        );
        per_call("audit", "audit.us", r);

        r.layer("replay.requests", replayed as f64, replayed);
        r.layer("replay.mismatches", mismatches as f64, replayed);
        r.layer("bench.trace_overhead_pct", overhead_pct, replayed);
    }
}
