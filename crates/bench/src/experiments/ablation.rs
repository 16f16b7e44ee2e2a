//! Ablations of the design choices DESIGN.md calls out: each pruning
//! device, the initial-incumbent quality, the bound strength, equivalence
//! filtering, pipeline selection, and parallel search.

use pipesched_core::baselines::greedy_schedule;
use pipesched_core::{
    search, BoundKind, EquivalenceMode, InitialHeuristic, ParallelConfig, SchedContext,
    SearchConfig,
};
use pipesched_ir::DepDag;
use pipesched_machine::presets;
use pipesched_solve::{solve, Plan};
use pipesched_synth::CorpusSpec;

use crate::report::{f, TextTable};

/// One ablation configuration's aggregate result.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Average Ω calls per block.
    pub avg_omega: f64,
    /// Average final NOPs.
    pub avg_final_nops: f64,
    /// Fraction of blocks completed (provably optimal).
    pub pct_optimal: f64,
}

/// Configurations ablated.
fn configs() -> Vec<(&'static str, SearchConfig)> {
    let base = SearchConfig::default();
    vec![
        ("library default (CP bound + LB stop)", base),
        ("paper-exact (alpha-beta only)", SearchConfig::paper_exact()),
        (
            "no equivalence [5c]",
            SearchConfig {
                equivalence: EquivalenceMode::Off,
                ..base
            },
        ),
        (
            "structural equivalence",
            SearchConfig {
                equivalence: EquivalenceMode::Structural,
                ..base
            },
        ),
        (
            "no quick check [5a]",
            SearchConfig {
                quick_check: false,
                ..base
            },
        ),
        (
            "alpha-beta bound + LB stop",
            SearchConfig {
                bound: BoundKind::AlphaBeta,
                ..base
            },
        ),
        (
            "source-order incumbent",
            SearchConfig {
                initial: InitialHeuristic::SourceOrder,
                ..base
            },
        ),
        (
            "greedy incumbent",
            SearchConfig {
                initial: InitialHeuristic::Greedy,
                ..base
            },
        ),
        (
            "tight lambda (1k)",
            SearchConfig {
                lambda: 1_000,
                ..base
            },
        ),
    ]
}

/// Run the search ablations over the first `runs` corpus blocks.
pub fn run(runs: usize, lambda: u64) -> Vec<AblationRow> {
    let corpus = CorpusSpec::paper_default().with_runs(runs);
    let machine = presets::paper_simulation();
    let mut rows = Vec::new();

    for (label, mut cfg) in configs() {
        if label != "tight lambda (1k)" {
            cfg.lambda = lambda;
        }
        let mut omega = 0f64;
        let mut nops = 0f64;
        let mut optimal = 0usize;
        for k in 0..runs {
            let block = corpus.block(k);
            let dag = DepDag::build(&block);
            let ctx = SchedContext::new(&block, &dag, &machine);
            let out = search(&ctx, &cfg);
            omega += out.stats.omega_calls as f64;
            nops += f64::from(out.nops);
            optimal += usize::from(out.optimal);
        }
        rows.push(AblationRow {
            label: label.to_string(),
            avg_omega: omega / runs as f64,
            avg_final_nops: nops / runs as f64,
            pct_optimal: 100.0 * optimal as f64 / runs as f64,
        });
    }

    // Heuristic baselines (no search).
    let mut greedy_nops = 0f64;
    let mut list_nops = 0f64;
    for k in 0..runs {
        let block = corpus.block(k);
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let (_, g) = greedy_schedule(&ctx);
        greedy_nops += f64::from(g);
        let out = search(&ctx, &SearchConfig::with_lambda(1));
        list_nops += f64::from(out.initial_nops);
    }
    rows.push(AblationRow {
        label: "greedy baseline (Gross-style)".into(),
        avg_omega: 0.0,
        avg_final_nops: greedy_nops / runs as f64,
        pct_optimal: f64::NAN,
    });
    rows.push(AblationRow {
        label: "list schedule only".into(),
        avg_omega: 0.0,
        avg_final_nops: list_nops / runs as f64,
        pct_optimal: f64::NAN,
    });

    // Parallel search consistency check.
    let mut par_nops = 0f64;
    let mut par_optimal = 0usize;
    for k in 0..runs {
        let block = corpus.block(k);
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let plan = Plan {
            search: SearchConfig::with_lambda(lambda),
            parallel: ParallelConfig::default(),
            ..Plan::default()
        };
        let out = solve(&ctx, &plan).answer;
        par_nops += f64::from(out.nops);
        par_optimal += usize::from(out.optimal);
    }
    rows.push(AblationRow {
        label: "parallel B&B".into(),
        avg_omega: f64::NAN,
        avg_final_nops: par_nops / runs as f64,
        pct_optimal: 100.0 * par_optimal as f64 / runs as f64,
    });

    rows
}

/// Render the ablation table.
pub fn render(rows: &[AblationRow]) -> TextTable {
    let mut t = TextTable::new([
        "configuration",
        "avg Ω calls",
        "avg final NOPs",
        "% optimal",
    ]);
    for r in rows {
        let fmt_nan = |v: f64, digits: usize| {
            if v.is_nan() {
                "-".to_string()
            } else {
                f(v, digits)
            }
        };
        t.row([
            r.label.clone(),
            fmt_nan(r.avg_omega, 1),
            f(r.avg_final_nops, 2),
            fmt_nan(r.pct_optimal, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_rows_are_consistent() {
        let rows = run(12, 50_000);
        let default = &rows[0];
        assert!(default.pct_optimal > 80.0);
        // All optimal-search configurations beat (or match) the bare list
        // schedule.
        let list_only = rows
            .iter()
            .find(|r| r.label == "list schedule only")
            .unwrap();
        for r in rows.iter().take(5) {
            assert!(
                r.avg_final_nops <= list_only.avg_final_nops + 1e-9,
                "{} worse than list-only",
                r.label
            );
        }
        // The greedy and list baselines are never better than optimal.
        let greedy = rows.iter().find(|r| r.label.starts_with("greedy")).unwrap();
        assert!(greedy.avg_final_nops >= default.avg_final_nops - 1e-9);
    }
}
