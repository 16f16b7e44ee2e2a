#![warn(missing_docs)]

//! A SAT backend portfolio for the scheduler (ROADMAP item 2).
//!
//! The branch-and-bound in `pipesched-core` is one way to prove a schedule
//! optimal; this crate adds a second, *independent* one built from two
//! layers:
//!
//! * [`cdcl`] — a zero-dependency CDCL SAT solver (watched literals,
//!   first-UIP clause learning, VSIDS-style activities, Luby restarts);
//! * [`encode`] — a time-indexed encoding of "does a schedule with
//!   μ ≤ N exist?" over the existing [`SchedContext`]/`DepDag`.
//!
//! [`solve_schedule`] answers the optimization problem with descending
//! feasibility queries seeded by the shared list-schedule incumbent: each
//! SAT answer decodes to a strictly better schedule (replayed through the
//! real timing engine, never trusted from the model), and the final UNSAT
//! at one NOP below the best schedule *is* the optimality proof —
//! derived from clause-level reasoning that shares no code with the
//! branch-and-bound's bound arithmetic.
//!
//! Cross-certification is the point: [`audit::audit_outcome`] re-checks a
//! finished outcome from scratch (stable `A06xx` codes), and a race plan
//! runs both backends on one block and treats a disagreement between their
//! proven optima as a hard failure ([`DiagCode::BackendDisagreement`]).
//!
//! This is the lowest crate that sees both backends, so it also holds the
//! one dispatcher every exact search goes through: [`solve`] runs a
//! [`Plan`] (backend, limits, threads, certificate sink, profile) and
//! returns an [`Outcome`] (see [`dispatch`]).
//!
//! [`DiagCode::BackendDisagreement`]: pipesched_analyze::DiagCode::BackendDisagreement

pub mod audit;
pub mod cdcl;
pub mod dispatch;
pub mod encode;

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use pipesched_core::bnb::InitialHeuristic;
use pipesched_core::seed::seed_incumbent;
use pipesched_core::timing::{evaluate_schedule, BoundaryState};
use pipesched_core::SchedContext;
use pipesched_ir::TupleId;
use pipesched_machine::PipelineId;

use cdcl::{SatLimits, SolveResult, Solver};
use encode::Encoding;

pub use audit::{audit_outcome, cross_check};
pub use dispatch::{certify_optimum, solve, Outcome, Plan, ProofSink, RaceReport};
pub use pipesched_core::Backend;

/// Resource limits for one [`solve_schedule`] call (all queries share
/// them).
#[derive(Debug, Clone, Default)]
pub struct SolveConfig {
    /// Total conflict budget across all queries (`None` = unlimited) —
    /// the SAT analogue of the branch-and-bound's λ.
    pub max_conflicts: Option<u64>,
    /// Anytime wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag (used by the race).
    pub stop: Option<Arc<AtomicBool>>,
}

/// Aggregate solver counters for one [`solve_schedule`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Conflicts analyzed, across all queries.
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learned: u64,
    /// Feasibility queries answered SAT.
    pub queries_sat: u32,
    /// Feasibility queries answered UNSAT (including window refutations).
    pub queries_unsat: u32,
    /// Queries abandoned on a limit.
    pub queries_unknown: u32,
    /// The incumbent already matched the global lower bound; no queries
    /// were needed.
    pub proved_by_bound: bool,
    /// A limit fired before optimality was established.
    pub truncated: bool,
    /// The wall-clock deadline (or stop flag) fired.
    pub deadline_hit: bool,
}

/// The answer to one feasibility query "μ ≤ budget?".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// Satisfiable: the decoded issue cycle per tuple.
    Sat {
        /// Issue cycle per tuple id, straight from the model.
        cycles: Vec<u32>,
    },
    /// Proven unsatisfiable — no schedule with μ ≤ budget exists.
    Unsat,
    /// Abandoned on a conflict/deadline/stop limit.
    Unknown,
}

/// One feasibility query of the descending loop, kept for the audit.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// The NOP budget N asked about.
    pub budget: u32,
    /// Cycle-window size used (`n + budget`); the audit re-derives it.
    pub horizon: u32,
    /// Variables in the encoding.
    pub vars: usize,
    /// The verdict.
    pub result: QueryResult,
    /// Conflicts spent on this query.
    pub conflicts: u64,
    /// Decisions spent on this query.
    pub decisions: u64,
    /// Propagations spent on this query.
    pub propagations: u64,
}

/// A finished SAT-backend run: the best schedule found plus the complete
/// query trail that justifies (or fails to justify) its optimality.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Best instruction order found.
    pub order: Vec<TupleId>,
    /// Pipeline unit per tuple (the default assignment; the SAT backend
    /// does not do pipeline selection).
    pub assignment: Vec<Option<PipelineId>>,
    /// η per position of `order`.
    pub etas: Vec<u32>,
    /// μ of the best schedule.
    pub nops: u32,
    /// The shared heuristic incumbent the descent started from.
    pub initial_order: Vec<TupleId>,
    /// μ of the incumbent.
    pub initial_nops: u32,
    /// True when optimality was established (by bound or by UNSAT).
    pub optimal: bool,
    /// Aggregate counters.
    pub stats: SolveStats,
    /// Every feasibility query, in the order asked.
    pub queries: Vec<QueryRecord>,
    /// Set when the encoder self-check failed: the incumbent schedule did
    /// not satisfy its own encoding, so no query result is trustworthy.
    pub encode_fault: Option<String>,
}

/// Find the minimum-NOP schedule of `ctx`'s block by descending SAT
/// feasibility queries.
///
/// Starts from the shared list-schedule incumbent ([`seed_incumbent`] —
/// the same prologue the branch-and-bound uses), then repeatedly asks
/// "μ ≤ best − 1?": SAT improves the incumbent (the decoded model is
/// replayed through the timing engine, which may land *below* the budget
/// and skip levels), UNSAT proves the incumbent optimal. An incumbent at
/// the global lower bound is optimal without any query.
pub fn solve_schedule(ctx: &SchedContext<'_>, cfg: &SolveConfig) -> SolveOutcome {
    let n = ctx.len();
    if n == 0 {
        return SolveOutcome {
            order: Vec::new(),
            assignment: Vec::new(),
            etas: Vec::new(),
            nops: 0,
            initial_order: Vec::new(),
            initial_nops: 0,
            optimal: true,
            stats: SolveStats::default(),
            queries: Vec::new(),
            encode_fault: None,
        };
    }

    let boundary = BoundaryState::cold(ctx.machine.pipeline_count());
    let seed = seed_incumbent(ctx, InitialHeuristic::MaxDistance, &boundary, false);
    let initial_order = seed.order;
    let initial_nops = seed.nops;
    let lb = seed.global_lb;

    let mut best_order = initial_order.clone();
    let mut best_etas = seed.etas;
    let mut best_nops = initial_nops;
    let mut stats = SolveStats::default();
    let mut queries: Vec<QueryRecord> = Vec::new();
    let mut optimal = false;

    // Encoder self-check: the incumbent is a real schedule, so its engine
    // issue cycles must satisfy the encoding at its own μ. A failure here
    // means the encoding disagrees with the timing model and every answer
    // below would be meaningless.
    let mut encode_fault = None;
    {
        let enc = Encoding::build(ctx, best_nops);
        let cycles = encode::issue_cycles(ctx, &best_order);
        if let Err(e) = enc.check_cycles(ctx, &cycles) {
            encode_fault = Some(format!("incumbent fails its own encoding: {e}"));
        }
    }

    if best_nops <= lb {
        optimal = true;
        stats.proved_by_bound = true;
    }

    while encode_fault.is_none() && !optimal {
        // best_nops > lb ≥ 0 here, so the next budget cannot underflow.
        let budget = best_nops - 1;
        let enc = Encoding::build(ctx, budget);
        if enc.trivially_unsat {
            // The chain bounds alone refute the budget: a genuine UNSAT.
            queries.push(QueryRecord {
                budget,
                horizon: enc.horizon,
                vars: enc.num_vars(),
                result: QueryResult::Unsat,
                conflicts: 0,
                decisions: 0,
                propagations: 0,
            });
            stats.queries_unsat += 1;
            optimal = true;
            break;
        }

        let mut solver = Solver::new(enc.num_vars());
        let loaded = enc.emit_into(ctx, &mut solver);
        let remaining_conflicts = cfg.max_conflicts.map(|m| m.saturating_sub(stats.conflicts));
        if remaining_conflicts == Some(0) {
            stats.truncated = true;
            break;
        }
        let limits = SatLimits {
            max_conflicts: remaining_conflicts,
            deadline: cfg.deadline,
            stop: cfg.stop.clone(),
        };
        let result = if loaded {
            solver.solve(&limits)
        } else {
            // Root-level simplification already closed the query.
            SolveResult::Unsat
        };
        stats.conflicts += solver.stats.conflicts;
        stats.decisions += solver.stats.decisions;
        stats.propagations += solver.stats.propagations;
        stats.restarts += solver.stats.restarts;
        stats.learned += solver.stats.learned;
        let mut record = QueryRecord {
            budget,
            horizon: enc.horizon,
            vars: enc.num_vars(),
            result: QueryResult::Unknown,
            conflicts: solver.stats.conflicts,
            decisions: solver.stats.decisions,
            propagations: solver.stats.propagations,
        };

        match result {
            SolveResult::Sat(model) => {
                let cycles = enc
                    .decode(&model)
                    .expect("solver models always assign exactly one cycle per tuple");
                let order = Encoding::order_of_cycles(&cycles);
                let (etas, nops) = evaluate_schedule(ctx, &order);
                debug_assert!(
                    nops <= budget,
                    "replayed μ {nops} exceeds SAT budget {budget}"
                );
                record.result = QueryResult::Sat { cycles };
                queries.push(record);
                stats.queries_sat += 1;
                if nops < best_nops {
                    best_order = order;
                    best_etas = etas;
                    best_nops = nops;
                } else {
                    // Replay contradicts the model (encode fault caught in
                    // release builds): stop trusting the loop.
                    encode_fault = Some(format!("SAT at budget {budget} replayed to μ {nops}"));
                    break;
                }
                if best_nops <= lb {
                    optimal = true;
                }
            }
            SolveResult::Unsat => {
                record.result = QueryResult::Unsat;
                queries.push(record);
                stats.queries_unsat += 1;
                optimal = true;
            }
            SolveResult::Unknown => {
                queries.push(record);
                stats.queries_unknown += 1;
                stats.truncated = true;
                stats.deadline_hit = cfg.deadline.is_some_and(|d| Instant::now() >= d)
                    || cfg
                        .stop
                        .as_ref()
                        .is_some_and(|s| s.load(std::sync::atomic::Ordering::Relaxed));
                break;
            }
        }
    }

    if encode_fault.is_some() {
        optimal = false;
        stats.truncated = true;
    }

    SolveOutcome {
        order: best_order,
        assignment: ctx.sigma.clone(),
        etas: best_etas,
        nops: best_nops,
        initial_order,
        initial_nops,
        optimal,
        stats,
        queries,
        encode_fault,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_core::{search, SearchConfig};
    use pipesched_ir::{BlockBuilder, DepDag};
    use pipesched_machine::presets;

    fn demo_block() -> pipesched_ir::BasicBlock {
        let mut b = BlockBuilder::new("solve");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        let a = b.add(x, y);
        b.store("m", m);
        b.store("a", a);
        b.finish().unwrap()
    }

    #[test]
    fn sat_backend_matches_bnb_on_demo() {
        let block = demo_block();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let bnb = search(&ctx, &SearchConfig::default());
        let sat = solve_schedule(&ctx, &SolveConfig::default());
        assert!(bnb.optimal && sat.optimal);
        assert_eq!(bnb.nops, sat.nops);
        assert!(sat.encode_fault.is_none());
        assert_eq!(sat.etas.iter().sum::<u32>(), sat.nops);
        // Optimality is justified: by the global bound, or by a final
        // UNSAT query one NOP below the answer.
        if sat.nops > pipesched_core::global_lower_bound(&ctx) {
            assert!(matches!(
                sat.queries.last().map(|q| (&q.result, q.budget)),
                Some((&QueryResult::Unsat, b)) if b == sat.nops - 1
            ));
        }
    }

    #[test]
    fn empty_block_is_trivially_optimal() {
        let block = BlockBuilder::new("e").finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let out = solve_schedule(&ctx, &SolveConfig::default());
        assert!(out.optimal);
        assert_eq!(out.nops, 0);
    }

    #[test]
    fn conflict_budget_zero_truncates() {
        let block = demo_block();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let cfg = SolveConfig {
            max_conflicts: Some(0),
            ..SolveConfig::default()
        };
        let out = solve_schedule(&ctx, &cfg);
        // Either the incumbent was already provably optimal by bound, or
        // the run reports truncation without claiming optimality.
        if !out.stats.proved_by_bound {
            assert!(out.stats.truncated);
            assert!(!out.optimal);
        }
        assert_eq!(out.nops, out.initial_nops);
    }
}
