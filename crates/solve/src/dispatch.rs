//! The one way to run an exact search: [`solve`] runs a [`Plan`] on one
//! block and returns an [`Outcome`]. A plan names the backend, the search
//! limits ([`SearchConfig`]), the thread count ([`ParallelConfig`]: one
//! thread runs the serial kernel directly, more the work-stealing pool),
//! where the optimality certificate goes and whether to profile.
//!
//! **The race.** Both backends start from the same list-schedule
//! incumbent under the plan's deadline, each on its own thread. The first
//! *provably optimal* answer wins; if only one side proves optimality it
//! wins regardless of speed, and if neither does the better μ wins (ties
//! go to the branch-and-bound, the paper's algorithm). Both proved with
//! different μ is a disagreement — one proof is wrong, and callers treat
//! it as a hard failure (`A0605` via [`crate::audit::cross_check`]).
//! Cancellation is asymmetric: the SAT side polls a stop flag set when the
//! branch-and-bound finishes with a proof (only under
//! [`Plan::cancel_loser`]); the branch-and-bound is bounded by λ and the
//! deadline only.
//!
//! **Certificates.** A branch-and-bound run logs its own transcript
//! (merged across workers in a pool run); a proven SAT or race answer gets
//! one from [`certify_optimum`].

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pipesched_core::proof::{Certificate, ProofEvent, ProofLogger, ProofOutput};
use pipesched_core::{
    branch_and_bound, global_lower_bound, search_with_proof, Backend, ParallelConfig, SchedContext,
    SearchConfig, SearchOutcome, SearchProfile, SearchStats,
};
use pipesched_ir::TupleId;

use crate::{solve_schedule, SolveConfig, SolveOutcome};

/// Where a run's optimality certificate goes.
#[derive(Default)]
pub enum ProofSink {
    /// No certificate.
    #[default]
    Off,
    /// Keep the certificate in memory ([`ProofOutput::certificate`]).
    InMemory,
    /// Stream NDJSON lines as the search runs; the first [`solve`] call
    /// takes the logger (see [`ProofSink::streamed`]).
    Streamed(Cell<Option<ProofLogger>>),
}

impl ProofSink {
    /// A sink streaming the certificate to `w`.
    pub fn streamed(w: Box<dyn std::io::Write + Send>) -> Self {
        ProofSink::Streamed(Cell::new(Some(ProofLogger::streaming(w))))
    }

    fn logger(&self) -> Option<ProofLogger> {
        match self {
            ProofSink::Off => None,
            ProofSink::InMemory => Some(ProofLogger::in_memory()),
            ProofSink::Streamed(cell) => Some(cell.take().expect("streamed sink reused")),
        }
    }
}

/// Everything one exact search is asked to do.
pub struct Plan {
    /// λ, deadline and ablations (the SAT side honors the deadline only).
    pub search: SearchConfig,
    /// Branch-and-bound threads: 1 is the serial kernel, 0 one per CPU.
    pub parallel: ParallelConfig,
    /// Which exact backend answers.
    pub backend: Backend,
    /// Where the optimality certificate goes.
    pub proof: ProofSink,
    /// Profile the branch-and-bound per depth.
    pub profile: bool,
    /// In a race, cancel the SAT side once the branch-and-bound proves
    /// optimality (latency over cross-certification).
    pub cancel_loser: bool,
}

impl Default for Plan {
    fn default() -> Self {
        Plan {
            search: SearchConfig::default(),
            parallel: ParallelConfig::with_threads(1),
            backend: Backend::Bnb,
            proof: ProofSink::Off,
            profile: false,
            cancel_loser: false,
        }
    }
}

/// Timings and cross-check of a race.
#[derive(Debug, Clone, Copy)]
pub struct RaceReport {
    /// Wall-clock of the branch-and-bound side, in microseconds.
    pub bnb_micros: u64,
    /// Wall-clock of the SAT side, in microseconds.
    pub sat_micros: u64,
    /// μ the branch-and-bound side reached.
    pub bnb_nops: u32,
    /// The branch-and-bound side proved its μ optimal.
    pub bnb_optimal: bool,
    /// Both sides proved optimality with different μ (the answer is then
    /// the branch-and-bound's).
    pub disagreement: bool,
}

/// What one [`solve`] call produced.
#[derive(Debug)]
pub struct Outcome {
    /// The answer, with the branch-and-bound's counters in `stats` (all
    /// zero when only SAT ran).
    pub answer: SearchOutcome,
    /// The concrete backend that produced the answer (never `Race`).
    pub backend: Backend,
    /// The full SAT run — counters and query trail — when SAT ran.
    pub sat: Option<SolveOutcome>,
    /// Race timings and cross-check, for a race.
    pub race: Option<RaceReport>,
    /// The certificate output (the certificate itself for an in-memory
    /// sink); a SAT or race answer gets one only when proven optimal.
    pub proof: Option<ProofOutput>,
    /// Pool proofs only: the transcript split at the root dispositions,
    /// in certificate order.
    pub parts: Vec<Vec<ProofEvent>>,
    /// The per-depth profile, when the plan asked for it.
    pub profile: Option<SearchProfile>,
}

impl Outcome {
    /// True when the deadline cut the answering backend short.
    pub fn deadline_hit(&self) -> bool {
        match (self.backend, &self.sat) {
            (Backend::Sat, Some(sat)) => sat.stats.deadline_hit,
            _ => self.answer.stats.deadline_hit,
        }
    }

    fn of_bnb(answer: SearchOutcome, sat: Option<SolveOutcome>) -> Outcome {
        Outcome {
            answer,
            backend: Backend::Bnb,
            sat,
            race: None,
            proof: None,
            parts: Vec::new(),
            profile: None,
        }
    }

    fn of_sat(sat: SolveOutcome, stats: SearchStats) -> Outcome {
        let answer = SearchOutcome {
            order: sat.order.clone(),
            assignment: sat.assignment.clone(),
            etas: sat.etas.clone(),
            nops: sat.nops,
            initial_order: sat.initial_order.clone(),
            initial_nops: sat.initial_nops,
            optimal: sat.optimal,
            stats,
        };
        Outcome {
            backend: Backend::Sat,
            ..Outcome::of_bnb(answer, Some(sat))
        }
    }
}

/// Run `plan` on `ctx`'s block (see the module docs).
///
/// # Panics
///
/// Panics if a certificate is asked of a branch-and-bound run under
/// `pipeline_selection`, or if a streamed sink is reused.
pub fn solve(ctx: &SchedContext<'_>, plan: &Plan) -> Outcome {
    let logger = plan.proof.logger();
    let mut out = match plan.backend {
        Backend::Bnb => {
            let (answer, seen) =
                branch_and_bound(ctx, &plan.search, &plan.parallel, logger, plan.profile);
            return Outcome {
                proof: seen.proof,
                parts: seen.parts,
                profile: seen.profile,
                ..Outcome::of_bnb(answer, None)
            };
        }
        Backend::Sat => Outcome {
            profile: plan.profile.then(SearchProfile::new),
            ..Outcome::of_sat(
                solve_schedule(ctx, &sat_config(plan, None)),
                SearchStats::default(),
            )
        },
        Backend::Race => race(ctx, plan),
    };
    if let Some(logger) = logger.filter(|_| out.answer.optimal) {
        let a = &out.answer;
        out.proof = Some(certify_optimum(ctx, &a.order, a.nops, logger));
    }
    out
}

fn sat_config(plan: &Plan, stop: Option<Arc<AtomicBool>>) -> SolveConfig {
    SolveConfig {
        max_conflicts: None,
        deadline: plan.search.deadline,
        stop,
    }
}

/// Race both backends on their own threads and pick a winner.
fn race(ctx: &SchedContext<'_>, plan: &Plan) -> Outcome {
    let stop = Arc::new(AtomicBool::new(false));
    let sat_cfg = sat_config(plan, plan.cancel_loser.then(|| Arc::clone(&stop)));
    let ((bnb, seen), bnb_micros, sat, sat_micros) = std::thread::scope(|scope| {
        let sat_handle = scope.spawn(|| {
            let t0 = Instant::now();
            let out = solve_schedule(ctx, &sat_cfg);
            (out, t0.elapsed().as_micros() as u64)
        });
        let t0 = Instant::now();
        let bnb = branch_and_bound(ctx, &plan.search, &plan.parallel, None, plan.profile);
        let bnb_micros = t0.elapsed().as_micros() as u64;
        if plan.cancel_loser && bnb.0.optimal {
            // relaxed-ok: pure cancellation flag with no payload — the
            // SAT side merely aborts when it observes the flag; it reads
            // nothing this store would need to publish.
            stop.store(true, Ordering::Relaxed);
        }
        let (sat, sat_micros) = sat_handle.join().expect("SAT backend thread panicked");
        (bnb, bnb_micros, sat, sat_micros)
    });

    let disagreement = bnb.optimal && sat.optimal && bnb.nops != sat.nops;
    let sat_wins = !disagreement
        && match (bnb.optimal, sat.optimal) {
            (true, true) => sat_micros < bnb_micros,
            (true, false) => false,
            (false, true) => true,
            (false, false) => sat.nops < bnb.nops,
        };
    let race = Some(RaceReport {
        bnb_micros,
        sat_micros,
        bnb_nops: bnb.nops,
        bnb_optimal: bnb.optimal,
        disagreement,
    });
    let out = if sat_wins {
        Outcome::of_sat(sat, bnb.stats)
    } else {
        Outcome::of_bnb(bnb, Some(sat))
    };
    Outcome {
        race,
        profile: seen.profile,
        ..out
    }
}

/// Record into `logger` the certificate of a schedule already proven
/// optimal by other means (a list, windowed or SAT answer, or a race
/// winner): the by-bound shortcut when it meets the admissible whole-block
/// lower bound, otherwise a fresh fully logged search at unlimited λ.
pub fn certify_optimum(
    ctx: &SchedContext<'_>,
    order: &[TupleId],
    nops: u32,
    logger: ProofLogger,
) -> ProofOutput {
    let lb = global_lower_bound(ctx);
    if nops == lb {
        let order = order.iter().map(|t| t.0).collect();
        logger.replay(Certificate::by_bound(ctx.len() as u32, order, nops, lb))
    } else {
        search_with_proof(ctx, &SearchConfig::with_lambda(u64::MAX), logger).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_ir::{BlockBuilder, DepDag};
    use pipesched_machine::presets;

    #[test]
    fn race_agrees_and_certifies() {
        let mut b = BlockBuilder::new("race");
        let x = b.load("x");
        let y = b.load("y");
        let z = b.load("z");
        let m = b.mul(x, y);
        let a = b.add(m, z);
        b.store("r", a);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);

        let plan = Plan {
            backend: Backend::Race,
            ..Plan::default()
        };
        let out = solve(&ctx, &plan);
        let race = out.race.unwrap();
        let sat = out.sat.as_ref().unwrap();
        assert!(!race.disagreement);
        assert!(race.bnb_optimal && sat.optimal);
        assert_eq!(race.bnb_nops, sat.nops);
        assert!(out.answer.optimal);
        assert_eq!(out.answer.nops, race.bnb_nops);
        assert_ne!(out.backend, Backend::Race);

        let report = crate::audit::audit_outcome(&block, &machine, sat);
        assert!(!report.has_errors(), "{report:?}");
    }

    #[test]
    fn cancel_loser_still_returns_an_answer() {
        let mut b = BlockBuilder::new("cancel");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        b.store("r", m);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);

        let plan = Plan {
            backend: Backend::Race,
            cancel_loser: true,
            ..Plan::default()
        };
        let out = solve(&ctx, &plan);
        assert!(!out.race.unwrap().disagreement);
        assert!(out.answer.optimal);
        // The winner's schedule is a permutation of the block.
        assert_eq!(out.answer.order.len(), block.len());
    }

    #[test]
    fn streamed_sink_matches_in_memory_digest() {
        let mut b = BlockBuilder::new("stream");
        for i in 0..3 {
            let l = b.load(&format!("x{i}"));
            let m = b.mul(l, l);
            b.store(&format!("y{i}"), m);
        }
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        for backend in Backend::ALL {
            for threads in [1, 2] {
                let memory = solve(
                    &ctx,
                    &Plan {
                        backend,
                        parallel: ParallelConfig::with_threads(threads),
                        proof: ProofSink::InMemory,
                        ..Plan::default()
                    },
                );
                let streamed = solve(
                    &ctx,
                    &Plan {
                        backend,
                        parallel: ParallelConfig::with_threads(threads),
                        proof: ProofSink::streamed(Box::new(std::io::sink())),
                        ..Plan::default()
                    },
                );
                let (m, s) = (memory.proof.unwrap(), streamed.proof.unwrap());
                assert!(s.certificate.is_none());
                assert_eq!(m.certificate.unwrap().digest(), m.digest);
                // A pool may return a different optimum run to run, and a
                // race a different winner; the rest are deterministic.
                if threads == 1 && backend != Backend::Race {
                    assert_eq!(m.digest, s.digest, "{backend} x{threads}");
                }
            }
        }
    }
}
