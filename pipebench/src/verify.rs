//! The verification chain, run on a corpus subset inside the `corpus`
//! workload's traced replay. Each block is scheduled by
//! `search_with_proof` and its certificate checked by
//! `pipesched_proof::check_certificate`; it is also solved by the SAT
//! backend (`solve_schedule`) and the outcome audited (`audit_outcome`).
//! Both schedules go through the `analyze` certifier and every proved μ is
//! cross-checked between the two backends.
//!
//! The subset is the first [`BLOCKS`] corpus blocks of at most [`MAX_LEN`]
//! instructions (the paper calls longer blocks very rare), and each SAT
//! solve gets [`SAT_CONFLICTS`] conflicts. Unbounded, one block in a few
//! thousand spends seconds in the CDCL search.

use pipesched_analyze::{certify, Claim};
use pipesched_core::proof::ProofLogger;
use pipesched_core::{search_with_proof, SchedContext, SearchConfig, SearchOutcome};
use pipesched_ir::{BasicBlock, DepDag};
use pipesched_machine::Machine;
use pipesched_solve::{audit_outcome, solve_schedule, SolveConfig, SolveOutcome};

use crate::layers::Layers;
use crate::report::RunReport;
use crate::spans::Tracer;

/// Blocks the chain verifies per traced run.
pub const BLOCKS: usize = 300;

/// Longest block in the subset.
pub const MAX_LEN: usize = 40;

/// Conflict budget of each SAT solve (deterministic, unlike a deadline).
pub const SAT_CONFLICTS: u64 = 1_000;

/// The subset of `blocks` the chain verifies.
pub fn subset(blocks: &[BasicBlock]) -> Vec<&BasicBlock> {
    blocks
        .iter()
        .filter(|b| b.len() <= MAX_LEN)
        .take(BLOCKS)
        .collect()
}

/// One block's verdict: both schedules and what failed, if anything.
pub struct Verdict {
    pub bnb: SearchOutcome,
    pub sat: SolveOutcome,
    pub problems: Vec<String>,
}

fn certified(block: &BasicBlock, machine: &Machine, out: &SearchOutcome) -> bool {
    certify(
        block,
        machine,
        Claim {
            order: &out.order,
            assignment: Some(&out.assignment),
            etas: Some(&out.etas),
            nops: Some(out.nops),
        },
    )
    .is_certified()
}

/// The whole checked pipeline for one block, each call in its own span.
pub fn verdict(
    block: &BasicBlock,
    machine: &Machine,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Verdict {
    let mut problems = Vec::new();
    let dag = DepDag::build(block);
    let ctx = SchedContext::new(block, &dag, machine);
    let cfg = SearchConfig::default();
    let (bnb, proof) = tr.span("proof.log", || {
        search_with_proof(&ctx, &cfg, ProofLogger::in_memory())
    });
    layers.proof_events += proof.events;
    if bnb.optimal {
        let cert = proof
            .certificate
            .expect("in-memory logger keeps the certificate");
        let check = tr.span("proof.check", || {
            pipesched_proof::check_certificate(block, machine, &cert)
        });
        if !check.is_certified() {
            problems.push(format!(
                "certificate rejected: {}",
                check.report.render_text()
            ));
        }
    }
    if !tr.span("certify", || certified(block, machine, &bnb)) {
        problems.push("certifier rejects the B&B schedule".into());
    }
    let sat_cfg = SolveConfig {
        max_conflicts: Some(SAT_CONFLICTS),
        ..SolveConfig::default()
    };
    let sat = tr.span("sat", || solve_schedule(&ctx, &sat_cfg));
    layers.solve(&sat.stats);
    let audit = tr.span("audit", || audit_outcome(block, machine, &sat));
    if audit.has_errors() {
        problems.push(format!("SAT audit failed: {}", audit.render_text()));
    }
    if (bnb.optimal && sat.nops < bnb.nops) || (sat.optimal && bnb.nops < sat.nops) {
        problems.push(format!(
            "B&B (μ={}, optimal={}) and SAT (μ={}, optimal={}) disagree",
            bnb.nops, bnb.optimal, sat.nops, sat.optimal
        ));
    }
    Verdict { bnb, sat, problems }
}

/// Independent checks of the verdicts, outside the timed region: every
/// problem the chain found, and the simulator re-validating both
/// schedules, counts as a failure.
pub fn check(
    blocks: &[&BasicBlock],
    machine: &Machine,
    verdicts: &[Verdict],
    report: &mut RunReport,
) {
    for (k, (block, v)) in blocks.iter().zip(verdicts).enumerate() {
        report.attempted += 1;
        for p in &v.problems {
            report.fail(&format!("verify block {k}: {p}"));
        }
        let (bnb, sat) = (&v.bnb, &v.sat);
        let checks = [
            crate::check::schedule(
                block,
                machine,
                &bnb.order,
                Some(&bnb.assignment),
                &bnb.etas,
                bnb.nops,
            ),
            crate::check::schedule(
                block,
                machine,
                &sat.order,
                Some(&sat.assignment),
                &sat.etas,
                sat.nops,
            ),
        ];
        for e in checks.into_iter().filter_map(Result::err) {
            report.fail(&format!("verify block {k}: {e}"));
        }
    }
    let bnb = verdicts.iter().filter(|v| v.bnb.optimal).count();
    let sat = verdicts.iter().filter(|v| v.sat.optimal).count();
    report.note(format!(
        "verify chain: {} blocks, B&B proved {bnb}, SAT proved {sat}",
        verdicts.len()
    ));
}
