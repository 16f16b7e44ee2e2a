//! Deterministic certificate tests for the parallel prover: merged
//! multi-worker transcripts must check clean, and every class of tampering
//! — a dropped worker transcript, a truncated run passed off as complete —
//! must be rejected by the independent checker.

use pipesched_core::proof::{
    Certificate, CertificateHeader, CertificateTrailer, ProofEvent, ProofLogger,
};
use pipesched_core::{
    branch_and_bound, search, ParallelConfig, SchedContext, SearchConfig, SearchOutcome,
};
use pipesched_ir::{BasicBlock, BlockBuilder, DepDag};
use pipesched_machine::{presets, Machine};
use pipesched_proof::{check_certificate, ProofVerdict};

/// The merged certificate's pieces from a proof-logged
/// [`branch_and_bound`] run: the header and trailer, and the transcript
/// split at the root dispositions (one part for a serial run).
#[derive(Clone)]
struct PoolProof {
    header: CertificateHeader,
    parts: Vec<Vec<ProofEvent>>,
    trailer: CertificateTrailer,
}

impl PoolProof {
    /// Concatenate the parts into the certificate the checker replays.
    fn merge(&self) -> Certificate {
        Certificate {
            header: self.header.clone(),
            events: self.parts.concat(),
            trailer: self.trailer.clone(),
        }
    }
}

fn parallel_prove(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    par: &ParallelConfig,
) -> (SearchOutcome, PoolProof) {
    let (out, seen) = branch_and_bound(ctx, cfg, par, Some(ProofLogger::in_memory()), false);
    let cert = seen
        .proof
        .and_then(|p| p.certificate)
        .expect("in-memory proof");
    let parts = if seen.parts.is_empty() {
        vec![cert.events]
    } else {
        seen.parts
    };
    let proof = PoolProof {
        header: cert.header,
        parts,
        trailer: cert.trailer,
    };
    (out, proof)
}

fn parallel_search(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    par: &ParallelConfig,
) -> SearchOutcome {
    branch_and_bound(ctx, cfg, par, None, false).0
}

/// Independent chains of load/load/mul/store — enough root candidates
/// that phase 2 of the prover produces several per-subtree transcripts.
fn chained_block(chains: usize) -> BasicBlock {
    let mut b = BlockBuilder::new("chains");
    for i in 0..chains {
        let x = b.load(&format!("x{i}"));
        let y = b.load(&format!("y{i}"));
        let m = b.mul(x, y);
        b.store(&format!("r{i}"), m);
    }
    b.finish().unwrap()
}

fn machines() -> Vec<Machine> {
    vec![
        presets::paper_simulation(),
        presets::deep_pipeline(),
        presets::functional_units(),
        presets::section2_example(),
    ]
}

/// The merged certificate is accepted on every machine preset and
/// certifies exactly the serial optimum.
#[test]
fn merged_certificates_check_clean_across_machines() {
    let block = chained_block(3);
    let dag = DepDag::build(&block);
    for machine in machines() {
        let ctx = SchedContext::new(&block, &dag, &machine);
        let serial = search(&ctx, &SearchConfig::with_lambda(u64::MAX));
        assert!(serial.optimal);

        for threads in [1usize, 2, 4, 8] {
            let (out, proof) = parallel_prove(
                &ctx,
                &SearchConfig::with_lambda(u64::MAX),
                &ParallelConfig::with_threads(threads),
            );
            assert!(out.optimal, "{}: prover truncated", machine.name);
            assert_eq!(out.nops, serial.nops, "{}: wrong optimum", machine.name);

            let check = check_certificate(&block, &machine, &proof.merge());
            assert!(
                check.is_certified(),
                "{} at {} threads rejected:\n{}",
                machine.name,
                threads,
                check.report
            );
            assert_eq!(
                check.verdict,
                ProofVerdict::OptimalCertified { nops: serial.nops }
            );
        }
    }
}

/// Tamper: dropping any single per-worker transcript from the merged
/// certificate breaks the checker's coverage replay.
#[test]
fn dropped_worker_transcript_is_rejected() {
    let block = chained_block(3);
    let dag = DepDag::build(&block);
    let machine = presets::functional_units();
    let ctx = SchedContext::new(&block, &dag, &machine);

    let (out, proof) = parallel_prove(
        &ctx,
        &SearchConfig::with_lambda(u64::MAX),
        &ParallelConfig::with_threads(4),
    );
    assert!(out.optimal);
    assert!(
        proof.parts.len() >= 3,
        "tamper test needs several parts, got {}",
        proof.parts.len()
    );
    assert!(check_certificate(&block, &machine, &proof.merge()).is_certified());

    for drop_at in 0..proof.parts.len() {
        let mut tampered = proof.clone();
        tampered.parts.remove(drop_at);
        let check = check_certificate(&block, &machine, &tampered.merge());
        assert_eq!(
            check.verdict,
            ProofVerdict::Rejected,
            "certificate with part {drop_at} dropped was accepted"
        );
        assert!(check.report.has_errors());
    }
}

/// A λ-truncated parallel run must not produce a checkable certificate:
/// the trailer records `complete = false` and the checker rejects it, and
/// the outcome itself reports `optimal = false` with a legal incumbent.
#[test]
fn truncated_run_is_not_certifiable() {
    let block = chained_block(4);
    let dag = DepDag::build(&block);
    let machine = presets::paper_simulation();
    let ctx = SchedContext::new(&block, &dag, &machine);

    let (out, proof) = parallel_prove(
        &ctx,
        &SearchConfig {
            lambda: 5,
            terminate_on_lower_bound: false,
            ..SearchConfig::default()
        },
        &ParallelConfig::with_threads(2),
    );
    assert!(!out.optimal, "a five-Ω budget cannot prove this block");
    assert!(!proof.trailer.complete);
    pipesched_ir::analysis::verify_schedule(&block, &dag, &out.order).unwrap();

    let check = check_certificate(&block, &machine, &proof.merge());
    assert_eq!(check.verdict, ProofVerdict::Rejected);
}

/// The non-proving pool and the prover land on the same optimum (the
/// prover's phase split must not change the answer).
#[test]
fn prover_and_pool_agree() {
    let block = chained_block(3);
    let dag = DepDag::build(&block);
    for machine in machines() {
        let ctx = SchedContext::new(&block, &dag, &machine);
        let cfg = SearchConfig::with_lambda(u64::MAX);
        let pool = parallel_search(&ctx, &cfg, &ParallelConfig::with_threads(4));
        let (proved, _) = parallel_prove(&ctx, &cfg, &ParallelConfig::with_threads(4));
        assert!(pool.optimal && proved.optimal);
        assert_eq!(
            pool.nops, proved.nops,
            "{}: phase split drift",
            machine.name
        );
    }
}
