//! Property tests for the certificate checker: real certificates are
//! accepted verbatim, and *any* single-record tamper — dropping a prune,
//! lowering a bound, swapping an equivalence pair — is rejected with the
//! specific `A04xx` code the corruption deserves.

use proptest::prelude::*;

use pipesched_analyze::diag::DiagCode;
use pipesched_core::bnb::{search, search_with_proof, EquivalenceMode, SearchConfig};
use pipesched_core::proof::{Certificate, ProofEvent, ProofLogger};
use pipesched_core::SearchOutcome;
use pipesched_core::{global_lower_bound, BoundKind, SchedContext};
use pipesched_ir::{BasicBlock, BlockBuilder, DepDag, Op, TupleId};
use pipesched_machine::{presets, Machine};
use pipesched_proof::{check_certificate, ProofVerdict};

/// A proof-logged search kept in memory: the outcome and its certificate.
fn prove(ctx: &SchedContext<'_>, cfg: &SearchConfig) -> (SearchOutcome, Certificate) {
    let (out, proof) = search_with_proof(ctx, cfg, ProofLogger::in_memory());
    (out, proof.certificate.expect("in-memory certificate"))
}

/// A random basic block built from a byte script (same construction as the
/// core optimality suite): every generated block is valid by construction.
fn block_from_script(script: &[u8], max_len: usize) -> BasicBlock {
    let mut b = BlockBuilder::new("prop");
    let vars = ["a", "b", "c", "d"];
    for chunk in script.chunks(3) {
        if b.len() >= max_len {
            break;
        }
        let (op, x, y) = (
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        );
        let n = b.len();
        let pick = |sel: u8| TupleId((sel as usize % n) as u32);
        match op % 6 {
            0 => {
                b.load(vars[x as usize % vars.len()]);
            }
            1 => {
                b.constant(i64::from(x));
            }
            2 | 3 if n > 0 => {
                let ops = [Op::Add, Op::Sub, Op::Mul, Op::Div];
                let o = ops[y as usize % ops.len()];
                match (producing(&b, pick(x)), producing(&b, pick(y))) {
                    (Some(l), Some(r)) => {
                        b.binary(o, l, r);
                    }
                    _ => {
                        b.load(vars[x as usize % vars.len()]);
                    }
                }
            }
            4 if n > 0 => {
                if let Some(v) = producing(&b, pick(x)) {
                    b.store(vars[y as usize % vars.len()], v);
                } else {
                    b.load(vars[y as usize % vars.len()]);
                }
            }
            _ => {
                b.load(vars[y as usize % vars.len()]);
            }
        }
    }
    if b.is_empty() {
        b.load("a");
    }
    b.finish().expect("generated blocks are valid")
}

/// Find a value-producing tuple at or before `t` (scanning backwards).
fn producing(b: &BlockBuilder, t: TupleId) -> Option<TupleId> {
    let block = b.clone().finish_unchecked();
    (0..=t.index())
        .rev()
        .map(|i| TupleId(i as u32))
        .find(|&i| block.tuple(i).op.produces_value())
}

fn machines() -> Vec<Machine> {
    vec![
        presets::paper_simulation(),
        presets::deep_pipeline(),
        presets::functional_units(),
        presets::section2_example(),
    ]
}

/// An exhaustive-search config (no curtailment, no lower-bound early stop)
/// so every certificate closes its root node and tampering with any prune
/// record breaks coverage.
fn exhaustive(bound: BoundKind, equivalence: EquivalenceMode) -> SearchConfig {
    SearchConfig {
        lambda: u64::MAX,
        bound,
        equivalence,
        terminate_on_lower_bound: false,
        ..SearchConfig::default()
    }
}

fn prove_on(block: &BasicBlock, machine: &Machine, cfg: &SearchConfig) -> (u32, Certificate) {
    let dag = DepDag::build(block);
    let ctx = SchedContext::new(block, &dag, machine);
    let (out, cert) = prove(&ctx, cfg);
    assert!(out.optimal);
    (out.nops, cert)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every certificate the instrumented search emits — under either
    /// bound and every sound equivalence mode — is checker-accepted, with
    /// the certified μ equal to the search's.
    #[test]
    fn real_certificates_are_accepted(
        script in proptest::collection::vec(any::<u8>(), 0..30),
        machine_sel in 0usize..4,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        for bound in [BoundKind::AlphaBeta, BoundKind::CriticalPath] {
            for equivalence in [EquivalenceMode::Off, EquivalenceMode::Paper,
                                EquivalenceMode::Structural] {
                let (nops, cert) = prove_on(&block, machine, &exhaustive(bound, equivalence));
                let check = check_certificate(&block, machine, &cert);
                prop_assert!(
                    check.is_certified(),
                    "{bound:?}/{equivalence:?} rejected on {}:\n{}\n{}",
                    machine.name, block, check.report
                );
                prop_assert_eq!(check.verdict, ProofVerdict::OptimalCertified { nops });
            }
        }
        // The lower-bound early-stop path (a terminal ProvedByBound event)
        // must also certify.
        let cfg = SearchConfig { lambda: u64::MAX, ..SearchConfig::default() };
        let (_, cert) = prove_on(&block, machine, &cfg);
        let check = check_certificate(&block, machine, &cert);
        prop_assert!(check.is_certified(), "{}", check.report);
    }

    /// The NDJSON round trip preserves both the digest and acceptance.
    #[test]
    fn ndjson_round_trip_is_lossless(
        script in proptest::collection::vec(any::<u8>(), 0..30),
        machine_sel in 0usize..4,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        let cfg = exhaustive(BoundKind::CriticalPath, EquivalenceMode::Paper);
        let (_, cert) = prove_on(&block, machine, &cfg);
        let text = cert.to_ndjson();
        let back = Certificate::from_ndjson(&text).expect("round trip parses");
        prop_assert_eq!(back.digest(), cert.digest());
        prop_assert!(check_certificate(&block, machine, &back).is_certified());
    }

    /// Dropping any single prune record leaves that subtree uncovered:
    /// the checker must report `A0402 ProofCoverageGap`.
    #[test]
    fn dropped_prune_is_a_coverage_gap(
        script in proptest::collection::vec(any::<u8>(), 0..30),
        machine_sel in 0usize..4,
        victim in 0usize..64,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        let cfg = exhaustive(BoundKind::CriticalPath, EquivalenceMode::Paper);
        let (_, mut cert) = prove_on(&block, machine, &cfg);

        let prunes: Vec<usize> = cert.events.iter().enumerate()
            .filter(|(_, e)| matches!(e,
                ProofEvent::LegalityPrune { .. }
                | ProofEvent::EquivalencePrune { .. }
                | ProofEvent::BoundPrune { .. }))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!prunes.is_empty());
        cert.events.remove(prunes[victim % prunes.len()]);

        let check = check_certificate(&block, machine, &cert);
        prop_assert!(!check.is_certified());
        prop_assert!(
            check.report.has_code(DiagCode::ProofCoverageGap),
            "expected A0402, got:\n{}", check.report
        );
    }

    /// Lowering any bound-prune's recorded bound breaks the re-derived
    /// arithmetic: the checker must report `A0403 BoundArithmeticMismatch`.
    #[test]
    fn lowered_bound_is_an_arithmetic_mismatch(
        script in proptest::collection::vec(any::<u8>(), 0..30),
        machine_sel in 0usize..4,
        victim in 0usize..64,
        bound_sel in 0usize..2,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        let bound = [BoundKind::AlphaBeta, BoundKind::CriticalPath][bound_sel];
        let cfg = exhaustive(bound, EquivalenceMode::Paper);
        let (_, mut cert) = prove_on(&block, machine, &cfg);

        let prunes: Vec<usize> = cert.events.iter().enumerate()
            .filter(|(_, e)| matches!(e, ProofEvent::BoundPrune { bound, .. } if *bound > 0))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!prunes.is_empty());
        let i = prunes[victim % prunes.len()];
        if let ProofEvent::BoundPrune { bound, .. } = &mut cert.events[i] {
            *bound -= 1;
        }

        let check = check_certificate(&block, machine, &cert);
        prop_assert!(!check.is_certified());
        prop_assert!(
            check.report.has_code(DiagCode::BoundArithmeticMismatch),
            "expected A0403, got:\n{}", check.report
        );
    }

    /// Swapping an equivalence prune's (candidate, witness) pair cites a
    /// witness that was never placed at that node: the checker must report
    /// `A0405 StaleEquivalenceWitness`.
    #[test]
    fn swapped_witness_pair_is_stale(
        script in proptest::collection::vec(any::<u8>(), 0..30),
        machine_sel in 0usize..4,
        victim in 0usize..64,
        mode_sel in 0usize..2,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        let equivalence = [EquivalenceMode::Paper, EquivalenceMode::Structural][mode_sel];
        let cfg = exhaustive(BoundKind::CriticalPath, equivalence);
        let (_, mut cert) = prove_on(&block, machine, &cfg);

        let prunes: Vec<usize> = cert.events.iter().enumerate()
            .filter(|(_, e)| matches!(e, ProofEvent::EquivalencePrune { .. }))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!prunes.is_empty());
        let i = prunes[victim % prunes.len()];
        if let ProofEvent::EquivalencePrune { candidate, witness } = &mut cert.events[i] {
            std::mem::swap(candidate, witness);
        }

        let check = check_certificate(&block, machine, &cert);
        prop_assert!(!check.is_certified());
        prop_assert!(
            check.report.has_code(DiagCode::StaleEquivalenceWitness),
            "expected A0405, got:\n{}", check.report
        );
    }

    /// Inflating the trailer's claimed μ (understating quality would need a
    /// schedule that does not exist; overstating must also be caught) is an
    /// incumbent regression.
    #[test]
    fn tampered_trailer_nops_is_a_regression(
        script in proptest::collection::vec(any::<u8>(), 3..30),
        machine_sel in 0usize..4,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        let cfg = exhaustive(BoundKind::CriticalPath, EquivalenceMode::Paper);
        let (_, mut cert) = prove_on(&block, machine, &cfg);
        cert.trailer.nops += 1;
        let check = check_certificate(&block, machine, &cert);
        prop_assert!(!check.is_certified());
        prop_assert!(
            check.report.has_code(DiagCode::IncumbentRegression),
            "expected A0406, got:\n{}", check.report
        );
    }

    /// Certificates recorded under the paper's *unrestricted* rule [5c]
    /// are held to the restricted interchangeability condition: the checker
    /// either accepts (when the block has no distinguishing successors) or
    /// rejects specifically with `A0405` — and the search itself may have
    /// lost the optimum, which is exactly why the verdict matters.
    #[test]
    fn unrestricted_rule_certificates_never_pass_unsoundly(
        script in proptest::collection::vec(any::<u8>(), 0..30),
        machine_sel in 0usize..4,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        let cfg = exhaustive(BoundKind::CriticalPath, EquivalenceMode::UnrestrictedPaper);
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, machine);
        let (out, cert) = prove(&ctx, &cfg);
        prop_assert!(out.optimal); // "optimal" by its own (unsound) lights
        let check = check_certificate(&block, machine, &cert);
        if check.is_certified() {
            // Acceptance is only possible when every unrestricted prune
            // happened to satisfy the restricted condition too — in which
            // case the certified μ must be the true optimum.
            let sound = search(&ctx, &exhaustive(BoundKind::CriticalPath, EquivalenceMode::Off));
            prop_assert_eq!(check.verdict, ProofVerdict::OptimalCertified { nops: sound.nops });
        } else {
            prop_assert!(
                check.report.has_code(DiagCode::StaleEquivalenceWitness),
                "expected A0405, got:\n{}", check.report
            );
        }
    }

    /// `Certificate::by_bound` — the shortcut certificate the service's
    /// heuristic tiers emit when a schedule meets the global lower bound —
    /// is accepted exactly when the claimed μ really equals that bound.
    #[test]
    fn by_bound_certificates_check(
        script in proptest::collection::vec(any::<u8>(), 0..30),
        machine_sel in 0usize..4,
    ) {
        let block = block_from_script(&script, 8);
        let machine = &machines()[machine_sel];
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, machine);
        let out = search(&ctx, &SearchConfig { lambda: u64::MAX, ..SearchConfig::default() });
        prop_assert!(out.optimal);
        let lb = global_lower_bound(&ctx);
        prop_assume!(out.nops == lb);
        let order: Vec<u32> = out.order.iter().map(|t| t.0).collect();
        let cert = Certificate::by_bound(block.len() as u32, order, out.nops, lb);
        let check = check_certificate(&block, machine, &cert);
        prop_assert!(check.is_certified(), "{}", check.report);

        // ... and overstating the bound by one is an A0408.
        let order: Vec<u32> = out.order.iter().map(|t| t.0).collect();
        let forged = Certificate::by_bound(block.len() as u32, order, out.nops, lb + 1);
        let check = check_certificate(&block, machine, &forged);
        prop_assert!(!check.is_certified());
        prop_assert!(
            check.report.has_code(DiagCode::LowerBoundMismatch),
            "expected A0408, got:\n{}", check.report
        );
    }
}
