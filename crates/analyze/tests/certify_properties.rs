//! Property tests for the schedule certifier.
//!
//! 1. Whatever any scheduler in the workspace produces on a random block
//!    and machine certifies clean — three independent timing
//!    implementations agree.
//! 2. Corrupting an optimal schedule by swapping two positions (keeping
//!    the old η/μ claim) is either rejected with the right diagnostic
//!    code, or the swap was between timing-equivalent instructions and
//!    the derived μ still matches.

use proptest::prelude::*;

use pipesched_analyze::certify::{certify, Claim};
use pipesched_analyze::{certify_scheduled, DiagCode};
use pipesched_core::{
    branch_and_bound, list_schedule, search, windowed_schedule, ParallelConfig, SchedContext,
    Scheduler, SearchConfig,
};
use pipesched_ir::{BasicBlock, BlockAnalysis, BlockBuilder, DepDag, Op, TupleId};
use pipesched_machine::presets;

/// Random block of at most `max_len` instructions (same byte-script scheme
/// as the core crate's property tests; the cap keeps λ = ∞ searches
/// tractable on the unpipelined functional-units machine).
fn block_from_script(script: &[u8], max_len: usize) -> BasicBlock {
    let mut b = BlockBuilder::new("cprop");
    let vars = ["a", "b", "c", "d"];
    for chunk in script.chunks(2) {
        if b.len() >= max_len {
            break;
        }
        let (op, x) = (chunk[0], chunk.get(1).copied().unwrap_or(0));
        let blk = b.clone().finish_unchecked();
        let producers: Vec<TupleId> = blk
            .ids()
            .filter(|&i| blk.tuple(i).op.produces_value())
            .collect();
        match op % 5 {
            0 => {
                b.load(vars[x as usize % vars.len()]);
            }
            1 => {
                b.constant(i64::from(x));
            }
            2 | 3 if !producers.is_empty() => {
                let l = producers[x as usize % producers.len()];
                let r = producers[(x / 5) as usize % producers.len()];
                let ops = [Op::Add, Op::Sub, Op::Mul, Op::Div];
                b.binary(ops[x as usize % 4], l, r);
            }
            4 if !producers.is_empty() => {
                let v = producers[x as usize % producers.len()];
                b.store(vars[(x / 3) as usize % vars.len()], v);
            }
            _ => {
                b.load(vars[x as usize % vars.len()]);
            }
        }
    }
    if b.is_empty() {
        b.load("a");
    }
    b.finish().expect("valid by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_scheduler_certifies_clean(
        script in proptest::collection::vec(any::<u8>(), 2..40),
        machine_sel in any::<u8>(),
        window in 1usize..6,
    ) {
        let block = block_from_script(&script, 10);
        let machines = presets::all_presets();
        let machine = &machines[machine_sel as usize % machines.len()];
        let dag = DepDag::build(&block);
        let analysis = BlockAnalysis::compute(&dag);
        let ctx = SchedContext::new(&block, &dag, machine);

        let bnb = Scheduler::new(machine.clone()).with_lambda(20_000).schedule(&block);
        let cert = certify_scheduled(&block, machine, &bnb);
        prop_assert!(cert.is_certified(), "bnb:\n{}", cert.report);
        prop_assert_eq!(cert.derived_nops, Some(u64::from(bnb.nops)));

        let list = list_schedule(&dag, &analysis);
        let cert = certify(&block, machine, Claim { order: &list, ..Claim::default() });
        prop_assert!(cert.is_certified(), "list:\n{}", cert.report);
        prop_assert!(cert.derived_nops.unwrap() >= u64::from(bnb.nops));

        let w = windowed_schedule(&ctx, window, 20_000);
        let cert = certify(&block, machine, Claim {
            order: &w.order,
            etas: Some(&w.etas),
            nops: Some(w.nops),
            ..Claim::default()
        });
        prop_assert!(cert.is_certified(), "windowed:\n{}", cert.report);

        let (par, _) = branch_and_bound(
            &ctx,
            &SearchConfig::with_lambda(20_000),
            &ParallelConfig::with_threads(2),
            None,
            false,
        );
        let cert = certify(&block, machine, Claim {
            order: &par.order,
            assignment: Some(&par.assignment),
            etas: Some(&par.etas),
            nops: Some(par.nops),
        });
        prop_assert!(cert.is_certified(), "parallel:\n{}", cert.report);
    }

    #[test]
    fn single_swap_is_rejected_or_equivalent(
        script in proptest::collection::vec(any::<u8>(), 2..40),
        machine_sel in any::<u8>(),
        raw_i in any::<u8>(),
        raw_j in any::<u8>(),
    ) {
        let block = block_from_script(&script, 8);
        let machines = presets::all_presets();
        let machine = &machines[machine_sel as usize % machines.len()];
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, machine);
        let optimal = search(&ctx, &SearchConfig::with_lambda(u64::MAX));
        prop_assert!(optimal.optimal);

        let n = optimal.order.len();
        let (i, j) = (raw_i as usize % n, raw_j as usize % n);
        prop_assume!(i != j);
        let mut mutated = optimal.order.clone();
        mutated.swap(i, j);

        let cert = certify(&block, machine, Claim {
            order: &mutated,
            etas: Some(&optimal.etas),
            nops: Some(optimal.nops),
            ..Claim::default()
        });
        if cert.is_certified() {
            // The swapped instructions were timing-equivalent: the old η
            // claim still describes the mutated order exactly.
            prop_assert_eq!(cert.derived_nops, Some(u64::from(optimal.nops)));
        } else {
            // Rejection must come from the certifier's own vocabulary:
            // an ordering violation or a padding mismatch.
            let codes = [
                DiagCode::DependenceViolation,
                DiagCode::EtaMismatch,
                DiagCode::NopCountMismatch,
            ];
            prop_assert!(
                cert.report.diagnostics().iter().all(|d| codes.contains(&d.code)),
                "unexpected diagnostics:\n{}",
                cert.report
            );
        }
        // Whenever the mutated order is still *legal*, optimality of the
        // original bounds it from below.
        if !cert.report.has_code(DiagCode::DependenceViolation) {
            prop_assert!(cert.derived_nops.unwrap() >= u64::from(optimal.nops));
        }
    }
}
