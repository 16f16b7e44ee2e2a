//! Differential property suite for the work-stealing parallel search, run
//! through the `solve` dispatcher.
//!
//! Three independent exact engines — the serial branch-and-bound, the
//! parallel pool at every thread count, and the SAT/B&B race — must agree
//! on the optimal NOP count of every random block on every machine
//! preset. A profiled pool run must account for every node it visited.
//! When the parallel prover runs, its per-worker transcripts must merge
//! into one certificate the independent checker accepts, and the race's
//! SAT outcome must survive the full audit.

use proptest::prelude::*;

use pipesched_core::{search, Backend, ParallelConfig, SchedContext, SearchConfig};
use pipesched_machine::{presets, Machine};
use pipesched_proof::{check_certificate, ProofVerdict};
use pipesched_solve::audit::audit_outcome;
use pipesched_solve::{solve, Plan, ProofSink};
use pipesched_synth::{generate_block, GeneratorConfig};

fn machines() -> Vec<Machine> {
    vec![
        presets::paper_simulation(),
        presets::deep_pipeline(),
        presets::functional_units(),
        presets::section2_example(),
    ]
}

const THREADS: [usize; 4] = [1, 2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Serial, parallel (at every thread count), and the race agree.
    #[test]
    fn parallel_agrees_with_serial_and_race(seed in 0u64..10_000,
                                            statements in 1usize..7,
                                            machine_sel in 0usize..4) {
        let block = generate_block(&GeneratorConfig::new(statements, 3, 2, seed));
        let dag = pipesched_ir::DepDag::build(&block);
        let machine = &machines()[machine_sel];
        let ctx = SchedContext::new(&block, &dag, machine);

        let serial = search(&ctx, &SearchConfig::with_lambda(u64::MAX));
        prop_assert!(serial.optimal);

        for threads in THREADS {
            let out = solve(&ctx, &Plan {
                search: SearchConfig::with_lambda(u64::MAX),
                parallel: ParallelConfig::with_threads(threads),
                profile: true,
                ..Plan::default()
            });
            let par = &out.answer;
            prop_assert!(par.optimal, "parallel({threads}) truncated on\n{block}");
            let profile = out.profile.as_ref().expect("profiled plan");
            prop_assert_eq!(profile.total_nodes(), par.stats.nodes_visited);
            prop_assert_eq!(
                par.nops, serial.nops,
                "parallel({}) disagrees with serial on\n{}", threads, block
            );
            pipesched_ir::analysis::verify_schedule(&block, &dag, &par.order).unwrap();
            prop_assert_eq!(par.etas.iter().sum::<u32>(), par.nops);
        }

        // Third opinion: the SAT/B&B race, independently audited.
        let raced = solve(&ctx, &Plan { backend: Backend::Race, ..Plan::default() });
        prop_assert!(!raced.race.expect("race report").disagreement);
        prop_assert!(raced.answer.optimal);
        prop_assert_eq!(raced.answer.nops, serial.nops, "race disagrees on\n{}", block);
        let report = audit_outcome(&block, machine, raced.sat.as_ref().expect("SAT ran"));
        prop_assert!(!report.has_errors(), "audit rejected honest run on\n{}\n{:?}",
                     block, report);
    }

    /// The merged multi-worker certificate passes the independent checker
    /// and certifies exactly the serial optimum.
    #[test]
    fn merged_certificate_is_checker_clean(seed in 0u64..10_000,
                                           statements in 1usize..7,
                                           machine_sel in 0usize..4,
                                           threads_sel in 0usize..4) {
        let block = generate_block(&GeneratorConfig::new(statements, 3, 2, seed));
        let dag = pipesched_ir::DepDag::build(&block);
        let machine = &machines()[machine_sel];
        let ctx = SchedContext::new(&block, &dag, machine);

        let serial = search(&ctx, &SearchConfig::with_lambda(u64::MAX));
        prop_assert!(serial.optimal);

        let out = solve(&ctx, &Plan {
            search: SearchConfig::with_lambda(u64::MAX),
            parallel: ParallelConfig::with_threads(THREADS[threads_sel]),
            proof: ProofSink::InMemory,
            ..Plan::default()
        });
        prop_assert!(out.answer.optimal);
        prop_assert_eq!(out.answer.nops, serial.nops, "prover disagrees on\n{}", block);

        let cert = out.proof.and_then(|p| p.certificate).expect("in-memory certificate");
        let check = check_certificate(&block, machine, &cert);
        prop_assert!(
            check.is_certified(),
            "merged certificate rejected on\n{}\n{}", block, check.report
        );
        prop_assert_eq!(
            check.verdict,
            ProofVerdict::OptimalCertified { nops: serial.nops }
        );
    }
}
