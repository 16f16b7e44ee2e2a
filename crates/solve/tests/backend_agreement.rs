//! The portfolio's core invariant, property-tested through the `solve`
//! dispatcher: SAT, serial B&B, and parallel B&B must agree on the optimal
//! NOP count of every block on every machine, and every SAT outcome must
//! survive the independent audit (full certification + rebuilt-encoding
//! model re-checks). Every plan of the dispatcher's matrix — backend ×
//! threads × certificate × profile — must answer the same optimum, with a
//! checker-clean certificate and a profile that accounts for every node.

use proptest::prelude::*;

use pipesched_core::{search, Backend, ParallelConfig, SchedContext, SearchConfig};
use pipesched_machine::{presets, Machine};
use pipesched_proof::{check_certificate, ProofVerdict};
use pipesched_solve::audit::{audit_outcome, cross_check};
use pipesched_solve::{solve, Plan, ProofSink, QueryResult};
use pipesched_synth::{generate_block, GeneratorConfig};

fn machines() -> Vec<Machine> {
    vec![
        presets::paper_simulation(),
        presets::deep_pipeline(),
        presets::functional_units(),
        presets::section2_example(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Three independent exact algorithms, one optimum.
    #[test]
    fn sat_bnb_and_parallel_agree(seed in 0u64..10_000, statements in 1usize..7,
                                  machine_sel in 0usize..4) {
        let block = generate_block(&GeneratorConfig::new(statements, 3, 2, seed));
        let dag = pipesched_ir::DepDag::build(&block);
        let machine = &machines()[machine_sel];
        let ctx = SchedContext::new(&block, &dag, machine);

        let bnb = search(&ctx, &SearchConfig::default());
        let par = solve(&ctx, &Plan {
            search: SearchConfig::with_lambda(u64::MAX),
            parallel: ParallelConfig::with_threads(2),
            ..Plan::default()
        }).answer;
        let sat = solve(&ctx, &Plan { backend: Backend::Sat, ..Plan::default() })
            .sat
            .expect("a SAT plan runs SAT");

        prop_assert!(bnb.optimal && par.optimal && sat.optimal);
        prop_assert!(sat.encode_fault.is_none(), "{:?}", sat.encode_fault);
        prop_assert_eq!(bnb.nops, par.nops, "parallel B&B disagrees on\n{}", block);
        let agree = cross_check(&block, bnb.optimal, bnb.nops, sat.optimal, sat.nops);
        prop_assert!(!agree.has_errors(), "SAT disagrees with B&B on\n{}\n{:?}", block, agree);
        prop_assert_eq!(bnb.nops, sat.nops);

        // Every decoded schedule and the full query trail must audit clean.
        let report = audit_outcome(&block, machine, &sat);
        prop_assert!(!report.has_errors(), "audit rejected honest run on\n{}\n{:?}", block, report);

        // Optimality justification is always on record: either the answer
        // reached the global lower bound, or the last query is the
        // refuting UNSAT one NOP below it.
        if sat.nops > pipesched_core::global_lower_bound(&ctx) {
            let last = sat.queries.last().expect("non-bound optimum needs queries");
            prop_assert_eq!(&last.result, &QueryResult::Unsat);
            prop_assert_eq!(last.budget + 1, sat.nops);
        }
    }

    /// The race picks a provably-optimal winner and never disagrees.
    #[test]
    fn race_never_disagrees(seed in 0u64..10_000, statements in 1usize..7,
                            machine_sel in 0usize..4) {
        let block = generate_block(&GeneratorConfig::new(statements, 4, 2, seed));
        let dag = pipesched_ir::DepDag::build(&block);
        let machine = &machines()[machine_sel];
        let ctx = SchedContext::new(&block, &dag, machine);

        let out = solve(&ctx, &Plan { backend: Backend::Race, ..Plan::default() });
        let race = out.race.expect("a race plan reports the race");
        let sat = out.sat.as_ref().expect("a race runs SAT");
        prop_assert!(!race.disagreement);
        let answer = &out.answer;
        prop_assert!(answer.optimal);
        prop_assert!(out.backend != Backend::Race);
        prop_assert_eq!(race.bnb_nops, sat.nops);
        prop_assert_eq!(answer.nops, race.bnb_nops);
        prop_assert_eq!(answer.etas.iter().sum::<u32>(), answer.nops);

        let report = audit_outcome(&block, machine, sat);
        prop_assert!(!report.has_errors(), "{:?}", report);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The whole plan matrix: backend {bnb, sat, race} × threads {1, 2} ×
    /// certificate {off, in-memory} × profile {off, on}.
    #[test]
    fn every_plan_agrees(seed in 0u64..10_000, statements in 1usize..7,
                         machine_sel in 0usize..4) {
        let block = generate_block(&GeneratorConfig::new(statements, 3, 2, seed));
        let dag = pipesched_ir::DepDag::build(&block);
        let machine = &machines()[machine_sel];
        let ctx = SchedContext::new(&block, &dag, machine);
        let cfg = SearchConfig::with_lambda(u64::MAX);
        let serial = search(&ctx, &cfg);
        prop_assert!(serial.optimal);

        for backend in Backend::ALL {
            for threads in [1, 2] {
                for (prove, profile) in [(false, false), (false, true), (true, false), (true, true)] {
                    let plan = Plan {
                        search: cfg,
                        parallel: ParallelConfig::with_threads(threads),
                        backend,
                        proof: if prove { ProofSink::InMemory } else { ProofSink::Off },
                        profile,
                        ..Plan::default()
                    };
                    let tag = format!("{backend} x{threads} proof={prove} profile={profile}");
                    let out = solve(&ctx, &plan);
                    let answer = &out.answer;
                    prop_assert!(answer.optimal, "{} truncated on\n{}", tag, block);
                    prop_assert_eq!(answer.nops, serial.nops, "{} disagrees on\n{}", tag, block);
                    prop_assert!(out.backend != Backend::Race);
                    prop_assert_eq!(answer.etas.iter().sum::<u32>(), answer.nops);
                    pipesched_ir::analysis::verify_schedule(&block, &dag, &answer.order).unwrap();

                    if prove {
                        let cert = out.proof.as_ref().and_then(|p| p.certificate.as_ref());
                        let cert = cert.expect("an in-memory sink keeps the certificate");
                        let check = check_certificate(&block, machine, cert);
                        prop_assert_eq!(
                            check.verdict,
                            ProofVerdict::OptimalCertified { nops: serial.nops },
                            "{} certificate rejected on\n{}\n{}", tag, block, check.report
                        );
                    } else {
                        prop_assert!(out.proof.is_none());
                    }

                    if profile {
                        let profile = out.profile.as_ref().expect("profiled plan");
                        prop_assert_eq!(profile.total_nodes(), answer.stats.nodes_visited, "{}", tag);
                    } else {
                        prop_assert!(out.profile.is_none());
                    }

                    if backend == Backend::Bnb && threads == 1 {
                        prop_assert_eq!(&answer.order, &serial.order, "{}", tag);
                        prop_assert_eq!(answer.stats, serial.stats, "{}", tag);
                    }
                }
            }
        }
    }
}
