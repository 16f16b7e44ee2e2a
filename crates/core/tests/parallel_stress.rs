//! Deterministic forced-steal stress for the work-stealing pool.
//!
//! `split_depth >= block length` turns *every* placement into a
//! stealable task, maximizing deque traffic and contention on the
//! shared incumbent/stop/pending protocol — the configuration the
//! model-checked harnesses in `crates/check/tests/model_*.rs` explore
//! at small scale, here driven end-to-end at 8 threads. The assertions
//! are the pool's shutdown contract: the scope joins (no wedged
//! worker), the result is exactly the serial optimum, and the merged
//! stats account for every split.

use pipesched_core::proof::ProofLogger;
use pipesched_core::{branch_and_bound, search, ParallelConfig, SchedContext, SearchConfig};
use pipesched_machine::presets;
use pipesched_proof::check_certificate;
use pipesched_synth::{generate_block, GeneratorConfig};

/// Every placement a task, fixed 8-thread pool.
fn forced_steal(threads: usize, n: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        split_depth: n,
    }
}

#[test]
fn forced_steal_pool_shuts_down_clean_at_8_threads() {
    for seed in [11u64, 23, 47] {
        let block = generate_block(&GeneratorConfig::new(6, 3, 2, seed));
        let dag = pipesched_ir::DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);

        let serial = search(&ctx, &SearchConfig::with_lambda(u64::MAX));
        assert!(serial.optimal);

        let (par, _) = branch_and_bound(
            &ctx,
            &SearchConfig::with_lambda(u64::MAX),
            &forced_steal(8, ctx.len()),
            None,
            false,
        );
        assert!(par.optimal, "forced-steal pool truncated on\n{block}");
        assert_eq!(par.nops, serial.nops, "disagrees with serial on\n{block}");
        pipesched_ir::analysis::verify_schedule(&block, &dag, &par.order).unwrap();
        // Shutdown accounting: whenever the pool actually explored (the
        // seed can prove optimality outright, skipping it), maximal
        // splitting must have produced subtree tasks; and the η
        // decomposition of the returned schedule is consistent.
        assert!(
            par.stats.nodes_visited == 0 || par.stats.splits > 0,
            "split_depth = n produced no subtree tasks over {} nodes",
            par.stats.nodes_visited
        );
        assert_eq!(par.etas.iter().sum::<u32>(), par.nops);
    }
}

#[test]
fn forced_steal_prover_still_certifies() {
    let block = generate_block(&GeneratorConfig::new(5, 3, 2, 31));
    let dag = pipesched_ir::DepDag::build(&block);
    let machine = presets::deep_pipeline();
    let ctx = SchedContext::new(&block, &dag, &machine);

    let serial = search(&ctx, &SearchConfig::with_lambda(u64::MAX));
    let (out, seen) = branch_and_bound(
        &ctx,
        &SearchConfig::with_lambda(u64::MAX),
        &forced_steal(8, ctx.len()),
        Some(ProofLogger::in_memory()),
        false,
    );
    assert!(out.optimal);
    assert_eq!(out.nops, serial.nops);
    let cert = seen
        .proof
        .and_then(|p| p.certificate)
        .expect("in-memory proof");
    let check = check_certificate(&block, &machine, &cert);
    assert!(
        check.is_certified(),
        "forced-steal certificate rejected:\n{}",
        check.report
    );
}
