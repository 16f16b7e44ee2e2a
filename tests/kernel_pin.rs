//! Pin the serial search wrappers bit-identical across refactors.
//!
//! The serial entry points (`search`, `search_with_proof`, and a profiled
//! run through the `solve` dispatcher) share one policy-generic kernel;
//! these tests hold their observable outputs — schedule, statistics, and
//! certificate digest — fixed to the values the pre-refactor copies
//! produced on the checked-in example corpus, so any behavioural drift in
//! the kernel shows up as a failed pin, not a silent change.
//!
//! Regenerate the table by running with `PIPESCHED_PIN_PRINT=1` and
//! `--nocapture` — but only after convincing yourself the change in
//! behaviour is intended.

use pipesched::core::proof::ProofLogger;
use pipesched::core::{search, search_with_proof, SchedContext, SearchConfig};
use pipesched::frontend::{lower, parse_labeled_program};
use pipesched::ir::{BasicBlock, DepDag};
use pipesched::machine::{presets, Machine};
use pipesched::solve::{solve, Plan};

/// One pinned row: wrapper outputs for (block, machine) under the default
/// `SearchConfig`.
struct Pin {
    block: &'static str,
    machine: &'static str,
    initial_nops: u32,
    nops: u32,
    nodes_visited: u64,
    omega_calls: u64,
    pruned_bound: u64,
    digest: u64,
}

/// Golden values captured from the pre-refactor wrappers (PR 7 base).
const PINS: &[Pin] = &[
    Pin {
        block: "dotproduct",
        machine: "paper-simulation",
        initial_nops: 8,
        nops: 8,
        nodes_visited: 502,
        omega_calls: 1105,
        pruned_bound: 604,
        digest: 0xe1f8c32a79b980e5,
    },
    Pin {
        block: "dotproduct",
        machine: "paper-table2",
        initial_nops: 12,
        nops: 12,
        nodes_visited: 1738,
        omega_calls: 3017,
        pruned_bound: 1280,
        digest: 0x2a25354a87065b03,
    },
    Pin {
        block: "dotproduct",
        machine: "deep-pipeline",
        initial_nops: 20,
        nops: 20,
        nodes_visited: 270,
        omega_calls: 629,
        pruned_bound: 360,
        digest: 0x22f04d3b00ff84a9,
    },
    Pin {
        block: "dotproduct",
        machine: "functional-units",
        initial_nops: 21,
        nops: 18,
        nodes_visited: 793,
        omega_calls: 1449,
        pruned_bound: 657,
        digest: 0xc4890562e5e908b0,
    },
    Pin {
        block: "dotproduct",
        machine: "section2-example",
        initial_nops: 5,
        nops: 4,
        nodes_visited: 566,
        omega_calls: 1029,
        pruned_bound: 464,
        digest: 0xe5a771cfa1324f23,
    },
    Pin {
        block: "dotproduct",
        machine: "unpipelined",
        initial_nops: 0,
        nops: 0,
        nodes_visited: 0,
        omega_calls: 0,
        pruned_bound: 0,
        digest: 0x43f5f36b0f16947b,
    },
    Pin {
        block: "stages:entry",
        machine: "paper-simulation",
        initial_nops: 4,
        nops: 4,
        nodes_visited: 1,
        omega_calls: 2,
        pruned_bound: 2,
        digest: 0xd910304b18472a89,
    },
    Pin {
        block: "stages:square",
        machine: "paper-simulation",
        initial_nops: 4,
        nops: 4,
        nodes_visited: 0,
        omega_calls: 0,
        pruned_bound: 0,
        digest: 0x18a9aacd0c1d2457,
    },
    Pin {
        block: "stages:finish",
        machine: "paper-simulation",
        initial_nops: 3,
        nops: 3,
        nodes_visited: 1,
        omega_calls: 2,
        pruned_bound: 2,
        digest: 0x8ca8f99aef320ec7,
    },
];

fn load_machine(name: &str) -> Machine {
    match name {
        "paper-simulation" => presets::paper_simulation(),
        "paper-table2" => presets::table2_example(),
        "deep-pipeline" => presets::deep_pipeline(),
        "functional-units" => presets::functional_units(),
        "section2-example" => presets::section2_example(),
        "unpipelined" => presets::unpipelined(),
        other => panic!("unknown pinned machine {other}"),
    }
}

/// The example corpus, exactly as the CLI compiles it (optimizer on, under
/// translation validation).
fn corpus() -> Vec<(String, BasicBlock)> {
    let mut blocks = Vec::new();
    for file in ["dotproduct", "stages"] {
        let text = std::fs::read_to_string(format!("examples/data/{file}.src"))
            .expect("read example source");
        let regions = parse_labeled_program(&text).expect("parse");
        let multi = regions.len() > 1;
        for (name, program) in regions {
            let lowered = lower(&name, &program);
            let (optimized, _) =
                pipesched::analyze::optimize_verified(&lowered, &Default::default())
                    .expect("optimizer validates");
            let label = if multi {
                format!("{file}:{name}")
            } else {
                file.to_string()
            };
            blocks.push((label, optimized));
        }
    }
    blocks
}

fn find_block(blocks: &[(String, BasicBlock)], label: &str) -> BasicBlock {
    blocks
        .iter()
        .find(|(name, _)| name == label)
        .unwrap_or_else(|| panic!("pinned block {label} not in corpus"))
        .1
        .clone()
}

#[test]
fn wrappers_match_pre_refactor_outputs_on_example_corpus() {
    let blocks = corpus();
    let print = std::env::var_os("PIPESCHED_PIN_PRINT").is_some();
    for pin in PINS {
        let block = find_block(&blocks, pin.block);
        let machine = load_machine(pin.machine);
        let dag = DepDag::build(&block);
        let ctx = SchedContext::new(&block, &dag, &machine);
        let cfg = SearchConfig::default();

        let plain = search(&ctx, &cfg);
        let (proved, proof) = search_with_proof(&ctx, &cfg, ProofLogger::in_memory());
        let plan = Plan {
            search: cfg,
            profile: true,
            ..Plan::default()
        };
        let out = solve(&ctx, &plan);
        let (profiled, profile) = (&out.answer, out.profile.as_ref().expect("profiled plan"));

        if print {
            println!(
                "Pin {{ block: {:?}, machine: {:?}, initial_nops: {}, nops: {}, \
                 nodes_visited: {}, omega_calls: {}, pruned_bound: {}, digest: {:#018x} }},",
                pin.block,
                pin.machine,
                plain.initial_nops,
                plain.nops,
                plain.stats.nodes_visited,
                plain.stats.omega_calls,
                plain.stats.pruned_bound,
                proof.digest,
            );
            continue;
        }

        let tag = format!("{} on {}", pin.block, pin.machine);
        // The three wrappers agree with each other bit for bit.
        assert_eq!(proved.order, plain.order, "{tag}: proof order");
        assert_eq!(proved.stats, plain.stats, "{tag}: proof stats");
        assert_eq!(profiled.order, plain.order, "{tag}: profile order");
        assert_eq!(profiled.stats, plain.stats, "{tag}: profile stats");
        assert_eq!(profiled.etas, plain.etas, "{tag}: profile etas");

        // And with the pre-refactor kernel.
        assert_eq!(plain.initial_nops, pin.initial_nops, "{tag}: initial μ");
        assert_eq!(plain.nops, pin.nops, "{tag}: final μ");
        assert_eq!(plain.stats.nodes_visited, pin.nodes_visited, "{tag}: nodes");
        assert_eq!(plain.stats.omega_calls, pin.omega_calls, "{tag}: Ω calls");
        assert_eq!(
            plain.stats.pruned_bound, pin.pruned_bound,
            "{tag}: bound prunes"
        );
        assert_eq!(proof.digest, pin.digest, "{tag}: certificate digest");
        assert!(plain.optimal, "{tag}: pinned runs all complete");

        // The structural search identity holds on every pinned path.
        if !plain.stats.proved_by_bound && plain.stats.nodes_visited > 0 {
            assert_eq!(
                plain.stats.nodes_visited,
                1 + plain.stats.omega_calls - plain.stats.pruned_bound,
                "{tag}: 1 + Ω − bound-pruned == nodes"
            );
        }

        // Per-depth profile totals decompose the same statistics.
        assert_eq!(
            profile.total_nodes(),
            plain.stats.nodes_visited,
            "{tag}: profile node total"
        );
    }
}
