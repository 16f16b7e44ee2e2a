//! `corpus`: the paper's Table 7 experiment. Every block of the seeded
//! corpus is compiled serially on one thread by `DepDag::build` +
//! `SchedContext::new` + `search` at λ = 50 000.

use std::time::Instant;

use pipesched_core::timing::evaluate_schedule;
use pipesched_core::{global_lower_bound, search, SchedContext, SearchConfig};
use pipesched_ir::{BasicBlock, DepDag, TupleId};
use pipesched_machine::Machine;

use crate::check;
use crate::layers::Layers;
use crate::report::RunReport;
use crate::spans::Tracer;
use crate::stats::{min_over_passes, Summary};

/// Blocks per run: the paper's whole 16 000-block study. About one block
/// in fifty exhausts λ and these dominate the summed compile time; the
/// more blocks, the less `blocks_per_s` depends on how many of them a
/// seed happens to draw.
pub const BLOCKS: usize = 16_000;

/// One block's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub order: Vec<TupleId>,
    pub etas: Vec<u32>,
    pub nops: u32,
    pub optimal: bool,
}

pub struct Setup {
    pub blocks: Vec<BasicBlock>,
    pub machine: Machine,
}

pub fn setup(seed: u64) -> Setup {
    Setup {
        blocks: crate::gen::corpus(seed, BLOCKS),
        machine: crate::machine(),
    }
}

fn compile(block: &BasicBlock, machine: &Machine, cfg: &SearchConfig) -> Answer {
    let dag = DepDag::build(block);
    let ctx = SchedContext::new(block, &dag, machine);
    let out = search(&ctx, cfg);
    Answer {
        order: out.order,
        etas: out.etas,
        nops: out.nops,
        optimal: out.optimal,
    }
}

/// Passes over the corpus a run makes at least.
pub const MIN_PASSES: usize = 2;

/// A block whose first compile in a pass took less than this many
/// milliseconds is compiled once more right away, and its faster compile
/// counts, so a small block's time is its cost with warm caches: compiled
/// right after another block, a small one spends about a third of its
/// time refilling caches, and that share swings with the host's load far
/// more than the compute does. Longer searches are compiled once; a
/// refill is a negligible share of them.
pub const WARM_BELOW_MS: f64 = 1.0;

/// Compile the whole corpus pass after pass until `seconds` elapse (at
/// least [`MIN_PASSES`] passes), small blocks twice in a row (see
/// [`WARM_BELOW_MS`]); each block's time is its fastest compile. Returns
/// the first compile's answers; every later compile must repeat them.
pub fn run(s: &Setup, seconds: f64, report: &mut RunReport) -> Vec<Answer> {
    let cfg = SearchConfig::default();
    let mut answers: Vec<Answer> = Vec::with_capacity(s.blocks.len());
    let mut drifted = Vec::new();
    let mut compiles = 0u64;
    let start = Instant::now();
    let (block_ms, passes) = min_over_passes(s.blocks.len(), MIN_PASSES, seconds, |pass, k| {
        let mut best = f64::INFINITY;
        for rep in 0..2 {
            if rep == 1 && best >= WARM_BELOW_MS {
                break;
            }
            let t = Instant::now();
            let answer = std::hint::black_box(compile(&s.blocks[k], &s.machine, &cfg));
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
            compiles += 1;
            if pass == 0 && rep == 0 {
                answers.push(answer);
            } else if answer != answers[k] && drifted.last() != Some(&k) {
                drifted.push(k);
            }
        }
        best
    });
    let wall = start.elapsed().as_secs_f64();
    for k in drifted {
        report.fail(&format!(
            "corpus block {k}: a later compile answered differently"
        ));
    }

    let n = answers.len();
    let busy_s: f64 = block_ms.iter().sum::<f64>() / 1e3;
    let lat = Summary::of(block_ms);
    let rate = n as f64 / busy_s;
    report.note(format!(
        "corpus: {passes} passes, {compiles} compiles of {n} blocks in {wall:.3} s; fastest compile per block {}",
        lat.describe("ms")
    ));
    report.e2e("blocks_per_s", rate, n);
    report.e2e("lat_p50_ms", lat.p50, lat.n);
    report.e2e("lat_p99_ms", lat.p99, lat.n);
    let optimal = answers.iter().filter(|a| a.optimal).count();
    report.e2e("pct_optimal", 100.0 * optimal as f64 / n as f64, n);
    let nops: u64 = answers.iter().map(|a| u64::from(a.nops)).sum();
    report.e2e("mean_nops", nops as f64 / n as f64, n);
    report.attempted = compiles;
    answers
}

/// Independent output checks, outside the timed region.
pub fn check_answers(s: &Setup, answers: &[Answer], report: &mut RunReport) {
    for (k, a) in answers.iter().enumerate() {
        if let Err(e) = check::schedule(&s.blocks[k], &s.machine, &a.order, None, &a.etas, a.nops) {
            report.fail(&format!("corpus block {k}: {e}"));
        }
    }
}

/// Traced replay of the corpus calls, plus the bound and timing-engine
/// probes, over the blocks the timed run compiled. Returns the answers.
pub fn replay(s: &Setup, count: usize, tr: &mut Tracer, layers: &mut Layers) -> Vec<Answer> {
    let cfg = SearchConfig::default();
    let mut out = Vec::with_capacity(count);
    for (k, block) in s.blocks.iter().take(count).enumerate() {
        tr.set_request(k as u32);
        tr.enter("block");
        let dag = tr.span("ir.dag", || DepDag::build(block));
        let ctx = tr.span("core.ctx", || SchedContext::new(block, &dag, &s.machine));
        let lb = tr.span("bounds.lb", || global_lower_bound(&ctx));
        let res = tr.span("bnb", || search(&ctx, &cfg));
        let (_, nops) = tr.span("timing.eval", || evaluate_schedule(&ctx, &res.order));
        tr.exit();
        std::hint::black_box((lb, nops));
        layers.search(&res.stats);
        layers.tuples_timed += block.len() as u64;
        out.push(Answer {
            order: res.order,
            etas: res.etas,
            nops: res.nops,
            optimal: res.optimal,
        });
    }
    out
}
