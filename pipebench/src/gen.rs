//! Seeded workload generation.
//!
//! Everything a workload feeds the program is derived from the `--seed`
//! argument here: the same seed gives byte-identical corpora and request
//! streams, a different seed gives different ones. The program only ever
//! sees the generated blocks and NDJSON lines.

use pipesched_ir::BasicBlock;
use pipesched_json::Json;
use pipesched_synth::CorpusSpec;

/// Machine preset every workload schedules for (the paper's simulation
/// machine, Table 7).
pub const MACHINE: &str = "paper-simulation";

/// splitmix64 finalizer: decorrelates `(seed, stream)` pairs.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Small deterministic generator for workload shaping (repeat choices).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed, stream) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// The Table 7 corpus generator (`CorpusSpec::paper_default`), reseeded.
pub fn corpus_spec(seed: u64) -> CorpusSpec {
    CorpusSpec {
        base_seed: mix(seed, 1),
        ..CorpusSpec::paper_default()
    }
}

/// The seeded corpus, block by block.
pub fn corpus_blocks(seed: u64) -> impl Iterator<Item = BasicBlock> {
    let spec = corpus_spec(seed);
    (0..spec.runs).map(move |k| spec.block(k))
}

/// The first `count` blocks of the seeded corpus.
pub fn corpus(seed: u64, count: usize) -> Vec<BasicBlock> {
    corpus_blocks(seed).take(count).collect()
}

/// One generated serve request: its NDJSON line and the index of the
/// corpus block (shape) it is a renamed copy of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub line: String,
    pub shape: usize,
    pub repeat: bool,
}

/// Render request `id` for `block`, renaming every variable (`#x` becomes
/// `#r<id>_x`). The tuple order is kept, so a renamed repeat is isomorphic
/// to its shape and the search answers it identically.
pub fn request_line(id: usize, block: &BasicBlock, budget_nodes: u64) -> String {
    request_from_text(id, &Json::Str(block.to_string()).to_compact(), budget_nodes)
}

/// [`request_line`] from the block text already rendered as a JSON string.
fn request_from_text(id: usize, quoted_block: &str, budget_nodes: u64) -> String {
    format!(
        "{{\"id\":{id},\"block\":{},\"machine\":\"{MACHINE}\",\"budget_nodes\":{budget_nodes}}}",
        quoted_block.replace('#', &format!("#r{id}_"))
    )
}

/// Shape of a serve request stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Requests to generate.
    pub requests: usize,
    /// Probability that a request repeats an earlier shape.
    pub repeat_frac: f64,
    /// Repeats pick uniformly among the most recent `window` distinct
    /// shapes (all shapes when `fresh` is false).
    pub window: usize,
    /// Whether non-repeat requests draw fresh corpus blocks. When false,
    /// every request repeats one of the first `window` corpus blocks.
    pub fresh: bool,
    /// Ω-call budget every request asks for.
    pub budget_nodes: u64,
}

/// Generate a request stream from the seeded corpus. Returns the requests
/// and the corpus blocks they are renamed copies of (indexed by `shape`).
pub fn stream(seed: u64, spec: &StreamSpec) -> (Vec<Request>, Vec<BasicBlock>) {
    let mut rng = Rng::new(seed, 2);
    let mut next_fresh = if spec.fresh { 0 } else { spec.window };
    let mut plan = Vec::with_capacity(spec.requests);
    for _ in 0..spec.requests {
        let repeat = !spec.fresh || (next_fresh > 0 && rng.chance(spec.repeat_frac));
        let shape = if repeat {
            let span = spec.window.min(next_fresh);
            next_fresh - 1 - rng.below(span)
        } else {
            next_fresh += 1;
            next_fresh - 1
        };
        plan.push((shape, repeat));
    }
    let blocks = corpus(seed, next_fresh);
    let quoted: Vec<String> = blocks
        .iter()
        .map(|b| Json::Str(b.to_string()).to_compact())
        .collect();
    let requests = plan
        .into_iter()
        .enumerate()
        .map(|(id, (shape, repeat))| Request {
            line: request_from_text(id, &quoted[shape], spec.budget_nodes),
            shape,
            repeat,
        })
        .collect();
    (requests, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> StreamSpec {
        StreamSpec {
            requests: 2000,
            repeat_frac: 0.5,
            window: 64,
            fresh: true,
            budget_nodes: 12_500,
        }
    }

    #[test]
    fn same_seed_same_bytes() {
        let text = |v: &[BasicBlock]| v.iter().map(|b| b.to_string()).collect::<String>();
        assert_eq!(text(&corpus(7, 50)), text(&corpus(7, 50)));
        assert_eq!(stream(7, &spec()), stream(7, &spec()));
    }

    #[test]
    fn different_seed_different_bytes() {
        let text = |v: &[BasicBlock]| v.iter().map(|b| b.to_string()).collect::<String>();
        assert_ne!(text(&corpus(7, 50)), text(&corpus(8, 50)));
        let lines = |seed| -> Vec<String> {
            stream(seed, &spec())
                .0
                .into_iter()
                .map(|r| r.line)
                .collect()
        };
        assert_ne!(lines(7), lines(8));
    }

    #[test]
    fn repeat_fraction_and_window_hold() {
        let (reqs, blocks) = stream(3, &spec());
        let repeats = reqs.iter().filter(|r| r.repeat).count();
        let frac = repeats as f64 / reqs.len() as f64;
        assert!((0.45..=0.55).contains(&frac), "repeat fraction {frac}");
        assert!(!reqs[0].repeat, "the first request must be fresh");
        let mut fresh = 0usize;
        for r in &reqs {
            if r.repeat {
                assert!(
                    r.shape < fresh && fresh - r.shape <= 64,
                    "repeat outside window"
                );
            } else {
                assert_eq!(r.shape, fresh);
                fresh += 1;
            }
        }
        assert_eq!(blocks.len(), fresh);
    }

    #[test]
    fn hot_stream_only_repeats_warm_shapes() {
        let hot = StreamSpec {
            requests: 500,
            repeat_frac: 1.0,
            window: 48,
            fresh: false,
            budget_nodes: 12_500,
        };
        let (reqs, blocks) = stream(3, &hot);
        assert!(reqs.iter().all(|r| r.repeat && r.shape < 48));
        assert_eq!(blocks.len(), 48);
    }

    #[test]
    fn renamed_repeats_keep_the_tuple_structure() {
        let blocks = corpus(5, 1);
        let a = request_line(1, &blocks[0], 7);
        let b = request_line(2, &blocks[0], 9);
        assert_ne!(a, b);
        let doc = pipesched_json::parse(&a).expect("request is JSON");
        assert_eq!(doc.get("id").and_then(Json::as_i64), Some(1));
        let ra = pipesched_service::parse_request(&a).expect("request parses");
        let rb = pipesched_service::parse_request(&b).expect("request parses");
        assert_eq!((ra.budget_nodes, rb.budget_nodes), (Some(7), Some(9)));
        assert_eq!(ra.block.len(), rb.block.len());
        for (x, y) in ra.block.tuples().iter().zip(rb.block.tuples()) {
            assert_eq!(x.op, y.op);
        }
    }
}
