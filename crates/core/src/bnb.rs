//! The pruned schedule search procedure (§4.2.3).
//!
//! The search is a depth-first walk over prefixes of legal schedules. Depth
//! `i` decides which instruction occupies position `i`; candidates are
//! drawn from the unscheduled suffix of the current ordering Π (initially
//! the list schedule), with the instruction already at position `i` tried
//! first — so the first full descent reproduces the initial incumbent and
//! the α-β bound is tight from the start.
//!
//! Pruning devices, mapped to the paper's step numbers:
//!
//! * **[5a] quick legality** — `earliest(ξ) ≤ i` (definition 6) rejects a
//!   candidate without touching the readiness counters. The other half of
//!   the paper's check, `latest(κ) ≥ Π⁻¹(ξ)`, constrains the instruction
//!   displaced *out* of position `i`; our enumeration treats the suffix as
//!   unordered scratch (every later depth rescans all of Ψ), so that half
//!   is vacuous here and is not applied.
//! * **[5b] real legality** — all of ξ's immediate predecessors are already
//!   scheduled (O(1) via the frontier's pending-predecessor counter).
//! * **[5c] equivalence** — skip swapping two *interchangeable free*
//!   instructions: both `σ = ∅` and `ρ = ∅` **and identical successor
//!   sets**. The paper's printed rule omits the successor condition, and
//!   our brute-force property suite found a counterexample for the
//!   unrestricted rule: two constants feeding *different* consumers are not
//!   order-equivalent, because placing one first makes different
//!   instructions ready at the intermediate depths (e.g. `Const→Mul` vs
//!   `Const→Add` chains on a high-enqueue machine lose one NOP of the
//!   optimum). With the successor restriction the swap is a pure
//!   relabeling — identical timing and identical readiness — so pruning it
//!   is safe, and the restricted rule still fires on the common case of
//!   duplicate literals. [`EquivalenceMode::Structural`] extends the idea
//!   to classes of instructions with identical operation, predecessor set
//!   and successor set.
//! * **[6] α-β bound** — extend a partial schedule only while its NOP count
//!   (optionally strengthened by [`BoundKind::CriticalPath`]) is strictly
//!   below the incumbent's.
//! * **[4] curtail point λ** — hard cap on Ω calls; hitting it returns the
//!   best schedule found with `optimal = false`.
//!
//! With [`SearchConfig::pipeline_selection`] enabled the search also chooses
//! *which* unit executes each instruction when the machine maps an
//! operation to several pipelines (the feature §4.1 footnote 3 excludes
//! from the paper's algorithm), with symmetry breaking over units in
//! identical states.
//!
//! Each placement (one Ω call) pushes the instruction onto the timing
//! engine and advances the search *frontier* (`crate::bounds::Frontier`)
//! before the bound is taken: pending-predecessor counts, the ready set as
//! a bit set, and each newly ready instruction's dependence head, computed
//! once from its placed predecessors. Both are undone after the subtree or
//! the prune, at a cost proportional to the instruction's successors, so
//! the bound never rescans the block. Nothing on the per-placement path
//! allocates — the structural-equivalence classes tried per node share one
//! preallocated stack — which `tests/alloc_free_kernel.rs` checks exactly.

use pipesched_ir::{analysis::verify_schedule, TupleId};
use pipesched_machine::PipelineId;

pub use crate::bounds::BoundKind;
use crate::bounds::{Frontier, LowerBound};
use crate::context::SchedContext;
use crate::parallel::{parallel_prove, parallel_search, ParallelConfig};
use crate::profile::{DepthStats, SearchProfile};
use crate::proof::{
    trailer_for, Certificate, CertificateHeader, ProofEvent, ProofLogger, ProofOutput,
};
use crate::timing::{BoundaryState, TimingEngine};

/// Which heuristic seeds the search's initial incumbent (step [1]).
/// §3.2 notes that "any other scheduling technique proposed in the
/// literature ... could be applied to find this initial schedule"; the
/// quality of the incumbent controls how early the α-β bound bites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitialHeuristic {
    /// The paper's [ZaD90] max-producer-consumer-distance list schedule
    /// (machine-independent).
    #[default]
    MaxDistance,
    /// Source/program order — what naive code generation emits.
    SourceOrder,
    /// The Gross-style machine-aware greedy schedule.
    Greedy,
}

/// How aggressively provably-equivalent schedules are filtered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EquivalenceMode {
    /// No equivalence filtering (for ablation).
    Off,
    /// The paper's rule [5c]: both instructions pipeline-free and
    /// dependence-free.
    #[default]
    Paper,
    /// The paper's rule [5c] exactly as printed — **without** the
    /// identical-successor-set restriction the module docs explain. This
    /// rule is *unsound* (it can prune the only optimal schedules); the
    /// variant exists so the proof checker's rejection of over-pruning
    /// certificates can be demonstrated and tested, and for ablation.
    /// Never use it to produce schedules you intend to trust.
    UnrestrictedPaper,
    /// Structural interchangeability classes (strict superset of `Paper`).
    Structural,
}

/// Tunable parameters of the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Curtail point λ: maximum Ω calls before truncation (§2.3).
    pub lambda: u64,
    /// Pruning bound (paper α-β or strengthened critical path).
    pub bound: BoundKind,
    /// Equivalent-schedule filtering mode.
    pub equivalence: EquivalenceMode,
    /// Choose among multiple pipelines per op (extension; §4.1 footnote 3).
    pub pipeline_selection: bool,
    /// Apply the quick [5a] pre-check (for ablation; never affects results).
    pub quick_check: bool,
    /// Heuristic for the initial incumbent (step [1]).
    pub initial: InitialHeuristic,
    /// Stop with an optimality *proof* as soon as the incumbent's NOP count
    /// reaches the admissible critical-path/resource lower bound of the
    /// whole block (an implementation strengthening beyond the paper: it
    /// never changes which schedule is found, only how quickly the search
    /// can prove it optimal instead of exhausting the space).
    pub terminate_on_lower_bound: bool,
    /// Wall-clock deadline: the search stops (anytime, returning the
    /// incumbent with `optimal = false`) once `Instant::now()` passes it.
    /// Checked every [`DEADLINE_CHECK_INTERVAL`] Ω calls so the hot path
    /// never reads the clock. `None` disables the deadline (the default).
    pub deadline: Option<std::time::Instant>,
}

/// Ω calls between wall-clock reads when a deadline is set. A power of two
/// so the throttle is a mask; small enough that the overshoot past the
/// deadline stays in the tens of microseconds on any realistic block.
pub const DEADLINE_CHECK_INTERVAL: u64 = 512;

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            // §5.3 used curtail points "large relative to the number of
            // items searched for an optimal search of an average block";
            // the truncated runs averaged 54,150 Ω calls.
            lambda: 50_000,
            bound: BoundKind::CriticalPath,
            equivalence: EquivalenceMode::Paper,
            pipeline_selection: false,
            quick_check: true,
            initial: InitialHeuristic::MaxDistance,
            terminate_on_lower_bound: true,
            deadline: None,
        }
    }
}

impl SearchConfig {
    /// Config with a specific curtail point.
    pub fn with_lambda(lambda: u64) -> Self {
        SearchConfig {
            lambda,
            ..Self::default()
        }
    }

    /// Builder-style deadline override (see [`SearchConfig::deadline`]).
    pub fn with_deadline(mut self, deadline: Option<std::time::Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The paper's algorithm exactly as §4.2.3 describes it: plain α-β
    /// bound, rule-[5c] equivalence, no lower-bound termination. Used by
    /// the ablation experiments; the library default strengthens the bound
    /// (provably without changing which schedule is found).
    pub fn paper_exact() -> Self {
        SearchConfig {
            bound: BoundKind::AlphaBeta,
            terminate_on_lower_bound: false,
            ..Self::default()
        }
    }
}

/// Counters describing one search run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search-tree nodes visited: one per committed prefix whose
    /// extensions were enumerated (the root counts; complete schedules
    /// count). For a completed, non-stopped, non-selection search this
    /// satisfies `nodes_visited == 1 + omega_calls - pruned_bound`.
    pub nodes_visited: u64,
    /// Ω calls: incremental NOP-insertion evaluations (one per placement).
    pub omega_calls: u64,
    /// Complete schedules reached.
    pub complete_schedules: u64,
    /// Times the incumbent improved.
    pub improvements: u64,
    /// Candidates rejected by the quick [5a] check.
    pub pruned_quick: u64,
    /// Candidates rejected by the readiness test [5b].
    pub pruned_legality: u64,
    /// Candidates rejected by the equivalence filter [5c].
    pub pruned_equivalence: u64,
    /// Subtrees abandoned by the α-β / lower-bound test [6].
    pub pruned_bound: u64,
    /// Pipeline-unit choices skipped by symmetry breaking.
    pub pruned_symmetry: u64,
    /// Subtrees offloaded to a work-stealing pool at a split point
    /// (always 0 in serial searches).
    pub splits: u64,
    /// Offloaded subtrees executed by a worker other than the one that
    /// split them off (always 0 in serial searches).
    pub steals: u64,
    /// True when λ or the wall-clock deadline was exhausted before the
    /// search completed.
    pub truncated: bool,
    /// True when the truncation was caused by the wall-clock deadline
    /// (implies `truncated`).
    pub deadline_hit: bool,
    /// True when the search stopped early because the incumbent reached the
    /// admissible global lower bound (still a proof of optimality).
    pub proved_by_bound: bool,
}

impl SearchStats {
    /// Candidates rejected by any pruning rule — the single "pruned"
    /// number wide events and dashboards report.
    pub fn pruned_total(&self) -> u64 {
        self.pruned_quick
            + self.pruned_legality
            + self.pruned_equivalence
            + self.pruned_bound
            + self.pruned_symmetry
    }
}

/// Result of a search: the best schedule found and how it was found.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best instruction order found.
    pub order: Vec<TupleId>,
    /// Pipeline unit assigned to each tuple (indexed by tuple id).
    pub assignment: Vec<Option<PipelineId>>,
    /// η per *position* of `order`: NOPs inserted before each instruction.
    pub etas: Vec<u32>,
    /// μ of the best schedule.
    pub nops: u32,
    /// The initial (list) schedule the search started from.
    pub initial_order: Vec<TupleId>,
    /// μ of the initial schedule.
    pub initial_nops: u32,
    /// True when the search ran to completion, proving optimality.
    pub optimal: bool,
    /// Search counters.
    pub stats: SearchStats,
}

/// Run the pruned branch-and-bound search on `ctx`.
pub fn search(ctx: &SchedContext<'_>, cfg: &SearchConfig) -> SearchOutcome {
    search_with_boundary(ctx, cfg, &BoundaryState::cold(ctx.machine.pipeline_count()))
}

/// [`search`] starting from a carried block boundary (footnote 1): the
/// pipelines begin with the in-flight state a predecessor block left
/// behind, so cross-block conflicts are priced into every η.
pub(crate) fn search_with_boundary(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    boundary: &BoundaryState,
) -> SearchOutcome {
    search_impl(ctx, cfg, boundary, NullPolicy)
}

/// Run the search while recording a machine-checkable optimality
/// certificate into `logger` (see [`crate::proof`]). Returns the outcome
/// together with what the logger produced — the certificate itself for
/// in-memory loggers, or the digest/event count for streamed ones.
///
/// Proof logging implies a cold block boundary (a certificate is a claim
/// about the block in isolation) and is incompatible with the
/// pipeline-selection extension (the checker replays fixed-σ timing only).
///
/// # Panics
///
/// Panics if `cfg.pipeline_selection` is set.
pub fn search_with_proof(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    mut logger: ProofLogger,
) -> (SearchOutcome, ProofOutput) {
    assert!(
        !cfg.pipeline_selection,
        "proof logging does not support the pipeline-selection extension"
    );
    let outcome = serial::<true, false>(ctx, cfg, Some(&mut logger), &mut SearchProfile::new());
    let proof = logger.finish(trailer_for(&outcome));
    (outcome, proof)
}

/// What a [`branch_and_bound`] run recorded beside its answer.
#[derive(Debug, Default)]
pub struct Observed {
    /// The proof logger's output, when a logger was passed.
    pub proof: Option<ProofOutput>,
    /// Pool proofs only: the transcript split at the root dispositions, in
    /// certificate order (see [`crate::parallel`]); the tamper tests drop
    /// parts to show the checker rejects.
    pub parts: Vec<Vec<ProofEvent>>,
    /// The per-depth profile, when one was asked for. Its depth nodes sum
    /// to the outcome's `nodes_visited` (across workers in a pool run).
    pub profile: Option<SearchProfile>,
}

/// The general branch-and-bound entry: the serial kernel when
/// `par.threads == 1` (also for blocks of at most one tuple, and under
/// pipeline selection, whose per-unit symmetry state the pool's task
/// snapshots do not carry), the work-stealing pool otherwise. `proof`
/// records a certificate (a pool run replays its merged transcript into
/// the logger, so any sink works at any thread count) and `profile` a
/// per-depth profile. Neither observation changes the search.
///
/// # Panics
///
/// Panics if a proof logger is passed with `cfg.pipeline_selection` set.
pub fn branch_and_bound(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    par: &ParallelConfig,
    proof: Option<ProofLogger>,
    profile: bool,
) -> (SearchOutcome, Observed) {
    assert!(
        proof.is_none() || !cfg.pipeline_selection,
        "proof logging does not support the pipeline-selection extension"
    );
    let mut seen = Observed::default();
    let mut depths = SearchProfile::new();
    let outcome = if par.threads == 1 || ctx.len() <= 1 || cfg.pipeline_selection {
        let mut logger = proof;
        let out = match (logger.as_mut(), profile) {
            (None, false) => search(ctx, cfg),
            (Some(l), false) => serial::<true, false>(ctx, cfg, Some(l), &mut depths),
            (None, true) => serial::<false, true>(ctx, cfg, None, &mut depths),
            (Some(l), true) => serial::<true, true>(ctx, cfg, Some(l), &mut depths),
        };
        seen.proof = logger.map(|l| l.finish(trailer_for(&out)));
        out
    } else if let Some(logger) = proof {
        let (out, pool_proof) = if profile {
            parallel_prove::<true>(ctx, cfg, par, &mut depths)
        } else {
            parallel_prove::<false>(ctx, cfg, par, &mut depths)
        };
        seen.proof = Some(logger.replay(Certificate {
            header: pool_proof.header,
            events: pool_proof.parts.concat(),
            trailer: pool_proof.trailer,
        }));
        seen.parts = pool_proof.parts;
        out
    } else if profile {
        parallel_search::<true>(ctx, cfg, par, &mut depths)
    } else {
        parallel_search::<false>(ctx, cfg, par, &mut depths)
    };
    seen.profile = profile.then_some(depths);
    (outcome, seen)
}

/// One serial kernel run from a cold boundary under an [`Observe`] policy.
fn serial<const LOG: bool, const PROF: bool>(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    logger: Option<&mut ProofLogger>,
    profile: &mut SearchProfile,
) -> SearchOutcome {
    let boundary = BoundaryState::cold(ctx.machine.pipeline_count());
    search_impl(ctx, cfg, &boundary, Observe::<LOG, PROF>(logger, profile))
}

/// Compile-time hook bundle the unified kernel is generic over.
///
/// One branch-and-bound implementation serves every run: the plain
/// [`search`], the proof-logged and profiled serial runs of
/// [`branch_and_bound`], and the work-stealing parallel workers in
/// [`crate::parallel`]. Each variant supplies a policy; hooks a policy
/// leaves at their defaults monomorphize to nothing, so [`NullPolicy`]
/// compiles to exactly the pre-unification plain search.
///
/// The hooks fall into three groups:
///
/// * **observation** — [`begin`](Self::begin)/[`log`](Self::log) record the
///   proof transcript (gated on [`PROOF`](Self::PROOF)),
///   [`prof`](Self::prof) bumps per-depth counters (gated on
///   [`PROFILE`](Self::PROFILE)).
/// * **shared budgets & bounds** — [`charge_omega`](Self::charge_omega)
///   draws on a pool-wide λ, [`poll_stop`](Self::poll_stop) observes a
///   pool-wide stop flag, [`shared_best`](Self::shared_best) tightens the
///   local incumbent from the shared atomic, [`improved`](Self::improved)
///   publishes a new incumbent, and [`stopping`](Self::stopping) propagates
///   a local termination cause outward.
/// * **work distribution** — [`spawn`](Self::spawn) may take ownership of a
///   just-bounded subtree and defer it to a work-stealing deque.
pub(crate) trait SearchPolicy {
    /// True when the policy records a proof transcript; the kernel then
    /// captures the bound's chain/resource terms for every placement.
    const PROOF: bool = false;
    /// True when the policy collects per-depth profiles; the kernel then
    /// times each `dfs` call inclusively.
    const PROFILE: bool = false;

    /// The certificate header, emitted once before the search runs.
    #[inline]
    fn begin(&mut self, header: CertificateHeader) {
        let _ = header;
    }

    /// One proof event, in replay order.
    #[inline]
    fn log(&mut self, ev: ProofEvent) {
        let _ = ev;
    }

    /// Bump a per-depth profile counter.
    #[inline]
    fn prof(&mut self, depth: usize, bump: impl FnOnce(&mut DepthStats)) {
        let _ = (depth, bump);
    }

    /// Charge one Ω call against a shared budget; return true when the
    /// pool-wide budget is exhausted (the search truncates).
    #[inline]
    fn charge_omega(&mut self) -> bool {
        false
    }

    /// Poll a shared stop flag (another worker finished or truncated).
    #[inline]
    fn poll_stop(&mut self) -> bool {
        false
    }

    /// The tightest incumbent known anywhere, given the local one. The
    /// serial identity keeps α-β behaviour untouched; parallel workers
    /// read the shared atomic so bounds prune across subtrees.
    #[inline]
    fn shared_best(&mut self, local: u32) -> u32 {
        local
    }

    /// A new incumbent `order` with `mu` NOPs was found locally.
    #[inline]
    fn improved(&mut self, mu: u32, order: &[TupleId]) {
        let _ = (mu, order);
    }

    /// The search is stopping; `stats` carries the cause
    /// (`truncated` / `deadline_hit` / `proved_by_bound`).
    #[inline]
    fn stopping(&mut self, stats: &SearchStats) {
        let _ = stats;
    }

    /// Offer the subtree rooted at `order[..depth]` (whose placement bound
    /// is `bound`) for deferred execution. Returning true transfers
    /// ownership: the kernel neither descends nor prunes it.
    #[inline]
    fn spawn(&mut self, order: &[TupleId], depth: usize, bound: u32) -> bool {
        let _ = (order, depth, bound);
        false
    }
}

/// Forwarding impl so a caller can lend a policy to one kernel run (e.g.
/// [`run_subtree`] per work-stealing task) and keep using it afterwards.
impl<P: SearchPolicy> SearchPolicy for &mut P {
    const PROOF: bool = P::PROOF;
    const PROFILE: bool = P::PROFILE;

    #[inline]
    fn begin(&mut self, header: CertificateHeader) {
        (**self).begin(header);
    }

    #[inline]
    fn log(&mut self, ev: ProofEvent) {
        (**self).log(ev);
    }

    #[inline]
    fn prof(&mut self, depth: usize, bump: impl FnOnce(&mut DepthStats)) {
        (**self).prof(depth, bump);
    }

    #[inline]
    fn charge_omega(&mut self) -> bool {
        (**self).charge_omega()
    }

    #[inline]
    fn poll_stop(&mut self) -> bool {
        (**self).poll_stop()
    }

    #[inline]
    fn shared_best(&mut self, local: u32) -> u32 {
        (**self).shared_best(local)
    }

    #[inline]
    fn improved(&mut self, mu: u32, order: &[TupleId]) {
        (**self).improved(mu, order);
    }

    #[inline]
    fn stopping(&mut self, stats: &SearchStats) {
        (**self).stopping(stats);
    }

    #[inline]
    fn spawn(&mut self, order: &[TupleId], depth: usize, bound: u32) -> bool {
        (**self).spawn(order, depth, bound)
    }
}

/// The no-op policy: plain serial search, bit-identical to the historical
/// un-hooked implementation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NullPolicy;

impl SearchPolicy for NullPolicy {}

/// Observation policy: logs the proof transcript into the logger when
/// `LOG`, bumps the per-depth profile when `PROF`.
struct Observe<'p, const LOG: bool, const PROF: bool>(
    Option<&'p mut ProofLogger>,
    &'p mut SearchProfile,
);

impl<const LOG: bool, const PROF: bool> SearchPolicy for Observe<'_, LOG, PROF> {
    const PROOF: bool = LOG;
    const PROFILE: bool = PROF;

    #[inline]
    fn begin(&mut self, header: CertificateHeader) {
        if let Some(logger) = &mut self.0 {
            logger.begin(header);
        }
    }

    #[inline]
    fn log(&mut self, ev: ProofEvent) {
        if let Some(logger) = &mut self.0 {
            logger.log(ev);
        }
    }

    #[inline]
    fn prof(&mut self, depth: usize, bump: impl FnOnce(&mut DepthStats)) {
        bump(self.1.at(depth));
    }
}

fn search_impl<P: SearchPolicy>(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    boundary: &BoundaryState,
    mut policy: P,
) -> SearchOutcome {
    let n = ctx.len();
    if n == 0 {
        if P::PROOF {
            policy.begin(CertificateHeader {
                n: 0,
                bound: cfg.bound,
                equivalence: cfg.equivalence,
                initial_order: Vec::new(),
                initial_nops: 0,
            });
        }
        return SearchOutcome {
            order: Vec::new(),
            assignment: Vec::new(),
            etas: Vec::new(),
            nops: 0,
            initial_order: Vec::new(),
            initial_nops: 0,
            optimal: true,
            stats: SearchStats::default(),
        };
    }

    // Step [1]: initial incumbent from the configured heuristic, plus the
    // admissible whole-block lower bound — the prologue shared by every
    // exact backend (see `crate::seed`).
    let seed = crate::seed::seed_incumbent(ctx, cfg.initial, boundary, cfg.pipeline_selection);
    let initial_order = seed.order;
    let initial_etas = seed.etas;
    let initial_nops = seed.nops;

    if P::PROOF {
        policy.begin(CertificateHeader {
            n: n as u32,
            bound: cfg.bound,
            equivalence: cfg.equivalence,
            initial_order: initial_order.iter().map(|t| t.0).collect(),
            initial_nops,
        });
    }

    // When an incumbent matches the lower bound, optimality is proven
    // without exhausting the space.
    let global_lb = cfg.terminate_on_lower_bound.then_some(seed.global_lb);

    if let Some(lb) = global_lb {
        if initial_nops <= lb {
            // The list schedule is already provably optimal.
            if P::PROOF {
                policy.log(ProofEvent::ProvedByBound { lb });
            }
            return SearchOutcome {
                order: initial_order.clone(),
                assignment: ctx.sigma.clone(),
                etas: initial_etas,
                nops: initial_nops,
                initial_order,
                initial_nops,
                optimal: true,
                stats: SearchStats {
                    proved_by_bound: true,
                    ..SearchStats::default()
                },
            };
        }
    }

    let mut s = Search::new(
        ctx,
        cfg,
        boundary,
        initial_order.clone(),
        initial_etas,
        initial_nops,
        policy,
    );
    s.global_lb = global_lb;
    if cfg.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
        // Already out of time: the incumbent is the answer (anytime).
        s.stats.truncated = true;
        s.stats.deadline_hit = true;
        s.policy.stopping(&s.stats);
    } else {
        s.dfs(0);
    }

    let optimal = !s.stats.truncated;
    let (best_etas, best_nops) =
        evaluate_with_assignment(ctx, boundary, &s.best_order, &s.best_assign);
    debug_assert_eq!(best_nops, s.best_nops);
    debug_assert!(verify_schedule(ctx.block, ctx.dag, &s.best_order).is_ok());

    SearchOutcome {
        order: s.best_order,
        assignment: s.best_assign,
        etas: best_etas,
        nops: s.best_nops,
        initial_order,
        initial_nops,
        optimal,
        stats: s.stats,
    }
}

/// Run the kernel on one subtree: the prefix `order[..depth]` is replayed
/// as already-committed placements (no Ω charges — the splitting worker
/// already paid for them), then the DFS explores everything below it.
///
/// This is the work-stealing pool's unit of execution. The local incumbent
/// is seeded from `best_nops` (typically a snapshot of the shared atomic),
/// so only the statistics are meaningful on return — improvements are
/// published through [`SearchPolicy::improved`], not through the returned
/// schedule.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_subtree<P: SearchPolicy>(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    boundary: &BoundaryState,
    order: Vec<TupleId>,
    depth: usize,
    best_nops: u32,
    global_lb: Option<u32>,
    policy: P,
) -> SearchStats {
    debug_assert!(depth <= order.len());
    let mut s = Search::new(ctx, cfg, boundary, order, Vec::new(), best_nops, policy);
    s.global_lb = global_lb;
    if cfg.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
        s.stats.truncated = true;
        s.stats.deadline_hit = true;
        s.policy.stopping(&s.stats);
        return s.stats;
    }
    // Replay the committed prefix: timing and frontier state exactly as
    // `place_and_recurse` would have left them.
    for d in 0..depth {
        let xi = s.order[d];
        s.place(xi, s.ctx.sigma(xi));
    }
    s.dfs(depth);
    s.stats
}

/// Evaluate a complete schedule under an explicit pipeline assignment.
fn evaluate_with_assignment(
    ctx: &SchedContext<'_>,
    boundary: &BoundaryState,
    order: &[TupleId],
    assignment: &[Option<PipelineId>],
) -> (Vec<u32>, u32) {
    let mut engine = TimingEngine::with_boundary(ctx, boundary);
    let etas: Vec<u32> = order
        .iter()
        .map(|&t| engine.push(t, assignment[t.index()]))
        .collect();
    let total = engine.total_nops();
    (etas, total)
}

struct Search<'c, 'a, P: SearchPolicy> {
    /// The compile-time hook bundle (proof, profile, shared-state hooks).
    policy: P,
    ctx: &'c SchedContext<'a>,
    cfg: SearchConfig,
    engine: TimingEngine<'c, 'a>,
    /// Current ordering Π; positions < depth are the committed prefix Φ.
    order: Vec<TupleId>,
    /// Readiness state of the placed prefix, kept in step with `engine`.
    frontier: Frontier,
    /// Structural equivalence class per tuple (only when Structural mode).
    equiv_class: Vec<u32>,
    /// Structural classes tried so far, with the first member placed for
    /// each — the equivalence witness the certificate records. One stack
    /// shared by the whole path: each node owns the entries above the
    /// length it found on entry and truncates back to it on exit.
    tried_classes: Vec<(u32, TupleId)>,
    lower_bound: Option<LowerBound>,
    global_lb: Option<u32>,
    best_nops: u32,
    best_order: Vec<TupleId>,
    best_assign: Vec<Option<PipelineId>>,
    stats: SearchStats,
    stop: bool,
}

impl<'c, 'a, P: SearchPolicy> Search<'c, 'a, P> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        ctx: &'c SchedContext<'a>,
        cfg: &SearchConfig,
        boundary: &BoundaryState,
        initial_order: Vec<TupleId>,
        _initial_etas: Vec<u32>,
        initial_nops: u32,
        policy: P,
    ) -> Self {
        let n = ctx.len();
        let (equiv_class, tried_classes) = if cfg.equivalence == EquivalenceMode::Structural {
            // A node at depth d tries at most n - d classes, so the stack
            // never outgrows n(n+1)/2 entries and never reallocates.
            (structural_classes(ctx), Vec::with_capacity(n * (n + 1) / 2))
        } else {
            (Vec::new(), Vec::new())
        };
        let lower_bound = match cfg.bound {
            BoundKind::AlphaBeta => None,
            BoundKind::CriticalPath => Some(LowerBound::new(ctx)),
        };
        let best_assign: Vec<Option<PipelineId>> = ctx.sigma.clone();
        Search {
            policy,
            ctx,
            cfg: *cfg,
            engine: TimingEngine::with_boundary(ctx, boundary),
            order: initial_order.clone(),
            frontier: Frontier::new(ctx, cfg.pipeline_selection),
            equiv_class,
            tried_classes,
            lower_bound,
            global_lb: None,
            best_nops: initial_nops,
            best_order: initial_order,
            best_assign,
            stats: SearchStats::default(),
            stop: false,
        }
    }

    /// Append `ev` to the proof transcript when logging is on.
    #[inline]
    fn log(&mut self, ev: ProofEvent) {
        if P::PROOF {
            self.policy.log(ev);
        }
    }

    /// Bump a per-depth profile counter when profiling is on.
    #[inline]
    fn prof(&mut self, depth: usize, bump: impl FnOnce(&mut DepthStats)) {
        if P::PROFILE {
            self.policy.prof(depth, bump);
        }
    }

    /// Profiling wrapper around [`Search::dfs_inner`]: times the call
    /// inclusively per depth. Without a profile it is a plain tail call,
    /// so the un-profiled search never reads the clock here.
    fn dfs(&mut self, depth: usize) {
        if !P::PROFILE {
            return self.dfs_inner(depth);
        }
        let start = std::time::Instant::now();
        self.dfs_inner(depth);
        let elapsed = start.elapsed().as_nanos() as u64;
        self.prof(depth, |d| d.time_ns += elapsed);
    }

    fn dfs_inner(&mut self, depth: usize) {
        let n = self.ctx.len();
        self.stats.nodes_visited += 1;
        self.prof(depth, |d| d.nodes += 1);
        if depth == n {
            // Step [3]: complete schedule.
            self.stats.complete_schedules += 1;
            let mu = self.engine.total_nops();
            // Under a shared incumbent another worker may have improved on
            // ours since the last refresh; never publish a worse schedule.
            self.best_nops = self.policy.shared_best(self.best_nops);
            if mu < self.best_nops {
                self.stats.improvements += 1;
                self.best_nops = mu;
                self.best_order.copy_from_slice(&self.order);
                for (i, a) in self.best_assign.iter_mut().enumerate() {
                    *a = self.engine.assigned_pipeline(TupleId(i as u32));
                }
                self.log(ProofEvent::Improve { mu });
                self.policy.improved(mu, &self.best_order);
                if let Some(lb) = self.global_lb {
                    if self.best_nops <= lb {
                        // Provably optimal: no schedule can beat the bound.
                        self.stats.proved_by_bound = true;
                        self.stop = true;
                        self.log(ProofEvent::ProvedByBound { lb });
                        self.policy.stopping(&self.stats);
                    }
                }
            } else {
                self.log(ProofEvent::Complete { mu });
            }
            return;
        }

        let kappa = self.order[depth];
        // This node's structural classes live in `tried_classes[tried..]`.
        let tried = self.tried_classes.len();

        for j in depth..n {
            if self.stop || self.policy.poll_stop() {
                self.stop = true;
                break;
            }
            let xi = self.order[j];

            // [5a] quick approximate legality check.
            if self.cfg.quick_check && self.ctx.analysis.earliest(xi) as usize > depth {
                self.stats.pruned_quick += 1;
                self.prof(depth, |d| d.pruned_quick += 1);
                self.log(ProofEvent::LegalityPrune { candidate: xi.0 });
                continue;
            }
            // [5b] real legality: every predecessor already scheduled.
            if !self.frontier.is_ready(xi) {
                self.stats.pruned_legality += 1;
                self.prof(depth, |d| d.pruned_legality += 1);
                self.log(ProofEvent::LegalityPrune { candidate: xi.0 });
                continue;
            }
            // [5c] equivalence filtering.
            match self.cfg.equivalence {
                EquivalenceMode::Off => {}
                EquivalenceMode::Paper => {
                    if j != depth && self.ctx.interchangeable_free(kappa, xi) {
                        self.stats.pruned_equivalence += 1;
                        self.prof(depth, |d| d.pruned_equivalence += 1);
                        // κ is free, hence legal here, hence was placed at
                        // j == depth: a valid witness.
                        self.log(ProofEvent::EquivalencePrune {
                            candidate: xi.0,
                            witness: kappa.0,
                        });
                        continue;
                    }
                }
                EquivalenceMode::UnrestrictedPaper => {
                    // The paper's printed rule: both free, no successor
                    // condition. Unsound — kept for ablation and for
                    // exercising the checker's rejection path.
                    if j != depth
                        && self.ctx.is_free_instruction(kappa)
                        && self.ctx.is_free_instruction(xi)
                    {
                        self.stats.pruned_equivalence += 1;
                        self.prof(depth, |d| d.pruned_equivalence += 1);
                        self.log(ProofEvent::EquivalencePrune {
                            candidate: xi.0,
                            witness: kappa.0,
                        });
                        continue;
                    }
                }
                EquivalenceMode::Structural => {
                    let class = self.equiv_class[xi.index()];
                    if let Some(&(_, witness)) = self.tried_classes[tried..]
                        .iter()
                        .find(|(c, _)| *c == class)
                    {
                        self.stats.pruned_equivalence += 1;
                        self.prof(depth, |d| d.pruned_equivalence += 1);
                        self.log(ProofEvent::EquivalencePrune {
                            candidate: xi.0,
                            witness: witness.0,
                        });
                        continue;
                    }
                    self.tried_classes.push((class, xi));
                }
            }

            self.order.swap(depth, j);
            self.try_candidate(depth, xi);
            self.order.swap(depth, j);
            if self.stop {
                break;
            }
        }
        self.tried_classes.truncate(tried);
        if !self.stop {
            // Every unscheduled instruction was dispositioned: close the node.
            self.log(ProofEvent::Leave);
        }
    }

    /// Place `xi` at `depth` on each viable pipeline unit and recurse.
    fn try_candidate(&mut self, depth: usize, xi: TupleId) {
        let ctx = self.ctx;
        let allowed = &ctx.allowed[xi.index()];
        if !self.cfg.pipeline_selection || allowed.len() <= 1 {
            self.place_and_recurse(depth, xi, ctx.sigma(xi));
            return;
        }
        // Selection extension: try each distinct unit state. Two units with
        // identical timing parameters and identical last-issue state are
        // interchangeable; trying only the first of them in `allowed`
        // preserves optimality.
        let state = |engine: &TimingEngine<'_, '_>, p: PipelineId| {
            (ctx.latency(p), ctx.enqueue(p), engine.last_issue(p))
        };
        for (k, &p) in allowed.iter().enumerate() {
            let key = state(&self.engine, p);
            if allowed[..k].iter().any(|&q| state(&self.engine, q) == key) {
                self.stats.pruned_symmetry += 1;
                continue;
            }
            self.place_and_recurse(depth, xi, Some(p));
            if self.stop {
                return;
            }
        }
    }

    fn place_and_recurse(&mut self, depth: usize, xi: TupleId, pipe: Option<PipelineId>) {
        // Step [4]: curtail point. The shared budget (when the policy has
        // one) is charged unconditionally so the pool-wide Ω counter stays
        // exact even when a local limit also fires.
        self.stats.omega_calls += 1;
        self.prof(depth, |d| d.omega_calls += 1);
        if self.policy.charge_omega() || self.stats.omega_calls >= self.cfg.lambda {
            self.stats.truncated = true;
            self.stop = true;
            self.policy.stopping(&self.stats);
        }
        // Anytime deadline (throttled so the hot path never reads the clock).
        if let Some(deadline) = self.cfg.deadline {
            if self
                .stats
                .omega_calls
                .is_multiple_of(DEADLINE_CHECK_INTERVAL)
                && std::time::Instant::now() >= deadline
            {
                self.stats.truncated = true;
                self.stats.deadline_hit = true;
                self.stop = true;
                self.policy.stopping(&self.stats);
            }
        }

        self.place(xi, pipe);
        // The bound, with its chain/resource terms for the certificate.
        let (bound, proof_terms) = match &self.lower_bound {
            Some(lb) => {
                let (chain, resource, b) = lb.terms(self.ctx, &self.engine, &self.frontier);
                (b, Some((chain, resource)))
            }
            None => (self.engine.total_nops(), None),
        };

        // Under a shared incumbent, pick up improvements published by other
        // workers before deciding the prune (α-β propagates pool-wide).
        self.best_nops = self.policy.shared_best(self.best_nops);

        // Work distribution first: the policy may take ownership of this
        // subtree and defer it to a deque (the bound-vs-incumbent decision
        // then happens when the subtree is popped, against the incumbent of
        // that moment); otherwise step [6], the α-β prune (strict <,
        // matching the paper).
        if !self.stop && self.policy.spawn(&self.order, depth + 1, bound) {
            self.stats.splits += 1;
        } else if bound < self.best_nops && !self.stop {
            self.log(ProofEvent::Enter { candidate: xi.0 });
            self.dfs(depth + 1);
        } else if !self.stop {
            self.stats.pruned_bound += 1;
            self.prof(depth, |d| d.pruned_bound += 1);
            let mu = self.engine.total_nops();
            let (chain, resource) = (proof_terms.map(|t| t.0), proof_terms.map(|t| t.1));
            self.log(ProofEvent::BoundPrune {
                candidate: xi.0,
                mu,
                bound,
                chain,
                resource,
            });
        }

        self.unplace(xi);
    }

    /// Push `xi` onto the engine on `pipe` and advance the frontier.
    fn place(&mut self, xi: TupleId, pipe: Option<PipelineId>) {
        self.engine.push(xi, pipe);
        self.frontier.place(self.ctx, &self.engine, xi);
    }

    /// Undo [`Search::place`] of `xi`, the most recent placement.
    fn unplace(&mut self, xi: TupleId) {
        self.frontier.unplace(self.ctx, xi);
        self.engine.pop();
    }
}

/// Group tuples into structural interchangeability classes: identical
/// operation, identical predecessor edges and identical successor edges
/// make two instructions interchangeable in any schedule.
#[allow(clippy::type_complexity)]
pub(crate) fn structural_classes(ctx: &SchedContext<'_>) -> Vec<u32> {
    use std::collections::HashMap;
    let n = ctx.len();
    let mut table: HashMap<(pipesched_ir::Op, Vec<(u32, bool)>, Vec<(u32, bool)>), u32> =
        HashMap::new();
    let mut classes = vec![0u32; n];
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        let t = TupleId(i as u32);
        let mut preds: Vec<(u32, bool)> = ctx.preds[i].iter().map(|p| (p.from, p.flow)).collect();
        preds.sort_unstable();
        let mut succs: Vec<(u32, bool)> = ctx
            .dag
            .succs(t)
            .iter()
            .map(|e| (e.to.0, e.kind == pipesched_ir::DepKind::Flow))
            .collect();
        succs.sort_unstable();
        let key = (ctx.block.tuple(t).op, preds, succs);
        let next = table.len() as u32;
        classes[i] = *table.entry(key).or_insert(next);
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_ir::{BlockBuilder, DepDag};
    use pipesched_machine::presets;

    fn ctx_for<'a>(
        block: &'a pipesched_ir::BasicBlock,
        dag: &'a DepDag,
        machine: &'a pipesched_machine::Machine,
    ) -> SchedContext<'a> {
        SchedContext::new(block, dag, machine)
    }

    #[test]
    fn finds_zero_nop_schedule_when_one_exists() {
        // Two independent mul chains can fully hide each other's latency
        // given enough independent loads.
        let mut b = BlockBuilder::new("hide");
        let a = b.load("a");
        let c = b.load("c");
        let d = b.load("d");
        let e = b.load("e");
        let m1 = b.mul(a, c);
        let m2 = b.mul(d, e);
        let s = b.add(m1, m2);
        b.store("r", s);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let out = search(&ctx, &SearchConfig::default());
        assert!(out.optimal);
        assert!(
            out.nops <= out.initial_nops,
            "search never worsens the incumbent"
        );
        verify_schedule(&block, &dag, &out.order).unwrap();
    }

    #[test]
    fn single_instruction_block() {
        let mut b = BlockBuilder::new("one");
        b.load("x");
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let out = search(&ctx, &SearchConfig::default());
        assert!(out.optimal);
        assert_eq!(out.nops, 0);
        assert_eq!(out.order.len(), 1);
    }

    #[test]
    fn serial_chain_has_forced_nops() {
        // load x; mul x,x; store — nothing can hide the mul latency.
        let mut b = BlockBuilder::new("chain");
        let x = b.load("x");
        let m = b.mul(x, x);
        b.store("z", m);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let out = search(&ctx, &SearchConfig::default());
        assert!(out.optimal);
        // x@0; mul waits loader latency 2 → @2 (1 NOP); store waits mul
        // latency 4 → @6 (3 NOPs). μ = 4.
        assert_eq!(out.nops, 4);
    }

    #[test]
    fn curtail_point_truncates() {
        let mut b = BlockBuilder::new("big");
        // Several multiplier-bound chains: the initial schedule needs NOPs,
        // so the α-β bound cannot close the search immediately and the
        // space is enormous.
        for i in 0..5 {
            let l = b.load(&format!("x{i}"));
            let m = b.mul(l, l);
            b.store(&format!("y{i}"), m);
        }
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let cfg = SearchConfig::with_lambda(10);
        let out = search(&ctx, &cfg);
        assert!(out.stats.truncated);
        assert!(!out.optimal);
        assert!(out.stats.omega_calls <= 10);
        // Still returns a legal schedule no worse than the list schedule.
        verify_schedule(&block, &dag, &out.order).unwrap();
        assert!(out.nops <= out.initial_nops);
    }

    #[test]
    fn expired_deadline_returns_incumbent_anytime() {
        let mut b = BlockBuilder::new("deadline");
        for i in 0..5 {
            let l = b.load(&format!("x{i}"));
            let m = b.mul(l, l);
            b.store(&format!("y{i}"), m);
        }
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        // A deadline already in the past: the search must return the list
        // incumbent immediately, flagged non-optimal.
        let cfg = SearchConfig {
            terminate_on_lower_bound: false,
            ..SearchConfig::default()
        }
        .with_deadline(Some(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        ));
        let out = search(&ctx, &cfg);
        assert!(!out.optimal);
        assert!(out.stats.truncated);
        assert!(out.stats.deadline_hit);
        assert_eq!(out.stats.omega_calls, 0);
        assert_eq!(out.nops, out.initial_nops);
        verify_schedule(&block, &dag, &out.order).unwrap();
    }

    #[test]
    fn future_deadline_does_not_disturb_search() {
        let mut b = BlockBuilder::new("far");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        b.store("r", m);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let base = search(&ctx, &SearchConfig::default());
        let cfg = SearchConfig::default().with_deadline(Some(
            std::time::Instant::now() + std::time::Duration::from_secs(600),
        ));
        let out = search(&ctx, &cfg);
        assert!(out.optimal);
        assert!(!out.stats.deadline_hit);
        assert_eq!(out.nops, base.nops);
    }

    #[test]
    fn all_bounds_and_equivalences_agree_on_optimum() {
        let mut b = BlockBuilder::new("agree");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        let a = b.add(x, y);
        let s = b.sub(m, a);
        b.store("r", s);
        let c = b.constant(3);
        b.store("k", c);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);

        let mut reference = None;
        for bound in [BoundKind::AlphaBeta, BoundKind::CriticalPath] {
            for equivalence in [
                EquivalenceMode::Off,
                EquivalenceMode::Paper,
                EquivalenceMode::Structural,
            ] {
                let cfg = SearchConfig {
                    bound,
                    equivalence,
                    lambda: u64::MAX,
                    ..SearchConfig::default()
                };
                let out = search(&ctx, &cfg);
                assert!(out.optimal, "{bound:?}/{equivalence:?} truncated");
                let r = *reference.get_or_insert(out.nops);
                assert_eq!(out.nops, r, "{bound:?}/{equivalence:?} differs");
            }
        }
    }

    #[test]
    fn equivalence_modes_reduce_work_monotonically() {
        let mut b = BlockBuilder::new("equiv");
        // Pairs of free Consts feeding the *same* consumer (identical
        // successor sets => interchangeable) inflate the unfiltered search;
        // the restricted rule [5c] collapses each pair.
        let x = b.load("x");
        let mut acc = x;
        for i in 0..3 {
            let c1 = b.constant(i);
            let c2 = b.constant(i + 10);
            let pair = b.add(c1, c2);
            acc = b.add(acc, pair);
        }
        b.store("r", acc);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);

        // Use the paper-exact bound so the search actually explores (the
        // default critical-path bound + LB termination can close this block
        // before rule [5c] ever fires).
        let run = |mode| {
            let cfg = SearchConfig {
                equivalence: mode,
                lambda: u64::MAX,
                ..SearchConfig::paper_exact()
            };
            search(&ctx, &cfg)
        };
        let off = run(EquivalenceMode::Off);
        let paper = run(EquivalenceMode::Paper);
        let structural = run(EquivalenceMode::Structural);
        assert_eq!(off.nops, paper.nops);
        assert_eq!(off.nops, structural.nops);
        // Both filters reduce work relative to no filtering. (They are not
        // comparable to each other: structural classes key on exact
        // pred/succ sets, the paper rule on σ/ρ emptiness.)
        assert!(paper.stats.omega_calls <= off.stats.omega_calls);
        assert!(structural.stats.omega_calls <= off.stats.omega_calls);
        assert!(
            paper.stats.pruned_equivalence > 0,
            "the consts should trigger rule [5c]"
        );
    }

    #[test]
    fn pipeline_selection_uses_second_unit() {
        // Two independent loads on the Table 2 machine (two loaders):
        // with selection they issue back-to-back on different units even if
        // a single loader would conflict.
        let mut b = BlockBuilder::new("sel");
        let x = b.load("x");
        let y = b.load("y");
        let s = b.add(x, y);
        b.store("r", s);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::table2_example();
        let ctx = ctx_for(&block, &dag, &machine);

        let base = search(&ctx, &SearchConfig::default());
        let cfg = SearchConfig {
            pipeline_selection: true,
            ..SearchConfig::default()
        };
        let sel = search(&ctx, &cfg);
        assert!(sel.optimal && base.optimal);
        assert!(
            sel.nops <= base.nops,
            "selection can only help: {} vs {}",
            sel.nops,
            base.nops
        );
        // The two loads end up on distinct units.
        let p0 = sel.assignment[0];
        let p1 = sel.assignment[1];
        assert!(p0.is_some() && p1.is_some());
    }

    #[test]
    fn empty_block() {
        let block = BlockBuilder::new("empty").finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let out = search(&ctx, &SearchConfig::default());
        assert!(out.optimal);
        assert_eq!(out.nops, 0);
        assert!(out.order.is_empty());
    }

    #[test]
    fn profile_sums_match_search_stats() {
        // Contended multiplier chains force real exploration so every
        // counter is exercised.
        let mut b = BlockBuilder::new("profiled");
        for i in 0..4 {
            let l = b.load(&format!("x{i}"));
            let m = b.mul(l, l);
            b.store(&format!("y{i}"), m);
        }
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let cfg = SearchConfig {
            terminate_on_lower_bound: false,
            ..SearchConfig::default()
        };

        let plain = search(&ctx, &cfg);
        let (out, seen) =
            branch_and_bound(&ctx, &cfg, &ParallelConfig::with_threads(1), None, true);
        let profile = seen.profile.unwrap();

        // Profiling must be pure observation.
        assert_eq!(out.nops, plain.nops);
        assert_eq!(out.order, plain.order);
        assert_eq!(out.stats, plain.stats);

        // Every per-depth column sums to its whole-run counter.
        let sum = |f: fn(&DepthStats) -> u64| profile.depths.iter().map(f).sum::<u64>();
        assert_eq!(profile.total_nodes(), out.stats.nodes_visited);
        assert_eq!(sum(|d| d.omega_calls), out.stats.omega_calls);
        assert_eq!(sum(|d| d.pruned_quick), out.stats.pruned_quick);
        assert_eq!(sum(|d| d.pruned_legality), out.stats.pruned_legality);
        assert_eq!(sum(|d| d.pruned_equivalence), out.stats.pruned_equivalence);
        assert_eq!(sum(|d| d.pruned_bound), out.stats.pruned_bound);
        assert!(out.stats.nodes_visited > 1, "search did not explore");

        // Inclusive time: depth d+1 nests inside depth d.
        for w in profile.depths.windows(2) {
            assert!(w[0].time_ns >= w[1].time_ns);
        }

        // JSON rendering covers every depth.
        if let pipesched_json::Json::Array(rows) = profile.to_json() {
            assert_eq!(rows.len(), profile.depths.len());
        } else {
            panic!("profile JSON is an array");
        }
    }

    #[test]
    fn profile_of_trivial_searches_stays_consistent() {
        // The n == 0 and proved-by-bound early returns record nothing;
        // the sum identity must still hold (both sides zero).
        let block = BlockBuilder::new("empty").finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = ctx_for(&block, &dag, &machine);
        let cfg = SearchConfig::default();
        let (out, seen) =
            branch_and_bound(&ctx, &cfg, &ParallelConfig::with_threads(1), None, true);
        let profile = seen.profile.unwrap();
        assert!(out.optimal);
        assert_eq!(profile.total_nodes(), out.stats.nodes_visited);
        assert_eq!(profile.total_nodes(), 0);
    }
}
