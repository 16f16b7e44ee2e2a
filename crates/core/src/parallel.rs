//! Work-stealing parallel branch-and-bound (extension; not in the paper).
//!
//! Built on the unified policy-generic kernel in [`crate::bnb`]: every
//! worker runs the *same* `dfs` as the serial search, with a
//! [`SearchPolicy`] that (a) draws the λ budget from a pool-wide atomic,
//! (b) reads and publishes the incumbent through a shared `AtomicU32` so
//! an α-β bound discovered by any worker immediately prunes all others,
//! and (c) intercepts shallow placements (depth ≤
//! [`ParallelConfig::split_depth`]) as *subtree tasks* pushed onto the
//! worker's own Chase-Lev-style deque. An idle worker pops its own deque
//! LIFO (continuing depth-first where it left off) or steals FIFO from a
//! peer's top — the classic work-stealing discipline, so thieves take the
//! shallowest, largest subtrees.
//!
//! Two properties worth stating precisely:
//!
//! * **Deferred bound decision.** A spawned task records the placement's
//!   lower bound, but the bound-vs-incumbent comparison happens when the
//!   task is *popped*, against the incumbent of that moment. This is both
//!   tighter (the incumbent can only have improved since the spawn) and
//!   exactly serial-equivalent at one thread: with LIFO task order the pop
//!   sequence is the serial DFS order, so the comparison happens with
//!   precisely the incumbent the serial search would have had. With
//!   `lambda = u64::MAX`, no deadline and `terminate_on_lower_bound`
//!   off, one-thread parallel search reproduces the serial node,
//!   Ω-call and prune counters bit for bit (pinned by tests).
//! * **Full [`SearchConfig`] support.** The kernel is shared, so every
//!   ablation knob — bound kind, equivalence rule, quick check, λ,
//!   deadline — flows through unchanged. The one exception is
//!   `pipeline_selection`, whose per-unit symmetry state is not carried
//!   by task snapshots: those searches delegate to the serial kernel.
//!
//! Callers reach this module through [`crate::bnb::branch_and_bound`]
//! (or the `pipesched-solve` dispatcher above it); a profile asked for
//! there is collected per worker here and summed, so its depth nodes add
//! up to the pool's `nodes_visited` (its inclusive times are per task and
//! do not nest across workers).
//!
//! # Parallel proofs
//!
//! `parallel_prove` produces a machine-checkable certificate (see
//! [`crate::proof`]) from a parallel run in two phases. Phase 1 is the
//! plain work-stealing search above: it finds the optimal μ\* and a best
//! order. Phase 2 re-derives the *transcript* with perfect foresight: the
//! driver enumerates the root candidates exactly as the serial kernel
//! would (legality, equivalence, bound terms), emits the best root
//! subtree first — its worker is seeded with the *initial* incumbent, so
//! its first descent logs `Improve{μ*}` before any other event — and
//! runs every other entered root subtree with incumbent μ\*, one serial
//! kernel per subtree, in parallel across subtrees. Because the replay
//! incumbent is μ\* from the second part on, every recorded bound prune
//! is justified, and the independent checker
//! (`pipesched_proof::check_certificate`) accepts the concatenation
//! unchanged. The per-subtree transcripts are exposed (as
//! `Observed::parts`) so tests can verify that tampering with (e.g.
//! dropping) any part is caught by the checker's coverage rules.
//!
//! The λ budget is shared across both phases: certification is search
//! work, and a budget too small to certify truncates the certificate
//! (`complete = false`, rejected by the checker) exactly like a truncated
//! serial proof run.
//!
//! # Concurrency checking
//!
//! All synchronization here goes through the `pipesched_check::sync`
//! facade (the atomics below, plus the `parking_lot`-shim mutex and the
//! crossbeam-shim deques, which route through the same facade). On a
//! normal build the facade is std; under `RUSTFLAGS="--cfg model"` every
//! operation becomes a scheduling point of the deterministic model
//! checker in `crates/check`, whose harnesses
//! (`crates/check/tests/model_*.rs`) explore the four protocols this
//! module relies on: deque push/pop/steal linearizability, incumbent
//! publication (`PoolPolicy::improved`), λ/deadline/stop monotonicity
//! (`note_stop`/`poll_stop`), and two-phase `parallel_prove` merge
//! completeness. Every `Ordering` choice below carries either an upgrade
//! demanded by those harnesses or a `relaxed-ok:` comment stating the
//! invariant that keeps `Relaxed` sound (enforced by the
//! `lint-atomics` source lint in CI).

use pipesched_check::sync::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crossbeam::deque::{Steal, Stealer, Worker as Deque};
use parking_lot::Mutex;

use pipesched_ir::TupleId;

use crate::bnb::{
    run_subtree, structural_classes, EquivalenceMode, SearchConfig, SearchOutcome, SearchPolicy,
    SearchStats,
};
use crate::bounds::{BoundKind, Frontier, LowerBound};
use crate::context::SchedContext;
use crate::profile::{DepthStats, SearchProfile};
use crate::proof::{CertificateHeader, CertificateTrailer, ProofEvent};
use crate::seed::{seed_incumbent, SearchSeed};
use crate::timing::{evaluate_schedule, BoundaryState, TimingEngine};

/// Depth limit below which placements become stealable subtree tasks when
/// the caller does not choose one. Depth 3 keeps the task count polynomial
/// in the block size while exposing far more parallelism than the old
/// first-level-only split.
pub const DEFAULT_SPLIT_DEPTH: usize = 3;

/// How a parallel search is distributed across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads (0 ⇒ one per available CPU).
    pub threads: usize,
    /// Placements at depth ≤ this become stealable subtree tasks; deeper
    /// subtrees run serially inside their worker. 0 disables splitting
    /// (the whole search runs as one task); a value ≥ the block length
    /// makes every single placement a task (the forced-steal stress mode).
    pub split_depth: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: 0,
            split_depth: DEFAULT_SPLIT_DEPTH,
        }
    }
}

impl ParallelConfig {
    /// Default splitting with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads,
            ..ParallelConfig::default()
        }
    }

    fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// One unit of stealable work: the subtree rooted at `order[..depth]`.
struct Task {
    /// Permutation of the block; positions < `depth` are the committed
    /// prefix, the suffix is the unscheduled scratch set.
    order: Vec<TupleId>,
    /// First undecided position.
    depth: usize,
    /// Lower bound on any completion, computed when the subtree was split
    /// off. Compared against the incumbent at *pop* time.
    bound: u32,
}

/// State shared by every worker of a pool run.
struct Shared {
    /// The pool-wide incumbent μ; `fetch_min` keeps it tight.
    best_nops: AtomicU32,
    /// Pool-wide Ω counter (the λ budget is charged here, not per worker).
    omega_used: AtomicU64,
    lambda: u64,
    /// `Some(lb)` when `terminate_on_lower_bound` is on.
    global_lb: Option<u32>,
    stop: AtomicBool,
    proved: AtomicBool,
    truncated: AtomicBool,
    deadline_hit: AtomicBool,
    /// Tasks queued or in flight; 0 ⇒ the search space is exhausted.
    pending: AtomicU64,
    /// The incumbent (order, μ) pair; the lock guards against torn updates.
    best: Mutex<(Vec<TupleId>, u32)>,
}

impl Shared {
    fn new(cfg: &SearchConfig, seed: &SearchSeed) -> Self {
        Shared {
            best_nops: AtomicU32::new(seed.nops),
            omega_used: AtomicU64::new(0),
            lambda: cfg.lambda,
            global_lb: cfg.terminate_on_lower_bound.then_some(seed.global_lb),
            stop: AtomicBool::new(false),
            proved: AtomicBool::new(false),
            truncated: AtomicBool::new(false),
            deadline_hit: AtomicBool::new(false),
            pending: AtomicU64::new(0),
            best: Mutex::new((seed.order.clone(), seed.nops)),
        }
    }

    /// Charge one Ω call against the pool budget; true ⇒ exhausted.
    fn charge_omega(&self) -> bool {
        // relaxed-ok: pure counter. The only decision made on the value is
        // "budget exhausted", which every worker re-derives from its own
        // fetch_add; the authoritative final read happens after scope join.
        self.omega_used.fetch_add(1, Ordering::Relaxed) + 1 >= self.lambda
    }

    /// Propagate a worker's local stop cause to the pool.
    fn note_stop(&self, stats: &SearchStats) {
        // relaxed-ok: the cause flags are written before the Release store
        // of `stop` below, so any worker (or the coordinator) that observes
        // `stop` with Acquire also observes them; the final authoritative
        // reads additionally happen after scope join.
        if stats.proved_by_bound {
            self.proved.store(true, Ordering::Relaxed);
        }
        if stats.deadline_hit {
            self.deadline_hit.store(true, Ordering::Relaxed);
        }
        if stats.truncated {
            // relaxed-ok: cause flag, published by the Release below.
            self.truncated.store(true, Ordering::Relaxed);
        }
        // Release publishes the cause flags with the stop signal. The
        // model checker's stop-protocol harness (and its dropped-Release
        // mutation, pinned to A0701) demands exactly this pairing with the
        // Acquire in `poll_stop`/`worker_loop`.
        self.stop.store(true, Ordering::Release);
    }
}

/// The phase-1 worker policy: shared budget/bounds plus subtree spawning
/// (and this worker's share of the profile when `PROF`).
struct PoolPolicy<'s, const PROF: bool> {
    shared: &'s Shared,
    split_depth: usize,
    /// Tasks spawned while running the current node, in enumeration
    /// order; flushed (reversed) onto the worker's deque afterwards so
    /// LIFO pops preserve the serial DFS order.
    spawned: Vec<Task>,
    profile: SearchProfile,
}

impl<const PROF: bool> SearchPolicy for PoolPolicy<'_, PROF> {
    const PROFILE: bool = PROF;

    #[inline]
    fn prof(&mut self, depth: usize, bump: impl FnOnce(&mut DepthStats)) {
        bump(self.profile.at(depth));
    }

    #[inline]
    fn charge_omega(&mut self) -> bool {
        self.shared.charge_omega()
    }

    #[inline]
    fn poll_stop(&mut self) -> bool {
        // Acquire pairs with the Release in `note_stop`: observing `stop`
        // also makes the cause flags (and anything the stopper published
        // before it) visible.
        self.shared.stop.load(Ordering::Acquire)
    }

    #[inline]
    fn shared_best(&mut self, local: u32) -> u32 {
        // relaxed-ok: the bound is only used to prune, and `fetch_min`
        // makes it monotone non-increasing — a stale read is merely a
        // looser bound, never an unsound one. Pinned by the incumbent
        // harness's monotonicity probe in crates/check.
        local.min(self.shared.best_nops.load(Ordering::Relaxed))
    }

    fn improved(&mut self, mu: u32, order: &[TupleId]) {
        // SeqCst gives all workers a single total order of incumbent
        // publications, so exactly one improver wins `mu < prev` per
        // value; the recheck under the payload lock below closes the
        // window between publication and payload write (the unguarded
        // variant is the A0705 mutation in crates/check).
        let prev = self.shared.best_nops.fetch_min(mu, Ordering::SeqCst);
        if mu < prev {
            let mut best = self.shared.best.lock();
            if mu < best.1 {
                best.0.clear();
                best.0.extend_from_slice(order);
                best.1 = mu;
            }
        }
    }

    fn stopping(&mut self, stats: &SearchStats) {
        self.shared.note_stop(stats);
    }

    fn spawn(&mut self, order: &[TupleId], depth: usize, bound: u32) -> bool {
        if depth <= self.split_depth {
            self.spawned.push(Task {
                order: order.to_vec(),
                depth,
                bound,
            });
            true
        } else {
            false
        }
    }
}

/// The phase-2 worker policy: serial kernel semantics (no shared
/// incumbent) plus transcript capture and the shared λ/stop plumbing.
struct ProvePolicy<'s, const PROF: bool> {
    shared: &'s Shared,
    events: Vec<ProofEvent>,
    profile: SearchProfile,
}

impl<'s, const PROF: bool> ProvePolicy<'s, PROF> {
    /// A policy for the subtree entered at `candidate`.
    fn entering(shared: &'s Shared, candidate: TupleId) -> Self {
        ProvePolicy {
            shared,
            events: vec![ProofEvent::Enter {
                candidate: candidate.0,
            }],
            profile: SearchProfile::new(),
        }
    }
}

impl<const PROF: bool> SearchPolicy for ProvePolicy<'_, PROF> {
    const PROOF: bool = true;
    const PROFILE: bool = PROF;

    #[inline]
    fn prof(&mut self, depth: usize, bump: impl FnOnce(&mut DepthStats)) {
        bump(self.profile.at(depth));
    }

    #[inline]
    fn log(&mut self, ev: ProofEvent) {
        self.events.push(ev);
    }

    #[inline]
    fn charge_omega(&mut self) -> bool {
        self.shared.charge_omega()
    }

    #[inline]
    fn poll_stop(&mut self) -> bool {
        // Acquire pairs with the Release in `note_stop` (see
        // `PoolPolicy::poll_stop`).
        self.shared.stop.load(Ordering::Acquire)
    }

    fn stopping(&mut self, stats: &SearchStats) {
        self.shared.note_stop(stats);
    }
}

fn merge(into: &mut SearchStats, from: &SearchStats) {
    into.nodes_visited += from.nodes_visited;
    into.omega_calls += from.omega_calls;
    into.complete_schedules += from.complete_schedules;
    into.improvements += from.improvements;
    into.pruned_quick += from.pruned_quick;
    into.pruned_legality += from.pruned_legality;
    into.pruned_equivalence += from.pruned_equivalence;
    into.pruned_bound += from.pruned_bound;
    into.pruned_symmetry += from.pruned_symmetry;
    into.splits += from.splits;
    into.steals += from.steals;
    into.truncated |= from.truncated;
    into.deadline_hit |= from.deadline_hit;
    into.proved_by_bound |= from.proved_by_bound;
}

/// Steal one task from any peer (FIFO from the top of their deque).
fn steal_task(stealers: &[Stealer<Task>], me: usize, stats: &mut SearchStats) -> Option<Task> {
    for (i, s) in stealers.iter().enumerate() {
        if i == me {
            continue;
        }
        loop {
            match s.steal() {
                Steal::Success(t) => {
                    stats.steals += 1;
                    return Some(t);
                }
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn worker_loop<const PROF: bool>(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    boundary: &BoundaryState,
    shared: &Shared,
    split_depth: usize,
    own: &Deque<Task>,
    stealers: &[Stealer<Task>],
    me: usize,
) -> (SearchStats, SearchProfile) {
    let mut stats = SearchStats::default();
    let mut policy = PoolPolicy::<PROF> {
        shared,
        split_depth,
        spawned: Vec::new(),
        profile: SearchProfile::new(),
    };
    loop {
        // Acquire pairs with the Release in `note_stop`: a worker that
        // exits on the stop signal also sees the cause flags.
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let task = match own.pop() {
            Some(t) => Some(t),
            None => steal_task(stealers, me, &mut stats),
        };
        let Some(task) = task else {
            // Acquire pairs with the AcqRel counter updates below: a
            // worker that reads 0 has seen every completed task's pushes,
            // so an empty steal sweep really means the tree is done.
            if shared.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::yield_now();
            continue;
        };
        // Deferred step [6]: the bound recorded at split time against the
        // incumbent of *this* moment (it can only have tightened since).
        // relaxed-ok: monotone bound via fetch_min, used only to prune —
        // a stale read admits a subtree the serial search would cut, but
        // never cuts one it would keep.
        let best = shared.best_nops.load(Ordering::Relaxed);
        if task.bound < best {
            let st = run_subtree(
                ctx,
                cfg,
                boundary,
                task.order,
                task.depth,
                best,
                shared.global_lb,
                &mut policy,
            );
            merge(&mut stats, &st);
            // Publish before completing the task so `pending` never dips
            // to 0 while spawned work exists; reversed so LIFO pops keep
            // the serial DFS order.
            shared
                .pending
                .fetch_add(policy.spawned.len() as u64, Ordering::AcqRel);
            for t in policy.spawned.drain(..).rev() {
                own.push(t);
            }
        } else {
            stats.pruned_bound += 1;
            if PROF {
                policy.profile.at(task.depth).pruned_bound += 1;
            }
        }
        // AcqRel: the Release half publishes this task's deque pushes to
        // whichever worker's Acquire read of `pending` observes the count;
        // the Acquire half keeps the counter a valid termination barrier
        // (a worker that reads 0 has seen every completed task's effects).
        // Explored by the merge harness in crates/check.
        shared.pending.fetch_sub(1, Ordering::AcqRel);
    }
    (stats, policy.profile)
}

/// Result of the phase-1 pool run.
struct PoolOutcome {
    best_order: Vec<TupleId>,
    best_nops: u32,
    stats: SearchStats,
    profile: SearchProfile,
    proved: bool,
    omega_used: u64,
}

/// Run the work-stealing pool over the whole tree (the root as one task).
fn pool_phase<const PROF: bool>(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    par: &ParallelConfig,
    boundary: &BoundaryState,
    seed: &SearchSeed,
) -> PoolOutcome {
    let threads = par.resolved_threads().max(1);
    let shared = Shared::new(cfg, seed);
    // The pool owns the λ budget; workers run the kernel with an infinite
    // local λ and charge the shared counter through the policy.
    let worker_cfg = SearchConfig {
        lambda: u64::MAX,
        ..*cfg
    };

    let deques: Vec<Deque<Task>> = (0..threads).map(|_| Deque::new_lifo()).collect();
    let stealers: Vec<Stealer<Task>> = deques.iter().map(|d| d.stealer()).collect();
    shared.pending.store(1, Ordering::Release);
    deques[0].push(Task {
        order: seed.order.clone(),
        depth: 0,
        bound: 0,
    });

    let stats_acc = Mutex::new((SearchStats::default(), SearchProfile::new()));
    crossbeam::scope(|scope| {
        for (i, dq) in deques.iter().enumerate() {
            let stealers = &stealers;
            let shared = &shared;
            let stats_acc = &stats_acc;
            let worker_cfg = &worker_cfg;
            scope.spawn(move |_| {
                let (st, profile) = worker_loop::<PROF>(
                    ctx,
                    worker_cfg,
                    boundary,
                    shared,
                    par.split_depth,
                    dq,
                    stealers,
                    i,
                );
                let mut acc = stats_acc.lock();
                merge(&mut acc.0, &st);
                acc.1.absorb(&profile);
            });
        }
    })
    .expect("parallel search worker panicked");

    let (mut stats, profile) = stats_acc.into_inner();
    // relaxed-ok (all four loads): the scope join above happens-before
    // these reads, so every worker's final stores are already visible.
    let proved = shared.proved.load(Ordering::Relaxed);
    stats.proved_by_bound = proved;
    stats.deadline_hit = !proved && shared.deadline_hit.load(Ordering::Relaxed);
    stats.truncated = !proved && shared.truncated.load(Ordering::Relaxed);
    let omega_used = shared.omega_used.load(Ordering::Relaxed);
    let (best_order, best_nops) = shared.best.into_inner();
    PoolOutcome {
        best_order,
        best_nops,
        stats,
        profile,
        proved,
        omega_used,
    }
}

/// Shared pre-search triage on the seed schedule. `parallel_search`
/// and `parallel_prove` early-out identically when the list schedule
/// already settles the instance; only the certificate plumbing differs.
enum SeedVerdict {
    /// The seed meets the whole-block lower bound: optimal, proved.
    Proved,
    /// The deadline expired before any exploration; the seed answers.
    DeadlineExpired,
    /// Nothing settled — run the pool.
    Search,
}

fn assess_seed(cfg: &SearchConfig, seed: &SearchSeed) -> SeedVerdict {
    if cfg.terminate_on_lower_bound && seed.proved_by_bound() {
        SeedVerdict::Proved
    } else if cfg.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
        SeedVerdict::DeadlineExpired
    } else {
        SeedVerdict::Search
    }
}

/// Stats for a [`SeedVerdict::Proved`] early-out.
fn proved_stats() -> SearchStats {
    SearchStats {
        proved_by_bound: true,
        ..SearchStats::default()
    }
}

/// Stats for a [`SeedVerdict::DeadlineExpired`] early-out.
fn deadline_stats() -> SearchStats {
    SearchStats {
        truncated: true,
        deadline_hit: true,
        ..SearchStats::default()
    }
}

/// Build an outcome that simply returns the seed schedule.
fn seed_outcome(
    ctx: &SchedContext<'_>,
    seed: SearchSeed,
    optimal: bool,
    stats: SearchStats,
) -> SearchOutcome {
    SearchOutcome {
        order: seed.order.clone(),
        assignment: ctx.sigma.clone(),
        etas: seed.etas,
        nops: seed.nops,
        initial_order: seed.order,
        initial_nops: seed.nops,
        optimal,
        stats,
    }
}

/// Run the branch-and-bound search with a work-stealing worker pool,
/// summing the workers' profiles into `profile` when `PROF`.
///
/// Honors the full [`SearchConfig`] — bound kind, equivalence rule, quick
/// check, λ budget (shared pool-wide) and deadline — and returns the same
/// optimal NOP count as the serial [`crate::bnb::search`]. The *schedule*
/// returned may be a different optimum when several exist, because
/// workers race to improve the incumbent. `cfg.pipeline_selection` runs
/// serially (see [`crate::bnb::branch_and_bound`]).
pub(crate) fn parallel_search<const PROF: bool>(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    par: &ParallelConfig,
    profile: &mut SearchProfile,
) -> SearchOutcome {
    let boundary = BoundaryState::cold(ctx.machine.pipeline_count());
    let seed = seed_incumbent(ctx, cfg.initial, &boundary, false);
    match assess_seed(cfg, &seed) {
        SeedVerdict::Proved => return seed_outcome(ctx, seed, true, proved_stats()),
        SeedVerdict::DeadlineExpired => {
            // Out of time before any exploration: the list schedule answers.
            return seed_outcome(ctx, seed, false, deadline_stats());
        }
        SeedVerdict::Search => {}
    }

    let pool = pool_phase::<PROF>(ctx, cfg, par, &boundary, &seed);
    let (etas, check) = evaluate_schedule(ctx, &pool.best_order);
    debug_assert_eq!(check, pool.best_nops);

    *profile = pool.profile;
    SearchOutcome {
        order: pool.best_order,
        assignment: ctx.sigma.clone(),
        etas,
        nops: pool.best_nops,
        initial_order: seed.order,
        initial_nops: seed.nops,
        optimal: !pool.stats.truncated,
        stats: pool.stats,
    }
}

/// The pieces of a parallel optimality proof, before merging.
///
/// `parts` holds the event transcript split at the root dispositions, in
/// the order the merged certificate concatenates them: the best root
/// subtree first (so its `Improve{μ*}` precedes every other event), then
/// every other root candidate's disposition in serial enumeration order,
/// then the closing root `Leave` (absent when the stream ends in
/// `ProvedByBound`). Each entered subtree's part was produced by an
/// independent serial kernel run — dropping or reordering parts breaks
/// the checker's coverage replay, which is exactly what the tamper tests
/// assert.
#[derive(Debug, Clone)]
pub(crate) struct ParallelProof {
    /// Certificate header (identity + configuration of the run).
    pub header: CertificateHeader,
    /// Per-disposition event slices in merge order (see type docs).
    pub parts: Vec<Vec<ProofEvent>>,
    /// The final claim.
    pub trailer: CertificateTrailer,
}

/// Root-level placement economics for one candidate: `(μ, bound, chain,
/// resource)` exactly as the serial kernel's `place_and_recurse` would
/// record them in a `BoundPrune`. `engine` and `frontier` hold the empty
/// prefix and are returned to it.
fn root_bound(
    ctx: &SchedContext<'_>,
    engine: &mut TimingEngine<'_, '_>,
    frontier: &mut Frontier,
    lower: Option<&LowerBound>,
    xi: TupleId,
) -> (u32, u32, Option<i64>, Option<i64>) {
    engine.push(xi, ctx.sigma(xi));
    frontier.place(ctx, engine, xi);
    let mu = engine.total_nops();
    let out = match lower {
        Some(lb) => {
            let (chain, resource, bound) = lb.terms(ctx, engine, frontier);
            (mu, bound, Some(chain), Some(resource))
        }
        None => (mu, mu, None, None),
    };
    frontier.unplace(ctx, xi);
    engine.pop();
    out
}

/// One root-candidate disposition of the phase-2 enumeration.
enum RootDisp {
    /// The candidate is pruned at the root; the event is final.
    Prune(ProofEvent),
    /// The candidate's subtree is entered and searched by a worker.
    Enter {
        candidate: TupleId,
        /// Full permutation with the candidate at position 0.
        order: Vec<TupleId>,
        /// Incumbent the subtree kernel is seeded with (and the replay
        /// incumbent the checker will hold when this part begins).
        seed_nops: u32,
        /// Lower-bound termination, passed only to the best subtree.
        global_lb: Option<u32>,
    },
}

/// `parallel_search` while producing a machine-checkable optimality
/// certificate from per-subtree transcripts (see the module docs for the
/// two-phase construction). The concatenated parts are accepted by
/// `pipesched_proof::check_certificate` unchanged whenever the run
/// completes within λ/deadline. The profile (when `PROF`) covers both
/// phases.
///
/// # Panics
///
/// Panics if `cfg.pipeline_selection` is set (as for the serial
/// [`crate::bnb::search_with_proof`]).
pub(crate) fn parallel_prove<const PROF: bool>(
    ctx: &SchedContext<'_>,
    cfg: &SearchConfig,
    par: &ParallelConfig,
    profile: &mut SearchProfile,
) -> (SearchOutcome, ParallelProof) {
    assert!(
        !cfg.pipeline_selection,
        "proof logging does not support the pipeline-selection extension"
    );
    let n = ctx.len();
    let boundary = BoundaryState::cold(ctx.machine.pipeline_count());
    let seed = seed_incumbent(ctx, cfg.initial, &boundary, false);
    let header = CertificateHeader {
        n: n as u32,
        bound: cfg.bound,
        equivalence: cfg.equivalence,
        initial_order: seed.order.iter().map(|t| t.0).collect(),
        initial_nops: seed.nops,
    };

    match assess_seed(cfg, &seed) {
        SeedVerdict::Proved => {
            // Degenerate: the list schedule meets the whole-block bound.
            let lb = seed.global_lb;
            let trailer = CertificateTrailer {
                order: header.initial_order.clone(),
                nops: seed.nops,
                complete: true,
            };
            let outcome = seed_outcome(ctx, seed, true, proved_stats());
            let proof = ParallelProof {
                header,
                parts: vec![vec![ProofEvent::ProvedByBound { lb }]],
                trailer,
            };
            return (outcome, proof);
        }
        SeedVerdict::DeadlineExpired => {
            let trailer = CertificateTrailer {
                order: header.initial_order.clone(),
                nops: seed.nops,
                complete: false,
            };
            let outcome = seed_outcome(ctx, seed, false, deadline_stats());
            let proof = ParallelProof {
                header,
                parts: Vec::new(),
                trailer,
            };
            return (outcome, proof);
        }
        SeedVerdict::Search => {}
    }

    // ---- Phase 1: find μ* with the work-stealing pool. ----
    let pool = pool_phase::<PROF>(ctx, cfg, par, &boundary, &seed);
    let initial_order = seed.order.clone();
    let initial_nops = seed.nops;

    if pool.stats.truncated {
        // No optimality claim to certify; the incomplete trailer makes the
        // checker reject, exactly like a truncated serial proof run.
        let trailer = CertificateTrailer {
            order: pool.best_order.iter().map(|t| t.0).collect(),
            nops: pool.best_nops,
            complete: false,
        };
        let (etas, _) = evaluate_schedule(ctx, &pool.best_order);
        let outcome = SearchOutcome {
            order: pool.best_order.clone(),
            assignment: ctx.sigma.clone(),
            etas,
            nops: pool.best_nops,
            initial_order,
            initial_nops,
            optimal: false,
            stats: pool.stats,
        };
        let proof = ParallelProof {
            header,
            parts: Vec::new(),
            trailer,
        };
        *profile = pool.profile;
        return (outcome, proof);
    }

    // ---- Phase 2: re-derive the transcript with perfect foresight. ----
    let mu_star = pool.best_nops;
    let best_order = pool.best_order.clone();
    let kappa = initial_order[0];
    let c_star = best_order[0];
    let j_star = initial_order
        .iter()
        .position(|&t| t == c_star)
        .expect("best root candidate is in the block");
    let equiv_class =
        (cfg.equivalence == EquivalenceMode::Structural).then(|| structural_classes(ctx));
    let lower = (cfg.bound == BoundKind::CriticalPath).then(|| LowerBound::new(ctx));
    let mut root_engine = TimingEngine::with_boundary(ctx, &boundary);
    let mut root_frontier = Frontier::new(ctx, false);
    let global_lb = cfg.terminate_on_lower_bound.then_some(seed.global_lb);

    // Root dispositions in merge order: best subtree first, then the other
    // candidates in the serial enumeration order.
    let mut disps: Vec<RootDisp> = Vec::with_capacity(n);
    disps.push(RootDisp::Enter {
        candidate: c_star,
        order: best_order.clone(),
        seed_nops: initial_nops,
        global_lb,
    });
    let mut tried_classes: Vec<(u32, TupleId)> = Vec::new();
    if let Some(classes) = &equiv_class {
        tried_classes.push((classes[c_star.index()], c_star));
    }
    for (j, &xi) in initial_order.iter().enumerate() {
        if j == j_star {
            continue;
        }
        // [5a]/[5b]: at the root both legality checks coincide (a
        // candidate is placeable iff it has no predecessors).
        if (cfg.quick_check && ctx.analysis.earliest(xi) > 0) || !ctx.preds[xi.index()].is_empty() {
            disps.push(RootDisp::Prune(ProofEvent::LegalityPrune {
                candidate: xi.0,
            }));
            continue;
        }
        // [5c]: mirror the serial kernel's equivalence filtering. The
        // hoisted best candidate is a valid witness for its own class —
        // its part precedes every prune in the merged stream.
        match cfg.equivalence {
            EquivalenceMode::Off => {}
            EquivalenceMode::Paper => {
                if j != 0 && ctx.interchangeable_free(kappa, xi) {
                    disps.push(RootDisp::Prune(ProofEvent::EquivalencePrune {
                        candidate: xi.0,
                        witness: kappa.0,
                    }));
                    continue;
                }
            }
            EquivalenceMode::UnrestrictedPaper => {
                if j != 0 && ctx.is_free_instruction(kappa) && ctx.is_free_instruction(xi) {
                    disps.push(RootDisp::Prune(ProofEvent::EquivalencePrune {
                        candidate: xi.0,
                        witness: kappa.0,
                    }));
                    continue;
                }
            }
            EquivalenceMode::Structural => {
                let classes = equiv_class.as_ref().expect("classes computed");
                let class = classes[xi.index()];
                if let Some(&(_, witness)) = tried_classes.iter().find(|(c, _)| *c == class) {
                    disps.push(RootDisp::Prune(ProofEvent::EquivalencePrune {
                        candidate: xi.0,
                        witness: witness.0,
                    }));
                    continue;
                }
                tried_classes.push((class, xi));
            }
        }
        // Step [6] against the replay incumbent, which is μ* from the
        // second part on (the best subtree's Improve precedes these).
        let (mu, bound, chain, resource) = root_bound(
            ctx,
            &mut root_engine,
            &mut root_frontier,
            lower.as_ref(),
            xi,
        );
        if bound < mu_star {
            let mut order = initial_order.clone();
            order.swap(0, j);
            disps.push(RootDisp::Enter {
                candidate: xi,
                order,
                seed_nops: mu_star,
                global_lb: None,
            });
        } else {
            disps.push(RootDisp::Prune(ProofEvent::BoundPrune {
                candidate: xi.0,
                mu,
                bound,
                chain,
                resource,
            }));
        }
    }

    // Fresh shared state for phase 2 — same λ pool, counting on from
    // phase 1's Ω spend; stop/proved flags reset so the subtree workers
    // actually run.
    let shared2 = Shared::new(cfg, &seed);
    // relaxed-ok: written before any phase-2 worker is spawned; the
    // spawn edge orders it for every reader.
    shared2.omega_used.store(pool.omega_used, Ordering::Relaxed);
    let worker_cfg = SearchConfig {
        lambda: u64::MAX,
        ..*cfg
    };

    let mut phase2_stats = SearchStats::default();
    *profile = pool.profile;
    let mut parts: Vec<Vec<ProofEvent>> = Vec::with_capacity(disps.len() + 1);

    // The best subtree runs first (serially): if it proves optimality by
    // bound, the certificate ends inside it and nothing else is emitted.
    let proved_in_part0;
    {
        let RootDisp::Enter {
            candidate,
            order,
            seed_nops,
            global_lb,
        } = &disps[0]
        else {
            unreachable!("part 0 is always the best subtree")
        };
        let mut policy = ProvePolicy::<PROF>::entering(&shared2, *candidate);
        let st = run_subtree(
            ctx,
            &worker_cfg,
            &boundary,
            order.clone(),
            1,
            *seed_nops,
            *global_lb,
            &mut policy,
        );
        merge(&mut phase2_stats, &st);
        profile.absorb(&policy.profile);
        proved_in_part0 = st.proved_by_bound;
        parts.push(policy.events);
    }

    // relaxed-ok: part 0 ran on this thread (program order); no other
    // thread is running yet.
    if !proved_in_part0 && !shared2.stop.load(Ordering::Relaxed) {
        // Every other disposition, in parallel across entered subtrees.
        type SubtreeSlot = Mutex<Option<(Vec<ProofEvent>, SearchStats, SearchProfile)>>;
        let results: Vec<SubtreeSlot> = (0..disps.len()).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(1);
        let threads = par.resolved_threads().max(1).min(disps.len().max(1));
        crossbeam::scope(|scope| {
            for _ in 0..threads {
                let disps = &disps;
                let results = &results;
                let next = &next;
                let shared2 = &shared2;
                let worker_cfg = &worker_cfg;
                let boundary = &boundary;
                scope.spawn(move |_| loop {
                    // relaxed-ok: only the returned index is used — each
                    // claimed slot is a Mutex, and the final reads happen
                    // after scope join. Claim uniqueness needs atomicity,
                    // not ordering (merge-completeness harness).
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= disps.len() {
                        break;
                    }
                    let part = match &disps[i] {
                        RootDisp::Prune(ev) => {
                            (vec![*ev], SearchStats::default(), SearchProfile::new())
                        }
                        RootDisp::Enter {
                            candidate,
                            order,
                            seed_nops,
                            global_lb,
                        } => {
                            let mut policy = ProvePolicy::<PROF>::entering(shared2, *candidate);
                            let st = run_subtree(
                                ctx,
                                worker_cfg,
                                boundary,
                                order.clone(),
                                1,
                                *seed_nops,
                                *global_lb,
                                &mut policy,
                            );
                            (policy.events, st, policy.profile)
                        }
                    };
                    *results[i].lock() = Some(part);
                });
            }
        })
        .expect("parallel prove worker panicked");
        for slot in results.into_iter().skip(1) {
            let (events, st, part_profile) =
                slot.into_inner().expect("every disposition was processed");
            merge(&mut phase2_stats, &st);
            profile.absorb(&part_profile);
            parts.push(events);
        }
        parts.push(vec![ProofEvent::Leave]);
    }

    // relaxed-ok (here and deadline_hit below): read after scope join /
    // single-threaded part 0 — all worker stores are already visible.
    let phase2_truncated = !proved_in_part0 && shared2.truncated.load(Ordering::Relaxed);
    let complete = !phase2_truncated;

    let trailer = CertificateTrailer {
        order: best_order.iter().map(|t| t.0).collect(),
        nops: mu_star,
        complete,
    };
    let (etas, check) = evaluate_schedule(ctx, &best_order);
    debug_assert_eq!(check, mu_star);

    let mut stats = pool.stats;
    merge(&mut stats, &phase2_stats);
    stats.proved_by_bound = pool.proved;
    stats.truncated = phase2_truncated;
    stats.deadline_hit = phase2_truncated && shared2.deadline_hit.load(Ordering::Relaxed);

    let outcome = SearchOutcome {
        order: best_order,
        assignment: ctx.sigma.clone(),
        etas,
        nops: mu_star,
        initial_order,
        initial_nops,
        // A truncated certification phase withdraws the optimality claim:
        // μ* is known optimal internally, but the caller asked for a
        // *checkable* run and the budget did not cover it.
        optimal: complete,
        stats,
    };
    (
        outcome,
        ParallelProof {
            header,
            parts,
            trailer,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::{search, SearchConfig};
    use pipesched_ir::{analysis::verify_schedule, BlockBuilder, DepDag};
    use pipesched_machine::presets;

    fn parallel_search(
        ctx: &SchedContext<'_>,
        cfg: &SearchConfig,
        par: &ParallelConfig,
    ) -> SearchOutcome {
        super::parallel_search::<false>(ctx, cfg, par, &mut SearchProfile::new())
    }

    fn sample_block(chains: usize) -> pipesched_ir::BasicBlock {
        let mut b = BlockBuilder::new("par");
        for i in 0..chains {
            let x = b.load(&format!("x{i}"));
            let y = b.load(&format!("y{i}"));
            let m = b.mul(x, y);
            b.store(&format!("r{i}"), m);
        }
        b.finish().unwrap()
    }

    #[test]
    fn parallel_matches_serial_optimum() {
        let block = sample_block(3);
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let cfg = SearchConfig::with_lambda(u64::MAX);
        let serial = search(&ctx, &cfg);
        let par = parallel_search(&ctx, &cfg, &ParallelConfig::with_threads(4));
        assert!(serial.optimal && par.optimal);
        assert_eq!(par.nops, serial.nops);
        verify_schedule(&block, &dag, &par.order).unwrap();
    }

    /// Satellite regression: ablation knobs flow through the parallel
    /// search. A non-default configuration (the paper's α-β bound in
    /// place of the critical-path bound) must change the serial and
    /// one-thread-parallel node counts *identically* — before the kernel
    /// unification, `parallel_search` silently ran the default
    /// configuration.
    #[test]
    fn ablations_flow_through_the_pool() {
        let block = sample_block(3);
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        // One-thread parity needs the serial stop semantics untouched:
        // no λ, no deadline, no early lower-bound termination (a serial
        // mid-loop stop skips sibling Ω charges the pool pre-paid).
        let base = SearchConfig {
            lambda: u64::MAX,
            terminate_on_lower_bound: false,
            ..SearchConfig::default()
        };
        let off = SearchConfig {
            bound: BoundKind::AlphaBeta,
            ..base
        };
        let mut counts = Vec::new();
        for cfg in [&base, &off] {
            let serial = search(&ctx, cfg);
            let par = parallel_search(
                &ctx,
                cfg,
                &ParallelConfig {
                    threads: 1,
                    split_depth: 2,
                },
            );
            assert_eq!(par.nops, serial.nops);
            // Bit-exact counter parity at one thread.
            assert_eq!(par.stats.nodes_visited, serial.stats.nodes_visited);
            assert_eq!(par.stats.omega_calls, serial.stats.omega_calls);
            assert_eq!(
                par.stats.complete_schedules,
                serial.stats.complete_schedules
            );
            assert_eq!(par.stats.improvements, serial.stats.improvements);
            assert_eq!(par.stats.pruned_quick, serial.stats.pruned_quick);
            assert_eq!(par.stats.pruned_legality, serial.stats.pruned_legality);
            assert_eq!(
                par.stats.pruned_equivalence,
                serial.stats.pruned_equivalence
            );
            assert_eq!(par.stats.pruned_bound, serial.stats.pruned_bound);
            counts.push(serial.stats.nodes_visited);
        }
        // And the ablation really changed the search: the weaker α-β
        // bound prunes later, so the tree itself differs.
        assert_ne!(
            counts[0], counts[1],
            "bound ablation should change the node count"
        );
    }

    #[test]
    fn tiny_blocks_short_circuit() {
        let mut b = BlockBuilder::new("tiny");
        b.load("x");
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let par = parallel_search(
            &ctx,
            &SearchConfig::with_lambda(100),
            &ParallelConfig::with_threads(8),
        );
        assert!(par.optimal);
        assert_eq!(par.order.len(), 1);
    }

    #[test]
    fn lambda_truncates_in_parallel() {
        let block = sample_block(4);
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let par = parallel_search(
            &ctx,
            &SearchConfig::with_lambda(5),
            &ParallelConfig::with_threads(4),
        );
        assert!(par.stats.truncated);
        assert!(!par.optimal);
        verify_schedule(&block, &dag, &par.order).unwrap();
        assert!(par.nops <= par.initial_nops);
    }

    /// Forced-steal stress: with every placement its own task, workers
    /// other than the first can only obtain work by stealing.
    #[test]
    fn forced_steals_preserve_the_optimum() {
        let block = sample_block(3);
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let cfg = SearchConfig {
            lambda: u64::MAX,
            terminate_on_lower_bound: false,
            ..SearchConfig::default()
        };
        let serial = search(&ctx, &cfg);
        let par = ParallelConfig {
            threads: 4,
            split_depth: ctx.len(),
        };
        let mut saw_steal = false;
        for _ in 0..20 {
            let out = parallel_search(&ctx, &cfg, &par);
            assert_eq!(out.nops, serial.nops);
            assert!(out.optimal);
            assert!(out.stats.splits > 0, "1-tuple splits must create tasks");
            verify_schedule(&block, &dag, &out.order).unwrap();
            if out.stats.steals > 0 {
                saw_steal = true;
                break;
            }
        }
        assert!(
            saw_steal,
            "with single-placement tasks and 4 workers, at least one run must steal"
        );
    }

    /// Deadline hit under contention: an already-expired deadline returns
    /// the legal incumbent with `optimal = false`.
    #[test]
    fn deadline_under_contention_returns_legal_incumbent() {
        let block = sample_block(4);
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let cfg = SearchConfig {
            lambda: u64::MAX,
            terminate_on_lower_bound: false,
            deadline: Some(std::time::Instant::now()),
            ..SearchConfig::default()
        };
        let out = parallel_search(&ctx, &cfg, &ParallelConfig::with_threads(4));
        assert!(!out.optimal);
        assert!(out.stats.deadline_hit);
        verify_schedule(&block, &dag, &out.order).unwrap();
        assert!(out.nops <= out.initial_nops);
    }

    #[test]
    fn prove_parts_have_the_documented_shape() {
        let block = sample_block(3);
        let dag = DepDag::build(&block);
        let machine = presets::functional_units();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let cfg = SearchConfig {
            lambda: u64::MAX,
            terminate_on_lower_bound: false,
            ..SearchConfig::default()
        };
        let par = ParallelConfig::with_threads(2);
        let (out, proof) = parallel_prove::<false>(&ctx, &cfg, &par, &mut SearchProfile::new());
        assert!(out.optimal);
        let serial = search(&ctx, &cfg);
        assert_eq!(out.nops, serial.nops);
        // Part 0 is the best subtree: it starts with Enter{best root}.
        assert!(matches!(
            proof.parts[0].first(),
            Some(ProofEvent::Enter { candidate }) if *candidate == out.order[0].0
        ));
        // If the pool improved on the seed, the best part contains the
        // Improve{μ*} that justifies every later bound prune.
        if out.nops < out.initial_nops {
            assert!(proof.parts[0]
                .iter()
                .any(|e| matches!(e, ProofEvent::Improve { mu } if *mu == out.nops)));
        }
        // The last part closes the root node.
        assert_eq!(proof.parts.last(), Some(&vec![ProofEvent::Leave]));
        // The trailer claims exactly the returned schedule.
        assert_eq!(proof.trailer.nops, out.nops);
        assert!(proof.trailer.complete);
    }

    /// The pool's threads=1 counter-exactness contract survives maximal
    /// splitting (every placement its own task):
    /// with LIFO pops the task order is the serial DFS order, so node and Ω
    /// counters match the serial kernel bit for bit.
    #[test]
    fn forced_steal_single_thread_is_counter_exact() {
        for seed in [3u64, 17] {
            let block = pipesched_synth::generate_block(&pipesched_synth::GeneratorConfig::new(
                6, 3, 2, seed,
            ));
            let dag = pipesched_ir::DepDag::build(&block);
            let machine = presets::paper_simulation();
            let ctx = SchedContext::new(&block, &dag, &machine);

            let serial = search(&ctx, &SearchConfig::with_lambda(u64::MAX));
            let par = parallel_search(
                &ctx,
                &SearchConfig::with_lambda(u64::MAX),
                &ParallelConfig {
                    threads: 1,
                    split_depth: ctx.len(),
                },
            );
            assert_eq!(par.nops, serial.nops);
            assert_eq!(
                par.stats.omega_calls, serial.stats.omega_calls,
                "Ω counter drift at threads=1 on\n{block}"
            );
            assert_eq!(
                par.stats.nodes_visited, serial.stats.nodes_visited,
                "node counter drift at threads=1 on\n{block}"
            );
        }
    }
}
