//! Lower bounds on the NOPs a partial schedule must still incur.
//!
//! The paper's α-β prune (step [6]) uses μ(Φ) itself as the bound: NOP
//! counts are monotone under extension, so a partial schedule that already
//! matches the incumbent cannot improve on it. [`BoundKind::CriticalPath`]
//! (an extension; ablated in the benches) strengthens this with two
//! admissible terms computed against the current engine state:
//!
//! * **chain term** — every ready instruction ξ cannot issue before its
//!   earliest issue cycle, and the final instruction of the block cannot
//!   issue before that cycle plus `tail(ξ)`, the minimum issue-to-issue
//!   length of the longest dependence chain below ξ;
//! * **resource term** — the `k` unscheduled operations bound to pipeline
//!   `p` need at least `enqueue(p)` cycles between consecutive issues.
//!
//! Both only use constraints that hold in *every* completion of the partial
//! schedule, so the optimum is never pruned (verified by the proptest suite
//! against exhaustive search).
//!
//! The bound is evaluated on every Ω call, so its inputs are kept
//! incrementally by a `Frontier` rather than rescanned from the block:
//! the ready set as a bit set, the per-pipe counts of unscheduled
//! operations, and each ready instruction's *dependence head* —
//! `max(t(δ) + delay(δ))` over its predecessors δ, fixed from the moment
//! its last predecessor is placed. A ready instruction's earliest issue is
//! then `max(t_prev + 1, pipe-free slot, head)` in O(1), and one function,
//! `LowerBound::terms`, serves the search kernel, the whole-block bound
//! and the proof logger alike.

use pipesched_ir::{BitSet, TupleId};
use pipesched_machine::PipelineId;

use crate::context::SchedContext;
use crate::timing::{TimingEngine, NO_ISSUE};

/// Serializable choice of pruning bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundKind {
    /// The paper's α-β rule: bound = μ(Φ).
    AlphaBeta,
    /// μ(Φ) strengthened with critical-path and resource terms (the
    /// library default: same optimum, far smaller proofs).
    #[default]
    CriticalPath,
}

/// Readiness state of a partial schedule, updated on every placement and
/// undone with it: the inputs [`LowerBound::terms`] needs, without a scan
/// of the block.
#[derive(Debug)]
pub(crate) struct Frontier {
    /// Unplaced immediate predecessors per tuple.
    pending_preds: Vec<u32>,
    /// Unplaced tuples whose predecessors are all placed.
    ready: BitSet,
    /// For a ready tuple, its [`TimingEngine::dependence_head`], taken when
    /// its last predecessor was placed (stale for every other tuple).
    head: Vec<i64>,
    /// Unplaced tuples per pipeline, over the tuples whose unit is fixed.
    remaining_per_pipe: Vec<u32>,
    /// Pipeline selection: the search may choose among an op's units.
    selection: bool,
}

impl Frontier {
    /// The frontier of the empty partial schedule. Under pipeline
    /// `selection`, ops with a choice of units are left out of the per-pipe
    /// counts, so no count overstates the load on a single unit (which
    /// would make the resource term inadmissible), and the bound prices
    /// them at their cheapest unit.
    pub(crate) fn new(ctx: &SchedContext<'_>, selection: bool) -> Self {
        let n = ctx.len();
        let mut f = Frontier {
            pending_preds: ctx.preds.iter().map(|p| p.len() as u32).collect(),
            ready: BitSet::new(n),
            head: vec![NO_ISSUE; n],
            remaining_per_pipe: vec![0; ctx.machine.pipeline_count()],
            selection,
        };
        for i in 0..n {
            if f.pending_preds[i] == 0 {
                f.ready.insert(i);
            }
            if let Some(p) = f.counted_pipe(ctx, TupleId(i as u32)) {
                f.remaining_per_pipe[p.index()] += 1;
            }
        }
        f
    }

    /// True when every immediate predecessor of `t` is placed.
    pub(crate) fn is_ready(&self, t: TupleId) -> bool {
        self.pending_preds[t.index()] == 0
    }

    /// Account for `t`, which must be ready, having just been pushed onto
    /// `engine`.
    pub(crate) fn place(
        &mut self,
        ctx: &SchedContext<'_>,
        engine: &TimingEngine<'_, '_>,
        t: TupleId,
    ) {
        self.ready.remove(t.index());
        if let Some(p) = self.counted_pipe(ctx, t) {
            self.remaining_per_pipe[p.index()] -= 1;
        }
        for e in ctx.dag.succs(t) {
            let s = e.to.index();
            self.pending_preds[s] -= 1;
            if self.pending_preds[s] == 0 {
                self.ready.insert(s);
                self.head[s] = engine.dependence_head(e.to);
            }
        }
    }

    /// Undo [`Frontier::place`] of `t`, the most recently placed tuple.
    pub(crate) fn unplace(&mut self, ctx: &SchedContext<'_>, t: TupleId) {
        for e in ctx.dag.succs(t) {
            let s = e.to.index();
            if self.pending_preds[s] == 0 {
                self.ready.remove(s);
            }
            self.pending_preds[s] += 1;
        }
        if let Some(p) = self.counted_pipe(ctx, t) {
            self.remaining_per_pipe[p.index()] += 1;
        }
        self.ready.insert(t.index());
    }

    /// The pipeline `t` counts against in `remaining_per_pipe`.
    fn counted_pipe(&self, ctx: &SchedContext<'_>, t: TupleId) -> Option<PipelineId> {
        if self.selection && ctx.allowed[t.index()].len() > 1 {
            None
        } else {
            ctx.sigma(t)
        }
    }
}

/// Precomputed static data for the critical-path bound.
#[derive(Debug, Clone)]
pub(crate) struct LowerBound {
    /// `tail[i]`: minimum cycles between issuing tuple `i` and issuing the
    /// last instruction on any chain below it (0 for sinks).
    tail: Vec<i64>,
}

impl LowerBound {
    /// Precompute chain tails for `ctx`.
    pub(crate) fn new(ctx: &SchedContext<'_>) -> Self {
        let n = ctx.len();
        let mut tail = vec![0i64; n];
        for i in (0..n).rev() {
            let t = TupleId(i as u32);
            // Issue-to-issue distance from `t` to a successor: the flow
            // latency of t's own pipeline, or 1 for anti/output edges and
            // for σ(t)=∅ (conservatively, a successor may issue the next
            // cycle; using the true minimum keeps the bound admissible).
            // Min over the allowed units keeps the tail admissible even
            // when the search may *choose* the unit (pipeline selection);
            // with a single unit per op this is exactly σ(t)'s latency.
            let own_latency: i64 = ctx.allowed[t.index()]
                .iter()
                .map(|&p| i64::from(ctx.latency(p)))
                .min()
                .unwrap_or(1);
            for e in ctx.dag.succs(t) {
                let delay = match e.kind {
                    pipesched_ir::DepKind::Flow => own_latency,
                    _ => 1,
                };
                tail[i] = tail[i].max(delay + tail[e.to.index()]);
            }
        }
        LowerBound { tail }
    }

    /// Lower bound on the total NOPs μ of any completion of the engine's
    /// current partial schedule, whose readiness state is `frontier`,
    /// together with its derivation: `(chain, resource, bound)`, where
    /// `chain` and `resource` are the two terms' maxima, both folded over
    /// the shared base `t_prev + remaining`, and
    /// `bound = max(0, max(chain, resource) - (n - 1))`. On a complete
    /// schedule all three reduce to μ's own terms and `bound = μ`.
    ///
    /// A ready instruction's earliest issue is
    /// `max(t_prev + 1, pipe-free slot, cached dependence head)`. Under the
    /// frontier's pipeline selection the pipe-free slot is the *minimum*
    /// over the allowed units — the default unit's would overestimate and
    /// could prune the optimum. The independent certificate checker
    /// (selection off) re-derives the same three values from the analyze
    /// crate's timing oracle and compares them term by term.
    pub(crate) fn terms(
        &self,
        ctx: &SchedContext<'_>,
        engine: &TimingEngine<'_, '_>,
        frontier: &Frontier,
    ) -> (i64, i64, u32) {
        let n = ctx.len() as i64;
        let placed = engine.placed() as i64;
        // t_prev reconstructed from μ(Φ) = t_prev - (placed - 1).
        let t_prev = i64::from(engine.total_nops()) + placed - 1;
        // Every remaining instruction takes at least one cycle.
        let base = t_prev + (n - placed);

        let mut chain = base;
        for i in frontier.ready.iter() {
            let allowed = &ctx.allowed[i];
            let free = if frontier.selection && allowed.len() > 1 {
                allowed
                    .iter()
                    .map(|&p| engine.pipe_free(p))
                    .min()
                    .expect("non-empty allowed set")
            } else {
                ctx.sigma[i].map_or(NO_ISSUE, |p| engine.pipe_free(p))
            };
            let est = (t_prev + 1).max(free).max(frontier.head[i]);
            chain = chain.max(est + self.tail[i]);
        }

        let mut resource = base;
        for (p, &k) in frontier.remaining_per_pipe.iter().enumerate() {
            if k == 0 {
                continue;
            }
            let enq = i64::from(ctx.pipe_enqueue[p]);
            // The first of the k issues happens no earlier than the cycle
            // after t_prev (the pipe's own reuse time is in the chain term).
            resource = resource.max(t_prev + 1 + enq * (i64::from(k) - 1));
        }

        let bound = (chain.max(resource) - (n - 1)).max(0) as u32;
        (chain, resource, bound)
    }
}

/// Admissible lower bound on μ for the whole block, scheduled from a cold
/// boundary with each op on its default unit. This is the bound `search`
/// uses for its optimality pre-check; callers that obtain a schedule by
/// other means (a cache hit, a heuristic tier) can compare against it to
/// prove optimality without running the branch-and-bound at all.
pub fn global_lower_bound(ctx: &SchedContext<'_>) -> u32 {
    let cold = crate::timing::BoundaryState::cold(ctx.machine.pipeline_count());
    crate::seed::block_lower_bound(ctx, &cold, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_ir::{BlockBuilder, DepDag};
    use pipesched_machine::presets;
    use proptest::prelude::*;

    #[test]
    fn tails_reflect_latency_chains() {
        let mut b = BlockBuilder::new("tails");
        let x = b.load("x"); // loader latency 2
        let m = b.mul(x, x); // multiplier latency 4
        let m2 = b.mul(m, m);
        b.store("z", m2);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let lb = LowerBound::new(&ctx);
        // store: 0; m2: store next-cycle ⇒ its flow succ... m2→store is a
        // flow edge with m2's latency 4: tail(m2) = 4. tail(m) = 4 + 4.
        // tail(x) = 2 + 8.
        assert_eq!(lb.tail, vec![10, 8, 4, 0]);
    }

    #[test]
    fn bound_on_empty_prefix_is_admissible() {
        let mut b = BlockBuilder::new("adm");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        b.store("z", m);
        let block = b.finish().unwrap();
        let dag = DepDag::build(&block);
        let machine = presets::paper_simulation();
        let ctx = SchedContext::new(&block, &dag, &machine);
        let bound = global_lower_bound(&ctx);

        // Optimal schedule: x@0, y@1, mul@3 (waits y latency), store@7.
        // μ = 7 - 3 = 4.
        let order: Vec<_> = block.ids().collect();
        let (_, actual) = crate::timing::evaluate_schedule(&ctx, &order);
        assert!(bound <= actual, "bound {bound} exceeds optimum ≤ {actual}");
        assert!(bound > 0, "chain term should see the mul latency");
    }

    /// The bound of [`LowerBound::terms`] recomputed from scratch: the
    /// ready set by a predecessor check over the whole block, each ready
    /// tuple's earliest issue from [`TimingEngine::earliest_issue`], and the
    /// per-pipe counts by a scan of the unplaced tuples.
    fn rescanned_terms(
        ctx: &SchedContext<'_>,
        lb: &LowerBound,
        engine: &TimingEngine<'_, '_>,
        selection: bool,
    ) -> (i64, i64, u32) {
        let n = ctx.len() as i64;
        let placed = |t: TupleId| engine.issue_time(t).is_some();
        let t_prev = i64::from(engine.total_nops()) + engine.placed() as i64 - 1;
        let base = t_prev + n - engine.placed() as i64;
        let mut chain = base;
        let mut remaining = vec![0i64; ctx.machine.pipeline_count()];
        for t in ctx.block.ids().filter(|&t| !placed(t)) {
            let allowed = &ctx.allowed[t.index()];
            let choice = selection && allowed.len() > 1;
            if let (false, Some(p)) = (choice, ctx.sigma(t)) {
                remaining[p.index()] += 1;
            }
            if !ctx.preds[t.index()].iter().all(|d| placed(TupleId(d.from))) {
                continue;
            }
            let est = if choice {
                allowed
                    .iter()
                    .map(|&p| engine.earliest_issue(t, Some(p)))
                    .min()
                    .unwrap()
            } else {
                engine.earliest_issue(t, ctx.sigma(t))
            };
            chain = chain.max(est + lb.tail[t.index()]);
        }
        let mut resource = base;
        for (p, &k) in remaining.iter().enumerate().filter(|(_, &k)| k > 0) {
            resource = resource.max(t_prev + 1 + i64::from(ctx.pipe_enqueue[p]) * (k - 1));
        }
        (
            chain,
            resource,
            (chain.max(resource) - (n - 1)).max(0) as u32,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Along every prefix of a random legal order (on random units
        /// under selection), placed and then unplaced again, the
        /// frontier-fed bound equals the rescan.
        #[test]
        fn frontier_bound_matches_rescan(seed in 0u64..100_000,
                                         statements in 1usize..9,
                                         walk in any::<u64>()) {
            let config = pipesched_synth::GeneratorConfig::new(statements, 3, 2, seed);
            let block = pipesched_synth::generate_block(&config);
            let dag = DepDag::build(&block);
            for (machine, selection) in presets::all_presets()
                .into_iter()
                .flat_map(|m| [(m.clone(), false), (m, true)])
            {
                let ctx = SchedContext::new(&block, &dag, &machine);
                let lb = LowerBound::new(&ctx);
                let mut engine = TimingEngine::new(&ctx);
                let mut frontier = Frontier::new(&ctx, selection);
                let mut order = Vec::new();
                let mut rng = walk | 1;
                loop {
                    let got = lb.terms(&ctx, &engine, &frontier);
                    let want = rescanned_terms(&ctx, &lb, &engine, selection);
                    prop_assert_eq!(got, want, "{} at prefix {:?}", machine.name, order);
                    let placed = |t: TupleId| engine.issue_time(t).is_some();
                    let ready: Vec<TupleId> = ctx
                        .block
                        .ids()
                        .filter(|&t| !placed(t))
                        .filter(|t| ctx.preds[t.index()].iter().all(|d| placed(TupleId(d.from))))
                        .collect();
                    if ready.is_empty() {
                        break;
                    }
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let t = ready[rng as usize % ready.len()];
                    let allowed = &ctx.allowed[t.index()];
                    let pipe = if selection && allowed.len() > 1 {
                        Some(allowed[(rng >> 32) as usize % allowed.len()])
                    } else {
                        ctx.sigma(t)
                    };
                    engine.push(t, pipe);
                    frontier.place(&ctx, &engine, t);
                    order.push(t);
                }
                prop_assert_eq!(order.len(), ctx.len());
                let complete = lb.terms(&ctx, &engine, &frontier);
                prop_assert_eq!(complete.2, engine.total_nops());
                while let Some(t) = order.pop() {
                    frontier.unplace(&ctx, t);
                    engine.pop();
                    let got = lb.terms(&ctx, &engine, &frontier);
                    let want = rescanned_terms(&ctx, &lb, &engine, selection);
                    prop_assert_eq!(got, want, "{} unplacing to {:?}", machine.name, order);
                }
            }
        }
    }
}
