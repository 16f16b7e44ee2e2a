//! Traced replay of the serving path: the benchmark calls each layer's
//! public functions itself, serially, in the order the engine uses them —
//! `parse_request` → `DepDag::build` → `SchedContext::new` →
//! `canonicalize` → `ScheduleCache::get` → list tier `search` (λ = 1) →
//! `windowed_schedule_bounded` → `global_lower_bound` → `search` →
//! `ScheduleCache::insert` → `response_json`/`to_compact` — with a span
//! around every call.
//!
//! The replay has to mirror the engine's cascade exactly: the consistency
//! check compares its answers with the untraced run's, and a mismatch
//! means the two have drifted apart.

use std::time::Instant;

use pipesched_core::timing::evaluate_schedule;
use pipesched_core::{
    global_lower_bound, search, windowed_schedule_bounded, Backend, SchedContext, SearchConfig,
    TimingEngine,
};
use pipesched_ir::{analysis::verify_schedule, DepDag, TupleId};
use pipesched_machine::PipelineId;
use pipesched_service::{
    canonicalize, parse_request, response_json, Answer, CacheEntry, CanonForm, EngineConfig,
    ScheduleCache, Tier,
};

use crate::layers::Layers;
use crate::serve::Served;
use crate::spans::Tracer;

/// Replay `lines` against a fresh cache of `capacity` entries, first
/// warmed untraced with `warm` (as the timed run's set-up warmed its
/// engine).
pub fn run(
    lines: &[&str],
    warm: &[String],
    capacity: usize,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Vec<Result<Served, String>> {
    let cfg = crate::serve::engine_config();
    let cache = ScheduleCache::new(capacity, 8);
    for line in warm {
        let _ = answer_line(
            line,
            &cfg,
            &cache,
            &mut Tracer::new(false),
            &mut Layers::default(),
        );
    }
    let (warm_hits, warm_misses, warm_evictions) =
        (cache.hits(), cache.misses(), cache.evictions());
    let out = lines
        .iter()
        .enumerate()
        .map(|(id, line)| {
            tr.set_request(id as u32);
            tr.enter("request");
            let r = answer_line(line, &cfg, &cache, tr, layers);
            tr.exit();
            r
        })
        .collect();
    layers.cache_hits += cache.hits() - warm_hits;
    layers.cache_misses += cache.misses() - warm_misses;
    layers.cache_evictions += cache.evictions() - warm_evictions;
    out
}

fn answer_line(
    line: &str,
    cfg: &EngineConfig,
    cache: &ScheduleCache,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<Served, String> {
    let start = Instant::now();
    let req = tr.span("request.parse", || parse_request(line))?;
    let dag = tr.span("ir.dag", || DepDag::build(&req.block));
    let ctx = tr.span("core.ctx", || {
        SchedContext::new(&req.block, &dag, &req.machine)
    });
    let form = tr.span("canon", || canonicalize(&ctx));
    let nodes = req.budget(cfg.default_nodes, start).nodes.max(1);

    let mut answer = None;
    if let Some(entry) = tr.span("cache.get", || cache.get(&form.key, nodes)) {
        answer = tr.span("cache.translate", || translate_hit(&ctx, &form, &entry));
        if answer.is_none() {
            cache.remove(&form.key);
        }
    }
    let answer = match answer {
        Some(a) => a,
        None => {
            let a = escalate(&ctx, cfg, nodes, tr, layers);
            let entry = cache_entry(&form, &a, nodes);
            tr.span("cache.insert", || cache.insert(form.key, entry));
            a
        }
    };
    let rendered = tr.span("json.render", || {
        response_json(req.id, &answer, start.elapsed().as_micros() as u64, None).to_compact()
    });
    std::hint::black_box(rendered);
    Ok(Served {
        nops: answer.nops,
        optimal: answer.optimal,
        tier: answer.tier.name().to_string(),
    })
}

fn from_search(out: &pipesched_core::SearchOutcome, tier: Tier, omega_calls: u64) -> Answer {
    Answer {
        order: out.order.clone(),
        assignment: out.assignment.clone(),
        etas: out.etas.clone(),
        nops: out.nops,
        optimal: out.optimal,
        cache_hit: false,
        tier,
        backend: Backend::Bnb,
        omega_calls,
        deadline_hit: out.stats.deadline_hit,
        proof_digest: None,
    }
}

fn windowed_answer(
    ctx: &SchedContext<'_>,
    order: &[TupleId],
    optimal: bool,
    omega_calls: u64,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Answer {
    let (etas, nops) = tr.span("timing.eval", || evaluate_schedule(ctx, order));
    layers.tuples_timed += order.len() as u64;
    Answer {
        order: order.to_vec(),
        assignment: ctx.sigma.clone(),
        etas,
        nops,
        optimal,
        cache_hit: false,
        tier: Tier::Windowed,
        backend: Backend::Bnb,
        omega_calls,
        deadline_hit: false,
        proof_digest: None,
    }
}

/// The engine's tier cascade on a cache miss (serial branch-and-bound
/// backend, no deadline, no proving — the serving defaults).
fn escalate(
    ctx: &SchedContext<'_>,
    cfg: &EngineConfig,
    nodes: u64,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Answer {
    let list_cfg = SearchConfig {
        lambda: 1,
        ..SearchConfig::default()
    };
    let list = tr.span("list", || search(ctx, &list_cfg));
    layers.list_calls += 1;
    if list.optimal {
        layers.list_proved += 1;
        return from_search(&list, Tier::List, 0);
    }
    let mut omega_spent = list.stats.omega_calls;

    let windowed = if ctx.len() > cfg.window && nodes > 1 {
        let w_nodes = (nodes / cfg.windowed_share).max(1);
        let w = tr.span("windowed", || {
            windowed_schedule_bounded(ctx, cfg.window, w_nodes, None)
        });
        layers.windowed_calls += 1;
        omega_spent += w.stats.omega_calls;
        Some(w)
    } else {
        None
    };
    let global_lb = tr.span("bounds.lb", || global_lower_bound(ctx));
    if let Some(w) = &windowed {
        if w.nops <= global_lb {
            layers.windowed_proved += 1;
            return windowed_answer(ctx, &w.order, true, omega_spent, tr, layers);
        }
    }

    let bnb_cfg = SearchConfig {
        lambda: nodes.saturating_sub(omega_spent).max(1),
        ..SearchConfig::default()
    };
    let bnb = tr.span("bnb", || search(ctx, &bnb_cfg));
    layers.search(&bnb.stats);
    omega_spent += bnb.stats.omega_calls;
    let answer = from_search(&bnb, Tier::Bnb, omega_spent);
    if let Some(w) = windowed {
        if !answer.optimal && w.nops < answer.nops {
            return windowed_answer(ctx, &w.order, false, answer.omega_calls, tr, layers);
        }
    }
    answer
}

/// Replay a cached entry on this block: map canonical indices back
/// through the block's permutation and re-time it; the padding must match
/// the stored one exactly.
fn translate_hit(ctx: &SchedContext<'_>, form: &CanonForm, entry: &CacheEntry) -> Option<Answer> {
    let n = ctx.len();
    if entry.order_c.len() != n {
        return None;
    }
    let order: Vec<TupleId> = entry
        .order_c
        .iter()
        .map(|&c| form.perm.get(c as usize).copied())
        .collect::<Option<_>>()?;
    let pipes = ctx.machine.pipeline_count();
    let mut assignment: Vec<Option<PipelineId>> = vec![None; n];
    for (c, &a) in entry.assignment_c.iter().enumerate() {
        assignment[form.perm.get(c)?.index()] = match a {
            u32::MAX => None,
            a if (a as usize) < pipes => Some(PipelineId(a)),
            _ => return None,
        };
    }
    verify_schedule(ctx.block, ctx.dag, &order).ok()?;
    let mut engine = TimingEngine::new(ctx);
    let etas: Vec<u32> = order
        .iter()
        .map(|&t| engine.push(t, assignment[t.index()]))
        .collect();
    if engine.total_nops() != entry.nops || etas != entry.etas {
        return None;
    }
    Some(Answer {
        order,
        assignment,
        etas,
        nops: entry.nops,
        optimal: entry.optimal,
        cache_hit: true,
        tier: Tier::Cache,
        backend: entry.backend,
        omega_calls: 0,
        deadline_hit: false,
        proof_digest: entry.proof_digest,
    })
}

/// An answer in canonical coordinates, as the engine memoizes it.
fn cache_entry(form: &CanonForm, answer: &Answer, nodes: u64) -> CacheEntry {
    let inv = form.inverse();
    let mut assignment_c = vec![u32::MAX; form.perm.len()];
    for (id, a) in answer.assignment.iter().enumerate() {
        assignment_c[inv[id] as usize] = a.map_or(u32::MAX, |p| p.index() as u32);
    }
    CacheEntry {
        order_c: answer.order.iter().map(|t| inv[t.index()]).collect(),
        assignment_c,
        etas: answer.etas.clone(),
        nops: answer.nops,
        optimal: answer.optimal,
        budget_nodes: if answer.optimal { u64::MAX } else { nodes },
        tier: answer.tier,
        backend: answer.backend,
        proof_digest: answer.proof_digest,
    }
}

/// Whether a replayed answer matches the untraced one: NOPs and the
/// optimality claim must be equal, and the tier may differ only between a
/// cache hit and the tier that produced it.
pub fn consistent(replayed: &Served, served: &Served) -> bool {
    replayed.nops == served.nops
        && replayed.optimal == served.optimal
        && (replayed.tier == served.tier || replayed.tier == "cache" || served.tier == "cache")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(nops: u32, optimal: bool, tier: &str) -> Served {
        Served {
            nops,
            optimal,
            tier: tier.to_string(),
        }
    }

    #[test]
    fn consistency_allows_only_cache_tier_swaps() {
        assert!(consistent(&served(3, true, "bnb"), &served(3, true, "bnb")));
        assert!(consistent(
            &served(3, true, "cache"),
            &served(3, true, "windowed")
        ));
        assert!(!consistent(
            &served(3, true, "list"),
            &served(3, true, "bnb")
        ));
        assert!(!consistent(
            &served(3, true, "bnb"),
            &served(4, true, "bnb")
        ));
        assert!(!consistent(
            &served(3, false, "cache"),
            &served(3, true, "bnb")
        ));
    }

    #[test]
    fn replay_matches_the_engine_request_by_request() {
        let spec = crate::gen::StreamSpec {
            requests: 120,
            repeat_frac: 0.5,
            window: 16,
            fresh: true,
            budget_nodes: crate::serve::REQUEST_BUDGET,
        };
        let (requests, _) = crate::gen::stream(21, &spec);
        let engine = pipesched_service::ServiceEngine::new(crate::serve::engine_config(), 8, 8);
        let lines: Vec<&str> = requests.iter().map(|r| r.line.as_str()).collect();
        let mut tr = Tracer::new(true);
        let mut layers = Layers::default();
        let replayed = run(&lines, &[], 8, &mut tr, &mut layers);
        for (line, rep) in lines.iter().zip(replayed) {
            let req = parse_request(line).expect("generated requests parse");
            let budget = req.budget(engine.config().default_nodes, Instant::now());
            let a = engine.answer(&req.block, &req.machine, budget);
            let got = served(a.nops, a.optimal, a.tier.name());
            assert_eq!(rep.expect("replay answers"), got, "{line}");
        }
        assert!(layers.cache_hits > 0 && layers.cache_evictions > 0);
        assert!(layers.list_calls > 0);
    }
}
