//! `serve-mixed` and `serve-hot`: open-loop NDJSON serving through
//! `serve_stream` with the flight recorder on and program tracing off
//! (`pipesched serve`'s defaults).

use std::collections::HashMap;

use pipesched_ir::{BasicBlock, TupleId};
use pipesched_json::Json;
use pipesched_machine::{Machine, PipelineId};
use pipesched_service::{Budget, EngineConfig, ServiceEngine};

use crate::gen::{Request, StreamSpec};
use crate::loadgen;
use crate::report::RunReport;
use crate::stats::{median, min_rows, Summary};

/// Worker threads (the host's two cores).
pub const WORKERS: usize = 2;

/// The p99 latency limit a ladder step must meet, milliseconds.
pub const P99_LIMIT_MS: f64 = 25.0;

/// A run is invalid when the generator's p99 lateness exceeds this.
pub const LATE_LIMIT_MS: f64 = 5.0;

/// Identical open-loop replays of every phase. A request's latency is its
/// least over them: host preemption only ever adds latency (on a shared
/// 2-vCPU host a running thread loses about 2% of its time to stalls of up
/// to 5 ms), while a queue the program builds forms in every replay.
pub const REPS: usize = 5;

/// Run length the request counts below are sized for; other `--seconds`
/// scale them.
pub const REFERENCE_SECONDS: f64 = 20.0;

/// Ω-call budget the serving requests ask for: a quarter of the engine's
/// default. A search that cannot finish then costs about 2.5 ms instead of
/// 10 ms, so the open loop's tail comes from many such requests, not from
/// whether two 10-ms searches happen to overlap on both workers in a run.
pub const REQUEST_BUDGET: u64 = 12_500;

/// One serving workload's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    pub name: &'static str,
    pub repeat_frac: f64,
    /// Repeats draw from the most recent `window` distinct shapes (the
    /// first `window` corpus blocks when `fresh` is false).
    pub window: usize,
    /// Fresh corpus blocks among the repeats; otherwise every request
    /// repeats a shape warmed through the engine during set-up, and every
    /// phase is served from that engine (else each replay starts cold).
    pub fresh: bool,
    pub cache_capacity: usize,
    /// Nominal offered rate (req/s) and the requests served at it.
    pub rate: f64,
    pub nominal_requests: usize,
    /// Fixed rate ladder (req/s), ascending, and requests per step.
    pub ladder: &'static [f64],
    pub step_requests: usize,
}

pub const MIXED: Profile = Profile {
    name: "serve-mixed",
    repeat_frac: 0.5,
    window: 1024,
    fresh: true,
    cache_capacity: 512,
    rate: 2000.0,
    nominal_requests: 4800,
    ladder: &[
        6000.0, 7000.0, 8000.0, 9000.0, 10_000.0, 11_000.0, 12_000.0, 13_000.0, 14_000.0,
    ],
    step_requests: 1200,
};

pub const HOT: Profile = Profile {
    name: "serve-hot",
    repeat_frac: 1.0,
    window: 2000,
    fresh: false,
    cache_capacity: 4096,
    rate: 10_000.0,
    nominal_requests: 20_000,
    ladder: &[
        24_000.0, 28_000.0, 32_000.0, 36_000.0, 40_000.0, 44_000.0, 48_000.0,
    ],
    step_requests: 5000,
};

/// Request counts for a run of `seconds`: nominal phase and ladder step.
/// Never below 1 000, so every p99 has ten samples beyond it.
pub fn sizes(p: &Profile, seconds: f64) -> (usize, usize) {
    let scale = |n: usize| ((n as f64 * seconds / REFERENCE_SECONDS).round() as usize).max(1000);
    (scale(p.nominal_requests), scale(p.step_requests))
}

pub struct Setup {
    pub profile: Profile,
    pub nominal: usize,
    pub step: usize,
    pub requests: Vec<Request>,
    pub blocks: Vec<BasicBlock>,
    pub machine: Machine,
    /// The warmed engine of a profile without fresh blocks.
    pub engine: Option<ServiceEngine>,
}

pub fn engine_config() -> EngineConfig {
    EngineConfig {
        // Pinned off rather than read from the environment.
        verify_opt: false,
        ..EngineConfig::default()
    }
}

pub fn setup(p: &Profile, seed: u64, seconds: f64) -> Setup {
    let (nominal, step) = sizes(p, seconds);
    let spec = StreamSpec {
        requests: nominal + p.ladder.len() * step,
        repeat_frac: p.repeat_frac,
        window: p.window,
        fresh: p.fresh,
        budget_nodes: REQUEST_BUDGET,
    };
    let (requests, blocks) = crate::gen::stream(seed, &spec);
    let machine = crate::machine();
    let engine = (!p.fresh).then(|| {
        let config = engine_config();
        let engine = ServiceEngine::new(config, p.cache_capacity, 8);
        let budget = Budget {
            nodes: REQUEST_BUDGET,
            deadline: None,
        };
        for block in &blocks {
            std::hint::black_box(engine.answer(block, &machine, budget));
        }
        engine
    });
    Setup {
        profile: *p,
        nominal,
        step,
        requests,
        blocks,
        machine,
        engine,
    }
}

/// A served answer as the client saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Served {
    pub nops: u32,
    pub optimal: bool,
    pub tier: String,
}

/// Schedules already validated, by shape: a repeat's identical claim on
/// the same block needs no second simulator run.
type Validated =
    HashMap<(usize, Vec<TupleId>, Vec<Option<PipelineId>>, Vec<u32>, u32), Result<(), String>>;

/// Parse and re-validate one response against the block its request
/// sent. Returns the answer and the response's service time (`micros`).
fn check_response(
    line: &str,
    id: usize,
    s: &Setup,
    validated: &mut Validated,
) -> Result<(Served, f64), String> {
    let shape = s.requests[id].shape;
    let block = &s.blocks[shape];
    let doc = pipesched_json::parse(line).map_err(|e| format!("response is not JSON: {e}"))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error response: {line}"));
    }
    if doc.get("id").and_then(Json::as_i64) != Some(id as i64) {
        return Err("response id does not match its request".into());
    }
    let ints = |key: &str| -> Result<Vec<Option<i64>>, String> {
        Ok(doc
            .get(key)
            .and_then(Json::as_array)
            .ok_or(format!("missing `{key}`"))?
            .iter()
            .map(Json::as_i64)
            .collect())
    };
    let order: Vec<TupleId> = ints("order")?
        .into_iter()
        .map(|v| match v {
            Some(k) if k >= 1 && (k as usize) <= block.len() => Ok(TupleId(k as u32 - 1)),
            _ => Err("bad tuple in `order`".to_string()),
        })
        .collect::<Result<_, _>>()?;
    let etas: Vec<u32> = ints("etas")?
        .into_iter()
        .map(|v| {
            v.and_then(|e| u32::try_from(e).ok())
                .ok_or("bad eta".to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut assignment: Vec<Option<PipelineId>> = vec![None; block.len()];
    for (t, p) in order.iter().zip(ints("pipes")?) {
        assignment[t.index()] = p.and_then(|p| u32::try_from(p).ok()).map(PipelineId);
    }
    let int = |key: &str| {
        doc.get(key)
            .and_then(Json::as_i64)
            .ok_or(format!("missing `{key}`"))
    };
    let nops = u32::try_from(int("nops")?).map_err(|e| format!("bad `nops`: {e}"))?;
    let micros = int("micros")? as f64;
    let optimal = doc
        .get("optimal")
        .and_then(Json::as_bool)
        .ok_or("missing `optimal`")?;
    let tier = doc
        .get("tier")
        .and_then(Json::as_str)
        .ok_or("missing `tier`")?
        .to_string();
    validated
        .entry((shape, order, assignment, etas, nops))
        .or_insert_with_key(|(_, order, assignment, etas, nops)| {
            crate::check::schedule(block, &s.machine, order, Some(assignment), etas, *nops)
        })
        .clone()?;
    Ok((
        Served {
            nops,
            optimal,
            tier,
        },
        micros,
    ))
}

/// One phase of a run: requests `first..first + count` offered at `rate`.
#[derive(Debug, Clone, Copy)]
struct Phase {
    first: usize,
    count: usize,
    rate: f64,
}

/// One open-loop replay of a phase, its responses checked.
struct Replay {
    /// Per request: due-to-response latency (∞ for a failed request),
    /// generator lateness, service time.
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    service_us: Vec<f64>,
    backlog_max: f64,
    answers: Vec<Option<Served>>,
}

/// A phase measured over [`REPS`] identical open-loop replays.
struct Measured {
    /// Per request, least over the replays: due-to-response latency (∞
    /// when every replay failed it), generator lateness, service time.
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    service_us: Vec<f64>,
    /// Median over replays of the largest backlog.
    backlog_max: f64,
    /// Each replay's checked answers.
    answers: Vec<Vec<Option<Served>>>,
}

impl Measured {
    fn of(replays: Vec<Replay>) -> Measured {
        let rows = |f: fn(&Replay) -> &Vec<f64>| -> Vec<Vec<f64>> {
            replays.iter().map(|r| f(r).clone()).collect()
        };
        Measured {
            latency_ms: min_rows(&rows(|r| &r.latency_ms)),
            late_ms: min_rows(&rows(|r| &r.late_ms)),
            service_us: min_rows(&rows(|r| &r.service_us)),
            backlog_max: median(&replays.iter().map(|r| r.backlog_max).collect::<Vec<_>>()),
            answers: replays.into_iter().map(|r| r.answers).collect(),
        }
    }
}

/// Serve one phase once and check every response against the block its
/// request sent.
fn replay_once(s: &Setup, ph: Phase, validated: &mut Validated, report: &mut RunReport) -> Replay {
    let p = &s.profile;
    let lines: Vec<&str> = s.requests[ph.first..ph.first + ph.count]
        .iter()
        .map(|r| r.line.as_str())
        .collect();
    let cold;
    let engine = match &s.engine {
        Some(warm) => warm,
        None => {
            cold = ServiceEngine::new(engine_config(), p.cache_capacity, 8);
            &cold
        }
    };
    let run = loadgen::run(engine, &lines, ph.rate, WORKERS);
    report.attempted += ph.count as u64;
    // Output checks, outside the timed phase.
    let mut out = Replay {
        latency_ms: Vec::with_capacity(ph.count),
        late_ms: run.late_ms,
        service_us: Vec::with_capacity(ph.count),
        backlog_max: run.backlog_max as f64,
        answers: Vec::with_capacity(ph.count),
    };
    for i in 0..ph.count {
        let id = ph.first + i;
        let result = match run.responses.get(i) {
            None => Err("no response".to_string()),
            Some(line) => check_response(line, id, s, validated),
        };
        match result {
            Ok((a, micros)) => {
                out.latency_ms.push(run.latency_ms[i]);
                out.service_us.push(micros);
                out.answers.push(Some(a));
            }
            Err(e) => {
                report.fail(&format!("{} request {id}: {e}", p.name));
                // A failed request misses any latency limit.
                out.latency_ms.push(f64::INFINITY);
                out.service_us.push(f64::INFINITY);
                out.answers.push(None);
            }
        }
    }
    out
}

/// Serve every phase [`REPS`] times. The replays rotate through the
/// phases, so the replays of one phase lie seconds apart rather than back
/// to back: a slow spell of the host lasts about a second.
fn measure(s: &Setup, phases: &[Phase], report: &mut RunReport) -> Vec<Measured> {
    let mut validated = Validated::new();
    let mut replays: Vec<Vec<Replay>> = phases.iter().map(|_| Vec::with_capacity(REPS)).collect();
    for _ in 0..REPS {
        for (ph, done) in phases.iter().zip(&mut replays) {
            done.push(replay_once(s, *ph, &mut validated, report));
        }
    }
    replays.into_iter().map(Measured::of).collect()
}

/// How close a ladder step came to failing: the larger of its p99 over
/// the limit and its backlog growth over a fifth of the limit, where the
/// growth is how much longer (median) the last tenth of its requests
/// waited than the first tenth. A step passes when this is at most 1.
fn step_load(latency_ms: &[f64], p99: f64) -> f64 {
    let tenth = (latency_ms.len() / 10).max(1);
    let head = median(&latency_ms[..tenth]);
    let tail = median(&latency_ms[latency_ms.len() - tenth..]);
    (p99 / P99_LIMIT_MS).max((tail - head) / (P99_LIMIT_MS / 5.0))
}

/// Capacity from the ladder: the highest passing step, interpolated
/// towards the failing step above it by where the load crosses 1, so the
/// figure moves continuously with speed. Steps are `(rate, load)` in
/// ascending rate; 0 when none passed.
pub fn capacity(steps: &[(f64, f64)]) -> f64 {
    let Some(top) = steps.iter().rposition(|&(_, load)| load <= 1.0) else {
        return 0.0;
    };
    let (rate, load) = steps[top];
    match steps.get(top + 1) {
        Some(&(next_rate, next_load)) => {
            let frac = ((1.0 - load) / (next_load - load)).clamp(0.0, 1.0);
            rate + frac * (next_rate - rate)
        }
        None => rate,
    }
}

/// The timed run: the nominal phase, then every step of the rate ladder. Returns every replay's answers to the nominal phase (for
/// the traced replay's consistency check).
pub fn run(s: &Setup, report: &mut RunReport) -> Vec<Vec<Option<Served>>> {
    let p = &s.profile;
    let mut phases = vec![Phase {
        first: 0,
        count: s.nominal,
        rate: p.rate,
    }];
    phases.extend(p.ladder.iter().enumerate().map(|(i, &rate)| Phase {
        first: s.nominal + i * s.step,
        count: s.step,
        rate,
    }));
    let mut measured = measure(s, &phases, report).into_iter();
    let nominal = measured.next().expect("the nominal phase is measured");

    // Answer quality covers every phase's first replay.
    let mut answers: Vec<Option<Served>> = nominal.answers[0].clone();
    let mut steps = Vec::new();
    for (&rate, m) in p.ladder.iter().zip(measured) {
        answers.extend(m.answers[0].iter().cloned());
        let lat = Summary::of(m.latency_ms.clone());
        let load = step_load(&m.latency_ms, lat.p99);
        report.note(format!(
            "{}: ladder {rate} req/s: {}, backlog max {}, load {load:.3} -> {}",
            p.name,
            lat.describe("ms"),
            m.backlog_max,
            if load <= 1.0 { "pass" } else { "fail" }
        ));
        steps.push((rate, load));
    }

    let lat = Summary::of(nominal.latency_ms.clone());
    let late = Summary::of(nominal.late_ms.clone());
    let service = Summary::of(nominal.service_us.clone());
    let wait_ms: Vec<f64> = nominal
        .latency_ms
        .iter()
        .zip(&nominal.service_us)
        .map(|(ms, us)| (ms - us / 1e3).max(0.0))
        .collect();
    let wait = Summary::of(wait_ms);
    report.note(format!(
        "{}: nominal {} req/s, latency {}",
        p.name,
        p.rate,
        lat.describe("ms")
    ));
    report.note(format!(
        "{}: generator lateness {}",
        p.name,
        late.describe("ms")
    ));
    report.note(format!(
        "{}: service time {}",
        p.name,
        service.describe("us")
    ));
    report.note(format!(
        "{}: queue wait + reorder hold {}",
        p.name,
        wait.describe("ms")
    ));
    if late.p99 > LATE_LIMIT_MS {
        report.valid = false;
        report.note(format!(
            "INVALID: generator p99 lateness {:.3} ms exceeds {LATE_LIMIT_MS} ms",
            late.p99
        ));
    }

    let answered: Vec<&Served> = answers.iter().flatten().collect();
    let optimal = answered.iter().filter(|a| a.optimal).count();
    let nops: u64 = answered.iter().map(|a| u64::from(a.nops)).sum();
    // Service-time capacity: requests the workers could answer per second
    // if they never idled, from each nominal response's own `micros`.
    let n = nominal.service_us.len();
    let busy_s: f64 = nominal.service_us.iter().sum::<f64>() / 1e6;
    report.e2e("blocks_per_s", WORKERS as f64 * n as f64 / busy_s, n);
    report.e2e(
        "pct_optimal",
        100.0 * optimal as f64 / answers.len() as f64,
        answers.len(),
    );
    report.e2e(
        "mean_nops",
        nops as f64 / answered.len().max(1) as f64,
        answered.len(),
    );
    report.e2e("lat_p50_ms", lat.p50, lat.n);
    report.e2e("lat_p99_ms", lat.p99, lat.n);
    let cap = capacity(&steps);
    report.note(format!(
        "{}: capacity {cap:.1} req/s at p99 <= {P99_LIMIT_MS} ms",
        p.name
    ));
    report.layer("serve.capacity_rps", cap, steps.len());

    report.layer("serve.service_us_p50", service.p50, service.n);
    report.layer("serve.service_us_p99", service.p99, service.n);
    report.layer("serve.wait_ms_p50", wait.p50, wait.n);
    report.layer("serve.wait_ms_p99", wait.p99, wait.n);
    report.layer("serve.backlog_max", nominal.backlog_max, REPS);
    report.layer("loadgen.late_p99_ms", late.p99, late.n);
    nominal.answers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_ascend_and_every_phase_has_a_p99() {
        for p in [MIXED, HOT] {
            assert!(
                p.ladder.windows(2).all(|w| w[0] < w[1]),
                "{} ladder ascends",
                p.name
            );
            assert!(
                p.ladder[0] > p.rate,
                "{} ladder starts above the nominal rate",
                p.name
            );
            for seconds in [1.0, REFERENCE_SECONDS, 60.0] {
                let (nominal, step) = sizes(&p, seconds);
                assert!(crate::stats::beyond(nominal.min(step), 99.0) >= 10);
            }
        }
        assert_eq!(sizes(&MIXED, REFERENCE_SECONDS), (4800, 1200));
        assert_eq!(sizes(&MIXED, 2.0 * REFERENCE_SECONDS), (9600, 2400));
        assert_eq!(MIXED.repeat_frac, 0.5);
        const {
            assert!(HOT.rate > MIXED.rate, "serve-hot runs at the higher rate");
            assert!(
                MIXED.cache_capacity < MIXED.window,
                "cache below the working set"
            );
            assert!(HOT.cache_capacity >= HOT.window, "hot shapes all fit");
        }
    }

    #[test]
    fn p99_or_growing_backlog_fails_a_step() {
        let flat: Vec<f64> = (0..1000).map(|i| f64::from(i % 7)).collect();
        assert!(step_load(&flat, 6.0) <= 1.0);
        assert!(step_load(&flat, P99_LIMIT_MS + 1.0) > 1.0);
        // Latency climbing 0 → 20 ms: p99 within the limit, backlog not.
        let growing: Vec<f64> = (0..1000).map(|i| f64::from(i) / 50.0).collect();
        assert!(step_load(&growing, 20.0) > 1.0);
    }

    #[test]
    fn capacity_interpolates_between_pass_and_fail() {
        assert_eq!(capacity(&[(1000.0, 0.2), (2000.0, 0.4)]), 2000.0);
        assert_eq!(capacity(&[(1000.0, 1.2)]), 0.0);
        // Load 1 lies 3/4 of the way from 0.4 to 1.2.
        let c = capacity(&[(1000.0, 0.2), (2000.0, 0.4), (3000.0, 1.2)]);
        assert!((c - 2750.0).abs() < 1e-9, "{c}");
        // The highest passing step counts, even above a failing one.
        let c = capacity(&[(1000.0, 1.04), (2000.0, 0.8), (3000.0, 1.6)]);
        assert!((c - 2250.0).abs() < 1e-9, "{c}");
    }
}
