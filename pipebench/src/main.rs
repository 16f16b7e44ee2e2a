//! pipebench: the pipesched benchmark.
//!
//! ```text
//! pipebench --workload <corpus|serve-mixed|serve-hot> --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload from the seed, runs it through the public APIs
//! of `core` and `service` for about `S` seconds, checks every answer with
//! the simulator and the `analyze` certifier, and prints each metric by
//! name with its unit and sample count. With `--trace 1` it then replays
//! the same inputs serially, timing its own calls into each layer (for
//! `corpus` also the `proof`/`solve` verification chain on a subset), and
//! reports the per-layer metrics instead. The last stdout line is the JSON
//! result.

mod check;
mod corpus;
mod gen;
mod layers;
mod loadgen;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;
mod verify;

use std::time::Instant;

use pipesched_machine::Machine;

use layers::Layers;
use report::{RunReport, PER_LAYER};
use spans::Tracer;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

pub const WORKLOADS: [&str; 3] = ["corpus", "serve-mixed", "serve-hot"];

/// The paper's simulation machine (Table 7).
pub fn machine() -> Machine {
    pipesched_machine::presets::paper_simulation()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` ({})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Build the set-up `SETUP_REPS` times; report the median time and keep
/// the last one.
fn timed_setup<S>(report: &mut RunReport, mut make: impl FnMut() -> S) -> S {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(make());
        secs.push(t.elapsed().as_secs_f64());
    }
    report.e2e("setup_s", stats::median(&secs), secs.len());
    last.expect("at least one set-up")
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run a replay bare and traced, alternately, twice each; returns the
/// last traced run's result, spans and counters, and the tracing overhead
/// in percent (fastest traced against fastest bare replay).
fn traced<T>(mut replay: impl FnMut(&mut Tracer, &mut Layers) -> T) -> (T, Tracer, Layers, f64) {
    let (mut bare, mut with) = (f64::INFINITY, f64::INFINITY);
    let mut last = None;
    for _ in 0..2 {
        let t = Instant::now();
        std::hint::black_box(replay(&mut Tracer::new(false), &mut Layers::default()));
        bare = bare.min(t.elapsed().as_secs_f64());
        let mut tr = Tracer::new(true);
        let mut layers = Layers::default();
        let t = Instant::now();
        let out = replay(&mut tr, &mut layers);
        with = with.min(t.elapsed().as_secs_f64());
        last = Some((out, tr, layers));
    }
    let (out, tr, layers) = last.expect("two traced replays ran");
    (out, tr, layers, 100.0 * (with - bare) / bare.max(1e-9))
}

fn finish_trace(
    args: &Args,
    tr: &Tracer,
    layers: &Layers,
    replayed: usize,
    mismatches: u64,
    overhead: f64,
    report: &mut RunReport,
) {
    layers.report(tr.spans(), replayed, mismatches, overhead, report);
    report.note(format!(
        "traced replay: {replayed} requests, {mismatches} answers differ from the untraced run, tracing overhead {overhead:.2}%"
    ));
    if mismatches > 0 {
        report.valid = false;
        report.note("INVALID: the traced replay drifted from the untraced run's answers");
    }
    let dir = std::path::Path::new("pipebench/out");
    let path = dir.join(format!("spans-{}.ndjson", args.workload));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tr.write_ndjson(&mut w)?;
            std::io::Write::flush(&mut w)
        });
    match written {
        Ok(()) => report.note(format!(
            "spans: {} written to {}",
            tr.spans().len(),
            path.display()
        )),
        Err(e) => report.note(format!("spans: could not write {}: {e}", path.display())),
    }
}

fn run_corpus(args: &Args, report: &mut RunReport) {
    let s = timed_setup(report, || corpus::setup(args.seed));
    let answers = corpus::run(&s, args.seconds, report);
    corpus::check_answers(&s, &answers, report);
    if args.trace {
        // The corpus replay also runs the verification chain on a subset,
        // so the proof, analyze and solve layers are measured.
        let subset = verify::subset(&s.blocks);
        let ((replayed, verdicts), tr, layers, overhead) = traced(|tr, l| {
            let replayed = corpus::replay(&s, answers.len(), tr, l);
            let verdicts: Vec<verify::Verdict> = subset
                .iter()
                .enumerate()
                .map(|(k, block)| {
                    tr.set_request((replayed.len() + k) as u32);
                    tr.enter("verify");
                    let v = verify::verdict(block, &s.machine, tr, l);
                    tr.exit();
                    v
                })
                .collect();
            (replayed, verdicts)
        });
        verify::check(&subset, &s.machine, &verdicts, report);
        let mismatches = replayed
            .iter()
            .zip(&answers)
            .filter(|(a, b)| a.nops != b.nops || a.optimal != b.optimal)
            .count() as u64;
        finish_trace(
            args,
            &tr,
            &layers,
            replayed.len(),
            mismatches,
            overhead,
            report,
        );
    }
}

fn run_serve(args: &Args, profile: &serve::Profile, report: &mut RunReport) {
    // `pipesched serve`'s defaults: flight recorder on, tracing off.
    pipesched_trace::flight::set_enabled(true);
    let s = timed_setup(report, || serve::setup(profile, args.seed, args.seconds));
    let served = serve::run(&s, report);
    if args.trace {
        let lines: Vec<&str> = s.requests[..s.nominal]
            .iter()
            .map(|r| r.line.as_str())
            .collect();
        let warm: Vec<String> = match s.engine {
            Some(_) => s
                .blocks
                .iter()
                .enumerate()
                .map(|(i, b)| gen::request_line(i, b, serve::REQUEST_BUDGET))
                .collect(),
            None => Vec::new(),
        };
        let (replayed, tr, layers, overhead) =
            traced(|tr, l| replay::run(&lines, &warm, profile.cache_capacity, tr, l));
        let mut mismatches = 0u64;
        for (id, rep) in replayed.iter().enumerate() {
            let got: Vec<&Option<serve::Served>> =
                served.iter().map(|answers| &answers[id]).collect();
            let same = got.iter().all(|g| match (rep, g) {
                (Ok(r), Some(g)) => replay::consistent(r, g),
                _ => false,
            });
            if !same {
                mismatches += 1;
                if mismatches <= 5 {
                    report.note(format!(
                        "replay mismatch on request {id}: replay {rep:?}, served {got:?}"
                    ));
                }
            }
        }
        finish_trace(
            args,
            &tr,
            &layers,
            replayed.len(),
            mismatches,
            overhead,
            report,
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            eprintln!(
                "usage: pipebench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut report = RunReport::new();
    match args.workload.as_str() {
        "corpus" => run_corpus(&args, &mut report),
        "serve-mixed" => run_serve(&args, &serve::MIXED, &mut report),
        "serve-hot" => run_serve(&args, &serve::HOT, &mut report),
        _ => unreachable!("workload validated by parse_args"),
    }
    report.e2e("peak_rss_mb", peak_rss_mb(), 1);
    // Layers a workload never calls report zero.
    for (name, _) in PER_LAYER {
        if !report.per_layer.iter().any(|m| m.name == name) {
            report.layer(name, 0.0, 0);
        }
    }

    println!(
        "pipebench {} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in &report.notes {
        println!("{line}");
    }
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "fail_frac {fail_frac} ({} failed of {} attempted)",
        report.failed, report.attempted
    );
    for line in report.metric_lines(args.trace) {
        println!("{line}");
    }
    println!("{}", report.result_json(args.trace));
}
