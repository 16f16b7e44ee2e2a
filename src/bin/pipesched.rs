//! `pipesched` — optimal pipeline scheduling from the command line.
//!
//! ```text
//! pipesched <input> [--machine NAME|FILE.json] [--emit WHAT] [--lambda N]
//!                   [--window N] [--parallel] [--threads N] [--no-optimize]
//!                   [--regs N]
//! pipesched lint [INPUT ...] [--machine NAME|FILE] [--json] [--no-optimize]
//!                [--frontend] [--strict]
//! pipesched lint --concurrency [DIR ...] [--json] [--strict]
//! pipesched certify <input> [--machine NAME|FILE] [--lambda N] [--window N]
//!                   [--threads N] [--backend B] [--json] [--no-optimize]
//!
//! The one-shot commands share one option grammar; every exact search
//! they run is one `pipesched_solve::solve` call.
//!
//! <input>      a source file of assignment statements, a tuple file
//!              (first line `;; tuples`), `-` for stdin, or (for lint) a
//!              directory searched recursively for .src/.tuples files
//! --machine    preset name (paper-simulation, paper-table2, deep-pipeline,
//!              functional-units, section2-example, unpipelined) or a JSON
//!              machine description; default paper-simulation
//! --emit       asm | padded | trace | gantt | tuples | dot | stats  (default asm)
//! --lambda     curtail point (default 50000)
//! --window     windowed scheduling with the given window length
//! --threads    branch-and-bound threads (default 1: the serial kernel;
//!              more run the work-stealing pool, 0 means one per CPU)
//! --parallel   the same as --threads 0
//! --backend    bnb (default) | sat | race — the exact engine: the paper's
//!              branch-and-bound, the CDCL SAT portfolio, or both raced and
//!              cross-certified (any disagreement is a hard error)
//! --no-optimize  skip the front-end optimizer
//! --regs       registers available for allocation (default: exactly the
//!              schedule's pressure)
//! ```

use std::io::{Read, Write};
use std::process::ExitCode;

use pipesched::analyze;
use pipesched::core::proof::{Certificate, ProofOutput};
use pipesched::core::{windowed_schedule, Backend, ParallelConfig, SchedContext, SearchConfig};
use pipesched::frontend::{
    compile_unoptimized, lower_with_lines, parse_labeled_program, OptConfig, OptStats,
};
use pipesched::ir::{dot, parse::parse_block, BasicBlock, DepDag};
use pipesched::machine::{config as machine_config, presets, Machine};
use pipesched::regalloc::{allocate, emit, max_pressure};
use pipesched::sim::{pad_schedule, TimingModel, Trace};
use pipesched::solve::{solve, Plan, ProofSink};

/// The option grammar of the one-shot commands (`schedule`, `lint`,
/// `certify`, `prove`, `trace`); each reads the options it needs.
struct Options {
    inputs: Vec<String>,
    machine: String,
    emit: String,
    lambda: u64,
    window: Option<usize>,
    threads: usize,
    optimize: bool,
    regs: Option<usize>,
    json: bool,
    proof: Option<String>,
    backend: Backend,
    /// `lint --frontend`: validate the optimizer transcript and lint the
    /// optimized block too.
    frontend: bool,
    /// `lint --strict`: warnings also fail the exit code.
    strict: bool,
    /// `lint --concurrency`: static lock-order scan over Rust sources
    /// instead of IR linting (inputs become directories to scan).
    concurrency: bool,
    /// `trace --flame`: folded flamegraph stacks.
    flame: bool,
    /// `trace --ndjson`: the raw span dump.
    ndjson: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: pipesched [schedule] <input> [--machine NAME|FILE.json] [--emit asm|padded|trace|gantt|tuples|dot|stats]\n\
         \x20                [--lambda N] [--window N] [--parallel] [--threads N]\n\
         \x20                [--backend bnb|sat|race]\n\
         \x20                [--no-optimize] [--regs N] [--json] [--proof FILE.ndjson]\n\
         \x20      pipesched lint [INPUT|DIR ...] [--machine NAME|FILE] [--json] [--no-optimize]\n\
         \x20                [--frontend] [--strict]\n\
         \x20      pipesched lint --concurrency [DIR ...] [--json] [--strict]\n\
         \x20      pipesched certify <input> [--machine NAME|FILE] [--lambda N] [--window N]\n\
         \x20                [--parallel] [--threads N] [--backend bnb|sat|race] [--json]\n\
         \x20                [--no-optimize] [--proof FILE.ndjson]\n\
         \x20      pipesched prove [INPUT ...] [--machine NAME|FILE] [--lambda N] [--json]\n\
         \x20                [--threads N] [--backend bnb|sat|race] [--no-optimize]\n\
         \x20                [--proof FILE.ndjson]\n\
         \x20      pipesched serve [--workers N] [--nodes N] [--cache N] [--shards N]\n\
         \x20                [--threads N] [--tcp ADDR[:PORT]] [--conns N] [--cache-file FILE]\n\
         \x20                [--metrics] [--trace] [--verify-opt] [--backend bnb|sat|race]\n\
         \x20      pipesched batch <requests.ndjson> [--workers N] [--nodes N] [--cache N]\n\
         \x20                [--threads N] [--check] [--prove] [--require-hits] [--json]\n\
         \x20                [--quiet] [--tcp ADDR[:PORT]] [--verify-opt] [--backend bnb|sat|race]\n\
         \x20      pipesched stats [<requests.ndjson> | --tcp ADDR[:PORT]] [--json | --prom]\n\
         \x20                [--workers N] [--nodes N]\n\
         \x20      pipesched trace <input> [--machine NAME|FILE] [--lambda N] [--no-optimize]\n\
         \x20                [--flame | --ndjson]\n\
         \x20      pipesched flight [<requests.ndjson> | --tcp ADDR[:PORT]] [-n N]\n\
         \x20                [--ndjson | --flame | --dumps] [--workers N] [--nodes N]"
    );
    std::process::exit(2)
}

/// Parse the arguments after the first `skip` (program name, subcommand).
fn parse_options(skip: usize) -> Result<Options, String> {
    let mut opts = Options {
        inputs: Vec::new(),
        machine: "paper-simulation".into(),
        emit: "asm".into(),
        lambda: 50_000,
        window: None,
        threads: 1,
        optimize: true,
        regs: None,
        json: false,
        proof: None,
        backend: Backend::Bnb,
        frontend: false,
        strict: false,
        concurrency: false,
        flame: false,
        ndjson: false,
    };
    let mut args = std::env::args().skip(skip);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} requires a value"));
        match a.as_str() {
            "--machine" => opts.machine = value()?,
            "--emit" => opts.emit = value()?,
            "--lambda" => opts.lambda = value()?.parse().map_err(|e| format!("--lambda: {e}"))?,
            "--window" => {
                let w: usize = value()?.parse().map_err(|e| format!("--window: {e}"))?;
                if w == 0 {
                    return Err("--window must be at least 1".into());
                }
                opts.window = Some(w);
            }
            "--regs" => opts.regs = Some(value()?.parse().map_err(|e| format!("--regs: {e}"))?),
            "--json" => opts.json = true,
            "--proof" => opts.proof = Some(value()?),
            "--parallel" => opts.threads = 0,
            "--threads" => {
                opts.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--backend" => {
                let name = value()?;
                opts.backend = Backend::from_name(&name)
                    .ok_or_else(|| format!("--backend: unknown backend `{name}` (bnb|sat|race)"))?;
            }
            "--no-optimize" => opts.optimize = false,
            "--frontend" => opts.frontend = true,
            "--strict" => opts.strict = true,
            "--concurrency" => opts.concurrency = true,
            "--flame" => opts.flame = true,
            "--ndjson" => opts.ndjson = true,
            "--help" | "-h" => usage(),
            "-" => opts.inputs.push("-".into()),
            other if !other.starts_with('-') => opts.inputs.push(other.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// The single input of a one-input command.
fn single_input(opts: &Options, command: &str) -> Result<String, String> {
    match opts.inputs.as_slice() {
        [input] => Ok(input.clone()),
        [] => Err(format!("{command} needs an input")),
        [_, extra, ..] => Err(format!("unknown argument `{extra}`")),
    }
}

fn load_machine(spec: &str) -> Result<Machine, String> {
    match spec {
        "paper-simulation" => Ok(presets::paper_simulation()),
        "paper-table2" => Ok(presets::table2_example()),
        "deep-pipeline" => Ok(presets::deep_pipeline()),
        "functional-units" => Ok(presets::functional_units()),
        "section2-example" => Ok(presets::section2_example()),
        "unpipelined" => Ok(presets::unpipelined()),
        path if path.ends_with(".json") => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            machine_config::from_json(&text).map_err(|e| e.to_string())
        }
        path if path.ends_with(".mach") => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            pipesched::machine::textfmt::parse(&text).map_err(|e| e.to_string())
        }
        other => Err(format!(
            "unknown machine `{other}` (preset name, .json or .mach file expected)"
        )),
    }
}

/// Read an input argument (`-` for stdin) into a string.
fn read_input(input: &str) -> Result<String, String> {
    if input == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(input).map_err(|e| format!("read {input}: {e}"))
    }
}

/// Read an NDJSON request stream (`-` for stdin) as raw bytes: a line
/// that is not UTF-8 is the server's to answer with an error response,
/// not a reason to refuse the whole file.
fn read_requests(input: &str) -> Result<Vec<u8>, String> {
    if input == "-" {
        let mut buf = Vec::new();
        std::io::stdin()
            .read_to_end(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read(input).map_err(|e| format!("read {input}: {e}"))
    }
}

/// Replay a request file (`-` for stdin) through a fresh default engine
/// and hand the engine back for its stats, metrics or flight record.
fn replay_locally(
    input: &str,
    nodes: u64,
    workers: usize,
) -> Result<pipesched::service::ServiceEngine, String> {
    let text = read_requests(input)?;
    let engine_config = pipesched::service::EngineConfig {
        default_nodes: nodes,
        ..Default::default()
    };
    let engine = pipesched::service::ServiceEngine::new(engine_config, 1024, 8);
    let serve = pipesched::service::ServeConfig { workers };
    pipesched::service::run_batch(&engine, &text, &serve, false, false)
        .map_err(|e| e.to_string())?;
    Ok(engine)
}

/// Optimize under translation validation: every rewrite the optimizer
/// performs must be justified by its witness transcript, or the CLI
/// refuses the block outright with the `A05xx` report.
fn optimize_checked(block: &BasicBlock) -> Result<(BasicBlock, OptStats), String> {
    analyze::optimize_verified(block, &OptConfig::default()).map_err(|rej| rej.to_string())
}

fn load_block_from(input: &str, optimize: bool) -> Result<BasicBlock, String> {
    load_block_with_stats(input, optimize).map(|(block, _)| block)
}

/// [`load_block_from`], additionally returning the optimizer statistics
/// when the front-end optimizer ran (source input with optimization on).
fn load_block_with_stats(
    input: &str,
    optimize: bool,
) -> Result<(BasicBlock, Option<OptStats>), String> {
    let text = read_input(input)?;
    // Tuple files start with a `;; tuples` marker; everything else is
    // source text.
    if text.trim_start().starts_with(";; tuples") {
        return Ok((parse_block(input, &text).map_err(|e| e.to_string())?, None));
    }
    let block = compile_unoptimized(input, &text).map_err(|e| e.to_string())?;
    if optimize {
        let (optimized, stats) = optimize_checked(&block)?;
        Ok((optimized, Some(stats)))
    } else {
        Ok((block, None))
    }
}

fn main() -> ExitCode {
    // `lint` and `certify` are subcommands with their own option grammar;
    // everything else is the original scheduling pipeline.
    let dispatch = match std::env::args().nth(1).as_deref() {
        Some("lint") => run_lint(),
        Some("certify") => run_certify(),
        Some("prove") => run_prove(),
        Some("serve") => run_serve(),
        Some("batch") => run_batch_cmd(),
        Some("stats") => run_stats(),
        Some("trace") => run_trace(),
        Some("flight") => run_flight(),
        _ => run().map(|()| ExitCode::SUCCESS),
    };
    match dispatch {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pipesched: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Print reports (text or a JSON array); exit 1 when any has errors —
/// or, under `--strict`, any warnings.
fn emit_reports(reports: &[analyze::Report], json: bool, strict: bool) -> ExitCode {
    let failed = reports
        .iter()
        .any(|r| r.has_errors() || (strict && r.count(analyze::Severity::Warning) > 0));
    if json {
        let arr =
            pipesched::json::Json::Array(reports.iter().map(analyze::Report::to_json).collect());
        println!("{}", arr.to_pretty());
    } else {
        for r in reports {
            print!("{}", r.render_text());
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Load every block of an input: a tuple file holds one block; labeled
/// source programs compile to one block per region. Optimized blocks go
/// through [`optimize_checked`] (translation validation).
fn load_blocks_from(input: &str, optimize: bool) -> Result<Vec<BasicBlock>, String> {
    let text = read_input(input)?;
    if text.trim_start().starts_with(";; tuples") {
        return Ok(vec![parse_block(input, &text).map_err(|e| e.to_string())?]);
    }
    if optimize {
        let regions = parse_labeled_program(&text).map_err(|e| e.to_string())?;
        regions
            .into_iter()
            .map(|(name, program)| {
                let block = pipesched::frontend::lower(&name, &program);
                optimize_checked(&block).map(|(optimized, _)| optimized)
            })
            .collect()
    } else {
        Ok(vec![
            compile_unoptimized(input, &text).map_err(|e| e.to_string())?
        ])
    }
}

/// Recursively collect `.src` and `.tuples` files under `dir`.
fn collect_source_files(dir: &std::path::Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            collect_source_files(&path, out)?;
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("src") | Some("tuples")
        ) {
            out.push(path.display().to_string());
        }
    }
    Ok(())
}

/// Expand lint inputs: directories become their (sorted) `.src`/`.tuples`
/// files; plain files and `-` pass through.
fn expand_inputs(inputs: &[String]) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for input in inputs {
        let path = std::path::Path::new(input);
        if input != "-" && path.is_dir() {
            let mut files = Vec::new();
            collect_source_files(path, &mut files)?;
            files.sort();
            if files.is_empty() {
                return Err(format!("{input}: no .src or .tuples files found"));
            }
            out.extend(files);
        } else {
            out.push(input.clone());
        }
    }
    Ok(out)
}

/// Line number (1-based) of each tuple row in a `;; tuples` file, for
/// anchoring diagnostics to `file:line`.
fn tuple_line_numbers(text: &str) -> Vec<usize> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| {
            let t = line.trim_start();
            !t.is_empty() && !t.starts_with(";;") && t.contains(':')
        })
        .map(|(i, _)| i + 1)
        .collect()
}

/// Lint one input file: one report per block/region, with diagnostics
/// anchored to `file:line` wherever the source position is known. With
/// optimization on, the optimizer runs under translation validation and
/// a rejected transcript joins the reports; `--frontend` additionally
/// lints the optimized block.
fn lint_input(input: &str, opts: &Options) -> Result<Vec<analyze::Report>, String> {
    let text = read_input(input)?;
    let mut reports = Vec::new();
    if text.trim_start().starts_with(";; tuples") {
        let block = parse_block(input, &text).map_err(|e| e.to_string())?;
        let lines = tuple_line_numbers(&text);
        let mut report = analyze::check_block(&block);
        report.context = format!("{input}: {}", report.context);
        report.annotate_locations(|t| lines.get(t.index()).map(|l| format!("{input}:{l}")));
        reports.push(report);
        return Ok(reports);
    }
    let regions = parse_labeled_program(&text).map_err(|e| e.to_string())?;
    for (name, program) in regions {
        let (block, lines) = lower_with_lines(&name, &program);
        let mut report = analyze::check_block(&block);
        report.context = format!("{input}: {}", report.context);
        report.annotate_locations(|t| {
            lines
                .get(t.index())
                .filter(|&&l| l != 0)
                .map(|l| format!("{input}:{l}"))
        });
        reports.push(report);
        if opts.optimize {
            match analyze::optimize_verified(&block, &OptConfig::default()) {
                Ok((optimized, _)) => {
                    if opts.frontend {
                        let mut opt_report = analyze::check_block(&optimized);
                        opt_report.context = format!("{input}: optimized {}", opt_report.context);
                        reports.push(opt_report);
                    }
                }
                Err(rej) => {
                    let mut report = rej.report;
                    report.context = format!("{input}: {}", report.context);
                    reports.push(report);
                }
            }
        }
    }
    Ok(reports)
}

/// `pipesched lint --concurrency`: the static lock-order scan from
/// `pipesched-check` over Rust sources (default: this workspace's own
/// `crates/` and `src/`). Every observed `held -> acquired` edge is
/// advisory `A0707` context; a cycle in the edge graph is an `A0702`
/// error. The scan keys locks by field name, so it over-approximates —
/// it is a reviewable report, not a proof; the model checker's dynamic
/// edges cover the soundness side.
fn concurrency_report(inputs: &[String]) -> analyze::Report {
    let roots: Vec<std::path::PathBuf> = if inputs.is_empty() {
        // Sweep every workspace crate except `crates/check`: the checker's
        // sources and harnesses contain deliberately buggy lock-order
        // fixtures (the mutation suite), which would always "fail" here.
        let mut roots: Vec<std::path::PathBuf> = std::fs::read_dir("crates")
            .map(|entries| {
                entries
                    .flatten()
                    .map(|e| e.path())
                    .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "check"))
                    .collect()
            })
            .unwrap_or_default();
        roots.sort();
        roots.push("src".into());
        roots
    } else {
        inputs.iter().map(std::path::PathBuf::from).collect()
    };
    let scan = pipesched::check::lockorder::scan_paths(&roots);
    let mut report = analyze::Report::new(format!(
        "concurrency: lock order over {} file(s), {} lock site(s)",
        scan.files, scan.sites
    ));
    for edge in &scan.edges {
        report.push(
            analyze::Diagnostic::new(
                analyze::DiagCode::LockOrderEdge,
                format!("`{}` acquired while holding `{}`", edge.acquired, edge.held),
            )
            .at_location(format!("{}:{}", edge.file, edge.line)),
        );
    }
    for cycle in &scan.cycles {
        report.push(
            analyze::Diagnostic::new(
                analyze::DiagCode::LockOrderCycle,
                format!("inconsistent acquisition order: {}", cycle.join(" -> ")),
            )
            .with_hint("acquire these locks in one global order everywhere"),
        );
    }
    report
}

/// `pipesched lint`: machine-description lints plus IR checks per input.
/// Inputs may be files, directories (searched recursively for `.src` and
/// `.tuples`), or `-`; each block gets its own report. With
/// `--concurrency`, runs the lock-order source scan instead.
fn run_lint() -> Result<ExitCode, String> {
    let opts = parse_options(2)?;
    if opts.concurrency {
        let report = concurrency_report(&opts.inputs);
        return Ok(emit_reports(&[report], opts.json, opts.strict));
    }
    let machine = load_machine(&opts.machine)?;
    let mut reports = vec![analyze::check_machine(&machine)];
    for input in &expand_inputs(&opts.inputs)? {
        reports.extend(lint_input(input, &opts)?);
    }
    Ok(emit_reports(&reports, opts.json, opts.strict))
}

/// `pipesched certify`: schedule each input, certify the result against
/// the independent re-derivation, and cross-check all schedulers.
fn run_certify() -> Result<ExitCode, String> {
    let opts = parse_options(2)?;
    if opts.inputs.is_empty() {
        return Err("certify needs at least one input".into());
    }
    if opts.proof.is_some() && opts.window.is_some() {
        return Err("--proof requires the branch-and-bound (drop --window)".into());
    }
    let machine = load_machine(&opts.machine)?;
    let mut reports = Vec::new();
    let blocks: Vec<BasicBlock> = opts
        .inputs
        .iter()
        .map(|input| load_blocks_from(input, opts.optimize))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();
    if opts.proof.is_some() && blocks.len() != 1 {
        return Err("--proof expects exactly one block".into());
    }
    for block in &blocks {
        let dag = DepDag::build(block);
        let ctx = SchedContext::new(block, &dag, &machine);
        let (cert, proof) = if let Some(window) = opts.window {
            let w = windowed_schedule(&ctx, window, opts.lambda);
            let claim = analyze::Claim {
                order: &w.order,
                etas: Some(&w.etas),
                nops: Some(w.nops),
                ..analyze::Claim::default()
            };
            (analyze::certify::certify(block, &machine, claim), None)
        } else {
            let plan = Plan {
                search: SearchConfig::with_lambda(opts.lambda),
                parallel: ParallelConfig::with_threads(opts.threads),
                backend: opts.backend,
                proof: proof_sink(opts.proof.as_deref())?,
                ..Plan::default()
            };
            let out = solve(&ctx, &plan);
            let a = &out.answer;
            let claim = analyze::Claim {
                order: &a.order,
                assignment: Some(&a.assignment),
                etas: Some(&a.etas),
                nops: Some(a.nops),
            };
            (analyze::certify::certify(block, &machine, claim), out.proof)
        };
        let claimed_nops = cert.derived_nops;
        let mut report = cert.report;
        report.merge(analyze::cross_check(block, &machine, opts.lambda));

        // `--proof FILE`: escalate from certification to an optimality
        // proof — the certificate streamed during the search is read back
        // and replayed through the independent checker; its verdict (and
        // any A04xx rejection) joins the report.
        if let (Some(path), Some(proof)) = (&opts.proof, &proof) {
            let (check, proved) = check_streamed(path, block, &machine, proof)?;
            if let (true, Some(claimed)) = (check.is_certified(), claimed_nops) {
                if claimed != u64::from(proved) {
                    report.push(analyze::Diagnostic::new(
                        analyze::DiagCode::IncumbentRegression,
                        format!(
                            "certified schedule claims μ {claimed} but the \
                                 optimality certificate proves μ {proved}"
                        ),
                    ));
                }
            }
            report.merge(check.report);
        }
        reports.push(report);
    }
    Ok(emit_reports(&reports, opts.json, opts.strict))
}

/// `--proof FILE` as a plan's certificate sink (a buffered NDJSON file
/// stream), or no certificate.
fn proof_sink(path: Option<&str>) -> Result<ProofSink, String> {
    Ok(match path {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            ProofSink::streamed(Box::new(std::io::BufWriter::new(file)))
        }
        None => ProofSink::Off,
    })
}

/// Read back the certificate a search streamed to `path` and check it.
/// Returns the checker's result plus the certificate's claimed μ.
fn check_streamed(
    path: &str,
    block: &BasicBlock,
    machine: &Machine,
    proof: &ProofOutput,
) -> Result<(pipesched::proof::ProofCheck, u32), String> {
    if let Some(e) = &proof.io_error {
        return Err(format!("write {path}: {e}"));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let cert = Certificate::from_ndjson(&text).map_err(|e| format!("{path}: {e}"))?;
    if cert.digest() != proof.digest {
        return Err(format!("{path}: digest mismatch after round trip"));
    }
    Ok((
        pipesched::proof::check_certificate(block, machine, &cert),
        cert.trailer.nops,
    ))
}

/// `pipesched prove`: schedule each input with certificate logging and
/// verify the transcript with the independent checker. Exit failure unless
/// every block comes back `OptimalCertified`.
fn run_prove() -> Result<ExitCode, String> {
    let opts = parse_options(2)?;
    if opts.inputs.is_empty() {
        return Err("prove needs at least one input".into());
    }
    if opts.window.is_some() {
        return Err("prove uses the branch-and-bound (drop --window)".into());
    }
    let machine = load_machine(&opts.machine)?;
    let mut blocks: Vec<(String, BasicBlock)> = Vec::new();
    for input in &opts.inputs {
        for block in load_blocks_from(input, opts.optimize)? {
            let label = if block.name.is_empty() {
                input.clone()
            } else {
                format!("{input}:{}", block.name)
            };
            blocks.push((label, block));
        }
    }
    if opts.proof.is_some() && blocks.len() != 1 {
        return Err("--proof expects exactly one block".into());
    }

    let mut failed = false;
    let mut results = Vec::new();
    for (label, block) in &blocks {
        let dag = DepDag::build(block);
        let ctx = SchedContext::new(block, &dag, &machine);
        let plan = Plan {
            search: SearchConfig::with_lambda(opts.lambda),
            parallel: ParallelConfig::with_threads(opts.threads),
            backend: opts.backend,
            proof: match &opts.proof {
                Some(path) => proof_sink(Some(path))?,
                None => ProofSink::InMemory,
            },
            ..Plan::default()
        };
        let proof = solve(&ctx, &plan)
            .proof
            .ok_or_else(|| format!("{label}: the answer is not proven optimal"))?;
        let (check, digest, events) = match (&opts.proof, &proof.certificate) {
            (Some(path), _) => (check_streamed(path, block, &machine, &proof)?.0, None, None),
            (None, cert) => {
                let cert = cert
                    .as_ref()
                    .expect("an in-memory sink keeps the certificate");
                (
                    pipesched::proof::check_certificate(block, &machine, cert),
                    Some(proof.digest),
                    Some(proof.events),
                )
            }
        };
        let (verdict, nops) = match check.verdict {
            pipesched::proof::ProofVerdict::OptimalCertified { nops } => {
                ("optimal-certified", Some(nops))
            }
            pipesched::proof::ProofVerdict::Rejected => {
                failed = true;
                ("rejected", None)
            }
        };
        if opts.json {
            results.push(pipesched::json::json_object![
                ("input", label.as_str()),
                ("machine", machine.name.as_str()),
                ("instructions", block.len()),
                ("verdict", verdict),
                (
                    "nops",
                    nops.map_or(pipesched::json::Json::Null, |n| pipesched::json::Json::Int(
                        i64::from(n)
                    ))
                ),
                (
                    "digest",
                    digest.map_or(pipesched::json::Json::Null, |d| pipesched::json::Json::Str(
                        format!("{d:016x}")
                    ))
                ),
                ("report", check.report.to_json()),
            ]);
        } else {
            match nops {
                Some(n) => {
                    let extra = match (digest, events) {
                        (Some(d), Some(ev)) => format!(" ({ev} events, digest {d:016x})"),
                        _ => String::new(),
                    };
                    println!("{label}: optimal-certified, {n} NOPs{extra}");
                }
                None => {
                    println!("{label}: REJECTED");
                    print!("{}", check.report.render_text());
                }
            }
        }
    }
    if opts.json {
        println!("{}", pipesched::json::Json::Array(results).to_pretty());
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The SAT backend's effort and query trail as a JSON object: solver
/// totals plus one record per descending feasibility query ("μ ≤ N?").
fn solve_stats_json(out: &pipesched::solve::SolveOutcome) -> pipesched::json::Json {
    use pipesched::json::Json;
    let queries: Vec<Json> = out
        .queries
        .iter()
        .map(|q| {
            pipesched::json::json_object![
                ("budget", i64::from(q.budget)),
                ("horizon", i64::from(q.horizon)),
                ("vars", q.vars as i64),
                (
                    "result",
                    match q.result {
                        pipesched::solve::QueryResult::Sat { .. } => "sat",
                        pipesched::solve::QueryResult::Unsat => "unsat",
                        pipesched::solve::QueryResult::Unknown => "unknown",
                    }
                ),
                ("conflicts", q.conflicts as i64),
                ("decisions", q.decisions as i64),
                ("propagations", q.propagations as i64),
            ]
        })
        .collect();
    pipesched::json::json_object![
        ("conflicts", out.stats.conflicts as i64),
        ("decisions", out.stats.decisions as i64),
        ("propagations", out.stats.propagations as i64),
        ("restarts", out.stats.restarts as i64),
        ("learned", out.stats.learned as i64),
        ("queries_sat", i64::from(out.stats.queries_sat)),
        ("queries_unsat", i64::from(out.stats.queries_unsat)),
        ("queries_unknown", i64::from(out.stats.queries_unknown)),
        ("proved_by_bound", out.stats.proved_by_bound),
        ("queries", Json::Array(queries)),
    ]
}

fn run() -> Result<(), String> {
    // `pipesched schedule <input>` is an explicit alias for the default
    // scheduling pipeline.
    let skip = if std::env::args().nth(1).as_deref() == Some("schedule") {
        2
    } else {
        1
    };
    let parsed = parse_options(skip).and_then(|o| Ok((single_input(&o, "schedule")?, o)));
    let (input, opts) = parsed.unwrap_or_else(|e| {
        eprintln!("pipesched: {e}");
        usage()
    });
    let machine = load_machine(&opts.machine)?;
    if opts.window.is_some() && (opts.proof.is_some() || opts.backend != Backend::Bnb) {
        return Err("--window runs the windowed scheduler (drop --proof/--backend)".into());
    }
    let (block, opt_stats) = load_block_with_stats(&input, opts.optimize)?;
    let dag = DepDag::build(&block);
    let ctx = SchedContext::new(&block, &dag, &machine);

    // Schedule: the windowed heuristic, or one exact search through the
    // dispatcher — every path reuses the DAG built above.
    let sched_start = std::time::Instant::now();
    let mut sat_json = pipesched::json::Json::Null;
    let mut race_json = pipesched::json::Json::Null;
    let (order, etas, nops, initial_nops, optimal, stats) = if let Some(window) = opts.window {
        let w = windowed_schedule(&ctx, window, opts.lambda);
        let truncated = w.stats.truncated;
        (w.order, w.etas, w.nops, w.initial_nops, !truncated, w.stats)
    } else {
        // Races run both sides to completion (`cancel_loser` off): the
        // whole point of `--backend race` on the command line (and in CI)
        // is the cross-certification.
        let plan = Plan {
            search: SearchConfig::with_lambda(opts.lambda),
            parallel: ParallelConfig::with_threads(opts.threads),
            backend: opts.backend,
            proof: proof_sink(opts.proof.as_deref())?,
            ..Plan::default()
        };
        let out = solve(&ctx, &plan);
        if let (Some(race), Some(sat)) = (&out.race, &out.sat) {
            let agree = pipesched::solve::audit::cross_check(
                &block,
                race.bnb_optimal,
                race.bnb_nops,
                sat.optimal,
                sat.nops,
            );
            if race.disagreement || agree.has_errors() {
                return Err(format!(
                    "backend disagreement: B&B proved {} NOPs, SAT proved {} NOPs\n{agree}",
                    race.bnb_nops, sat.nops
                ));
            }
            race_json = pipesched::json::json_object![
                ("winner", out.backend.name()),
                ("bnb_micros", race.bnb_micros as i64),
                ("sat_micros", race.sat_micros as i64),
                ("bnb_nops", i64::from(race.bnb_nops)),
                ("sat_nops", i64::from(sat.nops)),
            ];
        }
        if let Some(sat) = &out.sat {
            // The SAT trail is independently audited — full certification
            // of the answer plus model re-checks against a rebuilt
            // encoding. A rejection here is a solver bug, never something
            // to serve.
            let report = pipesched::solve::audit::audit_outcome(&block, &machine, sat);
            if report.has_errors() {
                return Err(format!("SAT backend failed its audit:\n{report}"));
            }
            sat_json = solve_stats_json(sat);
        }
        if let (Some(path), Some(proof)) = (&opts.proof, &out.proof) {
            if let Some(e) = &proof.io_error {
                return Err(format!("write {path}: {e}"));
            }
            eprintln!(
                "; certificate: {} events, digest {:016x} -> {path}",
                proof.events, proof.digest
            );
        }
        let a = out.answer;
        (a.order, a.etas, a.nops, a.initial_nops, a.optimal, a.stats)
    };
    let wall_micros = sched_start.elapsed().as_micros() as u64;
    let omega = stats.omega_calls;

    // Debug builds certify every schedule the CLI emits: the independent
    // re-derivation in `pipesched-analyze` must agree with the scheduler.
    if cfg!(debug_assertions) {
        let cert = analyze::certify::certify(
            &block,
            &machine,
            analyze::Claim {
                order: &order,
                etas: Some(&etas),
                nops: Some(nops),
                assignment: None,
            },
        );
        assert!(
            cert.is_certified(),
            "schedule failed certification:\n{}",
            cert.report
        );
    }

    // `--json`: machine-readable result with wall-clock and search-node
    // stats; replaces the `--emit` listing.
    if opts.json {
        let order_json: Vec<pipesched::json::Json> = order
            .iter()
            .map(|t| pipesched::json::Json::Int(i64::from(t.0) + 1))
            .collect();
        let etas_json: Vec<pipesched::json::Json> = etas
            .iter()
            .map(|&e| pipesched::json::Json::Int(i64::from(e)))
            .collect();
        let doc = pipesched::json::json_object![
            ("input", input.as_str()),
            ("machine", machine.name.as_str()),
            ("instructions", block.len()),
            ("order", pipesched::json::Json::Array(order_json)),
            ("etas", pipesched::json::Json::Array(etas_json)),
            ("nops", nops),
            ("initial_nops", initial_nops),
            ("total_cycles", block.len() as i64 + i64::from(nops)),
            ("optimal", optimal),
            ("backend", opts.backend.name()),
            ("sat", sat_json),
            ("race", race_json),
            ("omega_calls", omega as i64),
            ("nodes_visited", stats.nodes_visited as i64),
            ("pruned_quick", stats.pruned_quick as i64),
            ("pruned_legality", stats.pruned_legality as i64),
            ("pruned_equivalence", stats.pruned_equivalence as i64),
            ("pruned_bound", stats.pruned_bound as i64),
            ("pruned_symmetry", stats.pruned_symmetry as i64),
            ("complete_schedules", stats.complete_schedules as i64),
            ("improvements", stats.improvements as i64),
            ("proved_by_bound", stats.proved_by_bound),
            ("truncated", stats.truncated),
            ("deadline_hit", stats.deadline_hit),
            ("wall_micros", wall_micros as i64),
            (
                "opt",
                match &opt_stats {
                    Some(s) => pipesched::json::json_object![
                        ("iterations", i64::from(s.iterations)),
                        ("tuples_before", s.tuples_before as i64),
                        ("tuples_after", s.tuples_after as i64),
                        ("constant_folds", i64::from(s.constant_folds)),
                        ("cse_hits", i64::from(s.cse_hits)),
                        ("peephole_hits", i64::from(s.peephole_hits)),
                        ("dce_removals", i64::from(s.dce_removals)),
                        ("fold_rewrites", i64::from(s.fold_rewrites)),
                        ("forward_rewrites", i64::from(s.forward_rewrites)),
                        ("cse_merges", i64::from(s.cse_merges)),
                        ("peephole_rewrites", i64::from(s.peephole_rewrites)),
                        ("dce_deletions", i64::from(s.dce_deletions)),
                        ("total_rewrites", i64::from(s.total_rewrites())),
                    ],
                    None => pipesched::json::Json::Null,
                }
            ),
        ];
        println!("{}", doc.to_pretty());
        return Ok(());
    }

    match opts.emit.as_str() {
        "tuples" => {
            println!(";; tuples");
            print!("{block}");
        }
        "dot" => {
            print!("{}", dot::to_dot(&block, &dag));
        }
        "padded" => {
            let padded = pad_schedule(&order, &etas);
            print!("{}", padded.listing(&block));
        }
        "trace" => {
            let tm = TimingModel::new(&block, &dag, &machine);
            let trace = Trace::capture(&tm, &order);
            print!("{}", trace.render(&block));
        }
        "gantt" => {
            let tm = TimingModel::new(&block, &dag, &machine);
            let labels: Vec<String> = machine
                .pipelines()
                .iter()
                .map(|p| p.function.clone())
                .collect();
            let gantt = pipesched::sim::chart(&tm, &order, &labels);
            print!("{}", gantt.render());
        }
        "asm" => {
            let pressure = max_pressure(&block, &order);
            let regs = opts.regs.unwrap_or(pressure);
            let assignment = allocate(&block, &order, regs).map_err(|e| e.to_string())?;
            let program = emit(&block, &order, &etas, &assignment).map_err(|e| e.to_string())?;
            print!("{program}");
        }
        "stats" => {
            let structure = pipesched::ir::BlockStats::collect(&block, &dag);
            println!("machine:            {}", machine.name);
            print!("{structure}");
            println!("initial (list) NOPs:{initial_nops:>6}");
            println!("final NOPs:         {nops:>6}");
            println!(
                "total cycles:       {:>6}",
                block.len() as u64 + u64::from(nops)
            );
            println!("omega calls:        {omega:>6}");
            println!("provably optimal:   {optimal}");
            return Ok(());
        }
        other => return Err(format!("unknown --emit `{other}`")),
    }

    eprintln!(
        "; {} instructions, {} -> {} NOPs, {} Ω calls, {}{}",
        block.len(),
        initial_nops,
        nops,
        omega,
        if optimal { "optimal" } else { "truncated" },
        if opts.backend == Backend::Bnb {
            String::new()
        } else {
            format!(" via {}", opts.backend)
        }
    );
    Ok(())
}

/// `pipesched serve`: answer NDJSON scheduling requests from stdin or TCP.
fn run_serve() -> Result<ExitCode, String> {
    let mut workers = 4usize;
    let mut nodes = pipesched::service::EngineConfig::default().default_nodes;
    let mut cache_capacity = 1024usize;
    let mut shards = 8usize;
    let mut tcp: Option<String> = None;
    let mut conns: Option<u64> = None;
    let mut cache_file: Option<String> = None;
    let mut dump_metrics = false;
    let mut trace = false;
    let mut verify_opt = false;
    let mut backend = Backend::Bnb;
    let mut threads = 1usize;
    let mut flight_on = true;

    let mut args = std::env::args().skip(2);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} requires a value"));
        match a.as_str() {
            "--workers" => workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?,
            "--nodes" => nodes = value()?.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--threads" => threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?,
            "--cache" => cache_capacity = value()?.parse().map_err(|e| format!("--cache: {e}"))?,
            "--shards" => shards = value()?.parse().map_err(|e| format!("--shards: {e}"))?,
            "--tcp" => tcp = Some(value()?),
            "--conns" => conns = Some(value()?.parse().map_err(|e| format!("--conns: {e}"))?),
            "--cache-file" => cache_file = Some(value()?),
            "--metrics" => dump_metrics = true,
            "--trace" => trace = true,
            "--no-flight" => flight_on = false,
            "--verify-opt" => verify_opt = true,
            "--backend" => {
                let name = value()?;
                backend = Backend::from_name(&name)
                    .ok_or_else(|| format!("--backend: unknown backend `{name}` (bnb|sat|race)"))?;
            }
            "--help" | "-h" => usage(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if trace {
        // Every request records a span tree; responses carry `trace_id`
        // and `GET /trace/<id>` on the TCP port serves the dump.
        pipesched::trace::set_enabled(true);
    }
    if flight_on {
        // The flight recorder is on by default: one wide event per
        // request into a bounded ring, frozen as an NDJSON dump when an
        // anomaly fires. Disabled-path cost when opted out is a single
        // relaxed load (`--no-flight`, measured by `repro observe`).
        pipesched::trace::flight::set_enabled(true);
    }

    let mut engine_config = pipesched::service::EngineConfig {
        default_nodes: nodes,
        backend,
        threads,
        ..Default::default()
    };
    engine_config.verify_opt |= verify_opt;
    let engine = pipesched::service::ServiceEngine::new(engine_config, cache_capacity, shards);
    if let Some(path) = &cache_file {
        let loaded = engine.cache().load_from_path(path)?;
        if loaded > 0 {
            eprintln!("; loaded {loaded} cached schedules from {path}");
        }
    }
    let config = pipesched::service::ServeConfig { workers };

    let handled = if let Some(addr) = tcp {
        let listener =
            std::net::TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
        eprintln!(
            "; serving on {}",
            listener.local_addr().map_err(|e| e.to_string())?
        );
        pipesched::service::serve_tcp(&engine, listener, &config, conns)
            .map_err(|e| e.to_string())?
    } else {
        let stdin = std::io::stdin();
        pipesched::service::serve_stream(&engine, stdin.lock(), std::io::stdout(), &config)
            .map_err(|e| e.to_string())?
    };

    if let Some(path) = &cache_file {
        engine.cache().save_to_path(path)?;
        eprintln!(
            "; saved {} cached schedules to {path}",
            engine.cache().len()
        );
    }
    if dump_metrics {
        eprintln!("{}", engine.metrics().to_json().to_pretty());
    }
    eprintln!("; {handled} requests served");
    Ok(ExitCode::SUCCESS)
}

/// `pipesched batch`: replay an NDJSON request file, print throughput, and
/// optionally gate on certification and cache behaviour (the CI smoke).
fn run_batch_cmd() -> Result<ExitCode, String> {
    let mut input: Option<String> = None;
    let mut workers = 4usize;
    let mut nodes = pipesched::service::EngineConfig::default().default_nodes;
    let mut cache_capacity = 1024usize;
    let mut check = false;
    let mut prove = false;
    let mut require_hits = false;
    let mut json = false;
    let mut quiet = false;
    let mut tcp: Option<String> = None;
    let mut verify_opt = false;
    let mut backend = Backend::Bnb;
    let mut threads = 1usize;

    let mut args = std::env::args().skip(2);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} requires a value"));
        match a.as_str() {
            "--workers" => workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?,
            "--nodes" => nodes = value()?.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--threads" => threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?,
            "--cache" => cache_capacity = value()?.parse().map_err(|e| format!("--cache: {e}"))?,
            "--check" => check = true,
            "--prove" => prove = true,
            "--require-hits" => require_hits = true,
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--tcp" => tcp = Some(value()?),
            "--verify-opt" => verify_opt = true,
            "--backend" => {
                let name = value()?;
                backend = Backend::from_name(&name)
                    .ok_or_else(|| format!("--backend: unknown backend `{name}` (bnb|sat|race)"))?;
            }
            "--help" | "-h" => usage(),
            "-" if input.is_none() => input = Some("-".into()),
            other if input.is_none() && !other.starts_with('-') => input = Some(other.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let input = input.ok_or("missing request file")?;
    if prove && !check {
        return Err("--prove requires --check".into());
    }
    let text = read_requests(&input)?;

    let summary = if let Some(addr) = &tcp {
        // Client mode: replay the file against a running `pipesched serve
        // --tcp` and summarize the responses here. Certification (and even
        // proof replay) work client-side — both only need the request and
        // response text — but the search-effort fields stay zero: that
        // work happened in the server process (scrape its /metrics).
        replay_tcp(addr, &text, check, prove)?
    } else {
        let mut engine_config = pipesched::service::EngineConfig {
            default_nodes: nodes,
            prove,
            backend,
            threads,
            ..Default::default()
        };
        engine_config.verify_opt |= verify_opt;
        let engine = pipesched::service::ServiceEngine::new(engine_config, cache_capacity, 8);
        pipesched::service::run_batch(
            &engine,
            &text,
            &pipesched::service::ServeConfig { workers },
            check,
            prove,
        )
        .map_err(|e| e.to_string())?
    };

    if !quiet {
        for line in &summary.responses {
            println!("{line}");
        }
    }
    if json {
        eprintln!("{}", summary.to_json().to_pretty());
    } else {
        eprintln!(
            "; {} requests in {:.1} ms ({:.0} req/s): {} ok, {} errors, {} cache hits, {} truncated{}",
            summary.requests,
            summary.wall_micros as f64 / 1000.0,
            summary.throughput(),
            summary.ok,
            summary.errors,
            summary.cache_hits,
            summary.truncated,
            if check {
                format!(
                    ", {} certified / {} failed{}",
                    summary.certified,
                    summary.certify_failures,
                    if prove {
                        format!(
                            ", {} proved / {} proof failures",
                            summary.proved, summary.proof_failures
                        )
                    } else {
                        String::new()
                    }
                )
            } else {
                String::new()
            }
        );
    }

    // Error responses are answers too (a bad line gets one and the replay
    // goes on); only the gates below fail the run.
    let mut failed = false;
    if check
        && (summary.errors > 0 || summary.certify_failures > 0 || summary.certified != summary.ok)
    {
        eprintln!("pipesched: certification gate failed");
        failed = true;
    }
    if prove && summary.proof_failures > 0 {
        eprintln!("pipesched: proof-replay gate failed");
        failed = true;
    }
    if require_hits && summary.cache_hits == 0 {
        eprintln!("pipesched: expected cache hits, saw none");
        failed = true;
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Stream a request file to a running `pipesched serve --tcp` server and
/// summarize the responses client-side. A writer thread feeds the socket
/// while the main thread drains responses, so large files cannot deadlock
/// on filled kernel buffers.
fn replay_tcp(
    addr: &str,
    text: &[u8],
    check: bool,
    prove: bool,
) -> Result<pipesched::service::BatchSummary, String> {
    let start = std::time::Instant::now();
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let responses_text = std::thread::scope(|scope| -> Result<String, String> {
        let feeder = scope.spawn(move || -> std::io::Result<()> {
            writer.write_all(text)?;
            writer.flush()?;
            writer.shutdown(std::net::Shutdown::Write)
        });
        let mut buf = String::new();
        std::io::BufReader::new(stream)
            .read_to_string(&mut buf)
            .map_err(|e| format!("read {addr}: {e}"))?;
        feeder
            .join()
            .expect("request feeder panicked")
            .map_err(|e| format!("write {addr}: {e}"))?;
        Ok(buf)
    })?;
    let wall_micros = start.elapsed().as_micros() as u64;
    let responses: Vec<String> = responses_text.lines().map(str::to_string).collect();
    // The per-response flag is the only hit signal available remotely.
    let cache_hits = responses
        .iter()
        .filter(|line| {
            pipesched::json::parse(line)
                .ok()
                .and_then(|d| d.get("cache_hit").and_then(pipesched::json::Json::as_bool))
                == Some(true)
        })
        .count() as u64;
    Ok(pipesched::service::summarize_responses(
        &String::from_utf8_lossy(text),
        responses,
        wall_micros,
        cache_hits,
        check,
        prove,
    ))
}

/// One HTTP/1.0 GET against a serving port; returns the response body or
/// an error for any non-200 status.
fn http_get_body(addr: &str, path: &str) -> Result<String, String> {
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: pipesched\r\n\r\n")
        .map_err(|e| format!("write {addr}: {e}"))?;
    let mut text = String::new();
    std::io::BufReader::new(stream)
        .read_to_string(&mut text)
        .map_err(|e| format!("read {addr}: {e}"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("{addr}: server answered `{status}` for {path}"));
    }
    Ok(body.to_string())
}

/// Indented `key: value` rendering of a stats JSON document.
fn render_stats_human(doc: &pipesched::json::Json, indent: usize, out: &mut String) {
    if let pipesched::json::Json::Object(pairs) = doc {
        for (key, value) in pairs {
            match value {
                pipesched::json::Json::Object(_) => {
                    out.push_str(&format!("{}{key}:\n", " ".repeat(indent)));
                    render_stats_human(value, indent + 2, out);
                }
                scalar => {
                    out.push_str(&format!(
                        "{}{key}: {}\n",
                        " ".repeat(indent),
                        scalar.to_compact()
                    ));
                }
            }
        }
    } else {
        out.push_str(&doc.to_compact());
        out.push('\n');
    }
}

/// `pipesched stats`: engine metrics, cache shards, and prune-rule totals —
/// either by replaying a request file locally or by scraping a running
/// server's `/stats` (or `/metrics` with `--prom`) endpoint.
fn run_stats() -> Result<ExitCode, String> {
    let mut input: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut json = false;
    let mut prom = false;
    let mut workers = 4usize;
    let mut nodes = pipesched::service::EngineConfig::default().default_nodes;

    let mut args = std::env::args().skip(2);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} requires a value"));
        match a.as_str() {
            "--tcp" => tcp = Some(value()?),
            "--json" => json = true,
            "--prom" => prom = true,
            "--workers" => workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?,
            "--nodes" => nodes = value()?.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--help" | "-h" => usage(),
            "-" if input.is_none() => input = Some("-".into()),
            other if input.is_none() && !other.starts_with('-') => input = Some(other.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if json && prom {
        return Err("--json and --prom are mutually exclusive".into());
    }

    if let Some(addr) = &tcp {
        if prom {
            print!("{}", http_get_body(addr, "/metrics")?);
        } else {
            let body = http_get_body(addr, "/stats")?;
            if json {
                print!("{body}");
            } else {
                let doc = pipesched::json::parse(&body)
                    .map_err(|e| format!("{addr}: bad /stats JSON: {e}"))?;
                let mut text = String::new();
                render_stats_human(&doc, 0, &mut text);
                print!("{text}");
            }
        }
        return Ok(ExitCode::SUCCESS);
    }

    // Local mode: replay a request file through a fresh engine, then dump
    // that engine's stats.
    let input = input.ok_or("stats needs a request file or --tcp ADDR")?;
    let engine = replay_locally(&input, nodes, workers)?;

    if prom {
        print!("{}", engine.prometheus());
    } else if json {
        println!("{}", engine.stats_json().to_pretty());
    } else {
        let mut out = String::new();
        render_stats_human(&engine.stats_json(), 0, &mut out);
        print!("{out}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `pipesched trace`: schedule one input with tracing and per-depth search
/// profiling enabled, then render the span tree (default), folded
/// flamegraph stacks (`--flame`), or the raw NDJSON dump (`--ndjson`).
fn run_trace() -> Result<ExitCode, String> {
    let opts = parse_options(2)?;
    let input = single_input(&opts, "trace")?;
    let (lambda, optimize, flame, ndjson) = (opts.lambda, opts.optimize, opts.flame, opts.ndjson);
    if flame && ndjson {
        return Err("--flame and --ndjson are mutually exclusive".into());
    }
    let machine = load_machine(&opts.machine)?;

    // Record the whole pipeline under one trace: frontend passes fire
    // their own spans inside `compile`, and the search runs with the
    // per-depth profile attached — the same search (same λ, same default
    // config) the `schedule` pipeline runs, so node counts line up with
    // `pipesched <input> --json`.
    pipesched::trace::set_enabled(true);
    pipesched::trace::begin(&input);
    let outcome = {
        let _root = pipesched::trace::span("pipesched");
        let block = load_block_from(&input, optimize)?;
        let dag = {
            let _s = pipesched::trace::span("dag_build");
            DepDag::build(&block)
        };
        let ctx = SchedContext::new(&block, &dag, &machine);
        let _s = pipesched::trace::span("search");
        let plan = Plan {
            search: SearchConfig::with_lambda(lambda),
            profile: true,
            ..Plan::default()
        };
        let out = solve(&ctx, &plan);
        out.profile
            .iter()
            .for_each(pipesched::service::trace_search_profile);
        out
    };
    let profile = outcome
        .profile
        .as_ref()
        .expect("the plan asked for a profile");
    let trace = pipesched::trace::end().ok_or("trace recorder returned nothing")?;
    pipesched::trace::set_enabled(false);

    if ndjson {
        print!("{}", pipesched::trace::render::to_ndjson(&trace));
        return Ok(ExitCode::SUCCESS);
    }
    if flame {
        // Folded stacks from span self-times, with the search frame broken
        // down further into per-depth frames from the profile.
        let depth_us: Vec<u64> = (0..profile.depths.len())
            .map(|d| profile.self_time_ns(d) / 1_000)
            .collect();
        let depths_total: u64 = depth_us.iter().sum();
        let mut stacks = pipesched::trace::render::folded(&trace);
        for (path, us) in stacks.iter_mut() {
            if path == "pipesched;search" {
                *us = us.saturating_sub(depths_total);
            }
        }
        for (d, us) in depth_us.iter().enumerate() {
            stacks.push((format!("pipesched;search;depth_{d:02}"), *us));
        }
        for (path, us) in &stacks {
            println!("{path} {us}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    print!("{}", pipesched::trace::render::render_text(&trace));
    println!();
    println!("per-depth search profile:");
    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "depth", "nodes", "omega", "quick", "legality", "equiv", "bound", "self_us"
    );
    for (d, s) in profile.depths.iter().enumerate() {
        println!(
            "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            d,
            s.nodes,
            s.omega_calls,
            s.pruned_quick,
            s.pruned_legality,
            s.pruned_equivalence,
            s.pruned_bound,
            profile.self_time_ns(d) / 1_000,
        );
    }
    println!(
        "total: {} nodes, {} omega calls; schedule: {} NOPs, {}",
        profile.total_nodes(),
        outcome.answer.stats.omega_calls,
        outcome.answer.nops,
        if outcome.answer.optimal {
            "optimal"
        } else {
            "truncated"
        }
    );
    Ok(ExitCode::SUCCESS)
}

/// `pipesched flight`: render the wide-event flight recorder — the last N
/// events as a table (default), raw NDJSON, or folded flame stacks, or
/// the frozen anomaly dumps (`--dumps`). Reads a live server over TCP, or
/// replays a request file through a fresh engine with the recorder on.
fn run_flight() -> Result<ExitCode, String> {
    use pipesched::trace::flight;

    let mut input: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut n = 64usize;
    let mut ndjson = false;
    let mut flame = false;
    let mut dumps = false;
    let mut workers = 4usize;
    let mut nodes = pipesched::service::EngineConfig::default().default_nodes;

    let mut args = std::env::args().skip(2);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} requires a value"));
        match a.as_str() {
            "--tcp" => tcp = Some(value()?),
            "-n" | "--events" => n = value()?.parse().map_err(|e| format!("-n: {e}"))?,
            "--ndjson" => ndjson = true,
            "--flame" => flame = true,
            "--dumps" => dumps = true,
            "--workers" => workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?,
            "--nodes" => nodes = value()?.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--help" | "-h" => usage(),
            "-" if input.is_none() => input = Some("-".into()),
            other if input.is_none() && !other.starts_with('-') => input = Some(other.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if (u8::from(ndjson) + u8::from(flame) + u8::from(dumps)) > 1 {
        return Err("--ndjson, --flame, and --dumps are mutually exclusive".into());
    }

    if let Some(addr) = &tcp {
        if dumps {
            print!("{}", http_get_body(addr, "/flight/dumps")?);
            return Ok(ExitCode::SUCCESS);
        }
        let body = http_get_body(addr, &format!("/flight/{n}"))?;
        if ndjson {
            print!("{body}");
            return Ok(ExitCode::SUCCESS);
        }
        // Re-parse the server's NDJSON; the seal survives the round trip,
        // so client-side verification still catches tampering in transit.
        let events: Vec<flight::WideEvent> = body
            .lines()
            .filter_map(flight::WideEvent::from_ndjson)
            .collect();
        let torn = events.iter().filter(|e| !e.verify()).count();
        if flame {
            print!("{}", flight::render_flame(&events));
        } else {
            print!("{}", flight::render_table(&events));
        }
        if torn > 0 {
            eprintln!("; warning: {torn} event(s) failed their self-checksum");
        }
        return Ok(ExitCode::SUCCESS);
    }

    // Local mode: replay a request file with the recorder enabled, then
    // render what it captured.
    let input = input.ok_or("flight needs a request file or --tcp ADDR")?;
    flight::set_enabled(true);
    flight::reset();
    replay_locally(&input, nodes, workers)?;
    flight::set_enabled(false);

    if dumps {
        for d in flight::dumps() {
            print!("{}", d.to_ndjson());
        }
        return Ok(ExitCode::SUCCESS);
    }
    let events = flight::recent(n);
    if ndjson {
        print!("{}", flight::to_ndjson(&events));
    } else if flame {
        print!("{}", flight::render_flame(&events));
    } else {
        print!("{}", flight::render_table(&events));
    }
    Ok(ExitCode::SUCCESS)
}
