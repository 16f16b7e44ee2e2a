//! The serving front end: a blocking worker pool over NDJSON streams.
//!
//! [`serve_stream`] reads request lines from any `BufRead`, fans them out
//! to a fixed pool of worker threads sharing one [`ServiceEngine`], and
//! writes one response line per request **in input order** (workers finish
//! out of order; a reorder buffer holds completed lines until their turn).
//!
//! [`serve_tcp`] accepts connections on a TCP listener and sniffs the
//! first line: `GET ...` connections are answered as one-shot HTTP
//! (`/metrics` Prometheus text, `/stats` JSON, `/trace/<id>` NDJSON span
//! dumps), anything else runs `serve_stream` over the connection, so
//! `nc host port < requests.ndjson` works as a remote batch interface and
//! `curl` can scrape the same port. A connection that closes without
//! sending a byte is treated as a liveness probe and not counted.
//!
//! When tracing is enabled ([`pipesched_trace::set_enabled`]), every
//! request records a span tree through parse → cache → tier escalation
//! and the response carries its `trace_id`.
//!
//! The vendored `crossbeam` shim has no channels, so the job queue is a
//! mutex + condvar pair from the `pipesched_check::sync` facade —
//! adequate here because each job carries milliseconds of scheduling
//! work, not nanoseconds of queue traffic. Routing through the facade
//! means a `--cfg model` build turns every queue operation into a
//! scheduling point of the deterministic model checker, so the
//! push/pop/shutdown protocol is explorable like the pool's.

use pipesched_check::sync::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::TcpListener;
use std::time::Instant;

use pipesched_trace::flight;

use crate::engine::ServiceEngine;
use crate::request::{error_json, parse_request, response_json};

/// Front-end configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads handling requests concurrently.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { workers: 4 }
    }
}

enum Job {
    Line { seq: u64, line: Vec<u8> },
    Shutdown,
}

struct Queue {
    jobs: Mutex<Vec<Job>>,
    ready: Condvar,
}

impl Queue {
    fn new() -> Self {
        Queue {
            jobs: Mutex::new(Vec::new()),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        self.jobs.lock().push(job);
        self.ready.notify_one();
    }

    fn pop(&self) -> Job {
        let mut jobs = self.jobs.lock();
        loop {
            // FIFO: jobs were pushed in input order, take from the front.
            if !jobs.is_empty() {
                return jobs.remove(0);
            }
            jobs = self.ready.wait(jobs);
        }
    }
}

/// Reorder buffer: responses are written strictly in request order.
struct Reorder<W: Write> {
    out: W,
    next: u64,
    pending: BTreeMap<u64, String>,
}

impl<W: Write> Reorder<W> {
    fn emit(&mut self, seq: u64, line: String) -> std::io::Result<()> {
        self.pending.insert(seq, line);
        while let Some(line) = self.pending.remove(&self.next) {
            self.out.write_all(line.as_bytes())?;
            self.out.write_all(b"\n")?;
            self.out.flush()?;
            self.next += 1;
        }
        Ok(())
    }
}

/// Serve every NDJSON line of `input`, writing ordered responses to
/// `output`. Returns the number of requests handled (including failures).
pub fn serve_stream<R: BufRead, W: Write + Send>(
    engine: &ServiceEngine,
    input: R,
    output: W,
    config: &ServeConfig,
) -> std::io::Result<u64> {
    let workers = config.workers.max(1);
    let queue = Queue::new();
    let sink = Mutex::new(Reorder {
        out: output,
        next: 0,
        pending: BTreeMap::new(),
    });
    let io_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let mut handled = 0u64;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let (seq, line) = match queue.pop() {
                    Job::Shutdown => return,
                    Job::Line { seq, line } => (seq, line),
                };
                let rendered = handle_line(engine, &line);
                let mut sink = sink.lock();
                if let Err(e) = sink.emit(seq, rendered) {
                    io_error.lock().get_or_insert(e);
                    return;
                }
            });
        }

        // Lines are read as bytes: one that is not UTF-8 gets an error
        // response for its sequence number like any other bad request,
        // and the stream keeps going.
        let mut input = input;
        let mut seq = 0u64;
        loop {
            let mut line = Vec::new();
            match input.read_until(b'\n', &mut line) {
                Ok(0) => break,
                Ok(_) => {
                    if line.iter().all(u8::is_ascii_whitespace) {
                        continue;
                    }
                    queue.push(Job::Line { seq, line });
                    seq += 1;
                }
                Err(e) => {
                    io_error.lock().get_or_insert(e);
                    break;
                }
            }
        }
        handled = seq;
        for _ in 0..workers {
            queue.push(Job::Shutdown);
        }
    });

    match io_error.into_inner() {
        Some(e) => Err(e),
        None => Ok(handled),
    }
}

/// Answer one request line (raw bytes, line terminator included or not),
/// returning the rendered response line. When tracing is on, the whole
/// request records one trace (published to the in-process store,
/// fetchable via `GET /trace/<id>`) and the response carries its id.
pub(crate) fn handle_line(engine: &ServiceEngine, line: &[u8]) -> String {
    engine.metrics().record_request();
    let trace_id = if pipesched_trace::enabled() {
        let id = pipesched_trace::begin("request");
        (id != 0).then_some(id)
    } else {
        None
    };
    flight::begin(-1);
    let start = Instant::now();
    let mut fclock = flight::clock();
    let parsed = {
        let _s = pipesched_trace::span("parse");
        std::str::from_utf8(line)
            .map_err(|e| format!("request line is not valid UTF-8: {e}"))
            .and_then(parse_request)
    };
    fclock.lap(flight::Phase::Parse);
    let rendered = match parsed {
        Ok(req) => 'ok: {
            flight::note_req(req.id.unwrap_or(-1));
            // Optimizer admission gate: run the front-end optimizer under
            // translation validation and refuse blocks whose transcript
            // the validator rejects. The gate never substitutes the
            // optimized block — the response's order/pipes/etas must
            // index the tuples the client sent.
            let verified = if engine.config().verify_opt {
                let _s = pipesched_trace::span("verify_opt");
                match pipesched_analyze::optimize_verified(
                    &req.block,
                    &pipesched_frontend::OptConfig::default(),
                ) {
                    Ok(_) => {
                        engine.metrics().record_opt_verified();
                        true
                    }
                    Err(rej) => {
                        engine.metrics().record_opt_rejected();
                        engine.metrics().record_error();
                        flight::note_outcome(flight::Outcome::AdmissionReject);
                        let codes: Vec<&str> = rej.codes().iter().map(|c| c.as_str()).collect();
                        break 'ok error_json(
                            req.id,
                            &format!(
                                "optimizer translation validation rejected the block [{}]",
                                codes.join(", ")
                            ),
                        )
                        .to_compact();
                    }
                }
            } else {
                false
            };
            let budget = req.budget(engine.config().default_nodes, start);
            let answer = engine.answer(&req.block, &req.machine, budget);
            if !answer.optimal && !answer.deadline_hit {
                flight::note_outcome(flight::Outcome::BudgetExhausted);
            }
            let _s = pipesched_trace::span("respond");
            // The engine's own phase clock covered dag→search; a fresh
            // clock attributes only the rendering below to `respond`.
            let mut rclock = flight::clock();
            let mut doc = response_json(
                req.id,
                &answer,
                start.elapsed().as_micros() as u64,
                trace_id,
            );
            if verified {
                if let pipesched_json::Json::Object(pairs) = &mut doc {
                    pairs.push(("opt_verified".to_string(), pipesched_json::Json::Bool(true)));
                }
            }
            let rendered = doc.to_compact();
            rclock.lap(flight::Phase::Respond);
            rendered
        }
        Err(message) => {
            engine.metrics().record_error();
            flight::note_outcome(flight::Outcome::Error);
            // Salvage the id for correlation even when the rest is bad.
            let id = std::str::from_utf8(line)
                .ok()
                .and_then(|l| pipesched_json::parse(l).ok())
                .and_then(|d| d.get("id").and_then(pipesched_json::Json::as_i64));
            if let Some(id) = id {
                flight::note_req(id);
            }
            error_json(id, &message).to_compact()
        }
    };
    if trace_id.is_some() {
        pipesched_trace::end();
    }
    flight::commit(start.elapsed().as_micros() as u64, trace_id.unwrap_or(0));
    rendered
}

/// Accept connections on `listener`; the first line decides the protocol.
/// `GET` lines get one-shot HTTP (`/metrics`, `/stats`, `/trace/<id>`),
/// everything else is an NDJSON stream served by `serve_stream` over the
/// shared engine. Stops after `max_conns` counted connections when given
/// (used by tests), otherwise loops until the listener errors. Empty
/// connections (port probes) are served as a no-op and **not** counted.
pub fn serve_tcp(
    engine: &ServiceEngine,
    listener: TcpListener,
    config: &ServeConfig,
    max_conns: Option<u64>,
) -> std::io::Result<u64> {
    let mut served = 0u64;
    for conn in listener.incoming() {
        let stream = conn?;
        let mut reader = BufReader::new(stream.try_clone()?);
        // Sniffed as bytes: a first line that is not UTF-8 is a bad
        // request for `serve_stream` to answer, not a reason to drop the
        // connection.
        let mut first = Vec::new();
        if reader.read_until(b'\n', &mut first)? == 0 {
            // Liveness probe: the peer connected and closed without
            // sending anything. Not a served connection.
            continue;
        }
        if first.starts_with(b"GET ") {
            let request_line = String::from_utf8_lossy(&first);
            handle_http(
                engine,
                &mut reader,
                stream,
                &request_line,
                config.workers.max(1),
            )?;
        } else {
            // Connections are handled sequentially; within one connection
            // the worker pool still answers requests concurrently. The
            // sniffed first line is replayed ahead of the rest.
            let input = Cursor::new(first).chain(reader);
            serve_stream(engine, input, stream, config)?;
        }
        served += 1;
        if max_conns.is_some_and(|m| served >= m) {
            break;
        }
    }
    Ok(served)
}

/// Answer one HTTP GET on a sniffed connection and close it.
fn handle_http<R: BufRead, W: Write>(
    engine: &ServiceEngine,
    reader: &mut R,
    mut out: W,
    request_line: &str,
    workers: usize,
) -> std::io::Result<()> {
    // Drain the request headers; a GET carries no body worth reading.
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = route_http(engine, path, workers);
    write!(
        out,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    out.write_all(body.as_bytes())?;
    out.flush()
}

/// The observability routes exposed on the serving port. `workers` is the
/// front end's worker-pool size, reported by `/healthz`.
fn route_http(
    engine: &ServiceEngine,
    path: &str,
    workers: usize,
) -> (&'static str, &'static str, String) {
    match path {
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", engine.prometheus()),
        "/stats" => (
            "200 OK",
            "application/json",
            engine.stats_json().to_pretty() + "\n",
        ),
        "/slo" => (
            "200 OK",
            "application/json",
            crate::slo::to_json(engine.metrics()).to_pretty() + "\n",
        ),
        "/healthz" => {
            let (ok, doc) = engine.health_json(workers);
            (
                if ok {
                    "200 OK"
                } else {
                    "503 Service Unavailable"
                },
                "application/json",
                doc.to_pretty() + "\n",
            )
        }
        "/flight" => (
            "200 OK",
            "application/x-ndjson",
            flight::to_ndjson(&flight::recent(flight::DUMP_WINDOW)),
        ),
        "/flight/dumps" => {
            let dumps = flight::dumps();
            let body: String = dumps.iter().map(flight::Dump::to_ndjson).collect();
            ("200 OK", "application/x-ndjson", body)
        }
        _ => {
            if let Some(n) = path
                .strip_prefix("/flight/")
                .and_then(|n| n.parse::<usize>().ok())
            {
                return (
                    "200 OK",
                    "application/x-ndjson",
                    flight::to_ndjson(&flight::recent(n)),
                );
            }
            match path
                .strip_prefix("/trace/")
                .and_then(|id| id.parse::<u64>().ok())
                .and_then(pipesched_trace::store::get)
            {
                Some(trace) => (
                    "200 OK",
                    "application/x-ndjson",
                    pipesched_trace::render::to_ndjson(&trace),
                ),
                None => (
                    "404 Not Found",
                    "text/plain",
                    "unknown path; try /metrics, /stats, /slo, /healthz, /flight[/<n>|/dumps], or /trace/<id>\n"
                        .to_string(),
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use pipesched_json::Json;

    fn engine() -> ServiceEngine {
        ServiceEngine::new(EngineConfig::default(), 64, 4)
    }

    const REQ: &str = r#"{"id": 1, "block": "1: Load #x\n2: Mul @1, @1\n3: Store #y, @2", "machine": "paper-simulation"}"#;

    #[test]
    fn serves_a_stream_in_input_order() {
        let eng = engine();
        let mut input = String::new();
        for i in 0..8 {
            input.push_str(&REQ.replace(r#""id": 1"#, &format!(r#""id": {i}"#)));
            input.push('\n');
        }
        let mut out = Vec::new();
        let handled = serve_stream(
            &eng,
            input.as_bytes(),
            &mut out,
            &ServeConfig { workers: 3 },
        )
        .unwrap();
        assert_eq!(handled, 8);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        assert_eq!(lines.len(), 8);
        for (i, line) in lines.iter().enumerate() {
            let doc = pipesched_json::parse(line).unwrap();
            assert_eq!(doc.get("id").and_then(Json::as_i64), Some(i as i64));
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        }
        // 8 identical shapes → 1 miss, 7 validated hits.
        assert_eq!(eng.cache().hits(), 7);
        assert_eq!(
            eng.metrics()
                .requests
                .load(std::sync::atomic::Ordering::Relaxed),
            8
        );
    }

    #[test]
    fn bad_lines_get_error_responses_not_disconnects() {
        let eng = engine();
        let input = format!("{REQ}\nnot json at all\n{{\"id\": 5, \"block\": \"1: Load #x\"}}\n");
        let mut out = Vec::new();
        let handled =
            serve_stream(&eng, input.as_bytes(), &mut out, &ServeConfig::default()).unwrap();
        assert_eq!(handled, 3);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        assert_eq!(lines.len(), 3);
        let second = pipesched_json::parse(lines[1]).unwrap();
        assert_eq!(second.get("ok").and_then(Json::as_bool), Some(false));
        let third = pipesched_json::parse(lines[2]).unwrap();
        assert_eq!(third.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(third.get("id").and_then(Json::as_i64), Some(5));
        assert_eq!(
            eng.metrics()
                .errors
                .load(std::sync::atomic::Ordering::Relaxed),
            2
        );
    }

    /// Serve `bad` between two valid requests: the bad line gets an error
    /// response for its own sequence number and both requests are answered.
    fn hostile_line_is_answered_in_place(bad: &[u8], expect: &str) {
        let eng = engine();
        let mut input = Vec::new();
        input.extend_from_slice(REQ.as_bytes());
        input.push(b'\n');
        input.extend_from_slice(bad);
        input.push(b'\n');
        input.extend_from_slice(REQ.replace(r#""id": 1"#, r#""id": 3"#).as_bytes());
        input.push(b'\n');
        let mut out = Vec::new();
        let handled =
            serve_stream(&eng, &input[..], &mut out, &ServeConfig { workers: 2 }).unwrap();
        assert_eq!(handled, 3);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        assert_eq!(lines.len(), 3);
        let docs: Vec<Json> = lines
            .iter()
            .map(|l| pipesched_json::parse(l).unwrap())
            .collect();
        let ok: Vec<Option<bool>> = docs
            .iter()
            .map(|d| d.get("ok").and_then(Json::as_bool))
            .collect();
        assert_eq!(ok, [Some(true), Some(false), Some(true)]);
        assert_eq!(docs[2].get("id").and_then(Json::as_i64), Some(3));
        let message = docs[1].get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains(expect), "{message}");
    }

    #[test]
    fn deep_json_line_gets_an_error_response() {
        hostile_line_is_answered_in_place(&[b'['; 200_000], "nesting deeper than");
    }

    #[test]
    fn non_utf8_line_gets_an_error_response() {
        hostile_line_is_answered_in_place(
            b"{\"id\": 2, \"block\": \"\xff\xfe\"}",
            "not valid UTF-8",
        );
    }

    fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        text
    }

    #[test]
    fn http_endpoints_share_the_serving_port() {
        let eng = engine();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let eng = &eng;
            let server = scope.spawn(move || {
                serve_tcp(eng, listener, &ServeConfig { workers: 2 }, Some(3)).unwrap()
            });
            // A probe (connect + close, no bytes) must not count.
            drop(std::net::TcpStream::connect(addr).unwrap());
            // Counted connection 1: one NDJSON request.
            {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                stream.write_all(REQ.as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
                stream.shutdown(std::net::Shutdown::Write).unwrap();
                let mut reply = String::new();
                BufReader::new(stream).read_line(&mut reply).unwrap();
                let doc = pipesched_json::parse(&reply).unwrap();
                assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
            }
            // Counted connections 2 and 3: HTTP scrapes of the same port.
            let metrics = http_get(addr, "/metrics");
            let stats = http_get(addr, "/stats");
            assert_eq!(server.join().unwrap(), 3);

            assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"), "{metrics}");
            let body = metrics.split("\r\n\r\n").nth(1).unwrap();
            pipesched_trace::prom::validate(body).expect("exposition must parse");
            assert!(body.contains("pipesched_requests_total 1"), "{body}");
            assert!(body.contains("pipesched_cache_entries 1"), "{body}");

            let body = stats.split("\r\n\r\n").nth(1).unwrap();
            let doc = pipesched_json::parse(body).unwrap();
            assert_eq!(
                doc.get("metrics")
                    .and_then(|m| m.get("requests"))
                    .and_then(Json::as_i64),
                Some(1)
            );
            assert_eq!(
                doc.get("cache")
                    .and_then(|c| c.get("entries"))
                    .and_then(Json::as_i64),
                Some(1)
            );
        });
    }

    #[test]
    fn verify_opt_gate_accepts_and_marks_responses() {
        let eng = ServiceEngine::new(
            EngineConfig {
                verify_opt: true,
                ..EngineConfig::default()
            },
            64,
            4,
        );
        let reply = handle_line(&eng, REQ.as_bytes());
        let doc = pipesched_json::parse(&reply).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("opt_verified").and_then(Json::as_bool), Some(true));
        assert_eq!(
            eng.metrics()
                .opt_verified
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert_eq!(
            eng.metrics()
                .opt_rejected
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
        // The gate never rewrites the scheduled block: the order still
        // indexes the three tuples the client sent.
        let order = doc.get("order").unwrap();
        if let Json::Array(items) = order {
            assert_eq!(items.len(), 3);
        } else {
            panic!("order must be an array");
        }
    }

    #[test]
    fn verify_opt_off_leaves_responses_unmarked() {
        let eng = engine();
        if eng.config().verify_opt {
            // PIPESCHED_VERIFY_OPT forced the default on; nothing to test.
            return;
        }
        let reply = handle_line(&eng, REQ.as_bytes());
        let doc = pipesched_json::parse(&reply).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert!(doc.get("opt_verified").is_none());
    }

    #[test]
    fn unknown_http_path_is_a_404_not_a_crash() {
        let eng = engine();
        let (status, _, body) = route_http(&eng, "/nope", 2);
        assert_eq!(status, "404 Not Found");
        assert!(body.contains("/metrics"));
        let (status, _, _) = route_http(&eng, "/trace/notanumber", 2);
        assert_eq!(status, "404 Not Found");
        let (status, _, _) = route_http(&eng, "/trace/999999999", 2);
        assert_eq!(status, "404 Not Found");
    }

    #[test]
    fn traced_requests_expose_span_dumps() {
        let _toggle = crate::flight_test_lock();
        let eng = engine();
        pipesched_trace::set_enabled(true);
        let rendered = handle_line(&eng, REQ.as_bytes());
        pipesched_trace::set_enabled(false);
        let doc = pipesched_json::parse(&rendered).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        let trace_id = doc
            .get("trace_id")
            .and_then(Json::as_i64)
            .expect("traced response carries its trace id") as u64;
        let trace = pipesched_trace::store::get(trace_id).expect("trace was published");
        for name in ["parse", "dag_build", "canonicalize", "cache_lookup"] {
            assert!(
                trace.events.iter().any(|e| e.name == name),
                "span `{name}` missing from the request trace"
            );
        }
        // The span dump is served over HTTP.
        let (status, ct, body) = route_http(&eng, &format!("/trace/{trace_id}"), 2);
        assert_eq!(status, "200 OK");
        assert_eq!(ct, "application/x-ndjson");
        assert!(body.lines().count() > 4, "{body}");
        for line in body.lines() {
            pipesched_json::parse(line).expect("every dump line is JSON");
        }
    }

    #[test]
    fn healthz_and_slo_routes_respond() {
        let eng = engine();
        let (status, ct, body) = route_http(&eng, "/healthz", 2);
        assert_eq!(status, "200 OK");
        assert_eq!(ct, "application/json");
        let doc = pipesched_json::parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(doc.get("workers").and_then(Json::as_i64), Some(2));
        assert_eq!(
            doc.get("schedule_selftest_ok").and_then(Json::as_bool),
            Some(true)
        );
        // A pool with no workers is not ready to serve.
        let (status, _, body) = route_http(&eng, "/healthz", 0);
        assert_eq!(status, "503 Service Unavailable");
        let doc = pipesched_json::parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("unready"));

        handle_line(&eng, REQ.as_bytes());
        let (status, ct, body) = route_http(&eng, "/slo", 2);
        assert_eq!(status, "200 OK");
        assert_eq!(ct, "application/json");
        let doc = pipesched_json::parse(&body).unwrap();
        let objectives = match doc.get("objectives") {
            Some(Json::Array(rows)) => rows.len(),
            other => panic!("objectives must be an array, got {other:?}"),
        };
        assert_eq!(objectives, crate::slo::objectives().len());
    }

    #[test]
    fn induced_deadline_miss_freezes_a_flight_dump() {
        let _toggle = crate::flight_test_lock();
        let eng = engine();
        pipesched_trace::set_enabled(true);
        flight::set_enabled(true);
        flight::reset();
        // Five independent load/mul/store chains fight over the pipelines,
        // so the list bound cannot prove optimality and the engine must
        // search — against a deadline that expired before it started.
        let lines: Vec<String> = (0..5)
            .flat_map(|i| {
                let b = 3 * i;
                [
                    format!("{}: Load #x{i}", b + 1),
                    format!("{}: Mul @{}, @{}", b + 2, b + 1, b + 1),
                    format!("{}: Store #y{i}, @{}", b + 3, b + 2),
                ]
            })
            .collect();
        let req = format!(
            r#"{{"id": 4242, "block": "{}", "machine": "paper-simulation", "deadline_ms": 0}}"#,
            lines.join(r"\n")
        );
        let rendered = handle_line(&eng, req.as_bytes());
        pipesched_trace::set_enabled(false);
        flight::set_enabled(false);

        let doc = pipesched_json::parse(&rendered).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("deadline_hit").and_then(Json::as_bool), Some(true));

        // The miss froze a dump whose trigger is the offending request's
        // wide event, carrying the span-trace id for cross-reference.
        let dumps = flight::dumps();
        let dump = dumps
            .iter()
            .find(|d| d.anomaly == flight::Anomaly::DeadlineMiss.name())
            .expect("deadline miss must freeze a flight dump");
        let trigger = dump.events.last().expect("dump captures a window");
        assert_eq!(trigger.seq, dump.trigger_seq);
        assert_eq!(trigger.req, 4242);
        assert_eq!(trigger.outcome, flight::Outcome::DeadlineMiss.name());
        assert!(trigger.trace_id != 0, "wide event links to its span trace");
        assert!(trigger.micros > 0);
        assert!(trigger.verify(), "dumped events carry valid seals");

        // Both HTTP views surface the same event.
        let (status, ct, body) = route_http(&eng, "/flight/8", 2);
        assert_eq!(status, "200 OK");
        assert_eq!(ct, "application/x-ndjson");
        assert!(body.contains("\"req\":4242"), "{body}");
        let (status, _, body) = route_http(&eng, "/flight/dumps", 2);
        assert_eq!(status, "200 OK");
        assert!(body.contains("\"anomaly\":\"deadline_miss\""), "{body}");
        assert!(body.contains("\"req\":4242"), "{body}");
        for line in body.lines() {
            pipesched_json::parse(line).expect("every dump line is JSON");
        }
    }

    #[test]
    fn tcp_round_trip() {
        let eng = engine();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let eng = &eng;
            let server = scope.spawn(move || {
                serve_tcp(eng, listener, &ServeConfig { workers: 2 }, Some(1)).unwrap()
            });
            let client = scope.spawn(move || {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                stream.write_all(REQ.as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
                stream.shutdown(std::net::Shutdown::Write).unwrap();
                let mut reply = String::new();
                BufReader::new(stream).read_line(&mut reply).unwrap();
                reply
            });
            let reply = client.join().unwrap();
            assert_eq!(server.join().unwrap(), 1);
            let doc = pipesched_json::parse(&reply).unwrap();
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
            assert_eq!(
                doc.get("nops").and_then(Json::as_i64).map(|n| n >= 0),
                Some(true)
            );
        });
    }
}
