//! Serve-load benchmark: a deterministic multi-session overload trace
//! against the concurrent `anek serve` server.
//!
//! Three named sessions share one server and one store. The trace has four
//! phases:
//!
//! 1. **load** — each session loads its own two-unit workspace.
//! 2. **storm** — with the scheduler held, each session stacks six edits to
//!    the same source (five must coalesce), posts one already-expired
//!    `deadline_ms:0` edit (must cancel), and padding mutators push the
//!    queue past the admission cap (the tail must be rejected with
//!    `retry_after_ms`). Releasing the hold drains the burst; deep-queue
//!    dequeues run under the screening shed tier.
//! 3. **settle** — one canonical edit per source brings every session to a
//!    known final state; queries then answer from it.
//! 4. **verify** — a serial, store-less [`ServeSession`] replays each
//!    session's canonical trace; the concurrent server's query responses
//!    must be byte-identical, with zero `failed` outcomes.
//!
//! Because the storm is enqueued while the scheduler is held from a single
//! thread, the coalesced / rejected / cancelled counts are exact constants,
//! not timing-dependent.
//!
//! Run: `cargo run --release -p bench --bin serve_load [-- --small]`
//!
//! Writes `BENCH_serve_load.json`; exits 1 if any invariant fails or the
//! warm query p99 exceeds the bound.

use anek::anek_core::InferConfig;
use anek::json::{self, Json};
use anek::observe::json_str;
use anek::store::Store;
use anek::{Client, SendStatus, ServeSession, Server, ServerOptions, ShedPolicy};
use bench::Scale;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSIONS: usize = 3;
const UNITS_PER_SESSION: usize = 2;
const STACKED_EDITS: usize = 6;
const PADDING_LOADS: usize = 12;
const SCREEN_DEPTH: usize = 4;
const REJECT_DEPTH: usize = 10;
/// Warm queries answer from session state; even a loaded CI box has slack.
const QUERY_P99_BOUND_MS: f64 = 2000.0;

/// One session's client plus its request/response log. Labels let the
/// verify phase find specific responses without positional bookkeeping.
struct Lane {
    name: String,
    client: Client,
    labels: Vec<&'static str>,
    sent_at: Vec<Instant>,
    responses: Vec<(String, Instant)>,
    /// The canonical trace the serial reference replays.
    canonical: Vec<String>,
}

impl Lane {
    fn send(&mut self, label: &'static str, line: &str) -> SendStatus {
        self.labels.push(label);
        self.sent_at.push(Instant::now());
        self.client.send(line)
    }

    /// Blocks until every sent request has its response.
    fn drain(&mut self) {
        while self.responses.len() < self.sent_at.len() {
            let r = self.client.recv().expect("server hung up mid-trace");
            self.responses.push(r);
        }
    }

    fn response(&self, label: &str) -> &str {
        self.labels
            .iter()
            .position(|l| *l == label)
            .map(|i| self.responses[i].0.as_str())
            .unwrap_or_else(|| panic!("no `{label}` response in lane {}", self.name))
    }

    fn latencies(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        self.labels
            .iter()
            .zip(self.sent_at.iter().zip(self.responses.iter()))
            .map(|(label, (sent, (_, ready)))| (*label, ready.saturating_duration_since(*sent)))
    }
}

fn main() {
    let scale = Scale::from_args();
    let corpus = scale.corpus();
    let printed: Vec<String> = corpus.units.iter().map(java_syntax::print_unit).collect();
    // Prefer units with a `.next();` call so the stacked edits are real
    // semantic edits, not no-ops.
    let mut pool: Vec<String> =
        printed.iter().filter(|s| s.contains(".next();")).cloned().collect();
    if pool.len() < SESSIONS * UNITS_PER_SESSION {
        pool = printed;
    }
    assert!(pool.len() >= SESSIONS * UNITS_PER_SESSION, "corpus too small for the load trace");

    let store_dir = std::env::temp_dir().join(format!("anek-bench-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = Arc::new(Store::open(&store_dir).expect("open bench store"));
    let policy =
        ShedPolicy { screen_depth: SCREEN_DEPTH, reject_depth: REJECT_DEPTH, retry_after_ms: 25 };
    let server = Server::start(
        InferConfig::default(),
        Some(store),
        ServerOptions { workers: 4, policy, ..ServerOptions::default() },
    );

    let mut lanes: Vec<Lane> = (0..SESSIONS)
        .map(|s| Lane {
            name: format!("s{s}"),
            client: server.connect(),
            labels: Vec::new(),
            sent_at: Vec::new(),
            responses: Vec::new(),
            canonical: Vec::new(),
        })
        .collect();
    let unit = |s: usize, u: usize| pool[s * UNITS_PER_SESSION + u].clone();
    let edit = |s: usize, u: usize, k: usize| {
        unit(s, u).replacen(".next();", &format!(".next(); int __edit_{k} = {k};"), 1)
    };

    // ---- phase 1: load ----
    let t0 = Instant::now();
    for (s, lane) in lanes.iter_mut().enumerate() {
        let line =
            load_line(1, &format!("s{s}"), &[("u0.java", &unit(s, 0)), ("u1.java", &unit(s, 1))]);
        lane.canonical.push(line.clone());
        assert_eq!(lane.send("load", &line), SendStatus::Queued);
    }
    for lane in &mut lanes {
        lane.drain();
        assert!(lane.response("load").contains("\"loaded\":2"), "{}", lane.response("load"));
    }

    // ---- phase 2: storm (held, single-threaded enqueue → exact counts) ----
    server.scheduler().hold(true);
    let mut rejected_sends = 0usize;
    for (s, lane) in lanes.iter_mut().enumerate() {
        for k in 1..=STACKED_EDITS {
            let line = update_line(300 + k, &format!("s{s}"), "u0.java", &edit(s, 0, k), None);
            lane.send("storm-edit", &line);
        }
    }
    for (s, lane) in lanes.iter_mut().enumerate() {
        let line = update_line(350, &format!("s{s}"), "u1.java", &edit(s, 1, 1), Some(0));
        lane.send("storm-deadline", &line);
    }
    for i in 0..PADDING_LOADS {
        let s = i % SESSIONS;
        let line = load_line(
            360 + i,
            &format!("s{s}"),
            &[("u0.java", &unit(s, 0)), ("u1.java", &unit(s, 1))],
        );
        if let SendStatus::Rejected { .. } = lanes[s].send("storm-padding", &line) {
            rejected_sends += 1;
        }
    }
    server.scheduler().hold(false);
    for lane in &mut lanes {
        lane.drain();
    }

    // ---- phase 3: settle to the canonical final state ----
    for (s, lane) in lanes.iter_mut().enumerate() {
        let line = update_line(100, &format!("s{s}"), "u0.java", &edit(s, 0, STACKED_EDITS), None);
        lane.canonical.push(line.clone());
        lane.send("settle-u0", &line);
    }
    for lane in &mut lanes {
        lane.drain();
    }
    for (s, lane) in lanes.iter_mut().enumerate() {
        let line = update_line(101, &format!("s{s}"), "u1.java", &edit(s, 1, 1), None);
        lane.canonical.push(line.clone());
        lane.send("settle-u1", &line);
    }
    for lane in &mut lanes {
        lane.drain();
    }
    for (s, lane) in lanes.iter_mut().enumerate() {
        let line =
            format!(r#"{{"id":200,"method":"query_outcomes","params":{{"session":"s{s}"}}}}"#);
        lane.canonical.push(line.clone());
        lane.send("query-outcomes", &line);
    }
    for lane in &mut lanes {
        lane.drain();
    }
    for (s, lane) in lanes.iter_mut().enumerate() {
        let first = first_method(lane.response("query-outcomes"));
        let line = format!(
            r#"{{"id":201,"method":"query_spec","params":{{"session":"s{s}","method":{}}}}}"#,
            json_str(&first)
        );
        lane.canonical.push(line.clone());
        lane.send("query-spec", &line);
    }
    for lane in &mut lanes {
        lane.drain();
    }
    let wall = t0.elapsed();

    // Snapshot counters before shutdown consumes the server.
    let [_, _, rejected, coalesced, shed_screen, deadline_cancelled, peak_depth] =
        server.scheduler().counters.snapshot();
    let evictions = server.registry().evictions.load(std::sync::atomic::Ordering::Relaxed);

    // ---- phase 4: serial reference replay + byte-identity ----
    let mut byte_identical = true;
    let mut failed_outcomes = 0usize;
    for lane in &lanes {
        let mut serial = ServeSession::new(InferConfig::default(), None);
        let mut serial_queries: Vec<String> = Vec::new();
        for line in &lane.canonical {
            let handled = serial.handle_line(line);
            if line.contains("\"query_outcomes\"") || line.contains("\"query_spec\"") {
                serial_queries.push(handled.response);
            }
        }
        let concurrent = [lane.response("query-outcomes"), lane.response("query-spec")];
        for (serial_line, concurrent_line) in serial_queries.iter().zip(concurrent) {
            if serial_line != concurrent_line {
                byte_identical = false;
                eprintln!(
                    "MISMATCH in {}:\n  serial:     {serial_line}\n  concurrent: {concurrent_line}",
                    lane.name
                );
            }
        }
        failed_outcomes += lane.response("query-outcomes").matches("\"status\":\"failed\"").count();
    }

    // ---- latency distribution ----
    let mut all: Vec<Duration> = lanes.iter().flat_map(|l| l.latencies().map(|(_, d)| d)).collect();
    let mut queries: Vec<Duration> = lanes
        .iter()
        .flat_map(|l| l.latencies().filter(|(label, _)| label.starts_with("query")).map(|(_, d)| d))
        .collect();
    all.sort();
    queries.sort();
    let pct = |v: &[Duration], p: usize| v[(v.len() - 1) * p / 100];
    let requests = all.len();
    let (p50, p99) = (pct(&all, 50), pct(&all, 99));
    let (qp50, qp99) = (pct(&queries, 50), pct(&queries, 99));

    // ---- shutdown: graceful drain ----
    lanes[0].send("shutdown", r#"{"id":900,"method":"shutdown"}"#);
    for lane in &mut lanes {
        lane.drain();
        lane.client.close();
    }
    server.join();
    let peak_rss_kb = bench::peak_rss_kb().unwrap_or(0);

    println!(
        "serve_load: {requests} requests over {SESSIONS} sessions in {:.2} s",
        wall.as_secs_f64()
    );
    println!(
        "  p50 {:.2} ms  p99 {:.2} ms  (queries: p50 {:.1} us  p99 {:.1} us)",
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
        qp50.as_secs_f64() * 1e6,
        qp99.as_secs_f64() * 1e6
    );
    println!(
        "  coalesced {coalesced}  rejected {rejected}  shed_screen {shed_screen}  \
         deadline_cancelled {deadline_cancelled}  peak_depth {peak_depth}  evictions {evictions}"
    );
    println!("  byte_identical {byte_identical}  failed_outcomes {failed_outcomes}  peak RSS {peak_rss_kb} kB");

    write_bench_json(
        scale,
        requests,
        wall,
        [p50, p99, qp50, qp99],
        [coalesced, rejected, shed_screen, deadline_cancelled, peak_depth, evictions],
        byte_identical,
        failed_outcomes,
        peak_rss_kb,
    )
    .expect("write BENCH_serve_load.json");

    // ---- invariants (the CI smoke gate relies on this exit code) ----
    let expected_coalesced = ((STACKED_EDITS - 1) * SESSIONS) as u64;
    let mut failures = Vec::new();
    if !byte_identical {
        failures.push("concurrent query responses drifted from the serial replay".to_string());
    }
    if failed_outcomes != 0 {
        failures.push(format!("{failed_outcomes} load-attributable failed outcomes"));
    }
    if coalesced != expected_coalesced {
        failures.push(format!("coalesced = {coalesced}, expected exactly {expected_coalesced}"));
    }
    if rejected < 1 || rejected != rejected_sends as u64 {
        failures.push(format!("rejected = {rejected} (client saw {rejected_sends})"));
    }
    if deadline_cancelled != SESSIONS as u64 {
        failures.push(format!("deadline_cancelled = {deadline_cancelled}, expected {SESSIONS}"));
    }
    if shed_screen < SESSIONS as u64 {
        failures.push(format!("shed_screen = {shed_screen}, expected >= {SESSIONS}"));
    }
    if qp99.as_secs_f64() * 1e3 > QUERY_P99_BOUND_MS {
        failures.push(format!(
            "query p99 {:.1} ms exceeds the {QUERY_P99_BOUND_MS} ms bound",
            qp99.as_secs_f64() * 1e3
        ));
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

fn load_line(id: usize, session: &str, sources: &[(&str, &String)]) -> String {
    let mut s = format!(
        r#"{{"id":{id},"method":"load_sources","params":{{"session":{},"sources":["#,
        json_str(session)
    );
    for (i, (name, text)) in sources.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(r#"{{"name":{},"text":{}}}"#, json_str(name), json_str(text)));
    }
    s.push_str("]}}");
    s
}

fn update_line(
    id: usize,
    session: &str,
    name: &str,
    text: &str,
    deadline_ms: Option<u64>,
) -> String {
    let deadline = deadline_ms.map_or(String::new(), |ms| format!(r#","deadline_ms":{ms}"#));
    format!(
        r#"{{"id":{id},"method":"update_source","params":{{"session":{},"name":{},"text":{}{deadline}}}}}"#,
        json_str(session),
        json_str(name),
        json_str(text)
    )
}

/// The first method name in a `query_outcomes` response.
fn first_method(response: &str) -> String {
    let v = json::parse(response).expect("outcomes response parses");
    v.get("result")
        .and_then(|r| r.get("outcomes"))
        .and_then(Json::as_arr)
        .and_then(|a| a.first())
        .and_then(|o| o.get("method"))
        .and_then(Json::as_str)
        .expect("at least one outcome")
        .to_string()
}

#[allow(clippy::too_many_arguments)]
fn write_bench_json(
    scale: Scale,
    requests: usize,
    wall: Duration,
    [p50, p99, qp50, qp99]: [Duration; 4],
    [coalesced, rejected, shed_screen, deadline_cancelled, peak_depth, evictions]: [u64; 6],
    byte_identical: bool,
    failed_outcomes: usize,
    peak_rss_kb: u64,
) -> std::io::Result<()> {
    let s = format!(
        "{{\n  \"bench\": \"serve_load\",\n  \"scale\": {},\n  \"sessions\": {SESSIONS},\n  \
         \"requests\": {requests},\n  \"wall_s\": {:.3},\n  \"p50_ms\": {:.3},\n  \
         \"p99_ms\": {:.3},\n  \"query_p50_us\": {:.3},\n  \"query_p99_us\": {:.3},\n  \
         \"coalesced\": {coalesced},\n  \"rejected\": {rejected},\n  \
         \"shed_screen\": {shed_screen},\n  \"deadline_cancelled\": {deadline_cancelled},\n  \
         \"peak_depth\": {peak_depth},\n  \"evictions\": {evictions},\n  \
         \"byte_identical\": {byte_identical},\n  \"failed_outcomes\": {failed_outcomes},\n  \
         \"peak_rss_kb\": {peak_rss_kb}\n}}\n",
        json_str(&format!("{scale:?}").to_lowercase()),
        wall.as_secs_f64(),
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
        qp50.as_secs_f64() * 1e6,
        qp99.as_secs_f64() * 1e6,
    );
    std::fs::write("BENCH_serve_load.json", &s)?;
    eprintln!("wrote BENCH_serve_load.json");
    Ok(())
}
