//! The multi-tenant serve front end: worker threads executing scheduled
//! requests against the session registry, plus the in-process [`Client`]
//! handle the transports (stdio, unix socket, bench) talk through.
//!
//! ## Determinism
//!
//! Any single session's responses are byte-identical to driving a
//! [`ServeSession`](super::session::ServeSession) serially with the same
//! requests, at any worker count: the scheduler runs at most one request
//! of a session at a time in enqueue order, and each client's [`Outbox`]
//! releases responses in request order. Concurrency across sessions (and
//! the shared store underneath) affects only latency.

use anek_core::InferConfig;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use store::Store;

use super::registry::SessionRegistry;
use super::scheduler::{Admission, Dispatch, Outbox, Queued, RequestMeta, Scheduler};
use super::session::RequestCtx;
use super::shed::{ShedPolicy, ShedTier};
use super::{error_coded, error_response};
use crate::json::{self, Json};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker threads executing requests. Any value ≥ 1 yields the same
    /// per-session transcripts (see the module docs).
    pub workers: usize,
    /// The three-tier load-shedding policy.
    pub policy: ShedPolicy,
    /// Byte budget across all sessions' heavyweight state; `0` = unlimited.
    pub memory_budget_bytes: usize,
    /// Requests longer than this many bytes are refused with a structured
    /// `too_large` error instead of being read.
    pub max_request_bytes: usize,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            workers: 2,
            policy: ShedPolicy::default(),
            memory_budget_bytes: 0,
            max_request_bytes: 16 * 1024 * 1024,
        }
    }
}

/// Shared state behind the worker threads and every client handle.
struct ServerInner {
    registry: SessionRegistry,
    sched: Scheduler,
    opts: ServerOptions,
    clients: Mutex<Vec<Arc<Outbox>>>,
}

/// A running multi-session server (see the module docs).
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<JoinHandle<()>>,
}

/// What [`Client::send`] did with the request. Every variant leaves
/// exactly one response in the outbox pipeline, so transports can ignore
/// this; the load generator uses it to react to backpressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendStatus {
    /// Admitted; the response will arrive once the request executes.
    Queued,
    /// Refused at admission (tier 3); the `overloaded` error response is
    /// already in the outbox.
    Rejected {
        /// The back-off hint the refusal carried.
        retry_after_ms: u64,
    },
    /// Answered without scheduling (parse error, oversized request, or
    /// shutdown refusal); the response is already in the outbox.
    Answered,
}

impl Server {
    /// Starts the worker pool over a fresh registry.
    pub fn start(config: InferConfig, store: Option<Arc<Store>>, opts: ServerOptions) -> Server {
        let inner = Arc::new(ServerInner {
            registry: SessionRegistry::new(config, store, opts.memory_budget_bytes),
            sched: Scheduler::new(opts.policy),
            opts: opts.clone(),
            clients: Mutex::new(Vec::new()),
        });
        let workers = (0..opts.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("anek-serve-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { inner, workers }
    }

    /// Opens an in-process client with its own ordered response stream.
    pub fn connect(&self) -> Client {
        let outbox = Arc::new(Outbox::new());
        self.inner.clients.lock().unwrap().push(Arc::clone(&outbox));
        Client { inner: Arc::clone(&self.inner), outbox, sent: 0 }
    }

    /// The scheduler (hold/release hook and traffic counters).
    pub fn scheduler(&self) -> &Scheduler {
        &self.inner.sched
    }

    /// The session registry.
    pub fn registry(&self) -> &SessionRegistry {
        &self.inner.registry
    }

    /// Whether a `shutdown` request has completed the drain.
    pub fn stopped(&self) -> bool {
        self.inner.sched.stopped()
    }

    /// Blocks until the graceful drain completes (after some client sent
    /// `shutdown`), joins the workers, and hangs up every outbox so
    /// transport writer loops terminate.
    pub fn join(self) {
        self.inner.sched.wait_stopped();
        for w in self.workers {
            let _ = w.join();
        }
        for outbox in self.inner.clients.lock().unwrap().drain(..) {
            outbox.hangup();
        }
    }

    /// Moves the join to a background thread: once a `shutdown` drain
    /// completes, workers are joined and every outbox is hung up. Use when
    /// the calling thread must keep pumping a transport.
    pub fn detach(self) {
        std::thread::spawn(move || self.join());
    }
}

/// One client's ordered request/response pipe into a [`Server`].
pub struct Client {
    inner: Arc<ServerInner>,
    outbox: Arc<Outbox>,
    sent: u64,
}

impl Client {
    /// Submits one request line. Always produces exactly one response in
    /// the outbox (possibly immediately, for refusals and parse errors).
    pub fn send(&mut self, line: &str) -> SendStatus {
        let seq = self.sent;
        self.sent += 1;
        if line.len() > self.inner.opts.max_request_bytes {
            let message = format!(
                "request of {} bytes exceeds max_request_bytes ({})",
                line.len(),
                self.inner.opts.max_request_bytes
            );
            self.outbox.push(seq, error_coded(Json::Null, "too_large", &message, &[]));
            return SendStatus::Answered;
        }
        let request = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                self.outbox.push(seq, error_response(Json::Null, &format!("bad request: {e}")));
                return SendStatus::Answered;
            }
        };
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        let method = request.get("method").and_then(Json::as_str).unwrap_or("").to_string();
        let params = request.get("params").cloned().unwrap_or(Json::Obj(Vec::new()));
        let session = params.get("session").and_then(Json::as_str).unwrap_or("default").to_string();
        let deadline = params
            .get("deadline_ms")
            .and_then(Json::as_num)
            .filter(|ms| *ms >= 0.0)
            .map(|ms| Instant::now() + Duration::from_millis(ms as u64));
        let meta = RequestMeta { id, method, params, session, deadline };
        let queued = Queued { meta, outbox: Arc::clone(&self.outbox), seq };
        match self.inner.sched.enqueue(queued) {
            Admission::Queued => SendStatus::Queued,
            Admission::Rejected => {
                SendStatus::Rejected { retry_after_ms: self.inner.sched.policy.retry_after_ms }
            }
            Admission::ShuttingDown => SendStatus::Answered,
        }
    }

    /// Blocks for the next in-order response; `None` once the stream is
    /// complete. The instant is when the response became ready.
    pub fn recv(&self) -> Option<(String, Instant)> {
        self.outbox.pop()
    }

    /// Refuses a request the transport's bounded reader discarded for
    /// exceeding `max_request_bytes` (the content is gone, so this takes
    /// only the observed size).
    pub fn send_oversized(&mut self, actual_bytes: usize) -> SendStatus {
        let seq = self.sent;
        self.sent += 1;
        let message = format!(
            "request of {} bytes exceeds max_request_bytes ({})",
            actual_bytes, self.inner.opts.max_request_bytes
        );
        self.outbox.push(seq, error_coded(Json::Null, "too_large", &message, &[]));
        SendStatus::Answered
    }

    /// The ordered response stream, shareable with a transport writer loop
    /// while another thread keeps calling [`Client::send`].
    pub fn responses(&self) -> Arc<Outbox> {
        Arc::clone(&self.outbox)
    }

    /// Declares the request stream finished: after the last pending
    /// response, [`Client::recv`] returns `None`.
    pub fn close(&self) {
        self.outbox.close(self.sent);
    }
}

fn worker_loop(inner: &ServerInner) {
    while let Dispatch::Run(item, tier) = inner.sched.next() {
        let session = item.meta.session.clone();
        let line = execute(inner, item.meta, tier);
        item.outbox.push(item.seq, line);
        inner.sched.finish(&session);
    }
}

/// Executes one scheduled request and renders its response line.
fn execute(inner: &ServerInner, meta: RequestMeta, tier: ShedTier) -> String {
    if let Some(deadline) = meta.deadline {
        if Instant::now() >= deadline {
            inner.sched.counters.deadline_cancelled.fetch_add(1, Ordering::Relaxed);
            return error_coded(meta.id, "deadline", "deadline expired before execution", &[]);
        }
    }
    match meta.method.as_str() {
        "open_session" => {
            let (_, created) = inner.registry.open(&meta.session);
            let result = Json::Obj(vec![
                ("session".into(), Json::str(&meta.session)),
                ("created".into(), Json::Bool(created)),
            ]);
            Json::Obj(vec![("id".into(), meta.id), ("result".into(), result)]).to_string()
        }
        "close_session" => {
            let closed = inner.registry.close(&meta.session);
            let result = Json::Obj(vec![
                ("session".into(), Json::str(&meta.session)),
                ("closed".into(), Json::Bool(closed)),
            ]);
            Json::Obj(vec![("id".into(), meta.id), ("result".into(), result)]).to_string()
        }
        "server_stats" => {
            let result = server_stats(inner);
            Json::Obj(vec![("id".into(), meta.id), ("result".into(), result)]).to_string()
        }
        "shutdown" => {
            inner.sched.begin_drain();
            let result = Json::Obj(vec![("ok".into(), Json::Bool(true))]);
            Json::Obj(vec![("id".into(), meta.id), ("result".into(), result)]).to_string()
        }
        _ => {
            if tier == ShedTier::Screen {
                inner.sched.counters.shed_screen.fetch_add(1, Ordering::Relaxed);
            }
            let ctx = RequestCtx { deadline: meta.deadline, shed_screen: tier == ShedTier::Screen };
            inner
                .registry
                .with_session(&meta.session, |s| {
                    s.handle_request(meta.id, &meta.method, &meta.params, &ctx)
                })
                .response
        }
    }
}

fn server_stats(inner: &ServerInner) -> Json {
    let sessions = inner
        .registry
        .snapshot()
        .into_iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::str(s.name)),
                ("generation".into(), Json::num(s.generation as usize)),
                ("resident_bytes".into(), Json::num(s.resident)),
                ("solves".into(), Json::num(s.solves)),
                ("memo_hits".into(), Json::num(s.memo_hits)),
                ("memo_misses".into(), Json::num(s.memo_misses)),
                ("screened_methods".into(), Json::num(s.screened_methods)),
            ])
        })
        .collect();
    let [admitted, completed, rejected, coalesced, shed_screen, deadline_cancelled, peak_depth] =
        inner.sched.counters.snapshot();
    Json::Obj(vec![
        ("sessions".into(), Json::Arr(sessions)),
        ("admitted".into(), Json::num(admitted as usize)),
        ("completed".into(), Json::num(completed as usize)),
        ("rejected".into(), Json::num(rejected as usize)),
        ("coalesced".into(), Json::num(coalesced as usize)),
        ("shed_screen".into(), Json::num(shed_screen as usize)),
        ("deadline_cancelled".into(), Json::num(deadline_cancelled as usize)),
        ("peak_depth".into(), Json::num(peak_depth as usize)),
        ("evictions".into(), Json::num(inner.registry.evictions.load(Ordering::Relaxed) as usize)),
        ("memory_budget_bytes".into(), Json::num(inner.registry.memory_budget_bytes)),
        ("resident_bytes".into(), Json::num(inner.registry.total_resident())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const APP: &str =
        "class App { void drain(Iterator<Integer> it) { while (it.hasNext()) { it.next(); } } }";

    fn load_line(id: usize, session: Option<&str>) -> String {
        let session = session.map_or(String::new(), |s| format!("\"session\":\"{s}\","));
        format!(
            r#"{{"id":{id},"method":"load_sources","params":{{{session}"sources":[{{"name":"App.java","text":"{APP}"}}]}}}}"#
        )
    }

    #[test]
    fn concurrent_server_matches_serial_session_byte_for_byte() {
        let lines = [
            load_line(1, None),
            r#"{"id":2,"method":"query_spec","params":{"method":"App.drain"}}"#.to_string(),
            r#"{"id":3,"method":"query_outcomes"}"#.to_string(),
            r#"{"id":4,"method":"stats"}"#.to_string(),
        ];
        let mut serial = super::super::session::ServeSession::new(InferConfig::default(), None);
        let expected: Vec<String> = lines.iter().map(|l| serial.handle_line(l).response).collect();
        for workers in [1, 4] {
            let server = Server::start(
                InferConfig::default(),
                None,
                ServerOptions { workers, ..ServerOptions::default() },
            );
            let mut client = server.connect();
            for line in &lines {
                client.send(line);
            }
            client.close();
            let mut got = Vec::new();
            while let Some((line, _)) = client.recv() {
                got.push(line);
            }
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn sessions_are_isolated_and_server_drains_on_shutdown() {
        let server = Server::start(InferConfig::default(), None, ServerOptions::default());
        let mut client = server.connect();
        client.send(&load_line(1, Some("a")));
        client.send(&load_line(2, Some("b")));
        // Panic-fault session a only.
        client.send(
            r#"{"id":3,"method":"inject_faults","params":{"session":"a","plan":"panic App.drain"}}"#,
        );
        client.send(r#"{"id":4,"method":"query_outcomes","params":{"session":"a"}}"#);
        client.send(r#"{"id":5,"method":"query_outcomes","params":{"session":"b"}}"#);
        client.send(r#"{"id":6,"method":"shutdown"}"#);
        client.close();
        let mut got = Vec::new();
        while let Some((line, _)) = client.recv() {
            got.push(line);
        }
        assert_eq!(got.len(), 6);
        assert!(got[3].contains("\"failed\""), "fault lands in a: {}", got[3]);
        assert!(!got[4].contains("\"failed\""), "b untouched: {}", got[4]);
        assert!(got[5].contains("\"ok\":true"), "{}", got[5]);
        server.join();
    }

    #[test]
    fn oversized_requests_get_a_structured_error() {
        let server = Server::start(
            InferConfig::default(),
            None,
            ServerOptions { max_request_bytes: 64, ..ServerOptions::default() },
        );
        let mut client = server.connect();
        let big =
            format!(r#"{{"id":1,"method":"stats","params":{{"pad":"{}"}}}}"#, "x".repeat(100));
        assert_eq!(client.send(&big), SendStatus::Answered);
        client.close();
        let (line, _) = client.recv().expect("error response");
        assert!(line.contains("\"code\":\"too_large\""), "{line}");
    }
}
