//! One serve workspace: a session that keeps parsed sources, the shared
//! store and the last inference result warm, and answers line-delimited
//! JSON requests with millisecond-scale latency. The multi-tenant server
//! (see [`super::server`]) runs many of these behind a scheduler; a single
//! session driven serially through [`ServeSession::handle_line`] is the
//! byte-stable reference the CI golden gate scripts.
//!
//! Protocol (one JSON object per line, in and out):
//!
//! ```text
//! → {"id":1,"method":"load_sources","params":{"sources":[{"name":"A.java","text":"..."}]}}
//! ← {"id":1,"result":{"loaded":1,"skipped":[],"methods":3,"solves":5,"memo_hits":0,"memo_misses":5}}
//! → {"id":2,"method":"query_spec","params":{"method":"A.m"}}
//! ← {"id":2,"result":{"method":"A.m","requires":"...","ensures":"...","confidence":0.97}}
//! ```
//!
//! Requests: `load_sources`, `update_source`, `query_spec`,
//! `query_outcomes`, `query_trace`, `explain`, `inject_faults`, `stats`,
//! `shutdown`. Responses carry
//! either `result` or `error`; a malformed line gets `"id":null`. No
//! response contains wall-clock times, so a scripted session's transcript
//! is byte-stable (the CI golden gate relies on this).
//!
//! Fault tolerance: per-method solve faults (including injected panics)
//! are already isolated by the worklist, so a failing method surfaces in
//! `query_outcomes` as `failed` while the daemon keeps serving.

use super::error_response;
use crate::json::{self, Json};
use analysis::types::MethodId;
use anek_core::{infer_with_store, InferCache, InferConfig, InferResult};
use java_syntax::ast::CompilationUnit;
use spec_lang::{api_with_protocols, standard_api, ApiRegistry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;
use store::{Store, StoreStats};

/// Per-request execution context the scheduler hands a session: an
/// absolute deadline and whether the load shedder degraded this request to
/// a screening-only solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestCtx {
    /// Absolute wall-clock deadline for solves run by this request. A
    /// deadline-truncated run reports `Degraded{deadline-expired}` outcomes;
    /// its truncated solves are never written to the store.
    pub deadline: Option<Instant>,
    /// Force the bit-vector screening pre-pass on for this request's solve
    /// (shed tier 2). The session remembers it owes a full catch-up solve;
    /// the next query performs it.
    pub shed_screen: bool,
}

/// One serve session: sources, configuration, optional store, and the most
/// recent inference result.
pub struct ServeSession {
    api: ApiRegistry,
    /// The session's inference configuration (fault injections accumulate
    /// onto it via `inject_faults`).
    pub config: InferConfig,
    store: Option<Arc<Store>>,
    /// Named sources in deterministic (name) order.
    sources: BTreeMap<String, String>,
    /// Names that failed to parse in the last run.
    skipped: Vec<String>,
    /// The last inference result. Its summary keys and reverse call graph
    /// also give the dirty cone an update reports.
    result: Option<InferResult>,
    /// Monotonic count of inference runs this session has performed. The
    /// registry mirrors it per slot for `server_stats`.
    pub generation: u64,
    /// A shed (screening-only) run left the cached result degraded; the
    /// next query must re-solve fully before answering.
    needs_full: bool,
}

/// What [`ServeSession::handle_line`] produced: the response line and
/// whether the peer asked the daemon to stop.
pub struct Handled {
    /// The serialized JSON response (no trailing newline).
    pub response: String,
    /// True after a `shutdown` request.
    pub shutdown: bool,
}

impl ServeSession {
    /// A fresh session with the API model selected by
    /// `config.protocols` (empty = the standard selection). An unknown
    /// family name falls back to the standard model rather than killing
    /// the daemon: selection is validated at flag-parse time, so this
    /// only guards programmatic callers.
    pub fn new(config: InferConfig, store: Option<Arc<Store>>) -> ServeSession {
        ServeSession {
            api: api_with_protocols(&config.protocols).unwrap_or_else(|_| standard_api()),
            config,
            store,
            sources: BTreeMap::new(),
            skipped: Vec::new(),
            result: None,
            generation: 0,
            needs_full: false,
        }
    }

    /// Handles one request line serially (no deadline, no shedding) — the
    /// protocol path the golden transcript exercises byte-for-byte.
    pub fn handle_line(&mut self, line: &str) -> Handled {
        let request = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                return Handled {
                    response: error_response(Json::Null, &format!("bad request: {e}")),
                    shutdown: false,
                }
            }
        };
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        let method = request.get("method").and_then(Json::as_str).unwrap_or("").to_string();
        let params = request.get("params").cloned().unwrap_or(Json::Obj(Vec::new()));
        self.handle_request(id, &method, &params, &RequestCtx::default())
    }

    /// Handles one parsed request under an execution context. With the
    /// default context this is exactly [`ServeSession::handle_line`] after
    /// parsing; a deadline or shed flag only ever *adds* response fields
    /// (`"deadline":true`, `"shed":"screen"`), so undegraded responses stay
    /// byte-identical to the serial protocol.
    pub fn handle_request(
        &mut self,
        id: Json,
        method: &str,
        params: &Json,
        ctx: &RequestCtx,
    ) -> Handled {
        let mut shutdown = false;
        let outcome = match method {
            "load_sources" => self.load_sources(params, ctx),
            "update_source" => self.update_source(params, ctx),
            "query_spec" => self.query_spec(params),
            "query_outcomes" => self.query_outcomes(),
            "query_trace" => self.query_trace(),
            "explain" => self.explain(params),
            "inject_faults" => self.inject_faults(params, ctx),
            "stats" => Ok(self.stats()),
            "shutdown" => {
                shutdown = true;
                Ok(Json::Obj(vec![("ok".into(), Json::Bool(true))]))
            }
            "" => Err("request has no method".to_string()),
            other => Err(format!("unknown method `{other}`")),
        };
        let response = match outcome {
            Ok(mut result) => {
                if matches!(method, "load_sources" | "update_source" | "inject_faults") {
                    if let Json::Obj(fields) = &mut result {
                        if self.result.as_ref().is_some_and(|r| r.deadline_hit) {
                            fields.push(("deadline".into(), Json::Bool(true)));
                        }
                        if ctx.shed_screen {
                            fields.push(("shed".into(), Json::str("screen")));
                        }
                    }
                }
                Json::Obj(vec![("id".into(), id), ("result".into(), result)]).to_string()
            }
            Err(message) => error_response(id, &message),
        };
        Handled { response, shutdown }
    }

    /// Re-parses every source (leniently) and re-runs inference through the
    /// store. Returns counters shared by several responses.
    fn run_infer(&mut self, ctx: &RequestCtx) -> Json {
        let mut units: Vec<CompilationUnit> = Vec::new();
        self.skipped.clear();
        for (name, text) in &self.sources {
            match java_syntax::parse(text) {
                Ok(unit) => units.push(unit),
                Err(_) => self.skipped.push(name.clone()),
            }
        }
        let saved_screen = self.config.screen;
        self.config.screen = saved_screen || ctx.shed_screen;
        self.config.bp.deadline = ctx.deadline;
        let cache = self.store.as_deref().map(|s| s as &dyn InferCache);
        let result = infer_with_store(&units, &self.api, &self.config, cache);
        self.config.screen = saved_screen;
        self.config.bp.deadline = None;
        self.generation += 1;
        // A shed run marks the session as owing a full catch-up before the
        // next query answers.
        if ctx.shed_screen {
            self.needs_full = true;
        } else if !result.deadline_hit {
            self.needs_full = false;
        }
        let counters = Json::Obj(vec![
            ("methods".into(), Json::num(result.summaries.len())),
            ("solves".into(), Json::num(result.solves)),
            ("memo_hits".into(), Json::num(result.memo_hits)),
            ("memo_misses".into(), Json::num(result.memo_misses)),
        ]);
        self.result = Some(result);
        counters
    }

    fn load_sources(&mut self, params: &Json, ctx: &RequestCtx) -> Result<Json, String> {
        let sources = params
            .get("sources")
            .and_then(Json::as_arr)
            .ok_or("load_sources needs params.sources: [{name, text}]")?;
        self.sources.clear();
        for entry in sources {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or("each source needs a `name`")?
                .to_string();
            let text = entry
                .get("text")
                .and_then(Json::as_str)
                .ok_or("each source needs a `text`")?
                .to_string();
            self.sources.insert(name, text);
        }
        let counters = self.run_infer(ctx);
        let mut fields = vec![
            ("loaded".into(), Json::num(self.sources.len())),
            ("skipped".into(), Json::Arr(self.skipped.iter().map(Json::str).collect())),
        ];
        if let Json::Obj(c) = counters {
            fields.extend(c);
        }
        Ok(Json::Obj(fields))
    }

    fn update_source(&mut self, params: &Json, ctx: &RequestCtx) -> Result<Json, String> {
        let name = params
            .get("name")
            .and_then(Json::as_str)
            .ok_or("update_source needs params.name")?
            .to_string();
        let text = params
            .get("text")
            .and_then(Json::as_str)
            .ok_or("update_source needs params.text")?
            .to_string();
        if !self.sources.contains_key(&name) {
            return Err(format!("unknown source `{name}` (load_sources first)"));
        }
        // Reported before re-running so the peer can see what the edit
        // *can* invalidate.
        let cone = self.result.as_ref().map_or_else(BTreeSet::new, |last| {
            dirty_cone(last, [self.sources.get(&name), Some(&text)].into_iter().flatten())
        });
        self.sources.insert(name, text);
        let counters = self.run_infer(ctx);
        let mut fields = vec![(
            "dirty".into(),
            Json::Arr(cone.iter().map(|id| Json::str(id.to_string())).collect()),
        )];
        if let Json::Obj(c) = counters {
            fields.extend(c);
        }
        Ok(Json::Obj(fields))
    }

    fn query_spec(&mut self, params: &Json) -> Result<Json, String> {
        self.ensure_full();
        let target =
            params.get("method").and_then(Json::as_str).ok_or("query_spec needs params.method")?;
        let (class, method) =
            target.split_once('.').ok_or("params.method must be `Class.method`")?;
        let id = MethodId::new(class, method);
        let result = self.result.as_ref().ok_or("no sources loaded")?;
        let spec = result.specs.get(&id).ok_or_else(|| format!("unknown method `{target}`"))?;
        let confidence = result.confidence.get(&id).copied().unwrap_or(1.0);
        Ok(Json::Obj(vec![
            ("method".into(), Json::str(target)),
            ("requires".into(), Json::str(spec.requires.to_string())),
            ("ensures".into(), Json::str(spec.ensures.to_string())),
            // Two decimals: enough to read, stable across float formatting.
            ("confidence".into(), Json::str(format!("{confidence:.2}"))),
        ]))
    }

    fn query_outcomes(&mut self) -> Result<Json, String> {
        self.ensure_full();
        let result = self.result.as_ref().ok_or("no sources loaded")?;
        let outcomes = result
            .outcomes
            .iter()
            .map(|(id, outcome)| {
                Json::Obj(vec![
                    ("method".into(), Json::str(id.to_string())),
                    ("status".into(), Json::str(outcome.status())),
                    ("detail".into(), Json::str(outcome.detail())),
                ])
            })
            .collect();
        Ok(Json::Obj(vec![
            ("skipped".into(), Json::Arr(self.skipped.iter().map(Json::str).collect())),
            ("outcomes".into(), Json::Arr(outcomes)),
        ]))
    }

    /// Returns the deterministic trace of the last inference run as its
    /// three canonical JSON lines. Requires the session to run with
    /// tracing enabled (`anek serve --trace`).
    fn query_trace(&mut self) -> Result<Json, String> {
        self.ensure_full();
        let result = self.result.as_ref().ok_or("no sources loaded")?;
        let trace =
            result.trace.as_ref().ok_or("tracing is disabled (start the server with --trace)")?;
        let lines: Vec<Json> = trace.render().lines().map(Json::str).collect();
        Ok(Json::Obj(vec![
            ("generation".into(), Json::num(self.generation as usize)),
            ("lines".into(), Json::Arr(lines)),
        ]))
    }

    /// Explains why a method's annotation was inferred: the factor-family
    /// and neighbor-summary contributions behind each spec atom's belief
    /// (see `anek_core::explain_method`).
    fn explain(&mut self, params: &Json) -> Result<Json, String> {
        self.ensure_full();
        let target =
            params.get("method").and_then(Json::as_str).ok_or("explain needs params.method")?;
        let (class, method) =
            target.split_once('.').ok_or("params.method must be `Class.method`")?;
        let id = MethodId::new(class, method);
        let result = self.result.as_ref().ok_or("no sources loaded")?;
        let mut units: Vec<CompilationUnit> = Vec::new();
        for text in self.sources.values() {
            if let Ok(unit) = java_syntax::parse(text) {
                units.push(unit);
            }
        }
        let explanation = anek_core::explain_method(&units, &self.api, &self.config, result, &id)?;
        let contributors = |cs: &[anek_core::Contributor]| {
            Json::Arr(
                cs.iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("label".into(), Json::str(&c.label)),
                            ("detail".into(), Json::str(&c.detail)),
                            ("log_odds".into(), Json::Num(c.log_odds)),
                        ])
                    })
                    .collect(),
            )
        };
        let atoms: Vec<Json> = explanation
            .atoms
            .iter()
            .map(|a| {
                Json::Obj(vec![
                    ("clause".into(), Json::str(&a.clause)),
                    ("atom".into(), Json::str(&a.atom)),
                    ("belief".into(), Json::Num(a.belief)),
                    ("kind".into(), contributors(&a.kind_contributors)),
                    ("state".into(), contributors(&a.state_contributors)),
                ])
            })
            .collect();
        Ok(Json::Obj(vec![
            ("method".into(), Json::str(target)),
            ("atoms".into(), Json::Arr(atoms)),
            ("text".into(), Json::str(explanation.render_text())),
        ]))
    }

    /// Re-solves fully when the cached result is missing (evicted) or was
    /// produced by a shed screening-only run. The content-addressed store
    /// makes the catch-up warm, so the rebuilt state is byte-identical to
    /// the state an unshedded serial run would hold.
    fn ensure_full(&mut self) {
        if (self.needs_full || self.result.is_none()) && !self.sources.is_empty() {
            self.run_infer(&RequestCtx::default());
        }
    }

    /// Deterministic counters of the last inference run, mirrored by the
    /// registry per slot so `server_stats` can report a per-session
    /// breakdown without taking session locks: `(solves, memo_hits,
    /// memo_misses, screened_methods)`. All zero before the first run or
    /// after eviction.
    pub fn counter_snapshot(&self) -> (usize, usize, usize, usize) {
        self.result
            .as_ref()
            .map_or((0, 0, 0, 0), |r| (r.solves, r.memo_hits, r.memo_misses, r.screened_methods))
    }

    /// Drops the heavyweight state (the last result), keeping sources and
    /// configuration. The next query transparently rebuilds it via
    /// [`ServeSession::ensure_full`].
    pub fn evict_heavy(&mut self) {
        self.result = None;
    }

    /// Coarse, deterministic estimate of this session's *evictable*
    /// heavyweight footprint in bytes — LRU bookkeeping for the registry's
    /// memory budget, not an allocator measurement. Zero after
    /// [`ServeSession::evict_heavy`] (unevictable sources and config are
    /// deliberately excluded, so the budget loop always terminates).
    pub fn resident_bytes(&self) -> usize {
        self.result.as_ref().map_or(0, |r| {
            let sources: usize = self.sources.iter().map(|(n, t)| n.len() + t.len()).sum();
            sources + r.summaries.len() * 4096
        })
    }

    fn inject_faults(&mut self, params: &Json, ctx: &RequestCtx) -> Result<Json, String> {
        let text =
            params.get("plan").and_then(Json::as_str).ok_or("inject_faults needs params.plan")?;
        let plan = corpus::FaultPlan::parse(text)?;
        plan.apply_config(&mut self.config);
        // Source-corruption faults garble the stored texts in name order —
        // the same deterministic streams `anek infer --inject` uses.
        let mut texts: Vec<String> = self.sources.values().cloned().collect();
        plan.apply_sources(&mut texts);
        for (slot, text) in self.sources.values_mut().zip(texts) {
            *slot = text;
        }
        let counters = self.run_infer(ctx);
        let failed: Vec<Json> = self
            .result
            .as_ref()
            .map(|r| {
                r.outcomes
                    .iter()
                    .filter(|(_, o)| o.is_failed())
                    .map(|(id, _)| Json::str(id.to_string()))
                    .collect()
            })
            .unwrap_or_default();
        let mut fields = vec![("failed".into(), Json::Arr(failed))];
        if let Json::Obj(c) = counters {
            fields.extend(c);
        }
        Ok(Json::Obj(fields))
    }

    fn stats(&self) -> Json {
        let mut fields = vec![
            ("sources".into(), Json::num(self.sources.len())),
            ("generation".into(), Json::num(self.generation as usize)),
            ("methods".into(), Json::num(self.result.as_ref().map_or(0, |r| r.summaries.len()))),
            ("memo_hits".into(), Json::num(self.result.as_ref().map_or(0, |r| r.memo_hits))),
            ("memo_misses".into(), Json::num(self.result.as_ref().map_or(0, |r| r.memo_misses))),
            (
                "discarded_solves".into(),
                Json::num(self.result.as_ref().map_or(0, |r| r.discarded_solves)),
            ),
            (
                "speculative_solves".into(),
                Json::num(self.result.as_ref().map_or(0, |r| r.speculative_solves)),
            ),
            // Commit-stall accounting is deterministic *counts* here
            // (`stalled_chunks` / `speculated_chunks`); the wall-clock
            // stall duration is bench-only and never crosses the protocol.
            (
                "speculated_chunks".into(),
                Json::num(self.result.as_ref().map_or(0, |r| r.speculated_chunks)),
            ),
            (
                "stalled_chunks".into(),
                Json::num(self.result.as_ref().map_or(0, |r| r.stalled_chunks)),
            ),
            (
                "screened_methods".into(),
                Json::num(self.result.as_ref().map_or(0, |r| r.screened_methods)),
            ),
        ];
        let store_field = match &self.store {
            Some(store) => {
                let StoreStats {
                    solve_hits,
                    solve_misses,
                    pfg_hits: _,
                    pfg_misses: _,
                    corrupt_entries,
                    entries,
                    inserted,
                } = store.stats();
                Json::Obj(vec![
                    ("solve_hits".into(), Json::num(solve_hits)),
                    ("solve_misses".into(), Json::num(solve_misses)),
                    ("corrupt_entries".into(), Json::num(corrupt_entries)),
                    ("entries".into(), Json::num(entries)),
                    ("inserted".into(), Json::num(inserted)),
                ])
            }
            None => Json::Null,
        };
        fields.push(("store".into(), store_field));
        Json::Obj(fields)
    }
}

/// The dirty cone of an edit to one source file: the methods `last`
/// inferred for every class that any of `versions` (the file's old and new
/// text) declares, closed transitively over `last`'s reverse call graph.
fn dirty_cone<'a>(
    last: &InferResult,
    versions: impl IntoIterator<Item = &'a String>,
) -> BTreeSet<MethodId> {
    let mut cone = BTreeSet::new();
    for version in versions {
        let Ok(unit) = java_syntax::parse(version) else { continue };
        for t in &unit.types {
            cone.extend(last.summaries.keys().filter(|id| id.class == t.name).cloned());
        }
    }
    let mut frontier: Vec<MethodId> = cone.iter().cloned().collect();
    while let Some(id) = frontier.pop() {
        for caller in last.callers.get(&id).into_iter().flatten() {
            if cone.insert(caller.clone()) {
                frontier.push(caller.clone());
            }
        }
    }
    cone
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(session: &mut ServeSession, line: &str) -> Json {
        let handled = session.handle_line(line);
        json::parse(&handled.response).expect("response is valid JSON")
    }

    #[test]
    fn session_loads_queries_and_updates() {
        let mut s = ServeSession::new(InferConfig::default(), None);
        let loaded = req(
            &mut s,
            r#"{"id":1,"method":"load_sources","params":{"sources":[{"name":"App.java","text":"class App { void drain(Iterator<Integer> it) { while (it.hasNext()) { it.next(); } } }"}]}}"#,
        );
        let result = loaded.get("result").expect("result");
        assert_eq!(result.get("loaded").and_then(Json::as_num), Some(1.0));
        let spec = req(&mut s, r#"{"id":2,"method":"query_spec","params":{"method":"App.drain"}}"#);
        let requires = spec
            .get("result")
            .and_then(|r| r.get("requires"))
            .and_then(Json::as_str)
            .expect("requires");
        assert!(requires.contains("it"), "drain should require permission on `it`: {requires}");
        let updated = req(
            &mut s,
            r#"{"id":3,"method":"update_source","params":{"name":"App.java","text":"class App { void drain(Iterator<Integer> it) { it.next(); } }"}}"#,
        );
        let dirty = updated
            .get("result")
            .and_then(|r| r.get("dirty"))
            .and_then(Json::as_arr)
            .expect("dirty cone");
        assert_eq!(dirty.iter().filter_map(Json::as_str).collect::<Vec<_>>(), ["App.drain"]);
    }

    #[test]
    fn malformed_and_unknown_requests_answer_with_errors() {
        let mut s = ServeSession::new(InferConfig::default(), None);
        let bad = req(&mut s, "{nope");
        assert!(bad.get("error").is_some());
        let unknown = req(&mut s, r#"{"id":9,"method":"frobnicate"}"#);
        let msg = unknown
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .expect("message");
        assert!(msg.contains("frobnicate"));
        assert_eq!(unknown.get("id").and_then(Json::as_num), Some(9.0));
        let spec_too_early =
            req(&mut s, r#"{"id":10,"method":"query_spec","params":{"method":"A.m"}}"#);
        assert!(spec_too_early.get("error").is_some());
    }

    #[test]
    fn injected_panic_fails_method_but_session_survives() {
        let mut s = ServeSession::new(InferConfig::default(), None);
        req(
            &mut s,
            r#"{"id":1,"method":"load_sources","params":{"sources":[{"name":"App.java","text":"class App { void copy(Iterator<Integer> it) { it.next(); } void other(Iterator<Integer> it) { it.hasNext(); } }"}]}}"#,
        );
        let status_in = |response: &Json, m: &str| {
            response.get("result").and_then(|r| r.get("outcomes")).and_then(Json::as_arr).and_then(
                |table| {
                    table
                        .iter()
                        .find(|o| o.get("method").and_then(Json::as_str) == Some(m))
                        .and_then(|o| o.get("status"))
                        .and_then(Json::as_str)
                        .map(ToOwned::to_owned)
                },
            )
        };
        let before = req(&mut s, r#"{"id":8,"method":"query_outcomes"}"#);
        let other_before = status_in(&before, "App.other").expect("App.other outcome");
        assert_ne!(other_before, "failed");
        let injected =
            req(&mut s, r#"{"id":2,"method":"inject_faults","params":{"plan":"panic App.copy"}}"#);
        let failed = injected
            .get("result")
            .and_then(|r| r.get("failed"))
            .and_then(Json::as_arr)
            .expect("failed list");
        assert_eq!(failed.iter().filter_map(Json::as_str).collect::<Vec<_>>(), ["App.copy"]);
        let outcomes = req(&mut s, r#"{"id":3,"method":"query_outcomes"}"#);
        assert_eq!(status_in(&outcomes, "App.copy").as_deref(), Some("failed"));
        // Zero blast radius: the fault must not change App.other's outcome.
        assert_eq!(status_in(&outcomes, "App.other"), Some(other_before));
        let shutdown = s.handle_line(r#"{"id":4,"method":"shutdown"}"#);
        assert!(shutdown.shutdown);
    }

    #[test]
    fn stats_reports_speculation_counters() {
        let mut s = ServeSession::new(InferConfig { threads: 4, ..InferConfig::default() }, None);
        req(
            &mut s,
            r#"{"id":1,"method":"load_sources","params":{"sources":[{"name":"App.java","text":"class App { void copy(Iterator<Integer> it) { drain(it); } void drain(Iterator<Integer> it) { it.next(); } void other(Iterator<Integer> it) { it.hasNext(); } }"}]}}"#,
        );
        let stats = req(&mut s, r#"{"id":2,"method":"stats"}"#);
        let result = stats.get("result").expect("result").clone();
        let num = |k: &str| result.get(k).and_then(Json::as_num).unwrap_or_else(|| panic!("{k}"));
        // `copy` calls `drain`, so they never share a speculation chunk:
        // `drain` and the independent `other` are speculated together, and
        // no merge leaves a speculation stale. Stall accounting is the
        // deterministic chunk counts — the wall-clock stall duration is
        // bench-only and deliberately absent from the protocol.
        assert!(num("speculative_solves") >= 2.0, "expected speculation, got {stats}");
        assert_eq!(num("discarded_solves"), 0.0, "no speculation may go stale: {stats}");
        assert!(num("speculated_chunks") >= 1.0, "expected speculated chunks, got {stats}");
        assert_eq!(num("stalled_chunks"), 0.0, "{stats}");
        assert!(!stats.to_string().contains("commit_stall_ms"), "wall clock leaked: {stats}");
    }

    #[test]
    fn query_trace_and_explain_answer_when_tracing_is_on() {
        let cfg = InferConfig { trace: true, ..InferConfig::default() };
        let mut s = ServeSession::new(cfg, None);
        req(
            &mut s,
            r#"{"id":1,"method":"load_sources","params":{"sources":[{"name":"App.java","text":"class App { void drain(Iterator<Integer> it) { while (it.hasNext()) { it.next(); } } }"}]}}"#,
        );
        let trace = req(&mut s, r#"{"id":2,"method":"query_trace"}"#);
        let lines = trace
            .get("result")
            .and_then(|r| r.get("lines"))
            .and_then(Json::as_arr)
            .expect("trace lines");
        assert_eq!(lines.len(), 3, "one line per determinism section");
        assert!(lines[0].as_str().unwrap().contains("\"section\":\"spec\""));
        let explained =
            req(&mut s, r#"{"id":3,"method":"explain","params":{"method":"App.drain"}}"#);
        let text = explained
            .get("result")
            .and_then(|r| r.get("text"))
            .and_then(Json::as_str)
            .expect("explain text");
        assert!(text.contains("PROT"), "drain's precondition is protocol-driven: {text}");
        // Tracing off → query_trace is a clean protocol error.
        let mut bare = ServeSession::new(InferConfig::default(), None);
        req(
            &mut bare,
            r#"{"id":1,"method":"load_sources","params":{"sources":[{"name":"App.java","text":"class App { void f(Iterator<Integer> it) { it.next(); } }"}]}}"#,
        );
        let err = req(&mut bare, r#"{"id":2,"method":"query_trace"}"#);
        let msg = err
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .expect("error message");
        assert!(msg.contains("--trace"), "{msg}");
    }
}
