//! The `serve_edits` client: one closed-loop client driving an in-process
//! `ServeSession` (the object `anek serve` wraps) through the JSON-lines
//! protocol, with a persistent store in a scratch directory.

use crate::report::{ratio, Outcome};
use crate::stats;
use crate::workload::{infer_config, Input, Workload};
use anek::java_syntax::ast::{Expr, ExprKind, MethodDecl};
use anek::java_syntax::visit::{walk_expr, walk_method, Visitor};
use anek::java_syntax::{parse, CompilationUnit};
use anek::json::{self, Json};
use anek::store::Store;
use anek::ServeSession;
use prng::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One edit site: the byte offset of a `while (` in one source.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    /// Index of the source.
    pub unit: usize,
    /// Byte offset of `while (` in it.
    pub offset: usize,
}

const LOOP: &str = "while (";
const BRANCH: &str = "if (";

/// Every `while (` inside a method that calls, or is called from, a method
/// of another class. Screening only skips methods with neither, so turning
/// such a loop into a branch always costs a re-solve.
pub fn edit_sites(sources: &[String]) -> Vec<Site> {
    let units: Vec<CompilationUnit> =
        sources.iter().map(|s| parse(s).expect("generated sources parse")).collect();
    let mut declared: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for unit in &units {
        for (t, m) in unit.methods() {
            declared.entry(m.name.as_str()).or_default().insert(t.name.as_str());
        }
    }
    let crosses = |class: &str, callee: &str| {
        declared.get(callee).is_some_and(|owners| owners.iter().any(|c| *c != class))
    };
    let mut called_across: BTreeSet<String> = BTreeSet::new();
    for unit in &units {
        for (t, m) in unit.methods() {
            called_across.extend(call_names(m).into_iter().filter(|n| crosses(&t.name, n)));
        }
    }
    let mut sites = Vec::new();
    for (u, unit) in units.iter().enumerate() {
        for (t, m) in unit.methods() {
            let calls_out = call_names(m).iter().any(|n| crosses(&t.name, n));
            if !calls_out && !called_across.contains(&m.name) {
                continue;
            }
            let (start, end) = (m.span.start.offset, m.span.end.offset);
            for (i, _) in sources[u][start..end].match_indices(LOOP) {
                sites.push(Site { unit: u, offset: start + i });
            }
        }
    }
    sites
}

fn call_names(m: &MethodDecl) -> Vec<String> {
    struct Calls(Vec<String>);
    impl Visitor for Calls {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprKind::Call { name, .. } = &e.kind {
                self.0.push(name.clone());
            }
            walk_expr(self, e);
        }
    }
    let mut calls = Calls(Vec::new());
    walk_method(&mut calls, m);
    calls.0
}

/// `source` with the loop at `site` turned into a one-shot branch whose
/// body starts by declaring `int benchEdit = <round>;`. The numbered local
/// keeps every edit of a run distinct: repeating an edit the store has
/// already seen would be a store hit, not a re-solve.
pub fn apply_edit(source: &str, site: Site, round: usize) -> String {
    assert_eq!(&source[site.offset..site.offset + LOOP.len()], LOOP, "stale edit site");
    let rest = &source[site.offset + LOOP.len()..];
    let body = rest.find('{').expect("a loop has a body") + 1;
    format!("{}{BRANCH}{}{}{}", &source[..site.offset], &rest[..body], marker(round), &rest[body..])
}

fn marker(round: usize) -> String {
    format!(" int benchEdit = {round};")
}

/// A permutation of `0..n` drawn from `seed`: the order in which a run
/// visits edit sites (or units), so every seed edits in its own order.
pub fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed ^ 0x5eed_ed17);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_index(0..i + 1));
    }
    order
}

/// A directory under the benchmark's build directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh, empty directory named after `tag`.
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = output_dir().join("bench-work").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        ScratchDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Total size of the files under the directory, in bytes.
    pub fn bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            std::fs::read_dir(dir).into_iter().flatten().flatten().fold(0, |sum, entry| {
                let meta = entry.metadata();
                sum + match meta {
                    Ok(m) if m.is_dir() => walk(&entry.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                }
            })
        }
        walk(&self.0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark writes its span files and scratch stores: the
/// directory holding its own executable, inside the build directory, so a
/// run never writes into the source tree.
pub fn output_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// A live session over a fresh store, with request bookkeeping.
pub struct Client {
    session: ServeSession,
    store: Arc<Store>,
    dir: ScratchDir,
    next_id: usize,
    /// Requests sent.
    pub attempted: usize,
    /// Error responses received.
    pub errors: Vec<String>,
}

impl Client {
    /// A session for `workload`'s configuration over an empty store.
    pub fn new(workload: Workload, input: &Input) -> Client {
        let dir = ScratchDir::new("store");
        let store = Arc::new(Store::open(dir.path()).expect("open scratch store"));
        let session = ServeSession::new(infer_config(workload, input), Some(Arc::clone(&store)));
        Client { session, store, dir, next_id: 0, attempted: 0, errors: Vec::new() }
    }

    /// Sends one request; returns its `result` (`Null` after an error) and
    /// its latency in seconds.
    pub fn request(&mut self, method: &str, params: Json) -> (Json, f64) {
        self.next_id += 1;
        let line = Json::Obj(vec![
            ("id".into(), Json::num(self.next_id)),
            ("method".into(), Json::str(method)),
            ("params".into(), params),
        ])
        .to_string();
        let t = Instant::now();
        let handled = self.session.handle_line(&line);
        let elapsed = t.elapsed().as_secs_f64();
        self.attempted += 1;
        let response = json::parse(&handled.response).unwrap_or(Json::Null);
        match response.get("result") {
            Some(result) => (result.clone(), elapsed),
            None => {
                self.errors.push(format!("{method}: {}", handled.response));
                (Json::Null, elapsed)
            }
        }
    }

    /// `load_sources` with every source of `input`.
    pub fn load(&mut self, input: &Input) -> f64 {
        let sources = input
            .names
            .iter()
            .zip(&input.sources)
            .map(|(name, text)| {
                Json::Obj(vec![("name".into(), Json::str(name)), ("text".into(), Json::str(text))])
            })
            .collect();
        self.request("load_sources", Json::Obj(vec![("sources".into(), Json::Arr(sources))])).1
    }

    /// `update_source`; returns the response and its latency.
    pub fn update(&mut self, name: &str, text: &str) -> (Json, f64) {
        let params =
            Json::Obj(vec![("name".into(), Json::str(name)), ("text".into(), Json::str(text))]);
        self.request("update_source", params)
    }

    /// `query_spec` for `Class.method`; returns the answer and its latency.
    pub fn query(&mut self, method: &str) -> (String, f64) {
        let (result, secs) =
            self.request("query_spec", Json::Obj(vec![("method".into(), Json::str(method))]));
        (result.to_string(), secs)
    }

    /// The answer to `query_spec` for `method`, or `None` when the session
    /// has no spec for it: a screened method is never modeled, so it
    /// answers `unknown method` by design, which is not a failure.
    fn probe(&mut self, method: &str) -> Option<String> {
        let errors = self.errors.len();
        let answer = self.query(method).0;
        if self.errors.len() > errors {
            self.errors.truncate(errors);
            return None;
        }
        Some(answer)
    }

    /// Solve and PFG counters of the store, and its size on disk.
    pub fn store_stats(&self) -> (anek::store::StoreStats, u64) {
        (self.store.stats(), self.dir.bytes())
    }
}

/// `Class.method` for every method of source `unit`.
fn methods_of(input: &Input, unit: usize) -> Vec<String> {
    input.corpus.units[unit].methods().map(|(t, m)| format!("{}.{}", t.name, m.name)).collect()
}

/// What one session loop measured.
#[derive(Default)]
pub struct Loop {
    /// Latency of updates that re-solve (edits), ms.
    pub resolve_ms: Vec<f64>,
    /// Process CPU of those updates, ms.
    pub resolve_cpu_ms: Vec<f64>,
    /// Latency of updates that are all store hits (reverts, or unchanged
    /// re-saves), ms.
    pub cached_ms: Vec<f64>,
    /// `query_spec` latency, µs.
    pub query_us: Vec<f64>,
    /// Dirty-cone size per first update of a round.
    pub dirty: Vec<f64>,
    /// Store misses (re-solves) per first update of a round.
    pub misses: Vec<f64>,
    /// Memo hits and misses over every update.
    pub memo: (f64, f64),
    /// Revert answers that differ from the cold-load answers.
    pub problems: Vec<String>,
}

impl Loop {
    fn record_memo(&mut self, response: &Json) {
        let num = |k: &str| response.get(k).and_then(Json::as_num).unwrap_or(0.0);
        self.memo.0 += num("memo_hits");
        self.memo.1 += num("memo_misses");
    }
}

/// Drives `client` in rounds until `seconds` pass (at least one round).
///
/// With edits, a round sends an edit from `sites` (in `order`), queries
/// every method of the edited unit, reverts the edit, queries again and
/// checks the answers equal the cold-load answers. Without edits, a round
/// re-saves one unit unchanged and queries it, which measures the cached
/// update path on any program.
pub fn drive(
    client: &mut Client,
    input: &Input,
    edits: Option<(&[Site], &[usize])>,
    seed: u64,
    seconds: f64,
) -> Loop {
    let mut out = Loop::default();
    let units: Vec<usize> = match edits {
        Some((sites, _)) => {
            sites.iter().map(|s| s.unit).collect::<BTreeSet<_>>().into_iter().collect()
        }
        None => seeded_order(input.sources.len(), seed),
    };
    // The answers right after the cold load, for every method that has one.
    let mut cold: BTreeMap<String, String> = BTreeMap::new();
    for &u in &units {
        for method in methods_of(input, u) {
            if let Some(answer) = client.probe(&method) {
                cold.insert(method, answer);
            }
        }
    }
    let queryable = |unit: usize| -> Vec<String> {
        methods_of(input, unit).into_iter().filter(|m| cold.contains_key(m)).collect()
    };
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        let (unit, text) = match edits {
            Some((sites, order)) => {
                let site = sites[order[round % order.len()]];
                (site.unit, apply_edit(&input.sources[site.unit], site, round))
            }
            None => {
                let u = units[round % units.len()];
                (u, input.sources[u].clone())
            }
        };
        round += 1;
        let name = &input.names[unit];
        let c0 = stats::process_cpu_s();
        let (response, secs) = client.update(name, &text);
        let cpu = stats::process_cpu_s() - c0;
        out.record_memo(&response);
        out.dirty
            .push(response.get("dirty").and_then(Json::as_arr).map_or(0, <[Json]>::len) as f64);
        out.misses.push(response.get("memo_misses").and_then(Json::as_num).unwrap_or(0.0));
        if edits.is_some() {
            out.resolve_ms.push(secs * 1e3);
            out.resolve_cpu_ms.push(cpu * 1e3);
        } else {
            out.cached_ms.push(secs * 1e3);
        }
        for method in queryable(unit) {
            out.query_us.push(client.query(&method).1 * 1e6);
        }
        if edits.is_none() {
            continue;
        }
        let (response, secs) = client.update(name, &input.sources[unit]);
        out.record_memo(&response);
        out.cached_ms.push(secs * 1e3);
        for method in queryable(unit) {
            let (answer, secs) = client.query(&method);
            out.query_us.push(secs * 1e6);
            if cold.get(&method) != Some(&answer) {
                out.problems.push(format!(
                    "{method} answers {answer} after a revert, not its cold-load spec"
                ));
            }
        }
    }
    out
}

/// Cold loads per `serve_edits` run; `setup_s` is their median.
const SERVE_SETUPS: usize = 3;

/// The untraced `serve_edits` run: [`SERVE_SETUPS`] cold loads, each on an
/// empty store, then edit/revert rounds until `seconds` pass.
pub fn run_serve(seed: u64, seconds: f64) -> Outcome {
    let workload = Workload::ServeEdits;
    let mut out = Outcome::new(workload, false);
    let mut setups = Vec::new();
    let mut live = None;
    for load in 0..SERVE_SETUPS {
        // Drop the previous session first, so two never coexist.
        drop(live.take());
        let t = Instant::now();
        let input = Input::generate(workload, seed);
        let mut client = Client::new(workload, &input);
        client.load(&input);
        setups.push(t.elapsed().as_secs_f64());
        if load == 0 {
            // The cold load is the session's one full inference, so its
            // peak is the session's peak. Later loads and rounds only add
            // allocator fragmentation, which varies from run to run.
            out.set("peak_rss_mb", stats::peak_rss_mb());
        }
        live = Some((input, client));
    }
    let (input, mut client) = live.expect("at least one set-up");
    let sites = edit_sites(&input.sources);
    let order = seeded_order(sites.len(), seed);
    if sites.is_empty() {
        out.problems.push("the corpus has no edit site".into());
        return out;
    }
    let run = drive(&mut client, &input, Some((&sites, &order)), seed, seconds);
    out.problems.extend(run.problems);
    out.problems.extend(client.errors.iter().cloned());
    out.attempted = client.attempted;
    out.failed = client.errors.len();
    out.notes.push(format!(
        "{} edit sites; {} edits re-solved {:.1} methods each (dirty cone {:.1}); \
         edit p50 {:.1} ms (anek.request_p50_ms in the traced run), revert p50 {:.1} ms",
        sites.len(),
        run.resolve_ms.len(),
        ratio(run.misses.iter().sum(), run.misses.len() as f64),
        ratio(run.dirty.iter().sum(), run.dirty.len() as f64),
        stats::median(&run.resolve_ms),
        stats::median(&run.cached_ms)
    ));
    out.set_sampled("setup_s", stats::median(&setups), setups.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmd_input(seed: u64) -> Input {
        Input::generate(Workload::ServeEdits, seed)
    }

    #[test]
    fn edits_parse_and_reverts_restore_the_original_bytes() {
        let input = pmd_input(42);
        let sites = edit_sites(&input.sources);
        assert!(sites.len() >= 3, "the serve corpus needs several edit sites: {sites:?}");
        for (round, &site) in sites.iter().enumerate() {
            let original = &input.sources[site.unit];
            let edited = apply_edit(original, site, round);
            parse(&edited).unwrap_or_else(|e| panic!("edit at {site:?} does not parse: {e}"));
            assert_ne!(apply_edit(original, site, round + 1), edited, "every round is a new text");
            // Undoing the two changes gives back the original bytes: the
            // edit touched nothing outside its site.
            let unmarked = edited.replacen(&marker(round), "", 1);
            let restored = format!(
                "{}{LOOP}{}",
                &unmarked[..site.offset],
                &unmarked[site.offset + BRANCH.len()..]
            );
            assert_eq!(&restored, original);
        }
    }

    #[test]
    fn edit_sites_lie_in_methods_screening_cannot_skip() {
        let input = pmd_input(7);
        for site in edit_sites(&input.sources) {
            let unit = &input.corpus.units[site.unit];
            let (_, m) = unit
                .methods()
                .find(|(_, m)| (m.span.start.offset..m.span.end.offset).contains(&site.offset))
                .expect("every site lies in a method");
            let calls_helper = call_names(m).iter().any(|n| n.starts_with("createIter"));
            assert!(calls_helper || m.name == "drainSum", "{} is isolated", m.name);
        }
    }

    #[test]
    fn seeded_order_is_deterministic_per_seed_and_differs_across_seeds() {
        assert_eq!(seeded_order(12, 42), seeded_order(12, 42));
        assert_ne!(seeded_order(12, 42), seeded_order(12, 7));
        let mut order = seeded_order(12, 7);
        order.sort_unstable();
        assert_eq!(order, (0..12).collect::<Vec<_>>(), "a permutation");
        let a = edit_sites(&pmd_input(42).sources);
        let b = edit_sites(&pmd_input(42).sources);
        assert_eq!(a, b, "same seed, same sites");
    }

    #[test]
    fn scratch_dirs_are_removed_on_drop() {
        let dir = ScratchDir::new("test");
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("f"), b"1234").unwrap();
        assert_eq!(dir.bytes(), 4);
        drop(dir);
        assert!(!path.exists());
    }
}
