//! Content-addressed memoization of per-method solves — the contract
//! between [`crate::infer::infer_with_store`] and a persistent summary
//! store (the `store` crate).
//!
//! ## Why memoizing single solves gives byte-identical incremental runs
//!
//! The worklist commits a deterministic sequence of per-method solves, and
//! each solve is a *pure function* of
//!
//! 1. the method's **static** inputs — its declaring unit's canonical
//!    source (which fixes the AST, the `ExprId` numbering, the PFG and the
//!    compiled skeleton), the program's *interface* (every signature,
//!    field, class annotation and `@Perm` spec any model may consult
//!    through the `ProgramIndex`), the API registry, the inference
//!    configuration, and any fault injected into this method; and
//! 2. its **dynamic** inputs — the current summaries of its program
//!    callees and its own caller-evidence store.
//!
//! Hashing exactly those inputs into a [`CacheKey`] therefore makes a
//! lookup sound: a hit replays the bit-identical [`SolvedRecord`] a fresh
//! solve would have produced. An incremental warm run *re-runs the whole
//! worklist schedule* — so its committed sequence, counters and final
//! tables are byte-identical to a cold run — but every solve outside the
//! edited source's transitive dirty cone hits the memo and costs a hash
//! lookup instead of a skeleton build plus message passing. Invalidation
//! needs no explicit dependency tracking; it falls out of the keys:
//!
//! * editing a method body changes its unit's fingerprint → its own solves
//!   miss;
//! * if its re-solved summary changes, its callers' dynamic inputs change →
//!   their solves miss, transitively (the dirty cone);
//! * editing any *signature*, field, class annotation or spec changes the
//!   interface fingerprint → every method conservatively misses;
//! * changing the configuration (or the store format) changes every key.
//!
//! The store is consulted only at commit time on the merge thread, so
//! hit/miss counters are deterministic for every `--threads` value.

use crate::config::InferConfig;
use crate::model::{CallEvidence, CallerEvidence};
use crate::summary::{MethodSummary, SlotProbs};
use analysis::types::MethodId;
use factor_graph::GuardEvents;
use java_syntax::ast::CompilationUnit;
use spec_lang::ApiRegistry;

/// Version of the key-derivation scheme. Bumped whenever the hashed input
/// set, the hash function, or the meaning of any hashed field changes —
/// stale stores then miss cleanly instead of replaying records produced
/// under different semantics. Also bumped when the BP kernel's arithmetic
/// changes the bits a solve produces (v4: factor messages by per-dimension
/// contraction), so records from the old kernel are never replayed. v5:
/// the BP schedule and message precision are no longer options, so the
/// config fingerprint stops hashing them.
pub const KEY_SCHEME_VERSION: u32 = 5;

/// A 128-bit content hash addressing one cached artifact.
pub type CacheKey = u128;

/// An incremental FNV-1a hasher widened to 128 bits by running two
/// independent 64-bit streams with distinct offset bases. Hand-rolled so
/// keys are stable across platforms, builds and processes (unlike
/// `DefaultHasher`, whose algorithm is unspecified).
#[derive(Debug, Clone)]
pub struct KeyHasher {
    a: u64,
    b: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
/// Second stream: the standard offset basis XOR an arbitrary odd constant,
/// so the two streams never agree.
const FNV_OFFSET_B: u64 = 0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15;

impl Default for KeyHasher {
    fn default() -> KeyHasher {
        KeyHasher::new()
    }
}

impl KeyHasher {
    /// A fresh hasher.
    pub fn new() -> KeyHasher {
        KeyHasher { a: FNV_OFFSET_A, b: FNV_OFFSET_B }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a length-prefixed string (prefixing prevents concatenation
    /// ambiguity between adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Feeds a `u64` in little-endian order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a bool as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write(&[u8::from(v)]);
    }

    /// Feeds an `f64` by exact bit pattern — two summaries hash equal iff
    /// they are bit-identical, which is precisely the determinism contract.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The accumulated 128-bit key.
    pub fn finish(&self) -> CacheKey {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

/// Hashes a whole byte slice in one call.
pub fn hash_bytes(bytes: &[u8]) -> CacheKey {
    let mut h = KeyHasher::new();
    h.write(bytes);
    h.finish()
}

/// Fingerprint of every [`InferConfig`] field that can influence a solve's
/// *result*, excluding `threads` (any value is byte-identical by the
/// worklist's determinism contract, so the cache is shared across thread
/// counts), `faults` (injected faults are per-method and folded into
/// each method's static key by [`method_fault_token`]), and the purely
/// observational `trace` switch (tracing never changes a solve's result,
/// so traced and untraced runs share the cache).
pub fn config_fingerprint(cfg: &InferConfig) -> CacheKey {
    let mut h = KeyHasher::new();
    h.write_u32(KEY_SCHEME_VERSION);
    for v in [
        cfg.h_outgoing,
        cfg.h_split,
        cfg.h_incoming,
        cfg.p_field_write_readonly,
        cfg.p_constructor_unique,
        cfg.h_pre_post,
        cfg.p_create_unique,
        cfg.p_setter_readonly,
        cfg.h_thread_shared,
        cfg.h_exactly_one,
        cfg.p_spec_high,
        cfg.p_spec_low,
        cfg.threshold,
        cfg.summary_epsilon,
    ] {
        h.write_f64(v);
    }
    h.write_u64(cfg.max_iters as u64);
    h.write_bool(cfg.branch_sensitive);
    h.write_u64(cfg.max_model_vars as u64);
    // The `false` the deleted `degraded_fallback` switch held in every run,
    // hashed in its place so that stores written while it existed keep
    // their keys without a `KEY_SCHEME_VERSION` bump.
    h.write_bool(false);
    h.write_bool(cfg.screen);
    h.write_u64(cfg.bp.max_iterations as u64);
    h.write_f64(cfg.bp.tolerance);
    h.write_f64(cfg.bp.damping);
    match cfg.bp.update_budget {
        Some(b) => {
            h.write_bool(true);
            h.write_u64(b as u64);
        }
        None => h.write_bool(false),
    }
    // Protocol selection changes the API surface a run infers against, so
    // it is result-affecting (the selected registry also feeds
    // `interface_fingerprint`, but the selection itself must key the config
    // for callers that pass a custom `ApiRegistry`).
    h.write_u64(cfg.protocols.len() as u64);
    for p in &cfg.protocols {
        h.write_str(p);
    }
    h.finish()
}

/// Fingerprint of one unit's canonical (pretty-printed) source. The
/// canonical text fixes the parse — including the deterministic `ExprId`
/// numbering every PFG call site and evidence key refers to — so two units
/// with equal fingerprints yield bit-identical analysis inputs.
pub fn unit_fingerprint(unit: &CompilationUnit) -> CacheKey {
    hash_bytes(java_syntax::print_unit(unit).as_bytes())
}

/// Fingerprint of the program's *interface*: every unit printed with all
/// method bodies stripped (signatures, fields, class/method annotations and
/// `@States` declarations survive), plus the API registry. This is the
/// conservative closure of everything a method's model may read from
/// *other* classes through the `ProgramIndex`/`TypeEnv`; editing only a
/// method body leaves it unchanged. The printer leaves the bodies out
/// itself, so no stripped copy of the program is made.
pub fn interface_fingerprint(units: &[CompilationUnit], api: &ApiRegistry) -> CacheKey {
    let mut h = KeyHasher::new();
    h.write_u32(KEY_SCHEME_VERSION);
    for unit in units {
        h.write_str(&java_syntax::print_unit_interface(unit));
    }
    // The API registry is static per process configuration; its debug
    // rendering is a stable serialization of the annotated library model.
    h.write_str(&format!("{api:?}"));
    h.finish()
}

/// The per-method fault token: which injected faults target this method.
/// Folding it into the static key means injecting a fault invalidates (and
/// on failure, re-misses) exactly the targeted method's cache entries — the
/// rest of the store stays warm.
pub fn method_fault_token(cfg: &InferConfig, id: &MethodId) -> u64 {
    let mut token = 0u64;
    if cfg.faults.should_panic(id) {
        token |= 1;
    }
    if cfg.faults.nan_factor(id) {
        token |= 2;
    }
    token | (cfg.faults.oversize_extra(id) as u64) << 2
}

fn write_slot(h: &mut KeyHasher, slot: &SlotProbs) {
    for k in slot.kinds {
        h.write_f64(k);
    }
    h.write_u64(slot.states.len() as u64);
    for (name, p) in &slot.states {
        h.write_str(name);
        h.write_f64(*p);
    }
}

/// Feeds a summary's exact bit content into a hasher.
pub fn write_summary(h: &mut KeyHasher, summary: &MethodSummary) {
    h.write_u64(summary.params.len() as u64);
    for (name, pre, post) in &summary.params {
        h.write_str(name);
        write_slot(h, pre);
        write_slot(h, post);
    }
    match &summary.result {
        Some(slot) => {
            h.write_bool(true);
            write_slot(h, slot);
        }
        None => h.write_bool(false),
    }
}

/// Feeds one caller-evidence snapshot into a hasher.
pub fn write_evidence(h: &mut KeyHasher, ev: &CallerEvidence) {
    for map in [&ev.param_pre, &ev.param_post] {
        h.write_u64(map.len() as u64);
        for (name, slot) in map {
            h.write_str(name);
            write_slot(h, slot);
        }
    }
    match &ev.result {
        Some(slot) => {
            h.write_bool(true);
            write_slot(h, slot);
        }
        None => h.write_bool(false),
    }
}

/// What one committed model solve produced: the method's refreshed
/// summary, the call-site evidence it observed about each callee, and the
/// BP health/work counters. This is the unit of memoization — bit-exact,
/// so replaying a record is indistinguishable from re-running the solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvedRecord {
    /// The method's new probabilistic summary.
    pub summary: MethodSummary,
    /// Observed marginals per callee per call site.
    pub call_evidence: CallEvidence,
    /// BP sweeps the solve performed.
    pub iterations: usize,
    /// BP message updates the solve performed.
    pub updates: usize,
    /// Whether BP reached the convergence tolerance.
    pub converged: bool,
    /// Numeric-guard clamp counts.
    pub guards: GuardEvents,
}

/// A cache the worklist can consult for per-method solve results.
/// Implemented by `store::Store`; `infer` only ever sees this trait, so
/// `anek-core` stays free of any persistence concern. Nothing else is
/// cached: a method's PFG is a cheap pure function of its source, so every
/// run rebuilds it.
///
/// Lookups may run concurrently from worker threads; insertions happen only
/// on the single merge thread.
pub trait InferCache: Sync {
    /// Returns the record cached under `key`, if present and intact.
    fn solve_lookup(&self, key: CacheKey) -> Option<SolvedRecord>;
    /// Caches a freshly committed solve.
    fn solve_insert(&self, key: CacheKey, record: &SolvedRecord);
}

#[cfg(test)]
mod tests {
    use super::*;
    use java_syntax::parse;
    use spec_lang::standard_api;

    #[test]
    fn hasher_is_order_and_length_sensitive() {
        let mut a = KeyHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = KeyHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefixes disambiguate");
        assert_ne!(hash_bytes(b"x"), hash_bytes(b"y"));
        assert_eq!(hash_bytes(b"x"), hash_bytes(b"x"));
    }

    #[test]
    fn config_fingerprint_ignores_threads_and_faults() {
        let base = InferConfig::default();
        let mut threaded = base.clone();
        threaded.threads = 8;
        let mut faulted = base.clone();
        faulted.faults.panic_methods.push("App.copy".into());
        let mut traced = base.clone();
        traced.trace = true;
        assert_eq!(config_fingerprint(&base), config_fingerprint(&threaded));
        assert_eq!(config_fingerprint(&base), config_fingerprint(&faulted));
        assert_eq!(
            config_fingerprint(&base),
            config_fingerprint(&traced),
            "tracing is observational: traced and untraced runs share the cache"
        );
        let mut tuned = base.clone();
        tuned.threshold = 0.7;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&tuned));
        let mut budgeted = base.clone();
        budgeted.bp.update_budget = Some(100);
        assert_ne!(config_fingerprint(&budgeted), config_fingerprint(&InferConfig::default()));
        let mut widened = base;
        widened.protocols = vec!["all".into()];
        assert_ne!(
            config_fingerprint(&widened),
            config_fingerprint(&InferConfig::default()),
            "protocol selection is result-affecting and must key the store"
        );
    }

    #[test]
    fn unit_fingerprint_tracks_body_edits_interface_does_not() {
        let api = standard_api();
        let v1 = parse("class A { void m() { int x = 0; } void n() { } }").unwrap();
        let v2 = parse("class A { void m() { int x = 1; } void n() { } }").unwrap();
        assert_ne!(unit_fingerprint(&v1), unit_fingerprint(&v2));
        assert_eq!(
            interface_fingerprint(std::slice::from_ref(&v1), &api),
            interface_fingerprint(&[v2], &api),
            "body-only edits keep the interface fingerprint"
        );
        let v3 = parse("class A { void m(int p) { int x = 0; } void n() { } }").unwrap();
        assert_ne!(
            interface_fingerprint(&[v1], &api),
            interface_fingerprint(&[v3], &api),
            "signature edits change the interface fingerprint"
        );
    }

    /// What `interface_fingerprint` hashes, computed the obvious way:
    /// clone each unit, strip every method body, print the copy.
    fn stripped_interface_fingerprint(units: &[CompilationUnit], api: &ApiRegistry) -> CacheKey {
        let mut h = KeyHasher::new();
        h.write_u32(KEY_SCHEME_VERSION);
        for unit in units {
            let mut stripped = unit.clone();
            for t in &mut stripped.types {
                for member in &mut t.members {
                    if let java_syntax::ast::Member::Method(m) = member {
                        m.body = None;
                    }
                }
            }
            h.write_str(&java_syntax::print_unit(&stripped));
        }
        h.write_str(&format!("{api:?}"));
        h.finish()
    }

    #[test]
    fn interface_fingerprint_matches_printing_a_stripped_clone() {
        use corpus::{figure3_unit, generate, generate_mixed, MixedConfig, PmdConfig};
        let api = standard_api();
        let small = generate(&PmdConfig::small()).units;
        let mixed = generate_mixed(&MixedConfig::small()).units;
        let figure3 = vec![figure3_unit()];
        for units in [&small, &mixed, &figure3] {
            assert_eq!(
                interface_fingerprint(units, &api),
                stripped_interface_fingerprint(units, &api)
            );
        }
    }

    #[test]
    fn fault_tokens_are_method_local() {
        let mut cfg = InferConfig::default();
        cfg.faults.panic_methods.push("App.copy".into());
        cfg.faults.oversize_methods.push(("App.big".into(), 5));
        assert_eq!(method_fault_token(&cfg, &MethodId::new("App", "copy")), 1);
        assert_eq!(method_fault_token(&cfg, &MethodId::new("App", "big")), 5 << 2);
        assert_eq!(method_fault_token(&cfg, &MethodId::new("App", "other")), 0);
    }
}
