//! Tunable parameters of the inference (the paper's `h`, `t` and `MaxIters`)
//! plus the robustness knobs (model-size cap and the deterministic
//! fault-injection switches the harness in `corpus::faults` drives).

use analysis::types::MethodId;
use factor_graph::BpOptions;

/// Deterministic fault-injection switches, normally all empty.
///
/// The fault harness (`corpus::faults::FaultPlan`) compiles its method
/// patterns into this struct; the model builder and the worklist consult it
/// to poison exactly the selected methods. A pattern is either an exact
/// `Class.method`, a class wildcard `Class.*`, or the global `*`.
///
/// Injection is *structural*, not scripted at the call level: a NaN entry
/// asks the model builder to emit a genuinely poisoned factor table, an
/// oversize entry pads the method's factor graph with real (unconstrained)
/// variables, and a panic entry raises a real panic inside the solve —
/// every fault travels through the same code paths an organic defect would.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultInjection {
    /// Methods whose solve panics (caught at the per-method boundary).
    pub panic_methods: Vec<String>,
    /// Methods whose skeleton receives a NaN-poisoned unary factor.
    pub nan_methods: Vec<String>,
    /// Methods whose factor graph is padded with this many extra variables
    /// (tripping `InferConfig::max_model_vars` when large enough).
    pub oversize_methods: Vec<(String, usize)>,
    /// Methods whose solve sleeps this many milliseconds before running —
    /// a replayable stand-in for a pathologically slow model, used to
    /// exercise deadline and cancellation paths. A slow fault never changes
    /// the solve's *result*, so (like `threads`) it is excluded from the
    /// store's config fingerprint and from `method_fault_token`.
    pub slow_methods: Vec<(String, u64)>,
}

impl FaultInjection {
    /// Whether no fault is configured at all.
    pub fn is_empty(&self) -> bool {
        self.panic_methods.is_empty()
            && self.nan_methods.is_empty()
            && self.oversize_methods.is_empty()
            && self.slow_methods.is_empty()
    }

    fn matches(pattern: &str, id: &MethodId) -> bool {
        if pattern == "*" {
            return true;
        }
        match pattern.split_once('.') {
            Some((class, "*")) => class == id.class,
            Some((class, method)) => class == id.class && method == id.method,
            None => false,
        }
    }

    /// Whether `id`'s solve should panic.
    pub fn should_panic(&self, id: &MethodId) -> bool {
        self.panic_methods.iter().any(|p| FaultInjection::matches(p, id))
    }

    /// Whether `id`'s skeleton gets a NaN factor.
    pub fn nan_factor(&self, id: &MethodId) -> bool {
        self.nan_methods.iter().any(|p| FaultInjection::matches(p, id))
    }

    /// Milliseconds `id`'s solve sleeps before running (`None` = no delay).
    pub fn slow_ms(&self, id: &MethodId) -> Option<u64> {
        self.slow_methods
            .iter()
            .filter(|(p, _)| FaultInjection::matches(p, id))
            .map(|&(_, ms)| ms)
            .max()
    }

    /// Extra padding variables for `id`'s factor graph (0 = none).
    pub fn oversize_extra(&self, id: &MethodId) -> usize {
        self.oversize_methods
            .iter()
            .filter(|(p, _)| FaultInjection::matches(p, id))
            .map(|&(_, n)| n)
            .max()
            .unwrap_or(0)
    }
}

/// Configuration of the ANEK inference.
///
/// "Each constraint generation rule is parametrized by some probability
/// `h ∈ [0,1]` that represents high probability, and is given as input to
/// the algorithm. Parametrization of these high probabilities allows us to
/// tune the performance of inference." (§3.3)
#[derive(Debug, Clone, PartialEq)]
pub struct InferConfig {
    /// `h1` — L1 strength: node equals its outgoing edge(s).
    pub h_outgoing: f64,
    /// `h2` — L1 strength for legal permission splitting at split nodes.
    pub h_split: f64,
    /// `h3` — L2 strength: node equals one of its incoming edges.
    pub h_incoming: f64,
    /// L3: probability that a field-write receiver is read-only (very low).
    pub p_field_write_readonly: f64,
    /// H1: elevated probability that constructors return `unique`.
    pub p_constructor_unique: f64,
    /// H2 strength: pre and post kinds of a parameter agree.
    pub h_pre_post: f64,
    /// H3: elevated probability that `create*` methods return `unique`.
    pub p_create_unique: f64,
    /// H4: low probability that `set*` receivers are read-only kinds.
    pub p_setter_readonly: f64,
    /// H5 strength: synchronized targets are `full`/`share`/`pure`.
    pub h_thread_shared: f64,
    /// Strength of the soft exactly-one-kind / exactly-one-state factors.
    ///
    /// The paper models each kind/state as its own Bernoulli variable and
    /// relies on evidence to separate them (Figure 8 gives the chosen kind
    /// 0.9 and all others 0.1); a soft mutual-exclusion factor makes the
    /// same assumption explicit in the model.
    pub h_exactly_one: f64,
    /// Prior given to specification-asserted facts (Figure 8's `B(0.9)`).
    pub p_spec_high: f64,
    /// Prior given to specification-denied facts (Figure 8's `B(0.1)`).
    pub p_spec_low: f64,
    /// Extraction threshold `t ∈ [0.5, 1)` (Figure 9, line 24).
    pub threshold: f64,
    /// `MaxIters` of the modular worklist (Figure 9, line 8).
    pub max_iters: usize,
    /// Enable the branch-sensitivity extension (the paper's future work):
    /// dynamic state tests contribute per-branch state evidence through the
    /// PFG's refinement nodes. ANEK proper is branch-insensitive (§4.2), so
    /// this defaults to `false`.
    pub branch_sensitive: bool,
    /// Minimum marginal change for a summary to count as updated.
    pub summary_epsilon: f64,
    /// Belief-propagation options for the per-method `Solve`.
    pub bp: BpOptions,
    /// Worker threads for the generation-parallel worklist: `0` means one
    /// per available core, `1` forces the sequential path, and any other
    /// count runs that many workers, whatever the core count. Results are
    /// identical for every value (see `infer`'s determinism notes).
    pub threads: usize,
    /// Hard cap on factor-graph variables per method model. A method whose
    /// model exceeds it is refused before solving and reported as
    /// `Failed { ModelTooLarge }`; every other method proceeds normally.
    pub max_model_vars: usize,
    /// When `true`, a bit-vector typestate screening pre-pass runs before
    /// any model is built: methods that are provably protocol-conformant
    /// *and* isolated in the program call graph (no program callees whose
    /// evidence they would publish, no program callers reading their
    /// summary) are skipped entirely — no PFG, no skeleton, no BP solves —
    /// and reported as `MethodOutcome::Screened`. Because skipped methods
    /// are exactly the ones whose solves publish nothing anyone reads, the
    /// specs and outcomes of every non-screened method are byte-identical
    /// to a full (unscreened) run whose worklist drains without hitting
    /// `max_iters`. Off by default.
    pub screen: bool,
    /// Protocol families selected from the built-in library
    /// (`spec_lang::protocol::ProtocolRegistry::builtin`). Empty means the
    /// standard selection (Iterator + Stream, i.e. `standard_api()`); the
    /// single name `"all"` selects every family. Callers that build their
    /// own `ApiRegistry` keep this list in sync with it so the store's
    /// config fingerprint reflects the protocol surface of a run.
    pub protocols: Vec<String>,
    /// When `true`, the run assembles a deterministic structured trace
    /// (`observe::Trace`): per-solve spans in commit order, hierarchical
    /// counters, and the spec/provenance sections. Tracing is purely
    /// observational — specs, summaries and outcomes are byte-identical
    /// with it on or off — so (like `threads` and `faults`) it is excluded
    /// from the store's config fingerprint. Off by default; the disabled
    /// path records nothing.
    pub trace: bool,
    /// Deterministic fault injection (normally empty; see
    /// [`FaultInjection`]).
    pub faults: FaultInjection,
}

impl Default for InferConfig {
    fn default() -> InferConfig {
        InferConfig {
            h_outgoing: 0.98,
            h_split: 0.98,
            h_incoming: 0.98,
            p_field_write_readonly: 0.05,
            p_constructor_unique: 0.85,
            h_pre_post: 0.75,
            p_create_unique: 0.85,
            p_setter_readonly: 0.1,
            h_thread_shared: 0.85,
            h_exactly_one: 0.9,
            p_spec_high: 0.9,
            p_spec_low: 0.1,
            threshold: 0.6,
            max_iters: 64,
            branch_sensitive: false,
            summary_epsilon: 0.01,
            bp: BpOptions {
                max_iterations: 40,
                tolerance: 1e-4,
                damping: 0.1,
                update_budget: None,
                deadline: None,
            },
            threads: 1,
            max_model_vars: 1 << 20,
            screen: false,
            protocols: Vec::new(),
            trace: false,
            faults: FaultInjection::default(),
        }
    }
}

impl InferConfig {
    /// Validates ranges.
    ///
    /// # Panics
    ///
    /// Panics when a probability parameter is outside its documented range;
    /// intended for use at configuration boundaries.
    pub fn validate(&self) {
        for (name, v) in [
            ("h_outgoing", self.h_outgoing),
            ("h_split", self.h_split),
            ("h_incoming", self.h_incoming),
            ("h_pre_post", self.h_pre_post),
            ("h_thread_shared", self.h_thread_shared),
            ("h_exactly_one", self.h_exactly_one),
        ] {
            assert!(v > 0.5 && v < 1.0, "{name} must be in (0.5, 1), got {v}");
        }
        assert!(
            self.threshold >= 0.5 && self.threshold < 1.0,
            "threshold must be in [0.5, 1), got {}",
            self.threshold
        );
        assert!(self.max_iters > 0, "max_iters must be positive");
        assert!(self.max_model_vars > 0, "max_model_vars must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        InferConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_rejected() {
        let cfg = InferConfig { threshold: 0.4, ..InferConfig::default() };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "h_outgoing")]
    fn weak_strength_rejected() {
        let cfg = InferConfig { h_outgoing: 0.5, ..InferConfig::default() };
        cfg.validate();
    }

    #[test]
    fn fault_patterns_match_exact_class_wildcard_and_global() {
        let faults = FaultInjection {
            panic_methods: vec!["App.copy".into()],
            nan_methods: vec!["Row.*".into()],
            oversize_methods: vec![("*".into(), 7)],
            slow_methods: vec![("Row.first".into(), 25)],
        };
        assert!(faults.should_panic(&MethodId::new("App", "copy")));
        assert!(!faults.should_panic(&MethodId::new("App", "paste")));
        assert!(faults.nan_factor(&MethodId::new("Row", "anything")));
        assert!(!faults.nan_factor(&MethodId::new("App", "copy")));
        assert_eq!(faults.oversize_extra(&MethodId::new("X", "y")), 7);
        assert_eq!(faults.slow_ms(&MethodId::new("Row", "first")), Some(25));
        assert_eq!(faults.slow_ms(&MethodId::new("Row", "second")), None);
        assert!(!FaultInjection::default().should_panic(&MethodId::new("App", "copy")));
        assert!(FaultInjection::default().is_empty());
        assert!(!faults.is_empty());
    }
}
