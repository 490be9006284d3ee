//! A library of protocol families: first-class protocol definitions and a
//! registry that compiles them into an [`ApiRegistry`].
//!
//! The paper's inference is protocol-generic — ANEK learns typestate specs
//! for any API whose usage rules form a DFA over abstract states. This
//! module makes that generality first-class: a [`ProtocolDef`] bundles a
//! protocol family's name, its abstract state space, and its annotated API
//! methods (requires/transition/indicator semantics); a
//! [`ProtocolRegistry`] holds the built-in families and compiles any
//! selection of them into the [`ApiRegistry`] the analyses consume.
//!
//! The built-in library covers the paper's Iterator protocol (Figures 1–2),
//! the Stream protocol used by the domain examples, and four families drawn
//! from the checker-comparison literature: File (`open→read→close`), Lock
//! (`acquire→release`), Builder (`init→configure→build→frozen`, with a
//! nested `MUTABLE` super-state), and Connection (`connect→send→disconnect`).
//!
//! ```
//! use spec_lang::protocol::ProtocolRegistry;
//!
//! let reg = ProtocolRegistry::builtin();
//! let api = reg.api(&["Iterator", "Lock"]).unwrap();
//! assert!(api.get("Lock", "acquire").is_some());
//! assert!(api.get("File", "readLine").is_none()); // not selected
//! assert_eq!(reg.family_of_type("Collection"), Some("Iterator"));
//! ```

use crate::spec::{parse_clause, MethodSpec};
use crate::state::{StateSpace, ALIVE};
use crate::stdlib::{ApiMethod, ApiRegistry};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// The protocol families selected by [`crate::stdlib::standard_api`]: the
/// paper's Iterator protocol plus the Stream protocol of the extra examples.
pub const STANDARD_PROTOCOLS: &[&str] = &["Iterator", "Stream"];

/// Selecting an unregistered protocol family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownProtocol {
    /// The family name that failed to resolve.
    pub name: String,
    /// The families the registry does know, for the error message.
    pub available: Vec<String>,
}

impl fmt::Display for UnknownProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown protocol family `{}` (available: {})",
            self.name,
            self.available.join(", ")
        )
    }
}

impl std::error::Error for UnknownProtocol {}

/// One protocol family: a named DFA over abstract states plus the annotated
/// API methods that require, transition, or indicate those states.
///
/// A definition may span several declaring types: the protocol type itself
/// (e.g. `Iterator`) and auxiliary types that create or feed it (e.g.
/// `Collection`, whose `iterator()` returns a fresh `Iterator`).
#[derive(Debug, Clone)]
pub struct ProtocolDef {
    name: String,
    type_name: String,
    states: StateSpace,
    methods: Vec<ApiMethod>,
}

fn must(clause: &str) -> crate::spec::PermClause {
    parse_clause(clause).expect("protocol library clauses are well-formed")
}

impl ProtocolDef {
    /// Starts a definition for family `name` whose protocol type is
    /// `type_name` with the given state space.
    pub fn new(name: impl Into<String>, states: StateSpace) -> ProtocolDef {
        ProtocolDef {
            name: name.into(),
            type_name: states.type_name().to_string(),
            states,
            methods: Vec::new(),
        }
    }

    /// Adds a method model. `requires`/`ensures` are clause sources in the
    /// annotation mini-language (e.g. `"full(this) in OPEN"`).
    #[must_use]
    pub fn method(
        mut self,
        type_name: &str,
        method_name: &str,
        return_type: Option<&str>,
        requires: &str,
        ensures: &str,
    ) -> ProtocolDef {
        self.methods.push(ApiMethod {
            type_name: type_name.into(),
            method_name: method_name.into(),
            return_type: return_type.map(str::to_string),
            spec: MethodSpec {
                requires: must(requires),
                ensures: must(ensures),
                true_indicates: None,
                false_indicates: None,
            },
        });
        self
    }

    /// Adds a boolean state-test method (`@TrueIndicates`/`@FalseIndicates`).
    #[must_use]
    pub fn indicator(
        mut self,
        type_name: &str,
        method_name: &str,
        requires: &str,
        ensures: &str,
        true_indicates: Option<&str>,
        false_indicates: Option<&str>,
    ) -> ProtocolDef {
        self.methods.push(ApiMethod {
            type_name: type_name.into(),
            method_name: method_name.into(),
            return_type: None,
            spec: MethodSpec {
                requires: must(requires),
                ensures: must(ensures),
                true_indicates: true_indicates.map(str::to_string),
                false_indicates: false_indicates.map(str::to_string),
            },
        });
        self
    }

    /// The family name (e.g. `"Iterator"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The protocol type the state space belongs to.
    pub fn type_name(&self) -> &str {
        &self.type_name
    }

    /// The abstract state space of the protocol type.
    pub fn states(&self) -> &StateSpace {
        &self.states
    }

    /// The annotated methods, across all declaring types.
    pub fn methods(&self) -> &[ApiMethod] {
        &self.methods
    }

    /// Every declaring type this family touches (protocol type plus
    /// auxiliary factory/source types), deduplicated and sorted.
    pub fn types(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .methods
            .iter()
            .map(|m| m.type_name.as_str())
            .chain(std::iter::once(self.type_name.as_str()))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Installs the family's state space and method models into `reg`.
    pub fn install(&self, reg: &mut ApiRegistry) {
        if self.states.states() != [ALIVE] {
            reg.states.insert(self.states.clone());
        }
        for m in &self.methods {
            reg.insert(m.clone());
        }
    }
}

/// A registry of protocol families, compiled on demand into the
/// [`ApiRegistry`] the analyses consume.
#[derive(Debug, Clone, Default)]
pub struct ProtocolRegistry {
    defs: BTreeMap<String, ProtocolDef>,
}

impl ProtocolRegistry {
    /// An empty registry.
    pub fn new() -> ProtocolRegistry {
        ProtocolRegistry::default()
    }

    /// The built-in protocol library: Iterator (paper Figures 1–2), Stream,
    /// File, Lock, Builder, and Connection. Its clauses are parsed once per
    /// process, on first use.
    pub fn builtin() -> &'static ProtocolRegistry {
        static BUILTIN: OnceLock<ProtocolRegistry> = OnceLock::new();
        BUILTIN.get_or_init(|| {
            let mut reg = ProtocolRegistry::new();
            reg.register(iterator_protocol());
            reg.register(stream_protocol());
            reg.register(file_protocol());
            reg.register(lock_protocol());
            reg.register(builder_protocol());
            reg.register(connection_protocol());
            reg
        })
    }

    /// Registers (or replaces) a family.
    pub fn register(&mut self, def: ProtocolDef) {
        self.defs.insert(def.name().to_string(), def);
    }

    /// Looks up a family by name.
    pub fn get(&self, name: &str) -> Option<&ProtocolDef> {
        self.defs.get(name)
    }

    /// All family names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.defs.keys().map(String::as_str).collect()
    }

    /// Iterates over the families in name order.
    pub fn iter(&self) -> impl Iterator<Item = &ProtocolDef> {
        self.defs.values()
    }

    /// The family (if any) that declares methods on `type_name`, searching
    /// protocol types and auxiliary types alike.
    pub fn family_of_type(&self, type_name: &str) -> Option<&str> {
        self.defs.values().find(|d| d.types().contains(&type_name)).map(ProtocolDef::name)
    }

    /// Compiles the named families into an [`ApiRegistry`]. The single name
    /// `"all"` selects every registered family.
    pub fn api<S: AsRef<str>>(&self, families: &[S]) -> Result<ApiRegistry, UnknownProtocol> {
        if families.len() == 1 && families[0].as_ref() == "all" {
            return Ok(self.api_all());
        }
        let mut api = ApiRegistry::new();
        for name in families {
            let name = name.as_ref();
            let def = self.get(name).ok_or_else(|| UnknownProtocol {
                name: name.to_string(),
                available: self.names().iter().map(|s| (*s).to_string()).collect(),
            })?;
            def.install(&mut api);
        }
        Ok(api)
    }

    /// Compiles every registered family into one [`ApiRegistry`].
    pub fn api_all(&self) -> ApiRegistry {
        let mut api = ApiRegistry::new();
        for def in self.defs.values() {
            def.install(&mut api);
        }
        api
    }
}

/// Compiles the built-in registry for a `--protocols` style selection:
/// an empty list selects [`STANDARD_PROTOCOLS`]; the single name `"all"`
/// selects every built-in family.
pub fn api_with_protocols<S: AsRef<str>>(families: &[S]) -> Result<ApiRegistry, UnknownProtocol> {
    let builtin = ProtocolRegistry::builtin();
    if families.is_empty() {
        return builtin.api(STANDARD_PROTOCOLS);
    }
    builtin.api(families)
}

/// Paper Figures 1–2: the iterator protocol, with `Collection` as the
/// auxiliary source type.
fn iterator_protocol() -> ProtocolDef {
    ProtocolDef::new("Iterator", StateSpace::flat("Iterator", ["HASNEXT", "END"]))
        .method("Iterator", "next", Some("Object"), "full(this) in HASNEXT", "full(this) in ALIVE")
        .indicator(
            "Iterator",
            "hasNext",
            "pure(this) in ALIVE",
            "pure(this)",
            Some("HASNEXT"),
            Some("END"),
        )
        .method(
            "Collection",
            "iterator",
            Some("Iterator"),
            "pure(this)",
            "pure(this), unique(result) in ALIVE",
        )
        .method("Collection", "add", None, "share(this)", "share(this)")
        .method("Collection", "size", None, "pure(this)", "pure(this)")
}

/// The stream protocol (open/closed) used by the domain examples.
fn stream_protocol() -> ProtocolDef {
    ProtocolDef::new("Stream", StateSpace::flat("Stream", ["OPEN", "CLOSED"]))
        .method("Stream", "read", None, "full(this) in OPEN", "full(this) in OPEN")
        .method("Stream", "close", None, "full(this) in OPEN", "full(this) in CLOSED")
        .method("StreamFactory", "open", Some("Stream"), "", "unique(result) in OPEN")
}

/// File handles: `openFile → readLine* → closeFile`, with an `isOpen`
/// dynamic state test.
fn file_protocol() -> ProtocolDef {
    ProtocolDef::new("File", StateSpace::flat("File", ["OPEN", "CLOSED"]))
        .method(
            "FileSystem",
            "openFile",
            Some("File"),
            "pure(this)",
            "pure(this), unique(result) in OPEN",
        )
        .method("File", "readLine", Some("Object"), "full(this) in OPEN", "full(this) in OPEN")
        .method("File", "closeFile", None, "full(this) in OPEN", "full(this) in CLOSED")
        .indicator(
            "File",
            "isOpen",
            "pure(this) in ALIVE",
            "pure(this)",
            Some("OPEN"),
            Some("CLOSED"),
        )
}

/// Locks: `acquire → release`, re-acquirable, with an `isHeld` state test.
fn lock_protocol() -> ProtocolDef {
    ProtocolDef::new("Lock", StateSpace::flat("Lock", ["FREE", "HELD"]))
        .method(
            "LockFactory",
            "newLock",
            Some("Lock"),
            "pure(this)",
            "pure(this), unique(result) in FREE",
        )
        .method("Lock", "acquire", None, "full(this) in FREE", "full(this) in HELD")
        .method("Lock", "release", None, "full(this) in HELD", "full(this) in FREE")
        .indicator(
            "Lock",
            "isHeld",
            "pure(this) in ALIVE",
            "pure(this)",
            Some("HELD"),
            Some("FREE"),
        )
}

/// Builders: `newBuilder → configure* → build`, frozen afterwards. The
/// state space is nested: `INIT` and `READY` refine a `MUTABLE` super-state
/// (paper §2.2's state refinement), so `configure` accepts either.
fn builder_protocol() -> ProtocolDef {
    ProtocolDef::new(
        "Builder",
        StateSpace::parse_decl("Builder", "MUTABLE > INIT, MUTABLE > READY, FROZEN"),
    )
    .method(
        "BuilderFactory",
        "newBuilder",
        Some("Builder"),
        "pure(this)",
        "pure(this), unique(result) in INIT",
    )
    .method("Builder", "configure", None, "full(this) in MUTABLE", "full(this) in READY")
    .method("Builder", "build", Some("Object"), "full(this) in READY", "full(this) in FROZEN")
    .indicator(
        "Builder",
        "isFrozen",
        "pure(this) in ALIVE",
        "pure(this)",
        Some("FROZEN"),
        Some("MUTABLE"),
    )
}

/// Connections: `connect → send* → disconnect`, with an `isConnected` test.
fn connection_protocol() -> ProtocolDef {
    ProtocolDef::new("Connection", StateSpace::flat("Connection", ["CONNECTED", "DISCONNECTED"]))
        .method(
            "ConnectionFactory",
            "connect",
            Some("Connection"),
            "pure(this)",
            "pure(this), unique(result) in CONNECTED",
        )
        .method("Connection", "send", None, "full(this) in CONNECTED", "full(this) in CONNECTED")
        .method(
            "Connection",
            "disconnect",
            None,
            "full(this) in CONNECTED",
            "full(this) in DISCONNECTED",
        )
        .indicator(
            "Connection",
            "isConnected",
            "pure(this) in ALIVE",
            "pure(this)",
            Some("CONNECTED"),
            Some("DISCONNECTED"),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permission::PermissionKind;
    use crate::spec::SpecTarget;
    use crate::stdlib::standard_api;

    #[test]
    fn builtin_has_six_families() {
        let reg = ProtocolRegistry::builtin();
        assert_eq!(
            reg.names(),
            vec!["Builder", "Connection", "File", "Iterator", "Lock", "Stream"]
        );
    }

    #[test]
    fn standard_selection_matches_standard_api() {
        // `standard_api()` is defined through this registry; pin the
        // equivalence explicitly so a registry edit that would silently
        // change the paper-corpus API surface fails here first.
        let via_registry = ProtocolRegistry::builtin().api(STANDARD_PROTOCOLS).unwrap();
        let direct = standard_api();
        assert_eq!(format!("{via_registry:?}"), format!("{direct:?}"));
    }

    #[test]
    fn empty_selection_is_standard() {
        let api = api_with_protocols::<&str>(&[]).unwrap();
        assert_eq!(format!("{api:?}"), format!("{:?}", standard_api()));
    }

    #[test]
    fn all_selects_every_family() {
        let api = api_with_protocols(&["all"]).unwrap();
        for (ty, m) in [
            ("Iterator", "next"),
            ("Stream", "read"),
            ("File", "readLine"),
            ("Lock", "acquire"),
            ("Builder", "build"),
            ("Connection", "send"),
        ] {
            assert!(api.get(ty, m).is_some(), "{ty}.{m} missing from `all`");
        }
    }

    #[test]
    fn unknown_family_is_an_error() {
        let err = api_with_protocols(&["Socket"]).unwrap_err();
        assert_eq!(err.name, "Socket");
        assert!(err.to_string().contains("available: Builder, Connection"));
    }

    #[test]
    fn family_of_type_covers_auxiliary_types() {
        let reg = ProtocolRegistry::builtin();
        assert_eq!(reg.family_of_type("Collection"), Some("Iterator"));
        assert_eq!(reg.family_of_type("FileSystem"), Some("File"));
        assert_eq!(reg.family_of_type("Lock"), Some("Lock"));
        assert_eq!(reg.family_of_type("Widget"), None);
    }

    #[test]
    fn method_names_are_unique_across_the_full_library() {
        // `ApiRegistry::get_by_name` falls back to name-only lookup when a
        // receiver type cannot be resolved; it returns `None` on ambiguity.
        // Keep the library collision-free so the fallback keeps working
        // when every family is selected.
        let api = ProtocolRegistry::builtin().api_all();
        let mut names = BTreeMap::new();
        for m in api.iter() {
            if let Some(prev) = names.insert(m.method_name.clone(), m.type_name.clone()) {
                panic!(
                    "method name `{}` declared by both {} and {}",
                    m.method_name, prev, m.type_name
                );
            }
        }
    }

    #[test]
    fn lock_protocol_shape() {
        let api = api_with_protocols(&["Lock"]).unwrap();
        let acquire = api.get("Lock", "acquire").unwrap();
        let req = acquire.spec.requires.for_target(&SpecTarget::This).unwrap();
        assert_eq!(req.kind, PermissionKind::Full);
        assert_eq!(req.state.as_deref(), Some("FREE"));
        let ens = acquire.spec.ensures.for_target(&SpecTarget::This).unwrap();
        assert_eq!(ens.state.as_deref(), Some("HELD"));
        let held = api.get("Lock", "isHeld").unwrap();
        assert_eq!(held.spec.true_indicates.as_deref(), Some("HELD"));
        // Only Lock's state space is registered for this selection.
        assert!(api.states.get("Lock").is_some());
        assert!(api.states.get("Iterator").is_none());
    }

    #[test]
    fn builder_states_are_nested() {
        let reg = ProtocolRegistry::builtin();
        let space = reg.get("Builder").unwrap().states();
        assert!(space.refines("INIT", "MUTABLE"));
        assert!(space.refines("READY", "MUTABLE"));
        assert!(!space.refines("FROZEN", "MUTABLE"));
        // `configure` accepts MUTABLE or any of its sub-states.
        assert_eq!(space.concrete_states("MUTABLE"), vec!["INIT", "MUTABLE", "READY"]);
    }

    #[test]
    fn factories_return_unique_initialized_objects() {
        let api = ProtocolRegistry::builtin().api_all();
        for (ty, m, ret, state) in [
            ("FileSystem", "openFile", "File", "OPEN"),
            ("LockFactory", "newLock", "Lock", "FREE"),
            ("BuilderFactory", "newBuilder", "Builder", "INIT"),
            ("ConnectionFactory", "connect", "Connection", "CONNECTED"),
        ] {
            let f = api.get(ty, m).unwrap();
            assert_eq!(f.return_type.as_deref(), Some(ret));
            let ens = f.spec.ensures.for_target(&SpecTarget::Result).unwrap();
            assert_eq!(ens.kind, PermissionKind::Unique);
            assert_eq!(ens.state.as_deref(), Some(state));
        }
    }
}
