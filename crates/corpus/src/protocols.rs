//! Registry-driven mixed-protocol corpus generation.
//!
//! Where [`crate::generator`] reproduces the paper's Iterator-only PMD
//! stand-in, this module generates workloads for *any* family in the
//! built-in protocol library (`spec_lang::protocol::ProtocolRegistry`):
//! File, Lock, Builder, Connection, Stream and Iterator alike. Nothing
//! here is protocol-specific — every workload shape is derived from the
//! family's [`ProtocolDef`]:
//!
//! * a **factory** is any method returning the protocol type with a
//!   `unique(result) in S0` postcondition;
//! * the **op chain** is a deterministic walk of the DFA from `S0`,
//!   preferring state-preserving ("use") ops before transitions — e.g.
//!   `readLine, closeFile` for File, `acquire, release` for Lock,
//!   `configure, build` for Builder (through the nested `MUTABLE`
//!   super-state);
//! * a family whose ops are unreachable from `S0` without a state test
//!   (Iterator: `next` requires `HASNEXT`, factories produce `ALIVE`) is
//!   **guarded**: uses loop on the indicator (`while (x.hasNext())`);
//! * the **planted bug** re-applies, after the chain completes, the first
//!   op whose precondition no longer holds (read-after-close,
//!   double-release, configure-after-build, send-after-disconnect);
//! * the **planted trap** routes an object through an `ensure*` helper
//!   that narrows the state via the family's indicator — provable only by
//!   the branch reasoning ANEK forgoes (§4.2), so it lands in the
//!   documented cross-validate gap, keyed by family.
//!
//! Workload profiles weight the mix: [`MixedConfig::aliasing_heavy`]
//! multiplies two-aliases-of-one-object uses (Papaya's aliased-object
//! examples), [`MixedConfig::callback_heavy`] routes objects through
//! static helper boundaries so inference must work interprocedurally.
//! Gold specs are emitted per family exactly like the Iterator
//! generator's "Bierhoff" annotations.

use crate::generator::{parse_classes, CorpusStats, Planted, PmdCorpus};
use analysis::types::MethodId;
use prng::Rng;
use spec_lang::protocol::{ProtocolDef, ProtocolRegistry};
use spec_lang::spec::SpecTarget;
use spec_lang::{parse_clause, ApiMethod, MethodSpec, PermissionKind, ALIVE};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Generation parameters for the mixed-protocol corpus. All `*_uses` and
/// site counts are **per family**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedConfig {
    /// RNG seed; the same seed reproduces the same corpus byte-for-byte.
    pub seed: u64,
    /// Families to include (names from the built-in registry); empty means
    /// every registered family.
    pub families: Vec<String>,
    /// Correct straight-line (or guarded-loop) uses on a factory-fresh
    /// object.
    pub local_uses: usize,
    /// Correct uses of an object returned by an *unannotated program
    /// helper* — the inference-required boundary (warn without specs).
    pub helper_uses: usize,
    /// Correct uses split across two aliases of one object.
    pub aliased_uses: usize,
    /// Correct uses routed through static per-op helper methods
    /// (callback-style boundaries).
    pub callback_uses: usize,
    /// Planted straight-line protocol bugs (chain, then one op too many).
    pub buggy_sites: usize,
    /// Planted aliased bugs (chain via alias `b`, violating op via `a`).
    pub aliased_bugs: usize,
    /// Planted indicator traps (per family with a usable state test).
    pub traps: usize,
    /// Non-protocol filler classes (arithmetic padding).
    pub filler_classes: usize,
}

impl MixedConfig {
    /// A fast, balanced configuration over every built-in family.
    pub fn small() -> MixedConfig {
        MixedConfig {
            seed: 11,
            families: Vec::new(),
            local_uses: 2,
            helper_uses: 2,
            aliased_uses: 1,
            callback_uses: 1,
            buggy_sites: 1,
            aliased_bugs: 1,
            traps: 1,
            filler_classes: 2,
        }
    }

    /// The aliasing-heavy profile: most objects live behind two names.
    pub fn aliasing_heavy() -> MixedConfig {
        MixedConfig {
            seed: 13,
            aliased_uses: 4,
            aliased_bugs: 2,
            callback_uses: 0,
            local_uses: 1,
            helper_uses: 1,
            ..MixedConfig::small()
        }
    }

    /// The callback-heavy profile: most uses cross static helper
    /// boundaries, so conformance depends on interprocedural specs.
    pub fn callback_heavy() -> MixedConfig {
        MixedConfig {
            seed: 17,
            callback_uses: 4,
            aliased_uses: 0,
            aliased_bugs: 0,
            local_uses: 1,
            helper_uses: 2,
            ..MixedConfig::small()
        }
    }
}

/// The roles this generator derives from a [`ProtocolDef`]. Everything
/// downstream (code shapes, gold specs, planted sites) reads these roles,
/// never the family name.
struct FamilyShape<'a> {
    def: &'a ProtocolDef,
    /// Factory method (declared on an auxiliary type).
    factory: &'a ApiMethod,
    /// State of a factory-fresh object.
    factory_state: String,
    /// Deterministic op walk from `factory_state`; empty for guarded
    /// families.
    chain: Vec<&'a ApiMethod>,
    /// An op whose precondition is violated once the chain completes — the
    /// planted bug. `None` if every op still applies (no bug can be
    /// planted).
    bug_op: Option<&'a ApiMethod>,
    /// The family's boolean state test, if any.
    indicator: Option<&'a ApiMethod>,
    /// For guarded families: the op enabled by the indicator's true state.
    guarded_use: Option<&'a ApiMethod>,
    /// Trap guard: (negate-the-indicator, narrowed state, enabled op).
    guard: Option<(bool, String, &'a ApiMethod)>,
}

fn this_state(clause: &spec_lang::PermClause) -> Option<&str> {
    clause.for_target(&SpecTarget::This).map(spec_lang::PermAtom::effective_state)
}

impl<'a> FamilyShape<'a> {
    /// Derives the shape, or `None` when the family has no usable factory.
    fn derive(def: &'a ProtocolDef) -> Option<FamilyShape<'a>> {
        let space = def.states();
        let factory = def.methods().iter().find(|m| {
            m.return_type.as_deref() == Some(def.type_name())
                && m.spec
                    .ensures
                    .for_target(&SpecTarget::Result)
                    .is_some_and(|a| a.kind == PermissionKind::Unique)
        })?;
        let factory_state = factory
            .spec
            .ensures
            .for_target(&SpecTarget::Result)
            .map_or(ALIVE, spec_lang::PermAtom::effective_state)
            .to_string();

        let ops: Vec<&ApiMethod> = def
            .methods()
            .iter()
            .filter(|m| {
                m.type_name == def.type_name()
                    && m.spec
                        .requires
                        .for_target(&SpecTarget::This)
                        .is_some_and(|a| a.kind == PermissionKind::Full)
            })
            .collect();
        let indicator = def
            .methods()
            .iter()
            .find(|m| m.type_name == def.type_name() && m.spec.true_indicates.is_some());

        // A use op preserves a state satisfying its own precondition, so it
        // can repeat; a transition op moves on. Prefer uses, then name
        // order, so File walks readLine before closeFile.
        let self_loop = |m: &ApiMethod| {
            let req = this_state(&m.spec.requires).unwrap_or(ALIVE);
            let ens = this_state(&m.spec.ensures).unwrap_or(ALIVE);
            space.refines(ens, req)
        };
        let mut current = factory_state.clone();
        let mut chain: Vec<&ApiMethod> = Vec::new();
        let mut used: BTreeSet<&str> = BTreeSet::new();
        loop {
            let mut candidates: Vec<&ApiMethod> = ops
                .iter()
                .copied()
                .filter(|m| {
                    !used.contains(m.method_name.as_str())
                        && space.refines(&current, this_state(&m.spec.requires).unwrap_or(ALIVE))
                })
                .collect();
            candidates.sort_by_key(|m| (!self_loop(m), m.method_name.clone()));
            let Some(next) = candidates.first().copied() else { break };
            used.insert(&next.method_name);
            current = this_state(&next.spec.ensures).unwrap_or(ALIVE).to_string();
            chain.push(next);
        }
        let end_state = current;

        let mut violating: Vec<&ApiMethod> = ops
            .iter()
            .copied()
            .filter(|m| !space.refines(&end_state, this_state(&m.spec.requires).unwrap_or(ALIVE)))
            .collect();
        violating.sort_by_key(|m| (!self_loop(m), m.method_name.clone()));
        let bug_op = violating.first().copied();

        let guarded_use = indicator.and_then(|ind| {
            let state = ind.spec.true_indicates.as_deref()?;
            ops.iter().copied().find(|m| this_state(&m.spec.requires).unwrap_or(ALIVE) == state)
        });

        let guard = indicator.and_then(|ind| {
            let enabled_by = |state: &str| {
                ops.iter()
                    .copied()
                    .find(|m| space.refines(state, this_state(&m.spec.requires).unwrap_or(ALIVE)))
            };
            if let Some(state) = ind.spec.true_indicates.as_deref() {
                if let Some(op) = enabled_by(state) {
                    return Some((true, state.to_string(), op));
                }
            }
            if let Some(state) = ind.spec.false_indicates.as_deref() {
                if let Some(op) = enabled_by(state) {
                    return Some((false, state.to_string(), op));
                }
            }
            None
        });

        Some(FamilyShape {
            def,
            factory,
            factory_state,
            chain,
            bug_op,
            indicator,
            guarded_use,
            guard,
        })
    }

    fn guarded(&self) -> bool {
        self.chain.is_empty()
    }

    /// Java rendering of a type name (the Iterator family keeps the
    /// generator's generic spelling).
    fn ty(name: &str) -> String {
        match name {
            "Collection" => "Collection<Integer>".to_string(),
            "Iterator" => "Iterator<Integer>".to_string(),
            other => other.to_string(),
        }
    }

    fn proto_ty(&self) -> String {
        FamilyShape::ty(self.def.type_name())
    }

    fn factory_ty(&self) -> String {
        FamilyShape::ty(&self.factory.type_name)
    }

    /// Statements performing one full correct use of `var`.
    fn use_stmts(&self, var: &str, indent: &str) -> Vec<String> {
        if self.guarded() {
            let (Some(ind), Some(op)) = (self.indicator, self.guarded_use) else {
                return Vec::new();
            };
            vec![
                format!("{indent}while ({var}.{}()) {{", ind.method_name),
                format!("{indent}    {var}.{}();", op.method_name),
                format!("{indent}}}"),
            ]
        } else {
            self.chain.iter().map(|m| format!("{indent}{var}.{}();", m.method_name)).collect()
        }
    }

    /// The chain split across two aliases: even positions on `a`, odd on
    /// `b`. Guarded families keep the guard and use on the same alias and
    /// probe the other through the (pure) indicator.
    fn aliased_use_stmts(&self, a: &str, b: &str, indent: &str) -> Vec<String> {
        if self.guarded() {
            let mut out = self.use_stmts(b, indent);
            if let Some(ind) = self.indicator {
                out.push(format!("{indent}boolean probe = {a}.{}();", ind.method_name));
            }
            return out;
        }
        self.chain
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let recv = if i % 2 == 0 { a } else { b };
                format!("{indent}{recv}.{}();", m.method_name)
            })
            .collect()
    }

    /// The chain ops that are not self-repeating (e.g. `closeFile`,
    /// `build`) — what a callback-style caller must still run after its
    /// helper calls.
    fn finishers(&self) -> Vec<&ApiMethod> {
        let space = self.def.states();
        self.chain
            .iter()
            .copied()
            .filter(|m| {
                let req = this_state(&m.spec.requires).unwrap_or(ALIVE);
                let ens = this_state(&m.spec.ensures).unwrap_or(ALIVE);
                !space.refines(ens, req)
            })
            .collect()
    }

    /// Whether the per-op step helper repeats (self-loop present); if not,
    /// the step helper performs the entire chain.
    fn step_ops(&self) -> Vec<&ApiMethod> {
        let space = self.def.states();
        let reusable: Vec<&ApiMethod> = self
            .chain
            .iter()
            .copied()
            .filter(|m| {
                let req = this_state(&m.spec.requires).unwrap_or(ALIVE);
                let ens = this_state(&m.spec.ensures).unwrap_or(ALIVE);
                space.refines(ens, req)
            })
            .collect();
        if reusable.is_empty() {
            self.chain.clone()
        } else {
            vec![reusable[0]]
        }
    }
}

fn spec(req: &str, ens: &str) -> MethodSpec {
    MethodSpec {
        requires: parse_clause(req).expect("mixed-generator clauses are well-formed"),
        ensures: parse_clause(ens).expect("mixed-generator clauses are well-formed"),
        true_indicates: None,
        false_indicates: None,
    }
}

/// Generates the mixed-protocol corpus for `cfg`.
///
/// # Panics
///
/// Panics when `cfg.families` names a family the built-in registry does
/// not define, or when generated source fails to re-parse (a generator
/// bug).
pub fn generate_mixed(cfg: &MixedConfig) -> PmdCorpus {
    let registry = ProtocolRegistry::builtin();
    let family_names: Vec<String> = if cfg.families.is_empty() {
        registry.names().iter().map(|s| (*s).to_string()).collect()
    } else {
        cfg.families.clone()
    };

    let mut rng = Rng::new(cfg.seed);
    let mut sources: Vec<String> = Vec::new();
    let mut gold = BTreeMap::new();
    let mut truth = BTreeMap::new();
    let mut bugs: Vec<Planted> = Vec::new();
    let mut traps: Vec<Planted> = Vec::new();

    for fam_name in &family_names {
        let def = registry
            .get(fam_name)
            .unwrap_or_else(|| panic!("unknown protocol family `{fam_name}`"));
        let Some(shape) = FamilyShape::derive(def) else { continue };
        emit_family(cfg, &shape, &mut sources, &mut gold, &mut truth, &mut bugs, &mut traps);
    }

    // Non-protocol filler so screening and worklist scheduling see realistic
    // uninteresting methods.
    for f in 0..cfg.filler_classes {
        let c1 = rng.gen_range(2..9);
        let c2 = rng.gen_range(10..99);
        let mut s = String::new();
        let _ = writeln!(s, "class Padding{f} {{");
        let _ = writeln!(s, "    int base{f};");
        let _ = writeln!(s, "    int scale{f}(int x) {{");
        let _ = writeln!(s, "        int acc = x * {c1};");
        let _ = writeln!(s, "        while (acc > {c2}) {{");
        let _ = writeln!(s, "            acc = acc - base{f};");
        let _ = writeln!(s, "        }}");
        let _ = writeln!(s, "        return acc;");
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "    void reset{f}(int v) {{");
        let _ = writeln!(s, "        this.base{f} = v;");
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "}}");
        sources.push(s);
    }

    let (units, lines) = parse_classes(&sources);
    let classes = units.iter().map(|u| u.types.len()).sum();
    let methods: usize = units.iter().map(|u| u.methods().count()).sum();
    let next_calls: usize = units.iter().map(|u| java_syntax::visit::count_calls(u, "next")).sum();

    PmdCorpus {
        units,
        gold,
        truth,
        bugs,
        traps,
        stats: CorpusStats { lines, classes, methods, next_calls },
    }
}

#[allow(clippy::too_many_lines)]
fn emit_family(
    cfg: &MixedConfig,
    shape: &FamilyShape<'_>,
    sources: &mut Vec<String>,
    gold: &mut BTreeMap<MethodId, MethodSpec>,
    truth: &mut BTreeMap<MethodId, MethodSpec>,
    bugs: &mut Vec<Planted>,
    traps: &mut Vec<Planted>,
) {
    let fam = shape.def.name();
    let proto = shape.proto_ty();
    let fac_ty = shape.factory_ty();
    let fac_call = &shape.factory.method_name;
    let source_class = format!("{fam}Source");
    let ops_class = format!("{fam}Ops");

    // ---- Source class: the gold-annotated maker boundary ----
    {
        let mut s = String::new();
        let _ = writeln!(s, "class {source_class} {{");
        let _ = writeln!(s, "    {fac_ty} backing;");
        let _ = writeln!(s, "    {proto} make{fam}() {{");
        let _ = writeln!(s, "        return backing.{fac_call}();");
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "}}");
        sources.push(s);
        let maker_spec =
            spec("pure(this)", &format!("pure(this), unique(result) in {}", shape.factory_state));
        gold.insert(MethodId::new(&source_class, format!("make{fam}")), maker_spec.clone());
        truth.insert(MethodId::new(&source_class, format!("make{fam}")), maker_spec);
    }

    // ---- Ops class: gold-annotated per-op helper + the ensure trap ----
    {
        let mut s = String::new();
        let _ = writeln!(s, "class {ops_class} {{");
        let _ = writeln!(s, "    static int step{fam}({proto} x) {{");
        if shape.guarded() {
            for line in shape.use_stmts("x", "        ") {
                let _ = writeln!(s, "{line}");
            }
        } else {
            for op in shape.step_ops() {
                let _ = writeln!(s, "        x.{}();", op.method_name);
            }
        }
        let _ = writeln!(s, "        return 1;");
        let _ = writeln!(s, "    }}");
        let step_spec = if shape.guarded() {
            spec("full(x)", "full(x)")
        } else {
            let steps = shape.step_ops();
            let req = this_state(&steps[0].spec.requires).unwrap_or(ALIVE);
            let ens = this_state(&steps[steps.len() - 1].spec.ensures).unwrap_or(ALIVE);
            spec(&format!("full(x) in {req}"), &format!("full(x) in {ens}"))
        };
        gold.insert(MethodId::new(&ops_class, format!("step{fam}")), step_spec.clone());
        truth.insert(MethodId::new(&ops_class, format!("step{fam}")), step_spec);

        if cfg.traps > 0 {
            if let Some((negate, state, _)) = &shape.guard {
                let ind = shape.indicator.expect("guard implies indicator");
                let cond = if *negate {
                    format!("!x.{}()", ind.method_name)
                } else {
                    format!("x.{}()", ind.method_name)
                };
                let _ = writeln!(s, "    static {proto} ensure{fam}({proto} x) {{");
                let _ = writeln!(s, "        if ({cond}) {{");
                let _ = writeln!(s, "            throw new RuntimeException(\"wrong state\");");
                let _ = writeln!(s, "        }}");
                let _ = writeln!(s, "        return x;");
                let _ = writeln!(s, "    }}");
                let ensure_spec = spec("full(x)", &format!("unique(result) in {state}"));
                gold.insert(MethodId::new(&ops_class, format!("ensure{fam}")), ensure_spec.clone());
                truth.insert(MethodId::new(&ops_class, format!("ensure{fam}")), ensure_spec);
            }
        }
        let _ = writeln!(s, "}}");
        sources.push(s);
    }

    // ---- Worker methods ----
    let mut methods: Vec<String> = Vec::new();

    for i in 0..cfg.local_uses {
        let mut s = String::new();
        let _ = writeln!(s, "    int use{fam}{i}({fac_ty} f) {{");
        let _ = writeln!(s, "        {proto} x = f.{fac_call}();");
        for line in shape.use_stmts("x", "        ") {
            let _ = writeln!(s, "{line}");
        }
        let _ = writeln!(s, "        return 0;");
        let _ = writeln!(s, "    }}");
        methods.push(s);
    }

    for i in 0..cfg.helper_uses {
        let mut s = String::new();
        let _ = writeln!(s, "    int pull{fam}{i}({source_class} src) {{");
        let _ = writeln!(s, "        {proto} x = src.make{fam}();");
        for line in shape.use_stmts("x", "        ") {
            let _ = writeln!(s, "{line}");
        }
        let _ = writeln!(s, "        return 0;");
        let _ = writeln!(s, "    }}");
        methods.push(s);
    }

    for i in 0..cfg.aliased_uses {
        let mut s = String::new();
        let _ = writeln!(s, "    int alias{fam}{i}({fac_ty} f) {{");
        let _ = writeln!(s, "        {proto} a = f.{fac_call}();");
        let _ = writeln!(s, "        {proto} b = a;");
        for line in shape.aliased_use_stmts("a", "b", "        ") {
            let _ = writeln!(s, "{line}");
        }
        let _ = writeln!(s, "        return 0;");
        let _ = writeln!(s, "    }}");
        methods.push(s);
    }

    for i in 0..cfg.callback_uses {
        let mut s = String::new();
        let _ = writeln!(s, "    int relay{fam}{i}({fac_ty} f) {{");
        let _ = writeln!(s, "        {proto} x = f.{fac_call}();");
        let _ = writeln!(s, "        {ops_class}.step{fam}(x);");
        if !shape.guarded() && shape.step_ops().len() == 1 {
            // The step preserves its state, so a second round-trip is legal;
            // then run the finishing transitions.
            let _ = writeln!(s, "        {ops_class}.step{fam}(x);");
            for op in shape.finishers() {
                let _ = writeln!(s, "        x.{}();", op.method_name);
            }
        }
        let _ = writeln!(s, "        return 0;");
        let _ = writeln!(s, "    }}");
        methods.push(s);
    }

    for i in 0..cfg.buggy_sites {
        if shape.guarded() {
            let Some(op) = shape.guarded_use else { continue };
            let mut s = String::new();
            let _ = writeln!(s, "    int break{fam}{i}({fac_ty} f) {{");
            let _ = writeln!(s, "        f.{fac_call}().{}();", op.method_name);
            let _ = writeln!(s, "        return 0;");
            let _ = writeln!(s, "    }}");
            methods.push(s);
            bugs.push(Planted::new(
                fam,
                worker_class(fam, methods.len() - 1),
                format!("break{fam}{i}"),
            ));
        } else if let Some(bug_op) = shape.bug_op {
            let mut s = String::new();
            let _ = writeln!(s, "    int break{fam}{i}({fac_ty} f) {{");
            let _ = writeln!(s, "        {proto} x = f.{fac_call}();");
            for line in shape.use_stmts("x", "        ") {
                let _ = writeln!(s, "{line}");
            }
            let _ = writeln!(s, "        x.{}();", bug_op.method_name);
            let _ = writeln!(s, "        return 0;");
            let _ = writeln!(s, "    }}");
            methods.push(s);
            bugs.push(Planted::new(
                fam,
                worker_class(fam, methods.len() - 1),
                format!("break{fam}{i}"),
            ));
        }
    }

    for i in 0..cfg.aliased_bugs {
        let Some(bug_op) = shape.bug_op else { continue };
        if shape.guarded() {
            continue; // the straight guarded bug already covers this family
        }
        let mut s = String::new();
        let _ = writeln!(s, "    int smash{fam}{i}({fac_ty} f) {{");
        let _ = writeln!(s, "        {proto} a = f.{fac_call}();");
        let _ = writeln!(s, "        {proto} b = a;");
        for line in shape.use_stmts("b", "        ") {
            let _ = writeln!(s, "{line}");
        }
        let _ = writeln!(s, "        a.{}();", bug_op.method_name);
        let _ = writeln!(s, "        return 0;");
        let _ = writeln!(s, "    }}");
        methods.push(s);
        bugs.push(Planted::new(
            fam,
            worker_class(fam, methods.len() - 1),
            format!("smash{fam}{i}"),
        ));
    }

    if let Some((_, _, trap_op)) = &shape.guard {
        for i in 0..cfg.traps {
            let mut s = String::new();
            let _ = writeln!(s, "    int peek{fam}{i}({proto} x) {{");
            let _ = writeln!(s, "        {ops_class}.ensure{fam}(x).{}();", trap_op.method_name);
            let _ = writeln!(s, "        return 0;");
            let _ = writeln!(s, "    }}");
            methods.push(s);
            traps.push(Planted::new(
                fam,
                worker_class(fam, methods.len() - 1),
                format!("peek{fam}{i}"),
            ));
        }
    }

    // Pack worker methods into classes of 6.
    for (ci, chunk) in methods.chunks(6).enumerate() {
        let mut s = String::new();
        let _ = writeln!(s, "class {fam}Worker{ci} {{");
        for m in chunk {
            s.push_str(m);
        }
        let _ = writeln!(s, "}}");
        sources.push(s);
    }
}

/// The worker class a method at `slot` (0-based, 6 per class) lands in.
fn worker_class(fam: &str, slot: usize) -> String {
    format!("{fam}Worker{}", slot / 6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use java_syntax::ast::CompilationUnit;

    /// Every class of the corpus, printed back to Java.
    fn printed(corpus: &PmdCorpus) -> String {
        corpus.units.iter().map(java_syntax::print_unit).collect()
    }

    #[test]
    fn mixed_corpus_generates_and_parses_every_family() {
        let corpus = generate_mixed(&MixedConfig::small());
        let classes: BTreeSet<String> =
            corpus.units.iter().flat_map(|u| u.types.iter().map(|t| t.name.clone())).collect();
        for fam in ["Builder", "Connection", "File", "Iterator", "Lock", "Stream"] {
            assert!(classes.contains(&format!("{fam}Source")), "missing {fam}Source");
            assert!(classes.contains(&format!("{fam}Ops")), "missing {fam}Ops");
            assert!(classes.contains(&format!("{fam}Worker0")), "missing {fam}Worker0");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_mixed(&MixedConfig::small());
        let b = generate_mixed(&MixedConfig::small());
        assert_eq!(a.units, b.units);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn bugs_and_traps_are_keyed_per_family() {
        let corpus = generate_mixed(&MixedConfig::small());
        let bug_fams: BTreeSet<&str> = corpus.bugs.iter().map(|p| p.family.as_str()).collect();
        // Every family can express its planted bug.
        for fam in ["Builder", "Connection", "File", "Iterator", "Lock", "Stream"] {
            assert!(bug_fams.contains(fam), "no planted bug for {fam}");
        }
        // Every family with an indicator gets a trap (Stream has none).
        let trap_fams: BTreeSet<&str> = corpus.traps.iter().map(|p| p.family.as_str()).collect();
        for fam in ["Builder", "Connection", "File", "Iterator", "Lock"] {
            assert!(trap_fams.contains(fam), "no planted trap for {fam}");
        }
        assert!(!trap_fams.contains("Stream"));
        // All planted methods exist.
        let all: BTreeSet<MethodId> = corpus
            .units
            .iter()
            .flat_map(CompilationUnit::methods)
            .map(|(t, m)| MethodId::new(&t.name, &m.name))
            .collect();
        for p in corpus.bugs.iter().chain(&corpus.traps) {
            assert!(all.contains(&p.method), "planted {} not found", p.method);
        }
    }

    #[test]
    fn gold_specs_cover_maker_step_and_ensure_per_family() {
        let corpus = generate_mixed(&MixedConfig::small());
        for fam in ["Builder", "Connection", "File", "Iterator", "Lock", "Stream"] {
            assert!(corpus
                .gold
                .contains_key(&MethodId::new(format!("{fam}Source"), format!("make{fam}"))));
            assert!(corpus
                .gold
                .contains_key(&MethodId::new(format!("{fam}Ops"), format!("step{fam}"))));
        }
        assert!(corpus.gold.contains_key(&MethodId::new("LockOps", "ensureLock")));
        assert!(!corpus.gold.contains_key(&MethodId::new("StreamOps", "ensureStream")));
    }

    #[test]
    fn single_family_slice_contains_only_that_family() {
        let cfg = MixedConfig { families: vec!["Lock".into()], ..MixedConfig::small() };
        let corpus = generate_mixed(&cfg);
        assert!(printed(&corpus).contains("acquire"));
        assert!(!printed(&corpus).contains("readLine"));
        assert!(corpus.bugs.iter().all(|p| p.family == "Lock"));
    }

    #[test]
    fn derived_chains_match_the_protocol_dfas() {
        let registry = ProtocolRegistry::builtin();
        let chain_of = |fam: &str| {
            let def = registry.get(fam).unwrap();
            let shape = FamilyShape::derive(def).unwrap();
            shape.chain.iter().map(|m| m.method_name.clone()).collect::<Vec<_>>()
        };
        assert_eq!(chain_of("File"), vec!["readLine", "closeFile"]);
        assert_eq!(chain_of("Lock"), vec!["acquire", "release"]);
        assert_eq!(chain_of("Builder"), vec!["configure", "build"]);
        assert_eq!(chain_of("Connection"), vec!["send", "disconnect"]);
        assert_eq!(chain_of("Stream"), vec!["read", "close"]);
        assert_eq!(chain_of("Iterator"), Vec::<String>::new(), "Iterator is guarded");
    }

    #[test]
    fn derived_bug_ops_reapply_a_spent_precondition() {
        let registry = ProtocolRegistry::builtin();
        let bug_of = |fam: &str| {
            let def = registry.get(fam).unwrap();
            FamilyShape::derive(def).unwrap().bug_op.map(|m| m.method_name.clone())
        };
        assert_eq!(bug_of("File").as_deref(), Some("readLine"), "read after close");
        assert_eq!(bug_of("Lock").as_deref(), Some("release"), "double release");
        assert_eq!(bug_of("Builder").as_deref(), Some("configure"), "configure after build");
        assert_eq!(bug_of("Connection").as_deref(), Some("send"), "send after disconnect");
    }

    #[test]
    fn profiles_weight_the_workload_mix() {
        let aliasy = generate_mixed(&MixedConfig::aliasing_heavy());
        assert!(printed(&aliasy).contains("aliasFile3"));
        assert!(!printed(&aliasy).contains("relayFile0"));
        let cally = generate_mixed(&MixedConfig::callback_heavy());
        assert!(printed(&cally).contains("relayFile3"));
        assert!(!printed(&cally).contains("aliasFile0"));
    }

    #[test]
    fn mixed_corpus_writes_to_disk() {
        let corpus = generate_mixed(&MixedConfig::small());
        let dir = std::env::temp_dir().join(format!("anek-mixed-test-{}", std::process::id()));
        let n = corpus.write_to_dir(&dir).unwrap();
        assert_eq!(n, corpus.units.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
