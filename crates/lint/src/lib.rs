//! anek-lint: deterministic companion analyses for the ANEK pipeline.
//!
//! Two halves, both reporting through the structured [`diag`] engine:
//!
//! 1. A generic forward **monotone dataflow framework** ([`dataflow`]) over
//!    the event CFG, instantiated with two lints: deterministic protocol
//!    usage — `next()` without `hasNext()` — independent of the
//!    probabilistic inference (`PROT001`), and consistency between declared
//!    `@Perm` specifications and dataflow facts (`SPEC001`–`SPEC004`).
//! 2. An **IR verifier** ([`verify`]) in the style of LLVM's, checking the
//!    structural invariants of CFGs (`IR001`), PFGs (`IR002`) and emitted
//!    constraint systems (`IR003`) that the pipeline stages assume of each
//!    other.
//!
//! The entry point for source-level linting is [`lint_units`]; the verifier
//! functions are also called directly by `anek::pipeline` at stage
//! boundaries (always in debug builds, behind `--verify-ir` in release).

pub mod dataflow;
pub mod diag;
mod protocol;
mod spec_check;
pub mod verify;

pub use dataflow::{solve, solve_with_seed, Analysis, Solution, SolveStats};
pub use diag::{rules, sort_diagnostics, to_json_array, Diagnostic, Severity};

use analysis::cfg::Cfg;
use analysis::pfg::Pfg;
use analysis::types::{MethodId, ProgramIndex, TypeEnv};
use java_syntax::ast::{CompilationUnit, MethodDecl};
use spec_lang::spec::{spec_of_method, MethodSpec};
use spec_lang::stdlib::ApiRegistry;
use std::collections::BTreeMap;

/// Knobs for [`lint_units`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LintOptions {
    /// Also run the IR verifier over every method's CFG and PFG.
    pub verify_ir: bool,
}

struct MethodCtx<'a> {
    id: MethodId,
    decl: &'a MethodDecl,
    class: &'a str,
    cfg: Cfg,
    return_type: Option<String>,
}

/// Lints a program: runs every dataflow lint and spec-consistency check
/// over all method bodies, returning diagnostics in reporting order.
pub fn lint_units(
    units: &[CompilationUnit],
    api: &ApiRegistry,
    opts: &LintOptions,
) -> Vec<Diagnostic> {
    let index = ProgramIndex::build(units.iter());
    let mut diags = Vec::new();
    let mut program_specs: BTreeMap<MethodId, MethodSpec> = BTreeMap::new();
    let mut methods: Vec<MethodCtx<'_>> = Vec::new();

    for unit in units {
        for t in &unit.types {
            for m in t.methods() {
                let id = MethodId::new(&t.name, &m.name);
                match spec_of_method(m) {
                    Ok(spec) => {
                        program_specs.insert(id.clone(), spec);
                    }
                    Err(e) => {
                        diags.push(
                            Diagnostic::new(
                                rules::MALFORMED_SPEC,
                                Severity::Error,
                                e.to_string(),
                                m.span,
                            )
                            .in_method(id.to_string()),
                        );
                    }
                }
                if m.body.is_none() {
                    continue;
                }
                let mut env = TypeEnv::for_method(&index, api, &t.name, m);
                let cfg = Cfg::build(m, &mut env);
                let return_type = index.method(&id).and_then(|info| info.return_type.clone());
                methods.push(MethodCtx { id, decl: m, class: &t.name, cfg, return_type });
            }
        }
    }

    // Interprocedural protocol summaries: possible return states per method.
    let protocol_methods: Vec<protocol::ProtocolMethod<'_>> = methods
        .iter()
        .map(|m| protocol::ProtocolMethod {
            id: &m.id,
            cfg: &m.cfg,
            return_type: m.return_type.as_deref(),
        })
        .collect();
    let summaries = protocol::compute_summaries(&protocol_methods, api, &program_specs);
    let protocol_analysis = protocol::ProtocolAnalysis::new(api, &program_specs, &summaries);

    for m in &methods {
        let name = m.id.to_string();
        diags.extend(protocol::report(&protocol_analysis, &m.cfg, &name));
        if let Some(spec) = program_specs.get(&m.id) {
            if !spec.is_empty() {
                let params: Vec<String> = m.decl.params.iter().map(|p| p.name.clone()).collect();
                diags.extend(spec_check::check_method(
                    spec,
                    &m.cfg,
                    &name,
                    &params,
                    api,
                    &program_specs,
                ));
            }
        }
        if opts.verify_ir {
            diags.extend(verify::verify_cfg(&m.cfg, &name));
            diags.extend(verify::verify_pfg(&Pfg::build(&index, api, m.class, m.decl)));
        }
    }

    sort_diagnostics(&mut diags);
    diags
}
