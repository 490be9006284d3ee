//! `SPEC001`–`SPEC003` — consistency between a method's declared `@Perm`
//! specification and the dataflow facts of its body.
//!
//! * `SPEC001` — a receiver declared read-only (`pure(this)` or
//!   `immutable(this)`) must not write fields of `this`.
//! * `SPEC002` — `ensures unique(result)` should return a *freshly created*
//!   object; returning a parameter or a field read is provably stale.
//! * `SPEC003` — synchronizing on an object declared `unique` is suspicious:
//!   a unique object is unshared, so the lock is pointless (paper H5 treats
//!   sync targets as thread-shared).

use crate::dataflow::{solve, Analysis};
use crate::diag::{rules, Diagnostic, Severity};
use analysis::cfg::{Cfg, Terminator};
use analysis::events::{Event, EventKind, Place};
use analysis::types::{Callee, MethodId};
use spec_lang::permission::PermissionKind;
use spec_lang::spec::{MethodSpec, SpecTarget};
use spec_lang::stdlib::ApiRegistry;
use std::collections::BTreeMap;

/// Runs all spec-consistency checks for one method. `params` are the
/// method's formal parameter names.
pub(crate) fn check_method(
    spec: &MethodSpec,
    cfg: &Cfg,
    method: &str,
    params: &[String],
    api: &ApiRegistry,
    program_specs: &BTreeMap<MethodId, MethodSpec>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_readonly_receiver(spec, cfg, method, &mut diags);
    check_unique_sync(spec, cfg, method, &mut diags);
    check_unique_result(spec, cfg, method, params, api, program_specs, &mut diags);
    diags
}

/// `SPEC001`: `pure(this)`/`immutable(this)` in requires vs. field writes.
fn check_readonly_receiver(
    spec: &MethodSpec,
    cfg: &Cfg,
    method: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(atom) = spec.requires.for_target(&SpecTarget::This) else { return };
    if !matches!(atom.kind, PermissionKind::Pure | PermissionKind::Immutable) {
        return;
    }
    for b in cfg.reachable() {
        for e in &cfg.blocks[b].events {
            if let EventKind::FieldWrite { receiver, field, .. } = &e.kind {
                if receiver.place == Place::This {
                    diags.push(
                        Diagnostic::new(
                            rules::READONLY_WRITES,
                            Severity::Error,
                            format!(
                                "method requires `{atom}` (read-only receiver) \
                                 but writes field `{field}` of `this`"
                            ),
                            e.span,
                        )
                        .in_method(method),
                    );
                }
            }
        }
    }
}

/// `SPEC003`: `unique(this)`/`unique(param)` vs. `synchronized` on it.
fn check_unique_sync(spec: &MethodSpec, cfg: &Cfg, method: &str, diags: &mut Vec<Diagnostic>) {
    let unique_places: Vec<(Place, String)> = spec
        .requires
        .atoms
        .iter()
        .filter(|a| a.kind == PermissionKind::Unique)
        .filter_map(|a| match &a.target {
            SpecTarget::This => Some((Place::This, a.to_string())),
            SpecTarget::Param(p) => Some((Place::Local(p.clone()), a.to_string())),
            SpecTarget::Result => None,
        })
        .collect();
    if unique_places.is_empty() {
        return;
    }
    for b in cfg.reachable() {
        for e in &cfg.blocks[b].events {
            if let EventKind::Sync { target } = &e.kind {
                for (place, atom) in &unique_places {
                    if &target.place == place {
                        diags.push(
                            Diagnostic::new(
                                rules::UNIQUE_SYNC,
                                Severity::Warning,
                                format!(
                                    "synchronizing on `{place}` which is declared \
                                     `{atom}`; a unique object needs no lock"
                                ),
                                e.span,
                            )
                            .in_method(method),
                        );
                    }
                }
            }
        }
    }
}

/// Freshness of a reference: definitely freshly created on all paths, or
/// definitely derived from pre-existing state on all paths. An absent place
/// means "mixed/unknown" (top).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fresh {
    Fresh,
    Stale,
}

type FreshFact = Option<BTreeMap<Place, Fresh>>;

struct Freshness<'a> {
    api: &'a ApiRegistry,
    program_specs: &'a BTreeMap<MethodId, MethodSpec>,
    params: Vec<String>,
}

impl Freshness<'_> {
    fn callee_makes_unique_result(&self, callee: &Callee) -> bool {
        let spec = match callee {
            Callee::Api { type_name, method } => self.api.get(type_name, method).map(|m| &m.spec),
            Callee::Program(id) => self.program_specs.get(id),
            Callee::Unknown { .. } => None,
        };
        spec.and_then(|s| s.ensures.for_target(&SpecTarget::Result))
            .is_some_and(|a| a.kind == PermissionKind::Unique)
    }
}

impl Analysis for Freshness<'_> {
    type Fact = FreshFact;

    fn bottom(&self, _cfg: &Cfg) -> FreshFact {
        None
    }

    fn boundary(&self, _cfg: &Cfg) -> FreshFact {
        let mut map = BTreeMap::new();
        map.insert(Place::This, Fresh::Stale);
        for p in &self.params {
            map.insert(Place::Local(p.clone()), Fresh::Stale);
        }
        Some(map)
    }

    fn join(&self, into: &mut FreshFact, other: &FreshFact) -> bool {
        match (into.as_mut(), other) {
            (_, None) => false,
            (None, Some(_)) => {
                *into = other.clone();
                true
            }
            (Some(a), Some(b)) => {
                // Keep only places on which both paths agree.
                let before = a.len();
                a.retain(|p, f| b.get(p) == Some(f));
                a.len() != before
            }
        }
    }

    fn transfer_event(&self, fact: &mut FreshFact, event: &Event) {
        let Some(map) = fact.as_mut() else { return };
        match &event.kind {
            EventKind::New { dest, .. } => {
                map.insert(dest.clone(), Fresh::Fresh);
            }
            EventKind::Call { callee, dest, args, .. } => {
                for a in args.iter().flatten() {
                    // Escaped into the callee: uniqueness no longer certain.
                    map.remove(&a.place);
                }
                if let Some(d) = dest {
                    if self.callee_makes_unique_result(callee) {
                        map.insert(d.place.clone(), Fresh::Fresh);
                    } else {
                        map.remove(&d.place);
                    }
                }
            }
            EventKind::FieldRead { dest, .. } => {
                map.insert(dest.place.clone(), Fresh::Stale);
            }
            EventKind::FieldWrite { src, .. } => {
                if let Some(s) = src {
                    // Stored into a field: now aliased.
                    map.insert(s.place.clone(), Fresh::Stale);
                }
            }
            EventKind::Copy { dest, src } => match map.get(&src.place).copied() {
                Some(f) => {
                    map.insert(dest.clone(), f);
                }
                None => {
                    map.remove(dest);
                }
            },
            EventKind::Sync { .. } => {}
        }
    }
}

/// `SPEC002`: `ensures unique(result)` vs. what `return` actually returns.
fn check_unique_result(
    spec: &MethodSpec,
    cfg: &Cfg,
    method: &str,
    params: &[String],
    api: &ApiRegistry,
    program_specs: &BTreeMap<MethodId, MethodSpec>,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(atom) = spec.ensures.for_target(&SpecTarget::Result) else { return };
    if atom.kind != PermissionKind::Unique {
        return;
    }
    let analysis = Freshness { api, program_specs, params: params.to_vec() };
    let sol = solve(&analysis, cfg);
    for b in cfg.reachable() {
        let Some(Terminator::Return(Some(op))) = &cfg.blocks[b].term else { continue };
        let Some(map) = &sol.exit[b] else { continue };
        if map.get(&op.place) == Some(&Fresh::Stale) {
            diags.push(
                Diagnostic::new(
                    rules::STALE_UNIQUE_RESULT,
                    Severity::Warning,
                    format!(
                        "method ensures `{atom}` but returns `{}`, which is \
                         not freshly created",
                        op.place
                    ),
                    cfg.blocks[b].span,
                )
                .in_method(method),
            );
        }
    }
}
