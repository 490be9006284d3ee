//! # anek-core
//!
//! The primary contribution of the reproduced paper (Beckman & Nori,
//! *Probabilistic, Modular and Scalable Inference of Typestate
//! Specifications*, PLDI 2011): probabilistic inference of access-permission
//! specifications.
//!
//! * [`constraints`] — the logical (L1–L3) and heuristic (H1–H5) soft
//!   constraints of §3.3, emitted over permission-kind and abstract-state
//!   Bernoulli variables.
//! * [`model`] — per-method factor-graph models (`𝒢m` of Definition 1) with
//!   Figure 8-style priors and `PARAMARG` call-site bindings.
//! * [`infer()`](infer::infer) — the modular `ANEK-INFER` worklist algorithm of Figure 9,
//!   built on probabilistic method summaries.
//! * [`logical`] — the deterministic whole-program baseline ("Anek Logical",
//!   Table 2) that hard constraints, no heuristics, and a work budget.
//! * [`compare`] — the Table 4 specification-quality categorization.
//! * [`vec_map`] — the sorted-vector map that slot marginals and caller
//!   evidence live in.
//!
//! ## Example
//!
//! ```
//! use anek_core::{infer, InferConfig};
//! use spec_lang::standard_api;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let unit = java_syntax::parse(
//!     "class App { void drain(Iterator<Integer> it) { while (it.hasNext()) { it.next(); } } }",
//! )?;
//! let api = standard_api();
//! let result = infer(&[unit], &api, &InferConfig::default());
//! let spec = &result.specs[&analysis::MethodId::new("App", "drain")];
//! assert!(!spec.requires.is_empty()); // a precondition for `it` was inferred
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod compare;
pub mod config;
pub mod constraints;
pub mod explain;
pub mod global;
pub mod infer;
pub mod logical;
pub mod memo;
pub mod model;
pub mod outcome;
pub mod summary;
pub mod vec_map;

pub use compare::{compare_specs, DiffTally, SpecDiff, WarningCounts};
pub use config::{FaultInjection, InferConfig};
pub use explain::{explain_method, AtomExplanation, Contributor, MethodExplanation};
pub use global::infer_global;
pub use infer::{infer, infer_with_store, merged_states, InferResult};
pub use logical::{solve_logical, LogicalOutcome, LogicalResult};
pub use memo::{CacheKey, InferCache, KeyHasher, SolvedRecord};
pub use model::{CallerEvidence, ExtraOrigin, MethodModel, MethodSkeleton, ModelCtx};
pub use outcome::{render_outcome_table, DegradeReason, InferError, MethodOutcome};
pub use summary::{MethodSummary, SlotProbs};
pub use vec_map::VecMap;
