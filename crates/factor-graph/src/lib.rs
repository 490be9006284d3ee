//! # factor-graph
//!
//! A small probabilistic-inference engine over Bernoulli variables: factor
//! graphs with tabulated potentials, solved by the sum-product algorithm
//! (loopy belief propagation) with an exact-enumeration cross-check. It
//! stands in for the INFER.NET library the original ANEK implementation used
//! (Beckman & Nori, PLDI 2011, §4.1); the paper only requires approximate
//! marginals of a factorized Bernoulli joint (Eq. 4–6).
//!
//! ## Example
//!
//! ```
//! use factor_graph::{BpOptions, Factor, FactorGraph};
//!
//! let mut g = FactorGraph::new();
//! let x = g.add_var();
//! let y = g.add_var();
//! g.add_factor(Factor::unary(x, 0.9));                       // prior belief
//! g.add_factor(Factor::soft(vec![x, y], 0.8, |a| a[0] == a[1])); // soft equality
//! let m = g.solve(&BpOptions::default());
//! assert!(m.prob(y) > 0.5); // y is pulled towards x's evidence
//! ```

#![warn(missing_docs)]

pub mod factor;
pub mod graph;
pub mod kernel;

pub use factor::{Factor, Table, VarId, MAX_SCOPE};
pub use graph::{BpOptions, FactorGraph, GuardEvents, Marginals};
pub use kernel::{BeliefTerm, CompiledGraph, Scratch};
