//! Per-method solve outcomes: the structured error/degradation vocabulary
//! of the fault-isolated worklist.
//!
//! The paper's pitch is that probabilistic inference *keeps producing
//! usable specs where the logical mode gives up* — so the implementation
//! must degrade per method, never per program. Every method's final state
//! after [`crate::infer`] is classified into the three-level lattice
//!
//! ```text
//!   Ok  <  Degraded { reasons }  <  Failed { error }
//! ```
//!
//! `Ok` means the last solve converged cleanly and nothing numeric was
//! clamped. `Degraded` means a spec was still extracted, but from marginals
//! that should not be fully trusted (the reasons say why). `Failed` means
//! no solve of the method ever completed; its published summary is frozen
//! at the last committed value (the INIT prior summary if the very first
//! solve failed), which is exactly the paper's uniform-`h` fallback — soft
//! constraints still give an answer.
//!
//! Outcomes render into a deterministic text table ([`render_outcome_table`])
//! that the CLI prints and that tests compare across `--threads` values.

use analysis::types::MethodId;
use std::collections::BTreeMap;
use std::fmt;

/// Why a method's extracted spec is usable but not fully trusted.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeReason {
    /// The final solve hit the iteration cap (or the update budget) before
    /// reaching the convergence tolerance.
    BpNonConverged {
        /// Sweeps the final solve performed.
        iterations: usize,
    },
    /// The kernel clamped degenerate normalizations during the final solve
    /// (non-finite or zero-sum message mass).
    NumericClamped {
        /// Normalizations with NaN/infinite mass.
        non_finite: usize,
        /// Normalizations with zero mass.
        zero_sum: usize,
    },
    /// The worklist stopped (MaxIters) while this method was still queued
    /// for re-analysis: its published summary may be stale with respect to
    /// the last summaries/evidence its inputs produced.
    WorklistTruncated,
    /// The solve's wall-clock deadline (`BpOptions::deadline`, set by a
    /// server request's `deadline_ms`) expired before convergence, or the
    /// worklist stopped scheduling because the deadline had passed. The
    /// spec comes from whatever marginals were produced in time; the result
    /// is never cached (deadline truncation is timing-dependent).
    DeadlineExpired,
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::BpNonConverged { iterations } => {
                write!(f, "bp-nonconverged(iters={iterations})")
            }
            DegradeReason::NumericClamped { non_finite, zero_sum } => {
                write!(f, "numeric-clamped(non-finite={non_finite},zero-sum={zero_sum})")
            }
            DegradeReason::WorklistTruncated => write!(f, "worklist-truncated"),
            DegradeReason::DeadlineExpired => write!(f, "deadline-expired"),
        }
    }
}

/// Why no solve of a method ever completed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum InferError {
    /// A solve (skeleton build, stamping, message passing or read-out)
    /// panicked. The panic was caught at the per-method boundary; the
    /// message is the panic payload.
    SolvePanicked {
        /// The panic payload, rendered to text.
        message: String,
    },
    /// The method's factor graph exceeded `InferConfig::max_model_vars`
    /// and was refused before solving.
    ModelTooLarge {
        /// Variables the model would have had.
        vars: usize,
        /// The configured cap.
        limit: usize,
    },
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::SolvePanicked { message } => write!(f, "solve panicked: {message}"),
            InferError::ModelTooLarge { vars, limit } => {
                write!(f, "model too large: {vars} vars exceeds cap {limit}")
            }
        }
    }
}

/// The final classification of one method after inference.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodOutcome {
    /// The last solve converged with no numeric clamps; the spec is as
    /// trustworthy as the model.
    Ok {
        /// Sweeps the final solve took to converge.
        iterations: usize,
    },
    /// A spec was extracted, but under one or more degradations.
    Degraded {
        /// Every degradation observed, sorted and deduplicated.
        reasons: Vec<DegradeReason>,
    },
    /// No solve completed; the published summary is the last committed one
    /// (the INIT prior if the first solve already failed).
    Failed {
        /// What went wrong.
        error: InferError,
    },
    /// Skipped by the bit-vector screening pre-pass (`--screen`): the
    /// method was proven protocol-conformant and is isolated in the call
    /// graph, so no model was built and no solve ran.
    Screened,
}

impl MethodOutcome {
    /// Whether this outcome is `Ok`.
    pub fn is_ok(&self) -> bool {
        matches!(self, MethodOutcome::Ok { .. })
    }

    /// Whether this outcome is `Degraded`.
    pub fn is_degraded(&self) -> bool {
        matches!(self, MethodOutcome::Degraded { .. })
    }

    /// Whether this outcome is `Failed`.
    pub fn is_failed(&self) -> bool {
        matches!(self, MethodOutcome::Failed { .. })
    }

    /// Whether this outcome is `Screened`.
    pub fn is_screened(&self) -> bool {
        matches!(self, MethodOutcome::Screened)
    }

    /// The status column of the outcome table.
    pub fn status(&self) -> &'static str {
        match self {
            MethodOutcome::Ok { .. } => "ok",
            MethodOutcome::Degraded { .. } => "degraded",
            MethodOutcome::Failed { .. } => "failed",
            MethodOutcome::Screened => "screened",
        }
    }

    /// The detail column of the outcome table. Deterministic: never
    /// includes timing or addresses.
    pub fn detail(&self) -> String {
        match self {
            MethodOutcome::Ok { iterations } => format!("converged in {iterations} iters"),
            MethodOutcome::Degraded { reasons } => {
                reasons.iter().map(ToString::to_string).collect::<Vec<_>>().join("; ")
            }
            MethodOutcome::Failed { error } => error.to_string(),
            MethodOutcome::Screened => "provably clean (bitstate pre-pass)".to_string(),
        }
    }
}

impl fmt::Display for MethodOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\t{}", self.status(), self.detail())
    }
}

/// Renders the per-method outcome table: one `method<TAB>status<TAB>detail`
/// line per method in `BTreeMap` (i.e. deterministic) order.
///
/// The CLI prints this on stdout and the fault-injection tests compare it
/// across thread counts, so nothing non-deterministic (timing, thread ids,
/// pointer values) may ever appear here.
pub fn render_outcome_table(outcomes: &BTreeMap<MethodId, MethodOutcome>) -> String {
    let mut out = String::new();
    for (id, outcome) in outcomes {
        out.push_str(&format!("{id}\t{outcome}\n"));
    }
    out
}

/// Extracts a readable message from a caught panic payload.
///
/// `std::panic::catch_unwind` yields a `Box<dyn Any>`; panics raised via
/// `panic!` carry a `&str` or `String`, anything else is rendered
/// generically (deterministically — no addresses).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_and_detail_render() {
        let ok = MethodOutcome::Ok { iterations: 7 };
        assert_eq!(ok.status(), "ok");
        assert!(ok.detail().contains('7'));
        let deg = MethodOutcome::Degraded {
            reasons: vec![
                DegradeReason::BpNonConverged { iterations: 40 },
                DegradeReason::NumericClamped { non_finite: 3, zero_sum: 0 },
            ],
        };
        assert_eq!(deg.status(), "degraded");
        assert!(deg.detail().contains("bp-nonconverged(iters=40)"));
        assert!(deg.detail().contains("non-finite=3"));
        let failed =
            MethodOutcome::Failed { error: InferError::SolvePanicked { message: "boom".into() } };
        assert_eq!(failed.status(), "failed");
        assert!(failed.detail().contains("boom"));
    }

    #[test]
    fn table_is_sorted_and_tab_separated() {
        let mut outcomes = BTreeMap::new();
        outcomes.insert(MethodId::new("B", "m"), MethodOutcome::Ok { iterations: 1 });
        outcomes.insert(
            MethodId::new("A", "m"),
            MethodOutcome::Failed { error: InferError::ModelTooLarge { vars: 10, limit: 5 } },
        );
        let table = render_outcome_table(&outcomes);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("A.m\tfailed\t"));
        assert!(lines[1].starts_with("B.m\tok\t"));
    }

    #[test]
    fn panic_messages_extracted() {
        let r = std::panic::catch_unwind(|| panic!("static str"));
        assert_eq!(panic_message(r.unwrap_err().as_ref()), "static str");
        let label = "with value 3";
        let r = std::panic::catch_unwind(|| panic!("{label}"));
        assert_eq!(panic_message(r.unwrap_err().as_ref()), "with value 3");
    }

    #[test]
    fn reasons_order_deterministically() {
        let mut reasons =
            [DegradeReason::WorklistTruncated, DegradeReason::BpNonConverged { iterations: 2 }];
        reasons.sort();
        assert_eq!(reasons[0], DegradeReason::BpNonConverged { iterations: 2 });
    }
}
