//! Probabilistic method summaries (paper §3.4).
//!
//! A summary records, for each pre/postcondition node of a method, the
//! current marginal probability of every permission-kind and abstract-state
//! variable. Summaries are what make `ANEK-INFER` modular: callers consume
//! callee summaries as evidence, and re-analysis refines them over time.

use crate::vec_map::VecMap;
use spec_lang::{MethodSpec, PermAtom, PermClause, PermissionKind, SpecTarget, ALIVE};
use std::fmt;
use std::sync::Arc;

/// Marginals for one object slot (a parameter's pre or post, or the result).
#[derive(Debug, Clone, PartialEq)]
pub struct SlotProbs {
    /// `p(kind)` for each of the five kinds, indexed per
    /// [`PermissionKind::ALL`].
    pub kinds: [f64; 5],
    /// `p(state)` per abstract state of the slot's type, keyed by the
    /// state names the type's [`spec_lang::StateSpace`] shares.
    pub states: VecMap<Arc<str>, f64>,
}

impl SlotProbs {
    /// An uninformative slot over the given states.
    pub fn uniform<S: Into<Arc<str>>>(states: impl IntoIterator<Item = S>) -> SlotProbs {
        SlotProbs { kinds: [0.5; 5], states: states.into_iter().map(|s| (s.into(), 0.5)).collect() }
    }

    /// The probability of a kind.
    pub fn kind(&self, k: PermissionKind) -> f64 {
        let idx = PermissionKind::ALL.iter().position(|x| *x == k).expect("all kinds indexed");
        self.kinds[idx]
    }

    /// Sets the probability of a kind.
    pub fn set_kind(&mut self, k: PermissionKind, p: f64) {
        let idx = PermissionKind::ALL.iter().position(|x| *x == k).expect("all kinds indexed");
        self.kinds[idx] = p;
    }

    /// The probability of a state (0.5 when unknown).
    pub fn state(&self, s: &str) -> f64 {
        self.states.get(s).copied().unwrap_or(0.5)
    }

    /// Largest absolute difference against another slot (for convergence).
    pub fn max_delta(&self, other: &SlotProbs) -> f64 {
        let mut d = 0.0f64;
        for i in 0..5 {
            d = d.max((self.kinds[i] - other.kinds[i]).abs());
        }
        for (s, p) in &self.states {
            d = d.max((p - other.state(s)).abs());
        }
        d
    }

    /// Extracts the most desirable kind above threshold `t`: the *strongest*
    /// kind whose marginal clears the bar ("as returned permissions go,
    /// unique is the best choice whenever possible", §1).
    pub fn extract_kind(&self, t: f64) -> Option<PermissionKind> {
        let mut best: Option<(PermissionKind, f64)> = None;
        for k in PermissionKind::ALL {
            let p = self.kind(k);
            if p > t {
                match best {
                    Some((bk, _)) if bk.strength_rank() <= k.strength_rank() => {}
                    _ => best = Some((k, p)),
                }
            }
        }
        // ALL is strongest-first, so the first hit wins; keep the scan simple
        // by preferring lower strength_rank.
        best.map(|(k, _)| k)
    }

    /// Extracts the most likely state above threshold `t`.
    ///
    /// Because ANEK is branch-insensitive, loop-path states bleed into exit
    /// paths and can leave two states with similar middling marginals; a
    /// state is only committed to when it clearly dominates the runner-up
    /// (emitting no state atom is always sound — PLURAL treats it as
    /// `ALIVE`, the root).
    pub fn extract_state(&self, t: f64) -> Option<String> {
        const MARGIN: f64 = 1.2;
        let mut ranked: Vec<(&Arc<str>, f64)> = self.states.iter().map(|(s, p)| (s, *p)).collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let (best, p_best) = ranked.first()?;
        if *p_best <= t {
            return None;
        }
        if let Some((_, p_second)) = ranked.get(1) {
            if *p_best < MARGIN * *p_second {
                return None;
            }
        }
        Some(best.to_string())
    }
}

impl fmt::Display for SlotProbs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, k) in PermissionKind::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{k}={:.2}", self.kinds[i])?;
        }
        for (s, p) in &self.states {
            write!(f, " {s}={p:.2}")?;
        }
        Ok(())
    }
}

/// A probabilistic summary for one method: slots for each reference
/// parameter (pre and post) and the result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MethodSummary {
    /// Per-parameter (name, pre-slot, post-slot); receiver is named `this`.
    pub params: Vec<(String, SlotProbs, SlotProbs)>,
    /// Result slot, when the method returns a reference.
    pub result: Option<SlotProbs>,
}

impl MethodSummary {
    /// Finds a parameter's slots by name.
    pub fn param(&self, name: &str) -> Option<(&SlotProbs, &SlotProbs)> {
        self.params.iter().find(|(n, _, _)| n == name).map(|(_, pre, post)| (pre, post))
    }

    /// Largest marginal change against another summary.
    pub fn max_delta(&self, other: &MethodSummary) -> f64 {
        let mut d = 0.0f64;
        for ((_, pre_a, post_a), (_, pre_b, post_b)) in self.params.iter().zip(&other.params) {
            d = d.max(pre_a.max_delta(pre_b)).max(post_a.max_delta(post_b));
        }
        match (&self.result, &other.result) {
            (Some(a), Some(b)) => d = d.max(a.max_delta(b)),
            (None, None) => {}
            _ => d = 1.0,
        }
        d
    }

    /// Extracts the deterministic specification using threshold `t`
    /// (Figure 9, lines 22–29). State atoms over a trivial (`ALIVE`-only)
    /// space are left stateless.
    pub fn extract_spec(&self, t: f64) -> MethodSpec {
        self.extract_spec_with_confidence(t).0
    }

    /// Like [`MethodSummary::extract_spec`], additionally reporting the
    /// specification's *confidence*: the smallest marginal among the chosen
    /// atoms' kinds (1.0 for an empty spec). Downstream tooling can sort or
    /// filter inferred annotations by how sure the model is.
    pub fn extract_spec_with_confidence(&self, t: f64) -> (MethodSpec, f64) {
        let mut requires = PermClause::empty();
        let mut ensures = PermClause::empty();
        let mut confidence = 1.0f64;
        for (name, pre, post) in &self.params {
            let target =
                if name == "this" { SpecTarget::This } else { SpecTarget::Param(name.clone()) };
            if let Some(kind) = pre.extract_kind(t) {
                confidence = confidence.min(pre.kind(kind));
                let state = pre.extract_state(t).filter(|s| s != ALIVE || pre.states.len() > 1);
                requires.atoms.push(PermAtom { kind, target: target.clone(), state });
            }
            if let Some(kind) = post.extract_kind(t) {
                confidence = confidence.min(post.kind(kind));
                let state = post.extract_state(t).filter(|s| s != ALIVE || post.states.len() > 1);
                ensures.atoms.push(PermAtom { kind, target: target.clone(), state });
            }
        }
        if let Some(result) = &self.result {
            if let Some(kind) = result.extract_kind(t) {
                confidence = confidence.min(result.kind(kind));
                let state =
                    result.extract_state(t).filter(|s| s != ALIVE || result.states.len() > 1);
                ensures.atoms.push(PermAtom { kind, target: SpecTarget::Result, state });
            }
        }
        let spec = MethodSpec { requires, ensures, true_indicates: None, false_indicates: None };
        (spec, confidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iterator_slot() -> SlotProbs {
        SlotProbs::uniform(["ALIVE", "HASNEXT", "END"])
    }

    #[test]
    fn kind_get_set_round_trip() {
        let mut s = iterator_slot();
        s.set_kind(PermissionKind::Full, 0.93);
        assert!((s.kind(PermissionKind::Full) - 0.93).abs() < 1e-12);
        assert!((s.kind(PermissionKind::Pure) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn extract_prefers_strongest_kind() {
        let mut s = iterator_slot();
        s.set_kind(PermissionKind::Pure, 0.9);
        s.set_kind(PermissionKind::Unique, 0.8);
        // Both clear a 0.7 bar; unique is stronger and wins (paper §1).
        assert_eq!(s.extract_kind(0.7), Some(PermissionKind::Unique));
        // With a 0.85 bar only pure clears.
        assert_eq!(s.extract_kind(0.85), Some(PermissionKind::Pure));
        // Nothing clears 0.95.
        assert_eq!(s.extract_kind(0.95), None);
    }

    #[test]
    fn extract_state_takes_argmax() {
        let mut s = iterator_slot();
        s.states.insert("HASNEXT".into(), 0.7);
        s.states.insert("ALIVE".into(), 0.9);
        assert_eq!(s.extract_state(0.6), Some("ALIVE".into()));
    }

    #[test]
    fn spec_extraction_builds_clauses() {
        let mut pre = iterator_slot();
        pre.set_kind(PermissionKind::Full, 0.95);
        pre.states.insert("HASNEXT".into(), 0.92);
        let mut post = iterator_slot();
        post.set_kind(PermissionKind::Full, 0.95);
        post.states.insert("ALIVE".into(), 0.88);
        let summary = MethodSummary { params: vec![("this".into(), pre, post)], result: None };
        let spec = summary.extract_spec(0.6);
        assert_eq!(spec.requires.to_string(), "full(this) in HASNEXT");
        assert_eq!(spec.ensures.to_string(), "full(this) in ALIVE");
    }

    #[test]
    fn trivial_state_space_gives_stateless_atoms() {
        let mut pre = SlotProbs::uniform(["ALIVE"]);
        pre.set_kind(PermissionKind::Pure, 0.9);
        pre.states.insert("ALIVE".into(), 0.95);
        let summary = MethodSummary { params: vec![("x".into(), pre.clone(), pre)], result: None };
        let spec = summary.extract_spec(0.6);
        assert_eq!(spec.requires.to_string(), "pure(x)");
    }

    #[test]
    fn below_threshold_yields_empty_spec() {
        let summary = MethodSummary {
            params: vec![("this".into(), iterator_slot(), iterator_slot())],
            result: Some(iterator_slot()),
        };
        assert!(summary.extract_spec(0.6).is_empty());
    }

    #[test]
    fn confidence_tracks_weakest_atom() {
        let mut pre = iterator_slot();
        pre.set_kind(PermissionKind::Full, 0.95);
        let mut post = iterator_slot();
        post.set_kind(PermissionKind::Full, 0.7);
        let summary = MethodSummary { params: vec![("this".into(), pre, post)], result: None };
        let (spec, confidence) = summary.extract_spec_with_confidence(0.6);
        assert_eq!(spec.requires.atoms.len(), 1);
        assert_eq!(spec.ensures.atoms.len(), 1);
        assert!((confidence - 0.7).abs() < 1e-9, "weakest chosen atom wins: {confidence}");
        // Empty specs are fully confident (nothing claimed).
        let empty = MethodSummary {
            params: vec![("this".into(), iterator_slot(), iterator_slot())],
            result: None,
        };
        assert_eq!(empty.extract_spec_with_confidence(0.6).1, 1.0);
    }

    #[test]
    fn max_delta_detects_changes() {
        let a = MethodSummary {
            params: vec![("this".into(), iterator_slot(), iterator_slot())],
            result: None,
        };
        let mut b = a.clone();
        assert_eq!(a.max_delta(&b), 0.0);
        b.params[0].1.set_kind(PermissionKind::Unique, 0.8);
        assert!((a.max_delta(&b) - 0.3).abs() < 1e-12);
    }
}
