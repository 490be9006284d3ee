//! Specification-quality comparison (paper §4.3, Table 4).
//!
//! The paper compared ANEK's inferred annotations against Bierhoff's
//! hand-written ones and bucketed each method into six categories. This
//! module reproduces that categorization given the hand ("gold") spec, the
//! inferred spec, and the generator's ground truth.

use spec_lang::{MethodSpec, PermAtom, PermClause, ALIVE};
use std::fmt;

/// The six Table 4 buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpecDiff {
    /// Inferred exactly matches the hand annotation.
    Same,
    /// ANEK added a correct spec where the hand version had none.
    AddedHelpful,
    /// ANEK added a spec that is stronger than needed (future proof burden).
    AddedConstraining,
    /// ANEK failed to infer a spec that the hand version had.
    Removed,
    /// ANEK changed an existing spec to a more restrictive (but not wrong)
    /// one.
    MoreRestrictive,
    /// ANEK's spec is wrong outright.
    Wrong,
}

impl SpecDiff {
    /// All buckets in Table 4's row order.
    pub const ALL: [SpecDiff; 6] = [
        SpecDiff::Same,
        SpecDiff::AddedHelpful,
        SpecDiff::AddedConstraining,
        SpecDiff::Removed,
        SpecDiff::MoreRestrictive,
        SpecDiff::Wrong,
    ];

    /// Table 4's row label.
    pub fn label(self) -> &'static str {
        match self {
            SpecDiff::Same => "Same",
            SpecDiff::AddedHelpful => "ANEK Added Helpful Spec.",
            SpecDiff::AddedConstraining => "ANEK Added Constraining Spec.",
            SpecDiff::Removed => "ANEK Removed Spec.",
            SpecDiff::MoreRestrictive => "ANEK Changed Spec., More Restrictive",
            SpecDiff::Wrong => "ANEK Changed Spec., Wrong",
        }
    }
}

impl fmt::Display for SpecDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

fn state_eq(a: Option<&str>, b: Option<&str>) -> bool {
    a.unwrap_or(ALIVE) == b.unwrap_or(ALIVE)
}

fn atom_eq(a: &PermAtom, b: &PermAtom) -> bool {
    a.target == b.target && a.kind == b.kind && state_eq(a.state.as_deref(), b.state.as_deref())
}

/// Whether atom `a` is at least as strong as atom `b` for the same target:
/// its permission kind satisfies `b`'s and its state constraint implies
/// `b`'s (same state, or `b` only demands `ALIVE`).
fn atom_at_least(a: &PermAtom, b: &PermAtom) -> bool {
    a.target == b.target
        && a.kind.satisfies(b.kind)
        && (state_eq(a.state.as_deref(), b.state.as_deref())
            || b.state.as_deref().unwrap_or(ALIVE) == ALIVE)
}

fn clause_eq(a: &PermClause, b: &PermClause) -> bool {
    a.atoms.len() == b.atoms.len() && a.atoms.iter().all(|x| b.atoms.iter().any(|y| atom_eq(x, y)))
}

/// Every atom demanded by `weak` is covered by an at-least-as-strong atom
/// in `strong`.
fn clause_covers(strong: &PermClause, weak: &PermClause) -> bool {
    weak.atoms.iter().all(|w| strong.atoms.iter().any(|s| atom_at_least(s, w)))
}

fn spec_eq(a: &MethodSpec, b: &MethodSpec) -> bool {
    clause_eq(&a.requires, &b.requires) && clause_eq(&a.ensures, &b.ensures)
}

/// Inferred covers gold and adds strength somewhere.
fn spec_covers(inferred: &MethodSpec, gold: &MethodSpec) -> bool {
    clause_covers(&inferred.requires, &gold.requires)
        && clause_covers(&inferred.ensures, &gold.ensures)
}

/// Categorizes one method's inferred spec against the gold (hand) spec.
///
/// `truth` is the generator's ground-truth spec for the method — the
/// maximally-informative correct annotation — used to tell *helpful*
/// additions from *constraining* ones. Returns `None` when both gold and
/// inferred are empty (nothing to compare).
pub fn compare_specs(
    gold: &MethodSpec,
    inferred: &MethodSpec,
    truth: Option<&MethodSpec>,
) -> Option<SpecDiff> {
    // Dynamic state tests (`@TrueIndicates`/`@FalseIndicates`) are specs
    // ANEK "currently does not attempt to infer" (§4.3) — a hand-written
    // state test the inference cannot reproduce lands in the Removed
    // bucket, exactly like the paper's three.
    if gold.is_state_test() && !inferred.is_state_test() {
        return Some(SpecDiff::Removed);
    }
    let gold_empty = gold.requires.is_empty() && gold.ensures.is_empty();
    let inf_empty = inferred.requires.is_empty() && inferred.ensures.is_empty();
    match (gold_empty, inf_empty) {
        (true, true) => None,
        (false, true) => Some(SpecDiff::Removed),
        (true, false) => {
            let truth = truth.unwrap_or(gold);
            if spec_eq(inferred, truth) || spec_covers(truth, inferred) {
                // Matches the truth, or is weaker than (implied by) it:
                // correct and imposes no extra burden.
                Some(SpecDiff::AddedHelpful)
            } else if spec_covers(inferred, truth) {
                // Strictly stronger than the truth requires.
                Some(SpecDiff::AddedConstraining)
            } else {
                Some(SpecDiff::Wrong)
            }
        }
        (false, false) => {
            if spec_eq(inferred, gold) {
                Some(SpecDiff::Same)
            } else if spec_covers(inferred, gold) {
                Some(SpecDiff::MoreRestrictive)
            } else {
                Some(SpecDiff::Wrong)
            }
        }
    }
}

/// Tallies categories over a set of methods (the Table 4 rows).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiffTally {
    counts: std::collections::BTreeMap<SpecDiff, usize>,
}

impl DiffTally {
    /// An empty tally.
    pub fn new() -> DiffTally {
        DiffTally::default()
    }

    /// Records one comparison.
    pub fn record(&mut self, diff: SpecDiff) {
        *self.counts.entry(diff).or_insert(0) += 1;
    }

    /// The count for a bucket.
    pub fn count(&self, diff: SpecDiff) -> usize {
        self.counts.get(&diff).copied().unwrap_or(0)
    }

    /// Total comparisons recorded.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Table 4's shape claim: inferred specs that match the gold set,
    /// add to it or tighten it outnumber wrong and removed ones, and some
    /// match exactly. Names the part that fails, if one does.
    pub fn broken_claim(&self) -> Option<String> {
        let good = self.count(SpecDiff::Same)
            + self.count(SpecDiff::AddedHelpful)
            + self.count(SpecDiff::AddedConstraining)
            + self.count(SpecDiff::MoreRestrictive);
        let bad = self.count(SpecDiff::Wrong) + self.count(SpecDiff::Removed);
        if good <= bad {
            Some(format!(
                "Table 4: Same + Added + More Restrictive ({good}) do not outnumber \
                 Wrong + Removed ({bad})"
            ))
        } else if self.count(SpecDiff::Same) == 0 {
            Some("Table 4: no inferred spec is the same as the gold one".to_string())
        } else {
            None
        }
    }
}

/// PLURAL's warning counts under Table 2's three annotation sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarningCounts {
    /// With no annotations ("Original").
    pub original: usize,
    /// With the hand-written gold annotations.
    pub gold: usize,
    /// With ANEK's inferred annotations.
    pub anek: usize,
}

impl WarningCounts {
    /// Table 2's shape claim: annotating removes warnings (Original warns
    /// more than Gold), and ANEK's specs warn at least as often as Gold and
    /// at most once more per planted branch trap, plus one: ANEK is
    /// branch-insensitive (§4.2). Names the part that fails, if one does.
    pub fn broken_claim(&self, branch_traps: usize) -> Option<String> {
        let WarningCounts { original, gold, anek } = *self;
        if original <= gold {
            Some(format!("Table 2: Original warns {original} times, not more than Gold's {gold}"))
        } else if anek < gold || anek > gold + branch_traps + 1 {
            Some(format!(
                "Table 2: Anek warns {anek} times, outside Gold's {gold} to Gold + branch traps \
                 + 1 = {}",
                gold + branch_traps + 1
            ))
        } else {
            None
        }
    }
}

impl fmt::Display for DiffTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in SpecDiff::ALL {
            writeln!(f, "{:42} {}", d.label(), self.count(d))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_lang::parse_clause;

    #[test]
    fn shape_claims_name_what_breaks() {
        let counts = WarningCounts { original: 45, gold: 3, anek: 4 };
        assert_eq!(counts.broken_claim(1), None);
        assert_eq!(WarningCounts { anek: 5, ..counts }.broken_claim(1), None);
        let over = WarningCounts { anek: 6, ..counts }.broken_claim(1).unwrap();
        assert!(over.contains("Anek warns 6 times"), "{over}");
        assert!(WarningCounts { anek: 2, ..counts }.broken_claim(1).is_some());
        let flat = WarningCounts { original: 3, ..counts }.broken_claim(1).unwrap();
        assert!(flat.contains("Original warns 3 times"), "{flat}");

        let mut tally = DiffTally::new();
        tally.record(SpecDiff::Wrong);
        tally.record(SpecDiff::AddedHelpful);
        assert!(tally.broken_claim().unwrap().contains("do not outnumber"));
        tally.record(SpecDiff::AddedHelpful);
        assert!(tally.broken_claim().unwrap().contains("no inferred spec is the same"));
        tally.record(SpecDiff::Same);
        assert_eq!(tally.broken_claim(), None);
    }

    fn spec(req: &str, ens: &str) -> MethodSpec {
        MethodSpec {
            requires: parse_clause(req).unwrap(),
            ensures: parse_clause(ens).unwrap(),
            true_indicates: None,
            false_indicates: None,
        }
    }

    #[test]
    fn identical_specs_are_same() {
        let g = spec("full(this) in HASNEXT", "full(this) in ALIVE");
        assert_eq!(compare_specs(&g, &g.clone(), None), Some(SpecDiff::Same));
    }

    #[test]
    fn alive_and_no_state_are_equal() {
        let g = spec("pure(this) in ALIVE", "");
        let i = spec("pure(this)", "");
        assert_eq!(compare_specs(&g, &i, None), Some(SpecDiff::Same));
    }

    #[test]
    fn empty_both_is_none() {
        assert_eq!(compare_specs(&MethodSpec::default(), &MethodSpec::default(), None), None);
    }

    #[test]
    fn missing_inference_is_removed() {
        let g = spec("pure(this)", "");
        assert_eq!(compare_specs(&g, &MethodSpec::default(), None), Some(SpecDiff::Removed));
    }

    #[test]
    fn added_matching_truth_is_helpful() {
        let truth = spec("", "unique(result) in ALIVE");
        let inferred = spec("", "unique(result) in ALIVE");
        assert_eq!(
            compare_specs(&MethodSpec::default(), &inferred, Some(&truth)),
            Some(SpecDiff::AddedHelpful)
        );
    }

    #[test]
    fn added_weaker_than_truth_is_helpful() {
        let truth = spec("", "unique(result)");
        let inferred = spec("", "full(result)");
        assert_eq!(
            compare_specs(&MethodSpec::default(), &inferred, Some(&truth)),
            Some(SpecDiff::AddedHelpful)
        );
    }

    #[test]
    fn added_stronger_than_truth_is_constraining() {
        let truth = spec("", "full(result)");
        let inferred = spec("", "unique(result)");
        assert_eq!(
            compare_specs(&MethodSpec::default(), &inferred, Some(&truth)),
            Some(SpecDiff::AddedConstraining)
        );
    }

    #[test]
    fn stronger_than_gold_is_more_restrictive() {
        let gold = spec("share(x)", "");
        let inferred = spec("full(x)", "");
        assert_eq!(compare_specs(&gold, &inferred, None), Some(SpecDiff::MoreRestrictive));
    }

    #[test]
    fn incompatible_change_is_wrong() {
        let gold = spec("full(this) in HASNEXT", "");
        let inferred = spec("pure(this) in END", "");
        assert_eq!(compare_specs(&gold, &inferred, None), Some(SpecDiff::Wrong));
    }

    #[test]
    fn tally_accumulates() {
        let mut t = DiffTally::new();
        t.record(SpecDiff::Same);
        t.record(SpecDiff::Same);
        t.record(SpecDiff::Wrong);
        assert_eq!(t.count(SpecDiff::Same), 2);
        assert_eq!(t.count(SpecDiff::Wrong), 1);
        assert_eq!(t.count(SpecDiff::Removed), 0);
        assert_eq!(t.total(), 3);
        let shown = t.to_string();
        assert!(shown.contains("Same"));
        assert!(shown.contains("Wrong"));
    }
}
