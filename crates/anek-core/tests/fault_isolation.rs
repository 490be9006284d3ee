//! Fault isolation: a poisoned method costs exactly itself.
//!
//! Every fault class the harness can inject — a scripted panic inside the
//! solve, a NaN-poisoned factor table, an oversized model — must be caught
//! at the per-method boundary: the poisoned method reports `Failed` (or
//! `Degraded`), every other method still gets a spec, and the outcome table
//! stays byte-identical for every thread count. A fault in a method no one
//! depends on must not move a single bit of anyone else's spec.

use analysis::types::MethodId;
use anek_core::{infer, FaultInjection, InferConfig, MethodOutcome};
use java_syntax::parse;
use spec_lang::standard_api;

fn id(class: &str, method: &str) -> MethodId {
    MethodId::new(class, method)
}

#[test]
fn injected_panic_fails_only_its_method() {
    let api = standard_api();
    let units = [corpus::figure3_unit()];
    let cfg = InferConfig {
        faults: FaultInjection {
            panic_methods: vec!["Spreadsheet.copy".into()],
            ..FaultInjection::default()
        },
        ..InferConfig::default()
    };
    let result = infer(&units, &api, &cfg);

    match &result.outcomes[&id("Spreadsheet", "copy")] {
        MethodOutcome::Failed { error } => {
            assert!(error.to_string().contains("injected fault"), "{error}");
        }
        other => panic!("poisoned method should be Failed, got {other:?}"),
    }
    assert_eq!(result.failed_count(), 1, "{}", result.outcome_table());
    assert!(!result.fully_ok());

    // Every other method completed and produced a spec as usual.
    for (method, outcome) in &result.outcomes {
        if method != &id("Spreadsheet", "copy") {
            assert!(!outcome.is_failed(), "{method} collaterally failed: {outcome:?}");
        }
    }
    assert!(result.specs.contains_key(&id("Row", "createColIter")));
    assert!(result.specs.contains_key(&id("Spreadsheet", "copyTwice")));
}

#[test]
fn nan_poisoned_model_degrades_instead_of_crashing() {
    let api = standard_api();
    let units = [corpus::figure3_unit()];
    let cfg = InferConfig {
        faults: FaultInjection {
            nan_methods: vec!["Spreadsheet.total".into()],
            ..FaultInjection::default()
        },
        ..InferConfig::default()
    };
    let result = infer(&units, &api, &cfg);

    // The NaN factor is clamped by the kernel guard: the solve completes,
    // the clamp is counted, and the method is degraded — never failed.
    assert_eq!(result.failed_count(), 0, "{}", result.outcome_table());
    assert!(result.numeric_guard_events > 0, "clamp events must surface in the counters");
    match &result.outcomes[&id("Spreadsheet", "total")] {
        MethodOutcome::Degraded { reasons } => {
            assert!(
                reasons.iter().any(|r| r.to_string().starts_with("numeric-clamped")),
                "expected a numeric-clamped reason, got {reasons:?}"
            );
        }
        other => panic!("NaN-poisoned method should be Degraded, got {other:?}"),
    }
    assert!(result.specs.contains_key(&id("Spreadsheet", "total")), "degraded still yields a spec");
}

#[test]
fn oversized_model_is_refused_not_solved() {
    let api = standard_api();
    let units = [corpus::figure3_unit()];
    // Pad one method past the default cap; the cap itself stays at its
    // default so every organically-sized model is still accepted.
    let cfg = InferConfig {
        faults: FaultInjection {
            oversize_methods: vec![("Spreadsheet.copyTwice".into(), 1 << 21)],
            ..FaultInjection::default()
        },
        ..InferConfig::default()
    };
    let result = infer(&units, &api, &cfg);

    match &result.outcomes[&id("Spreadsheet", "copyTwice")] {
        MethodOutcome::Failed { error } => {
            assert!(error.to_string().contains("model too large"), "{error}");
        }
        other => panic!("oversized method should be Failed, got {other:?}"),
    }
    assert_eq!(result.failed_count(), 1, "{}", result.outcome_table());
    // The padded graph was refused *before* solving, so no other method
    // paid for it.
    assert!(result.specs.contains_key(&id("Spreadsheet", "copy")));
}

#[test]
fn outcome_table_is_byte_identical_for_any_thread_count_under_faults() {
    let api = standard_api();
    let units = [corpus::figure3_unit()];
    // One fault of each class at once: the nastiest deterministic mix.
    let faults = FaultInjection {
        panic_methods: vec!["Spreadsheet.copy".into()],
        nan_methods: vec!["Row.*".into()],
        oversize_methods: vec![("Spreadsheet.testParseCSV".into(), 1 << 21)],
        slow_methods: vec![],
    };
    let base_cfg = InferConfig { faults: faults.clone(), threads: 1, ..InferConfig::default() };
    let base = infer(&units, &api, &base_cfg);
    let want_table = base.outcome_table();
    let want_specs = format!("{:?}", base.specs);
    assert!(base.failed_count() >= 2, "panic and oversize both fail:\n{want_table}");
    for threads in [2, 4, 8] {
        let cfg = InferConfig { faults: faults.clone(), threads, ..InferConfig::default() };
        let got = infer(&units, &api, &cfg);
        assert_eq!(got.outcome_table(), want_table, "threads={threads} outcome table diverged");
        assert_eq!(format!("{:?}", got.specs), want_specs, "threads={threads} specs diverged");
    }
}

#[test]
fn fault_in_unrelated_class_moves_no_bits_elsewhere() {
    // `Island.roam` shares no call edge with Figure 3; panicking it must
    // leave every Figure 3 spec and summary byte-identical to the clean run.
    let island = parse(
        "class Island { void roam(Collection<Integer> c) { \
             Iterator<Integer> it = c.iterator(); \
             while (it.hasNext()) { it.next(); } } }",
    )
    .expect("island parses");
    let api = standard_api();
    let units = [corpus::figure3_unit(), island];

    let clean = infer(&units, &api, &InferConfig::default());
    let cfg = InferConfig {
        faults: FaultInjection {
            panic_methods: vec!["Island.roam".into()],
            ..FaultInjection::default()
        },
        ..InferConfig::default()
    };
    let faulted = infer(&units, &api, &cfg);

    assert!(faulted.outcomes[&id("Island", "roam")].is_failed());
    for (method, spec) in &clean.specs {
        if method.class == "Island" {
            continue;
        }
        assert_eq!(
            faulted.specs.get(method),
            Some(spec),
            "{method}: spec changed under an unrelated fault"
        );
    }
    for (method, summary) in &clean.summaries {
        if method.class == "Island" {
            continue;
        }
        assert_eq!(
            faulted.summaries.get(method),
            Some(summary),
            "{method}: summary changed under an unrelated fault"
        );
    }
}

#[test]
fn healthy_run_has_no_failures_and_an_outcome_per_method() {
    let api = standard_api();
    let units = [corpus::figure3_unit()];
    let result = infer(&units, &api, &InferConfig::default());
    assert_eq!(result.failed_count(), 0, "{}", result.outcome_table());
    for method in result.summaries.keys() {
        assert!(result.outcomes.contains_key(method), "{method} has no outcome entry");
    }
}
