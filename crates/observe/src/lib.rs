//! # observe
//!
//! Deterministic structured tracing for the ANEK inference pipeline, plus
//! the constraint-family vocabulary used by spec provenance (`anek
//! explain`).
//!
//! The design rule of this crate is that **no deterministic artifact ever
//! contains a wall-clock reading**. Logical clocks — solve sequence
//! numbers, BP iteration counts, message-update counts — are the only
//! notion of time. This is what lets a test compare a trace's first two
//! lines across `--threads 1` vs `4`: the worklist commits the same solve
//! sequence regardless of the thread count, so the same spans come out in
//! the same order with the same numbers.
//!
//! A [`Trace`] renders as exactly three JSON lines, one per determinism
//! class:
//!
//! 1. `"section":"spec"` — inferred specs and screened methods.
//!    Thread-independent.
//! 2. `"section":"deterministic"` — hierarchical counters plus one
//!    [`SolveSpan`] per committed solve, in commit order.
//!    Thread-independent.
//! 3. `"section":"execution"` — the parallel execution shape (speculative
//!    and discarded solves, chunk stalls). Deterministic *per thread
//!    count* but not across thread counts, which is why it lives on its
//!    own line: the cross-thread comparison leaves it out.

#![warn(missing_docs)]

use std::fmt;

/// The constraint family a factor belongs to — the vocabulary of
/// `anek explain`. `L*` are the paper's logical permission rules (§3.3),
/// `H*` its specification heuristics, and the remaining variants cover the
/// model's structural and prior factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FactorFamily {
    /// Soft one-hot over a slot's permission kinds / abstract states.
    ExactlyOne,
    /// L1 equality along a PFG edge (permissions flow unchanged).
    L1Equal,
    /// L1 at a split node: the outgoing permissions may *weaken* the
    /// incoming one (rendered `WEAKEN` — this is the family that lets a
    /// buggy caller drag a callee's precondition down).
    L1Split,
    /// L2 merge of incoming permissions at a join node.
    L2Incoming,
    /// L2 at a call-merge node (caller-side join over call effects).
    L2CallMerge,
    /// L3 field-write discipline.
    L3FieldWrite,
    /// H1: constructors return unique permissions.
    H1Ctor,
    /// H2: a parameter's pre and post kinds tend to agree.
    H2PrePost,
    /// H3: `create*` methods return unique results.
    H3Create,
    /// H4: `set*` methods take modifying receiver permissions.
    H4Setter,
    /// H5: synchronized targets are thread-shared.
    H5Sync,
    /// Prior stamped from the method's own declared `@Perm` spec.
    SpecPrior,
    /// Prior from an annotated API callee's protocol at a call site
    /// (rendered `PROT` — `Iterator.next()` requiring `HASNEXT` is this
    /// family).
    ApiProtocol,
    /// Branch-sensitivity refinement prior (state-test evidence).
    BranchRefine,
    /// An injected NaN fault factor (test-only).
    FaultNaN,
}

impl FactorFamily {
    /// Short stable label used in `anek explain` output and trace JSON.
    pub fn label(self) -> &'static str {
        match self {
            FactorFamily::ExactlyOne => "ONEHOT",
            FactorFamily::L1Equal => "L1",
            FactorFamily::L1Split => "WEAKEN",
            FactorFamily::L2Incoming => "L2",
            FactorFamily::L2CallMerge => "L2MERGE",
            FactorFamily::L3FieldWrite => "L3",
            FactorFamily::H1Ctor => "H1",
            FactorFamily::H2PrePost => "H2",
            FactorFamily::H3Create => "H3",
            FactorFamily::H4Setter => "H4",
            FactorFamily::H5Sync => "H5",
            FactorFamily::SpecPrior => "SPEC",
            FactorFamily::ApiProtocol => "PROT",
            FactorFamily::BranchRefine => "REFINE",
            FactorFamily::FaultNaN => "FAULT",
        }
    }
}

impl fmt::Display for FactorFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One inferred spec as it appears in the trace's `spec` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecEntry {
    /// `Class.method`.
    pub method: String,
    /// Rendered `requires` clause (may be empty).
    pub requires: String,
    /// Rendered `ensures` clause (may be empty).
    pub ensures: String,
}

/// One committed solve, in worklist commit order. `seq` is the logical
/// clock: the index of this commit in the (thread-count-independent)
/// sequential solve sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveSpan {
    /// Commit sequence number (0-based).
    pub seq: u64,
    /// `Class.method` solved.
    pub method: String,
    /// BP iterations the solve took (from the cached record on a hit).
    pub iterations: u64,
    /// Message updates the solve took.
    pub updates: u64,
    /// Whether BP converged within its budget.
    pub converged: bool,
    /// Non-finite normalization guard events.
    pub guards_non_finite: u64,
    /// Zero-sum normalization guard events.
    pub guards_zero_sum: u64,
    /// Whether the commit was satisfied from the solve cache.
    pub cache_hit: bool,
}

/// Hierarchical deterministic counters: identical for every `--threads N`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceCounters {
    /// Committed model solves.
    pub solves: u64,
    /// Total BP iterations across committed solves.
    pub bp_iterations: u64,
    /// Total message updates across committed solves.
    pub message_updates: u64,
    /// Solve-cache hits committed by the worklist.
    pub memo_hits: u64,
    /// Solve-cache misses committed by the worklist.
    pub memo_misses: u64,
    /// Methods skipped by the bit-vector screening pre-pass.
    pub screened_methods: u64,
    /// Solves that hit their iteration budget without converging.
    pub nonconverged_solves: u64,
    /// Total numeric normalization guard events.
    pub numeric_guard_events: u64,
}

/// The parallel execution shape. Deterministic for a fixed thread count
/// but *not* across thread counts, so it renders on its own JSON line
/// which cross-thread comparisons strip.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceExecution {
    /// Worker threads the run resolved to.
    pub threads: u64,
    /// Solves attempted speculatively against frozen snapshots.
    pub speculative_solves: u64,
    /// Speculations discarded as stale and re-solved inline.
    pub discarded_solves: u64,
    /// Worklist chunks that ran the speculative parallel path.
    pub speculated_chunks: u64,
    /// Speculated chunks in which at least one speculation was discarded.
    pub stalled_chunks: u64,
    /// `seq` numbers of spans that were committed from a speculated chunk.
    pub speculative_spans: Vec<u64>,
    /// `seq` numbers of spans whose speculation was discarded (the span
    /// records the inline re-solve).
    pub discarded_spans: Vec<u64>,
}

/// A complete deterministic trace of one inference run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Inferred non-empty specs, in deterministic method order.
    pub specs: Vec<SpecEntry>,
    /// Methods the screening pre-pass skipped, in deterministic order.
    pub screened: Vec<String>,
    /// Deterministic counters.
    pub counters: TraceCounters,
    /// Per-solve spans in commit order.
    pub spans: Vec<SolveSpan>,
    /// The execution-shape section.
    pub execution: TraceExecution,
}

impl Trace {
    /// Renders the trace as its canonical three-line JSON artifact (see
    /// the module docs for the determinism class of each line). The
    /// output ends with a newline.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        self.render_spec_line(&mut out);
        out.push('\n');
        self.render_deterministic_line(&mut out);
        out.push('\n');
        self.render_execution_line(&mut out);
        out.push('\n');
        out
    }

    fn render_spec_line(&self, out: &mut String) {
        out.push_str("{\"section\":\"spec\",\"specs\":[");
        for (i, s) in self.specs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"method\":{},\"requires\":{},\"ensures\":{}}}",
                json_str(&s.method),
                json_str(&s.requires),
                json_str(&s.ensures)
            ));
        }
        out.push_str("],\"screened\":[");
        for (i, m) in self.screened.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(m));
        }
        out.push_str("]}");
    }

    fn render_deterministic_line(&self, out: &mut String) {
        let c = &self.counters;
        out.push_str(&format!(
            "{{\"section\":\"deterministic\",\"counters\":{{\
             \"solves\":{},\"bp_iterations\":{},\"message_updates\":{},\
             \"memo_hits\":{},\"memo_misses\":{},\"screened_methods\":{},\
             \"nonconverged_solves\":{},\"numeric_guard_events\":{}}},\"spans\":[",
            c.solves,
            c.bp_iterations,
            c.message_updates,
            c.memo_hits,
            c.memo_misses,
            c.screened_methods,
            c.nonconverged_solves,
            c.numeric_guard_events,
        ));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"method\":{},\"iterations\":{},\"updates\":{},\
                 \"converged\":{},\"guards_non_finite\":{},\"guards_zero_sum\":{},\
                 \"cache_hit\":{}}}",
                s.seq,
                json_str(&s.method),
                s.iterations,
                s.updates,
                s.converged,
                s.guards_non_finite,
                s.guards_zero_sum,
                s.cache_hit
            ));
        }
        out.push_str("]}");
    }

    fn render_execution_line(&self, out: &mut String) {
        let e = &self.execution;
        out.push_str(&format!(
            "{{\"section\":\"execution\",\"threads\":{},\"speculative_solves\":{},\
             \"discarded_solves\":{},\"speculated_chunks\":{},\"stalled_chunks\":{},\
             \"speculative_spans\":[",
            e.threads,
            e.speculative_solves,
            e.discarded_solves,
            e.speculated_chunks,
            e.stalled_chunks,
        ));
        push_u64s(out, &e.speculative_spans);
        out.push_str("],\"discarded_spans\":[");
        push_u64s(out, &e.discarded_spans);
        out.push_str("]}");
    }
}

fn push_u64s(out: &mut String, values: &[u64]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
}

/// Writes `s` as a quoted JSON string: `"`, `\` and the control
/// characters are escaped, everything else is written as it is. Traces,
/// lint diagnostics, `anek::json` and the bench reports all escape here.
///
/// # Errors
///
/// Propagates the writer's error.
pub fn write_json_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// `s` as a quoted JSON string (see [`write_json_str`]).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_str(&mut out, s).expect("a String accepts every write");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            specs: vec![SpecEntry {
                method: "App.drain".into(),
                requires: "full(it) in HASNEXT".into(),
                ensures: "full(it)".into(),
            }],
            screened: vec!["App.idle".into()],
            counters: TraceCounters {
                solves: 3,
                bp_iterations: 40,
                message_updates: 1234,
                memo_misses: 3,
                ..TraceCounters::default()
            },
            spans: vec![SolveSpan {
                seq: 0,
                method: "App.drain".into(),
                iterations: 40,
                updates: 1234,
                converged: false,
                guards_non_finite: 0,
                guards_zero_sum: 0,
                cache_hit: false,
            }],
            execution: TraceExecution { threads: 1, ..TraceExecution::default() },
        }
    }

    #[test]
    fn renders_three_lines_with_section_tags() {
        let text = sample().render();
        let lines: Vec<&str> = text.trim_end().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"section\":\"spec\""), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"section\":\"deterministic\""), "{}", lines[1]);
        assert!(lines[2].starts_with("{\"section\":\"execution\""), "{}", lines[2]);
        assert!(lines[0].contains("\"App.drain\""));
        assert!(lines[1].contains("\"solves\":3"));
        assert!(lines[2].contains("\"threads\":1"));
    }

    #[test]
    fn no_wall_clock_fields_anywhere() {
        // `stalled_chunks` is a deterministic *count* and is allowed; any
        // timing-shaped field name is not.
        let text = sample().render();
        for banned in ["_ms", "_ns", "_us", "elapsed", "wall", "duration"] {
            assert!(!text.contains(banned), "deterministic artifact leaked `{banned}`: {text}");
        }
    }

    #[test]
    fn strings_are_escaped() {
        let mut t = sample();
        t.specs[0].requires = "quote \" slash \\".into();
        let text = t.render();
        assert!(text.contains("quote \\\" slash \\\\"), "{text}");
    }

    #[test]
    fn family_labels_are_stable() {
        assert_eq!(FactorFamily::ApiProtocol.label(), "PROT");
        assert_eq!(FactorFamily::L1Split.label(), "WEAKEN");
        assert_eq!(FactorFamily::H3Create.to_string(), "H3");
    }
}
