//! # bench
//!
//! The experiment harness: `paper_tables` reproduces the paper's evaluation
//! (§4) in one run, further binaries print its figures and ablations, and
//! micro-benchmarks (`cargo bench -p bench`) time components. Run binaries with
//! `cargo run --release -p bench --bin <name> [-- --small]`.
//!
//! | binary       | regenerates                                        |
//! |--------------|----------------------------------------------------|
//! | `paper_tables` | Tables 1–4, Figure 3's marginals, the §3.4 sweep, the screening matrix, Table 2's verdicts and the branch-sensitivity extension, checked against a golden |
//! | `figure4`    | the five permission kinds and legal splits         |
//! | `figure6`    | DOT of the `copy` method's PFG                     |
//! | `figure7`    | DOT of the field-access PFG                        |
//! | `figure8`    | prior distributions from an existing `@Perm`       |
//! | `figure1`    | the iterator/stream protocol state machines        |
//! | `ablation_modular` | modular ANEK-INFER vs whole-program `Φ_P`    |
//! | `ablation_heuristics` | H3 on/off (`full` vs `unique`, §1)        |

#![warn(missing_docs)]

use corpus::generator::{generate, PmdConfig, PmdCorpus};

/// Whether a harness binary runs at paper scale or a fast small scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Table 1 shape: 463 classes / 3,120 methods / 170 `next()` calls.
    Paper,
    /// A miniature corpus for quick runs and CI.
    Small,
}

impl Scale {
    /// Parses `--small` from the process arguments (default: paper scale).
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--small") {
            Scale::Small
        } else {
            Scale::Paper
        }
    }

    /// The corpus configuration for this scale.
    pub fn config(self) -> PmdConfig {
        match self {
            Scale::Paper => PmdConfig::paper(),
            Scale::Small => PmdConfig::small(),
        }
    }

    /// Generates the corpus for this scale.
    pub fn corpus(self) -> PmdCorpus {
        generate(&self.config())
    }
}

/// Formats a duration the way the paper does ("3min 47sec" / "22 sec").
pub fn fmt_duration(d: std::time::Duration) -> String {
    let secs = d.as_secs();
    if secs >= 60 {
        format!("{}min {:02}sec", secs / 60, secs % 60)
    } else if secs >= 1 {
        format!("{}.{:01}sec", secs, d.subsec_millis() / 100)
    } else {
        format!("{}ms", d.as_millis())
    }
}

/// This process's peak resident set size in kB (`VmHWM` in
/// `/proc/self/status`); `None` where that file is missing.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Prints a ruled table row.
pub fn row(cols: &[&str], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:<w$}  "));
    }
    println!("{}", line.trim_end());
}

/// Prints a table's header row and the rule under it.
pub fn rule(cols: &[&str], widths: &[usize]) {
    row(cols, widths);
    let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    row(&dashes.iter().map(String::as_str).collect::<Vec<_>>(), widths);
}

pub mod microbench;
