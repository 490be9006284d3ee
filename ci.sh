#!/usr/bin/env bash
# CI for the workspace. Run from the repo root:
#
#   ./ci.sh            # full run
#   ./ci.sh --fast     # formatting, clippy and the test suite only
#
# Every step is one cargo command or one binary, and each enforces its own
# invariants through its exit status. The determinism checks (threads 1 vs
# 4 on the small and mixed-protocol corpora, trace identity, screening
# equivalence) are Tier-1 tests, so `cargo test` runs them in both modes;
# `paper_check` holds the one check that needs the paper-scale corpus.

set -euo pipefail
cd "$(dirname "$0")"
root="$PWD"

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

if [[ $fast -eq 0 ]]; then
  step "cargo build --release"
  cargo build --release --workspace
fi

step "cargo test"
cargo test -q --workspace

if [[ $fast -eq 0 ]]; then
  # The kernel's bit-identity claims are about the optimized build users
  # run, so its tests and the Figure 3 golden fixture also run in release.
  step "kernel tests in release (factor-graph)"
  cargo test -q --release -p factor-graph
  step "Figure 3 golden bits in release"
  cargo test -q --release -p anek-core --test golden_figure3

  # `benchmark/` is a Cargo package outside the workspace, so nothing above
  # compiles it; an API change in `crates/` that breaks it shows up here.
  step "benchmark crate: build and unit tests"
  cargo test -q --manifest-path benchmark/Cargo.toml

  step "protocol quality vs baseline (quality --small)"
  # Per-family F1 must not drop below the checked-in baseline, every
  # family's planted bugs must be flagged, and the Iterator paper-corpus
  # recall must stay at 100%.
  ./target/release/quality --small --baseline tests/golden/quality_baseline.json

  # The benches below write BENCH_*.json into their working directory; a
  # scratch one keeps the checked-in paper-scale files untouched.
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  in_tmp() { (cd "$tmp" && "$root/target/release/$1" "${@:2}" >/dev/null); }

  step "Table 2 at small scale (table2 --small)"
  in_tmp table2 --small
  step "bench regression check (threads-1 counts exact, wall within 20%)"
  # table2 runs with tracing off, so passing the wall-clock bound also
  # shows that the disabled trace path costs nothing.
  ./target/release/bench_gate "$tmp/BENCH_infer.json" tests/golden/bench_baseline_small.json

  step "check-engine bench (check_bench --small)"
  in_tmp check_bench --small

  step "serve overload bench (serve_load --small)"
  # Zero failed outcomes, exact coalesced/rejected/cancelled counts,
  # byte-identical replay against a serial session, the query p99 bound.
  in_tmp serve_load --small

  step "paper-scale check (paper_check)"
  # With inferred specs the checker flags exactly the planted bugs, and
  # bitstate, PLURAL and the PROT001 lint disagree only where documented.
  ./target/release/paper_check
fi

step "all green"
