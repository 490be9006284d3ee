#!/usr/bin/env bash
# CI gate for the workspace. Run from the repo root:
#
#   ./ci.sh            # full gate
#   ./ci.sh --fast     # skip the release build + corpus self-check
#
# Steps: formatting, clippy (warnings are errors), release build, the full
# test suite, and an `anek lint` self-check that regenerates the seeded
# PMD-shaped corpus and verifies the linter reports exactly the 3 planted
# protocol bugs (and nothing else).

set -euo pipefail
cd "$(dirname "$0")"

# The inference worklist clamps worker counts to the available cores (an
# oversubscribed speculative solve is pure waste). CI runners are often
# single-core, which would silently turn every `--threads 4` gate below into
# a sequential run; lifting the clamp keeps the speculative commit pipeline
# exercised. Results are byte-identical either way — that is what the gates
# verify.
export ANEK_OVERSUBSCRIBE=1

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
  step "inference determinism gate (threads 1 vs 4)"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  ./target/release/anek corpus "$tmp/det" --small 2>/dev/null
  ./target/release/anek infer --threads 1 "$tmp"/det/*.java 2>/dev/null >"$tmp/specs.t1"
  ./target/release/anek infer --threads 4 "$tmp"/det/*.java 2>/dev/null >"$tmp/specs.t4"
  if ! diff -u "$tmp/specs.t1" "$tmp/specs.t4"; then
    echo "determinism gate failed: --threads 1 and --threads 4 inferred different specs" >&2
    exit 1
  fi
  echo "determinism gate ok: identical specs for threads 1 and 4"

  step "mixed-protocol determinism gate (all families, threads 1 vs 4)"
  # Same byte-diff over the registry-driven mixed corpus: every protocol
  # family (File, Lock, Builder, Connection, Stream, Iterator) inferred
  # under the full library must be thread-count-invariant too.
  ./target/release/anek corpus "$tmp/mixed" --mixed 2>/dev/null
  ./target/release/anek infer --protocols all --threads 1 --max-iters 9360 "$tmp"/mixed/*.java 2>/dev/null >"$tmp/mixed.t1"
  ./target/release/anek infer --protocols all --threads 4 --max-iters 9360 "$tmp"/mixed/*.java 2>/dev/null >"$tmp/mixed.t4"
  if ! diff -u "$tmp/mixed.t1" "$tmp/mixed.t4"; then
    echo "mixed-protocol determinism gate failed: threads 1 and 4 inferred different specs" >&2
    exit 1
  fi
  if ! grep -q "LockSource.makeLock" "$tmp/mixed.t1" || ! grep -q "in FREE" "$tmp/mixed.t1"; then
    echo "mixed-protocol determinism gate failed: no Lock-family specs in the output" >&2
    exit 1
  fi
  echo "mixed-protocol determinism gate ok: identical specs for threads 1 and 4"

  step "protocol quality gate (per-family precision/recall vs baseline)"
  # Per-family F1 must not drop below the checked-in baseline, every
  # family's planted bugs must be flagged, and the Iterator paper-corpus
  # recall must stay at 100% (the "ANEK found the PMD bugs" claim).
  # Inference is deterministic, so any drop is a real regression.
  ./target/release/quality --small --baseline tests/golden/quality_baseline.json
  echo "protocol quality gate ok (BENCH_quality.json written)"

  step "bench regression gate (table2 --small: threads=1 counts exact, wall within 20% of baseline)"
  # This doubles as the trace zero-cost gate: table2 runs with tracing OFF
  # (the default), so its wall-clock passing the 20% regression threshold
  # proves the disabled trace path costs nothing.
  (cd "$tmp" && "$OLDPWD/target/release/table2" --small >/dev/null)
  ./target/release/bench_gate "$tmp/BENCH_infer.json" tests/golden/bench_baseline_small.json
  echo "trace zero-cost ok: traced-off wall-clock within the regression threshold"

  step "trace determinism gate (--trace-json: threads 1 vs 4)"
  # The execution section is the only thread-dependent line; strip it and
  # the rest of the artifact must byte-match across thread counts.
  ./target/release/anek infer --threads 1 --trace-json "$tmp/trace.t1.json" \
    "$tmp"/det/*.java 2>/dev/null >/dev/null
  ./target/release/anek infer --threads 4 --trace-json "$tmp/trace.t4.json" \
    "$tmp"/det/*.java 2>/dev/null >/dev/null
  grep -v '"section":"execution"' "$tmp/trace.t1.json" >"$tmp/trace.t1.det"
  grep -v '"section":"execution"' "$tmp/trace.t4.json" >"$tmp/trace.t4.det"
  if ! diff -u "$tmp/trace.t1.det" "$tmp/trace.t4.det"; then
    echo "trace gate failed: deterministic trace sections differ between threads 1 and 4" >&2
    exit 1
  fi
  echo "trace gate ok: deterministic sections byte-identical across threads"

  step "check-engine bench smoke (check_bench --small + BENCH_check.json)"
  (cd "$tmp" && "$OLDPWD/target/release/check_bench" --small >/dev/null)
  echo "check bench smoke ok: BENCH_check.json written (100x criterion enforced at paper scale)"

  step "--screen determinism gate (small corpus, threads 1 vs 4)"
  # The screening pre-pass must (a) produce byte-identical output at any
  # thread count, and (b) leave every non-screened method's spec and
  # outcome row byte-identical to the full (unscreened) run. Screened
  # methods print no spec blocks and report `screened` outcomes, so both
  # sides are filtered down to the non-screened set before comparing.
  ./target/release/anek infer --outcomes --max-iters 2000 --threads 1 \
    "$tmp"/det/*.java 2>"$tmp/screen.full.err" >"$tmp/screen.full"
  ./target/release/anek infer --outcomes --screen --max-iters 2000 --threads 1 \
    "$tmp"/det/*.java 2>"$tmp/screen.t1.err" >"$tmp/screen.t1"
  ./target/release/anek infer --outcomes --screen --max-iters 2000 --threads 4 \
    "$tmp"/det/*.java 2>/dev/null >"$tmp/screen.t4"
  if ! cmp -s "$tmp/screen.t1" "$tmp/screen.t4"; then
    echo "screen gate failed: --screen output differs between threads 1 and 4" >&2
    diff -u "$tmp/screen.t1" "$tmp/screen.t4" >&2 || true
    exit 1
  fi
  cat >"$tmp/screen-filter.awk" <<'EOF'
BEGIN { FS="\t" }
NR==FNR { if ($2=="screened") skip[$1]=1; next }
{
  line=$0
  if (match(line, /^[^ \t:]+:  \(confidence/)) {
    m=substr(line,1,index(line,":")-1)
    inspec=(m in skip)
    if (!inspec) print
    next
  }
  if (line ~ /^    /) { if (!inspec) print; next }
  inspec=0
  if (!($1 in skip)) print
}
EOF
  awk -f "$tmp/screen-filter.awk" "$tmp/screen.t1" "$tmp/screen.full" >"$tmp/screen.full.filtered"
  awk -f "$tmp/screen-filter.awk" "$tmp/screen.t1" "$tmp/screen.t1" >"$tmp/screen.t1.filtered"
  if ! cmp -s "$tmp/screen.t1.filtered" "$tmp/screen.full.filtered"; then
    echo "screen gate failed: non-screened specs/outcomes differ from the full run" >&2
    diff -u "$tmp/screen.full.filtered" "$tmp/screen.t1.filtered" >&2 || true
    exit 1
  fi
  full_solves="$(sed -n 's/.*with \([0-9]*\) model solves.*/\1/p' "$tmp/screen.full.err")"
  screen_solves="$(sed -n 's/.*with \([0-9]*\) model solves.*/\1/p' "$tmp/screen.t1.err")"
  if (( screen_solves * 5 > full_solves * 4 )); then
    echo "screen gate failed: --screen skipped < 20% of BP solves ($screen_solves of $full_solves)" >&2
    exit 1
  fi
  echo "screen gate ok: deterministic across threads, non-screened output identical," \
    "solves $full_solves -> $screen_solves"

  step "serve-latency bench (warm query_spec p50 >= 10x below cold)"
  (cd "$tmp" && "$OLDPWD/target/release/serve_latency" --small >/dev/null)
  echo "serve-latency ok: BENCH_serve.json written (10x criterion enforced by the binary)"

  step "serve-load bench (multi-session overload: coalescing, shedding, byte-identity)"
  # The binary enforces its own invariants via exit status: zero failed
  # outcomes, exact coalesced/rejected/cancelled counts, byte-identical
  # replay against a serial session, and the query p99 bound.
  (cd "$tmp" && "$OLDPWD/target/release/serve_load" --small >/dev/null)
  echo "serve-load ok: BENCH_serve_load.json written (invariants enforced by the binary)"

  step "anek lint self-check on the seeded corpus"
  ./target/release/anek corpus "$tmp" 2>/dev/null
  # The seed-42 paper corpus plants exactly 3 next()-without-hasNext() bugs;
  # the deterministic lint must find exactly those, as errors, and no more.
  if out="$(./target/release/anek lint "$tmp"/*.java 2>&1)"; then
    echo "expected anek lint to exit non-zero on the planted bugs" >&2
    exit 1
  fi
  errors="$(grep -c '^error\[PROT001\]' <<<"$out" || true)"
  total="$(grep -c '^error\|^warning' <<<"$out" || true)"
  if [[ "$errors" != 3 || "$total" != 3 ]]; then
    echo "lint self-check failed: expected exactly 3 PROT001 errors, got $errors (total findings: $total)" >&2
    echo "$out" >&2
    exit 1
  fi
  echo "lint self-check ok: exactly 3 PROT001 errors on the planted sites"

  step "anek check gate (golden verdicts + differential oracle on the seeded corpus)"
  # Golden bit-vector verdicts: with branch-sensitive inferred specs, the
  # bitstate engine must flag exactly the 3 planted protocol bugs — as
  # may-violations (CHK001), with the documented exit code 1.
  set +e
  ./target/release/anek check --infer --branch-sensitive --threads 8 --max-iters 9360 \
    --json "$tmp"/*.java 2>/dev/null >"$tmp/check.json"
  rc=$?
  set -e
  if [[ "$rc" != 1 ]]; then
    echo "check gate failed: expected exit 1 on the planted bugs, got $rc" >&2
    exit 1
  fi
  # `|| true` keeps a zero-match grep from tripping pipefail+errexit.
  chk1="$({ grep -o '"rule":"CHK001"' "$tmp/check.json" || true; } | wc -l)"
  chk2="$({ grep -o '"rule":"CHK002"' "$tmp/check.json" || true; } | wc -l)"
  if [[ "$chk1" != 3 || "$chk2" != 0 ]]; then
    echo "check gate failed: expected exactly 3 CHK001 findings, got CHK001=$chk1 CHK002=$chk2" >&2
    cat "$tmp/check.json" >&2
    exit 1
  fi
  # Differential verdict oracle: bitstate vs plural::check vs lint. Every
  # disagreement must be a documented precision gap; an undocumented
  # bitstate/plural split is a bug (both consume the same spec table).
  if ! ./target/release/anek check --infer --cross-validate --threads 8 --max-iters 9360 \
    "$tmp"/*.java 2>/dev/null >"$tmp/cross.out"; then
    echo "check gate failed: cross-validate reported undocumented disagreements" >&2
    cat "$tmp/cross.out" >&2
    exit 1
  fi
  if ! grep -q 'undocumented disagreements: 0' "$tmp/cross.out"; then
    echo "check gate failed: cross-validate summary missing or non-zero" >&2
    cat "$tmp/cross.out" >&2
    exit 1
  fi
  echo "check gate ok: 3/3 planted bugs flagged, zero undocumented verdict disagreements"
fi

step "all green"
