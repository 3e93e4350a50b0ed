#!/usr/bin/env bash
# Local CI gate: build, tests, lints, and a fault-injection smoke run.
# Run from the repository root. Everything here is offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check
# The benchmark (perf/) is its own workspace, out of reach of the root
# workspace's fmt and clippy, yet it links against crate internals.
cargo fmt --manifest-path perf/Cargo.toml -- --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

# The examples assert their own results (every decompression variant
# computes the same average; PHI ranks match the host reference within
# 1e-9), and nothing else runs them. About 7.5 s in total on a 2-vCPU
# host, of which pagerank_phi is 6.9 s.
echo "==> examples"
for ex in examples/*.rs; do
  cargo run --release -q --example "$(basename "$ex" .rs)" > /dev/null
done

# The benchmark (perf/) is its own workspace, so the root test run
# does not build it; test it here so a change under crates/ that
# breaks it fails CI.
echo "==> cargo test (perf)"
cargo test --manifest-path perf/Cargo.toml -q

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --manifest-path perf/Cargo.toml --all-targets -- -D warnings

# Warnings are errors, so a stale intra-doc link to a deleted item
# fails here instead of scrolling past.
echo "==> cargo doc"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Smoke the robustness contract: a small seeded campaign (6 scenarios
# per case study) must complete with zero invariant violations, every
# injected stall detected, and noninterference intact. Takes ~2s.
echo "==> fault_campaign smoke"
./target/release/fault_campaign --scale 0.25 --scenarios 6

# Protocol model-checker smoke: exhaust the tiny 2-tile bounded state
# space to depth 2 for all four Morph families (must be clean), replay
# every committed counterexample in crates/bench/regressions/ (each
# recorded violation must still reproduce), and arm the illegal-action
# mutant, which every family must catch and shrink to <= 8 steps.
# Takes ~5s with 4 workers; the report is byte-identical at any
# --jobs count.
echo "==> protocol_check smoke"
./target/release/protocol_check --depth 2 --jobs 4
for cex in crates/bench/regressions/*.takocex; do
  ./target/release/protocol_check --replay "$cex"
done
MUTDIR=$(mktemp -d)
./target/release/protocol_check --mutant --depth 2 --jobs 4 \
    --write-cex "$MUTDIR/mutant.takocex"
./target/release/protocol_check --replay "$MUTDIR/mutant.takocex"
rm -rf "$MUTDIR"

# Interrupt/resume smoke: journal a campaign, crash every experiment
# after two checkpointed units, resume it, and require the resumed
# output byte-identical to a clean (unjournaled) run. Then resume the
# now-complete journal once more: the unit journals are the only result
# store, so every experiment re-renders from them, simulating nothing.
# Timing lines ("[name took ...]") are stripped before the diff.
echo "==> campaign interrupt/resume smoke"
JDIR=$(mktemp -d)
trap 'rm -rf "$JDIR"' EXIT
if ./target/release/all_experiments --scale 0.01 --jobs 2 \
    --journal "$JDIR/journal" --crash-after-units 2 \
    > /dev/null 2> "$JDIR/crash.log"; then
  echo "error: crashed campaign should exit nonzero" >&2
  exit 1
fi
./target/release/all_experiments --scale 0.01 --jobs 2 \
    --journal "$JDIR/journal" --resume > "$JDIR/resumed.txt"
./target/release/all_experiments --scale 0.01 --jobs 2 > "$JDIR/clean.txt" \
    2> "$JDIR/clean.log"
diff <(grep -v 'took' "$JDIR/clean.txt") \
     <(grep -v 'took' "$JDIR/resumed.txt")
echo "    resumed campaign output matches clean run"
./target/release/all_experiments --scale 0.01 --jobs 2 \
    --journal "$JDIR/journal" --resume > "$JDIR/re-resumed.txt" \
    2> "$JDIR/re-resumed.log"
if ! grep -q ' 0 simulated accesses ' "$JDIR/re-resumed.log"; then
  echo "error: resuming a completed campaign simulated again:" >&2
  tail -n 1 "$JDIR/re-resumed.log" >&2
  exit 1
fi
diff <(grep -v 'took' "$JDIR/clean.txt") \
     <(grep -v 'took' "$JDIR/re-resumed.txt")
echo "    completed campaign re-rendered from its journal: 0 simulated accesses"

# --only view check: a view selected without its producer (fig14 reads
# fig13's runs) must pull those runs through its own run list and
# print exactly its block of the full run above.
echo "==> --only view check"
./target/release/all_experiments --only fig14 --scale 0.01 --jobs 2 \
    > "$JDIR/only-fig14.txt" 2> /dev/null
diff <(grep -v 'took' "$JDIR/only-fig14.txt") \
     <(grep -v 'took' "$JDIR/clean.txt" | sed -n '/^# Fig 14:/,/^$/p')
echo "    --only fig14 matches its block of the clean run"

# Simulated-access pin: a runner invocation simulates each distinct run
# once (run lists), so the suite's access total is deterministic and
# independent of --jobs. A duplicate simulation that comes back, or a
# view that stops sharing its producer's runs, moves it. This is a
# count, not a throughput floor.
echo "==> simulated-access pin"
if ! grep -q ' 4951041 simulated accesses ' "$JDIR/clean.log"; then
  echo "error: suite simulated-access total moved (want 4951041):" >&2
  tail -n 1 "$JDIR/clean.log" >&2
  exit 1
fi
echo "    4951041 simulated accesses at --scale 0.01"

# Journaled-view resume: the unit journal is the run list's on-disk
# image, so a view whose first attempt died resumes from its producer's
# journaled runs and simulates nothing.
echo "==> journaled view resume"
if ./target/release/all_experiments --only fig13,fig14 --scale 0.01 --jobs 2 \
    --journal "$JDIR/view-journal" --force-panic fig14 > /dev/null 2>&1; then
  echo "error: a forced panic should exit nonzero" >&2
  exit 1
fi
./target/release/all_experiments --only fig13,fig14 --scale 0.01 --jobs 2 \
    --journal "$JDIR/view-journal" --resume > "$JDIR/view-resumed.txt" \
    2> "$JDIR/view-resumed.log"
if ! grep -q ' 0 simulated accesses ' "$JDIR/view-resumed.log"; then
  echo "error: the resumed view re-simulated journaled runs:" >&2
  tail -n 1 "$JDIR/view-resumed.log" >&2
  exit 1
fi
diff <(grep -v 'took' "$JDIR/view-resumed.txt") \
     <(grep -v 'took' "$JDIR/clean.txt" | sed -n '/^# Fig 13:/,/^# Fig 16:/p' | sed '$d')
# The resume completed fig14, so its triage bundle is stale.
if [ -e "$JDIR/view-journal/fig14.triage.txt" ]; then
  echo "error: the resume left fig14's stale triage bundle" >&2
  exit 1
fi
echo "    resumed fig14 simulated 0 accesses, matches the clean run, lost its triage"

# Crash-point sweep smoke: every I/O site of a small journaled
# campaign, for every deterministic fault kind (the I/O error kind
# included), must resume to the uninterrupted run's golden digest
# (DESIGN.md §7d). Takes ~1s.
# The I/O-site count is pinned like the simulated-access total: the
# unit journal syncs after every unit, and a sync is an I/O site, so a
# change that batches (or drops) syncs, or adds a durable file, moves it.
echo "==> crash-point sweep smoke"
./target/release/crash_campaign --root "$JDIR/sweep" > "$JDIR/sweep.txt"
cat "$JDIR/sweep.txt"
if ! grep -q ' over 30 I/O sites, seed 42$' "$JDIR/sweep.txt"; then
  echo "error: crash sweep I/O-site count moved (want 30):" >&2
  head -n 1 "$JDIR/sweep.txt" >&2
  exit 1
fi

# Journal doctor smoke: --verify must flag exactly the committed
# corrupt fixtures (and exit nonzero doing so), and a repaired copy
# must come back clean.
echo "==> tako_fsck smoke"
if ./target/release/tako_fsck --verify crates/bench/regressions/fsck \
    > "$JDIR/fsck.txt"; then
  echo "error: verify should flag the corrupt fixtures" >&2
  exit 1
fi
grep -q '4 flagged' "$JDIR/fsck.txt"
cp -r crates/bench/regressions/fsck "$JDIR/fsck-repair"
./target/release/tako_fsck --repair "$JDIR/fsck-repair" > /dev/null
./target/release/tako_fsck --verify "$JDIR/fsck-repair" > /dev/null
echo "    fixtures flagged; repaired copy verifies clean"

# Observability smoke: a traced run must produce parseable Chrome
# trace JSON with real events, a profile table, and output that is
# byte-identical to the untraced clean run above (tracing is strictly
# observational).
echo "==> trace smoke"
./target/release/all_experiments --scale 0.01 --jobs 2 \
    --trace-out "$JDIR/trace.json" --profile > "$JDIR/traced.txt"
grep -q '^PROFILE:' "$JDIR/traced.txt"
diff <(grep -v 'took' "$JDIR/clean.txt") \
     <(grep -v 'took' "$JDIR/traced.txt" | sed '/^PROFILE:/,$d')
python3 - "$JDIR/trace.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
evs = d["traceEvents"]
inst = [e for e in evs if e.get("ph") == "i"]
assert inst, "trace has no instant events"
assert all(e["ts"] >= 0 for e in inst), "negative timestamp"
print(f"    trace JSON valid: {len(evs)} events ({len(inst)} instants)")
EOF
echo "    traced output matches clean run"
# Tracing and supervision arm the same observer; a traced, journaled
# (supervised) run must still print the clean run's output.
./target/release/all_experiments --scale 0.01 --jobs 2 \
    --journal "$JDIR/traced-journal" --profile > "$JDIR/traced-journaled.txt"
grep -q '^PROFILE:' "$JDIR/traced-journaled.txt"
diff <(grep -v 'took' "$JDIR/clean.txt") \
     <(grep -v 'took' "$JDIR/traced-journaled.txt" | sed '/^PROFILE:/,$d')
echo "    traced, journaled output matches clean run"
# The profile (stage cycles, miss latency, and the callback latency the
# systems' own stats recorded) must not depend on supervision or on
# journaling either.
diff <(sed -n '/^PROFILE:/,$p' "$JDIR/traced.txt") \
     <(sed -n '/^PROFILE:/,$p' "$JDIR/traced-journaled.txt")
echo "    traced, journaled profile matches traced run"

echo "ci: all green"
