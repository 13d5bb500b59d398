#!/usr/bin/env bash
# Tier-1 gate: full build + test suite, then a ThreadSanitizer pass over the
# parallel execution layer (tests/test_parallel) to catch data races the
# functional tests cannot, then an ASan+UBSan pass over the tolerant-ingest
# layer (decoder fuzz corpus + chaos, dataset and batch tests), the LPR
# LSP table (extract, filter, alias and tree tests) and the closed-form LDP
# plane (mpls and LDP oracle tests) to catch memory errors arbitrary bytes,
# bad pool offsets or bad per-router indexing could trigger. On top of
# that: a failpoint matrix (every io fault class injected at 2% must leave
# a campaign contained), a kill/resume torture loop (real process kills at
# fixed io-op ordinals; resumed runs must be byte-identical to an
# uninterrupted one) and a resume that re-ingests every cycle from its data
# shards.
#
# Usage: scripts/tier1.sh [build-dir] [tsan-build-dir] [asan-build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
tsan_build="${2:-$repo/build-tsan}"
asan_build="${3:-$repo/build-asan}"

echo "== tier-1: build + ctest ($build) =="
cmake -B "$build" -S "$repo"
cmake --build "$build" -j
ctest --test-dir "$build" --output-on-failure -j

mum="$build/tools/mum"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== tier-1: failpoint matrix (each io fault class at 2%) =="
# Every fault class injected alone must leave the campaign contained: the
# run exits ok (0) or degraded-complete (4) — never a crash, hang, or fatal.
for fault in io.eio io.enospc io.shortwrite io.torn io.stalerename io.slow; do
  rm -rf "$work/ck"
  code=0
  "$mum" campaign --small --cycles 12 --quiet --retry 2 \
    --checkpoints "$work/ck" --checkpoint-data \
    --chaos "$fault=2%" > "$work/$fault.out" 2>&1 || code=$?
  if [ "$code" -ne 0 ] && [ "$code" -ne 4 ]; then
    echo "FAIL: $fault=2% campaign exited $code"
    cat "$work/$fault.out"
    exit 1
  fi
  echo "  $fault=2% -> exit $code"
done

echo "== tier-1: kill/resume torture (real process kills) =="
# Kill the process at the K-th injected io op, resume from the checkpoint
# directory, and require the resumed report byte-identical to an
# uninterrupted run. Fixed K list spans early, mid and late campaign.
"$mum" campaign --small --cycles 12 --quiet > "$work/baseline.out"
for k in 2 7 13 23 31; do
  rm -rf "$work/kill"
  code=0
  "$mum" campaign --small --cycles 12 --quiet --checkpoints "$work/kill" \
    --chaos "io.kill_at=$k" > /dev/null 2>&1 || code=$?
  if [ "$code" -ne 9 ]; then
    echo "FAIL: io.kill_at=$k expected exit 9 (killed), got $code"
    exit 1
  fi
  "$mum" campaign --small --cycles 12 --quiet --resume "$work/kill" \
    > "$work/resume.out" 2> /dev/null
  if ! cmp -s "$work/baseline.out" "$work/resume.out"; then
    echo "FAIL: resume after kill at op $k diverged from baseline"
    diff "$work/baseline.out" "$work/resume.out" | head -20
    exit 1
  fi
  echo "  kill at op $k -> exit 9, resume byte-identical"
done

echo "== tier-1: resume from data shards (materialized + from-data paths) =="
# A --checkpoint-data write materializes every month; with the report
# checkpoints deleted, the resume re-ingests every cycle from its shards
# (without --checkpoint-data it would regenerate instead). Both reports
# must equal the uninterrupted streamed run.
rm -rf "$work/data"
"$mum" campaign --small --cycles 12 --quiet --checkpoints "$work/data" \
  --checkpoint-data > "$work/data_write.out"
rm -f "$work"/data/cycle_*.mumc
"$mum" campaign --small --cycles 12 --quiet --resume "$work/data" \
  --checkpoint-data > "$work/data_resume.out"
for run in data_write data_resume; do
  if ! cmp -s "$work/baseline.out" "$work/$run.out"; then
    echo "FAIL: $run diverged from baseline"
    diff "$work/baseline.out" "$work/$run.out" | head -20
    exit 1
  fi
done
echo "  --checkpoint-data write and from-data resume byte-identical"

echo "== tier-1: TSan pass over test_parallel + test_obs + test_evolve + test_batch ($tsan_build) =="
cmake -B "$tsan_build" -S "$repo" -DMUM_TSAN=ON
# Only these targets — a full TSan tree is slow and adds nothing here.
# The campaign loop runs cycles in order, so every race lives inside a
# cycle's pooled stages. test_parallel races the monitor fan-out, the
# classification shards and the runner across thread counts. test_obs runs
# with telemetry sinks installed, so the sharded metric and trace paths get
# raced for real. test_evolve races the DeltaEvolver's per-AS delta fan-out
# and SPF sources inside the campaign loop at 16 threads. test_batch races
# the arena-backed shard batches (one arena per monitor, merged in monitor
# order) at 16 threads and checks the reports against pinned digests.
cmake --build "$tsan_build" -j --target test_parallel --target test_obs \
  --target test_evolve --target test_batch
"$tsan_build/tests/test_parallel"
"$tsan_build/tests/test_obs"
"$tsan_build/tests/test_evolve"
"$tsan_build/tests/test_batch"

echo "== tier-1: ASan+UBSan pass over tolerant ingest, the LSP table and LDP ($asan_build) =="
cmake -B "$asan_build" -S "$repo" -DMUM_ASAN=ON
# test_batch's damaged-pack ingest and the fuzzer's round-trip arm both
# drive the zero-copy column views over hostile bytes; test_dataset's
# truncated and bit-flipped pack corpora drive the section-table validator
# and the damaged-record fill path into batch columns; test_chaos drives
# the columnar corruptor. The LPR front half keeps its LSPs as rows over
# pooled LSR and label arrays (lpr::LspTable), indexed by offsets that
# extraction writes, stitching and filtering rebase, and the alias rewrite
# rehashes: test_extract, test_filters, test_alias and test_tree drive all
# of them, against the object-based oracle where it applies. The LDP plane
# answers label_of by index arithmetic over per-router arrays (component,
# FEC rank, pool start, the wrap): test_mpls and test_ldp_reference drive
# it on disconnected, wrapping and generated worlds against the all-pairs
# oracle.
cmake --build "$asan_build" -j --target fuzz_warts --target test_chaos \
  --target test_batch --target test_dataset --target test_extract \
  --target test_filters --target test_alias --target test_tree \
  --target test_mpls --target test_ldp_reference
"$asan_build/tools/fuzz_warts" --iters 10000
"$asan_build/tests/test_chaos"
"$asan_build/tests/test_batch"
"$asan_build/tests/test_dataset"
"$asan_build/tests/test_extract"
"$asan_build/tests/test_filters"
"$asan_build/tests/test_alias"
"$asan_build/tests/test_tree"
"$asan_build/tests/test_mpls"
"$asan_build/tests/test_ldp_reference"

echo "== tier-1: OK =="
