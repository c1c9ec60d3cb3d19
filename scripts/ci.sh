#!/usr/bin/env bash
# CI entry point: build and test the plain configuration, then repeat under
# AddressSanitizer + UBSan (the discrete-event core is all callbacks and
# shared_ptr payload fan-out — exactly the code ASan/UBSan are good at),
# then run the bench smoke pass: one small run per bench family, each
# writing a BENCH_<name>.json that is validated against the schema, plus a
# traced example run fed through trace_report.
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${1:-$(nproc)}"

for preset in default asan-ubsan; do
  echo "==== [$preset] configure ===="
  cmake --preset "$preset"
  echo "==== [$preset] build ===="
  cmake --build --preset "$preset" -j "$jobs"
  echo "==== [$preset] test ===="
  ctest --preset "$preset" -j "$jobs"
done

echo "==== bench smoke ===="
out="build/bench-out"
rm -rf "$out" && mkdir -p "$out"
export BLACKDP_BENCH_OUT="$PWD/$out"
(
  cd build
  ./bench/table1_scenario
  ./bench/fig4_detection 2 --jobs "$jobs"
  ./bench/fig5_packets --jobs "$jobs"
  ./bench/ablation_baselines 5 --jobs "$jobs"
  ./bench/ablation_pdr 2 --jobs "$jobs"
  ./bench/ablation_watchdog 2 --jobs "$jobs"
  ./bench/ablation_fog --jobs "$jobs"
  ./bench/ablation_faults 2 --jobs "$jobs"
  ./bench/ablation_adversarial 3 --jobs "$jobs"
  ./bench/urban_detection 2 --jobs "$jobs"
  ./bench/sensitivity_sweep 3 --jobs "$jobs"
  ./bench/ablation_overhead --benchmark_min_time=0.01
  ./bench/micro_substrates --benchmark_min_time=0.01
  ./bench/e2e_throughput --jobs 1  # the committed baseline is --jobs 1
  ./bench/megacity --segments 8 --vehicles 800 --epochs 6 --jobs "$jobs" \
    --surfaces-out-a "$BLACKDP_BENCH_OUT"/megacity.shards1.txt \
    --surfaces-out-b "$BLACKDP_BENCH_OUT"/megacity.shards4.txt
  ./examples/cooperative_blackhole 7 --trace "$BLACKDP_BENCH_OUT"/coop_trace.jsonl
  ./tools/trace_report "$BLACKDP_BENCH_OUT"/coop_trace.jsonl
) > "$out/bench-smoke.log"
python3 scripts/validate_bench_json.py "$out"/BENCH_*.json
python3 scripts/bench_compare.py \
  bench/baselines/BENCH_micro_substrates.json \
  "$out"/BENCH_micro_substrates.json

echo "==== perf smoke (e2e throughput + allocation gate) ===="
# The e2e bench links the counting operator new/delete; bench_compare holds
# both frames_per_second (generous, wall-clock noise) and
# allocations_per_frame (tight — the zero-allocation steady state is a
# correctness property of the arena/dense-id design, not a speed number).
python3 scripts/bench_compare.py \
  bench/baselines/BENCH_e2e_throughput.json \
  "$out"/BENCH_e2e_throughput.json

echo "==== megacity smoke (sharded corridor, shards=1 vs shards=4) ===="
# The partition-invariance gate: both runs of the tiny corridor above dumped
# their deterministic surfaces (metrics JSON + canonical per-segment log);
# they must be byte-identical, or region partitioning has become observable.
cmp "$out"/megacity.shards1.txt "$out"/megacity.shards4.txt
python3 scripts/bench_compare.py \
  bench/baselines/BENCH_megacity.json \
  "$out"/BENCH_megacity.json
# The committed baseline must demonstrate the point of the sharding: the
# partitioned run strictly outruns the monolith on the baseline machine.
python3 - <<'PY'
import json
side = json.load(open("bench/baselines/BENCH_megacity.json"))["sharding"]
assert side["identical"] is True, "baseline surfaces were not identical"
assert side["speedup"] > 1.0, f"baseline speedup {side['speedup']} <= 1.0"
print(f"baseline: speedup {side['speedup']:.2f}, "
      f"balance {side['balance_ratio']:.3f} — OK")
PY

echo "==== campaign smoke ===="
# Exercise the campaign engine end to end: run the tiny built-in spec with
# a pinned sidecar, validate the manifest + bench JSON, then truncate the
# manifest mid-campaign and check --resume reproduces the exact same bytes.
campdir="$out/campaign"
mkdir -p "$campdir"
build/tools/campaign_run smoke --jobs 2 --out "$campdir" --pin-sidecar
python3 scripts/validate_bench_json.py \
  "$campdir"/smoke.manifest.jsonl "$campdir"/BENCH_smoke.json
cp "$campdir"/smoke.manifest.jsonl "$campdir"/smoke.full.jsonl
head -n 3 "$campdir"/smoke.manifest.jsonl > "$campdir"/smoke.tmp.jsonl
mv "$campdir"/smoke.tmp.jsonl "$campdir"/smoke.manifest.jsonl
cp "$campdir"/BENCH_smoke.json "$campdir"/BENCH_smoke.full.json
build/tools/campaign_run smoke --jobs 1 --out "$campdir" --pin-sidecar --resume
cmp "$campdir"/smoke.manifest.jsonl "$campdir"/smoke.full.jsonl
cmp "$campdir"/BENCH_smoke.json "$campdir"/BENCH_smoke.full.json
rm "$campdir"/smoke.full.jsonl "$campdir"/BENCH_smoke.full.json

echo "==== soak smoke ===="
# Time-boxed chaos soak: randomized adversarial trials, every invariant must
# hold. On failure soak_run prints one replay line per violation
# (soak_run --seed S --trial K); the log is kept for upload as an artifact.
soaklog="$out/soak-smoke.log"
build/tools/soak_run --seconds 20 --jobs "$jobs" --seed 1 | tee "$soaklog"
# Negative control: an injected honest-isolation violation must be caught,
# reported with a replay seed, and fail the run.
if build/tools/soak_run --trials 1 --seed 1 --inject-violation --quiet \
    >> "$soaklog"; then
  echo "soak_run --inject-violation did NOT fail — harness is blind" >&2
  exit 1
fi
grep -q "replay: soak_run --seed" "$soaklog"

echo "==== checkpointed soaks (kill / resume / chaos, both worlds) ===="
# Crash consistency of both checkpointed worlds, one sequence for each (see
# scripts/kill_resume_leg.sh): full checkpointed run + manifest audit, a run
# killed between checkpoints then resumed, cmp of surfaces and final
# checkpoint, three chaos kill/resume cycles.
scripts/kill_resume_leg.sh "$out/stream" 25 --stream --epochs 40 \
  --stream-seed 4242 --checkpoint-every 10 | tee -a "$soaklog"
scripts/kill_resume_leg.sh "$out/megacity" 3 --megacity --segments 8 \
  --vehicles 800 --shards 4 --epochs 6 --megacity-seed 4242 \
  --checkpoint-every 2 --jobs "$jobs" | tee -a "$soaklog"

echo "==== stream trace replay + flood ===="
# Record the d_req trace of the 40-epoch stream run and replay it through
# replay_serve; the verdict timeline must hash to the value the recording
# run reported.
streamdir="$out/stream"
build/tools/soak_run --stream --epochs 40 --stream-seed 4242 \
  --trace "$streamdir/trace.jsonl" --json "$streamdir/metrics.json" --quiet
expected_hash=$(python3 -c "import json, sys
print(json.load(open(sys.argv[1]))['verdict_hash'])" \
  "$streamdir/metrics.json")
build/tools/replay_serve --trace "$streamdir/trace.jsonl" \
  --stream-seed 4242 --expect-hash "$expected_hash" \
  > "$streamdir/replay.log"
# Flood leg: 600 one-second epochs (10 sim-minutes) of continuous d_req
# ingest; the memory watermark must hold with zero table-growth violations.
build/tools/soak_run --stream --epochs 600 --stream-seed 7 --quiet \
  --json "$streamdir/metrics.flood.json" | tee -a "$soaklog"

echo "CI: both configurations green, bench + campaign + soak + checkpointed soaks (stream + megacity) validated."
