#!/usr/bin/env bash
# Byte-compares the deterministic surfaces of two builds of this repository,
# for example a parent commit's and a change's: a change that claims to
# alter only speed must leave every file identical.
#
# Usage: scripts/compare_surfaces.sh PARENT_BUILD CHANGE_BUILD OUT
#   PARENT_BUILD, CHANGE_BUILD  CMake build directories (default preset)
#   OUT                         output directory; its parent/ and change/
#                               subdirectories are replaced
#
# Every command below runs once per build. Its surfaces go to
# OUT/{parent,change}/surfaces and its console output, which carries wall
# clock, to OUT/{parent,change}/logs. Then every surface file is cmp'd.
# Exits 0 when all are identical; otherwise exits 1 and names the first
# file that differs (or exists on one side only). Exits 2 on a usage error,
# including an OUT that is a build directory or contains one.
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: scripts/compare_surfaces.sh PARENT_BUILD CHANGE_BUILD OUT" >&2
  exit 2
fi
parent_build="$(cd "$1" && pwd -P)"
change_build="$(cd "$2" && pwd -P)"
out="$(realpath -m "$3")"
for build in "$parent_build" "$change_build"; do
  if [[ "$build" == "$out" || "$build" == "${out%/}/"* ]]; then
    echo "compare_surfaces: OUT $out is or contains build directory $build" >&2
    exit 2
  fi
done
jobs="$(nproc)"

# Writes one build's surfaces under $2/surfaces and its logs under $2/logs.
run_surfaces() {
  local build="$1" s="$2/surfaces" l="$2/logs"
  mkdir -p "$s" "$l"
  echo "== $build"

  # The megacity at CI size and at its default size (100 km, 10k vehicles,
  # 12 epochs), each partitioned two ways.
  "$build/bench/megacity" --segments 8 --vehicles 800 --epochs 6 --jobs 1 \
    --no-json --surfaces-out-a "$s/megacity-ci.a.txt" \
    --surfaces-out-b "$s/megacity-ci.b.txt" > "$l/megacity-ci.log"
  "$build/bench/megacity" --jobs "$jobs" --no-json \
    --surfaces-out-a "$s/megacity-default.a.txt" \
    --surfaces-out-b "$s/megacity-default.b.txt" > "$l/megacity-default.log"

  # The three worlds of the epoch driver.
  "$build/tools/soak_run" --stream --epochs 40 --stream-seed 4242 --quiet \
    --surfaces-out "$s/soak-stream.txt" --json "$s/soak-stream.json" \
    > "$l/soak-stream.log"
  "$build/tools/soak_run" --megacity --segments 8 --vehicles 800 --shards 4 \
    --epochs 6 --megacity-seed 4242 --jobs "$jobs" --quiet \
    --surfaces-out "$s/soak-megacity.txt" > "$l/soak-megacity.log"
  "$build/tools/soak_run" --epochs 40 --seed 4242 --jobs "$jobs" --quiet \
    --surfaces-out "$s/soak-chaos.txt" > "$l/soak-chaos.log"

  # The paper's campaigns and the smoke spec, with pinned sidecars.
  local spec
  for spec in "fig4 --trials 2" "fig5" "sensitivity --trials 3" \
      "adversarial --trials 2" "smoke"; do
    # shellcheck disable=SC2086  # the spec string carries its own flags
    "$build/tools/campaign_run" $spec --jobs "$jobs" --pin-sidecar \
      --out "$s/campaigns" > "$l/campaign-${spec%% *}.log"
  done

  # A traced cooperative black-hole run: the narration and the trace. The
  # narration names the trace path, so it is relative.
  (cd "$s" && "$build/examples/cooperative_blackhole" 7 \
    --trace cooperative_blackhole.trace.jsonl > cooperative_blackhole.txt)

  # The eight table benches at the sizes the CI bench stage runs. Their
  # BENCH_<name>.json carries wall clock beside the metrics, so only its
  # metrics subtree is a surface.
  local bench json
  mkdir -p "$l/bench-json"
  for bench in "table1_scenario" "ablation_baselines 5 --jobs $jobs" \
      "ablation_pdr 2 --jobs $jobs" "ablation_watchdog 2 --jobs $jobs" \
      "ablation_fog --jobs $jobs" "ablation_faults 2 --jobs $jobs" \
      "ablation_adversarial 3 --jobs $jobs" "urban_detection 2 --jobs $jobs"; do
    # shellcheck disable=SC2086  # the bench string carries its own arguments
    BLACKDP_BENCH_OUT="$l/bench-json" "$build/bench/"$bench \
      > "$l/bench-${bench%% *}.log"
  done
  for json in "$l/bench-json"/BENCH_*.json; do
    python3 -c 'import json, sys
json.dump(json.load(open(sys.argv[1]))["metrics"], sys.stdout, indent=1,
          sort_keys=True)' "$json" > "$s/$(basename "$json" .json).metrics.json"
  done
}

rm -rf "$out/parent" "$out/change"
run_surfaces "$parent_build" "$out/parent"
run_surfaces "$change_build" "$out/change"

files=0
while IFS= read -r rel; do
  if [[ ! -f "$out/change/surfaces/$rel" ]]; then
    echo "FIRST DIFFERENCE: $rel exists only under $out/parent/surfaces" >&2
    exit 1
  fi
  if ! cmp "$out/parent/surfaces/$rel" "$out/change/surfaces/$rel"; then
    echo "FIRST DIFFERENCE: $rel" >&2
    exit 1
  fi
  files=$((files + 1))
done < <(cd "$out/parent/surfaces" && find . -type f | sort)
extra="$(cd "$out/change/surfaces" && find . -type f | sort |
  while IFS= read -r rel; do
    [[ -f "$out/parent/surfaces/$rel" ]] || echo "$rel"
  done | head -n 1)"
if [[ -n "$extra" ]]; then
  echo "FIRST DIFFERENCE: $extra exists only under $out/change/surfaces" >&2
  exit 1
fi
echo "compare_surfaces: all $files surface files identical"
