#!/usr/bin/env bash
# Crash-consistency gate of one world of the epoch driver (the chaos soak,
# soak_run --stream or --megacity), the same sequence for each:
#   1. a full checkpointed run, its manifest validated;
#   2. a run stopped between two checkpoints, then resumed;
#   3. cmp of the two runs' surfaces and of their final checkpoint;
#   4. three chaos kill/resume cycles, each byte-compared in-process.
#
# Usage: scripts/kill_resume_leg.sh OUT_DIR STOP_AFTER SOAK_RUN_ARGS...
#   SOAK_RUN_ARGS pick the world and its checkpoint cadence, e.g.
#   --stream --epochs 40 --stream-seed 4242 --checkpoint-every 10, or
#   --epochs 12 --seed 4242 --checkpoint-every 4 for the chaos soak
# Run from the repository root after building the default preset.
# OUT_DIR/replay.txt records the flags for the failure artifacts.
set -euo pipefail

dir="$1"
stop="$2"
shift 2
soak=build/tools/soak_run
rm -rf "$dir" && mkdir -p "$dir"
echo "replay: soak_run $*" > "$dir/replay.txt"

"$soak" "$@" --checkpoint-dir "$dir/full" \
  --surfaces-out "$dir/surfaces.full.txt" --quiet
python3 scripts/validate_bench_json.py "$dir/full/manifest.jsonl"
"$soak" "$@" --checkpoint-dir "$dir/cut" --stop-after "$stop" --quiet
"$soak" "$@" --checkpoint-dir "$dir/cut" --resume \
  --surfaces-out "$dir/surfaces.resumed.txt" --quiet
cmp "$dir/surfaces.full.txt" "$dir/surfaces.resumed.txt"
final="$(basename "$(ls "$dir"/full/ckpt-*.bdpc | tail -n 1)")"
cmp "$dir/full/$final" "$dir/cut/$final"

"$soak" "$@" --checkpoint-dir "$dir/chaos" --chaos-kills 3 --quiet \
  | tee "$dir/chaos.log"
grep -q "3 kill/resume cycles byte-identical" "$dir/chaos.log"
