#!/usr/bin/env python3
"""Compare two BENCH_<name>.json files (schema v2) and gate on throughput.

Stdlib only — CI runs this after the bench smoke pass against a committed
baseline:

    python3 scripts/bench_compare.py bench/baselines/BENCH_micro_substrates.json \
        build/bench-out/BENCH_micro_substrates.json [--max-regression 75]

Prints the wall-clock / throughput delta plus every deterministic metric
(counter, gauge, histogram count/sum) that differs between the two files,
then exits nonzero iff the two files' throughput.jobs differ (or only one
records it), the baseline has a sharding sidecar and the candidate has none
or one describing a different run (segments, vehicles or epochs), the
candidate's frames_per_second dropped more than --max-regression percent
below the baseline, (when the baseline records
throughput.allocations_per_frame) the candidate's allocations_per_frame
rose more than --max-alloc-increase above the baseline, or (when the
baseline records a fault_tolerance sidecar) the candidate's checkpoint time
exceeds --max-checkpoint-overhead percent of that leg's wall clock.

Throughput and allocations gate; nothing else does. The deterministic
`metrics` subtree is expected to be identical when both files come from the
same code and workload; differences are printed as context for a human, not
failed on, because the baseline is refreshed deliberately whenever a bench's
workload changes. Wall-clock noise between CI runners is why the default
throughput tolerance is generous (75 %): that gate exists to catch
catastrophic slowdowns — losing the spatial grid, an accidental O(n²) — not
single-digit jitter. The allocation gate is tight (default 0.05
allocs/frame) because allocation counts are deterministic, not wall-clock
noise: a steady-state malloc sneaking back into the frame path is exactly
the regression it exists to catch.
"""

import argparse
import json
import pathlib
import sys


def load(path):
    try:
        doc = json.loads(path.read_text())
    except OSError as error:
        raise SystemExit(f"{path}: {error}")
    except json.JSONDecodeError as error:
        raise SystemExit(f"{path}: not valid JSON: {error}")
    for key in ("bench", "schema_version", "wall_clock_seconds",
                "throughput", "metrics"):
        if key not in doc:
            raise SystemExit(f"{path}: missing top-level key {key!r} "
                             "(run validate_bench_json.py first)")
    return doc


def fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def flatten_metrics(metrics):
    """One comparable scalar per line: counters, gauges, histogram count/sum."""
    flat = {}
    for name, value in metrics.get("counters", {}).items():
        flat[f"counter {name}"] = value
    for name, value in metrics.get("gauges", {}).items():
        flat[f"gauge {name}"] = value
    for name, hist in metrics.get("histograms", {}).items():
        flat[f"histogram {name}.count"] = hist.get("count")
        flat[f"histogram {name}.sum"] = hist.get("sum")
    return flat


def print_metric_deltas(baseline, candidate):
    base = flatten_metrics(baseline["metrics"])
    cand = flatten_metrics(candidate["metrics"])
    changed = []
    for name in sorted(set(base) | set(cand)):
        b, c = base.get(name), cand.get(name)
        if b != c:
            changed.append((name, b, c))
    if not changed:
        print("metrics: identical "
              f"({len(base)} comparable values)")
        return
    print(f"metrics: {len(changed)} difference(s) "
          "(informational — not gated):")
    for name, b, c in changed:
        print(f"  {name}: {fmt(b)} -> {fmt(c)}")


def main(argv):
    parser = argparse.ArgumentParser(
        description="Diff two BENCH json files; fail on throughput regression.")
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("candidate", type=pathlib.Path)
    parser.add_argument("--max-regression", type=float, default=75.0,
                        metavar="PCT",
                        help="maximum tolerated frames_per_second drop below "
                             "the baseline, in percent (default: %(default)s)")
    parser.add_argument("--max-alloc-increase", type=float, default=0.05,
                        metavar="ALLOCS",
                        help="maximum tolerated allocations_per_frame rise "
                             "above the baseline, absolute (default: "
                             "%(default)s); only gates when the baseline "
                             "records the field")
    parser.add_argument("--max-checkpoint-overhead", type=float, default=5.0,
                        metavar="PCT",
                        help="maximum tolerated fault_tolerance checkpoint "
                             "time as a percentage of that leg's wall clock "
                             "(default: %(default)s); only gates when the "
                             "baseline records a fault_tolerance sidecar")
    args = parser.parse_args(argv[1:])

    baseline = load(args.baseline)
    candidate = load(args.candidate)

    if baseline["bench"] != candidate["bench"]:
        raise SystemExit(f"bench name mismatch: {baseline['bench']!r} vs "
                         f"{candidate['bench']!r}")
    if baseline["schema_version"] != candidate["schema_version"]:
        raise SystemExit(f"schema_version mismatch: "
                         f"{baseline['schema_version']} vs "
                         f"{candidate['schema_version']}")

    print(f"bench: {baseline['bench']}")
    b_wall = baseline["wall_clock_seconds"]
    c_wall = candidate["wall_clock_seconds"]
    print(f"wall_clock_seconds: {b_wall:.3f} -> {c_wall:.3f}")

    b_fps = baseline["throughput"]["frames_per_second"]
    c_fps = candidate["throughput"]["frames_per_second"]
    b_frames = baseline["throughput"]["frames_delivered"]
    c_frames = candidate["throughput"]["frames_delivered"]
    print(f"frames_delivered: {b_frames} -> {c_frames}")
    print(f"frames_per_second: {b_fps:.1f} -> {c_fps:.1f}")

    print_metric_deltas(baseline, candidate)

    # Frames/s only compares within one worker count: concurrent workers
    # share cores and memory bandwidth.
    b_jobs = baseline["throughput"].get("jobs")
    c_jobs = candidate["throughput"].get("jobs")
    if b_jobs != c_jobs:
        raise SystemExit(f"throughput.jobs mismatch: {b_jobs} vs {c_jobs} "
                         "(None = not recorded) — the two runs used different "
                         "worker counts; regenerate the baseline with the "
                         "command CI runs")

    if "sharding" in baseline:
        if "sharding" not in candidate:
            raise SystemExit("baseline records a sharding sidecar but the "
                             "candidate does not — the sharded runs were lost")
        b_sh, c_sh = baseline["sharding"], candidate["sharding"]
        # Frames/s only compares within one workload.
        for key in ("segments", "vehicles", "epochs"):
            if b_sh.get(key) != c_sh.get(key):
                raise SystemExit(f"sharding.{key} mismatch: {b_sh.get(key)} "
                                 f"vs {c_sh.get(key)} — the two runs are not "
                                 "the same workload; regenerate the baseline "
                                 "with the command CI runs")
        print(f"sharding.speedup: {b_sh['speedup']:.2f} -> "
              f"{c_sh['speedup']:.2f} (informational — CI gates the "
              "committed baseline's speedup separately)")
        print(f"sharding.balance_ratio: {b_sh['balance_ratio']:.3f} -> "
              f"{c_sh['balance_ratio']:.3f}")

    failed = False

    b_apf = baseline["throughput"].get("allocations_per_frame")
    c_apf = candidate["throughput"].get("allocations_per_frame")
    if b_apf is None:
        pass  # baseline never measured allocations; nothing to hold
    elif c_apf is None:
        print("FAIL: baseline records allocations_per_frame "
              f"({b_apf:.4f}) but the candidate does not — the alloc hook "
              "measurement was lost", file=sys.stderr)
        failed = True
    else:
        print(f"allocations_per_frame: {b_apf:.4f} -> {c_apf:.4f} "
              f"(tolerance: +{args.max_alloc_increase:.4f})")
        if c_apf - b_apf > args.max_alloc_increase:
            print(f"FAIL: allocations_per_frame rose {c_apf - b_apf:.4f} "
                  f"(> {args.max_alloc_increase:.4f} allowed) — a "
                  "steady-state allocation crept back into the frame path",
                  file=sys.stderr)
            failed = True
        else:
            print("allocation gate: OK")

    b_ft = baseline.get("fault_tolerance")
    c_ft = candidate.get("fault_tolerance")
    if b_ft is None:
        pass  # baseline predates the fault-tolerance leg; nothing to hold
    elif c_ft is None:
        print("FAIL: baseline records a fault_tolerance sidecar but the "
              "candidate does not — the crash-and-recover leg was lost",
              file=sys.stderr)
        failed = True
    else:
        ckpt = c_ft["checkpoint_seconds"]
        wall = c_ft["wall_clock_seconds"]
        budget = args.max_checkpoint_overhead / 100.0 * wall
        pct = ckpt / wall * 100.0 if wall > 0 else 0.0
        print(f"fault_tolerance.checkpoint_seconds: "
              f"{b_ft['checkpoint_seconds']:.4f} -> {ckpt:.4f} "
              f"({pct:.2f}% of the leg's wall clock; "
              f"tolerance: {args.max_checkpoint_overhead:.1f}%)")
        print(f"fault_tolerance.recovery_epochs: "
              f"{b_ft['recovery_epochs']} -> {c_ft['recovery_epochs']}")
        if wall > 0 and ckpt > budget:
            print(f"FAIL: checkpointing cost {pct:.2f}% of the "
                  "fault-tolerance leg's wall clock "
                  f"(> {args.max_checkpoint_overhead:.1f}% allowed) — "
                  "snapshots are no longer cheap enough to take every other "
                  "epoch", file=sys.stderr)
            failed = True
        else:
            print("checkpoint overhead gate: OK")

    if b_fps <= 0:
        print("throughput gate: skipped (baseline frames_per_second is 0)")
        return 1 if failed else 0

    drop_pct = (b_fps - c_fps) / b_fps * 100.0
    print(f"throughput delta: {-drop_pct:+.1f}% "
          f"(tolerance: -{args.max_regression:.1f}%)")
    if drop_pct > args.max_regression:
        print(f"FAIL: frames_per_second regressed {drop_pct:.1f}% "
              f"(> {args.max_regression:.1f}% allowed)", file=sys.stderr)
        failed = True
    else:
        print("throughput gate: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
