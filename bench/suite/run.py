#!/usr/bin/env python3
"""Runner for the repository benchmark (stdlib only). See README.md.

One run (the form BENCHMARK.json's command takes):
    python3 bench/suite/run.py --workload NAME --seed S --seconds T --trace 0|1
  builds bench/suite from source if needed, runs the workload in its own
  process, and prints one JSON line: {"correct", "attempted", "failed",
  "metrics"} with every end_to_end metric (--trace 0) or every per_layer
  metric (--trace 1) of BENCHMARK.json.

Every workload:
    python3 bench/suite/run.py [--sets N] [--runs R] [--trace 1] [--json FILE]
  runs N interleaved sets of R runs of every workload (seeds S..S+R-1 in
  every set) and prints each metric by name with its unit as median
  [q1, q3] per set; with two sets, also whether they agree within the
  metric's bound.

Parent vs change (choosing-metrics sections 6-8):
    python3 bench/suite/run.py compare --parent DIR --change DIR [--pairs 10]

ctest entry points: `run.py smoke --binary B` and `run.py names --binary B`.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CHILD_TIMEOUT_S = 170
# The core probe's kernel time on an uncontended core of the 4-vCPU Xeon
# the baselines come from. It only sets the scale of the normalised
# metrics; comparisons on one machine do not depend on it.
QUIET_PROBE_US = 120.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ------------------------------------------------------------------ build

def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def configured_root(build_dir):
    """The BLACKDP_ROOT `build_dir` was configured with, or None."""
    cache = Path(build_dir) / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith("BLACKDP_ROOT:"):
            return line.split("=", 1)[1]
    return None


def build(tree=ROOT, build_dir=None):
    """Configures and builds blackdp_suite against `tree`'s src/; returns
    the binary path. Exits 2 when the tree has no sources to build."""
    tree = Path(tree).resolve()
    if not (tree / "src" / "CMakeLists.txt").is_file():
        log(f"run.py: no sources at {tree / 'src'}; nothing to build")
        sys.exit(2)
    build_dir = build_dir or build_root() / "suite"
    build_dir.mkdir(parents=True, exist_ok=True)
    logfile = build_dir / "build.log"
    steps = []
    # Configure again whenever the build directory was set up for another
    # tree, so that it never measures stale sources.
    if configured_root(build_dir) != str(tree):
        steps.append(["cmake", "-S", str(SUITE_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", f"-DBLACKDP_ROOT:PATH={tree}"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "blackdp_suite", "-j", jobs])
    with open(logfile, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                log(f"run.py: build failed; see {logfile}")
                sys.exit(1)
    return build_dir / "blackdp_suite"


# ------------------------------------------------------------- one child

def run_child(binary, workload, seed, seconds, work_dir, trace_dir=None, tiny=False):
    """Runs one workload in its own process; its output is captured in
    `work_dir`. Returns (report, wall_s); report is None when the child
    failed."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_dir:
        cmd += ["--trace", str(trace_dir)]
    if tiny:
        cmd.append("--tiny")
    Path(work_dir).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=work_dir) as out, \
            tempfile.TemporaryFile(dir=work_dir) as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        wall = time.monotonic() - start
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if proc.returncode != 0:
        log(f"run.py: {workload} exited {proc.returncode}: {stderr.strip()[-2000:]}")
        return None, wall
    try:
        return json.loads(stdout.strip().splitlines()[-1]), wall
    except (ValueError, IndexError):
        log(f"run.py: {workload} printed no report")
        return None, wall


def core_seconds(seconds, probe_us):
    """Wall times scaled to a quiet core: each window's time times
    QUIET_PROBE_US over the probe kernel's mean time in that window. A
    window the probe did not fire in takes the run's mean probe time."""
    sampled = [p for p in probe_us if p > 0]
    fallback = statistics.fmean(sampled) if sampled else QUIET_PROBE_US
    return [s * QUIET_PROBE_US / (p if p > 0 else fallback)
            for s, p in zip(seconds, probe_us)]


def end_to_end(report):
    """Medians over the run's cycles and set-ups, in core-speed-normalised
    seconds (README: "Core-speed normalisation")."""
    cycle_s = core_seconds(report["cycle_s"], report["cycle_probe_us"])
    return {
        "frames_per_s": statistics.median(
            f / s for s, f in zip(cycle_s, report["cycle_frames"])),
        "steps_per_s": statistics.median(report["cycle_steps"] / s for s in cycle_s),
        "setup_s": statistics.median(
            core_seconds(report["setup_s"], report["setup_probe_us"])),
        # The child's own VmHWM. A parent's wait4 ru_maxrss would not do: it
        # includes this runner's RSS from before the child's exec.
        "peak_rss_mb": report["peak_rss_kib"] / 1024.0,
    }


def measure(binary, workload, seed, seconds, traced, out_dir):
    """One run: returns a dict with metrics, checks and identity fields, or
    None when the child failed."""
    trace_dir = None
    if traced:
        trace_dir = out_dir / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
    report, wall = run_child(binary, workload, seed, seconds, out_dir, trace_dir)
    if report is None:
        return None
    metrics = report["layer"] if traced else end_to_end(report)
    return {
        "metrics": metrics,
        "correct": report["correct"],
        "attempted": report["steps"],
        "failed": report["failed_steps"],
        "checks": report["checks"],
        "notes": report["notes"],
        "surface_hash": report["surface_hash"],
        "probe_us": statistics.median(report["cycle_probe_us"]),
        "wall_s": wall,
        "span_totals": report.get("span_totals", {}),
        "event_counts": report.get("event_counts", {}),
    }


def result_line(spec, run, traced):
    """The driver's result object: every metric BENCHMARK.json lists for
    this mode; a per-layer metric the workload does not exercise reads 0."""
    entries = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {e["name"]: {"value": run["metrics"].get(e["name"], 0.0), "unit": e["unit"]}
               for e in entries}
    return {"correct": bool(run["correct"]), "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


# ------------------------------------------------------------ statistics

def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def fmt(value):
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.4g}"
    return f"{value:.4f}".rstrip("0").rstrip(".")


# ------------------------------------------------------------ suite mode

def machine():
    model = platform.processor() or "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "platform": platform.platform(), "python": platform.python_version()}


def run_suite(args, spec):
    """`sets` sets of `runs` runs of every workload. Run r of every set uses
    seed S+r, and the sets take turns run by run (alternating which goes
    first), so two sets of the same code differ only by machine noise."""
    binary = build()
    out_dir = Path(args.out) if args.out else build_root() / "suite-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in (None, "all"):
        workloads = [args.workload]
    traced = args.trace == 1
    entries = spec["per_layer"] if traced else spec["end_to_end"]
    runs = {(s, w): [] for s in range(args.sets) for w in workloads}
    ok = True
    for r in range(args.runs):
        seed = args.seed + r
        order = list(range(args.sets))
        if r % 2:
            order.reverse()
        for w in workloads:
            for s in order:
                run = measure(binary, w, seed, args.seconds, traced, out_dir)
                if run is None:
                    ok = False
                    continue
                runs[(s, w)].append(run)
                bad = [k for k, v in run["checks"].items() if not v]
                ok = ok and run["correct"] and run["failed"] == 0
                log(f"run {r + 1}/{args.runs} set {s + 1} seed {seed} {w}: "
                    f"{run['wall_s']:.1f} s, core probe {run['probe_us']:.0f} us, "
                    f"{run['attempted']} steps, "
                    f"failed {run['failed']}, surface {run['surface_hash']}"
                    + (f", FAILED CHECKS {bad}" if bad else ""))
                for note in run["notes"]:
                    log(f"  note: {note}")

    summary = {}
    for (s, w), rs in runs.items():
        for entry in entries:
            values = [x["metrics"].get(entry["name"], 0.0) for x in rs]
            q1, q2, q3 = quartiles(values) if values else (0.0, 0.0, 0.0)
            summary.setdefault(w, {}).setdefault(entry["name"], []).append({
                "unit": entry["unit"], "median": q2, "q1": q1, "q3": q3,
                "iqr_share": (q3 - q1) / q2 if q2 else 0.0, "values": values})

    print(f"{'workload':18} {'metric':32} {'unit':9} "
          + " ".join(f"{'set ' + str(s + 1) + ' median [q1, q3]':>34}" for s in range(args.sets))
          + ("  spreads       change  bound  verdict" if args.sets == 2 and not traced else ""))
    agreement = []
    for w in workloads:
        for entry in entries:
            cells = summary[w][entry["name"]]
            line = (f"{w:18} {entry['name']:32} {entry['unit']:9} "
                    + " ".join(f"{fmt(c['median']) + ' [' + fmt(c['q1']) + ', ' + fmt(c['q3']) + ']':>34}"
                               for c in cells))
            if args.sets == 2 and not traced:
                row = agree(entry, cells[0], cells[1])
                agreement.append(dict(row, workload=w, metric=entry["name"]))
                ok = ok and row["verdict"] == "agree"
                line += (f"  {row['spreads'][0]:.3f}/{row['spreads'][1]:.3f}"
                         f"  {row['change'] * 100:+6.1f}%  {entry['bound']:.2f}  {row['verdict']}")
            print(line)
        ops = " ".join(f"{sum(x['failed'] for x in runs[(s, w)])}/"
                       f"{sum(x['attempted'] for x in runs[(s, w)])}".rjust(34)
                       for s in range(args.sets))
        print(f"{w:18} {'ops_failed/ops':32} {'count':9} {ops}")

    if args.json:
        doc = {"machine": machine(), "seed": args.seed, "sets": args.sets,
               "runs": args.runs, "seconds": args.seconds, "traced": traced,
               "agreement": agreement,
               "workloads": {w: {"metrics": summary.get(w, {}),
                                 "surface_hash": sorted({x["surface_hash"] for s in range(args.sets)
                                                         for x in runs[(s, w)]}),
                                 "wall_s": [x["wall_s"] for s in range(args.sets) for x in runs[(s, w)]],
                                 "probe_us": [x["probe_us"] for s in range(args.sets) for x in runs[(s, w)]],
                                 "notes": sorted({n for s in range(args.sets)
                                                  for x in runs[(s, w)] for n in x["notes"]}),
                                 # Traced runs: the last run's span self times
                                 # and per-layer event counts.
                                 "span_totals": runs[(0, w)][-1]["span_totals"] if runs[(0, w)] else {},
                                 "event_counts": runs[(0, w)][-1]["event_counts"] if runs[(0, w)] else {}}
                             for w in workloads}}
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


def agree(entry, first, second):
    """Whether two sets of runs of the same code agree within the metric's
    bound: each set's spread (except setup_s's) and the change of median."""
    spreads = (first["iqr_share"], second["iqr_share"])
    change = (second["median"] - first["median"]) / first["median"] if first["median"] else 0.0
    bound = entry["bound"]
    steady = entry["name"] == "setup_s" or max(spreads) <= bound
    return {"spreads": spreads, "change": change, "bound": bound,
            "verdict": "agree" if steady and abs(change) <= bound else "DISAGREE"}


# ---------------------------------------------------------- compare mode

def better(entry, a, b):
    """True when value a beats value b in the metric's direction."""
    return a > b if entry["better"] == "higher" else a < b


def run_compare(args, spec):
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    root = build_root() / "compare"
    binaries = {"parent": build(parent, root / "parent"),
                "change": build(change, root / "change")}
    out_dir = root / "out"
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload:
        workloads = args.workload.split(",")
    runs = {side: {w: [] for w in workloads} for side in binaries}
    wins = {w: {} for w in workloads}
    for k in range(args.pairs):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        seed = args.seed + k
        for w in workloads:
            pair = {}
            for side in order:
                run = measure(binaries[side], w, seed, args.seconds, False, out_dir)
                if run is None:
                    log(f"compare: {side} {w} seed {seed} failed")
                    return 1
                pair[side] = run
                runs[side][w].append(run)
            for entry in spec["end_to_end"]:
                name = entry["name"]
                a, b = pair["change"]["metrics"][name], pair["parent"]["metrics"][name]
                tally = wins[w].setdefault(name, [0, 0])
                tally[0] += better(entry, a, b)
                tally[1] += 1
            log(f"pair {k + 1}/{args.pairs} {w} done ({'/'.join(order)})")

    print(f"{'workload':18} {'metric':14} {'parent median [q1,q3]':>30} "
          f"{'change median [q1,q3]':>30} {'delta':>8} {'wins':>6}  verdict")
    status = 0
    for w in workloads:
        failed = {side: (sum(r["failed"] for r in runs[side][w]),
                         sum(r["attempted"] for r in runs[side][w])) for side in runs}
        # A gain does not count when more operations fail than at the parent.
        more_failures = failed["change"][0] > failed["parent"][0]
        for entry in spec["end_to_end"]:
            name = entry["name"]
            pv = [r["metrics"][name] for r in runs["parent"][w]]
            cv = [r["metrics"][name] for r in runs["change"][w]]
            p1, p2, p3 = quartiles(pv)
            c1, c2, c3 = quartiles(cv)
            delta = (c2 - p2) / p2 if p2 else 0.0
            won, total = wins[w][name]
            worse = -delta if entry["better"] == "higher" else delta
            if won >= 0.9 * total and abs(c2 - p2) > (p3 - p1):
                verdict = "no gain (more ops failed)" if more_failures else "gain"
            elif spread(pv) > entry["bound"] and not all(
                    better(entry, c, p) for c in cv for p in pv):
                verdict = "unresolved"
            elif worse > entry["bound"]:
                verdict = "regression"
            else:
                verdict = "within bound"
            if verdict == "regression":
                status = 1
            print(f"{w:18} {name:14} {fmt(p2):>12} [{fmt(p1)}, {fmt(p3)}]".ljust(64)
                  + f" {fmt(c2):>12} [{fmt(c1)}, {fmt(c3)}]".ljust(31)
                  + f" {delta * 100:+7.2f}% {won:>2}/{total:<3}  {verdict}")
        same = all(p["surface_hash"] == c["surface_hash"]
                   for p, c in zip(runs["parent"][w], runs["change"][w]))
        print(f"{w:18} ops_failed/ops parent {failed['parent'][0]}/{failed['parent'][1]}, "
              f"change {failed['change'][0]}/{failed['change'][1]}; "
              f"surface_hash {'identical' if same else 'DIFFERS'}")
    return status


# ------------------------------------------------------- ctest entry points

def tiny_runs(binary, spec, traced):
    out = {}
    with tempfile.TemporaryDirectory(dir=Path(binary).parent) as tmp:
        for w in (x["name"] for x in spec["workloads"]):
            report, _ = run_child(binary, w, 1, 0, tmp, tmp if traced else None, tiny=True)
            assert report is not None, f"{w}: child failed"
            if traced:
                spans = Path(tmp) / f"{w}.spans.jsonl"
                assert spans.is_file(), f"{w}: no spans written"
                for line in spans.read_text().splitlines():
                    json.loads(line)
            out[w] = report
    return out


def smoke(binary):
    """Every workload at tiny size, untraced and traced: checks pass, the
    output has the expected shape. No timing assertions. Also: a build
    directory configured for one tree is configured again for another."""
    with tempfile.TemporaryDirectory(dir=Path(binary).parent) as tmp:
        assert configured_root(tmp) is None
        Path(tmp, "CMakeCache.txt").write_text("BLACKDP_ROOT:PATH=/parent\n")
        assert configured_root(tmp) == "/parent"
    spec = load_spec()
    for traced in (False, True):
        runs = tiny_runs(binary, spec, traced)
        for w, report in runs.items():
            for key in ("correct", "steps", "failed_steps", "frames", "setup_s",
                        "setup_probe_us", "cycle_steps", "cycle_s", "cycle_frames",
                        "cycle_probe_us", "peak_rss_kib", "checks", "surface_hash",
                        "notes"):
                assert key in report, f"{w}: report lacks {key}"
            assert report["correct"], f"{w}: checks failed {report['checks']}"
            assert report["failed_steps"] == 0 and report["steps"] >= 1, w
            assert len(report["cycle_s"]) * report["cycle_steps"] == report["steps"], w
            assert len(report["cycle_frames"]) == len(report["cycle_s"]), w
            assert len(report["cycle_probe_us"]) == len(report["cycle_s"]), w
            assert len(report["setup_probe_us"]) == len(report["setup_s"]), w
            assert re.fullmatch(r"[0-9a-f]{16}", report["surface_hash"]), w
            if traced:
                assert report["checks"].get("traced_replay_identical"), w
                continue
            line = result_line(spec, {"metrics": end_to_end(report),
                                      "correct": report["correct"],
                                      "attempted": report["steps"],
                                      "failed": report["failed_steps"]}, False)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"], w
            for name, m in line["metrics"].items():
                assert m["value"] > 0, f"{w}: {name} reads {m['value']}"
        assert runs["corridor_sharded"]["checks"].get("one_shard_surface_identical")
    print("suite_smoke: OK")
    return 0


def names(binary):
    """Every name BENCHMARK.json gives is well formed, within the caps, and
    emitted by the workloads; nothing emitted is missing from it."""
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    command = spec["command"]
    assert 1 <= len(command) <= 32 and all(
        isinstance(c, str) and len(c) <= 200 and not c.startswith("/")
        and ".." not in Path(c).parts for c in command), command
    assert 1 <= len(spec["paths"]) <= 16
    for p in spec["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_.\-/]{1,200}", p) and (ROOT / p).is_dir(), p
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}, w
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert 2 <= len(workloads) <= 8, "2..8 workloads"
    assert 1 <= len(e2e) <= 16, "1..16 end-to-end metrics"
    assert 1 <= len(layer) <= 128, "1..128 per-layer metrics"
    all_names = workloads + e2e + layer
    for name in all_names:
        assert NAME_RE.match(name), f"bad name {name!r}"
    assert len(set(workloads)) == len(workloads)
    assert len(set(e2e + layer)) == len(e2e + layer), "metric names repeat"
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT_RE.match(m["unit"]), f"bad unit {m['unit']!r}"
        assert m["better"] in ("higher", "lower"), m
    for m in spec["end_to_end"]:
        assert 0 <= m["bound"] <= 0.25, m
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in spec["end_to_end"] if m["name"] == "setup_s").items()

    emitted = set()
    for w, report in tiny_runs(binary, spec, True).items():
        emitted |= set(report["layer"])
        stray = set(report["layer"]) - set(layer)
        assert not stray, f"{w} emits per-layer metrics BENCHMARK.json lacks: {stray}"
    missing = set(layer) - emitted
    assert not missing, f"per-layer metrics no workload emits: {sorted(missing)}"
    for w, report in tiny_runs(binary, spec, False).items():
        assert set(end_to_end(report)) == set(e2e), w
    print(f"suite_names: OK ({len(workloads)} workloads, {len(e2e)} end-to-end, "
          f"{len(layer)} per-layer metrics)")
    return 0


# ------------------------------------------------------------------- main

def main(argv):
    if argv and argv[0] in ("smoke", "names"):
        p = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        p.add_argument("--binary", required=True)
        a = p.parse_args(argv[1:])
        return smoke(a.binary) if argv[0] == "smoke" else names(a.binary)

    spec = load_spec()
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("--parent", required=True, help="checkout of the parent commit")
        p.add_argument("--change", required=True, help="checkout of the change")
        p.add_argument("--pairs", type=int, default=10)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=spec["run_seconds"])
        p.add_argument("--workload", help="comma-separated subset")
        a = p.parse_args(argv[1:])
        return run_compare(a, spec)

    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", help="one workload (default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sets", type=int, default=None,
                   help="N sets of runs of every workload, interleaved")
    p.add_argument("--runs", type=int, default=1,
                   help="runs per set (seeds seed..seed+R-1, the same in every set)")
    p.add_argument("--out", help="output directory (spans under OUT/trace/)")
    p.add_argument("--json", help="write the per-metric summary here")
    a = p.parse_args(argv)

    if a.workload and a.workload != "all" and a.sets is None:
        if a.workload not in [w["name"] for w in spec["workloads"]]:
            log(f"run.py: unknown workload {a.workload}")
            return 2
        binary = build()
        out_dir = Path(a.out) if a.out else build_root() / "suite-out"
        run = measure(binary, a.workload, a.seed, a.seconds, a.trace == 1, out_dir)
        if run is None:
            return 1
        for name, ok in run["checks"].items():
            if not ok:
                log(f"check failed: {name}")
        for note in run["notes"]:
            log(f"note: {note}")
        print(json.dumps(result_line(spec, run, a.trace == 1)))
        return 0
    a.sets = a.sets or 1
    return run_suite(a, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
