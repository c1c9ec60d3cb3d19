#!/usr/bin/env python3
"""Validate BENCH_<name>.json files and campaign manifests.

Stdlib only — CI runs this straight after the bench smoke pass:

    python3 scripts/validate_bench_json.py bench-out/BENCH_*.json
    python3 scripts/validate_bench_json.py bench-out/smoke.manifest.jsonl

Arguments named exactly `manifest.jsonl` are validated as soak
checkpoint manifests (src/soak/epoch_soak.hpp): one flat JSON line per
checkpoint, `{"epoch": N, "file": "ckpt-NNNNNN.bdpc", "bytes": B,
"crc32": C, "seed": S}`. Each referenced file must exist next to the
manifest, match the recorded size and CRC-32 (binascii.crc32 of the raw
bytes), and open with the checkpoint envelope header (magic `BDPC`,
schema version 1). Epochs must be strictly increasing and the seed
constant — a manifest that fails any of these would break `--resume`.

Arguments ending in `.manifest.jsonl` are validated as campaign manifests
(src/campaign/manifest.hpp): a header line naming the campaign, its
experiment kind, seed, trials-per-treatment and treatment count, then one
flat JSON row per completed trial. Checked invariants: required keys,
strictly increasing trial ids, trial == treatment * trials + rep, one config
hash per treatment, and each row's seed matching the SplitMix64 derivation
contract seed = derive(derive(campaign_seed, hash_bits), rep).

Schema (src/obs/bench_json.hpp):

    {
      "bench": "<name>",
      "schema_version": 2,
      "wall_clock_seconds": <non-negative number>,
      "throughput": {
        "frames_delivered": <non-negative int>,
        "frames_per_second": <non-negative number>,
        "jobs": <positive int, optional — recorded by every bench that
                 takes --jobs; pinned campaign sidecars omit it>,
        "allocations_per_frame": <non-negative number, optional — present
                                  only when the bench linked the alloc hook
                                  and measured a steady-state span>
      },
      "metrics": {
        "counters":   {"<name>": <non-negative int>, ...},
        "gauges":     {"<name>": <number>, ...},
        "histograms": {"<name>": {"edges": [...], "counts": [...],
                                  "count": n, "sum": x,
                                  "min": x, "max": x}, ...}
      }
    }

Checked invariants: required keys, value types, strictly increasing
histogram edges, len(counts) == len(edges) + 1 (implicit overflow bucket),
sum(counts) == count, and frames_per_second consistent with
frames_delivered / wall_clock_seconds.

BENCH_megacity.json additionally carries a "sharding" sidecar (the
machine-dependent half of the sharded-corridor story) which is required for
that bench: positive shard counts, fps for both partitionings, speedup > 0,
busy_seconds with one non-negative entry per shard of run B, balance_ratio
in [0, 1], and identical == true — the byte-identity of shards=1 vs
shards=N is part of the schema, not just a test.

It also requires a "fault_tolerance" sidecar from the crash-and-recover
leg: non-negative checkpoint/wall seconds with checkpoint_seconds <=
wall_clock_seconds, checkpoints_written >= 1, restores == 1 (one dropped
world, one restore from the whole-world checkpoint), recovery_epochs >= 1
(the restore re-ran epochs the crash lost), crc_rejects == 0, and
identical == true — the restored world must converge to the same
deterministic surfaces.
"""

import binascii
import json
import pathlib
import sys

SCHEMA_VERSION = 2


def fail(path, message):
    raise SystemExit(f"{path}: {message}")


def check_number(path, name, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(path, f"{name}: expected a number, got {type(value).__name__}")


def check_histogram(path, name, hist):
    if not isinstance(hist, dict):
        fail(path, f"histogram {name}: expected an object")
    for key in ("edges", "counts", "count", "sum", "min", "max"):
        if key not in hist:
            fail(path, f"histogram {name}: missing key {key!r}")
    edges, counts = hist["edges"], hist["counts"]
    if not isinstance(edges, list) or not isinstance(counts, list):
        fail(path, f"histogram {name}: edges/counts must be arrays")
    for edge in edges:
        check_number(path, f"histogram {name} edge", edge)
    if any(b <= a for a, b in zip(edges, edges[1:])):
        fail(path, f"histogram {name}: edges not strictly increasing")
    if len(counts) != len(edges) + 1:
        fail(path, f"histogram {name}: expected {len(edges) + 1} buckets "
                   f"(edges + overflow), got {len(counts)}")
    for count in counts:
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            fail(path, f"histogram {name}: counts must be non-negative ints")
    if sum(counts) != hist["count"]:
        fail(path, f"histogram {name}: sum(counts) {sum(counts)} != "
                   f"count {hist['count']}")


def check_throughput(path, doc):
    wall = doc["wall_clock_seconds"]
    check_number(path, "wall_clock_seconds", wall)
    if wall < 0:
        fail(path, f"wall_clock_seconds must be non-negative, got {wall}")

    throughput = doc["throughput"]
    if not isinstance(throughput, dict):
        fail(path, "'throughput' must be an object")
    for key in ("frames_delivered", "frames_per_second"):
        if key not in throughput:
            fail(path, f"throughput missing key {key!r}")
    frames = throughput["frames_delivered"]
    if not isinstance(frames, int) or isinstance(frames, bool) or frames < 0:
        fail(path, "throughput.frames_delivered: expected a non-negative int")
    fps = throughput["frames_per_second"]
    check_number(path, "throughput.frames_per_second", fps)
    if fps < 0:
        fail(path, f"frames_per_second must be non-negative, got {fps}")
    if wall > 0:
        expected = frames / wall
        tolerance = max(1e-6, 1e-9 * expected)
        if abs(fps - expected) > tolerance:
            fail(path, f"frames_per_second {fps} inconsistent with "
                       f"frames_delivered/wall_clock_seconds ({expected})")
    elif fps != 0:
        fail(path, "frames_per_second must be 0 when wall_clock_seconds is 0")

    if "jobs" in throughput:
        jobs = throughput["jobs"]
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            fail(path, "throughput.jobs: expected a positive int")

    if "allocations_per_frame" in throughput:
        apf = throughput["allocations_per_frame"]
        check_number(path, "throughput.allocations_per_frame", apf)
        if apf < 0:
            fail(path, "throughput.allocations_per_frame must be "
                       f"non-negative, got {apf}")


SHARDING_KEYS = ("shards_a", "shards_b", "jobs", "segments", "vehicles",
                 "epochs", "fps_shards_a", "fps_shards_b", "speedup",
                 "balance_ratio", "busy_seconds", "envelopes_exchanged",
                 "identical")


def check_sharding(path, doc):
    if "sharding" not in doc:
        fail(path, "bench megacity requires a 'sharding' sidecar")
    sharding = doc["sharding"]
    if not isinstance(sharding, dict):
        fail(path, "'sharding' must be an object")
    for key in SHARDING_KEYS:
        if key not in sharding:
            fail(path, f"sharding missing key {key!r}")
    for key in ("shards_a", "shards_b", "jobs", "segments", "vehicles",
                "epochs", "envelopes_exchanged"):
        if (not isinstance(sharding[key], int) or isinstance(sharding[key], bool)
                or sharding[key] < 0):
            fail(path, f"sharding.{key}: expected a non-negative int")
    for key in ("shards_a", "shards_b", "jobs", "segments", "vehicles",
                "epochs"):
        if sharding[key] < 1:
            fail(path, f"sharding.{key} must be positive")
    for key in ("fps_shards_a", "fps_shards_b", "speedup", "balance_ratio"):
        check_number(path, f"sharding.{key}", sharding[key])
        if sharding[key] < 0:
            fail(path, f"sharding.{key} must be non-negative")
    if sharding["speedup"] <= 0:
        fail(path, "sharding.speedup must be > 0 (both runs completed)")
    if not 0 <= sharding["balance_ratio"] <= 1:
        fail(path, f"sharding.balance_ratio must be in [0, 1], got "
                   f"{sharding['balance_ratio']}")
    busy = sharding["busy_seconds"]
    if not isinstance(busy, list) or len(busy) != sharding["shards_b"]:
        fail(path, f"sharding.busy_seconds must be an array of "
                   f"{sharding['shards_b']} entries (one per shard of run B)")
    for entry in busy:
        check_number(path, "sharding.busy_seconds entry", entry)
        if entry < 0:
            fail(path, "sharding.busy_seconds entries must be non-negative")
    if sharding["identical"] is not True:
        fail(path, "sharding.identical must be true — shards_a and shards_b "
                   "produced different deterministic surfaces")


FAULT_TOLERANCE_KEYS = ("checkpoint_seconds", "wall_clock_seconds",
                        "checkpoints_written", "checkpoint_bytes",
                        "crash_epoch", "restores", "recovery_epochs",
                        "crc_rejects", "identical")


def check_fault_tolerance(path, doc):
    if "fault_tolerance" not in doc:
        fail(path, "bench megacity requires a 'fault_tolerance' sidecar")
    ft = doc["fault_tolerance"]
    if not isinstance(ft, dict):
        fail(path, "'fault_tolerance' must be an object")
    for key in FAULT_TOLERANCE_KEYS:
        if key not in ft:
            fail(path, f"fault_tolerance missing key {key!r}")
    for key in ("checkpoints_written", "checkpoint_bytes", "crash_epoch",
                "restores", "recovery_epochs", "crc_rejects"):
        if (not isinstance(ft[key], int) or isinstance(ft[key], bool)
                or ft[key] < 0):
            fail(path, f"fault_tolerance.{key}: expected a non-negative int")
    for key in ("checkpoint_seconds", "wall_clock_seconds"):
        check_number(path, f"fault_tolerance.{key}", ft[key])
        if ft[key] < 0:
            fail(path, f"fault_tolerance.{key} must be non-negative")
    if ft["checkpoint_seconds"] > ft["wall_clock_seconds"]:
        fail(path, "fault_tolerance.checkpoint_seconds exceeds the leg's "
                   "wall_clock_seconds")
    if ft["checkpoints_written"] < 1:
        fail(path, "fault_tolerance.checkpoints_written must be >= 1")
    if ft["restores"] != 1:
        fail(path, "fault_tolerance.restores must be exactly 1 (one dropped "
                   "world, one restore from its last checkpoint)")
    if ft["recovery_epochs"] < 1:
        fail(path, "fault_tolerance.recovery_epochs must be >= 1 — the "
                   "restore must actually re-run epochs the crash lost")
    if ft["crc_rejects"] != 0:
        fail(path, "fault_tolerance.crc_rejects must be 0 on a healthy run")
    if ft["identical"] is not True:
        fail(path, "fault_tolerance.identical must be true — the recovered "
                   "run produced different deterministic surfaces")


def validate(path):
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        fail(path, f"not valid JSON: {error}")

    for key in ("bench", "schema_version", "wall_clock_seconds",
                "throughput", "metrics"):
        if key not in doc:
            fail(path, f"missing top-level key {key!r}")
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        fail(path, "'bench' must be a non-empty string")
    if path.name != f"BENCH_{doc['bench']}.json":
        fail(path, f"file name does not match bench name {doc['bench']!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        fail(path, f"schema_version {doc['schema_version']} != "
                   f"{SCHEMA_VERSION}")

    check_throughput(path, doc)
    if doc["bench"] == "megacity":
        check_sharding(path, doc)
        check_fault_tolerance(path, doc)

    metrics = doc["metrics"]
    if not isinstance(metrics, dict):
        fail(path, "'metrics' must be an object")
    for section in ("counters", "gauges", "histograms"):
        if section not in metrics or not isinstance(metrics[section], dict):
            fail(path, f"metrics.{section} missing or not an object")

    for name, value in metrics["counters"].items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            fail(path, f"counter {name}: expected a non-negative int")
    for name, value in metrics["gauges"].items():
        check_number(path, f"gauge {name}", value)
    for name, hist in metrics["histograms"].items():
        check_histogram(path, name, hist)

    total = sum(len(metrics[s]) for s in ("counters", "gauges", "histograms"))
    print(f"{path}: OK ({total} metrics, "
          f"{doc['throughput']['frames_delivered']} frames in "
          f"{doc['wall_clock_seconds']:.3f}s)")


# ------------------------------------------------- campaign manifests

MANIFEST_VERSION = 1
MASK64 = (1 << 64) - 1

MANIFEST_HEADER_KEYS = ("manifest", "manifest_version", "campaign",
                        "experiment", "seed", "trials", "treatments")
MANIFEST_ROW_KEYS = ("trial", "treatment", "rep", "seed", "config_hash",
                     "label", "attack_launched", "confirmed_on_attacker",
                     "false_positive", "detection_packets", "verdict",
                     "frames_delivered", "telemetry")


def derive_trial_seed(campaign_seed, index):
    """Mirror of sim::deriveTrialSeed (SplitMix64 jump + finalizer)."""
    z = (campaign_seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def check_uint(path, name, value):
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        fail(path, f"{name}: expected a non-negative int")


def validate_manifest(path):
    lines = path.read_text().splitlines()
    if not lines:
        fail(path, "empty manifest")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as error:
        fail(path, f"header is not valid JSON: {error}")
    for key in MANIFEST_HEADER_KEYS:
        if key not in header:
            fail(path, f"header missing key {key!r}")
    if header["manifest"] != "campaign":
        fail(path, f"not a campaign manifest: {header['manifest']!r}")
    if header["manifest_version"] != MANIFEST_VERSION:
        fail(path, f"manifest_version {header['manifest_version']} != "
                   f"{MANIFEST_VERSION}")
    for key in ("seed", "trials", "treatments"):
        check_uint(path, f"header {key}", header[key])
    trials = header["trials"]
    if trials < 1:
        fail(path, "header trials must be >= 1")
    total = header["treatments"] * trials

    last_trial = -1
    hash_per_treatment = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as error:
            fail(path, f"line {line_no}: not valid JSON: {error}")
        for key in MANIFEST_ROW_KEYS:
            if key not in row:
                fail(path, f"line {line_no}: missing key {key!r}")
        for key in ("trial", "treatment", "rep", "seed", "detection_packets",
                    "frames_delivered", "attack_launched",
                    "confirmed_on_attacker", "false_positive"):
            check_uint(path, f"line {line_no} {key}", row[key])

        trial = row["trial"]
        if trial <= last_trial:
            fail(path, f"line {line_no}: trial ids not strictly increasing "
                       f"({trial} after {last_trial})")
        last_trial = trial
        if trial >= total:
            fail(path, f"line {line_no}: trial {trial} out of range "
                       f"(matrix holds {total})")
        if row["treatment"] != trial // trials or row["rep"] != trial % trials:
            fail(path, f"line {line_no}: trial {trial} inconsistent with "
                       f"treatment {row['treatment']} / rep {row['rep']}")

        config_hash = row["config_hash"]
        if (not isinstance(config_hash, str) or len(config_hash) != 16
                or any(c not in "0123456789abcdef" for c in config_hash)):
            fail(path, f"line {line_no}: config_hash must be 16 lowercase "
                       f"hex digits")
        known = hash_per_treatment.setdefault(row["treatment"], config_hash)
        if known != config_hash:
            fail(path, f"line {line_no}: treatment {row['treatment']} has "
                       f"conflicting config hashes {known} / {config_hash}")

        expected_seed = derive_trial_seed(
            derive_trial_seed(header["seed"], int(config_hash, 16)),
            row["rep"])
        if row["seed"] != expected_seed:
            fail(path, f"line {line_no}: seed {row['seed']} violates the "
                       f"derivation contract (expected {expected_seed})")

        try:
            telemetry = json.loads(row["telemetry"])
        except json.JSONDecodeError as error:
            fail(path, f"line {line_no}: telemetry is not valid JSON: "
                       f"{error}")
        for section in ("counters", "gauges", "histograms"):
            if section not in telemetry:
                fail(path, f"line {line_no}: telemetry missing {section!r}")

    done = last_trial + 1
    print(f"{path}: OK (campaign {header['campaign']!r}, "
          f"{len(hash_per_treatment)}/{header['treatments']} treatments seen, "
          f"{done if done == total else f'{done} of {total}'} trials)")


CHECKPOINT_MAGIC = b"BDPC"
CHECKPOINT_VERSION = 2
CHECKPOINT_KEYS = ("epoch", "file", "bytes", "crc32", "seed")


def validate_checkpoint_manifest(path):
    lines = path.read_text().splitlines()
    if not lines:
        fail(path, "empty checkpoint manifest")
    last_epoch = -1
    seed = None
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as error:
            fail(path, f"line {line_no}: not valid JSON: {error}")
        for key in CHECKPOINT_KEYS:
            if key not in entry:
                fail(path, f"line {line_no}: missing key {key!r}")
        for key in ("epoch", "bytes", "crc32", "seed"):
            check_uint(path, f"line {line_no} {key}", entry[key])
        if not isinstance(entry["file"], str):
            fail(path, f"line {line_no}: file must be a string")

        epoch = entry["epoch"]
        if epoch <= last_epoch:
            fail(path, f"line {line_no}: epochs not strictly increasing "
                       f"({epoch} after {last_epoch})")
        last_epoch = epoch
        if entry["file"] != f"ckpt-{epoch:06d}.bdpc":
            fail(path, f"line {line_no}: file {entry['file']!r} does not "
                       f"match the ckpt-NNNNNN.bdpc naming for epoch {epoch}")
        if seed is None:
            seed = entry["seed"]
        elif entry["seed"] != seed:
            fail(path, f"line {line_no}: seed {entry['seed']} != {seed} "
                       f"from the first entry")

        ckpt = path.parent / entry["file"]
        if not ckpt.is_file():
            fail(path, f"line {line_no}: {entry['file']} is missing")
        data = ckpt.read_bytes()
        if len(data) != entry["bytes"]:
            fail(path, f"line {line_no}: {entry['file']} is {len(data)} "
                       f"bytes, manifest says {entry['bytes']}")
        if binascii.crc32(data) != entry["crc32"]:
            fail(path, f"line {line_no}: {entry['file']} CRC "
                       f"{binascii.crc32(data)} != manifest "
                       f"{entry['crc32']}")
        if data[:4] != CHECKPOINT_MAGIC:
            fail(path, f"line {line_no}: {entry['file']} lacks the "
                       f"checkpoint magic {CHECKPOINT_MAGIC!r}")
        if int.from_bytes(data[4:6], "big") != CHECKPOINT_VERSION:
            fail(path, f"line {line_no}: {entry['file']} schema version "
                       f"{int.from_bytes(data[4:6], 'big')} != "
                       f"{CHECKPOINT_VERSION}")

    if last_epoch < 0:
        fail(path, "checkpoint manifest holds no entries")
    count = sum(1 for line in lines if line.strip())
    print(f"{path}: OK (checkpoint manifest, {count} checkpoints verified, "
          f"last epoch {last_epoch}, seed {seed})")


def main(argv):
    if len(argv) < 2:
        raise SystemExit(
            "usage: validate_bench_json.py "
            "[BENCH_*.json | *.manifest.jsonl | manifest.jsonl] ...")
    for arg in argv[1:]:
        path = pathlib.Path(arg)
        if path.name == "manifest.jsonl":
            validate_checkpoint_manifest(path)
        elif path.name.endswith(".manifest.jsonl"):
            validate_manifest(path)
        else:
            validate(path)


if __name__ == "__main__":
    main(sys.argv)
