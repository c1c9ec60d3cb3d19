#!/usr/bin/env python3
"""Fail when a bench baseline that CI gates on is missing or invalid.

    python3 scripts/check_ci_baselines.py [REPO_ROOT]

Collects every bench/baselines/*.json path named in scripts/ci.sh, the one
CI definition (the workflow only calls its stages). Each must exist and pass
validate_bench_json.py. A missing baseline makes bench_compare.py exit 1,
and ci.sh (set -e) then stops before every stage after it, so this check
runs in tier-1 ctest.
Stdlib only.
"""

import pathlib
import re
import subprocess
import sys

SOURCES = ("scripts/ci.sh",)
BASELINE = re.compile(r"bench/baselines/[\w.-]+\.json")


def main(argv):
    root = pathlib.Path(argv[1]) if len(argv) > 1 else (
        pathlib.Path(__file__).resolve().parent.parent)
    named = set()
    for source in SOURCES:
        named.update(BASELINE.findall((root / source).read_text()))
    if not named:
        raise SystemExit(f"no bench/baselines/*.json named in {SOURCES}")
    missing = sorted(path for path in named if not (root / path).is_file())
    if missing:
        raise SystemExit("baselines named by CI but not committed: " +
                         ", ".join(missing))
    validator = root / "scripts" / "validate_bench_json.py"
    paths = [str(root / path) for path in sorted(named)]
    return subprocess.run([sys.executable, str(validator), *paths]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv))
