#!/usr/bin/env python3
"""Check that regenerated bench goldens only dropped keys.

For each golden, compares the deterministic section ("schema", "bench",
"scale" and the "metrics" list) of the committed file at BASE_REV with the
file in the working tree. It prints every metric the new file no longer
has and fails if a metric it kept changed value, or if it gained one.

Exceptions, both from the one-production-path scoring core:
  - BENCH_partitioner_speed used to make one canonical run per
    (algo, k, score mode) cell and now makes one per (algo, k) cell. Its
    per-run counters must therefore be exactly a third of the old ones,
    except the partition.score.* sums, which also folded in the scalar
    mode's different counting and are not checked.
  - Its per-mode fingerprint gauges partitioner_speed.<algo>.k<k>.<mode>.
    fingerprint became partitioner_speed.<algo>.k<k>.fingerprint, whose
    value must equal every old per-mode value of the cell.

Usage: golden_subset.py BASE_REV [GOLDEN ...]
(default: every tests/golden/BENCH_*.json). Exit status: 0 when every
golden passes, 1 otherwise, 2 on unreadable input.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALARS = ("schema", "bench", "scale")
RUNS_FOLDED = {"BENCH_partitioner_speed.json": 3}
UNCHECKED_PREFIX = "partition.score."
RENAMED_FINGERPRINT = re.compile(r"^(partitioner_speed\.[^.]+\.k\d+)\.fingerprint$")


def fail_read(what, err):
    sys.stderr.write(f"golden_subset: cannot read {what}: {err}\n")
    sys.exit(2)


def load_old(rev, rel):
    try:
        text = subprocess.run(["git", "show", f"{rev}:{rel}"], cwd=ROOT,
                              check=True, capture_output=True,
                              text=True).stdout
        return json.loads(text)
    except (subprocess.CalledProcessError, json.JSONDecodeError) as err:
        fail_read(f"{rev}:{rel}", err)


def load_new(path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        fail_read(path, err)


def metrics(doc):
    return {m["name"]: {k: v for k, v in m.items() if k != "name"}
            for m in doc.get("metrics", [])}


def check(rev, path):
    rel = path.resolve().relative_to(ROOT).as_posix()
    old_doc, new_doc = load_old(rev, rel), load_new(path)
    old, new = metrics(old_doc), metrics(new_doc)
    runs = RUNS_FOLDED.get(path.name, 1)
    problems = [f"{key}: {old_doc.get(key)!r} -> {new_doc.get(key)!r}"
                for key in SCALARS if old_doc.get(key) != new_doc.get(key)]

    removed = sorted(old.keys() - new.keys())
    for name in sorted(new.keys() - old.keys()):
        m = RENAMED_FINGERPRINT.match(name) if runs > 1 else None
        per_mode = [v for k, v in old.items()
                    if m and k.startswith(m.group(1) + ".")
                    and k.endswith(".fingerprint")]
        if not per_mode:
            problems.append(f"{name}: new metric")
        elif any(v != new[name] for v in per_mode):
            problems.append(f"{name}: {new[name]} differs from the old "
                            f"per-mode fingerprints")
    for name in sorted(old.keys() & new.keys()):
        before, after = old[name], new[name]
        if runs > 1 and name.startswith(UNCHECKED_PREFIX):
            continue
        if runs > 1 and "value" in before:
            before = dict(before, value=before["value"] / runs)
        if before != after:
            problems.append(f"{name}: {before} -> {after}")

    print(f"{rel}: {len(removed)} removed, {len(problems)} problem(s)")
    for name in removed:
        print(f"  removed {name}")
    for p in problems:
        print(f"  PROBLEM {p}")
    return not problems


def main(argv):
    if len(argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    rev = argv[1]
    paths = [Path(p) for p in argv[2:]] or sorted(
        (ROOT / "tests" / "golden").glob("BENCH_*.json"))
    ok = all([check(rev, p) for p in paths])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
