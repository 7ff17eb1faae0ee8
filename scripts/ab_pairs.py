#!/usr/bin/env python3
"""Time two commands in alternating pairs and compare them.

Pair i runs both commands once, the parent first when i is even and the
change first when i is odd, so a drift of the host or a penalty of the
second slot falls on both sides alike. For each side it prints the
median and the interquartile range (IQR) of every measure, the pairs the
change won (lower is better for every measure) and the change/parent
ratio of the medians.

The wall time of each whole command is always measured. --metric
NAME=REGEX adds a measure read from the command's stdout: the first
capture group of the first match, as a number. A run whose output does
not match, or that exits nonzero, aborts the series.

Example, HDRF's twitter cells of the speed bench:
    scripts/ab_pairs.py -n 10 --env SGP_SCALE=16 \\
        --metric 'hdrf_k8=twitter\\s+HDRF\\s+8\\s+([0-9.]+)' \\
        --metric 'hdrf_k128=twitter\\s+HDRF\\s+128\\s+([0-9.]+)' \\
        --parent parent/build/bench/bench_partitioner_speed \\
        --change build/bench/bench_partitioner_speed

Exit status: 0 after a complete series, 1 when a run failed, 2 on bad
arguments.
"""

import argparse
import os
import re
import shlex
import statistics
import subprocess
import sys
import time


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_once(cmd, env, metrics):
    """Runs `cmd` once; returns {measure: value} or raises RuntimeError."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError as err:
        raise RuntimeError(f"{shlex.join(cmd)}: {err}") from err
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{shlex.join(cmd)} exited {proc.returncode}")
    out = {"wall_s": wall}
    for name, pattern in metrics:
        match = pattern.search(proc.stdout)
        if match is None:
            raise RuntimeError(f"{shlex.join(cmd)}: no match for {name}")
        out[name] = float(match.group(1))
    return out


def parse_metric(text):
    name, sep, regex = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=REGEX, got {text!r}")
    try:
        pattern = re.compile(regex)
    except re.error as err:
        raise argparse.ArgumentTypeError(f"bad regex for {name}: {err}")
    if pattern.groups < 1:
        raise argparse.ArgumentTypeError(f"regex for {name} needs a group")
    return name, pattern


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True,
                        help="command line of the parent side")
    parser.add_argument("--change", required=True,
                        help="command line of the change side")
    parser.add_argument("-n", "--pairs", type=int, default=10,
                        help="alternating pairs to run (default 10)")
    parser.add_argument("--env", action="append", default=[],
                        metavar="KEY=VALUE", help="set for both commands")
    parser.add_argument("--metric", action="append", default=[],
                        type=parse_metric, metavar="NAME=REGEX",
                        help="measure read from stdout (lower is better)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    env = dict(os.environ)
    for item in args.env:
        key, sep, value = item.partition("=")
        if not sep or not key:
            parser.error(f"--env expects KEY=VALUE, got {item!r}")
        env[key] = value
    sides = {"parent": shlex.split(args.parent),
             "change": shlex.split(args.change)}

    samples = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                samples[side].append(run_once(sides[side], env, args.metric))
            except RuntimeError as err:
                sys.stderr.write(f"ab_pairs: pair {i + 1}: {err}\n")
                return 1
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr)

    print(f"{args.pairs} alternating pairs")
    print(f"{'measure':<20} {'parent median':>14} {'IQR':>10} "
          f"{'change median':>14} {'IQR':>10} {'change/parent':>14} "
          f"{'change won':>11}")
    for name in ["wall_s"] + [name for name, _ in args.metric]:
        parent = [s[name] for s in samples["parent"]]
        change = [s[name] for s in samples["change"]]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q1, p_q3 = quartiles(parent)
        c_q1, c_q3 = quartiles(change)
        wins = sum(1 for p, c in zip(parent, change) if c < p)
        ratio = c_med / p_med if p_med else float("nan")
        print(f"{name:<20} {p_med:>14.6g} {p_q3 - p_q1:>10.3g} "
              f"{c_med:>14.6g} {c_q3 - c_q1:>10.3g} {ratio:>14.3f} "
              f"{wins:>5}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
