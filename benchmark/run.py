#!/usr/bin/env python3
"""End-to-end benchmark of the streaming graph partitioners.

Builds partition_tool and the benchmark program sgp_bench from source into
build-bench/, generates each workload's input from the seed, runs the
workload closed-loop (one client; a rep starts after the previous one ends),
checks every output, and prints the end-to-end and per-layer metrics.

  python3 benchmark/run.py [--seed N] [--seconds T] [--out results.json]
  python3 benchmark/run.py --workload NAME --seed N --seconds T --trace 0|1
  python3 benchmark/run.py --smoke
  python3 benchmark/run.py compare BASE HEAD   (results JSONs, or directories of them)

With --workload the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where metrics holds the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
See benchmark/README.md for the workloads, the metrics and their bounds.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / "build-bench"
SGP_BENCH = BUILD / "sgp_bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Inputs are MakeDataset's analogues generated from the workload seed; the
# same seed goes to the partitioner. Reasons for each are in BENCHMARK.json.
WORKLOADS = {
    "file-hdrf-twitter": {"dataset": "twitter", "scale": 16, "algo": "HDRF", "k": 32},
    "file-2ps-uk2007": {"dataset": "uk2007", "scale": 16, "algo": "2PS", "k": 32},
    "file-hdrf-road": {"dataset": "usaroad", "scale": 19, "algo": "HDRF", "k": 32},
    "mem-analytics-twitter": {"dataset": "twitter", "scale": 16, "k": 128},
}
SMOKE_SCALE = 10
SETUP_REPS = 5           # setup_s is the median of this many set-ups
OP_TIMEOUT_S = 150       # a rep running longer than this is a failed op
MAX_UNATTRIBUTED = 0.05  # of the traced wall time

REP_METRICS = ("wall_s", "cpu_s", "peak_rss_mb")  # measured on every timed rep
# How a run reduces its samples to the value it reports. Other tenants of a
# shared host only ever add time to a rep, so a timing reports the fastest
# rep (best of N), which varies less from run to run than the median rep
# (README.md has the measurements).
REDUCE = {"wall_s": min, "cpu_s": min, "setup_s": statistics.median}
QUALITY = ("replication_factor", "edge_cut_ratio", "edge_imbalance")
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
LAYERS = ["stream", "partition", "partition_io", "engine", "run"]


class BenchError(Exception):
    """A step of the benchmark itself failed; no result can be reported."""


def log(*parts):
    print(*parts, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(values):
    """The highest of p99, p90 and p75 with at least ten samples beyond it."""
    return next((q for q in (99, 90, 75) if len(values) * (100 - q) >= 1000), None)


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# ---------------------------------------------------------------------------
# Build and process helpers.

def build():
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--parallel", "4"]]
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = build_log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def sgp_bench(*args):
    """Runs one sgp_bench mode and returns the JSON object it prints last."""
    argv = [str(SGP_BENCH), *map(str, args)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S + 10)
    except subprocess.TimeoutExpired:
        raise BenchError(f"sgp_bench {args[0]} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"sgp_bench {args[0]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spawn(argv, log_path):
    """Runs argv to its exit under `sgp_bench spawn`, which reports the exit
    code, the wall time and argv's own CPU time and peak RSS."""
    return sgp_bench("spawn", log_path, OP_TIMEOUT_S, *argv)


def file_hash(path):
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                digest.update(block)
    except OSError:
        return None
    return digest.hexdigest()


def corrupt(path):
    """Flips one digit in the middle of a partition file."""
    with open(path, "r+b") as f:
        f.seek(os.path.getsize(path) // 2)
        while (byte := f.read(1)) and not byte.isdigit():
            pass
        f.seek(-1, os.SEEK_CUR)
        f.write(b"1" if byte != b"1" else b"2")


# ---------------------------------------------------------------------------
# Workloads. Each returns samples (lists per end-to-end metric), the op
# counts, the setup timings and the path of its Chrome trace.

def run_file_workload(name, w, seed, seconds, scale, corrupt_one):
    data = BUILD / "data"
    data.mkdir(exist_ok=True)
    graph, out, ref = (data / f"{name}{ext}" for ext in (".el", ".part", ".ref.part"))
    trace = BUILD / f"trace-{name}.json"
    rep_log = BUILD / f"rep-{name}.log"
    try:
        gen = sgp_bench("gen", "--dataset", w["dataset"], "--scale", scale,
                        "--seed", seed, "--reps", SETUP_REPS, "--output", graph)
        tool = [str(BUILD / "examples" / "partition_tool"), "--input-edgelist",
                str(graph), w["algo"], str(w["k"]), "--seed", str(seed),
                "--output", str(out)]
        samples = {key: [] for key in REP_METRICS}
        ops = []  # [exit code, output hash], warm-up first

        def rep():
            if out.exists():
                out.unlink()
            result = spawn(tool, rep_log)
            ops.append([result["exit"], file_hash(out)])
            return result

        rep()
        start = time.perf_counter()
        while True:
            result = rep()
            for key in REP_METRICS:
                samples[key].append(result[key])
            if time.perf_counter() - start >= seconds:
                break
        if corrupt_one:
            rep()
            corrupt(out)
            ops[-1][1] = file_hash(out)

        quality = sgp_bench("trace-file", "--dataset", w["dataset"],
                            "--input", graph, "--algo", w["algo"], "--k", w["k"],
                            "--seed", seed, "--output", ref, "--trace", trace)
        ref_hash = file_hash(ref)
        op_failed = [code != 0 or h != ref_hash for code, h in ops]
        return {
            "samples": samples,
            "setup_s": [g + wr for g, wr in zip(gen["generate_s"], gen["write_s"])],
            "generate_s": gen["generate_s"], "write_s": gen["write_s"],
            "file_bytes": gen["file_bytes"],
            "quality": quality,
            "output_sha256": ref_hash,
            "attempted": len(ops) + 1,  # the traced run is an op too
            "failed": sum(op_failed),
            "corrupted_rep_failed": op_failed[-1] if corrupt_one else None,
            "reps": len(samples["wall_s"]),
            "trace": trace,
        }
    finally:
        for path in (graph, out, ref):
            if path.exists():
                path.unlink()


def run_mem_workload(name, w, seed, seconds, scale):
    trace = BUILD / f"trace-{name}.json"
    mem_log = BUILD / f"rep-{name}.log"
    # Spawned, so a Python-sized RSS does not carry into its exec'ed process.
    done = spawn([str(SGP_BENCH), "mem-analytics", "--dataset", w["dataset"],
                  "--scale", str(scale), "--seed", str(seed), "--k", str(w["k"]),
                  "--setup-reps", str(SETUP_REPS), "--seconds", str(seconds),
                  "--trace", str(trace)], mem_log)
    lines = mem_log.read_text().strip().splitlines()
    if done["exit"] != 0:
        raise BenchError(f"sgp_bench mem-analytics exited {done['exit']}: "
                         + "\n".join(lines[-5:]))
    res = json.loads(lines[-1])
    return {
        "samples": {key: res[key] for key in REP_METRICS},
        "setup_s": res["setup_s"], "generate_s": res["setup_s"], "write_s": [0.0],
        "file_bytes": 0,
        "quality": res,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "corrupted_rep_failed": None,
        "reps": len(res["wall_s"]),
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# Metrics.

def layer_metrics(run, untraced_wall_s):
    """Per-layer metrics from the workload's Chrome trace."""
    events = json.loads(Path(run["trace"]).read_text())["traceEvents"]
    child_us = {}
    for e in events:
        parent = e["args"]["parent"]
        child_us[parent] = child_us.get(parent, 0.0) + e["dur"]
    self_s = dict.fromkeys(LAYERS, 0.0)
    by_name = {}
    for e in events:
        self_s[e["cat"]] += (e["dur"] - child_us.get(e["args"]["span"], 0.0)) / 1e6
        by_name.setdefault(e["name"], []).append(e)
    traced_wall = sum(e["dur"] for e in events if e["args"]["parent"] < 0) / 1e6

    def arg_sum(span_names, key):
        return sum(e["args"].get(key, 0) for n in span_names for e in by_name.get(n, []))

    chunks = by_name.get("stream.next_chunk", [])
    chunk_us = sorted(e["dur"] for e in chunks)
    passes = sum(1 for e in chunks if e["args"]["edges"] == 0)
    part_spans = ["partition.run_on_source", "partition.run"]
    part_edges = arg_sum(part_spans, "edges")
    io_bytes = arg_sum(["partition_io.write"], "bytes")
    engine_runs = by_name.get("engine.run", [])
    edge_steps = sum(e["args"]["edges"] * e["args"]["iterations"] for e in engine_runs)
    engine_run_s = sum(e["dur"] for e in engine_runs) / 1e6
    rep_root_s = sum(e["dur"] for e in by_name.get("run.rep", [])) / 1e6

    def share(layer):
        return self_s[layer] / traced_wall if traced_wall else 0.0

    def per_s(amount, seconds):
        return amount / seconds if seconds else 0.0

    return {
        "graph.generate_s": median(run["generate_s"]),
        "graph.write_s": median(run["write_s"]),
        "graph.file_bytes": run["file_bytes"],
        "stream.self_s": self_s["stream"],
        "stream.share": share("stream"),
        "stream.mb_per_s": per_s(run["file_bytes"] * passes / 1e6, self_s["stream"]),
        "stream.chunk_p50_us": percentile(chunk_us, 50),
        "stream.chunk_p90_us": percentile(chunk_us, 90),
        "stream.chunks": len(chunks),
        "stream.edges": arg_sum(["stream.next_chunk"], "edges"),
        "stream.passes": passes,
        "stream.id_growth_events": arg_sum(["stream.next_chunk"], "id_growth"),
        "partition.self_s": self_s["partition"],
        "partition.share": share("partition"),
        "partition.ns_per_edge": per_s(self_s["partition"] * 1e9, part_edges),
        "partition.state_bytes": max((e["args"].get("state_bytes", 0)
                                      for n in part_spans for e in by_name.get(n, [])),
                                     default=0),
        **{f"partition.{key}": run["quality"][key] for key in QUALITY},
        "engine.sim_pagerank_s": run["quality"]["sim_pagerank_s"],
        "partition_io.self_s": self_s["partition_io"],
        "partition_io.share": share("partition_io"),
        "partition_io.mb_per_s": per_s(io_bytes / 1e6, self_s["partition_io"]),
        "partition_io.bytes": io_bytes,
        "engine.share": share("engine"),
        "engine.build_s": sum(e["dur"] for e in by_name.get("engine.build", [])) / 1e6,
        "engine.run_s": engine_run_s,
        "engine.ns_per_edge_step": per_s(engine_run_s * 1e9, edge_steps),
        "engine.iterations": arg_sum(["engine.run"], "iterations"),
        "engine.network_bytes": arg_sum(["engine.run"], "network_bytes"),
        "run.peak_rss_mb": median(run["samples"]["peak_rss_mb"]),
        "run.unattributed_s": self_s["run"],
        "trace.overhead_pct": per_s((rep_root_s - untraced_wall_s) * 100, untraced_wall_s),
    }, self_s, traced_wall


def summarize(run):
    """End-to-end and per-layer metrics of one workload run, with its checks."""
    samples = dict(run["samples"], setup_s=run["setup_s"])
    e2e = {key: REDUCE[key](samples[key]) for key in END_TO_END}
    layers, self_s, traced_wall = layer_metrics(run, e2e["wall_s"])
    unattributed = layers["run.unattributed_s"] / traced_wall if traced_wall else 1.0
    return {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "reps": run["reps"],
        "trace_ok": unattributed <= MAX_UNATTRIBUTED,
        "corrupted_rep_failed": run["corrupted_rep_failed"],
        "samples": samples,
        "end_to_end": e2e,
        "per_layer": layers,
        "self_s": self_s,
        "traced_wall_s": traced_wall,
        "trace": str(Path(run["trace"]).relative_to(ROOT)),
        "output_sha256": run.get("output_sha256"),
    }


def print_workload(name, s, seed):
    log(f"\n== {name}  (seed {seed}; {s['reps']} timed reps after 1 warm-up, "
        f"closed loop, 1 client)")
    for key, value in s["end_to_end"].items():
        values = s["samples"][key]
        note = f"median of {len(values)}"
        if REDUCE[key] is min:
            note = f"fastest of {len(values)}; median {median(values):.6g}"
        if (q := tail_percentile(values)) is not None:
            note += f", p{q} {percentile(values, q):.6g}"
        log(f"  {key:<20} {value:>14.6g} {END_TO_END[key]['unit']:<8} {note}")
    log(f"  {'fail_ratio':<20} {s['failed']:>8}/{s['attempted']:<5} ops")
    log(f"  self time of the traced run ({s['traced_wall_s']:.4f} s, {s['trace']}):")
    for layer in LAYERS:
        secs = s["self_s"][layer]
        log(f"    {layer:<14} {secs:>10.4f} s {100 * secs / s['traced_wall_s']:>7.2f} %")
    if not s["trace_ok"]:
        log(f"  TRACE UNHEALTHY: unattributed time above {MAX_UNATTRIBUTED:.0%}")
    log("  per-layer:")
    for key, value in s["per_layer"].items():
        log(f"    {key:<26} {value:>16.6g} {PER_LAYER[key]['unit']}")


def environment(seed):
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"git_commit": commit, "nproc": len(os.sched_getaffinity(0)), **sgp_bench("env"),
            "seed": seed}


def run_workloads(names, seed, seconds, scale_override=None, corrupt_one=False):
    """Runs the workloads in turn; with corrupt_one, the first file workload
    also runs one rep whose partition file is corrupted."""
    results = {}
    for name in names:
        w = WORKLOADS[name]
        scale = scale_override or w["scale"]
        if "algo" in w:
            run = run_file_workload(name, w, seed, seconds, scale, corrupt_one)
            corrupt_one = False
        else:
            run = run_mem_workload(name, w, seed, seconds, scale)
        results[name] = summarize(run)
        print_workload(name, results[name], seed)
    return results


# ---------------------------------------------------------------------------
# Compare: the choosing-metrics §8 rule per (workload, end-to-end metric).

def verdict(base, head, bound, lower_is_better):
    sign = 1 if lower_is_better else -1
    mb, mh = median(base), median(head)
    q1, q3 = quartiles(base)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(mh - mb) > q3 - q1 and sign * (mh - mb) < 0:
        return "improved"
    all_better = all(sign * (h - b) < 0 for h in head for b in base)
    if mb and (q3 - q1) / abs(mb) > bound and not all_better:
        return "unresolved"
    if mb and sign * (mh - mb) / abs(mb) > bound:
        return "regressed"
    return "no-worse"


def load_side(arg):
    """The workloads of each results JSON that `arg` names: one file, or every
    *.json in a directory, in name order so that the i-th runs of two sides
    form a pair."""
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path] if path.is_file() else []
    if not files:
        sys.exit(f"error: no results JSON in {arg}")
    return [json.loads(f.read_text())["workloads"] for f in files]


def side_samples(runs, name, key):
    """One sample per run when a side has several runs; a single run gives its
    reps (its set-ups for setup_s)."""
    if len(runs) == 1:
        return runs[0][name]["samples"][key]
    return [run[name]["end_to_end"][key] for run in runs]


def compare(base_arg, head_arg):
    base, head = load_side(base_arg), load_side(head_arg)
    log(f"{len(base)} base and {len(head)} head run(s)")
    log(f"{'workload':<24}{'metric':<20}{'base median [q1, q3]':>36}"
        f"{'head median [q1, q3]':>36}{'bound':>8}  verdict")
    regressed = False
    for name in (n for n in base[0] if all(n in run for run in base + head)):
        for key, spec in END_TO_END.items():
            b, h = side_samples(base, name, key), side_samples(head, name, key)
            v = verdict(b, h, spec["bound"], spec["better"] == "lower")
            regressed |= v == "regressed"
            cols = [f"{median(x):.6g} [{quartiles(x)[0]:.6g}, {quartiles(x)[1]:.6g}]"
                    for x in (b, h)]
            log(f"{name:<24}{key:<20}{cols[0]:>36}{cols[1]:>36}"
                f"{spec['bound']:>8.0%}  {v}")
    return 1 if regressed else 0


# ---------------------------------------------------------------------------

def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare BASE HEAD  (each a results JSON or a "
                     "directory of them)")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"scale {SMOKE_SCALE}, one rep, plus one corrupted rep")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    try:
        build()
        env = environment(args.seed)
        names = [args.workload] if args.workload else list(WORKLOADS)
        if args.smoke:
            results = run_workloads(names, args.seed, 0, SMOKE_SCALE, corrupt_one=True)
        else:
            results = run_workloads(names, args.seed, args.seconds)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    out = args.out or BUILD / ("smoke.json" if args.smoke else "results.json")
    out.write_text(json.dumps({"env": env, "seconds": args.seconds,
                               "smoke": args.smoke, "workloads": results}, indent=1))
    log(f"\nresults written to {out}")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    healthy = all(r["trace_ok"] for r in results.values())
    if args.smoke:
        # Exactly the corrupted rep must fail: proof that the check can fail.
        corrupted = [r["corrupted_rep_failed"] for r in results.values()
                     if r["corrupted_rep_failed"] is not None]
        ok = all(corrupted) and failed == len(corrupted) and healthy
        log(f"smoke: {failed}/{attempted} ops failed ({len(corrupted)} deliberately "
            f"corrupted); {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    if args.workload:
        r = results[args.workload]
        group, metrics = (PER_LAYER, r["per_layer"]) if args.trace else (END_TO_END, r["end_to_end"])
        print(json.dumps({
            "correct": failed == 0 and healthy,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": group[k]["unit"]} for k in group},
        }))
        return 0
    log(f"set: {failed}/{attempted} ops failed; traces "
        f"{'healthy' if healthy else 'UNHEALTHY'}")
    return 0 if failed == 0 and healthy else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
