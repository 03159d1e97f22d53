#!/usr/bin/env python3
"""Benchmark two checkouts of the repository against each other in pairs.

Runs the benchmark command of the CHANGE checkout's ``BENCHMARK.json``
(``python3 perfbench/run.py``), at its run length and on each of its
workloads, in the PARENT and the CHANGE checkout, one pair of runs per
seed: each pair has a seed of its own, and the side that runs first
alternates from pair to pair. Before each run it removes the checkout's
``__pycache__`` directories, and it runs with ``PYTHONDONTWRITEBYTECODE``
set, so every run compiles the sources afresh, as in a new checkout.
Workload k takes the seeds ``seed + k * pairs`` on.

It writes ``BENCH_<pr>.json`` in the working directory. Per workload,
``summary`` holds each side's median and quartiles of every end-to-end
metric, on how many pairs the change is better and on how many worse, the
median change, and the metric's bound and direction from
``BENCHMARK.json``; ``workloads`` keeps every run's numbers. ``--claim
WORKLOAD METRIC`` records whether the change is better on at least nine
pairs in ten and its median better than the parent's by more than the
parent's interquartile range. The file's ``change`` line and ``notes`` list
are left empty, to be written by hand.

Each metric's summary also holds a no-regression ``verdict``: "worse past
bound" where the change's median is worse than the parent's by more than
the metric's bound (a share of the parent's median), else "unresolved"
where the parent's interquartile range is wider than that bound, so that
the runs cannot tell a loss of the bound from noise, else "within bound".
Per workload, ``failed_verdict`` says whether the change failed a larger
share of the runs it attempted than the parent. Both are printed at the
end of a run.

Each pair also keeps, per side, the run's CPU seconds (``cpu_s``: the
``RUSAGE_CHILDREN`` time the command used), its wall seconds (``wall_s``)
and the 1-minute load average just before it (``load_1m``). A run with
less than 0.9 CPU seconds per wall second waited for a CPU that another
process held, so its timings read slow: a warning names each such side,
as the pair finishes and again with the verdicts.

``--against BENCH_k.json`` prints, per workload and metric, the change
side's median of an earlier file against that of this run (or of the one
file given instead of two checkouts), and the relative delta. One file
given alone prints its verdicts, taken afresh from its summary and runs.

Examples (the parent commit checked out into ../parent):
    python scripts/bench_pairs.py ../parent . --pr 21 --pairs 10 --seed 2101 \\
        --claim anytime-deep nodes_per_s
    python scripts/bench_pairs.py BENCH_21.json --against BENCH_19.json
    python scripts/bench_pairs.py BENCH_21.json
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
# A single-threaded benchmark run on an idle core gets about one CPU second
# per wall second; below this share, another process took the CPU from it.
LOADED_RATIO = 0.9


def machine_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "cpu_model": cpu, "platform": platform.platform()}


def run_once(command, checkout, workload, seed, seconds):
    """One benchmark run in ``checkout``: the JSON object its last line of
    standard output holds, and what the run cost: ``cpu_s``, the CPU
    seconds (user and system) of the command and the children it waited
    for, ``wall_s``, and ``load_1m``, the 1-minute load average just
    before it."""
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", f"{seconds:g}", "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    load = os.getloadavg()[0]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    done = subprocess.run(args, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(args)} in {checkout} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return json.loads(lines[-1]), {"cpu_s": round(cpu, 3), "wall_s": round(wall, 3),
                                   "load_1m": load}


def load_warnings(workload, pair):
    """A line for each side of ``pair`` whose run got less than
    ``LOADED_RATIO`` of a CPU for its wall time: another process took the
    CPU from it, and its timings read slow."""
    lines = []
    for side in SIDES:
        cpu, wall = pair["cpu_s"][side], pair["wall_s"][side]
        if cpu / wall < LOADED_RATIO:
            lines.append(f"warning: {workload} seed {pair['seed']}: {side} ran at CPU/wall "
                         f"{cpu / wall:.2f}, load {pair['load_1m'][side]:.2f} before it")
    return lines


def quartiles(values):
    """Median and inclusive quartiles; one value is all three."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def verdict(entry):
    """The no-regression verdict of one metric's summary ``entry``."""
    base, change = entry["parent"]["median"], entry["change"]["median"]
    sign = 1 if entry["better"] == "higher" else -1
    if not base:  # no relative change to take
        return "within bound" if change == base else "unresolved"
    if sign * (base - change) / abs(base) > entry["bound"]:
        return "worse past bound"
    if (entry["parent"]["q3"] - entry["parent"]["q1"]) / abs(base) > entry["bound"]:
        return "unresolved"
    return "within bound"


def judge(entry, pairs):
    """Set the verdict of each metric in one workload's summary ``entry``,
    and its ``failed_verdict``: whether the change failed a larger share
    of its attempted runs in ``pairs``."""
    share = {s: sum(p["failed"][s] for p in pairs)
             / max(1, sum(p["attempted"][s] for p in pairs)) for s in SIDES}
    entry["failed_verdict"] = ("change fails a larger share" if share["change"] > share["parent"]
                               else "no larger share failed")
    for stats in entry.values():
        if isinstance(stats, dict) and "better" in stats:
            stats["verdict"] = verdict(stats)


def summarize(pairs, end_to_end):
    """The ``summary`` entry of one workload from its ``pairs``."""
    out = {"pairs": len(pairs)}
    for key, name in (("attempted", "attempted_median"), ("failed", "failed_total")):
        combine = statistics.median if key == "attempted" else sum
        out[name] = {s: combine(p[key][s] for p in pairs) for s in SIDES}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {s: [p[s][name] for p in pairs] for s in SIDES}
        parent, change = (statistics.median(values[s]) for s in SIDES)
        gains = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        out[name] = {
            **{s: quartiles(values[s]) for s in SIDES},
            "change_better_pairs": sum(g > 0 for g in gains),
            "change_worse_pairs": sum(g < 0 for g in gains),
            "median_change": round(change / parent - 1, 4) if parent else None,
            "bound": metric["bound"],
            "better": metric["better"],
        }
    judge(out, pairs)
    return out


def claim_result(entry, pairs):
    """Whether the change is better on at least nine pairs in ten and its
    median better by more than the parent's interquartile range."""
    parent, change = entry["parent"], entry["change"]
    sign = 1 if entry["better"] == "higher" else -1
    better = entry["change_better_pairs"]
    iqr = parent["q3"] - parent["q1"]
    met = better >= math.ceil(0.9 * pairs) and sign * (change["median"] - parent["median"]) > iqr
    return (f"{'met' if met else 'not met'}: {parent['median']:g} -> {change['median']:g} "
            f"median, change better on {better} of {pairs} pairs, parent IQR {iqr:.6g}")


def bench(args):
    """Run the pairs, write the BENCH file and return its document."""
    parent, change = Path(args.sides[0]).resolve(), Path(args.sides[1]).resolve()
    config = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    command, seconds = config["command"], config["run_seconds"]
    workloads = [w["name"] for w in config["workloads"]]
    if args.claim and (args.claim[0] not in workloads or args.claim[1] not in
                       [m["name"] for m in config["end_to_end"]]):
        raise SystemExit(f"--claim {' '.join(args.claim)}: no such workload or metric")
    summary, runs_of = {}, {}
    for k, workload in enumerate(workloads):
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + k * args.pairs + i
            first = SIDES[i % 2]
            runs, costs = {}, {}
            for side in (SIDES if first == "parent" else SIDES[::-1]):
                runs[side], costs[side] = run_once(
                    command, parent if side == "parent" else change, workload, seed, seconds)
            pairs.append({"seed": seed, "first": first,
                          **{key: {s: runs[s][key] for s in SIDES}
                             for key in ("attempted", "failed", "correct")},
                          **{key: {s: costs[s][key] for s in SIDES}
                             for key in ("cpu_s", "wall_s", "load_1m")},
                          **{s: {m: v["value"] for m, v in runs[s]["metrics"].items()}
                             for s in SIDES}})
            print(f"{workload} seed {seed} ({first} first): " + ", ".join(
                f"{m} {pairs[-1]['parent'][m]:g} -> {pairs[-1]['change'][m]:g}"
                for m in ("nodes_per_s", "solve_s") if m in pairs[-1]["parent"]), flush=True)
            for line in load_warnings(workload, pairs[-1]):
                print(line, flush=True)
        summary[workload] = summarize(pairs, config["end_to_end"])
        runs_of[workload] = {"pairs": pairs}
    doc = {"change": ""}
    if args.claim:
        workload, metric = args.claim
        doc["claim"] = {"metric": metric, "workload": workload,
                        "result": claim_result(summary[workload][metric], args.pairs)}
    doc.update(machine=machine_info(), benchmark={
        "command": " ".join(command) + f" --workload W --seed S --seconds {seconds:g} --trace 0",
        "method": "parent and change run from two checkouts with no __pycache__, alternating "
                  "which side runs first per pair; one seed per pair",
        "seeds": {w: f"{args.seed + k * args.pairs}-{args.seed + (k + 1) * args.pairs - 1}"
                  for k, w in enumerate(workloads)},
    }, summary=summary, workloads=runs_of, notes=[])
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    print_verdicts(doc)
    return doc


def print_verdicts(doc):
    """Per workload and metric, the no-regression verdict, then failures
    and the pairs run on a loaded machine."""
    for workload, entry in doc["summary"].items():
        for metric, stats in entry.items():
            if isinstance(stats, dict) and "better" in stats:
                parent = stats["parent"]
                iqr = (parent["q3"] - parent["q1"]) / parent["median"] if parent["median"] else 0
                change = stats["median_change"]
                print(f"{workload:13} {metric:13} {stats['verdict']:16} median change "
                      f"{'n/a' if change is None else f'{change:+.1%}'}, parent IQR "
                      f"{iqr:.1%}, bound {stats['bound']:.0%}")
        failed = entry["failed_total"]
        print(f"{workload:13} {'failed':13} {entry['failed_verdict']} "
              f"(parent {failed['parent']}, change {failed['change']})")
        for pair in doc["workloads"][workload]["pairs"]:
            if "cpu_s" in pair:  # older BENCH files keep no run costs
                for line in load_warnings(workload, pair):
                    print(line)
    if "claim" in doc:
        print(f"claim {doc['claim']['workload']} {doc['claim']['metric']}: "
              f"{doc['claim']['result']}")


def print_against(doc, old):
    """Per workload and metric, the change medians of ``old`` and ``doc``."""
    for workload, entry in doc["summary"].items():
        before = old.get("summary", {}).get(workload, {})
        for metric, stats in entry.items():
            if not isinstance(stats, dict) or "better" not in stats or metric not in before:
                continue
            a, b = before[metric]["change"]["median"], stats["change"]["median"]
            delta = f"{b / a - 1:+.1%}" if a else "n/a"
            print(f"{workload:13} {metric:13} {a:>12g} -> {b:>12g}  {delta}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("sides", nargs="+", metavar="PATH",
                    help="two checkouts to benchmark, or one BENCH file")
    ap.add_argument("--pr", type=int, help="the change's number: writes BENCH_<pr>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    ap.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"))
    ap.add_argument("--against", type=Path, help="an earlier BENCH file to print deltas against")
    args = ap.parse_args(argv)
    if len(args.sides) == 1:
        doc = json.loads(Path(args.sides[0]).read_text(encoding="utf-8"))
        if args.against is None:
            for workload, entry in doc["summary"].items():
                judge(entry, doc["workloads"][workload]["pairs"])
            print_verdicts(doc)
    elif len(args.sides) == 2:
        if args.pr is None:
            ap.error("a run needs --pr")
        if args.pairs < 1:
            ap.error("--pairs must be at least 1")
        doc = bench(args)
    else:
        ap.error("give two checkouts, or one BENCH file")
    if args.against is not None:
        print_against(doc, json.loads(args.against.read_text(encoding="utf-8")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
