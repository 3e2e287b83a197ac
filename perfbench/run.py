"""Layered benchmark of blowcube: run one workload and print its metrics.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program measured is ``src/blowcube`` of
that checkout.  Every pass is a fresh single-threaded interpreter
(``child.py``) with cold caches, ``PYTHONHASHSEED=0`` and no ``BLOWCUBE_*``
variable; passes repeat until ``--seconds`` is used up (at least one).

``--trace 0`` prints the end-to-end metrics, medians over the passes:
``wall_ref_s`` (timed phase of a pass), ``op_p50_ref_s`` (median over the
operations of each operation's median latency), ``setup_s`` (spawn until the
inputs are ready) and ``peak_rss_mb`` (``ru_maxrss`` of a pass); and
``decided_share``, the share of the requested invariants that came back with
a value.  The three times are at the reference speed of ``calibrate.py``:
each pass's times are scaled by ``REFERENCE_S`` over the median of the
calibrations made in that pass.  The report lines also show them as
measured (``wall_s``, ``op_p50_s``, ``setup_wall_s``) and the median
calibration (``calibration_s``).

``--trace 1`` alternates plain and traced passes and prints the per-layer
metrics of the fastest traced pass, with ``trace.overhead_s`` (fastest traced
minus fastest plain wall time).

The report lines come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 1
when any operation's output differs from its reference, 2 when the checkout
or a pass is unusable (no result is printed then).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S  # noqa: E402
from layertrace import per_layer_names  # noqa: E402

WORKLOADS = ("classify", "conjugates", "complexes")  # as in workloads.py
PASS_TIMEOUT_S = 150    # a pass that takes longer is killed and the run fails


class PassError(Exception):
    pass


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("BLOWCUBE_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"   # set iteration order, hence the counters
    return env


def spawn(root: str, env: dict, *args: str) -> dict:
    """Run child.py once; returns set-up time, exit data and its record."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        raise PassError(f"{' '.join(args)} exited with {proc.returncode}")
    return {"setup_s": setup, "peak_rss_mb": usage.ru_maxrss / 1024,
            "record": json.loads(lines[-1])}


def run(root: str, workload: str, seed: int, seconds: float, trace: bool):
    """Passes until ``seconds`` is used up, at least one (one of each kind
    with ``trace``; plain and traced passes alternate)."""
    env = child_env(root)
    base = ["--workload", workload, "--seed", str(seed)]
    kinds = (["plain", "traced"] if trace else ["plain"])
    passes: dict[str, list] = {k: [] for k in kinds}
    begin = time.perf_counter()
    for i in itertools.count():
        kind = kinds[i % len(kinds)]
        t = time.perf_counter()
        passes[kind].append(spawn(root, env, *base,
                                  *(["--trace"] if kind == "traced" else [])))
        last = time.perf_counter() - t
        if (kind == kinds[-1]
                and time.perf_counter() - begin + last * len(kinds) > seconds):
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "blowcube", "__init__.py")):
        print("perfbench: run from the root of a blowcube checkout "
              "(src/blowcube not found)", file=sys.stderr)
        return 2
    try:
        passes = run(root, args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except PassError as exc:
        print(f"perfbench: pass failed: {exc}", file=sys.stderr)
        return 2

    measured = [p for kind in passes.values() for p in kind]
    records = [p["record"] for p in measured]
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in records}
    if len(prints) != 1:
        print("perfbench: passes ran in different environments", file=sys.stderr)
        return 2
    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    requested = sum(r["requested"] for r in records)
    undecided = sum(r["undecided"] for r in records)
    for r in records:
        for line in r["failures"]:
            print(f"FAILED {line}", file=sys.stderr)

    plain = [p["record"] for p in passes["plain"]]
    if args.trace:
        best = min((p["record"] for p in passes["traced"]),
                   key=lambda r: r["wall_s"])
        overhead = best["wall_s"] - min(r["wall_s"] for r in plain)
        layers = {**best["layers"], "trace.overhead_s": overhead}
        metrics = {k: {"value": layers[k], "samples": len(passes["traced"]),
                       "unit": u} for k, u in per_layer_names()}
        measured_as_is = {}
    else:
        def median(values, unit):
            return {"value": statistics.median(values),
                    "samples": len(values), "unit": unit}

        def times(scale):
            """setup, wall and op p50, each pass's times multiplied by
            ``scale(record)``."""
            return (
                median([p["setup_s"] * scale(p["record"]) for p in measured],
                       "s"),
                median([r["wall_s"] * scale(r) for r in plain], "s"),
                # every pass runs the same operations; the median over all
                # latencies at once would fall in the gap between two
                # operations of different cost, and swing with noise
                median([statistics.median(op) for op in zip(*(
                    [t * scale(r) for t in r["latencies"]] for r in plain))],
                    "s"))

        setup, wall, op_p50 = times(
            lambda r: REFERENCE_S / statistics.median(r["calibrations"]))
        metrics = {
            "setup_s": setup, "wall_ref_s": wall, "op_p50_ref_s": op_p50,
            "peak_rss_mb": median([p["peak_rss_mb"] for p in measured], "MB"),
            "decided_share": {"value": 1 - undecided / requested,
                              "samples": requested, "unit": "share"},
        }
        setup, wall, op_p50 = times(lambda r: 1.0)
        measured_as_is = {
            "setup_wall_s": setup, "wall_s": wall, "op_p50_s": op_p50,
            "calibration_s": median([statistics.median(r["calibrations"])
                                     for r in records], "s")}

    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "fingerprint": records[0]["fingerprint"],
              "passes": len(measured),
              "pass_wall_s": [r["wall_s"] for r in records],
              "attempted": attempted,
              "failed": failed, "fail_share": failed / attempted,
              "undecided_share": undecided / requested, "metrics": metrics,
              "as_measured": measured_as_is}
    print(f"workload {args.workload}  seed {args.seed}  passes {len(measured)}"
          f"  fingerprint {records[0]['fingerprint']}")
    print(f"  {'fail_share':32} {failed / attempted:14.6g} {'share':6} "
          f"n={attempted}")
    print(f"  {'undecided_share':32} {undecided / requested:14.6g} {'share':6} "
          f"n={requested}")
    for name, m in metrics.items():
        print(f"  {name:32} {m['value']:14.6g} {m['unit']:6} n={m['samples']}")
    for name, m in measured_as_is.items():
        print(f"  ({name}){'':{30 - len(name)}} {m['value']:14.6g} "
              f"{m['unit']:6} n={m['samples']}")
    print("perfbench-record " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
