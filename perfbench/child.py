"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N [--trace]

Prints ``ready`` on stdout when set-up is done (``run.py`` times set-up up to
that line), then runs every operation once while it samples the machine's
speed (``calibrate.py``), judges the results against their references, and
prints one JSON object.  With ``--trace`` the blowcube layers
are wrapped just before the timed phase, the spans are written to
``.perfbench/`` under the current directory, and the object carries the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time


def fingerprint(root: str) -> dict:
    import sympy

    import blowcube
    from blowcube import kernel
    try:
        import gmpy2  # noqa: F401  (decides sympy's ground types)
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {"python": sys.version.split()[0], "sympy": sympy.__version__,
            "gmpy2": has_gmpy2, "kernel_backend": kernel.BACKEND,
            "blowcube_file": os.path.relpath(blowcube.__file__, root),
            "nproc": os.cpu_count()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    out = sys.stdout
    root = os.getcwd()

    import blowcube
    src = os.path.join(root, "src", "blowcube")
    if os.path.dirname(os.path.abspath(blowcube.__file__)) != src:
        print(f"blowcube imported from {blowcube.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from blowcube.dynamics import _SOFT_CAPS
    import layertrace
    import workloads
    from calibrate import Sampler, calibrate
    ops = workloads.prepare(args.workload, args.seed)
    out.write("ready\n")
    out.flush()

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()

    # the operations run one after another, with the machine's speed
    # sampled before, during and after them; the handler's time is taken
    # out of the latencies.  A traced pass is not sampled, so that no span
    # holds a calibration.
    results = []
    latencies = []
    calibrations = [calibrate()]
    sampler = Sampler()
    clock = time.perf_counter
    t0 = clock()
    with sampler if tracer is None else contextlib.nullcontext():
        for op in ops:
            spent = sampler.spent
            s = clock()
            try:
                got = op.run()
            except Exception as exc:  # judged below, never while timed
                got = exc
            latencies.append(clock() - s - (sampler.spent - spent))
            results.append(got)
    calibrations += sampler.samples + [calibrate()]
    wall = sum(latencies)
    if tracer is not None:
        tracer.uninstall()

    failed = undecided = requested = 0
    failures = []
    for op, got in zip(ops, results):
        requested += op.requested
        if isinstance(got, _SOFT_CAPS):
            undecided += op.requested
            continue
        if isinstance(got, Exception):
            bad, und = True, 0
        else:
            bad, und = op.judge(got)
        undecided += und
        if bad:
            failed += 1
            failures.append(f"{op.label}: {got!r}"[:300])

    record = {"workload": args.workload, "seed": args.seed,
              "fingerprint": fingerprint(root), "ops": len(ops),
              "failed": failed, "failures": failures,
              "requested": requested, "undecided": undecided,
              "wall_s": wall, "latencies": latencies,
              "calibrations": calibrations}
    if tracer is not None:
        record["layers"] = layertrace.layer_metrics(tracer.spans, wall)
        spans_dir = os.path.join(root, ".perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.write_spans(os.path.join(
            spans_dir, f"spans-{args.workload}-{args.seed}.jsonl"), t0)
    out.write(json.dumps(record) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
