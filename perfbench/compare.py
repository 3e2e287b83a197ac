"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the saved standard output of any number of ``run.py`` runs;
the ``perfbench-record`` lines are read.  For every workload and metric the
medians over the runs are printed with the relative change and the base's
quartile spread (distance between quartiles over the median).  Results whose
environment fingerprints differ are not compared: the exit status is 2.
"""

from __future__ import annotations

import json
import statistics
import sys

PREFIX = "perfbench-record "


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line[len(PREFIX):]) for line in fh
                if line.startswith(PREFIX)]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(p) for p in argv)
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + new}
    if len(prints) != 1:
        print("compare: the results come from different environments:",
              file=sys.stderr)
        for p in sorted(prints):
            print(f"  {p}", file=sys.stderr)
        return 2
    groups: dict[tuple, dict[str, tuple[list, list]]] = {}
    for side, records in enumerate((base, new)):
        for r in records:
            metrics = groups.setdefault((r["workload"], r["trace"]), {})
            for name, m in {**r["metrics"],
                            **r.get("as_measured", {})}.items():
                metrics.setdefault(name, ([], []))[side].append(m["value"])
    print(f"{'workload':11} {'metric':34} {'base':>12} {'new':>12} "
          f"{'change':>8} {'spread':>7} runs")
    for (workload, _trace), metrics in sorted(groups.items()):
        for name, (a, b) in metrics.items():
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else float("nan")
            print(f"{workload:11} {name:34} {ma:12.6g} {mb:12.6g} "
                  f"{change:+8.1%} {spread(a):7.3f} {len(a)}/{len(b)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
