"""Determinism of the benchmark: counters repeat, inputs follow the seed.

Each check starts fresh interpreters the way ``run.py`` does, so nothing the
test process has computed leaks into what is measured.  Runs in about a
minute:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import WORKLOADS, child_env  # noqa: E402


def _python(*args: str) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(ROOT),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def _traced_pass(workload: str, seed: int) -> dict:
    out = _python(os.path.join(BENCH, "child.py"), "--workload", workload,
                  "--seed", str(seed), "--trace")
    return json.loads(out.strip().splitlines()[-1])


def _deterministic(layers: dict) -> dict:
    return {k: v for k, v in layers.items()
            if k.endswith(("_calls", "_share", ".calls"))
            or k in ("kernel.terms_multiplied", "maps.projmaps_built")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly_for_one_seed(workload):
    first, second = (_traced_pass(workload, 7) for _ in range(2))
    assert first["failed"] == second["failed"] == 0
    counters = _deterministic(first["layers"])
    assert "poly.primitive_nontrivial_share" in counters
    assert any(counters.values())
    assert counters == _deterministic(second["layers"])


_DESCRIBE = """
import json, sys
sys.path.insert(0, {bench!r})
import workloads
ops = workloads.prepare({workload!r}, {seed})
if {workload!r} == "conjugates":
    print(json.dumps([str(op.input) for op in ops]))
else:
    print(json.dumps([[op.input.edges, op.input.cubes, op.input.pairs,
                       sorted(op.input.removed or ())] for op in ops]))
"""


def _inputs(workload: str, seed: int) -> list:
    code = _DESCRIBE.format(bench=BENCH, workload=workload, seed=seed)
    return json.loads(_python("-c", code))


@pytest.mark.parametrize("workload", ["conjugates", "complexes"])
def test_inputs_follow_the_seed(workload):
    one = _inputs(workload, 1)
    assert one == _inputs(workload, 1)
    assert one != _inputs(workload, 2)
