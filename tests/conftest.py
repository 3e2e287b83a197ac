"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

from blowcube import maps
from blowcube.errors import MapError
from blowcube.maps import linear_map

# pyproject's pythonpath puts src/ on this process's path only: the
# interpreters that tests start get it through PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_PATH = os.environ.get("PYTHONPATH", "")
if _SRC not in _PATH.split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, _PATH)))


@pytest.fixture
def dense_automorphism():
    """The draw of a seeded dense linear automorphism of the plane: entries
    from -3..3 without 0, drawn again until the matrix is invertible."""
    def draw(rng):
        values = (-3, -2, -1, 1, 2, 3)
        while True:
            try:
                return linear_map([[rng.choice(values) for _ in range(3)]
                                   for _ in range(3)])
            except MapError:
                continue
    return draw


@pytest.fixture
def built_composites(monkeypatch):
    """The factors of every composite built from now on, by either builder:
    (outer entries, inner entries) for a product, and (outer entries,
    (scales, rows, lines)) for an inner map read as c * M after l."""
    built = []
    for name in ("compose_tuple", "compose_monomial_linear"):
        def counted(outer, *inner, real=getattr(maps, name)):
            built.append((outer, inner))
            return real(outer, *inner)
        monkeypatch.setattr(maps, name, counted)
    return built
