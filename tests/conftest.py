"""Fixtures shared by the test modules."""

import pytest

from blowcube.errors import MapError
from blowcube.maps import linear_map


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
