"""Arithmetic kernel on packed-exponent dictionaries."""

from blowcube import kernel
from blowcube.poly import pack


def test_add_scaled_cancellation_drops_keys():
    a = {pack((1, 0, 0)): 5, pack((0, 1, 0)): 2}
    b = {pack((1, 0, 0)): 1}
    out = kernel.add_scaled_packed(a, b, -5)
    assert out == {pack((0, 1, 0)): 2}
    assert kernel.mul_packed(a, {}) == {}
