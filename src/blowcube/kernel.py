"""Arithmetic kernel on packed-exponent dictionaries.

A polynomial's terms live in a dict mapping a packed exponent key to an
integer coefficient.  Exponents are packed 16 bits per variable (variable 0
in the lowest bits), so multiplying monomials is integer addition of keys.
Each exponent must stay below 2**16; ``poly.check_exponent`` (powers, the
parser, ``maps.homogenize``) and ``maps._composite`` enforce it, not this module.
"""

from __future__ import annotations

BACKEND = "python"

__all__ = ["BACKEND", "mul_packed", "add_scaled_packed"]


def mul_packed(a: dict, b: dict) -> dict:
    """Product of two packed term dicts. Zero coefficients are dropped."""
    if len(a) < len(b):  # iterate the smaller one outermost
        a, b = b, a
    out: dict = {}
    items = list(b.items())
    get = out.get
    for ka, ca in a.items():
        for kb, cb in items:
            k = ka + kb
            prev = get(k)
            if prev is None:
                out[k] = ca * cb
            else:
                out[k] = prev + ca * cb
    return {k: v for k, v in out.items() if v}


def add_scaled_packed(a: dict, b: dict, s: int) -> dict:
    """a + s*b on packed term dicts."""
    if s == 0:
        return dict(a)
    out = dict(a)
    get = out.get
    for k, c in b.items():
        prev = get(k)
        if prev is None:
            out[k] = s * c
        else:
            v = prev + s * c
            if v:
                out[k] = v
            else:
                del out[k]
    return out
