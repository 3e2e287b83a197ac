"""Run configuration shared by the library and the command line tool.

Defaults can be overridden per call, and by environment variables with the
``BLOWCUBE_`` prefix (the CLI reads those; library callers pass a RunConfig).
Every setting has a least value in ``BOUNDS``; a RunConfig, a ``BLOWCUBE_*``
variable and a command line flag below it are all refused by that one table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import ParseError

ENV_PREFIX = "BLOWCUBE_"

# Exponential-growth test: degree ratios must stay >= 1 + RATIO_MARGIN over
# the decision window.  Chosen once, documented, never tuned per map.
RATIO_MARGIN = Fraction(1, 10)

# the least value of each setting
BOUNDS = {"iters": 1, "radius": 0, "height_cap": 0, "degree_cap": 1}


def below_bound(name: str, value: int) -> str | None:
    """Why ``value`` is refused for the setting ``name``, or None."""
    bound = BOUNDS[name]
    return f"must be at least {bound}, got {value}" if value < bound else None


def check_horizon(n: int) -> int:
    """The iterate horizon n, refused with a ValueError below its bound."""
    if why := below_bound("iters", n):
        raise ValueError(f"the iterate horizon {why}")
    return n


@dataclass(frozen=True)
class RunConfig:
    iters: int = 5            # iterate horizon N for sequences
    degree_cap: int = 256     # refuse composites above this degree
    height_cap: int = 16      # refuse towers of infinitely-near points above this
    radius: int = 3           # ball radius (points blown up per marking)

    def __post_init__(self):
        for name in BOUNDS:
            if why := below_bound(name, getattr(self, name)):
                raise ValueError(f"{name} {why}")

    def with_overrides(self, **kw) -> "RunConfig":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


DEFAULTS = RunConfig()


def from_environment(base: RunConfig | None = None) -> RunConfig:
    """``base`` (the defaults when None) with any BLOWCUBE_* environment
    overrides applied; a malformed value, or one below its bound, raises
    ParseError."""
    values = {}
    for name in BOUNDS:
        var = ENV_PREFIX + name.upper()
        raw = os.environ.get(var)
        if raw is None or raw == "":
            continue
        try:
            value = int(raw)
        except ValueError:
            raise ParseError(f"{var} must be an integer, got {raw!r}") from None
        if why := below_bound(name, value):
            raise ParseError(f"{var} {why}")
        values[name] = value
    return (base or DEFAULTS).with_overrides(**values)
