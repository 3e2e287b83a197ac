"""Run configuration shared by the library and the command line tool.

Defaults can be overridden per call, and by environment variables with the
``BLOWCUBE_`` prefix (the CLI reads those; library callers pass a RunConfig).
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


@dataclass(frozen=True)
class RunConfig:
    iters: int = 5            # iterate horizon N for sequences
    degree_cap: int = 256     # refuse composites above this degree
    height_cap: int = 16      # refuse towers of infinitely-near points above this
    radius: int = 3           # ball radius (points blown up per marking)

    def with_overrides(self, **kw) -> "RunConfig":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


def _env_int(name: str) -> int | None:
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ParseError(
            f"{ENV_PREFIX}{name} must be an integer, got {raw!r}") from None


def from_environment() -> RunConfig:
    """RunConfig with any BLOWCUBE_* environment overrides applied."""
    return RunConfig().with_overrides(
        iters=_env_int("ITERS"),
        degree_cap=_env_int("DEGREE_CAP"),
        height_cap=_env_int("HEIGHT_CAP"),
        radius=_env_int("RADIUS"),
    )


DEFAULTS = RunConfig()
