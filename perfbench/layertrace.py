"""Outside-in tracing of the blowcube layers.

Nothing under ``src/`` knows about this module.  ``install`` replaces every
public function of each layer module, and the public methods, constructors
and arithmetic operators of the classes those modules define, by a wrapper
that records a span; the wrapper is rebound in every ``blowcube`` module
namespace that binds the original (``poly.mul_packed``, ``base_points`` as
imported into ``dynamics`` and ``cli``, ...).  Spans stay in memory; the
per-layer metrics are computed from them after the timed phase, and
``write_spans`` dumps them when the pass ends.

A span's self time is its duration minus the durations of its direct child
spans; a layer's self time is the sum over its spans.  Work done by sympy,
or by private helpers, counts toward the span that called it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# module -> layer.  The kernel layer is both the selector and the backend.
LAYERS = {
    "blowcube.kernel": "kernel",
    "blowcube._kernel_py": "kernel",
    "blowcube._speedups": "kernel",
    "blowcube.poly": "poly",
    "blowcube.maps": "maps",
    "blowcube.zeros": "zeros",
    "blowcube.resolve": "resolve",
    "blowcube.dynamics": "dynamics",
    "blowcube.cubes": "cubes",
    "blowcube.cli": "cli",
}
LAYER_ORDER = ("kernel", "poly", "maps", "zeros", "resolve", "dynamics",
               "cubes", "cli")

# Dunder methods that do real work and are therefore traced.
_TRACED_DUNDERS = frozenset({
    "__init__", "__call__", "__add__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__pow__", "__neg__", "__truediv__"})


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "attr", "child")

    def __init__(self, name, layer, parent, start):
        self.name = name
        self.layer = layer
        self.parent = parent      # index of the calling span, or -1
        self.start = start
        self.end = start
        self.attr = None          # per-call probe value (see _PROBES)
        self.child = 0.0          # summed duration of direct children


def _mul_terms(args, result):
    return len(args[0]) * len(args[1])


def _primitive_nontrivial(args, result):
    """1 when primitive_tuple divided out a non-constant common factor."""
    for before, after in zip(args[0], result):
        if not before.is_zero:
            return int(after.degree() < before.degree())
    return 0


def _iterate_key(args, result):
    return hash((args[0].key(), args[1]))


def _map_key(args, result):
    return hash(args[0].key())


# qualified name -> function(args, result) giving the span's attribute
_PROBES = {
    "mul_packed": _mul_terms,
    "primitive_tuple": _primitive_nontrivial,
    "iterate": _iterate_key,
    "base_points": _map_key,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, layer: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1, clock())
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
                if span.parent >= 0:
                    spans[span.parent].child += span.end - span.start
            if probe is not None:
                span.attr = probe(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced callable and rebind the wrappers."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "blowcube"
                                           or name.startswith("blowcube."))}
        replaced: dict[int, object] = {}
        for modname, layer in LAYERS.items():
            mod = modules.get(modname)
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                # isroutine, not isfunction: the compiled kernel's functions
                # are not Python functions
                if (inspect.isroutine(value)
                        and getattr(value, "__module__", None) == modname):
                    replaced[id(value)] = self.wrap(value, attr, layer)
                elif inspect.isclass(value) and value.__module__ == modname:
                    self._wrap_class(value, layer)
        # rebind in every namespace that holds one of the originals
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                w = replaced.get(id(value))
                if w is not None:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, w)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _TRACED_DUNDERS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name, layer))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                new = self.wrap(raw, name, layer)
            else:
                continue  # properties, constants
            self._installed.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write_spans(self, path: str, t0: float) -> None:
        """Write the layer-boundary spans, one JSON array per line:
        [id, parent id, layer, name, start, end], times in seconds from t0.

        A boundary span is one whose caller is in another layer (or is the
        benchmark); calls nested inside the same layer are folded into it.
        """
        spans = self.spans
        boundary = [0] * len(spans)
        with open(path, "w") as fh:
            for i, s in enumerate(spans):
                p = s.parent
                if p >= 0 and spans[p].layer == s.layer:
                    boundary[i] = boundary[p]
                    continue
                boundary[i] = i
                fh.write(json.dumps([i, boundary[p] if p >= 0 else -1,
                                     s.layer, s.name, round(s.start - t0, 7),
                                     round(s.end - t0, 7)]) + "\n")


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    self_by_layer = dict.fromkeys(LAYER_ORDER, 0.0)
    self_by_name: dict[tuple[str, str], float] = {}
    calls: dict[tuple[str, str], int] = {}
    zeros_entries = 0
    terms = 0
    nontrivial = 0
    seen: dict[str, set] = {"iterate": set(), "base_points": set()}
    repeats = {"iterate": 0, "base_points": 0}
    for s in spans:
        own = (s.end - s.start) - s.child
        self_by_layer[s.layer] += own
        key = (s.layer, s.name)
        self_by_name[key] = self_by_name.get(key, 0.0) + own
        calls[key] = calls.get(key, 0) + 1
        if s.layer == "zeros" and (s.parent < 0
                                   or spans[s.parent].layer != "zeros"):
            zeros_entries += 1
        if s.name == "mul_packed":
            terms += s.attr
        elif s.name == "primitive_tuple":
            nontrivial += s.attr
        elif s.name in seen:
            if s.attr in seen[s.name]:
                repeats[s.name] += 1
            seen[s.name].add(s.attr)

    def n(layer, *names):
        return sum(calls.get((layer, x), 0) for x in names)

    def t(layer, *names):
        return sum(self_by_name.get((layer, x), 0.0) for x in names)

    def share(part, whole):
        return part / whole if whole else 0.0

    return {
        "kernel.mul_calls": n("kernel", "mul_packed"),
        "kernel.terms_multiplied": terms,
        "kernel.self_s": self_by_layer["kernel"],
        "poly.gcd_calls": n("poly", "poly_gcd"),
        "poly.gcd_self_s": t("poly", "poly_gcd"),
        "poly.primitive_calls": n("poly", "primitive_tuple"),
        "poly.primitive_nontrivial_share": share(
            nontrivial, n("poly", "primitive_tuple")),
        "poly.exact_div_calls": n("poly", "poly_exact_div"),
        "poly.exact_div_self_s": t("poly", "poly_exact_div"),
        "poly.factor_calls": n("poly", "factor_q"),
        "poly.factor_self_s": t("poly", "factor_q"),
        "poly.resultant_calls": n("poly", "resultant"),
        "poly.resultant_self_s": t("poly", "resultant"),
        "poly.compose_self_s": t("poly", "Poly.compose", "compose_tuple"),
        "poly.self_s": self_by_layer["poly"],
        "maps.projmaps_built": n("maps", "ProjMap.__init__"),
        "maps.compose_calls": n("maps", "compose"),
        "maps.iterate_calls": n("maps", "iterate"),
        "maps.iterate_repeat_share": share(repeats["iterate"],
                                           n("maps", "iterate")),
        "maps.inverse_calls": n("maps", "inverse"),
        "maps.self_s": self_by_layer["maps"],
        "zeros.calls": zeros_entries,
        "zeros.self_s": self_by_layer["zeros"],
        "resolve.base_points_calls": n("resolve", "base_points"),
        "resolve.base_points_repeat_share": share(
            repeats["base_points"], n("resolve", "base_points")),
        "resolve.base_points_self_s": t("resolve", "base_points"),
        "resolve.curve_image_calls": n("resolve", "curve_image"),
        "resolve.curve_image_self_s": t("resolve", "curve_image"),
        "resolve.exc_components_calls": n("resolve", "exc_components"),
        "resolve.exc_components_self_s": t("resolve", "exc_components"),
        "resolve.transport_calls": n("resolve", "bubble_transport"),
        "resolve.self_s": self_by_layer["resolve"],
        "dynamics.mu_self_s": t("dynamics", "mu"),
        "dynamics.nu1_self_s": t("dynamics", "nu1"),
        "dynamics.exc_count_self_s": t("dynamics", "exc_count_sequence"),
        "dynamics.vertex_equiv_calls": n("dynamics", "vertex_equiv"),
        "dynamics.self_s": self_by_layer["dynamics"],
        "cubes.build_self_s": t("cubes", "build_complex", "complex_from_dict"),
        "cubes.gromov_self_s": t("cubes", "check_gromov"),
        "cubes.hyperplanes_calls": n("cubes", "hyperplanes"),
        "cubes.hyperplanes_self_s": t("cubes", "hyperplanes"),
        "cubes.distance_calls": n("cubes", "distance"),
        "cubes.distance_self_s": t("cubes", "distance"),
        "cubes.geodesics_self_s": t("cubes", "geodesics"),
        "cubes.self_s": self_by_layer["cubes"],
        "cli.self_s": self_by_layer["cli"],
        "trace.unattributed_s": wall_s - sum(self_by_layer.values()),
    }


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [*layer_metrics([], 0.0), "trace.overhead_s"]
    return [(n, "s" if n.endswith("_s") else
             "share" if n.endswith("_share") else "count") for n in names]
