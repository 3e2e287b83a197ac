"""Command line front end.

Subcommands run the analysis pipelines on a map given either as a built-in
name or in the grammar of :func:`blowcube.maps.parse_map`, and emit
deterministic JSON, CSV or DOT artifacts.  Configuration comes from the
``BLOWCUBE_*`` environment variables first, then per-invocation flags.

Exit codes: 0 success (for the ``check-*`` verdicts: property holds),
1 verdict failure, 2 usage error (printed under the subcommand's usage,
including a flag below its bound), and the structured codes from
:mod:`blowcube.errors` (3 parse, including a malformed ``BLOWCUBE_*``
value, 4 map, 5 resolution, 6 complex, 8 input/output).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .config import BOUNDS, RunConfig, below_bound, from_environment
from .cubes import (check_gromov, complex_from_dict, complex_to_dot,
                    complex_to_json)
from .dynamics import (ball, check_degree_bound, classify, marked_vertex, mu,
                       nu1)
from .errors import BlowcubeError, OutputError, ParseError
from .maps import (builtin, builtin_names, degree_sequence, identity, inverse,
                   resolve_map_argument)
from .resolve import base_points


def _emit(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _config(args) -> RunConfig:
    """The subcommand's base configuration, then ``BLOWCUBE_*``, then flags.
    The flags' bounds were checked by argparse, the variables' by
    ``from_environment``."""
    flags = {name: getattr(args, name, None) for name in BOUNDS}
    return from_environment(args.base).with_overrides(**flags)


def _map_argument(args):
    if args.map is None:
        args.parser.error("a map is required (built-in name or spec string)")
    return resolve_map_argument(args.map)


def _check_format(args, allowed: tuple[str, ...]) -> str:
    fmt = args.format or allowed[0]
    if fmt not in allowed:
        args.parser.error(f"format {fmt!r} not supported here (choose from: "
                          + ", ".join(allowed) + ")")
    return fmt


def _report(compute):
    """A subcommand writing the JSON report ``compute(map, cfg=cfg)``."""
    def command(args) -> int:
        cfg = _config(args)
        _check_format(args, ("json",))
        _emit(_json(compute(_map_argument(args), cfg=cfg).to_dict()), args.output)
        return 0
    return command


def _cmd_classify(args) -> int:
    if not args.all_builtins:
        return _report(classify)(args)
    if args.map is not None:
        args.parser.error(f"--all-builtins takes no map argument (got {args.map!r})")
    cfg = _config(args)
    _check_format(args, ("json",))
    out = {name: classify(builtin(name), cfg=cfg).to_dict()
           for name in builtin_names() if builtin(name).dim == 2}
    _emit(_json(out), args.output)
    return 0


def _cmd_degseq(args) -> int:
    cfg = _config(args)
    fmt = _check_format(args, ("csv", "json"))
    f = _map_argument(args)
    degs = degree_sequence(f, cfg.iters, cfg)
    if fmt == "json":
        _emit(_json({"map": f.name or str(f), "degrees": degs}), args.output)
    else:
        lines = ["n,deg"] + [f"{k},{d}" for k, d in enumerate(degs, start=1)]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_ball(args) -> int:
    cfg = _config(args)
    fmt = _check_format(args, ("json", "dot"))
    f = _map_argument(args)
    universe = (base_points(f, cfg).all_points()
                | base_points(inverse(f), cfg).all_points())
    result = ball(marked_vertex(identity(2)), cfg.radius,
                  universe=universe, markings=[f], cfg=cfg)
    if fmt == "dot":
        _emit(complex_to_dot(result.complex), args.output)
    else:
        _emit(complex_to_json(result.complex) + "\n", args.output)
    return 0


def _cmd_check_cat0(args) -> int:
    _config(args)  # reads no setting, but refuses bad ones alike
    _check_format(args, ("json",))
    try:
        with open(args.file, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise OutputError(f"cannot read {args.file}: {exc}") from exc
    try:
        data = json.loads(raw)
    except ValueError as exc:  # not JSON, or not text: UnicodeDecodeError
        raise ParseError(f"{args.file} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{args.file} nests its JSON too deeply to read") from None
    C = complex_from_dict(data)
    rep = check_gromov(C)
    _emit(_json(rep.to_dict()), args.output)
    return 0 if rep.flag else 1


def _cmd_check_bound(args) -> int:
    cfg = _config(args)
    _check_format(args, ("json",))
    rep = check_degree_bound(_map_argument(args), cfg=cfg)
    _emit(_json(rep.to_dict()), args.output)
    return 0 if rep.holds else 1


def _setting(name: str):
    """The argparse type of the flag of a setting: an int not below the
    setting's bound."""
    def checked(text: str) -> int:
        value = int(text)
        if why := below_bound(name, value):
            raise argparse.ArgumentTypeError(why)
        return value
    checked.__name__ = "int"  # a non-integer reads "invalid int value"
    return checked


def _add_common(sub: argparse.ArgumentParser, func,
                base: Optional[RunConfig] = None) -> None:
    """The flags every subcommand takes; ``func`` runs it, from the settings
    of ``base`` (the defaults when None)."""
    sub.add_argument("-n", "--iters", type=_setting("iters"), default=None,
                     help="iterate horizon N")
    sub.add_argument("--degree-cap", type=_setting("degree_cap"), default=None,
                     help="refuse composites above this degree")
    sub.add_argument("--height-cap", type=_setting("height_cap"), default=None,
                     help="refuse towers of infinitely-near points above this")
    sub.add_argument("--format", choices=("json", "dot", "csv"), default=None,
                     help="output format (subcommands accept a subset)")
    sub.add_argument("-o", "--output", default=None,
                     help="write the artifact here instead of stdout")
    sub.set_defaults(func=func, parser=sub, base=base)


def _add_map(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("map", nargs="?",
                     help="built-in name or map spec (P2:/ A2:/ MON: grammar)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowcube",
        description="Exact invariants and cube-complex actions of plane "
                    "Cremona maps.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="full invariant report (JSON)")
    _add_map(p)
    p.add_argument("--all-builtins", action="store_true",
                   help="classify every bundled plane map")
    _add_common(p, _cmd_classify)

    p = subs.add_parser("mu", help="base-point growth rate (JSON)")
    _add_map(p)
    _add_common(p, _report(mu))

    p = subs.add_parser("nu", help="contracted-curve growth rates (JSON)")
    _add_map(p)
    _add_common(p, _report(nu1))

    p = subs.add_parser("base-points",
                        help="tower of base points with multiplicities (JSON)")
    _add_map(p)
    _add_common(p, _report(base_points))

    p = subs.add_parser("degseq", help="degrees of the iterates (CSV)")
    _add_map(p)
    _add_common(p, _cmd_degseq)

    p = subs.add_parser("ball",
                        help="ball of marked vertices around the identity "
                             "(JSON or DOT)")
    _add_map(p)
    p.add_argument("--radius", type=_setting("radius"), default=None,
                   help="points blown up per marking")
    _add_common(p, _cmd_ball)

    p = subs.add_parser("check-cat0",
                        help="validate a complex file and check the flag "
                             "condition (exit 0 pass, 1 fail)")
    p.add_argument("file", help="complex JSON produced by this tool")
    _add_common(p, _cmd_check_cat0)

    p = subs.add_parser("check-bound",
                        help="degree lower bound from contracted curves "
                             "(exit 0 holds, 1 violated)")
    _add_map(p)
    _add_common(p, _cmd_check_bound, base=RunConfig(iters=8))

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BlowcubeError as exc:
        print(f"blowcube: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
