"""Command line front end.

Subcommands run the analysis pipelines on a map given either as a built-in
name or in the grammar of :func:`blowcube.maps.parse_map`, and emit
deterministic JSON, CSV or DOT artifacts.  Configuration comes from the
``BLOWCUBE_*`` environment variables first, then per-invocation flags.

Exit codes: 0 success (for the ``check-*`` verdicts: property holds),
1 verdict failure, 2 usage error (argparse), and the structured codes from
:mod:`blowcube.errors` (3 parse, including a malformed ``BLOWCUBE_*``
value, 4 map, 5 resolution, 6 complex, 8 input/output).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .config import ENV_PREFIX, RunConfig, _env_int, from_environment
from .cubes import (check_gromov, complex_from_dict, complex_to_dict,
                    complex_to_dot)
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


# the least value of each setting: (RunConfig field, flag, bound)
_LOWER_BOUNDS = (("iters", "-n/--iters", 1), ("radius", "--radius", 0),
                 ("height_cap", "--height-cap", 0),
                 ("degree_cap", "--degree-cap", 1))


def _config(args, parser: argparse.ArgumentParser) -> RunConfig:
    """The run configuration.  A setting below its bound is refused: as a
    usage error when it comes from a flag, as a ParseError when it comes
    from a ``BLOWCUBE_*`` variable."""
    flags = {name: getattr(args, name, None) for name, _f, _b in _LOWER_BOUNDS}
    for name, flag, bound in _LOWER_BOUNDS:
        if flags[name] is not None and flags[name] < bound:
            parser.error(
                f"argument {flag}: must be at least {bound}, got {flags[name]}")
    env = from_environment()
    for name, _flag, bound in _LOWER_BOUNDS:
        value = getattr(env, name)
        if value < bound:
            raise ParseError(f"{ENV_PREFIX}{name.upper()} must be at least "
                             f"{bound}, got {value}")
    return env.with_overrides(**flags)


def _map_argument(args, parser: argparse.ArgumentParser):
    if args.map is None:
        parser.error("a map is required (built-in name or spec string)")
    return resolve_map_argument(args.map)


def _check_format(args, parser, allowed: tuple[str, ...]) -> str:
    fmt = args.format or allowed[0]
    if fmt not in allowed:
        parser.error(f"format {fmt!r} not supported here (choose from: "
                     + ", ".join(allowed) + ")")
    return fmt


def _cmd_classify(args, parser) -> int:
    cfg = _config(args, parser)
    _check_format(args, parser, ("json",))
    if args.all_builtins:
        out = {}
        for name in builtin_names():
            f = builtin(name)
            if f.dim != 2:
                continue
            out[name] = classify(f, args.iters, cfg).to_dict()
        _emit(_json(out), args.output)
        return 0
    f = _map_argument(args, parser)
    rep = classify(f, args.iters, cfg)
    _emit(_json(rep.to_dict()), args.output)
    return 0


def _cmd_mu(args, parser) -> int:
    cfg = _config(args, parser)
    _check_format(args, parser, ("json",))
    rep = mu(_map_argument(args, parser), args.iters, cfg)
    _emit(_json(rep.to_dict()), args.output)
    return 0


def _cmd_nu(args, parser) -> int:
    cfg = _config(args, parser)
    _check_format(args, parser, ("json",))
    rep = nu1(_map_argument(args, parser), args.iters, cfg)
    _emit(_json(rep.to_dict()), args.output)
    return 0


def _cmd_base_points(args, parser) -> int:
    cfg = _config(args, parser)
    _check_format(args, parser, ("json",))
    tree = base_points(_map_argument(args, parser), cfg)
    _emit(_json(tree.to_dict()), args.output)
    return 0


def _cmd_degseq(args, parser) -> int:
    cfg = _config(args, parser)
    fmt = _check_format(args, parser, ("csv", "json"))
    f = _map_argument(args, parser)
    n = args.iters if args.iters is not None else cfg.iters
    degs = degree_sequence(f, n, cfg)
    if fmt == "json":
        _emit(_json({"map": f.name or str(f), "degrees": degs}), args.output)
    else:
        lines = ["n,deg"] + [f"{k},{d}" for k, d in enumerate(degs, start=1)]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_ball(args, parser) -> int:
    cfg = _config(args, parser)
    fmt = _check_format(args, parser, ("json", "dot"))
    f = _map_argument(args, parser)
    inverse(f, cfg=cfg)
    universe = (base_points(f, cfg).all_points()
                | base_points(inverse(f, cfg=cfg), cfg).all_points())
    result = ball(marked_vertex(identity(2), cfg=cfg), cfg.radius,
                  universe=universe, markings=[f], cfg=cfg)
    if fmt == "dot":
        _emit(complex_to_dot(result.complex), args.output)
    else:
        _emit(_json(complex_to_dict(result.complex)), args.output)
    return 0


def _cmd_check_cat0(args, parser) -> int:
    _config(args, parser)  # reads no setting, but refuses bad ones alike
    _check_format(args, parser, ("json",))
    try:
        with open(args.file) as fh:
            raw = fh.read()
    except OSError as exc:
        raise OutputError(f"cannot read {args.file}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.file} is not valid JSON: {exc}") from exc
    C = complex_from_dict(data)
    rep = check_gromov(C)
    _emit(_json(rep.to_dict()), args.output)
    return 0 if rep.flag else 1


def _cmd_check_bound(args, parser) -> int:
    cfg = _config(args, parser)
    _check_format(args, parser, ("json",))
    f = _map_argument(args, parser)
    n = args.iters or _env_int("ITERS") or 8  # both are >= 1 when set
    rep = check_degree_bound(f, n, cfg)
    _emit(_json(rep.to_dict()), args.output)
    return 0 if rep.holds else 1


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-n", "--iters", type=int, default=None,
                     help="iterate horizon N")
    sub.add_argument("--degree-cap", type=int, default=None,
                     help="refuse composites above this degree")
    sub.add_argument("--height-cap", type=int, default=None,
                     help="refuse towers of infinitely-near points above this")
    sub.add_argument("--format", choices=("json", "dot", "csv"), default=None,
                     help="output format (subcommands accept a subset)")
    sub.add_argument("-o", "--output", default=None,
                     help="write the artifact here instead of stdout")


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
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("mu", help="base-point growth rate (JSON)")
    _add_map(p)
    _add_common(p)
    p.set_defaults(func=_cmd_mu)

    p = subs.add_parser("nu", help="contracted-curve growth rates (JSON)")
    _add_map(p)
    _add_common(p)
    p.set_defaults(func=_cmd_nu)

    p = subs.add_parser("base-points",
                        help="tower of base points with multiplicities (JSON)")
    _add_map(p)
    _add_common(p)
    p.set_defaults(func=_cmd_base_points)

    p = subs.add_parser("degseq", help="degrees of the iterates (CSV)")
    _add_map(p)
    _add_common(p)
    p.set_defaults(func=_cmd_degseq)

    p = subs.add_parser("ball",
                        help="ball of marked vertices around the identity "
                             "(JSON or DOT)")
    _add_map(p)
    p.add_argument("--radius", type=int, default=None,
                   help="points blown up per marking")
    _add_common(p)
    p.set_defaults(func=_cmd_ball)

    p = subs.add_parser("check-cat0",
                        help="validate a complex file and check the flag "
                             "condition (exit 0 pass, 1 fail)")
    p.add_argument("file", help="complex JSON produced by this tool")
    _add_common(p)
    p.set_defaults(func=_cmd_check_cat0)

    p = subs.add_parser("check-bound",
                        help="degree lower bound from contracted curves "
                             "(exit 0 holds, 1 violated)")
    _add_map(p)
    _add_common(p)
    p.set_defaults(func=_cmd_check_bound)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except BlowcubeError as exc:
        print(f"blowcube: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
