"""Command-line surface: every operation as a subcommand, plus verify.

Each leaf subcommand has one handler and declares only the flags it
reads.  A handler hands a JSON payload and human lines to _show, the one
emitter: the human lines by default, the payload under --format json.
Exit codes: 0 success, 1 domain error, 2 verification failure (argparse
uses 2 for usage errors as well).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify
from .equiv import canonical_form, minimal_representative
from .errors import DomainError, NotCoprimeCase
from .glue import unglue
from .invset import (
    cogenerators_m,
    core_partition,
    decompose,
    dinv_invset,
    gap,
    generators_n,
    invset_from_generators,
    map_G,
    skeleton,
)
from .lattice import GridParams, area, bizley_count, enumerate_paths, parse_path, step_ranks
from .series import C_series, F_series, fuss_catalan, qt_catalan, springer_poincare
from .sweep import dinv_armleg, dinv_sweep, zeta


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _params(args) -> GridParams:
    """The grid of --n, --m, --d, checked by GridParams."""
    return GridParams(args.n, args.m, args.d)


def _parse(args):
    params = _params(args)
    return params, parse_path(args.path, params)


def _grid(required=True):
    """The flags --n and --m, required unless they default to 1, and --d."""
    return [("--n", dict(type=int, required=required, default=1, help="coprime height unit")),
            ("--m", dict(type=int, required=required, default=1, help="coprime width unit")),
            ("--d", dict(type=int, default=1, help="gcd multiplicity (default 1)"))]


def _command(sub, name, func, help, *flags, with_format=True):
    """The subcommand name that runs func: each (flag, add_argument
    options) pair of flags in order, then --format if with_format."""
    p = sub.add_parser(name, help=help)
    for flag, options in flags:
        p.add_argument(flag, **options)
    if with_format:
        p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=func)


def _show(args, payload, lines) -> int:
    """Print a result: the payload as JSON under --format json, else the
    human lines.  The one place that reads --format."""
    if args.format == "json":
        print(_dump(payload))
    else:
        print("\n".join(lines))
    return 0


def cmd_paths_enumerate(args) -> int:
    paths = enumerate_paths(_params(args))
    if args.count_only:  # the bare count, which is also its JSON
        return _show(args, len(paths), [str(len(paths))])
    return _show(args, [p.to_jsonable() for p in paths], [p.steps for p in paths])


def cmd_sweep_zeta(args) -> int:
    image = zeta(*_parse(args))
    return _show(args, image.to_jsonable(), [image.steps])


def cmd_stats(args) -> int:
    params, path = _parse(args)
    stats = {
        "area": area(params, path),
        "dinv": dinv_sweep(params, path),
        "dinv_armleg": dinv_armleg(params, path),
        "step_ranks": step_ranks(params, path),
    }
    return _show(args, stats, [
        f"area        {stats['area']}",
        f"dinv        {stats['dinv']}",
        f"dinv'       {stats['dinv_armleg']}",
        f"step ranks  {' '.join(map(str, stats['step_ranks']))}",
    ])


def cmd_invset_info(args) -> int:
    params = _params(args)
    gens = [int(x) for x in args.generators.split(",") if x.strip() != ""]
    delta = invset_from_generators(params, gens)
    sk = skeleton(delta)
    info = {
        "invset": delta.to_jsonable(),
        "generators": generators_n(delta),
        "cogenerators": cogenerators_m(delta),
        "skeleton": sk.to_jsonable(),
        "gap": gap(delta),
        "g_image": map_G(delta).steps,
        "dinv": dinv_invset(delta),
        "decomposition": [
            {"residue": c.residue, "shift": c.shift,
             "generators": sorted(c.part.gen)}
            for c in decompose(delta)],
    }
    lines = [
        f"generators    {info['generators']}",
        f"cogenerators  {info['cogenerators']}",
        f"skeleton      {list(sk.sorted_values)}",
        f"gap           {info['gap']}",
        f"dinv          {info['dinv']}",
        f"G image       {info['g_image']}",
        *(f"residue {c['residue']}  shift {c['shift']}  generators {c['generators']}"
          for c in info["decomposition"]),
    ]
    if delta.normalized:
        info["core"] = core_partition(delta).to_jsonable()
        lines.append(f"core          {info['core']}")
    return _show(args, info, lines)


def cmd_classify(args) -> int:
    graph = unglue(_parse(args)[1])[0]
    rep = minimal_representative(graph)
    out = {
        "graph": graph.to_jsonable(),
        "canonical": canonical_form(graph).decode("ascii"),
        "minimal_representative": rep.to_jsonable(),
        "min_gap": gap(rep),
    }
    return _show(args, out, [
        f"graph      {_dump(out['graph'])}",
        f"canonical  {out['canonical']}",
        f"min rep    {sorted(rep.gen)}",
        f"min gap    {out['min_gap']}",
    ])


def cmd_color(args) -> int:
    out = unglue(_parse(args)[1])[1].to_jsonable()  # derives the components once
    return _show(args, out, [
        f"steps   {out['steps']}",
        f"colors  {''.join(map(str, out['colors']))}",
        *(f"color {c['color']}  {c['steps']}" for c in out["components"]),
    ])


def cmd_poly(args) -> int:
    params = _params(args)
    if args.kind == "catalan":
        poly = qt_catalan(params)
    elif params.d != 1:
        raise NotCoprimeCase(f"the Springer polynomial needs --d 1, got {params.d}")
    else:
        poly = springer_poincare(params.n, params.m)
    return _show(args, poly.to_jsonable(), [repr(poly)])


def _show_series(args, series_through) -> int:
    """Check --cutoff, then show series_through(cutoff)."""
    if args.cutoff < 0:
        raise ValueError(f"--cutoff must be at least 0, got {args.cutoff}")
    series = series_through(args.cutoff)
    return _show(args, series.to_jsonable(),
                 [f"exact through q^{series.q_cutoff}: {series.poly!r}"])


def cmd_series_C(args) -> int:
    return _show_series(args, lambda c: C_series(_params(args), c))


def cmd_series_F(args) -> int:
    return _show_series(args, lambda c: F_series(args.size, c, restricted=args.restricted))


def cmd_count_bizley(args) -> int:
    params = _params(args)
    print(bizley_count(params.n, params.m, params.d))
    return 0


def cmd_count_fuss(args) -> int:
    print(fuss_catalan(args.N, args.k))
    return 0


def cmd_verify(args) -> int:
    ok, lines = verify.run_suite(args.suite, args.max_size)
    for line in lines:
        print(line)
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ratcat",
        description="rational-slope Dyck paths, sweep maps, invariant "
                    "subsets, gluing, and q,t series")
    sub = top.add_subparsers(dest="command", required=True)
    path = ("--path", dict(required=True))
    cutoff = ("--cutoff", dict(type=int, required=True))

    paths = sub.add_parser("paths", help="path enumeration")
    paths_sub = paths.add_subparsers(dest="subcommand", required=True)
    _command(paths_sub, "enumerate", cmd_paths_enumerate, "list all Dyck paths",
             *_grid(), ("--count-only", dict(action="store_true")))

    sweep = sub.add_parser("sweep", help="the sweep map")
    sweep_sub = sweep.add_subparsers(dest="subcommand", required=True)
    _command(sweep_sub, "zeta", cmd_sweep_zeta, "apply the sweep map to a path",
             *_grid(), path)
    _command(sub, "stats", cmd_stats, "area, dinv, dinv', step ranks", *_grid(), path)

    invset = sub.add_parser("invset", help="invariant subsets")
    invset_sub = invset.add_subparsers(dest="subcommand", required=True)
    _command(invset_sub, "info", cmd_invset_info,
             "skeleton, gap, G image, decomposition, core", *_grid(),
             ("--generators", dict(required=True, help="comma-separated integers generating "
                                   "the subset, attached if negative: --generators=-5,0")))

    _command(sub, "classify", cmd_classify,
             "gluing digraph and minimal representative of a path", *_grid(), path)
    _command(sub, "color", cmd_color, "step coloring of a path", *_grid(), path)
    _command(sub, "poly", cmd_poly, "q,t polynomials",
             ("kind", dict(choices=("catalan", "springer"))), *_grid())

    series = sub.add_parser("series", help="gap-truncated q,t series")
    series_sub = series.add_subparsers(dest="kind", required=True)
    _command(series_sub, "C", cmd_series_C, "the C series of a grid",
             *_grid(required=False), cutoff)
    _command(series_sub, "F", cmd_series_F, "the F series of tuples",
             ("--size", dict(type=int, default=2, help="tuple length (default 2)")), cutoff,
             ("--restricted", dict(action="store_true", help="fix the last tuple entry to 0")))

    count = sub.add_parser("count", help="path and region counts")
    count_sub = count.add_subparsers(dest="kind", required=True)
    _command(count_sub, "bizley", cmd_count_bizley, "Dyck paths of a grid",
             *_grid(required=False), with_format=False)
    _command(count_sub, "fuss", cmd_count_fuss, "the Fuss-Catalan number c_N(k)",
             ("--N", dict(type=int, default=1)), ("--k", dict(type=int, default=1)),
             with_format=False)

    _command(sub, "verify", cmd_verify, "run a verification suite",
             ("--suite", dict(required=True, choices=sorted([*verify.SUITES, "all"]))),
             ("--max-size", dict(type=int, default=None)), with_format=False)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # the reader left: end quietly, and flush into devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
