"""Command-line surface: every operation as a subcommand, plus verify.

Output is a human-readable table by default; --format json emits the
documented serializations.  Exit codes: 0 success, 1 domain error, 2
verification failure (argparse uses 2 for usage errors as well).
"""

from __future__ import annotations

import argparse
import json
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
    """The grid of --n, --m, --d; the one place where --d is checked."""
    if args.d < 1:
        raise ValueError(f"--d must be at least 1, got {args.d}")
    return GridParams(args.n, args.m, args.d)


def _parse(args):
    params = _params(args)
    return params, parse_path(args.path, params)


def _add_grid_flags(p, required=True):
    """--n and --m, required unless they default to 1, and --d."""
    p.add_argument("--n", type=int, required=required, default=1, help="coprime height unit")
    p.add_argument("--m", type=int, required=required, default=1, help="coprime width unit")
    p.add_argument("--d", type=int, default=1, help="gcd multiplicity (default 1)")


def _add_format_flag(p):
    p.add_argument("--format", choices=("human", "json"), default="human")


def cmd_paths_enumerate(args) -> int:
    params = _params(args)
    paths = enumerate_paths(params)
    if args.count_only:
        print(len(paths))
        return 0
    if args.format == "json":
        print(_dump([p.to_jsonable() for p in paths]))
    else:
        for p in paths:
            print(p.steps)
    return 0


def cmd_sweep_zeta(args) -> int:
    params, path = _parse(args)
    image = zeta(params, path)
    if args.format == "json":
        print(_dump(image.to_jsonable()))
    else:
        print(image.steps)
    return 0


def cmd_stats(args) -> int:
    params, path = _parse(args)
    stats = {
        "area": area(params, path),
        "dinv": dinv_sweep(params, path),
        "dinv_armleg": dinv_armleg(params, path),
        "step_ranks": step_ranks(params, path),
    }
    if args.format == "json":
        print(_dump(stats))
    else:
        print(f"area        {stats['area']}")
        print(f"dinv        {stats['dinv']}")
        print(f"dinv'       {stats['dinv_armleg']}")
        print(f"step ranks  {' '.join(map(str, stats['step_ranks']))}")
    return 0


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
    if delta.normalized:
        info["core"] = core_partition(delta).to_jsonable()
    if args.format == "json":
        print(_dump(info))
    else:
        print(f"generators    {info['generators']}")
        print(f"cogenerators  {info['cogenerators']}")
        print(f"skeleton      {list(sk.values())}")
        print(f"gap           {info['gap']}")
        print(f"dinv          {info['dinv']}")
        print(f"G image       {info['g_image']}")
        for c in info["decomposition"]:
            print(f"residue {c['residue']}  shift {c['shift']}  "
                  f"generators {c['generators']}")
        if "core" in info:
            print(f"core          {info['core']}")
    return 0


def cmd_classify(args) -> int:
    params, path = _parse(args)
    graph = unglue(path)[0]
    rep = minimal_representative(graph)
    out = {
        "graph": graph.to_jsonable(),
        "canonical": canonical_form(graph).decode("ascii"),
        "minimal_representative": rep.to_jsonable(),
        "min_gap": gap(rep),
    }
    if args.format == "json":
        print(_dump(out))
    else:
        print(f"graph      {_dump(out['graph'])}")
        print(f"canonical  {out['canonical']}")
        print(f"min rep    {sorted(rep.gen)}")
        print(f"min gap    {out['min_gap']}")
    return 0


def cmd_color(args) -> int:
    params, path = _parse(args)
    colored = unglue(path)[1]
    if args.format == "json":
        print(_dump(colored.to_jsonable()))
    else:
        print(f"steps   {path.steps}")
        print(f"colors  {''.join(str(c) for c in colored.colors)}")
        for i, comp in enumerate(colored.components):
            print(f"color {i}  {comp.steps}")
    return 0


def cmd_poly(args) -> int:
    params = _params(args)
    if args.kind == "catalan":
        poly = qt_catalan(params)
    elif params.d != 1:
        raise NotCoprimeCase(f"the Springer polynomial needs --d 1, got {params.d}")
    else:
        poly = springer_poincare(params.n, params.m)
    if args.format == "json":
        print(_dump(poly.to_jsonable()))
    else:
        print(repr(poly))
    return 0


def cmd_series(args) -> int:
    if args.cutoff < 0:
        raise ValueError(f"--cutoff must be at least 0, got {args.cutoff}")
    if args.kind == "C":
        if args.restricted:
            raise ValueError("--restricted applies to the F series only")
        series = C_series(_params(args), args.cutoff)
    else:
        series = F_series(args.size, args.cutoff, restricted=args.restricted)
    if args.format == "json":
        print(_dump(series.to_jsonable()))
    else:
        print(f"exact through q^{series.q_cutoff}: {series.poly!r}")
    return 0


def cmd_count(args) -> int:
    if args.kind == "bizley":
        params = _params(args)
        print(bizley_count(params.n, params.m, params.d))
    else:
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

    paths = sub.add_parser("paths", help="path enumeration")
    paths_sub = paths.add_subparsers(dest="subcommand", required=True)
    pe = paths_sub.add_parser("enumerate", help="list all Dyck paths")
    _add_grid_flags(pe)
    pe.add_argument("--count-only", action="store_true")
    _add_format_flag(pe)
    pe.set_defaults(func=cmd_paths_enumerate)

    sweep = sub.add_parser("sweep", help="the sweep map")
    sweep_sub = sweep.add_subparsers(dest="subcommand", required=True)
    sz = sweep_sub.add_parser("zeta", help="apply the sweep map to a path")
    _add_grid_flags(sz)
    sz.add_argument("--path", required=True)
    _add_format_flag(sz)
    sz.set_defaults(func=cmd_sweep_zeta)

    stats = sub.add_parser("stats", help="area, dinv, dinv', step ranks")
    _add_grid_flags(stats)
    stats.add_argument("--path", required=True)
    _add_format_flag(stats)
    stats.set_defaults(func=cmd_stats)

    invset = sub.add_parser("invset", help="invariant subsets")
    invset_sub = invset.add_subparsers(dest="subcommand", required=True)
    ii = invset_sub.add_parser("info", help="skeleton, gap, G image, decomposition, core")
    _add_grid_flags(ii)
    ii.add_argument("--generators", required=True,
                    help="comma-separated integers generating the subset")
    _add_format_flag(ii)
    ii.set_defaults(func=cmd_invset_info)

    classify = sub.add_parser("classify",
                              help="gluing digraph and minimal representative of a path")
    _add_grid_flags(classify)
    classify.add_argument("--path", required=True)
    _add_format_flag(classify)
    classify.set_defaults(func=cmd_classify)

    color = sub.add_parser("color", help="step coloring of a path")
    _add_grid_flags(color)
    color.add_argument("--path", required=True)
    _add_format_flag(color)
    color.set_defaults(func=cmd_color)

    poly = sub.add_parser("poly", help="q,t polynomials")
    poly.add_argument("kind", choices=("catalan", "springer"))
    _add_grid_flags(poly)
    _add_format_flag(poly)
    poly.set_defaults(func=cmd_poly)

    series = sub.add_parser("series", help="gap-truncated q,t series")
    series_sub = series.add_subparsers(dest="kind", required=True)
    sc = series_sub.add_parser("C", help="the C series of a grid")
    _add_grid_flags(sc, required=False)
    sf = series_sub.add_parser("F", help="the F series of tuples")
    sf.add_argument("--size", type=int, default=2, help="tuple length (default 2)")
    for p in (sc, sf):
        p.add_argument("--cutoff", type=int, required=True)
        p.add_argument("--restricted", action="store_true",
                       help="fix the last tuple entry to 0 (F series only)")
        _add_format_flag(p)
        p.set_defaults(func=cmd_series)

    count = sub.add_parser("count", help="path and region counts")
    count_sub = count.add_subparsers(dest="kind", required=True)
    cb = count_sub.add_parser("bizley", help="Dyck paths of a grid")
    _add_grid_flags(cb, required=False)
    cb.set_defaults(func=cmd_count)
    cf = count_sub.add_parser("fuss", help="the Fuss-Catalan number c_N(k)")
    cf.add_argument("--N", type=int, default=1)
    cf.add_argument("--k", type=int, default=1)
    cf.set_defaults(func=cmd_count)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True,
                     choices=sorted([*verify.SUITES, "all"]))
    ver.add_argument("--max-size", type=int, default=None)
    ver.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
