"""Command-line front end: ext, check, slicings, resolve, selftest.

Exit codes: 0 success, 1 check failure, 2 parse error, 3 semantic
error, 4 the ambient dimension cap (modules.AMBIENT_CAP) exceeded.  All
output is deterministic: no timings or paths are written to stdout, and
suite results are emitted in definition order regardless of the worker
pool width.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import young
from .cache import ENV_CACHE_DIR, default_cache_dir
from .errors import (AdmissibilityError, BudgetExceededError, DegreeMismatchError,
                     ParseError, SemanticError, UnsupportedExpressionError)
from .functors import as_node, canon, check_field, degree
from .homology import default_depth, end_dimension, ext, resolve_expression
from .suites import SUITE_NAMES, run_suite

LARGE_DEGREE_LIMIT = 6

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_BUDGET = 4


# every shared flag, by name; each subcommand takes only the ones it reads
_FLAGS = {
    "p": dict(type=int, default=None, help="prime characteristic (default 2)"),
    "i": dict(type=int, default=None, help="Frobenius twist order (default 1)"),
    "d": dict(type=int, default=None, help="untwisted degree (validated when given)"),
    "depth": dict(type=int, default=None, help="resolution depth override"),
    "cache-dir": dict(default=None, help=f"resolution cache directory (env "
                                         f"{ENV_CACHE_DIR} overrides)"),
    "jobs": dict(type=int, default=1, help="worker threads for the cases of a suite"),
    "allow-large": dict(action="store_true",
                        help=f"lift the degree <= {LARGE_DEGREE_LIMIT} guard"),
}
_RESOLVING = ("p", "i", "d", "depth", "cache-dir", "allow-large")


def _add_flags(parser: argparse.ArgumentParser, names: tuple[str, ...],
               formats: tuple[str, ...] = ("json", "csv", "text")) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **_FLAGS[name])
    if formats:
        parser.add_argument("--format", choices=formats, default="text")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, and building it costs more than a parse."""
    parser = argparse.ArgumentParser(prog="spfext")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ext = sub.add_parser("ext", help="graded Ext dimensions between two "
                                       "functor expressions")
    _add_flags(p_ext, _RESOLVING)
    p_ext.add_argument("--src", required=True)
    p_ext.add_argument("--tgt", required=True)
    p_ext.set_defaults(func=cmd_ext)

    p_check = sub.add_parser("check", help="run a named verification suite")
    _add_flags(p_check, ("p", "i", "jobs", "cache-dir"))
    p_check.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_check.set_defaults(func=cmd_check)

    p_slice = sub.add_parser("slicings", help="rim p-hook slicings of a diagram")
    _add_flags(p_slice, ("p", "i"))
    p_slice.add_argument("--shape", required=True,
                         help="comma-separated parts, e.g. 3,1")
    p_slice.set_defaults(func=cmd_slicings)

    p_res = sub.add_parser("resolve", help="projective resolution of an "
                                           "expression")
    _add_flags(p_res, _RESOLVING, formats=("json", "text"))
    p_res.add_argument("--expr", required=True)
    p_res.add_argument("--sweep", choices=("dominance", "reversed"),
                       default="dominance")
    p_res.set_defaults(func=cmd_resolve)

    p_self = sub.add_parser("selftest", help="fast internal consistency checks")
    _add_flags(p_self, (), formats=())
    p_self.set_defaults(func=cmd_selftest)
    return parser


def _resolved(args) -> tuple[int, int]:
    p = 2 if args.p is None else args.p
    i = 1 if args.i is None else args.i
    check_field(p, i)
    return p, i


def _validate_degree(args, p: int, i: int, D: int) -> None:
    if not args.allow_large and D > LARGE_DEGREE_LIMIT:
        raise SemanticError(
            f"degree {D} exceeds {LARGE_DEGREE_LIMIT}; pass --allow-large "
            f"to proceed")
    if args.d is not None and args.d * p ** i != D:
        raise SemanticError(
            f"--d {args.d} is inconsistent: p^i * d = {args.d * p ** i} "
            f"but the expressions have degree {D}")


def cmd_ext(args) -> int:
    p, i = _resolved(args)
    src = as_node(args.src)
    tgt = as_node(args.tgt)
    D = degree(src, p)
    _validate_degree(args, p, i, D)
    table = ext(src, tgt, p, i=i, depth=args.depth,
                cache_dir=default_cache_dir(args.cache_dir))
    payload = table.payload()
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        print("s,dim")
        for s, dim in enumerate(table.dims):
            print(f"{s},{dim}")
    else:
        print(f"Ext^s({table.source}, {table.target}) over F_{table.p}, "
              f"i={table.i}, depth={table.depth}")
        for s, dim in enumerate(table.dims):
            print(f"  s={s}: {dim}")
    return EXIT_OK


def cmd_check(args) -> int:
    if args.p is not None or args.i is not None:
        _resolved(args)
    results = run_suite(args.suite, p=args.p, i=args.i, jobs=args.jobs,
                        cache_dir=default_cache_dir(args.cache_dir))
    if not results:
        raise SemanticError(f"no cases selected for suite {args.suite!r} "
                            f"with the given filters")
    all_pass = all(r.passed for r in results)
    if args.format == "json":
        print(json.dumps({"suite": args.suite, "passed": all_pass,
                          "cases": [r.payload() for r in results]},
                         sort_keys=True))
    elif args.format == "csv":
        print("case,passed,expected,actual")
        for r in results:
            print(f"\"{r.name}\",{r.passed},\"{r.expected}\",\"{r.actual}\"")
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark} [{args.suite}] {r.name}")
            if not r.passed:
                print(f"     expected {r.expected}")
                print(f"     actual   {r.actual}")
        print(f"{'OK' if all_pass else 'FAILED'}: {sum(r.passed for r in results)}"
              f"/{len(results)} cases passed")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_slicings(args) -> int:
    p, _ = _resolved(args)
    shape = young.parse_partition(args.shape)
    if sum(shape) % p != 0:
        raise SemanticError(f"{p} does not divide the weight of {shape}")
    slicings = young.enumerate_slicings(shape, p)
    poly = young.poincare_polynomial(shape, p)
    if args.format == "json":
        print(json.dumps({
            "shape": list(shape), "p": p,
            "slicings": [{"degree": s.degree,
                          "hooks": [[list(c) for c in h.cells] for h in s.hooks]}
                         for s in slicings],
            "polynomial": poly,
        }, sort_keys=True))
    elif args.format == "csv":
        print("slicing,degree,cells")
        for k, s in enumerate(slicings):
            cells = ";".join("|".join(f"{r}.{c}" for r, c in h.cells)
                             for h in s.hooks)
            print(f"{k},{s.degree},\"{cells}\"")
    else:
        print(f"slicings of {young.format_partition(shape)} by rim "
              f"{p}-hooks: {len(slicings)}")
        for k, s in enumerate(slicings):
            hooks = "  ".join("".join(f"({r},{c})" for r, c in h.cells)
                              for h in s.hooks)
            print(f"  #{k} degree {s.degree}: {hooks}")
        coeffs = " + ".join(f"{c}*t^{s}" for s, c in enumerate(poly) if c)
        print(f"polynomial: {coeffs if coeffs else '0'}")
    return EXIT_OK


def cmd_resolve(args) -> int:
    p, i = _resolved(args)
    node = as_node(args.expr)
    D = degree(node, p)
    _validate_degree(args, p, i, D)
    depth = default_depth(p, i, D)[0] if args.depth is None else args.depth
    res = resolve_expression(node, p, depth, sweep=args.sweep,
                             cache_dir=default_cache_dir(args.cache_dir))
    # the user's spelling: a shared resolution may carry another one
    source = canon(node)
    terms = [[young.format_partition(lam) for lam in stage]
             for stage in res.term_partitions()]
    if args.format == "json":
        print(json.dumps({"source": source, "p": res.p, "depth": res.depth,
                          "terms": terms}, sort_keys=True))
    else:
        print(f"resolution of {source} over F_{res.p}, depth {res.depth}")
        for s, stage in enumerate(terms):
            body = " + ".join(f"G({t})" for t in stage) if stage else "0"
            print(f"  P_{s} = {body}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    import numpy as np

    from .tensorspace import gamma_index, get_space
    checks: list[tuple[str, bool]] = []
    checks.append(("dim End(I*I) = 2 at p=2", end_dimension("I*I", 2) == 2))
    sp = get_space(2, 2, 2)
    total = None
    for comp in ((2, 0), (1, 1), (0, 2)):
        # the idempotent is the word of the generator: block a holds only a's
        t = gamma_index(comp, 2, np.repeat(np.arange(2), comp)[None])[0]
        mat = sp.matrix(("words", comp, "all")).take_cols(np.arange(sp.dim) + t * sp.dim)
        total = mat if total is None else total + mat
    checks.append(("weight idempotents sum to identity",
                   bool((total.toarray() % 2 == np.eye(4, dtype=np.int64)).all())))
    table = ext("twist(I,1)", "G(2)", 2, i=1)
    checks.append(("Ext(I^(1), G(2)) = [0,0,1]", table.dims == [0, 0, 1]))
    checks.append(("slicings of (2,2) at p=2",
                   len(young.enumerate_slicings((2, 2), 2)) == 2))
    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DegreeMismatchError, AdmissibilityError, UnsupportedExpressionError,
            SemanticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    raise SystemExit(main())
