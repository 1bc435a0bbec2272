"""Named verification suites run by the CLI and the acceptance tests.

Each suite is a deterministic list of cases; a case computes an actual
value, compares against its expected value, and reports PASS/FAIL.
Cases are independent, so the runner may fan them out over a thread
pool; results are always emitted in definition order.  The cases are
Python-bound, so the threads take turns under the interpreter lock; the
memos they share keep the first value stored per key, and one lock in
`homology.resolve_expression` builds each resolution once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import young
from .functors import NaturalMap, canonical_map
from .homology import duality_check, end_dimension, ext, hom_pairing_check, kr_cohomology


@dataclass
class CaseResult:
    suite: str
    name: str
    passed: bool
    expected: str
    actual: str

    def payload(self) -> dict:
        return {"suite": self.suite, "name": self.name, "passed": self.passed,
                "expected": self.expected, "actual": self.actual}


@dataclass
class Case:
    suite: str
    name: str
    p: int
    i: int
    run: callable = field(repr=False)


def _table_case(suite, name, p, i, src, tgt, expected, cache_dir=None):
    def run():
        table = ext(src, tgt, p, i=i, cache_dir=cache_dir)
        return table.dims == expected, str(expected), str(table.dims)
    return Case(suite, name, p, i, run)


def _pad(poly: list[int], length: int) -> list[int]:
    return poly + [0] * (length - len(poly))


def lemma22_cases(cache_dir=None) -> list[Case]:
    cases = []
    for p in (2, 3):
        window = 2 * (p - 1)
        for tgt, spot in ((f"S({p})", 0), (f"L({p})", p - 1), (f"G({p})", window)):
            expected = [1 if s == spot else 0 for s in range(window + 1)]
            cases.append(_table_case(
                "lemma22", f"p={p} Ext(I^(1), {tgt})", p, 1,
                "twist(I,1)", tgt, expected, cache_dir=cache_dir))
    # parameterized Hom/Ext for u = 2, v = 1 at p = 2, d = 1
    cases.append(_table_case(
        "lemma22", "p=2 parameterized Hom vs S^2_U", 2, 1,
        "twist(I,1)", "param(S(2),2)", [2, 0, 0], cache_dir=cache_dir))
    cases.append(_table_case(
        "lemma22", "p=2 parameterized Ext vs G^2_U", 2, 1,
        "twist(I,1)", "param(G(2),2)", [0, 0, 2], cache_dir=cache_dir))

    # Kunneth squeeze at p = 2, d = 2
    def kr_case(tgt):
        def run():
            table = kr_cohomology(tgt, 1, 2, 1, cache_dir=cache_dir)
            expected = [0, 0, 0, 0, 1]
            return table.dims == expected, str(expected), str(table.dims)
        return Case("lemma22", f"p=2 KR cohomology of {tgt}", 2, 1, run)

    cases.append(kr_case("G(2)*G(2)"))
    cases.append(kr_case("G(4)"))
    return cases


def koszul_maps(kind: str, p: int, q: int, m: int) -> list[NaturalMap]:
    """The differentials of the degree-q Koszul complex G^q -> ... -> L^q
    (kind gamma-lambda) or L^q -> ... -> S^q (kind lambda-sym), over
    m parameter copies, in order."""
    mk = "koszul_diff" if kind == "gamma-lambda" else "dual_koszul_diff"
    return [canonical_map(mk, p, a=j, b=q - j, m=m, n=q) for j in range(q, 0, -1)]


def chain_homology(maps: list[NaturalMap]) -> list[int] | None:
    """Homology dimensions of the complex the maps form, term by term, or
    None when two consecutive maps do not compose to zero."""
    for first, second in zip(maps, maps[1:]):
        if (second.matrix @ first.matrix).nnz:
            return None
    dims = [maps[0].source.dim] + [nat.target.dim for nat in maps]
    ranks = [0] + [nat.rank for nat in maps] + [0]
    return [dim - ranks[k] - ranks[k + 1] for k, dim in enumerate(dims)]


def _koszul_exact(kind: str, p: int, q: int, m: int) -> tuple[bool, str, str]:
    homology = chain_homology(koszul_maps(kind, p, q, m))
    if homology is None:
        return False, "d o d = 0", "nonzero square"
    return (not any(homology), "homology " + str([0] * (q + 1)),
            "homology " + str(homology))


def koszul_cases(**_) -> list[Case]:
    cases = []
    for p, i in ((2, 1), (3, 1), (2, 2)):
        q = p ** i
        for m in (1, 2):
            for kind in ("gamma-lambda", "lambda-sym"):
                def run(kind=kind, p=p, q=q, m=m):
                    return _koszul_exact(kind, p, q, m)
                cases.append(Case("koszul",
                                  f"p^i={q} (p={p}) m={m} {kind} complex exact",
                                  p, i, run))
    return cases


def ex34_cases(cache_dir=None) -> list[Case]:
    cases = [
        _table_case("ex34", "p=2 Ext(I^(1), F_(2))", 2, 1,
                    "twist(I,1)", "simple(2)", [1, 0, 1], cache_dir=cache_dir),
        _table_case("ex34", "p=2 Ext(I^(1), F_(1,1))", 2, 1,
                    "twist(I,1)", "simple(1,1)", [0, 1, 0], cache_dir=cache_dir),
    ]
    for lam in ((3,), (2, 1), (1, 1, 1)):
        name = "simple(" + ",".join(map(str, lam)) + ")"

        def run(name=name):
            table = ext("twist(I,1)", name, 3, i=1, cache_dir=cache_dir)
            pal = table.dims == table.dims[::-1]
            return pal, "palindrome on [0,4]", str(table.dims)
        cases.append(Case("ex34", f"p=3 Ext(I^(1), F_{lam}) palindromic", 3, 1, run))
    return cases


EX35_LAMBDAS = ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def ex35_cases(cache_dir=None) -> list[Case]:
    src = "twist(I,1)*twist(I,1)"
    cases = []
    for lam in EX35_LAMBDAS:
        name = "schur(" + ",".join(map(str, lam)) + ")"

        def run(lam=lam, name=name):
            table = ext(src, name, 2, i=1, cache_dir=cache_dir)
            poly = _pad(young.poincare_polynomial(lam, 2), len(table.dims))
            conj = young.conjugate(lam)
            conj_name = "schur(" + ",".join(map(str, conj)) + ")"
            conj_table = ext(src, conj_name, 2, i=1, cache_dir=cache_dir)
            flip_ok = all(table.dims[s] == conj_table.dims[2 - s]
                          for s in range(3))
            ok = table.dims == poly and flip_ok
            return ok, f"{poly} and flip", f"{table.dims}, flip ok: {flip_ok}"
        cases.append(Case("ex35", f"p=2 Ext(I^2(1), S_{lam}) vs slicings", 2, 1,
                          run))
    return cases


THM32_TARGETS = ("S(4)", "L(4)", "G(4)", "schur(2,2)", "schur(3,1)",
                 "simple(2,2)")


def thm32_cases(cache_dir=None) -> list[Case]:
    cases = []
    for tgt in THM32_TARGETS:
        def run(tgt=tgt):
            rep = duality_check("I*I", tgt, 2, i=1, cache_dir=cache_dir)
            detail = f"{rep.forward} vs reversed {rep.backward}"
            return rep.passed, "mirror equality on [0,4]", detail
        cases.append(Case("thm32", f"p=2 duality I^2 vs {tgt}", 2, 1, run))
    return cases


PAIRING_MODULES = ("I*I", "S(2)", "L(2)", "G(2)", "simple(2)")


def lemma31_cases(**_) -> list[Case]:
    cases = []
    for d, p in ((2, 2), (3, 2), (2, 3)):
        expr = "*".join(["I"] * d)
        want = 1
        for k in range(2, d + 1):
            want *= k

        def run(expr=expr, p=p, want=want):
            dim = end_dimension(expr, p)
            return dim == want, str(want), str(dim)
        cases.append(Case("lemma31", f"p={p} dim End(I^{d}) = {d}!", p, 1, run))
    for mod, p in [(mod, 2) for mod in PAIRING_MODULES] + [("S(2)", 3)]:
        def run(mod=mod, p=p):
            rep = hom_pairing_check("I*I", mod, p)
            detail = (f"dims {rep.dim_hom_pm}/{rep.dim_hom_mp}, "
                      f"nondegenerate {rep.right_nondegenerate}")
            return rep.passed, "equal dims, right-nondegenerate", detail
        cases.append(Case("lemma31", f"p={p} pairing I^2 vs {mod}", p, 1, run))
    return cases


_BUILDERS = {
    "lemma22": lemma22_cases,
    "koszul": koszul_cases,
    "ex34": ex34_cases,
    "ex35": ex35_cases,
    "thm32": thm32_cases,
    "lemma31": lemma31_cases,
}
SUITE_NAMES = tuple(_BUILDERS)


def build_cases(suite: str, p: int | None = None, i: int | None = None,
                cache_dir: str | None = None) -> list[Case]:
    if suite not in _BUILDERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    cases = _BUILDERS[suite](cache_dir=cache_dir)
    if p is not None:
        cases = [c for c in cases if c.p == p]
    if i is not None:
        cases = [c for c in cases if c.i == i]
    return cases


def run_cases(cases: list[Case], jobs: int = 1) -> list[CaseResult]:
    def execute(case: Case) -> CaseResult:
        return CaseResult(case.suite, case.name, *case.run())

    if jobs <= 1 or len(cases) <= 1:
        return [execute(c) for c in cases]
    # imported only here: concurrent.futures loads logging, a few ms per start
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(execute, cases))


def run_suite(suite: str, p: int | None = None, i: int | None = None,
              jobs: int = 1, cache_dir: str | None = None) -> list[CaseResult]:
    return run_cases(build_cases(suite, p=p, i=i, cache_dir=cache_dir), jobs=jobs)
