"""homology.assemble_ext, one join of the resolution's and the target's
halves, against the per-pair products of tests/ext_reference.py: equal
dims on every table the workloads, the suites and the degree-5 targets
compute, and a refusal of a word stack that breaks the weight grading."""

import copy

import numpy as np
import pytest

import ext_reference
from spfext import fp, homology
from spfext.errors import SpfextError
from spfext.functors import evaluate
from spfext.homology import clear_resolution_memo, resolve, resolve_expression
from spfext.suites import SUITE_NAMES, run_suite

SWEEPS = ("dominance", "reversed")
# the degree-4 tables: A5 Schur targets of the twisted tensor square, and
# A6 mirror targets of the twisted I^2 with their duals
SCHUR_SOURCE = "twist(I,1)*twist(I,1)"
SCHUR_TARGETS = ("schur(4)", "schur(3,1)", "schur(2,2)", "schur(2,1,1)",
                 "schur(1,1,1,1)")
MIRROR_SOURCE = "twist(I*I,1)"
MIRROR_TARGETS = ("S(4)", "L(4)", "G(4)", "schur(2,2)", "schur(3,1)",
                  "simple(2,2)")
DEGREE5_TARGETS = ("S(5)", "L(5)", "G(5)", "twist(I,1)")


def _agree(res, target) -> list[int]:
    want = ext_reference.assemble_ext(res, target)
    assert homology.assemble_ext(res, target) == want
    return want


@pytest.mark.parametrize("sweep", SWEEPS)
def test_deg4_tables_match_the_per_pair_reference(sweep):
    tables = [(SCHUR_SOURCE, text) for text in SCHUR_TARGETS]
    tables += [(MIRROR_SOURCE, form.format(text)) for text in MIRROR_TARGETS
               for form in ("{}", "dual({})")]
    assert len(tables) == 17
    for src, text in tables:
        res = resolve_expression(src, 2, 5, sweep=sweep)
        assert len(_agree(res, evaluate(text, 2))) == 5, (src, text)


def test_every_suite_table_matches_the_per_pair_reference(monkeypatch):
    """Each (resolution, target) the six suites ask ext_dims for."""
    seen = {}
    dims = homology.ext_dims

    def recorded(res, target):
        seen.setdefault((id(res), id(target)), (res, target))
        return dims(res, target)

    monkeypatch.setattr(homology, "ext_dims", recorded)
    clear_resolution_memo()
    try:
        for suite in SUITE_NAMES:
            assert all(case.passed for case in run_suite(suite)), suite
    finally:
        clear_resolution_memo()
    tables = list(seen.values())
    targets = {id(target) for _, target in tables}
    # among them the p = 3 simples of ex34 and the m = 2 param targets of
    # lemma22 (evaluate keeps one module per expression)
    for text, p in (("simple(3)", 3), ("simple(2,1)", 3), ("simple(1,1,1)", 3),
                    ("param(S(2),2)", 2), ("param(G(2),2)", 2)):
        assert id(evaluate(text, p)) in targets, text
    for res, target in tables:
        _agree(res, target)


def test_degree5_tables_match_the_per_pair_reference():
    res = resolve(evaluate("twist(I,1)", 5), 9)
    got = {text: _agree(res, evaluate(text, 5)) for text in DEGREE5_TARGETS}
    assert got == {"S(5)": [1] + [0] * 8, "L(5)": [0] * 4 + [1] + [0] * 4,
                   "G(5)": [0] * 8 + [1], "twist(I,1)": [1, 0] * 4 + [1]}


@pytest.mark.parametrize("depth", [0, 1])
def test_shallow_tables_match_the_per_pair_reference(depth):
    for src, p, texts in ((MIRROR_SOURCE, 2, MIRROR_TARGETS),
                          ("twist(I,1)", 3, ("S(3)", "L(3)", "G(3)"))):
        res = resolve(evaluate(src, p), depth)
        for text in texts:
            assert len(_agree(res, evaluate(text, p))) == depth, text


def test_an_image_outside_its_words_weight_is_refused():
    """One extra entry in a target's ("words", c) stack, at a basis vector
    whose weight is not its word's, escapes the weight grading: the join
    sees every stored entry, so the table raises."""
    res = resolve(evaluate(MIRROR_SOURCE, 2), 5)
    target = evaluate("S(4)", 2)
    assert _agree(res, target) == [1, 0, 0, 0, 0]
    half = res.half()
    # the first name of stage 1 and its words' weights in the target
    k = int(half.layout[1, half.bounds[1]])
    c = half.comps[k]
    stack = target.stack_matrix(("words", c))
    rows = target.weight_indices(c)
    weight = target.contents @ (target.D + 1) ** np.arange(target.n)
    word_weight = half.weight[half.first[k]: half.first[k + 1]]
    # word 0 applied to the first basis vector of N_c, sent elsewhere too
    stray = int(np.flatnonzero(weight != word_weight[0])[0])
    row, col, data = stack.coo()
    broken = copy.copy(target)
    broken._stacks = {("words", c): fp.CSR.from_coo(
        np.append(row, rows[0]), np.append(col, stray), np.append(data, 1),
        stack.shape, target.p)}
    # the per-pair column gather reads N_mu's basis alone and drops it
    assert ext_reference.assemble_ext(res, broken) == [1, 0, 0, 0, 0]
    with pytest.raises(SpfextError, match="image escapes the weight grading"):
        homology.assemble_ext(res, broken)
