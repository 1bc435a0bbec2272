"""The Ext table memo: each (resolution, target) table is assembled once
and kept on the resolution, while ext_dims still sees every call and
hands each caller a copy."""

import json

import pytest

from spfext import homology
from spfext.functors import evaluate
from spfext.homology import clear_resolution_memo, ext, ext_dims, resolve

SOURCES = ("twist(I,1)*twist(I,1)", "twist(I*I,1)")
SWEEPS = ("dominance", "reversed")
TARGETS = ("schur(2,2)", "schur(3,1)", "S(4)", "dual(L(2)*twist(I,1))",
           "simple(2,2)", "dual(G(4))")


@pytest.fixture
def assembled(monkeypatch):
    """(resolution, target module) of every table assembled, and every
    call of ext_dims."""
    built, called = [], []
    assemble, dims = homology.assemble_ext, homology.ext_dims

    def counted_assemble(res, target):
        built.append((res, target))
        return assemble(res, target)

    def counted_dims(res, target):
        called.append((res, target))
        return dims(res, target)

    monkeypatch.setattr(homology, "assemble_ext", counted_assemble)
    monkeypatch.setattr(homology, "ext_dims", counted_dims)
    clear_resolution_memo()
    yield built, called
    clear_resolution_memo()


def _payload(table) -> str:
    return json.dumps(dict(table.payload(), source=None), sort_keys=True)


def test_a_repeated_table_is_assembled_once(assembled):
    built, called = assembled
    first = ext(SOURCES[0], "schur(2,2)", 2)
    again = ext(SOURCES[0], "schur(2,2)", 2)
    assert again.payload() == first.payload()
    assert len(called) == 2 and called[0] == called[1]
    assert built == called[:1]


def test_both_spellings_on_both_sweeps_agree(assembled):
    built, called = assembled
    payloads = {}
    for sweep in SWEEPS:
        for src in SOURCES:
            for tgt in TARGETS:
                payloads[sweep, src, tgt] = _payload(ext(src, tgt, 2, sweep=sweep))
    for tgt in TARGETS:
        assert len({payloads[sweep, src, tgt] for sweep in SWEEPS
                    for src in SOURCES}) == 1, tgt
    assert len(called) == len(payloads)
    # one resolution per sweep, shared by both spellings: each table once
    assert len(built) == len(SWEEPS) * len(TARGETS)
    assert len({(id(res), id(target)) for res, target in built}) == len(built)


def test_the_dims_returned_are_a_copy():
    res = resolve(evaluate(SOURCES[0], 2), 3)
    target = evaluate("S(4)", 2)
    dims = ext_dims(res, target)
    want = list(dims)
    dims[0] += 1
    dims.append(7)
    assert ext_dims(res, target) == want
    assert ext_dims(res, target) is not ext_dims(res, target)


def test_clear_resolution_memo_forgets_the_tables(assembled):
    built, _ = assembled
    first = ext(SOURCES[0], "L(4)", 2)
    clear_resolution_memo()
    assert ext(SOURCES[0], "L(4)", 2).payload() == first.payload()
    assert len(built) == 2 and built[0][0] is not built[1][0]
    assert built[0][1] is built[1][1]


def _words_by_pair(res, target) -> list:
    """The W of each pair that assemble_ext multiplies by, in its order,
    built pair by pair: the rows of N_lam's basis in the target's word
    stack, read at the pair's words and at N_mu's basis."""
    comp = {lam: tuple(module.contents[gen].tolist()) for stage in res.stages
            for lam, (module, gen, _) in stage.blocks.items()}
    pivots = {lam: target.weight_indices(c) for lam, c in comp.items()}
    out = []
    for s in range(res.depth):
        for mu, lam, local, *_ in res.coefficients(s):
            if not pivots[mu].size or not pivots[lam].size:
                continue
            rows = target.stack_matrix(("words", comp[lam]))[pivots[lam]]
            cols = (local[:, None] * target.dim + pivots[mu]).reshape(-1)
            out.append(rows.take_cols(cols).toarray().reshape(
                pivots[lam].size, local.size, -1).transpose(1, 0, 2).reshape(
                    local.size, -1))
    return out


@pytest.mark.parametrize("sweep", SWEEPS)
def test_the_gathered_words_equal_a_per_pair_build(monkeypatch, sweep):
    """For every pair of the degree-4 resolution and every target, the W
    read from one gather per lam equals the W built for that pair alone."""
    res = resolve(evaluate(SOURCES[0], 2), 5, sweep=sweep)
    pairs = 0
    for tgt in TARGETS:
        target = evaluate(tgt, 2)
        want_dims = homology.assemble_ext(res, target)  # builds the stacks
        want = _words_by_pair(res, target)
        got = []
        matmul = homology.fp.matmul

        def recorded(a, b, p):
            got.append(b)
            return matmul(a, b, p)

        with monkeypatch.context() as patched:
            patched.setattr(homology.fp, "matmul", recorded)
            assert homology.assemble_ext(res, target) == want_dims
        assert len(got) == len(want), tgt
        pairs += len(want)
        for w_got, w_want in zip(got, want):
            assert w_got.shape == w_want.shape, tgt
            assert (w_got == w_want).all(), tgt
    assert pairs
