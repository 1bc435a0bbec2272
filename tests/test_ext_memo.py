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


def test_a_target_sharing_no_weight_with_a_summand_name_reads_no_stack(
        monkeypatch):
    """L(4) lives at the weight (1, 1, 1, 1) alone, which no summand of
    this resolution of G(2) (x) S(2) is named by, though its differentials
    have nonzero coefficients: every term of Hom(P_*, L(4)) is zero, so
    the table is zero and no word stack is read."""
    res = resolve(evaluate("G(2)*S(2)", 2), 3)
    target = evaluate("L(4)", 2)
    assert res.half().entries.size
    assert not any(target.weight_indices(c).size for c in res.half().comps)
    read = []
    monkeypatch.setattr(type(target), "stack_matrix",
                        lambda module, ref: read.append(ref))
    assert ext_dims(res, target) == [0, 0, 0]
    assert read == []
