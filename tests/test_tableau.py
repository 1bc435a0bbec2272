"""The tableau composite L^{conjugate(lam)} -> S^lam against a slow loop.

`_tableau_by_loop` is the per-basis-vector construction the engine used
before the map was read off the ShapeModule bridges: expand each column
of a source basis vector into its signed arrangements, place the letters
in the diagram, and sort along the rows.  Both the map and the rows of
the Schur functor (its image) must agree entrywise.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from spfext import fp, young
from spfext.functors import canonical_map, schur_weyl_simple, shape_module
from xi_reference import basis_tuple, distinct_permutations


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _tableau_by_loop(lam, p, n):
    conj = young.conjugate(lam)
    src = shape_module(p, n, tuple(("L", c, 0) for c in conj))
    tgt = shape_module(p, n, tuple(("S", r, 0) for r in lam))
    mat = fp.zeros(tgt.dim, src.dim)
    for idx in range(src.dim):
        expansions = [[(tuple(column[k] for k in perm), _perm_sign(perm))
                       for perm in distinct_permutations(tuple(range(len(column))))]
                      for column in basis_tuple(src, idx)]
        for combo in product(*expansions):
            sign = 1
            for _, s in combo:
                sign *= s
            rows = tuple(tuple(sorted(combo[c][0][r] for c in range(width)))
                         for r, width in enumerate(lam))
            t_idx = tgt.basis_index(rows)
            mat[t_idx, idx] = (mat[t_idx, idx] + sign) % p
    return mat


def _partitions(d, top=None):
    top = d if top is None else top
    if d == 0:
        yield ()
        return
    for k in range(min(d, top), 0, -1):
        for rest in _partitions(d - k, k):
            yield (k,) + rest


def _assert_matches_loop(lam, p, n):
    want = _tableau_by_loop(lam, p, n)
    got = canonical_map("tableau_composite", p, lam=lam, n=n).matrix.toarray()
    assert got.shape == want.shape and (got == want).all()
    rows = schur_weyl_simple(lam, "schur", p, n).rows
    expected = fp.basis_rows(want.T, p)[0]
    assert rows.shape == expected.shape and (rows == expected).all()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_tableau_composite_matches_loop(d, p):
    for lam in _partitions(d):
        for n in (d, d + 1):
            _assert_matches_loop(lam, p, n)


@settings(max_examples=8, deadline=None)
@given(lam=st.sampled_from(list(_partitions(5))), p=st.sampled_from([2, 3, 5]),
       n=st.sampled_from([5, 6]))
def test_tableau_composite_matches_loop_degree_five(lam, p, n):
    _assert_matches_loop(lam, p, n)
