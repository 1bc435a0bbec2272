"""simple(lam) as the submodule its highest weight line generates.

The reference is the route the construction replaced: solve for the one
map weyl(lam) -> schur(lam) with hom_space and take the RREF of its
image.  RREF is unique, so rows and pivots must agree exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from spfext import fp, functors, young
from spfext.errors import SemanticError, SpfextError
from spfext.functors import evaluate, schur_weyl_simple
from spfext.modules import SubmoduleModule, hom_space


def _simple_by_hom_solve(lam, p, n):
    schur = schur_weyl_simple(lam, "schur", p, n)
    weyl = schur_weyl_simple(lam, "weyl", p, n)
    maps = hom_space(weyl, schur)
    assert len(maps) == 1
    return fp.basis_rows(maps[0].T, p)


CASES = ([(lam, p, None) for d in (2, 3, 4) for lam in young.partitions_of(d)
          for p in (2, 3)]
         + [(lam, 5, None) for lam in ((3, 1), (2, 1, 1), (4, 1), (3, 2))]
         + [((2, 1), 3, 4), ((2, 2), 2, 5), ((1, 1), 2, 3), ((2,), 3, 3)])


@pytest.mark.parametrize("lam,p,n", CASES)
def test_simple_matches_hom_solve_reference(lam, p, n):
    got = schur_weyl_simple(lam, "simple", p, n)
    rows, pivots = _simple_by_hom_solve(lam, p, n)
    assert isinstance(got, SubmoduleModule)
    assert got.parent is schur_weyl_simple(lam, "schur", p, n)
    assert got.rows.dtype == np.int64
    assert got.rows.shape == rows.shape and (got.rows == rows).all()
    assert got.pivots == tuple(pivots)


def test_simple_refuses_a_highest_weight_space_that_is_not_a_line(monkeypatch):
    """A schur(lam) whose weight-lam space is two-dimensional is refused."""
    real = SubmoduleModule.weight_indices

    def doubled(self, comp):
        idxs = real(self, comp)
        free = next(c for c in range(self.dim) if c not in idxs)
        return np.sort(np.append(idxs, free))

    monkeypatch.setattr(functors, "_eval_cache", {})  # build schur afresh
    monkeypatch.setattr(SubmoduleModule, "weight_indices", doubled)
    with pytest.raises(SpfextError, match="dimension 2, expected 1"):
        schur_weyl_simple((2, 1), "simple", 2)


def test_simple_is_the_evaluated_module():
    assert evaluate("simple(2,2)", 2) is schur_weyl_simple((2, 2), "simple", 2)
    assert evaluate("schur(2,1)", 3, n=4) is schur_weyl_simple((2, 1), "schur", 3, 4)
    assert evaluate("weyl(2,1)", 2) is schur_weyl_simple((2, 1), "weyl", 2)


def test_schur_weyl_simple_refuses_bad_input():
    with pytest.raises(SemanticError):
        schur_weyl_simple((2,), "schur", 4)
    with pytest.raises(SemanticError):
        schur_weyl_simple((2,), "simple", 1)
    with pytest.raises(ValueError):
        schur_weyl_simple((2,), "head", 2)
    with pytest.raises(ValueError):
        schur_weyl_simple((1, 2), "simple", 2)
