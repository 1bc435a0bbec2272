"""Weights read from the basis, and the reduced generating set.

Every module kind keeps a `contents` array, the weight of each basis
vector; it is checked here against the weight idempotents acting on the
module.  `check_equivariance` compares contents and then commutes with
the simple-root divided powers at powers of p only.  The full set, every
weight idempotent and every ("div", a, b, r), is kept as the reference:
both must accept and reject the same maps.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spfext import fp
from spfext.errors import EquivarianceError
from spfext.functors import canonical_map, evaluate
from spfext.homology import end_dimension, ext
from spfext.modules import (DualModule, SubmoduleModule, TensorModule,
                            check_equivariance, hom_space)
from spfext.tensorspace import compositions
from test_tensorspace import full_generator_refs
from xi_reference import dense, stack_block, weight_key, xi_block


def _action(mod, ref):
    """A weight idempotent read from its word stack, or a divided power."""
    return dense(xi_block(mod, ref[1]) if ref[0] == "xi"
                 else stack_block(mod.stack_matrix(ref), 0, mod.dim))


def commutes_with_full_set(phi, src, tgt) -> bool:
    """phi commutes with every weight idempotent and every divided power."""
    p = src.p
    for ref in full_generator_refs(src.space):
        left = fp.matmul(phi, _action(src, ref), p)
        right = fp.matmul(_action(tgt, ref), phi, p)
        if (left != right).any():
            return False
    return True


def accepts(phi, src, tgt) -> bool:
    try:
        check_equivariance(phi, src, tgt)
    except EquivarianceError:
        return False
    return True


def _kinds():
    s2 = evaluate("S(2)", 2)
    return {"shape": evaluate("G(2)*L(1)", 3),
            "dual": DualModule(evaluate("S(2)*I", 2)),
            "submodule": SubmoduleModule(s2, np.array([[1, 0, 0], [0, 0, 1]])),
            "tensor": TensorModule(evaluate("I", 3, n=2), evaluate("S(1)", 3, n=2)),
            "schur": evaluate("schur(2,1)", 2),
            "simple": evaluate("simple(2,1)", 3)}


@pytest.mark.parametrize("kind", sorted(_kinds()))
def test_contents_match_the_weight_idempotents(kind):
    """Each weight idempotent acts on every module kind as the projection
    onto the basis vectors its contents name."""
    mod = _kinds()[kind]
    for comp in compositions(mod.D, mod.n):
        idem = dense(xi_block(mod, weight_key(comp)))
        want = np.diag((mod.contents == comp).all(axis=1).astype(np.int64))
        assert (idem % mod.p == want).all(), comp


def test_a_map_between_two_weights_is_refused_by_weight():
    src, tgt = evaluate("G(2)", 2), evaluate("S(2)", 2)
    bad = np.zeros((3, 3), dtype=np.int64)
    bad[0, 1] = 1  # the weight (1, 1) vector onto the weight (2, 0) vector
    with pytest.raises(EquivarianceError,
                       match=re.escape("sends weight (1, 1) to weight (2, 0)")):
        check_equivariance(bad, src, tgt)


def test_a_matrix_of_the_wrong_shape_is_refused():
    with pytest.raises(ValueError, match="no map"):
        check_equivariance(np.eye(4, dtype=np.int64), evaluate("G(2)", 2),
                           evaluate("S(2)", 2))


def test_submodule_refuses_rows_that_mix_weights():
    s2 = evaluate("S(2)", 2)
    with pytest.raises(ValueError, match="weight vectors"):
        SubmoduleModule(s2, np.array([[1, 1, 0]]))


def test_one_letter_has_an_empty_generator_stack():
    mod = evaluate("I", 2)
    refs, stacked = mod.generator_action()
    assert refs == [] and stacked.shape == (1, 0)
    assert mod.space.matrix(("gens",)).shape == (1, 0)
    assert end_dimension("I", 2) == 1
    assert ext("I", "I", 2).dims == [1, 0]
    check_equivariance(np.eye(1, dtype=np.int64), mod, mod)


CANONICAL = [("gamma_comult", 1, 1), ("gamma_comult", 1, 2), ("sym_mult", 1, 1),
             ("sym_mult", 2, 1), ("ext_mult", 1, 1), ("ext_mult", 1, 2),
             ("koszul_diff", 1, 1), ("koszul_diff", 2, 1), ("koszul_diff", 3, 0),
             ("dual_koszul_diff", 1, 1), ("dual_koszul_diff", 2, 1),
             ("dual_koszul_diff", 1, 2), ("tableau_composite", 0, 0)]


@st.composite
def canonical(draw):
    kind, a, b = draw(st.sampled_from(CANONICAL))
    p = draw(st.sampled_from([2, 3]))
    if kind == "tableau_composite":
        lam = draw(st.sampled_from([(2, 1), (1, 1, 1), (3,)]))
        return canonical_map(kind, p, lam=lam)
    return canonical_map(kind, p, a=a, b=b, m=draw(st.sampled_from([1, 2])))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reduced_and_full_sets_agree_on_a_perturbed_canonical_map(data):
    """A canonical map changed at one entry inside one weight block is not
    equivariant, and both generating sets reject it."""
    nat = data.draw(canonical())
    src, tgt = nat.source, nat.target
    phi = nat.matrix.toarray()
    shared = [c for c in src.content_groups() if c in tgt.content_groups()]
    comp = data.draw(st.sampled_from(shared))
    i = data.draw(st.sampled_from(tgt.content_groups()[comp].tolist()))
    j = data.draw(st.sampled_from(src.content_groups()[comp].tolist()))
    phi[i, j] = (phi[i, j] + data.draw(st.integers(1, src.p - 1))) % src.p
    assert not commutes_with_full_set(phi, src, tgt)
    assert not accepts(phi, src, tgt)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reduced_and_full_sets_agree_on_a_sum_of_equivariant_maps(data):
    """A canonical map plus a multiple of a Hom basis map is equivariant,
    and both generating sets accept it."""
    nat = data.draw(canonical())
    src, tgt, p = nat.source, nat.target, nat.source.p
    psi = data.draw(st.sampled_from(hom_space(src, tgt)))
    phi = (nat.matrix.toarray() + data.draw(st.integers(1, p - 1)) * psi) % p
    assert commutes_with_full_set(phi, src, tgt)
    assert accepts(phi, src, tgt)
