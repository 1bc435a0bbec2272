import warnings

import pytest

from spfext import young
from spfext.young import (RimHook, Slicing, SlicingWarning, conjugate,
                          enumerate_slicings, is_single_simple_block,
                          p_core_and_weight, parse_partition, partitions_of,
                          poincare_polynomial, removable_hooks)


def test_conjugate_fixed():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate((4,)) == (1, 1, 1, 1)


def test_conjugate_involutive():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_parse_and_format():
    assert parse_partition("3,1") == (3, 1)
    assert young.format_partition((3, 1)) == "3,1"
    with pytest.raises(Exception):
        parse_partition("1,3")


def test_p_core_examples():
    assert p_core_and_weight((2, 1), 2) == ((2, 1), 0)
    assert p_core_and_weight((2, 2), 2) == ((), 2)
    assert p_core_and_weight((3, 1), 2) == ((), 2)


def _cores_by_removal(parts, p):
    hooks = removable_hooks(parts, p)
    if not hooks:
        return {(parts, 0)}
    out = set()
    for smaller, _ in hooks:
        out |= {(core, w + 1) for core, w in _cores_by_removal(smaller, p)}
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_p_core_removal_order_independent(p):
    for n in range(1, 9):
        for lam in partitions_of(n):
            results = _cores_by_removal(lam, p)
            assert len(results) == 1
            assert results == {p_core_and_weight(lam, p)}


def test_core_weight_arithmetic():
    for n in range(1, 10):
        for lam in partitions_of(n):
            for p in (2, 3):
                core, w = p_core_and_weight(lam, p)
                assert sum(core) + p * w == n


def test_single_simple_block():
    assert is_single_simple_block((1,), 2)
    assert is_single_simple_block((1,), 5)
    assert is_single_simple_block((2,), 3)
    assert not is_single_simple_block((2,), 2)


def test_slicings_row_of_four():
    slicings = enumerate_slicings((4,), 2)
    assert len(slicings) == 1
    assert slicings[0].degree == 0
    assert poincare_polynomial((4,), 2) == [1]


def test_slicings_square():
    slicings = enumerate_slicings((2, 2), 2)
    assert len(slicings) == 2
    assert sorted(s.degree for s in slicings) == [0, 2]
    assert poincare_polynomial((2, 2), 2) == [1, 0, 1]


def test_slicings_hook_shape():
    slicings = enumerate_slicings((3, 1), 2)
    assert len(slicings) == 1
    assert slicings[0].degree == 1


def test_slicings_column_of_four():
    assert poincare_polynomial((1, 1, 1, 1), 2) == [0, 0, 1]


def test_slicing_degree_examples():
    row = enumerate_slicings((4,), 2)[0]
    assert row.degree == 0
    col = enumerate_slicings((1, 1, 1, 1), 2)[0]
    assert col.degree == 2


def test_slicing_warning_on_indivisible_weight():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert enumerate_slicings((3,), 2) == []
    assert any(issubclass(w.category, SlicingWarning) for w in caught)


def test_slicing_structural_invariants():
    for lam in [(4,), (2, 2), (3, 1), (2, 1, 1), (3, 3), (4, 2)]:
        for s in enumerate_slicings(lam, 2):
            assert s.is_valid()
            assert len(s.hooks) == sum(lam) // 2
            for hook in s.hooks:
                assert hook.size == 2
                assert 0 <= hook.leg_length <= 1


def test_rim_hook_validity():
    assert RimHook(((0, 0), (0, 1), (1, 1))).is_valid()
    assert not RimHook(((0, 0), (0, 1), (1, 0), (1, 1))).is_valid()  # 2x2 block
    assert not RimHook(((0, 0), (2, 0))).is_valid()  # disconnected


def test_slicing_output_order_deterministic():
    first = enumerate_slicings((4, 2), 2)
    second = enumerate_slicings((4, 2), 2)
    assert first == second
    keys = [tuple(h.cells for h in s.hooks) for s in first]
    assert keys == sorted(keys)


@pytest.mark.parametrize("p,dmax", [(2, 4), (3, 4)])
def test_conjugation_duality_exhaustive(p, dmax):
    """Degree-reversal symmetry between a diagram and its conjugate."""
    for d in range(1, dmax + 1):
        top = (p - 1) * d
        for lam in partitions_of(p * d):
            left = poincare_polynomial(lam, p)
            right = poincare_polynomial(conjugate(lam), p)
            left += [0] * (top + 1 - len(left))
            right += [0] * (top + 1 - len(right))
            assert left == right[::-1], lam
            assert sum(left) == sum(right)


def test_invalid_build_order_rejected():
    bad = Slicing(base=(2, 2), hooks=(RimHook(((0, 1), (1, 1))),
                                      RimHook(((0, 0), (1, 0)))))
    assert not bad.is_valid()
