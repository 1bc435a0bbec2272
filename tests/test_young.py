import warnings
from functools import lru_cache

import pytest

from spfext import young
from spfext.young import (RimHook, Slicing, SlicingWarning, cells, conjugate,
                          enumerate_slicings, is_single_simple_block,
                          p_core_and_weight, parse_partition, partitions_of,
                          poincare_polynomial, removable_hooks)


# -- validators and the two-pass enumeration, kept as references --------------


def hook_is_valid(hook: RimHook) -> bool:
    """Edge-connected, no 2x2 block."""
    cs = set(hook.cells)
    for (r, c) in cs:
        if {(r, c + 1), (r + 1, c), (r + 1, c + 1)} <= cs:
            return False
    seen = {hook.cells[0]}
    frontier = [hook.cells[0]]
    while frontier:
        r, c = frontier.pop()
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nb in cs and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(cs)


def is_diagram_cells(cell_set: set[tuple[int, int]]) -> bool:
    if not cell_set:
        return True
    rows: dict[int, int] = {}
    for r, c in cell_set:
        rows[r] = max(rows.get(r, -1), c)
    nrows = max(rows) + 1
    if set(rows) != set(range(nrows)):
        return False
    lens = [rows[r] + 1 for r in range(nrows)]
    if any(lens[i] < lens[i + 1] for i in range(nrows - 1)):
        return False
    return sum(lens) == len(cell_set)


def slicing_is_valid(slicing: Slicing) -> bool:
    """Every hook valid, disjoint from the ones before it, and each union
    of the first k hooks a diagram; together they cover the base."""
    covered: set[tuple[int, int]] = set()
    for hook in slicing.hooks:
        if not hook_is_valid(hook):
            return False
        if covered & set(hook.cells):
            return False
        covered |= set(hook.cells)
        if not is_diagram_cells(covered):
            return False
    return covered == set(cells(slicing.base))


@lru_cache(maxsize=None)
def tilings_by_removal(parts, p):
    """Every tiling that successive removals reach, as a set of hooks."""
    if not parts:
        return frozenset([frozenset()])
    out = set()
    for smaller, hook in removable_hooks(parts, p):
        for rest in tilings_by_removal(smaller, p):
            out.add(rest | {hook})
    return frozenset(out)


def least_removal_order(parts, p, tiling):
    """Lex-least removal order realizing `tiling`, or None if none exists."""
    if not tiling:
        return ()
    for smaller, hook in removable_hooks(parts, p):  # cell-lex sorted
        if hook in tiling:
            rest = least_removal_order(smaller, p, tiling - {hook})
            if rest is not None:
                return (hook,) + rest
    return None


def slicings_by_two_passes(parts, p):
    """The slicings from every tiling and then, for each, a second search
    for its least removal order."""
    if sum(parts) % p:
        return []
    out = []
    for tiling in tilings_by_removal(parts, p):
        order = least_removal_order(parts, p, tiling)
        assert order is not None  # every tiling found was reached by removals
        out.append(Slicing(base=parts, hooks=tuple(reversed(order))))
    out.sort(key=lambda s: tuple(h.cells for h in s.hooks))
    return out


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
    for d in range(1, 6):
        for lam in partitions_of(2 * d):
            for s in enumerate_slicings(lam, 2):
                assert slicing_is_valid(s), (lam, s)
                assert len(s.hooks) == d
                for hook in s.hooks:
                    assert hook.size == 2
                    assert 0 <= hook.leg_length <= 1


def test_rim_hook_validity():
    assert hook_is_valid(RimHook(((0, 0), (0, 1), (1, 1))))
    assert not hook_is_valid(RimHook(((0, 0), (0, 1), (1, 0), (1, 1))))  # 2x2 block
    assert not hook_is_valid(RimHook(((0, 0), (2, 0))))  # disconnected


def test_diagram_cells_check():
    assert is_diagram_cells(set())
    assert is_diagram_cells(set(cells((3, 1))))
    assert not is_diagram_cells({(0, 0), (1, 0), (1, 1)})  # rows increase
    assert not is_diagram_cells({(0, 0), (2, 0)})  # a row is missing
    assert not is_diagram_cells({(0, 1)})  # a gap in the row


@pytest.mark.parametrize("p", [2, 3, 5])
def test_slicings_match_the_two_pass_reference(p):
    """One memoized recursion gives the same slicings, hooks, hook order
    and list order as enumerating every tiling and then searching each
    for its least removal order."""
    for n in range(1, 13):
        for lam in partitions_of(n):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SlicingWarning)
                got = enumerate_slicings(lam, p)
            assert got == slicings_by_two_passes(lam, p), lam


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
    assert not slicing_is_valid(bad)
