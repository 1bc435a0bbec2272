"""Young diagram arithmetic: conjugation, p-cores, rim p-hook slicings.

Diagrams are tuples of weakly decreasing positive ints.  A rim p-hook is
an edge-connected border strip of p cells containing no 2x2 block; a
slicing is an unordered tiling of a diagram by rim p-hooks that admits
at least one valid successive-removal order.  Slicings carry the degree
statistic sum-of-leg-lengths, which the homological engine is checked
against.

Slicings are enumerated in one memoized recursion over successive
removals.  Removable hooks are tried in cell-lex order, so the first
removal order found for a tiling is its lex-least one, and it is kept.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

from .errors import ParseError


class SlicingWarning(UserWarning):
    """Raised (as a warning) when p does not divide the diagram weight."""


def check_partition(parts: tuple[int, ...]) -> tuple[int, ...]:
    parts = tuple(int(x) for x in parts)
    if any(x <= 0 for x in parts):
        raise ValueError(f"parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    return parts


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse a comma-separated part list such as "3,1"."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad diagram {text!r}: {exc}") from exc
    try:
        return check_partition(parts)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_partition(parts: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in parts)


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the diagram."""
    parts = check_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for x in parts if x > c) for c in range(parts[0]))


def cells(parts: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    return frozenset((r, c) for r, row in enumerate(parts) for c in range(row))


def partitions_of(n: int, max_parts: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n (optionally into at most max_parts parts), lex descending."""
    out: list[tuple[int, ...]] = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if max_parts is not None and len(prefix) == max_parts:
            return
        for part in range(min(largest, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return sorted(out, reverse=True)


@dataclass(frozen=True)
class RimHook:
    """A border strip of cells, kept in sorted order."""

    cells: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(sorted(self.cells)))

    @property
    def size(self) -> int:
        return len(self.cells)

    @property
    def leg_length(self) -> int:
        return len({r for r, _ in self.cells}) - 1


@dataclass(frozen=True)
class Slicing:
    """Tiling of `base` by rim p-hooks, listed innermost-first.

    The union of the first k hooks is a valid diagram for every k.
    """

    base: tuple[int, ...]
    hooks: tuple[RimHook, ...]

    @property
    def degree(self) -> int:
        return sum(h.leg_length for h in self.hooks)


def _beta_numbers(parts: tuple[int, ...], nbeads: int) -> list[int]:
    padded = list(parts) + [0] * (nbeads - len(parts))
    return [padded[j] + (nbeads - 1 - j) for j in range(nbeads)]


def _partition_from_betas(betas: list[int]) -> tuple[int, ...]:
    betas = sorted(betas, reverse=True)
    nbeads = len(betas)
    parts = [betas[j] - (nbeads - 1 - j) for j in range(nbeads)]
    return tuple(x for x in parts if x > 0)


def removable_hooks(parts: tuple[int, ...], p: int) -> list[tuple[tuple[int, ...], RimHook]]:
    """All removable rim p-hooks as (smaller diagram, removed hook) pairs.

    A removable hook corresponds to a beta-number move beta -> beta - p
    into an empty slot; the cells are recovered as the set difference of
    the two diagrams.
    """
    parts = check_partition(parts)
    nbeads = len(parts) + p
    betas = _beta_numbers(parts, nbeads)
    beta_set = set(betas)
    out = []
    for beta in betas:
        if beta >= p and (beta - p) not in beta_set:
            new = sorted((beta_set - {beta}) | {beta - p}, reverse=True)
            smaller = _partition_from_betas(new)
            hook = RimHook(tuple(cells(parts) - cells(smaller)))
            out.append((smaller, hook))
    out.sort(key=lambda pair: pair[1].cells)
    return out


def p_core_and_weight(parts: tuple[int, ...], p: int) -> tuple[tuple[int, ...], int]:
    """The p-core and the number of rim p-hooks removed to reach it.

    Computed on the abacus (push every bead as far down its runner as
    possible), which makes removal-order independence manifest; the
    direct removal route is cross-checked in the tests.
    """
    parts = check_partition(parts)
    nbeads = len(parts) + p
    betas = _beta_numbers(parts, nbeads)
    runners: dict[int, list[int]] = {r: [] for r in range(p)}
    for beta in betas:
        runners[beta % p].append(beta // p)
    moves = 0
    core_betas = []
    for r, levels in runners.items():
        levels.sort()
        for target, level in enumerate(levels):
            moves += level - target
            core_betas.append(target * p + r)
    return _partition_from_betas(core_betas), moves


def is_single_simple_block(parts: tuple[int, ...], p: int) -> bool:
    """Whether the block of the simple labeled by `parts` contains it alone.

    Implemented sufficient condition: the diagram is a p-core (blocks are
    classified by p-core and hook count, and a positive hook count always
    admits several labels).  The general criterion for projective simples
    with e > 0 is not pinned down here.
    """
    return p_core_and_weight(parts, p)[1] == 0


@lru_cache(maxsize=None)
def _slicings(parts: tuple[int, ...], p: int
              ) -> dict[frozenset[RimHook], tuple[RimHook, ...]]:
    """Each tiling that successive removals of rim p-hooks reach, with its
    lex-least removal order, outermost hook first (the first one found).
    The memo is shared: callers must not mutate it."""
    if not parts:
        return {frozenset(): ()}
    out: dict[frozenset[RimHook], tuple[RimHook, ...]] = {}
    for smaller, hook in removable_hooks(parts, p):
        for rest, order in _slicings(smaller, p).items():
            out.setdefault(rest | {hook}, (hook,) + order)
    return out


def enumerate_slicings(parts: tuple[int, ...], p: int) -> list[Slicing]:
    """All slicings of the diagram, deduplicated and deterministically ordered.

    Slicings differing only in removal order count once.  When p does not
    divide the weight a SlicingWarning is emitted and the list is empty.
    """
    parts = check_partition(parts)
    if sum(parts) % p != 0:
        warnings.warn(f"{p} does not divide the weight of {parts}", SlicingWarning,
                      stacklevel=2)
        return []
    out = [Slicing(base=parts, hooks=tuple(reversed(order)))
           for order in _slicings(parts, p).values()]
    out.sort(key=lambda s: tuple(h.cells for h in s.hooks))
    return out


def poincare_polynomial(parts: tuple[int, ...], p: int) -> list[int]:
    """Coefficient list: entry s counts slicings of degree s.

    Trimmed at the top nonzero degree; empty when there are no slicings.
    """
    slicings = enumerate_slicings(parts, p)
    if not slicings:
        return []
    top = max(s.degree for s in slicings)
    coeffs = [0] * (top + 1)
    for s in slicings:
        coeffs[s.degree] += 1
    return coeffs
