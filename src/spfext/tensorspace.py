"""Tensor space E^(x)D over F_p and the Schur algebra acting on it.

The Schur algebra S(n, D) has the xi-basis: orbits of pairs of
multi-indices under simultaneous place permutation.  Letters are 0-based.
The pipeline acts through stacks of basis elements and a generating set.

The generating set is the weight idempotents and the divided powers
E_a^(r), F_a^(r) of the simple root elements (Doty-Giaquinto,
"Presenting Schur algebras", IMRN 2002).  Over F_p, Lucas's theorem
writes each E^(r) as a unit times a product of the E^(p^k), so the
divided powers at powers of p suffice.  Every module basis is a basis of
weight vectors, so the idempotents need no operator: a map commutes with
them iff it preserves weights (Green, LNM 830).  A weight-preserving
linear map commuting with every ref of generator_refs commutes with all
of S(n, D).

Operators are built lazily as sparse matrices on E^(x)D and kept for the
space's lifetime; the first matrix stored for a ref is the one every
caller gets.  A stack of T operators is one (n^D x T n^D) matrix whose
row j holds the images of basis vector j (see fp): ("gens",) stacks
generator_refs, ("words", c) the words of Gamma^c, the xi-basis elements
carrying its canonical generator to its basis vectors t at dominant
weights, in basis order (("words", c, "all") for every t).  A single
("div", a, b, r) is a stack of one, the transpose of its matrix.  The
flip xi_{I,J} -> xi_{J,I} needs no stack: on E^(x)D it is the
transpose, which is how a Kuhn dual acts (see modules).
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

import numpy as np

from . import fp

OpRef = tuple


def gamma_index(comp: tuple[int, ...], n: int, letters: np.ndarray) -> np.ndarray:
    """The basis index in Gamma^comp of each row of a (rows, |comp|)
    letter array: block a, the letters word t pairs with letter a, holds
    comp[a] places, in any order."""
    idx = np.zeros(letters.shape[0], dtype=np.int64)
    start = 0
    for part in comp:
        if not part:
            continue
        basis = np.array(list(combinations_with_replacement(range(n), part)))
        weights = n ** np.arange(part - 1, -1, -1)
        block = np.sort(letters[:, start: start + part], axis=1)
        start += part
        idx = idx * len(basis) + np.searchsorted(basis @ weights, block @ weights)
    return idx


def comp_of_partition(lam: tuple[int, ...], n: int) -> tuple[int, ...]:
    """lam padded with zeros to n parts, the weight it names."""
    return tuple(lam) + (0,) * (n - len(lam))


def is_dominant(comp: tuple[int, ...]) -> bool:
    """Parts never increase: a partition, padded with zeros."""
    return all(a >= b for a, b in zip(comp, comp[1:]))


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All compositions of `total` into exactly `parts` nonnegative parts."""
    out: list[tuple[int, ...]] = []

    def rec(rem, slots, prefix):
        if slots == 1:
            out.append(tuple(prefix) + (rem,))
            return
        for v in range(rem, -1, -1):
            rec(rem - v, slots - 1, prefix + [v])

    if parts == 0:
        return [()] if total == 0 else []
    rec(total, parts, [])
    return out


class TensorSpace:
    """E^(x)D for E = k^n over F_p: its basis, the memoized Schur-algebra
    operators named by refs, and the place permutations."""

    def __init__(self, p: int, n: int, D: int):
        if D < 1 or n < D:
            raise ValueError("need D >= 1 and n >= D for a faithful evaluation")
        self.p = p
        self.n = n
        self.D = D
        self.dim = n ** D
        self._ops: dict[OpRef, fp.CSR] = {}
        # letters[idx] is the decoded multi-index of basis vector idx
        self.letters = np.zeros((self.dim, D), dtype=np.int64)
        idx = np.arange(self.dim)
        for s in range(D - 1, -1, -1):
            self.letters[:, s] = idx % n
            idx //= n

    # -- operator construction -------------------------------------------

    def _build(self, ref: OpRef) -> fp.CSR:
        kind = ref[0]
        if kind == "div":
            return self._build_divided(*ref[1:])
        if kind == "gens":  # every generator, stacked in generator_refs order
            return fp.hstack([self.matrix(r) for r in self.generator_refs()],
                             self.dim, self.p)
        if kind == "words":
            return self._build_words(ref[1], every=len(ref) > 2)
        raise ValueError(f"unknown operator ref {ref!r}")

    def _build_words(self, comp: tuple[int, ...], every: bool) -> fp.CSR:
        """Every word of Gamma^comp stacked, from one decode of the space.

        Against the column J0 = 0^c_0 1^c_1 ..., each row I0 lies in
        exactly one word: sort I0's letters on each block of J0's slots and
        encode them as a basis vector of Gamma^comp.  Every other column of
        weight comp is a place permutation of J0, and its entries sit at
        the same permutations of the rows.
        """
        n, D, N = self.n, self.D, self.dim
        comp = comp_of_partition(comp, n)
        j0 = np.repeat(np.arange(n), comp)
        if j0.size != D:
            raise ValueError(f"{comp} is not a composition of {D}")
        word = gamma_index(comp, n, self.letters)
        content = (self.letters[:, :, None] == np.arange(n)).sum(axis=1)
        rows0 = (np.arange(N) if every
                 else np.flatnonzero((np.diff(content, axis=1) <= 0).all(axis=1)))
        kept = fp.distinct(word[rows0])
        cols = np.flatnonzero((content == comp).all(axis=1))
        # slot s of column J carries slot inv[s] of J0, so (I, J) = sigma (I0, J0)
        inv = np.argsort(np.argsort(self.letters[cols], axis=1, kind="stable"),
                         axis=1)
        place = n ** np.arange(D - 1, -1, -1)
        images = (np.searchsorted(kept, word[rows0])[:, None] * N
                  + self.letters[rows0][:, inv] @ place)
        return fp.CSR.from_coo(np.broadcast_to(cols, images.shape).reshape(-1),
                               images.reshape(-1), np.ones(images.size, dtype=np.int64),
                               (N, kept.size * N), self.p)

    def _build_divided(self, a: int, b: int, r: int) -> fp.CSR:
        """Divided power of the root mover b -> a: sum over r-subsets of
        the slots holding letter b, replaced by a.  Each r-subset of slot
        positions moves every basis vector holding b at all of them."""
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise IndexError(f"div letter out of range: {(a, b)}")
        if a == b or not 1 <= r <= self.D:
            raise ValueError(f"div needs a != b and 1 <= r <= {self.D}: "
                             f"{(a, b, r)}")
        place = self.n ** np.arange(self.D - 1, -1, -1)
        holds_b = self.letters == b
        rows, cols = [], []
        for subset in combinations(range(self.D), r):
            subset = list(subset)
            idx = np.flatnonzero(holds_b[:, subset].all(axis=1))
            rows.append(idx + (a - b) * int(place[subset].sum()))
            cols.append(idx)
        rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        cols = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
        # distinct subsets shift a column by distinct sums of powers of n,
        # so each entry is met once and is 1
        return fp.CSR.from_coo(cols, rows, np.ones(rows.size, dtype=np.int64),
                               (self.dim, self.dim), self.p)

    def matrix(self, ref: OpRef) -> fp.CSR:
        """The sparse matrix of an operator, kept per space and ref."""
        hit = self._ops.get(ref)
        if hit is not None:
            return hit
        return self._ops.setdefault(ref, self._build(ref))

    def place_permutation(self, sigma: tuple[int, ...]) -> fp.CSR:
        """Permutation matrix of e_j -> e_{j o sigma^-1}: the letter in
        slot s moves to slot sigma[s]."""
        if sorted(sigma) != list(range(self.D)):
            raise ValueError(f"{sigma} is not a permutation of {self.D} letters")
        place = self.n ** np.arange(self.D - 1, -1, -1)
        rows = self.letters[:, np.argsort(sigma)] @ place
        return fp.CSR.from_coo(rows, np.arange(self.dim),
                               np.ones(self.dim, dtype=np.int64),
                               (self.dim, self.dim), self.p)

    # -- basis and generators ---------------------------------------------

    def generator_refs(self) -> list[OpRef]:
        """Refs of the divided powers ("div", a, b, p^k) of the simple root
        movers, |a - b| = 1, for every p^k <= D: with the weight
        idempotents they generate S(n, D) as an algebra.  None when n = 1."""
        powers = [self.p ** k for k in range(self.D.bit_length())
                  if self.p ** k <= self.D]
        return [("div", a, b, q) for a in range(self.n) for b in (a - 1, a + 1)
                if 0 <= b < self.n for q in powers]


_SPACES: dict[tuple[int, int, int], TensorSpace] = {}


def get_space(p: int, n: int, D: int) -> TensorSpace:
    """Shared TensorSpace instances so operator caches are reused."""
    key = (p, n, D)
    hit = _SPACES.get(key)
    if hit is not None:
        return hit
    return _SPACES.setdefault(key, TensorSpace(p, n, D))
