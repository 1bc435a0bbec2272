"""Exact linear algebra over prime fields F_p.

Dense matrices are numpy int64 arrays with every entry reduced into
[0, p).  Sparse operators use scipy CSR with the same convention.  All
elimination routines pivot deterministically (leftmost nonzero column,
topmost row) so echelon forms are reproducible across runs and
platforms.

Row reduction works in the narrowest storage that holds every
intermediate value exactly: booleans updated by XOR at p = 2, int16
while (p - 1)^2 + p < 2^15, int64 otherwise.  Each pivot updates only
the columns from its own rightwards, since the pivot row is zero left of
it.  Whatever the storage, the result is returned as int64.
"""

from __future__ import annotations

import numpy as np


def as_fp(a, p: int) -> np.ndarray:
    """Copy `a` into an int64 array with entries reduced mod p."""
    return np.array(a, dtype=np.int64) % p


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p.

    Routes through float64 BLAS when the unreduced product is exactly
    representable (always true for the small primes used here), which is
    much faster than numpy's int64 kernels on big blocks.
    """
    inner = a.shape[-1]
    if inner == 0:
        return zeros(a.shape[0], b.shape[-1])
    if (p - 1) * (p - 1) * inner < 2**53:
        c = a.astype(np.float64) @ b.astype(np.float64)
        return np.rint(c).astype(np.int64) % p
    return (a @ b) % p


def _storage(p: int):
    """The narrowest dtype row reduction at p can work in: entries stay
    in [0, p), and an update forms at most (p - 1)^2 in magnitude."""
    if p == 2:
        return np.bool_
    if (p - 1) * (p - 1) + p < 2**15:
        return np.int16
    return np.int64


def row_reduce(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Full reduced row echelon form; returns (matrix, pivot columns).

    The input shape is preserved (zero rows sink to the bottom).
    """
    a = as_fp(a, p)
    if a.ndim != 2:
        raise ValueError("row_reduce expects a 2-d array")
    a = a.astype(_storage(p), copy=False)
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        other = a[:, c].nonzero()[0]
        other = other[other != r]
        if p == 2:
            if other.size:
                a[other, c:] ^= a[r, c:]
        else:
            v = int(a[r, c])
            if v != 1:
                a[r, c:] = a[r, c:] * pow(v, -1, p) % p
            if other.size:
                a[other, c:] = (a[other, c:]
                                - np.outer(a[other, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a.astype(np.int64, copy=False), pivots


def rank(a, p: int) -> int:
    return len(row_reduce(a, p)[1])


def basis_rows(a, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF rows spanning the row space of `a`, zero rows dropped."""
    reduced, pivots = row_reduce(a, p)
    return reduced[: len(pivots)], pivots


def kernel_basis(a, p: int) -> np.ndarray:
    """RREF rows spanning the right null space of `a`, from one elimination:
    a column leads a kernel vector iff it lies in the span of the columns
    right of it, so reducing the columns in reverse order leaves free
    exactly the kernel's RREF pivots."""
    a = as_fp(a, p)
    _, n = a.shape
    reduced, rev_pivots = row_reduce(a[:, ::-1], p)
    pivots = [n - 1 - c for c in rev_pivots]
    free = sorted(set(range(n)) - set(pivots))
    if not free:
        return zeros(0, n)
    out = zeros(len(free), n)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = (-reduced[:len(pivots), ::-1][:, free].T) % p
    return out


def image_basis(a, p: int) -> np.ndarray:
    """RREF rows spanning the column space of `a`."""
    return basis_rows(as_fp(a, p).T, p)[0]


def residual(rows: np.ndarray, pivots: list[int], v: np.ndarray, p: int) -> np.ndarray:
    """Reduce `v` (or a batch of row vectors) against an RREF basis,
    through the basis rows whose pivot `v` meets: a batch already reduced
    against part of the basis costs a product with the rest only."""
    coeff = v[..., list(pivots)]
    used = np.flatnonzero(np.atleast_2d(coeff).any(axis=0))
    if not used.size:
        return v % p
    return (v - matmul(coeff[..., used], rows[used], p)) % p


def extend_rref(rows: np.ndarray, pivots: list[int], new: np.ndarray,
                p: int) -> tuple[np.ndarray, list[int]]:
    """The RREF basis of the span of `rows` and `new`, with its pivots,
    for `rows` an RREF basis with pivots `pivots`.

    Only what `new` adds is eliminated: its residual against the old
    pivots is reduced on its own, one product clears the new pivot
    columns from the old rows, and the rows are merged in pivot order.
    An RREF is unique, so this equals basis_rows([rows; new]).
    """
    added, new_pivots = basis_rows(residual(rows, pivots, new, p), p)
    if not new_pivots:
        return rows, pivots
    rows = (rows - matmul(rows[:, new_pivots], added, p)) % p
    merged = list(pivots) + new_pivots
    order = np.argsort(merged)
    return np.concatenate([rows, added])[order], [merged[k] for k in order]
