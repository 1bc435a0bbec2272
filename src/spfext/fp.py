"""Exact linear algebra over prime fields F_p.

Dense matrices are numpy int64 arrays with every entry reduced into
[0, p).  Sparse operators are CSR, this module's compressed-row type,
with the same convention: every CSR is canonical, so equal matrices
have equal arrays, and every operation on CSRs returns a canonical CSR
without re-validating its input.  Where an output's order is known, it
is kept rather than sorted again: diagonal_copies tiles its input's
arrays, and take_cols, which takes strictly increasing columns only,
renumbers each kept entry where it stands.  A stack of T operators on
a space of dimension dim is one wide (dim x T dim) CSR whose row j holds
the images A_k e_j side by side, so v @ stack reads only the rows of v's
support; hstack builds such stacks, row gathers (stack[rows]) read
them, and kron joins two modules' bridges into a tensor product's.  Most
CSRs hold a few dozen entries, where numpy's fixed cost per call sets
the price, so each operation makes a small, fixed number of passes:
ndarray methods and slice comparisons (x[1:] != x[:-1]) rather than the
np.* wrappers, and cumulative sums written straight into row pointers.
No operation writes into an operand, since stacks are shared.  All
elimination routines pivot deterministically (leftmost nonzero column,
topmost row) so echelon forms are reproducible across runs and platforms.

Row reduction works in the narrowest storage that holds every
intermediate value exactly: booleans updated by XOR at p = 2, int16
while (p - 1)^2 + p < 2^15, int64 otherwise.  Each pivot updates only
the columns from its own rightwards, since the pivot row is zero left of
it.  The input is brought into storage with one copy, and an all-zero
input returns at once; whatever the storage, the result is int64.

A right null space is kept in the form one elimination of the reversed
columns leaves it (Kernel): its free columns, its pivot columns, and the
coefficient block at the pivots, with no (k x n) basis built; rows()
materializes the basis where one is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def distinct(a: np.ndarray) -> np.ndarray:
    """np.unique(a) for a 1-D a, without the numpy.ma import it makes."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


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
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("row_reduce expects a 2-d array")
    a = np.remainder(a, p, out=np.empty(a.shape, dtype=_storage(p)),
                     casting="unsafe")
    if not a.any():
        return zeros(*a.shape), []
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
                                - a[other, c][:, None] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return a.astype(np.int64, copy=False), pivots


def rank(a, p: int) -> int:
    return len(row_reduce(a, p)[1])


def basis_rows(a, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF rows spanning the row space of `a`, zero rows dropped."""
    reduced, pivots = row_reduce(a, p)
    return reduced[: len(pivots)], pivots


class Kernel(NamedTuple):
    """The right null space of an (m x n) matrix in the form its reversed
    elimination leaves it: row i of its RREF basis is the unit vector at
    free[i] plus coef[:, i] at the columns `pivots`.  Both column lists
    ascend, and together they are range(n)."""

    free: np.ndarray
    pivots: np.ndarray
    coef: np.ndarray

    def rows(self, which=slice(None)) -> np.ndarray:
        """The basis rows at `which`, a slice or an index array, dense."""
        free = self.free[which]
        out = zeros(free.size, self.free.size + self.pivots.size)
        out[np.arange(free.size), free] = 1
        out[:, self.pivots] = self.coef[:, which].T
        return out


def kernel(a, p: int) -> Kernel:
    """The right null space of `a` from one elimination: a column leads a
    kernel vector iff it lies in the span of the columns right of it, so
    reducing the columns in reverse order leaves free exactly the
    kernel's RREF pivots, and a free column's kernel row is minus that
    column of the reduced matrix at the pivots."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[1]
    reduced, rev_pivots = row_reduce(a[:, ::-1], p)
    is_pivot = np.zeros(n, dtype=bool)
    is_pivot[n - 1 - np.array(rev_pivots, dtype=np.int64)] = True
    free, pivots = (~is_pivot).nonzero()[0], is_pivot.nonzero()[0]
    # reduced row r has its pivot at column n - 1 - rev_pivots[r], so the
    # rows run down the pivots from the right
    coef = -reduced[:len(rev_pivots)][::-1, n - 1 - free] % p
    return Kernel(free, pivots, coef)


def kernel_basis(a, p: int) -> np.ndarray:
    """RREF rows spanning the right null space of `a`."""
    return kernel(a, p).rows()


def residual(rows: np.ndarray, pivots: list[int], v: np.ndarray, p: int) -> np.ndarray:
    """Reduce `v` (or a batch of row vectors) against an RREF basis,
    through the basis rows whose pivot `v` meets: a batch already reduced
    against part of the basis costs a product with the rest only."""
    coeff = v[..., list(pivots)]
    used = np.atleast_2d(coeff).any(axis=0).nonzero()[0]
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


@dataclass(frozen=True, eq=False)
class CSR:
    """A sparse (rows x cols) matrix over F_p in canonical compressed-row
    form: row r holds the columns indices[indptr[r]:indptr[r + 1]],
    ascending, with their entries data[...], each in [1, p).  No zero is
    stored and no position twice.  p is kept so that sums and products
    stay canonical.  The constructor trusts its arrays; from_coo and
    from_dense make a canonical CSR of anything."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]
    p: int

    @classmethod
    def from_coo(cls, rows, cols, data, shape, p: int) -> CSR:
        """The matrix whose entry at (r, c) is the sum of data[k] over the
        k with (rows[k], cols[k]) = (r, c), mod p: duplicates summed, zeros
        dropped, each row's columns sorted."""
        m, n = shape
        key = (np.asarray(rows, dtype=np.int64) * n
               + np.asarray(cols, dtype=np.int64))
        order = key.argsort()
        key = key[order]
        # the first of each run of equal keys, which are all >= 0
        first = np.concatenate((key[:1] >= 0, key[1:] != key[:-1])).nonzero()[0]
        data = np.add.reduceat(np.asarray(data, dtype=np.int64)[order],
                               first) % p
        keep = data.nonzero()[0]
        row, col = np.divmod(key[first[keep]], max(n, 1))
        return cls(_indptr(row, m), col, data[keep], (m, n), p)

    @classmethod
    def from_dense(cls, a, p: int) -> CSR:
        a = np.atleast_2d(np.asarray(a, dtype=np.int64) % p)
        row, col = a.nonzero()
        return cls(_indptr(row, a.shape[0]), col, a[row, col], a.shape, p)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, data) of the stored entries, in row-major order."""
        ptr = self.indptr
        return (np.arange(self.shape[0]).repeat(ptr[1:] - ptr[:-1]),
                self.indices, self.data)

    def toarray(self) -> np.ndarray:
        out = zeros(*self.shape)
        row, col, data = self.coo()
        out[row, col] = data
        return out

    __array_ufunc__ = None  # so that x @ csr calls __rmatmul__

    def __matmul__(self, other: CSR) -> CSR:
        """The product mod p."""
        if other.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        # each entry (r, k) meets row k of other: expand, then sum
        row, col, data = self.coo()
        starts = other.indptr[col]
        counts = other.indptr[col + 1] - starts
        at = _ranges(starts, counts)[0]
        return CSR.from_coo(row.repeat(counts), other.indices[at],
                            data.repeat(counts) * other.data[at],
                            (self.shape[0], other.shape[1]), self.p)

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        """x @ self mod p for a dense batch of rows x."""
        if x.ndim != 2 or x.shape[1] != self.shape[0]:
            raise ValueError(f"cannot multiply {x.shape} by {self.shape}")
        row, col, data = self.coo()
        out = np.zeros(x.shape[0] * self.shape[1], dtype=np.int64)
        np.add.at(out, (np.arange(x.shape[0])[:, None] * self.shape[1] + col).ravel(),
                  (x[:, row] * data).ravel())
        return out.reshape(x.shape[0], self.shape[1]) % self.p

    def __add__(self, other: CSR) -> CSR:
        (r1, c1, d1), (r2, c2, d2) = self.coo(), other.coo()
        return CSR.from_coo(np.concatenate([r1, r2]), np.concatenate([c1, c2]),
                            np.concatenate([d1, d2]), self.shape, self.p)

    def __sub__(self, other: CSR) -> CSR:
        return self + CSR(other.indptr, other.indices, self.p - other.data,
                          other.shape, self.p)

    def __getitem__(self, rows) -> CSR:
        """The rows at `rows`, a slice or an index array, in that order."""
        if isinstance(rows, slice):
            rows = np.arange(*rows.indices(self.shape[0]))
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        at, indptr = _ranges(starts, self.indptr[rows + 1] - starts)
        return CSR(indptr, self.indices[at], self.data[at],
                   (rows.size, self.shape[1]), self.p)

    def take_cols(self, cols) -> CSR:
        """The columns at `cols`, strictly increasing: each entry in a kept
        column moves to that column's position, so every row stays sorted."""
        cols = np.asarray(cols, dtype=np.int64)
        if cols.size and (cols[0] < 0 or cols[-1] >= self.shape[1]
                          or (cols[1:] <= cols[:-1]).any()):
            raise ValueError(f"take_cols needs strictly increasing columns "
                             f"of {self.shape[1]}")
        col = cols.searchsorted(self.indices)  # kept where it is found
        kept = (np.concatenate((cols, [-1]))[col] == self.indices).nonzero()[0]
        return CSR(kept.searchsorted(self.indptr), col[kept], self.data[kept],
                   (self.shape[0], cols.size), self.p)

    @property
    def T(self) -> CSR:
        row, col, data = self.coo()
        order = col.argsort(kind="stable")
        return CSR(_indptr(col[order], self.shape[1]), row[order], data[order],
                   self.shape[::-1], self.p)

    def reshape(self, rows: int, cols: int) -> CSR:
        """The same entries in row-major order, read as (rows x cols)."""
        row, col, data = self.coo()
        row, col = np.divmod(row * self.shape[1] + col, cols)
        return CSR(_indptr(row, rows), col, data, (rows, cols), self.p)


def _indptr(row: np.ndarray, rows: int) -> np.ndarray:
    """Row pointers of entries whose (sorted) rows are `row`."""
    ptr = np.zeros(rows + 1, dtype=np.int64)
    np.bincount(row, minlength=rows).cumsum(out=ptr[1:])
    return ptr


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, ptr): at lists starts[k], starts[k] + 1, ..., starts[k] +
    counts[k] - 1 for each k in turn, and run k fills at[ptr[k]:ptr[k + 1]]."""
    ptr = np.zeros(counts.size + 1, dtype=np.int64)
    counts.cumsum(out=ptr[1:])
    return np.arange(ptr[-1]) + (starts - ptr[:-1]).repeat(counts), ptr


def hstack(mats: list[CSR], rows: int, p: int) -> CSR:
    """The matrices, each `rows` tall, side by side."""
    shift = np.array([0] + [m.shape[1] for m in mats]).cumsum()
    none = [np.zeros(0, dtype=np.int64)]
    row = np.concatenate(none + [m.coo()[0] for m in mats])
    col = np.concatenate(none + [m.indices + s for m, s in zip(mats, shift)])
    data = np.concatenate(none + [m.data for m in mats])
    return CSR.from_coo(row, col, data, (rows, int(shift[-1])), p)


def diagonal_copies(a: CSR, copies: int) -> CSR:
    """kron(identity(copies), a): `copies` copies of `a` down the diagonal,
    tiled from a's arrays, copy k shifted by k * a.shape[1] columns."""
    m, n = a.shape
    shift = np.arange(copies)[:, None]
    indptr = np.concatenate([[0], (a.indptr[1:] + shift * a.nnz).reshape(-1)])
    return CSR(indptr, (a.indices + shift * n).reshape(-1),
               np.tile(a.data, copies), (copies * m, copies * n), a.p)


def kron(a: CSR, b: CSR) -> CSR:
    """The Kronecker product: row k of it is row k // b.rows of a times
    row k % b.rows of b.  Each row comes out sorted, and a product of
    units mod a prime is a unit, so no entry needs summing or dropping."""
    ra, rb = np.divmod(np.arange(a.shape[0] * b.shape[0]), b.shape[0])
    sa, sb = a.indptr[ra], b.indptr[rb]
    cb = b.indptr[rb + 1] - sb
    counts = (a.indptr[ra + 1] - sa) * cb
    at, indptr = _ranges(np.zeros_like(counts), counts)
    own = np.arange(ra.size).repeat(counts)
    i, j = np.divmod(at, cb[own])
    at, bt = sa[own] + i, sb[own] + j
    return CSR(indptr, a.indices[at] * b.shape[1] + b.indices[bt],
               a.data[at] * b.data[bt] % a.p,
               (ra.size, a.shape[1] * b.shape[1]), a.p)
