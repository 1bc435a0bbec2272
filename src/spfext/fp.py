"""Exact linear algebra over prime fields F_p.

Dense matrices are numpy int64 arrays with every entry reduced into
[0, p).  Sparse operators use scipy CSR with the same convention.  All
elimination routines pivot deterministically (leftmost nonzero column,
topmost row) so echelon forms are reproducible across runs and
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

# Operators at or below this density are stored sparse; tiny matrices
# stay dense regardless.
SPARSE_DENSITY = 0.05
_SPARSE_MIN_SIZE = 256


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


def row_reduce(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Full reduced row echelon form; returns (matrix, pivot columns).

    The input shape is preserved (zero rows sink to the bottom).
    """
    a = as_fp(a, p)
    if a.ndim != 2:
        raise ValueError("row_reduce expects a 2-d array")
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        v = int(a[r, c])
        if v != 1:
            a[r] = a[r] * pow(v, -1, p) % p
        other = np.flatnonzero(a[:, c])
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rref(a, p: int) -> np.ndarray:
    """Reduced row echelon form with the input's shape."""
    return row_reduce(a, p)[0]


def rank(a, p: int) -> int:
    return len(row_reduce(a, p)[1])


def basis_rows(a, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF rows spanning the row space of `a`, zero rows dropped."""
    reduced, pivots = row_reduce(a, p)
    return reduced[: len(pivots)], pivots


def kernel_basis(a, p: int) -> np.ndarray:
    """RREF rows spanning the right null space of `a`."""
    a = as_fp(a, p)
    _, n = a.shape
    reduced, pivots = row_reduce(a, p)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    if not free:
        return zeros(0, n)
    out = zeros(len(free), n)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = (-reduced[:len(pivots), free].T) % p
    return basis_rows(out, p)[0]


def solve(a, b, p: int) -> np.ndarray | None:
    """One exact solution x of a @ x = b, or None when none exists."""
    a = as_fp(a, p)
    b = as_fp(b, p).reshape(-1)
    if b.shape[0] != a.shape[0]:
        raise ValueError("shape mismatch in solve")
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    reduced, pivots = row_reduce(aug, p)
    n = a.shape[1]
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = reduced[r, n]
    return x


def image_basis(a, p: int) -> np.ndarray:
    """RREF rows spanning the column space of `a`."""
    return basis_rows(as_fp(a, p).T, p)[0]


def residual(rows: np.ndarray, pivots: list[int], v: np.ndarray, p: int) -> np.ndarray:
    """Reduce `v` (or a batch of row vectors) against an RREF basis."""
    if rows.shape[0] == 0:
        return v % p
    coeff = v[..., list(pivots)]
    return (v - matmul(coeff, rows, p)) % p


def in_rowspace(rows: np.ndarray, pivots: list[int], v: np.ndarray, p: int) -> bool:
    return not residual(rows, pivots, v, p).any()


@dataclass(frozen=True)
class Subspace:
    """Subspace of F_p^ambient_dim, canonically presented by RREF rows.

    Two Subspace values are equal as sets of vectors iff their basis
    matrices are identical, which `__eq__` relies on.
    """

    p: int
    ambient_dim: int
    basis: np.ndarray
    pivots: tuple[int, ...] = field(default=())

    @staticmethod
    def from_vectors(vectors, ambient_dim: int, p: int) -> "Subspace":
        arr = as_fp(vectors, p)
        if arr.size == 0:
            arr = zeros(0, ambient_dim)
        rows, pivots = basis_rows(arr, p)
        return Subspace(p, ambient_dim, rows, tuple(pivots))

    @staticmethod
    def zero(ambient_dim: int, p: int) -> "Subspace":
        return Subspace(p, ambient_dim, zeros(0, ambient_dim), ())

    @staticmethod
    def full(ambient_dim: int, p: int) -> "Subspace":
        return Subspace(p, ambient_dim, identity(ambient_dim),
                        tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.p == other.p and self.ambient_dim == other.ambient_dim
                and self.basis.shape == other.basis.shape
                and bool((self.basis == other.basis).all()))

    def __hash__(self):
        return hash((self.p, self.ambient_dim, self.basis.tobytes()))

    def contains(self, v) -> bool:
        v = as_fp(v, p=self.p).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return in_rowspace(self.basis, list(self.pivots), v, self.p)

    def _check_compatible(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.p != other.p:
            raise ValueError("ambient dimension mismatch between subspaces")

    def add(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        stacked = np.concatenate([self.basis, other.basis], axis=0)
        return Subspace.from_vectors(stacked, self.ambient_dim, self.p)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: reduce [A|A; B|0]; zero-left rows carry A cap B."""
        self._check_compatible(other)
        n = self.ambient_dim
        top = np.concatenate([self.basis, self.basis], axis=1)
        bot = np.concatenate([other.basis, zeros(other.dim, n)], axis=1)
        reduced, pivots = row_reduce(np.concatenate([top, bot], axis=0), self.p)
        inter = [reduced[r, n:] for r, c in enumerate(pivots) if c >= n]
        return Subspace.from_vectors(inter, n, self.p)

    def quotient_coords(self, v) -> np.ndarray:
        """Coordinates of `v` mod this subspace, in the canonical complement.

        The complement basis is the set of standard basis vectors at the
        non-pivot columns, so the coordinates are the residual of `v`
        gathered at those columns.
        """
        v = as_fp(v, self.p)
        res = residual(self.basis, list(self.pivots), v, self.p)
        pivot_set = set(self.pivots)
        free = [c for c in range(self.ambient_dim) if c not in pivot_set]
        return res[..., free]


def complement_basis(whole: Subspace, sub: Subspace, p: int) -> Subspace:
    """Canonical complement of `sub` inside `whole` (rows extending sub's RREF)."""
    whole._check_compatible(sub)
    stacked = np.concatenate([sub.basis, whole.basis], axis=0)
    reduced, pivots = row_reduce(stacked, p)
    extra = reduced[sub.dim: len(pivots)]
    return Subspace.from_vectors(extra, whole.ambient_dim, p)


class FpMatrix:
    """Matrix over F_p with automatic dense or sparse (CSR) storage.

    Construction picks CSR when the density is at or below
    SPARSE_DENSITY and the matrix is big enough to care; `storage` can
    force either representation.  Both representations give identical
    results for every operation, which the test suite checks.
    """

    def __init__(self, data, p: int, storage: str | None = None):
        self.p = int(p)
        if sparse.issparse(data):
            mat = data.tocsr().astype(np.int64)
            mat.data %= p
            mat.eliminate_zeros()
        else:
            mat = sparse.csr_matrix(as_fp(data, p))
        self.rows, self.cols = mat.shape
        size = self.rows * self.cols
        density = (mat.nnz / size) if size else 0.0
        if storage is None:
            storage = "sparse" if (density <= SPARSE_DENSITY
                                   and size >= _SPARSE_MIN_SIZE) else "dense"
        if storage == "sparse":
            self._csr, self._dense = mat, None
        elif storage == "dense":
            self._csr, self._dense = None, mat.toarray()
        else:
            raise ValueError(f"unknown storage {storage!r}")

    @property
    def is_sparse(self) -> bool:
        return self._csr is not None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        if self._csr is not None:
            return int(self._csr.nnz)
        return int(np.count_nonzero(self._dense))

    def toarray(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense.copy()
        return self._csr.toarray()

    def tocsr(self) -> sparse.csr_matrix:
        if self._csr is not None:
            return self._csr.copy()
        return sparse.csr_matrix(self._dense)

    def _check_field(self, other: "FpMatrix"):
        if self.p != other.p:
            raise ValueError("mixed moduli")

    def __matmul__(self, other):
        if isinstance(other, FpMatrix):
            self._check_field(other)
            if self.is_sparse and other.is_sparse:
                prod = self._csr @ other._csr
                prod.data %= self.p
                return FpMatrix(prod, self.p)
            return FpMatrix(matmul(self.toarray(), other.toarray(), self.p), self.p)
        out = (self.tocsr() if self.is_sparse else self._dense) @ as_fp(other, self.p)
        return np.asarray(out) % self.p

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_field(other)
        if self.is_sparse and other.is_sparse:
            s = self._csr + other._csr
            s.data %= self.p
            return FpMatrix(s, self.p)
        return FpMatrix((self.toarray() + other.toarray()) % self.p, self.p)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._check_field(other)
        return FpMatrix((self.toarray() - other.toarray()) % self.p, self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return (self.p == other.p and self.shape == other.shape
                and bool((self.toarray() == other.toarray()).all()))

    def __hash__(self):
        return hash((self.p, self.shape, self.toarray().tobytes()))

    def rank(self) -> int:
        return rank(self.toarray(), self.p)

    def rref(self) -> "FpMatrix":
        return FpMatrix(rref(self.toarray(), self.p), self.p)

    def kernel(self) -> Subspace:
        rows = kernel_basis(self.toarray(), self.p)
        return Subspace.from_vectors(rows, self.cols, self.p)

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return f"FpMatrix({self.rows}x{self.cols} mod {self.p}, {kind}, nnz={self.nnz})"
