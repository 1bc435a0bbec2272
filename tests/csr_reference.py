"""scipy as the reference for fp.CSR: conversions both ways, and the
canonical-form checks the tests share.

fp.CSR promises one form for each matrix: entries in [1, p), no stored
zero, no position twice and ascending columns within each row.  scipy
reaches the same form from any input by summing duplicates, reducing,
dropping zeros and sorting, so a matrix is right when its three arrays
equal scipy's canonical ones.
"""

import numpy as np
from scipy import sparse

from spfext import fp


def as_scipy(mat: fp.CSR) -> sparse.csr_matrix:
    return sparse.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)


def identity(n: int, p: int) -> fp.CSR:
    return fp.CSR.from_dense(np.eye(n, dtype=np.int64), p)


def canonical(mat, p: int) -> sparse.csr_matrix:
    """`mat` (dense, scipy sparse or fp.CSR) as a canonical scipy CSR mod p."""
    if isinstance(mat, fp.CSR):
        mat = as_scipy(mat)
    mat = sparse.csr_matrix(mat, dtype=np.int64, copy=True)
    mat.sum_duplicates()
    mat.data %= p
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def assert_canonical(mat: fp.CSR) -> None:
    assert isinstance(mat, fp.CSR)
    for name in ("indptr", "indices", "data"):
        assert getattr(mat, name).dtype == np.int64, name
    rows, cols = mat.shape
    assert mat.indptr.shape == (rows + 1,) and mat.indptr[0] == 0
    assert (np.diff(mat.indptr) >= 0).all()
    assert mat.indices.shape == mat.data.shape == (mat.nnz,)
    assert ((mat.data > 0) & (mat.data < mat.p)).all()
    assert ((mat.indices >= 0) & (mat.indices < cols)).all()
    row = np.repeat(np.arange(rows), np.diff(mat.indptr))
    assert (np.diff(row * cols + mat.indices) > 0).all()


def assert_same(got: fp.CSR, want) -> None:
    """got is canonical and, array for array, is want reduced mod got.p."""
    assert_canonical(got)
    ref = canonical(want, got.p)
    assert got.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
