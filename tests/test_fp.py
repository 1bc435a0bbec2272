import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spfext import fp
from spfext.fp import FpMatrix, Subspace


def test_rref_identity_fixed():
    eye = np.eye(3, dtype=np.int64)
    assert (fp.rref(eye, 2) == eye).all()


def test_rref_rank_one_mod2():
    out = fp.rref([[1, 1], [1, 1]], 2)
    assert out.tolist() == [[1, 1], [0, 0]]


def test_rref_mod3():
    out = fp.rref([[2, 1], [1, 2]], 3)
    assert out.tolist() == [[1, 2], [0, 0]]


def test_rref_idempotent_and_row_space_preserved():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        a = rng.integers(0, p, size=(6, 9))
        reduced, pivots = fp.row_reduce(a, p)
        again, again_pivots = fp.row_reduce(reduced, p)
        assert (reduced == again).all()
        assert pivots == again_pivots
        rows, piv = fp.basis_rows(a, p)
        for v in reduced[: len(pivots)]:
            assert fp.in_rowspace(rows, piv, v, p)
        for v in a:
            assert fp.in_rowspace(reduced[: len(pivots)], pivots, v % p, p)


def test_kernel_identity_is_zero():
    assert fp.kernel_basis(np.eye(4, dtype=np.int64), 3).shape == (0, 4)


def test_kernel_zero_matrix_is_full():
    k = fp.kernel_basis(np.zeros((2, 3), dtype=np.int64), 2)
    assert k.shape == (3, 3)
    assert fp.rank(k, 2) == 3


def test_kernel_single_relation_mod2():
    k = fp.kernel_basis([[1, 1]], 2)
    assert k.tolist() == [[1, 1]]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_nullity_random(p):
    rng = np.random.default_rng(p * 100 + 1)
    for shape in [(6, 9), (14, 11), (30, 25)]:
        for _ in range(200):
            a = rng.integers(0, p, size=shape)
            assert fp.rank(a, p) + fp.kernel_basis(a, p).shape[0] == shape[1]


def _kernel_by_loop(a, p):
    """The double-loop kernel fill, kept as the reference."""
    a = fp.as_fp(a, p)
    n = a.shape[1]
    reduced, pivots = fp.row_reduce(a, p)
    free = [c for c in range(n) if c not in set(pivots)]
    if not free:
        return fp.zeros(0, n)
    out = fp.zeros(len(free), n)
    for k, f in enumerate(free):
        out[k, f] = 1
        for r, c in enumerate(pivots):
            out[k, c] = (-int(reduced[r, f])) % p
    return fp.basis_rows(out, p)[0]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_fill_matches_loop_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    rows = data.draw(st.integers(0, 8))
    cols = data.draw(st.integers(1, 10))
    a = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                                    max_size=rows * cols)),
                 dtype=np.int64).reshape(rows, cols)
    got, want = fp.kernel_basis(a, p), _kernel_by_loop(a, p)
    assert got.shape == want.shape
    assert (got == want).all()


def test_solve_exact_or_outside_image():
    rng = np.random.default_rng(42)
    for p in (2, 3, 5):
        for _ in range(50):
            a = rng.integers(0, p, size=(7, 5))
            b = rng.integers(0, p, size=7)
            x = fp.solve(a, b, p)
            if x is not None:
                assert (fp.matmul(a, x.reshape(-1, 1), p).reshape(-1)
                        == b % p).all()
            else:
                image = fp.image_basis(a, p)
                rows, piv = fp.basis_rows(image, p)
                assert not fp.in_rowspace(rows, piv, b % p, p)


def test_subspace_sum_intersection_dims():
    a = Subspace.from_vectors([[1, 1, 0]], 3, 2)
    b = Subspace.from_vectors([[0, 1, 1]], 3, 2)
    total = a.add(b)
    meet = a.intersect(b)
    assert total.dim == 2 and meet.dim == 0
    # brute force over all 8 vectors of F_2^3
    members = [v for v in np.ndindex(2, 2, 2)
               if a.contains(np.array(v)) and b.contains(np.array(v))]
    assert members == [(0, 0, 0)]


def test_subspace_self_operations():
    a = Subspace.from_vectors([[1, 0], [0, 1]], 2, 2)
    assert a.add(a) == a
    assert a.intersect(a) == a


def test_subspace_complementary_lines():
    a = Subspace.from_vectors([[1, 0]], 2, 2)
    b = Subspace.from_vectors([[0, 1]], 2, 2)
    assert a.add(b).dim == 2
    assert a.intersect(b).dim == 0


def test_subspace_dimension_formula_random():
    rng = np.random.default_rng(3)
    for p in (2, 3):
        for _ in range(40):
            a = Subspace.from_vectors(rng.integers(0, p, size=(3, 6)), 6, p)
            b = Subspace.from_vectors(rng.integers(0, p, size=(3, 6)), 6, p)
            assert a.dim + b.dim == a.add(b).dim + a.intersect(b).dim


def test_subspace_ambient_mismatch():
    a = Subspace.from_vectors([[1, 0]], 2, 2)
    b = Subspace.from_vectors([[1, 0, 0]], 3, 2)
    with pytest.raises(ValueError):
        a.add(b)


def test_quotient_coords():
    k = Subspace.from_vectors([[1, 0, 1]], 3, 2)
    coords = k.quotient_coords(np.array([1, 1, 0]))
    # complement basis: unit vectors at the non-pivot columns 1 and 2
    assert coords.tolist() == [1, 1]
    assert k.quotient_coords(np.array([1, 0, 1])).tolist() == [0, 0]


def test_fpmatrix_auto_storage_and_equality():
    dense = np.zeros((32, 32), dtype=np.int64)
    dense[0, 0] = 1
    auto = FpMatrix(dense, 2)
    assert auto.is_sparse  # density 1/1024 under the threshold
    small = FpMatrix([[1, 0], [0, 1]], 2)
    assert not small.is_sparse
    forced = FpMatrix(dense, 2, storage="dense")
    assert auto == forced


def test_fpmatrix_sparse_dense_agree():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 3, size=(20, 20)) * (rng.random((20, 20)) < 0.05)
    b = rng.integers(0, 3, size=(20, 20)) * (rng.random((20, 20)) < 0.05)
    for p in (2, 3):
        ds = FpMatrix(a, p, storage="dense"), FpMatrix(a, p, storage="sparse")
        es = FpMatrix(b, p, storage="dense"), FpMatrix(b, p, storage="sparse")
        assert ds[0].rank() == ds[1].rank()
        assert (ds[0].rref().toarray() == ds[1].rref().toarray()).all()
        assert ds[0].kernel() == ds[1].kernel()
        assert (ds[0] @ es[0]) == (ds[1] @ es[1])
        assert (ds[0] + es[0]) == (ds[1] + es[1])


def test_fpmatrix_entries_reduced():
    m = FpMatrix([[5, -1], [7, 9]], 3)
    arr = m.toarray()
    assert arr.min() >= 0 and arr.max() < 3
    assert arr.tolist() == [[2, 2], [1, 0]]


def test_complement_basis():
    whole = Subspace.from_vectors([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, 2)
    sub = Subspace.from_vectors([[1, 1, 0]], 3, 2)
    comp = fp.complement_basis(whole, sub, 2)
    assert comp.dim == 2
    assert sub.add(comp) == whole
