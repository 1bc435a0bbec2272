import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from csr_reference import assert_canonical, assert_same, identity
from spfext import fp
from spfext.functors import evaluate
from spfext.modules import check_equivariance


def test_rref_identity_fixed():
    eye = np.eye(3, dtype=np.int64)
    assert (fp.row_reduce(eye, 2)[0] == eye).all()


def test_rref_rank_one_mod2():
    out = fp.row_reduce([[1, 1], [1, 1]], 2)[0]
    assert out.tolist() == [[1, 1], [0, 0]]


def test_rref_mod3():
    out = fp.row_reduce([[2, 1], [1, 2]], 3)[0]
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
            assert not fp.residual(rows, piv, v, p).any()
        for v in a:
            assert not fp.residual(reduced[: len(pivots)], pivots, v % p, p).any()


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
    """The double-loop kernel fill from the reduced columns in their own
    order, brought to RREF by a second elimination: the reference."""
    a = np.asarray(a, dtype=np.int64) % p
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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_loop_reference_on_low_rank_matrices(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    rows, cols, rank = (data.draw(st.integers(1, 9)) for _ in range(3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = (rng.integers(0, p, (rows, rank)) @ rng.integers(0, p, (rank, cols))) % p
    a[:, rng.random(cols) < 0.2] = 0
    got, want = fp.kernel_basis(a, p), _kernel_by_loop(a, p)
    assert got.shape == want.shape
    assert (got == want).all()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_compact_kernel_matches_loop_reference(data):
    """fp.kernel's free columns, pivots and coefficients against the loop
    reference, on empty, zero, full-rank and low-rank matrices: the free
    columns are the reference's pivots, each basis row is the unit vector
    at its free column plus its coefficients at the pivots, and the
    materialized rows are the reference."""
    p = data.draw(st.sampled_from([2, 3, 5, 193]), label="p")
    kind = data.draw(st.sampled_from(["empty", "zero", "full", "low"]),
                     label="kind")
    rows, cols = (data.draw(st.integers(0, 9)) for _ in range(2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "empty":
        a = fp.zeros(0, cols)
    elif kind == "zero":
        a = fp.zeros(rows, cols)
    elif kind == "full":
        # an invertible upper-triangular block beside random columns
        a = np.triu(rng.integers(0, p, (rows, rows)), 1)
        a[np.arange(rows), np.arange(rows)] = rng.integers(1, p, rows)
        a = np.concatenate([a, rng.integers(0, p, (rows, cols))], axis=1)
        a = a[:, rng.permutation(a.shape[1])]
    else:
        rank = data.draw(st.integers(1, 4), label="rank")
        a = (rng.integers(0, p, (rows, rank))
             @ rng.integers(0, p, (rank, cols))) % p
    n = a.shape[1]
    free, pivots, coef = fp.kernel(a, p)
    want = _kernel_by_loop(a, p)
    assert free.tolist() == [int(r.nonzero()[0][0]) for r in want]
    assert sorted(free.tolist() + pivots.tolist()) == list(range(n))
    assert (np.diff(pivots) > 0).all()
    assert coef.shape == (pivots.size, free.size)
    assert coef.min(initial=0) >= 0 and coef.max(initial=0) < p
    assert (want[:, free] == np.eye(free.size, dtype=np.int64)).all()
    assert (want[:, pivots].T == coef).all()
    if kind == "full":
        assert pivots.size == a.shape[0]
    if kind in ("empty", "zero"):
        assert free.tolist() == list(range(n))
    got = fp.kernel(a, p).rows()
    assert got.shape == want.shape and (got == want).all()
    picked = rng.permutation(free.size)[: free.size // 2]
    assert (fp.kernel(a, p).rows(picked) == want[picked]).all()


def _sum_and_meet_dims(a, b, p):
    """dim (A + B) = rank [A; B] and dim (A cap B) = dim ker [A^T | -B^T]
    for RREF bases A and B: xA = yB exactly when (x, y) is in that kernel,
    and independent rows make x -> xA injective."""
    a, b = fp.basis_rows(a, p)[0], fp.basis_rows(b, p)[0]
    total = fp.rank(np.concatenate([a, b]), p)
    meet = fp.kernel_basis(np.concatenate([a.T, -b.T], axis=1), p).shape[0]
    return total, meet


def test_subspace_sum_intersection_dims():
    a, b = [[1, 1, 0]], [[0, 1, 1]]
    assert _sum_and_meet_dims(a, b, 2) == (2, 0)
    # brute force over all 8 vectors of F_2^3
    rows_a, piv_a = fp.basis_rows(a, 2)
    rows_b, piv_b = fp.basis_rows(b, 2)
    members = [v for v in np.ndindex(2, 2, 2)
               if not fp.residual(rows_a, piv_a, np.array(v), 2).any()
               and not fp.residual(rows_b, piv_b, np.array(v), 2).any()]
    assert members == [(0, 0, 0)]


def test_subspace_self_operations():
    a = [[1, 0], [0, 1]]
    assert (fp.basis_rows(a + a, 2)[0] == fp.basis_rows(a, 2)[0]).all()
    assert _sum_and_meet_dims(a, a, 2) == (2, 2)


def test_subspace_complementary_lines():
    assert _sum_and_meet_dims([[1, 0]], [[0, 1]], 2) == (2, 0)


def test_subspace_dimension_formula_random():
    rng = np.random.default_rng(3)
    for p in (2, 3):
        for _ in range(40):
            a = rng.integers(0, p, size=(3, 6))
            b = rng.integers(0, p, size=(3, 6))
            total, meet = _sum_and_meet_dims(a, b, p)
            assert fp.rank(a, p) + fp.rank(b, p) == total + meet


def test_quotient_coords():
    # coordinates mod a subspace in its canonical complement, the unit
    # vectors at the non-pivot columns: the residual gathered there
    rows, pivots = fp.basis_rows([[1, 0, 1]], 2)
    free = [c for c in range(3) if c not in pivots]
    assert fp.residual(rows, pivots, np.array([1, 1, 0]), 2)[free].tolist() == [1, 1]
    assert not fp.residual(rows, pivots, np.array([1, 0, 1]), 2)[free].any()


# -- row reduction and span extension against their loop references -----------


def _row_reduce_by_loop(a, p):
    """Whole-row int64 elimination, the loop `row_reduce` replaced: the
    reference for its narrow storage and column-restricted updates."""
    a = np.asarray(a, dtype=np.int64) % p
    m, n = a.shape
    pivots = []
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


@st.composite
def fp_matrices(draw, p, max_rows=9, max_cols=10):
    """Matrices over F_p with 0 rows, 0 columns or one row among them, and
    of every rank up to full, zero columns included."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    rank = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = (rng.integers(0, p, (rows, rank)) @ rng.integers(0, p, (rank, cols))) % p
    if cols:
        a[:, rng.random(cols) < 0.2] = 0
    return a


PACKING_WIDTHS = [0, 1, 7, 8, 9, 63, 64, 65, 130]


def _packing_matrix(rng, cols, kind, density):
    """A matrix over F_2 of `cols` columns: tall (more rows than columns),
    wide, zero, low-rank or full-rank."""
    if kind == "tall":
        rows = cols + int(rng.integers(1, 100))
    elif kind == "wide":
        rows = int(rng.integers(1, max(cols // 2, 1) + 1))
    else:
        rows = int(rng.integers(0, 200))
    if kind in ("tall", "wide"):
        return (rng.random((rows, cols)) < density).astype(np.int64)
    if kind == "zero":
        return fp.zeros(rows, cols)
    if kind == "low":
        rank = int(rng.integers(1, 6))
        return (rng.integers(0, 2, (rows, rank))
                @ (rng.random((rank, cols)) < density)) % 2
    # full rank: unit upper-triangular rows beside random columns, in a
    # random column order, then random sums of those rows, rows shuffled
    rank = min(rows, cols)
    a = np.triu(rng.random((rank, rank)) < density, 1).astype(np.int64)
    a[np.arange(rank), np.arange(rank)] = 1
    a = np.concatenate([a, rng.random((rank, cols - rank)) < density], axis=1)
    a = a[:, rng.permutation(cols)]
    below = (rng.integers(0, 2, (rows - rank, rank)) @ a) % 2
    return np.concatenate([a, below])[rng.permutation(rows)]


def _assert_row_reduce_is_loop(a, p):
    got, pivots = fp.row_reduce(a, p)
    want, want_pivots = _row_reduce_by_loop(a, p)
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert pivots == want_pivots


@pytest.mark.parametrize("p", [2, 3, 5, 7, 193])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_row_reduce_matches_loop_reference(p, data):
    _assert_row_reduce_is_loop(data.draw(fp_matrices(p), label="a"), p)


@pytest.mark.parametrize("cols", PACKING_WIDTHS)
def test_row_reduce_matches_loop_reference_at_packing_widths(cols):
    """At p = 2, at widths around one byte, one word and two words:
    tall, wide, zero, low-rank and full-rank matrices, sparse and dense.
    A full-rank matrix with more rows than columns has later rows in the
    span of its pivot rows, which the packed elimination does not read."""
    rng = np.random.default_rng(cols)
    for kind in ("tall", "wide", "zero", "low", "full"):
        for density in (0.05, 0.5):
            _assert_row_reduce_is_loop(_packing_matrix(rng, cols, kind,
                                                       density), 2)


def test_row_reduce_storage_by_prime():
    # odd primes only, since p = 2 packs its rows into ints; 193 is the
    # least prime whose products no longer fit int16 storage
    assert [fp._storage(p) for p in (3, 181, 193)] == [
        np.int16, np.int16, np.int64]


@pytest.mark.parametrize("p", [2, 3, 193])
def test_row_reduce_reads_its_input_mod_p(p):
    """Entries outside [0, p) are read mod p, so a matrix of multiples of
    p has no pivots and reduces to int64 zeros, in every storage."""
    a = np.array([[p, -p, 0], [2 * p, 0, -3 * p]])
    got, pivots = fp.row_reduce(a, p)
    assert pivots == [] and got.dtype == np.int64 and got.shape == (2, 3)
    assert not got.any()
    got, pivots = fp.row_reduce(a + [[1, 0, -1], [0, 0, 0]], p)
    assert pivots == [0] and got.tolist() == [[1, 0, p - 1], [0, 0, 0]]


@pytest.mark.parametrize("p", [2, 3, 5, 193])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extend_rref_matches_basis_rows_of_the_concatenation(p, data):
    old = data.draw(fp_matrices(p, max_cols=8), label="old")
    cols = old.shape[1]
    rows, pivots = fp.basis_rows(old, p)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["random", "in span", "repeated"]))
    if kind == "random":
        new = rng.integers(0, p, (data.draw(st.integers(1, 4)), cols))
    elif kind == "in span":
        new = (rng.integers(0, p, (3, rows.shape[0])) @ rows) % p
    else:
        row = rng.integers(0, p, (1, cols))
        new = np.concatenate([row, row, old[:1] if old.size else row])
    got, got_pivots = fp.extend_rref(rows, pivots, new, p)
    want, want_pivots = fp.basis_rows(np.concatenate([rows, new]), p)
    assert got_pivots == want_pivots
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(-5, 5), max_size=20))
def test_distinct_matches_unique(values):
    a = np.array(values, dtype=np.int64)
    got = fp.distinct(a)
    assert got.dtype == a.dtype
    assert got.tolist() == np.unique(a).tolist()


def test_extend_rref_of_an_empty_span():
    new = np.array([[0, 2, 1], [0, 1, 2]])
    got, pivots = fp.extend_rref(fp.zeros(0, 3), [], new, 3)
    assert got.tolist() == [[0, 1, 2]]
    assert pivots == [1]


# -- fp.CSR against scipy -----------------------------------------------------
#
# Every operation is checked against scipy at p in {2, 3, 5}: the result
# must be canonical and, array for array, equal to scipy's answer made
# canonical mod p (csr_reference.assert_same).  Shapes may be empty.

CSR_PRIMES = [2, 3, 5]


@st.composite
def coo_entries(draw, p, rows=None, cols=None, max_dim=6, large=False):
    """(rows, cols, data, shape) of a COO matrix with repeated positions,
    entries that vanish mod p and entries outside [0, p).  A large draw
    is sparse, up to 60 x 60 with at most 200 entries: some positions come
    twice with entries that cancel mod p, and the entries may come sorted
    by position already."""
    top = 60 if large else max_dim
    m = draw(st.integers(0, top)) if rows is None else rows
    n = draw(st.integers(0, top)) if cols is None else cols
    most = min(3 * m * n, 200 if large else 3 * m * n)
    count = draw(st.integers(0, most)) if m * n else 0
    pos = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)) if m * n else st.nothing()
    at = draw(st.lists(pos, min_size=count, max_size=count))
    data = draw(st.lists(st.integers(-2 * p, 3 * p), min_size=count, max_size=count))
    if large:
        cancel = draw(st.integers(0, count))
        at, data = at + at[:cancel], data + [-x for x in data[:cancel]]
        if draw(st.booleans()):
            pairs = sorted(zip(at, data))
            at, data = [a for a, _ in pairs], [x for _, x in pairs]
    r = np.array([a for a, _ in at], dtype=np.int64)
    c = np.array([b for _, b in at], dtype=np.int64)
    return r, c, np.array(data, dtype=np.int64), (m, n)


@st.composite
def csr_pairs(draw, p, **dims):
    """(fp.CSR, the scipy matrix it was built from)."""
    r, c, data, shape = draw(coo_entries(p, **dims))
    return fp.CSR.from_coo(r, c, data, shape, p), sparse.csr_matrix(
        (data, (r, c)), shape=shape)


@pytest.mark.parametrize("p", CSR_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_csr_from_coo_sums_duplicates_and_drops_zeros(p, data):
    r, c, values, shape = data.draw(coo_entries(p, large=data.draw(st.booleans())))
    got = fp.CSR.from_coo(r, c, values, shape, p)
    assert_same(got, sparse.coo_matrix((values, (r, c)), shape=shape))
    want = np.zeros(shape, dtype=np.int64)
    np.add.at(want, (r, c), values)
    assert (got.toarray() == want % p).all()
    assert got.nnz == np.count_nonzero(want % p)


@pytest.mark.parametrize("p", CSR_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_csr_from_dense_and_identity(p, data):
    a, want = data.draw(csr_pairs(p))
    dense = want.toarray()
    assert_same(fp.CSR.from_dense(dense, p), dense)
    assert (fp.CSR.from_dense(dense, p).toarray() == dense % p).all()
    k = data.draw(st.integers(0, 5))
    assert_same(identity(k, p), sparse.identity(k, dtype=np.int64))


@pytest.mark.parametrize("p", CSR_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_csr_products(p, data):
    large = data.draw(st.booleans())
    a, sa = data.draw(csr_pairs(p, large=large))
    b, sb = data.draw(csr_pairs(p, rows=a.shape[1], large=large))
    assert_same(a @ b, sa @ sb)
    x = np.array(data.draw(st.lists(st.integers(-p, 2 * p), min_size=a.shape[0] * 3,
                                    max_size=a.shape[0] * 3))).reshape(3, a.shape[0])
    for v in (x, x[:1], x[:0]):
        got = v @ a
        assert got.dtype == np.int64 and got.shape == (v.shape[0], a.shape[1])
        assert (got == (v @ sa) % p).all()
    for bad in (np.zeros((2, a.shape[0] + 1), dtype=np.int64), x[0]):
        with pytest.raises(ValueError):
            bad @ a
    with pytest.raises(ValueError):
        a @ identity(a.shape[1] + 1, p)


@pytest.mark.parametrize("p", CSR_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_csr_sum_and_difference(p, data):
    a, sa = data.draw(csr_pairs(p))
    b, sb = data.draw(csr_pairs(p, rows=a.shape[0], cols=a.shape[1]))
    assert_same(a + b, sa + sb)
    assert_same(a - b, sa - sb)
    assert (a - a).nnz == 0


@pytest.mark.parametrize("p", CSR_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_csr_transposes_and_reshape(p, data):
    dim = data.draw(st.integers(1, 3))
    blocks = data.draw(st.integers(0, 3))
    a, sa = data.draw(csr_pairs(p, rows=dim, cols=blocks * dim))
    assert_same(a.T, sa.T)
    assert_same(a.reshape(blocks, dim * dim), sa.reshape(blocks, dim * dim))
    assert_same(a.reshape(blocks * dim * dim, 1), sa.reshape(-1, 1))


@pytest.mark.parametrize("p", CSR_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_csr_row_and_column_takes(p, data):
    a, sa = data.draw(csr_pairs(p))
    m, n = a.shape
    rows = data.draw(st.lists(st.integers(0, m - 1), max_size=8) if m else st.just([]))
    assert_same(a[np.array(rows, dtype=np.int64)], sa[rows] if rows else sa[:0])
    start, stop = sorted(data.draw(st.lists(st.integers(0, m), min_size=2, max_size=2)))
    assert_same(a[start:stop], sa[start:stop])
    cols = sorted(data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set())))
    assert_same(a.take_cols(cols), sa[:, cols] if cols else sa[:, :0])


@pytest.mark.parametrize("cols", [[1, 0], [0, 2, 2], [-1, 0], [0, 3]])
def test_csr_take_cols_refuses_columns_out_of_order_or_range(cols):
    a = identity(3, 2)
    with pytest.raises(ValueError, match="strictly increasing"):
        a.take_cols(cols)


@pytest.mark.parametrize("p", CSR_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_csr_kron_diagonal_copies_and_hstack(p, data):
    a, sa = data.draw(csr_pairs(p, max_dim=4))
    b, sb = data.draw(csr_pairs(p, max_dim=4))
    assert_same(fp.kron(a, b), sparse.kron(sa, sb, format="csr"))
    copies = data.draw(st.integers(0, 3))
    assert_same(fp.kron(identity(copies, p), a),
                sparse.kron(sparse.identity(copies, dtype=np.int64), sa))
    for copies in range(4):
        assert_same(fp.diagonal_copies(a, copies),
                    sparse.kron(sparse.identity(copies, dtype=np.int64), sa))
    c, sc = data.draw(csr_pairs(p, rows=a.shape[0]))
    assert_same(fp.hstack([a, c, a], a.shape[0], p), sparse.hstack([sa, sc, sa]))
    empty = fp.hstack([], a.shape[0], p)
    assert empty.shape == (a.shape[0], 0)
    assert_same(empty, sparse.csr_matrix((a.shape[0], 0), dtype=np.int64))


def frozen(*arrays):
    """Copies of the arrays that refuse every write."""
    out = [np.array(a) for a in arrays]
    for a in out:
        a.setflags(write=False)
    return out


def frozen_csr(mat):
    return fp.CSR(*frozen(mat.indptr, mat.indices, mat.data), mat.shape, mat.p)


@pytest.mark.parametrize("p", CSR_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_csr_operations_never_write_into_their_operands(p, data):
    """Memoized stacks are shared, so no kernel may write into an operand:
    every operation runs on operands whose arrays refuse writes, and
    gives the same arrays as on writable copies."""
    dim = data.draw(st.integers(1, 3))
    a = data.draw(csr_pairs(p, rows=dim, cols=dim * data.draw(st.integers(0, 3))))[0]
    b = data.draw(csr_pairs(p, rows=a.shape[1], large=data.draw(st.booleans())))[0]
    c = data.draw(csr_pairs(p, rows=a.shape[0], cols=a.shape[1]))[0]
    x = np.arange(2 * a.shape[0], dtype=np.int64).reshape(2, a.shape[0])
    rows = np.array([dim - 1, 0], dtype=np.int64)
    cols = np.arange(0, a.shape[1], 2)

    def every_operation(a, b, c, x, rows, cols):
        r, k, v = a.coo()
        return [fp.CSR.from_coo(r, k, v, a.shape, p), fp.CSR.from_dense(x, p),
                a @ b, x @ a, a + c, a - c, a[rows], a[0:dim], a.take_cols(cols),
                a.T, a.reshape(a.shape[1] // dim, dim * dim),
                fp.hstack([a, c], dim, p), fp.kron(a, c), fp.diagonal_copies(a, 2),
                a.toarray()]

    wants = every_operation(a, b, c, x, rows, cols)
    gots = every_operation(frozen_csr(a), frozen_csr(b), frozen_csr(c),
                           *frozen(x, rows, cols))
    for want, got in zip(wants, gots):
        if isinstance(want, fp.CSR):
            assert_canonical(got)
            assert got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("p", CSR_PRIMES)
def test_csr_empty_generator_stack_at_n_1(p):
    """At n = 1 there are no generators: ("gens",) has no columns, and
    every operation on it keeps the empty shape."""
    mod = evaluate("I", p)
    refs, gens = mod.generator_action()
    assert refs == [] and gens.shape == (1, 0)
    assert_canonical(gens)
    assert_same(gens, sparse.csr_matrix((1, 0), dtype=np.int64))
    assert (np.ones((2, 1), dtype=np.int64) @ gens).shape == (2, 0)
    assert (identity(1, p) @ gens).shape == (1, 0)
    assert gens.T.shape == (0, 1)
    assert fp.kron(identity(0, p), gens).shape == (0, 0)
    assert gens.toarray().shape == (1, 0) and gens[0:0].shape == (0, 0)
    assert gens.take_cols([]).shape == (1, 0)
    check_equivariance(np.eye(1, dtype=np.int64), mod, mod)
