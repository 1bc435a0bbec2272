import threading
from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest

from csr_reference import assert_same
from spfext import fp
from spfext.tensorspace import TensorSpace, compositions, get_space
from xi_reference import (distinct_permutations, encode, key_word, space_stack,
                          stack_block, weight_key, xi_block, xi_matrix)


def xi(ts, i, j):
    """The operator of the orbit of the index pair (i, j), one arrangement
    at a time."""
    return xi_matrix(ts, tuple(sorted(zip(i, j)))).toarray()


def test_distinct_permutations_counts():
    assert len(list(distinct_permutations((1, 1, 2)))) == 3
    assert len(list(distinct_permutations((1, 2, 3)))) == 6
    perms = list(distinct_permutations((2, 1, 1)))
    assert perms == sorted(perms)


def test_xi_key_canonical():
    # (0, 1; 1, 0) and (1, 0; 0, 1) are one orbit: one operator holding both
    ts = TensorSpace(2, 2, 2)
    op = xi(ts, (0, 1), (1, 0))
    assert (op == xi(ts, (1, 0), (0, 1))).all()
    e01, e10 = encode(ts, (0, 1)), encode(ts, (1, 0))
    assert op[e01, e10] == 1 and op[e10, e01] == 1 and op.sum() == 2


def test_xi_projector_on_mixed_weight():
    ts = TensorSpace(2, 2, 2)
    op = xi(ts, (0, 1), (0, 1))
    e01 = encode(ts, (0, 1))
    e10 = encode(ts, (1, 0))
    expected = np.zeros((4, 4), dtype=np.int64)
    expected[e01, e01] = 1
    expected[e10, e10] = 1
    assert (op == expected).all()


def test_xi_projector_on_pure_tensor():
    ts = TensorSpace(2, 2, 2)
    op = xi(ts, (0, 0), (0, 0))
    e00 = encode(ts, (0, 0))
    expected = np.zeros((4, 4), dtype=np.int64)
    expected[e00, e00] = 1
    assert (op == expected).all()


def test_xi_rank_one_collapse():
    ts = TensorSpace(2, 2, 2)
    op = xi(ts, (0, 0), (0, 1))
    e00, e01, e10 = encode(ts, (0, 0)), encode(ts, (0, 1)), encode(ts, (1, 0))
    assert op[e00, e01] == 1 and op[e00, e10] == 1
    assert op.sum() == 2


def test_xi_out_of_range():
    ts = TensorSpace(2, 2, 2)
    with pytest.raises(IndexError):
        xi(ts, (0, 2), (0, 0))


@pytest.mark.parametrize("ref,error", [
    (("div", 0, 5, 1), IndexError), (("div", 0, -1, 1), IndexError),
    (("div", 2, 0, 1), IndexError), (("div", 0, 1, 3), ValueError),
    (("div", 0, 1, 0), ValueError), (("div", 1, 1, 1), ValueError)])
def test_divided_power_refs_are_validated(ref, error):
    ts = TensorSpace(2, 2, 2)
    with pytest.raises(error):
        ts.matrix(ref)


def test_weight_idempotents():
    ts = TensorSpace(2, 2, 2)
    def idempotent(c):
        return xi_block(ts, weight_key(c)).toarray()

    assert fp.rank(idempotent((1, 1)), 2) == 2
    assert fp.rank(idempotent((2, 0)), 2) == 1
    total = sum(idempotent(c) for c in compositions(2, 2))
    assert ((total % 2) == np.eye(4, dtype=np.int64)).all()


def test_weight_idempotent_bad_composition():
    ts = TensorSpace(2, 2, 2)
    with pytest.raises(ValueError):
        ts.matrix(("words", (1, 0), "all"))


def test_place_permutation_basics():
    ts = TensorSpace(2, 2, 2)
    ident = ts.place_permutation((0, 1)).toarray()
    assert (ident == np.eye(4, dtype=np.int64)).all()
    swap = ts.place_permutation((1, 0)).toarray()
    e01, e10 = encode(ts, (0, 1)), encode(ts, (1, 0))
    assert swap[e10, e01] == 1 and swap[e01, e10] == 1
    assert swap[encode(ts, (0, 0)), encode(ts, (0, 0))] == 1


def test_place_permutation_group_law():
    ts = TensorSpace(2, 3, 3)
    cycle = ts.place_permutation((1, 2, 0))
    cubed = cycle @ cycle @ cycle
    assert (cubed.toarray() == np.eye(27, dtype=np.int64)).all()
    sigma = ts.place_permutation((1, 0, 2))
    tau = ts.place_permutation((0, 2, 1))
    # op(sigma) @ op(tau) is the operator of x -> sigma(tau(x))
    composed = (sigma @ tau).toarray()
    direct = ts.place_permutation((1, 2, 0)).toarray()
    assert (composed == direct).all()


def full_basis_keys(ts):
    """The keys of the xi-basis of S(n, D): multisets of D letter pairs."""
    pairs = [(a, b) for a in range(ts.n) for b in range(ts.n)]
    return list(combinations_with_replacement(pairs, ts.D))


def full_generator_refs(ts):
    """The full generating set, kept as the reference: every weight
    idempotent, then ("div", a, b, r) for a != b and 1 <= r <= D."""
    return ([("xi", weight_key(c)) for c in compositions(ts.D, ts.n)]
            + [("div", a, b, r) for a in range(ts.n) for b in range(ts.n)
               if a != b for r in range(1, ts.D + 1)])


def _xi_basis(ts):
    """The xi-basis, each element read as a block of a word stack."""
    return [xi_block(ts, key) for key in full_basis_keys(ts)]


@pytest.mark.parametrize("p,n,D", [(2, 2, 2), (3, 3, 3), (2, 3, 2), (3, 3, 2)])
def test_word_blocks_are_the_xi_basis(p, n, D):
    """Every xi_{I,J} is the word of some t in Gamma^{content(J)}: block t
    of ("words", content(J), "all") equals xi built one arrangement at a
    time."""
    ts = get_space(p, n, D)
    for key in full_basis_keys(ts):
        assert_same(xi_block(ts, key), xi_matrix(ts, key))


@pytest.mark.parametrize("n,count", [(2, 10), (3, 165), (4, 3876)])
def test_spanning_set_counts(n, count):
    ts = get_space(2, n, n)
    assert comb(n * n + n - 1, n) == count
    assert len(_xi_basis(ts)) == count


def test_xi_commutes_with_place_permutations_small():
    for p, n in [(2, 2), (3, 3)]:
        ts = get_space(p, n, n)
        perms = [ts.place_permutation(s)
                 for s in _transpositions(n)]
        for a in _xi_basis(ts):
            for perm in perms:
                left = (perm @ a).toarray() % p
                right = (a @ perm).toarray() % p
                assert (left == right).all()


def test_xi_commutes_with_place_permutations_sampled_d4():
    ts = get_space(2, 4, 4)
    perm = ts.place_permutation((1, 0, 2, 3))
    cycle = ts.place_permutation((1, 2, 3, 0))
    for key in full_basis_keys(ts)[::19]:
        a = xi_block(ts, key)
        for g in (perm, cycle):
            assert ((g @ a - a @ g).toarray() % 2 == 0).all()


def _transpositions(n):
    out = []
    for k in range(n - 1):
        sigma = list(range(n))
        sigma[k], sigma[k + 1] = sigma[k + 1], sigma[k]
        out.append(tuple(sigma))
    return out


@pytest.mark.parametrize("p,n", [(2, 2), (3, 3)])
def test_span_rank_equals_schur_dimension(p, n):
    ts = get_space(p, n, n)
    flat = np.stack([a.toarray().reshape(-1) for a in _xi_basis(ts)])
    assert fp.rank(flat, p) == comb(n * n + n - 1, n)


def test_sampled_products_stay_orbit_constant_d4():
    """At D = 4 full Gram checks are skipped; instead verify products of
    basis elements are constant on orbits of index pairs, i.e. lie in the
    span of the basis.  Every position counts, zeros included, so an orbit
    holding both a zero and a nonzero entry fails."""
    ts = get_space(2, 4, 4)
    keys = full_basis_keys(ts)
    sample = [xi_block(ts, keys[k]) for k in (13, 517, 1999, 3131)]
    n, letters = ts.n, ts.letters
    # orbit key of (r, c): the sorted multiset of letter pairs, in base n * n
    pairs = np.sort(letters[:, None, :] * n + letters[None, :, :], axis=2)
    orbit = (pairs * (n * n) ** np.arange(ts.D)).sum(axis=2).ravel()
    order = np.argsort(orbit, kind="stable")
    same = orbit[order][1:] == orbit[order][:-1]
    assert same.any()
    nonzero = 0
    for a1 in sample:
        for a2 in sample[::-1]:
            v = (a1 @ a2).toarray().ravel()[order]
            assert (v[1:][same] == v[:-1][same]).all()
            nonzero += np.count_nonzero(v)
    assert nonzero


def _generated_span(ts):
    """RREF rows of the algebra generated by `generator_refs` together with
    the weight idempotents: close the span of the generators under left
    multiplication by them."""
    p = ts.p
    # a stack of one operator is its transpose
    gens = ([stack_block(ts.matrix(ref), 0, ts.dim).toarray()
             for ref in ts.generator_refs()]
            + [xi_block(ts, weight_key(c)).toarray()
               for c in compositions(ts.D, ts.n)])
    rows, _ = fp.basis_rows(np.stack([g.reshape(-1) for g in gens]), p)
    while True:
        prods = [(g @ row.reshape(ts.dim, ts.dim)).reshape(-1) % p
                 for g in gens for row in rows]
        grown, _ = fp.basis_rows(np.vstack([rows] + prods), p)
        if grown.shape[0] == rows.shape[0]:
            return rows
        rows = grown


@pytest.mark.parametrize("p,n,D", [(2, 2, 2), (3, 3, 3), (2, 3, 3)])
def test_generators_generate_the_schur_algebra(p, n, D):
    ts = get_space(p, n, D)
    generated = _generated_span(ts)
    basis, _ = fp.basis_rows(
        np.stack([a.toarray().reshape(-1) for a in _xi_basis(ts)]), p)
    assert generated.shape[0] == comb(n * n + D - 1, D)
    assert (generated == basis).all()  # RREF is canonical: equal spans


@pytest.mark.parametrize("p,n,D,count", [(2, 2, 2, 4), (2, 3, 3, 8), (2, 4, 4, 18),
                                         (3, 3, 3, 8), (5, 5, 5, 16), (2, 1, 1, 0)])
def test_generator_count(p, n, D, count):
    """The simple-root divided powers at every p^k <= D, both directions."""
    ts = get_space(p, n, D)
    refs = ts.generator_refs()
    powers = [p ** k for k in range(D) if p ** k <= D]
    assert len(refs) == 2 * (n - 1) * len(powers) == count
    assert len(set(refs)) == count
    assert all(ref[0] == "div" and abs(ref[1] - ref[2]) == 1 and ref[3] in powers
               for ref in refs)
    assert ts.matrix(("gens",)).shape == (ts.dim, count * ts.dim)


def test_contents():
    """The word xi_{I,J} of t carries weight content(J) to content(I), the
    content of t, and its flip carries them back."""
    ts = get_space(2, 3, 3)
    comp, k = key_word(tuple(sorted(zip((0, 0, 1), (1, 2, 2)))), 3)
    assert comp == (0, 1, 2)
    content = (ts.letters[:, :, None] == np.arange(3)).sum(axis=1)
    for ref, rows, cols in [(("words", comp, "all"), (2, 1, 0), (0, 1, 2)),
                            (("flip", ("words", comp, "all")), (0, 1, 2),
                             (2, 1, 0))]:
        row, col, _ = stack_block(space_stack(ts, ref), k, ts.dim).coo()
        assert row.size and (content[row] == rows).all()
        assert (content[col] == cols).all()


def test_operator_memo_single_construction():
    ts = TensorSpace(2, 2, 2)
    ref = ("words", (1, 1))
    results = []

    def fetch():
        results.append(ts.matrix(ref))

    threads = [threading.Thread(target=fetch) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is results[0] for r in results)


def test_xi_products_associative_spot_check():
    ts = get_space(2, 2, 2)
    ops = _xi_basis(ts)
    trip = [(ops[1], ops[4], ops[7]), (ops[0], ops[5], ops[9])]
    for a, b, c in trip:
        left = ((a @ b) @ c).toarray() % 2
        right = (a @ (b @ c)).toarray() % 2
        assert (left == right).all()


def test_weight_idempotents_orthogonal():
    ts = get_space(3, 3, 3)
    comps = compositions(3, 3)
    mats = {c: xi_block(ts, weight_key(c)) for c in comps}
    for a in comps[:4]:
        for b in comps[:4]:
            prod = (mats[a] @ mats[b]).toarray() % 3
            if a == b:
                assert (prod == mats[a].toarray() % 3).all()
            else:
                assert not prod.any()


def _divided_by_loop(ts, a, b, r):
    """The per-basis-vector divided power, kept as the reference."""
    from itertools import combinations
    from scipy import sparse
    rows, cols = [], []
    for idx in range(ts.dim):
        slots = np.flatnonzero(ts.letters[idx] == b)
        if slots.size < r:
            continue
        word = ts.letters[idx].copy()
        for subset in combinations(slots.tolist(), r):
            new = word.copy()
            new[list(subset)] = a
            rows.append(encode(ts, tuple(new)))
            cols.append(idx)
    data = np.ones(len(rows), dtype=np.int64)
    mat = sparse.csr_matrix((data, (rows, cols)), shape=(ts.dim, ts.dim))
    mat.data %= ts.p
    mat.eliminate_zeros()
    return mat


@pytest.mark.parametrize("p,n,D", [(2, 2, 2), (3, 3, 3), (2, 4, 4)])
def test_divided_powers_match_loop_reference(p, n, D):
    ts = TensorSpace(p, n, D)
    refs = [ref for ref in full_generator_refs(ts) if ref[0] == "div"]
    assert refs
    for ref in refs:
        assert_same(stack_block(ts.matrix(ref), 0, ts.dim),
                    _divided_by_loop(ts, *ref[1:]))
