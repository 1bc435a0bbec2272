"""The stacked word operators of Gamma^lam and what is built on them.

`("words", lam)` is checked against the per-word xi operators it
replaces, each transposed and set side by side (a stack holds the
images of basis vector j in row j), and its blockwise transpose against
the flipped words.  Every module's bridges are checked against a dense
rule per kind and its stacks against the dense P A_k L; the stacked
action of each module kind against one operator at a time, a dual
against its base's flipped stack, and a tensor product's stacks against
the per-xi split of each operator's orbit across its factors and
against the Kronecker product of its factors' stacks of every word.
`ext_dims_by_loop` is the Ext assembly as it was before the stack: one
word operator and one dense block per nonzero differential
coefficient.  It is kept here as the slow reference for the
block-assembled `ext_dims`.
"""

import gc
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from csr_reference import as_scipy, assert_canonical, assert_same
from spfext import fp
from spfext.functors import evaluate, shape_module
from spfext.homology import (comp_of_partition, dominant_layout, ext, ext_dims,
                             gamma_shape, resolve_expression, weight_space)
from spfext.modules import (DualModule, ModuleRep, ShapeModule, SubmoduleModule,
                            TensorModule)
from spfext.tensorspace import compositions, gamma_index, get_space, is_dominant
from xi_reference import (basis_tuple, block_transpose, dense, div_by_splitting,
                          flip_key, flip_ref, gamma_letters, module_stack,
                          space_stack, word_key, xi_block, xi_by_splitting,
                          xi_matrix)

STACK_CASES = [(2, 4, (1, 1, 1, 1)), (2, 4, (2, 1, 1)), (2, 4, (3, 1)),
               (2, 4, (2, 2)), (2, 4, (4,)), (3, 3, (2, 1)),
               (3, 5, (2, 2, 1)), (5, 5, (1, 1, 1, 1, 1))]


def word_keys(p, n, lam, every=False):
    """The xi key of each word of Gamma^lam, at dominant weights unless
    `every`."""
    shape = gamma_shape(p, n, lam)
    words = range(shape.dim) if every else dominant_layout(shape)[0]
    return [word_key(lam, basis_tuple(shape, int(t))) for t in words]


@pytest.mark.parametrize("p,n,lam", STACK_CASES)
def test_word_stack_matches_per_word_operators(p, n, lam):
    space = get_space(p, n, sum(lam))
    assert_same(space.matrix(("words", lam)),
                sparse.hstack([xi_matrix(space, key).T
                               for key in word_keys(p, n, lam)], format="csr"))


@pytest.mark.parametrize("p,n,lam", STACK_CASES)
def test_flipped_word_stack_is_the_flipped_words(p, n, lam):
    space = get_space(p, n, sum(lam))
    assert_same(space_stack(space, ("flip", ("words", lam))),
                sparse.hstack([xi_matrix(space, flip_key(key)).T
                               for key in word_keys(p, n, lam)], format="csr"))


@pytest.mark.parametrize("p,n,comp", [(2, 3, (2, 1, 0)), (3, 3, (1, 2, 0)),
                                      (2, 2, (0, 2))])
def test_every_word_stack_matches_per_word_operators(p, n, comp):
    """("words", c, "all") keeps the words at every weight, and c need not
    be a partition: block b of Gamma^c pairs with the b-th nonzero letter."""
    space = get_space(p, n, sum(comp))
    shape = gamma_shape(p, n, tuple(part for part in comp if part))
    keys = [word_key(comp, basis_tuple(shape, t)) for t in range(shape.dim)]
    assert_same(space.matrix(("words", comp, "all")),
                sparse.hstack([xi_matrix(space, key).T for key in keys], format="csr"))


def apply_by_bridge(mod: ModuleRep, op, x):
    """One tensor-space operator on a batch of rows: lift, act on each
    parameter word's tensor slots, project."""
    p, N = mod.p, mod.space.dim
    U = mod.ambient // N
    amb = (as_scipy(mod.lift_matrix()) @ x.T).reshape(U, N, -1)
    acted = np.stack([op @ amb[u] for u in range(U)]) % p
    return ((as_scipy(mod.project_matrix()) @ acted.reshape(U * N, -1)) % p).T


def stack_by_tiling(mod: ModuleRep, ops) -> sparse.csr_matrix:
    """The module's stack of the tensor-space stack `ops`, by scipy
    products: each operator of ops, read one below the other, tiled over
    all U parameter words as kron(1_U, A_k), between the public bridge
    matrices.  Returned transposed, as the engine stores it."""
    N, dim = mod.space.dim, mod.dim
    lift, proj = as_scipy(mod.lift_matrix()), as_scipy(mod.project_matrix())
    tiles = sparse.identity(mod.ambient // N, dtype=np.int64, format="csr")
    below = as_scipy(ops).T.tocsr()
    blocks = [proj @ sparse.kron(tiles, below[k * N: (k + 1) * N]) @ lift
              for k in range(ops.shape[1] // N)]
    mat = sparse.vstack(blocks or [sparse.csr_matrix((0, dim), dtype=np.int64)])
    return mat.tocsr().T


def koszul_terms(p, q, m):
    """The terms of both degree-q Koszul complexes over m parameters."""
    return [shape_module(p, q, tuple((kind, size, 0) for kind, size
                                     in ((first, q - j), (second, j)) if size), m)
            for first, second in (("G", "L"), ("L", "S")) for j in range(q + 1)]


@pytest.mark.parametrize("p,q,m", [(2, 2, 1), (2, 2, 2), (3, 3, 1), (3, 3, 2),
                                   (2, 4, 1), (2, 4, 2), (5, 5, 1), (5, 5, 2)])
def test_generator_stack_matches_tiling_reference(p, q, m):
    """Gathering the space's rows at the lifted slots and P^T's rows at
    their images gives the tiled scipy product entry for entry."""
    for mod in koszul_terms(p, q, m):
        assert_same(mod.stack_matrix(("gens",)),
                    stack_by_tiling(mod, mod.space.matrix(("gens",))))


@pytest.mark.parametrize("text", ["param(S(2),2)", "param(G(2),2)",
                                  "param(L(2)*I,2)"])
def test_word_stacks_match_tiling_reference(text):
    """The words and the dual's words: each operator of the dual is the
    transpose of the base's flipped one, read off the space's blockwise
    transposed stack."""
    mod = evaluate(text, 2)
    dual = DualModule(mod)
    for comp in compositions(mod.D, mod.n):
        for ref in (("words", comp), ("words", comp, "all")):
            assert_same(mod.stack_matrix(ref),
                        stack_by_tiling(mod, mod.space.matrix(ref)))
            flipped = space_stack(mod.space, flip_ref(ref))
            assert_same(block_transpose(dual.stack_matrix(ref), dual.dim),
                        stack_by_tiling(mod, flipped))


def act(mod, ref, x):
    """(T, batch, dim): the k-th operator of ref on each row of x, read off
    the one product x @ stack."""
    out = x @ mod.stack_matrix(ref)
    return out.reshape(x.shape[0], -1, mod.dim).transpose(1, 0, 2)


def apply_by_rules(mod, key, x):
    """xi_key on a batch of rows by each kind's per-operator rule: the
    bridge of a shape, the transposed flipped xi on a dual's base, the
    parent's action read at a submodule's pivots, and the orbit split
    across the factors of a tensor product."""
    if isinstance(mod, ShapeModule):
        return apply_by_bridge(mod, xi_matrix(mod.space, key), x)
    if isinstance(mod, DualModule):
        base = apply_by_rules(mod.base, flip_key(key),
                              np.eye(mod.dim, dtype=np.int64))
        return fp.matmul(x, base.T, mod.p)
    if isinstance(mod, SubmoduleModule):
        images = apply_by_rules(mod.parent, key, fp.matmul(x, mod.rows, mod.p))
        return images[:, list(mod.pivots)]
    return fp.matmul(x, xi_by_splitting(mod, key).T, mod.p)


def test_stacked_action_on_a_parameter_module():
    """m = 2: the stack acts on the E slots of both parameter letters."""
    mod = evaluate("param(G(2)*L(1),2)", 3)
    assert isinstance(mod, ShapeModule) and mod.m == 2
    comp = comp_of_partition((2, 1), mod.n)
    x = np.random.default_rng(7).integers(0, 3, size=(5, mod.dim))
    got = act(mod, ("words", comp), x)
    keys = word_keys(3, mod.n, (2, 1))
    assert got.shape == (len(keys), 5, mod.dim)
    for k, key in enumerate(keys):
        assert (got[k] == apply_by_bridge(mod, xi_matrix(mod.space, key), x)).all(), key


def test_stacked_action_through_dual_and_submodule():
    """A dual, a submodule and a tensor product, each acting through its
    bridges, agree one word at a time with each kind's own rule: the
    base's transposed flipped xi, the parent's action read at the
    pivots, the orbit split across the factors."""
    p = 2
    base = evaluate("param(S(2)*I,2)", p)
    sub = SubmoduleModule(base, weight_space(base, (2, 1, 0))[:3])
    cases = [DualModule(base), DualModule(sub), sub, evaluate("simple(1,1)*I", p)]
    assert isinstance(cases[-1], TensorModule)
    for mod in cases:
        comp = comp_of_partition((2, 1), mod.n)
        keys = word_keys(p, mod.n, (2, 1))
        x = np.random.default_rng(3).integers(0, p, size=(4, mod.dim))
        got = act(mod, ("words", comp), x)
        for k, key in enumerate(keys):
            assert (got[k] == apply_by_rules(mod, key, x)).all(), (mod, key)
    dual = cases[0]
    eye = np.eye(dual.dim, dtype=np.int64)
    got = act(dual, ("words", comp_of_partition((2, 1), dual.n)), eye)
    for k, key in enumerate(word_keys(p, dual.n, (2, 1))):
        want = apply_by_bridge(base, xi_matrix(base.space, flip_key(key)), eye)
        assert (got[k] == want.T).all()


# -- the bridges: every stack is P A_k L ---------------------------------------


def reference_bridge(mod):
    """Dense (L, P) by each kind's rule: a shape's own bridges, checked
    against loop references in test_functors; a dual's base's (P^T,
    L^T), since on tensor space the flip of an operator is its
    transpose; a submodule's parent's L lifting its rows and P read at
    its pivots; and a tensor product's factors' pairs joined slot by
    slot, ambient (u1, e1) and (u2, e2) landing at (u1 U2 + u2, e1 N2 + e2)."""
    if isinstance(mod, ShapeModule):
        return mod.lift_matrix().toarray(), mod.project_matrix().toarray()
    if isinstance(mod, DualModule):
        lift, proj = reference_bridge(mod.base)
        return proj.T, lift.T
    if isinstance(mod, SubmoduleModule):
        lift, proj = reference_bridge(mod.parent)
        return fp.matmul(lift, mod.rows.T, mod.p), proj[list(mod.pivots)]
    (l1, p1), (l2, p2) = reference_bridge(mod.left), reference_bridge(mod.right)
    N1, N2 = mod.left.space.dim, mod.right.space.dim
    U1, U2 = l1.shape[0] // N1, l2.shape[0] // N2
    lift = np.einsum("aei,bfj->abefij", l1.reshape(U1, N1, -1),
                     l2.reshape(U2, N2, -1)).reshape(mod.ambient, mod.dim)
    proj = np.einsum("iae,jbf->ijabef", p1.reshape(-1, U1, N1),
                     p2.reshape(-1, U2, N2)).reshape(mod.dim, mod.ambient)
    return lift % mod.p, proj % mod.p


# shapes (one with parameters), duals, submodules (schur, the nested
# simple) and tensor products, nested through one another
BRIDGE_CASES = [(3, "S(2)*L(1)"), (2, "param(S(2),2)"), (3, "dual(S(3))"),
                (3, "schur(2,1)"), (3, "simple(2,1)"), (2, "weyl(2,1)"),
                (3, "dual(param(G(2)*I,2))"), (2, "dual(dual(schur(2,2)))"),
                (3, "param(S(2),2)*simple(1)"), (3, "dual(simple(2,1)*I)"),
                (2, "weyl(2,1)*param(L(1),2)")]


@pytest.mark.parametrize("p, text", BRIDGE_CASES)
def test_every_stack_is_project_act_lift(p, text):
    """P L = 1, the bridges follow each kind's rule, and the stack of the
    generators, of a div, of the words at dominant weights and of every
    word is, block by block, the transposed dense P (1_U (x) A_k) L."""
    mod = evaluate(text, p)
    lift, proj = mod.lift_matrix(), mod.project_matrix()
    assert lift.shape == proj.T.shape == (mod.ambient, mod.dim)
    assert (fp.matmul(proj.toarray(), lift.toarray(), p)
            == np.eye(mod.dim, dtype=np.int64)).all()
    want_lift, want_proj = reference_bridge(mod)
    assert (lift.toarray() == want_lift).all() and (proj.toarray() == want_proj).all()
    N = mod.space.dim
    top = comp_of_partition((mod.D - 1, 1), mod.n)
    for ref in [("gens",), ("div", 1, 0, 1), ("words", top),
                ("words", top[::-1], "all")]:
        ops = as_scipy(mod.space.matrix(ref))
        stack = mod.stack_matrix(ref).toarray()
        assert stack.shape == (mod.dim, ops.shape[1] // N * mod.dim)
        for k in range(ops.shape[1] // N):
            A = ops[:, k * N: (k + 1) * N].T
            acted = np.concatenate([A @ want_lift[u * N: (u + 1) * N]
                                    for u in range(mod.ambient // N)])
            want = fp.matmul(want_proj, acted % p, p)
            assert (stack[:, k * mod.dim: (k + 1) * mod.dim] == want.T).all(), (ref, k)


# -- one memo per module: every stack is a canonical CSR, built once ----------

# (expression, kind) at p = 3: a shape, a dual of a shape, submodules
# (schur and the nested simple), a dual of a submodule (weyl) and a tensor
# product of a shape and a dual
MEMO_CASES = [("S(2)*L(1)", ShapeModule), ("dual(S(3))", DualModule),
              ("schur(2,1)", SubmoduleModule), ("simple(2,1)", SubmoduleModule),
              ("weyl(2,1)", DualModule), ("I*dual(S(2))", TensorModule)]


@pytest.mark.parametrize("expr, kind", MEMO_CASES)
def test_every_stack_is_a_memoized_csr(expr, kind):
    mod = evaluate(expr, 3)
    assert isinstance(mod, kind)
    for ref in [("words", comp_of_partition((2, 1), mod.n)),
                ("words", (1, 1, 1), "all"), ("gens",), ("div", 0, 1, 2)]:
        stack = mod.stack_matrix(ref)
        assert_canonical(stack)
        assert stack.shape[0] == mod.dim and stack.shape[1] % mod.dim == 0
        assert mod.stack_matrix(ref) is stack, (expr, ref)
    refs, gens = mod.generator_action()
    assert refs == mod.space.generator_refs()
    assert gens is mod.stack_matrix(("gens",))


def test_module_stack_memo_single_construction():
    """Eight threads asking one module for one stack all get one object."""
    base = evaluate("S(2)*I", 2)
    mod = SubmoduleModule(base, weight_space(base, (2, 1, 0)))
    ref = ("words", (1, 1, 1), "all")
    results = []

    def fetch():
        results.append(mod.stack_matrix(ref))

    threads = [threading.Thread(target=fetch) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8 and all(r is results[0] for r in results)


# -- scale gate: pointers follow the basis, not the number of operators ------

# (p, source, targets): degree 3 and degree 4, with targets of every module
# kind, so that resolve, ext_dims and the equivariance proofs of the simple
# heads build their stacks
SCALE_CASES = [(3, "twist(I,1)", ["simple(2,1)", "dual(schur(2,1))",
                                  "simple(1,1)*I", "L(3)"]),
               (2, "twist(I,1)*twist(I,1)", ["schur(2,2)", "weyl(3,1)",
                                             "simple(1,1)*G(2)", "L(4)"])]


@pytest.mark.parametrize("p, source, targets", SCALE_CASES)
def test_every_stored_stack_has_one_row_pointer_per_basis_vector(p, source, targets):
    """Every tensor-space operator and every module stack of the case is
    (dim x T * dim) with dim + 1 row pointers, however many operators it
    stacks: ("words", (1, 1, 1, 1)) at p = 2 once held 10.7 pointers per
    nonzero."""
    for text in targets:
        ext(source, text, p)
    space = evaluate(source, p).space
    assert ("words", (1,) * space.D) in space._ops
    for ref, op in space._ops.items():
        assert op.shape[0] == space.dim and op.shape[1] % space.dim == 0, ref
        assert op.indptr.shape == (space.dim + 1,), ref
    modules = [obj for obj in gc.get_objects() if isinstance(obj, ModuleRep)
               and obj.space is space and obj._stacks]
    assert {type(mod) for mod in modules} == {ShapeModule, DualModule,
                                              SubmoduleModule, TensorModule}
    for mod in modules:
        for ref, stack in mod._stacks.items():
            assert stack.shape[0] == mod.dim and stack.shape[1] % mod.dim == 0
            assert stack.indptr.shape == (mod.dim + 1,), (mod, ref)


# -- tensor products: whole stacks against the per-xi split -------------------


def split_reference(mod: TensorModule, ref) -> list[np.ndarray]:
    """The operators of ref on a tensor product, one at a time, each split
    across the factors as TensorModule once acted."""
    flipped = ref[0] == "flip"
    base = ref[1] if flipped else ref
    if base[0] == "gens":
        blocks = [div_by_splitting(mod, *((b, a, r) if flipped else (a, b, r)))
                  for _, a, b, r in mod.space.generator_refs()]
    else:
        comp = base[1]
        words = gamma_shape(mod.p, mod.n, tuple(c for c in comp if c))
        keys = [word_key(comp, basis_tuple(words, t)) for t in range(words.dim)]
        if len(base) == 2:  # at dominant weights: t's weight is the row content
            keys = [k for k in keys if is_dominant(
                tuple(sum(a == x for a, _ in k) for x in range(mod.n)))]
        blocks = [xi_by_splitting(mod, flip_key(k) if flipped else k) for k in keys]
    return blocks


# (p, left, right): shape, dual, submodule (schur, simple) and tensor factors
TENSOR_PAIRS = [(2, "S(2)", "dual(G(2))"), (2, "simple(2)", "L(2)"),
                (2, "simple(1)*I", "I"), (3, "schur(2,1)", "I"),
                (3, "dual(S(2))", "simple(2)"), (3, "I", "dual(L(2)*I)"),
                (2, "I", "schur(2,1)")]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_tensor_stack_split_matches_per_xi_reference(data):
    """Words at any composition, dominant-only or every one, and the
    generators: the stack equals the per-xi split entry for entry, on the
    tensor product, and flipped and transposed through its dual."""
    p, left, right = data.draw(st.sampled_from(TENSOR_PAIRS), label="pair")
    n = 4
    mod = TensorModule(evaluate(left, p, n=n), evaluate(right, p, n=n))
    kind = data.draw(st.sampled_from(("words", "all", "gens")), label="kind")
    if kind == "gens":
        ref = ("gens",)
    else:
        comp = data.draw(st.sampled_from(compositions(mod.D, n)), label="comp")
        ref = ("words", comp) if kind == "words" else ("words", comp, "all")
    got = mod.stack_matrix(ref)
    blocks = split_reference(mod, ref)
    none = [np.zeros((mod.dim, 0), dtype=np.int64)]
    want = np.concatenate(none + [block.T for block in blocks], axis=1)
    assert got.shape == want.shape
    assert (dense(got) == want).all()
    # each operator of the dual is the transpose of the flipped one
    dual = DualModule(mod).stack_matrix(ref)
    flipped = split_reference(mod, flip_ref(ref))
    assert (dense(dual) == np.concatenate(none + flipped, axis=1)).all()


def words_by_full_kron(mod: TensorModule, ref) -> sparse.csr_matrix:
    """TensorModule's word stack as it was first written, on the stacks
    read one operator below the other: for each c1, the whole Kronecker
    product of the factors' stacks of every word, then the rows of each
    pair (t1, t2) whose merged t is not dominant dropped.  Returned
    transposed, as the engine stores it.  A flipped ref takes the
    factors' flipped stacks."""
    flipped = ref[0] == "flip"
    base = ref[1] if flipped else ref
    orient = flip_ref if flipped else (lambda r: r)
    every = len(base) > 2
    n, d1, d2 = mod.n, mod.left.dim, mod.right.dim
    comp = comp_of_partition(base[1], n)
    pieces = []
    for c1 in compositions(mod.left.D, n):
        c2 = tuple(c - x for c, x in zip(comp, c1))
        if min(c2) < 0:
            continue
        w1, w2 = gamma_letters(c1, n), gamma_letters(c2, n)
        T2 = len(w2)
        order = np.argsort(np.repeat(np.tile(np.arange(n), 2), c1 + c2),
                           kind="stable")
        both = np.concatenate([np.repeat(w1, T2, axis=0),
                               np.tile(w2, (len(w1), 1))], axis=1)[:, order]
        content = (both[:, :, None] == np.arange(n)).sum(axis=1)
        merged = np.where(every | (np.diff(content, axis=1) <= 0).all(axis=1),
                          gamma_index(comp, n, both), -1)
        kron = sparse.kron(
            as_scipy(module_stack(mod.left, orient(("words", c1, "all")))).T,
            as_scipy(module_stack(mod.right, orient(("words", c2, "all")))).T,
            format="coo")
        k1, i1 = np.divmod(kron.row // (T2 * d2), d1)
        k2, i2 = np.divmod(kron.row % (T2 * d2), d2)
        pieces.append((merged, merged[k1 * T2 + k2], i1 * d2 + i2, kron.col,
                       kron.data))
    merged, t, row, col, data = (np.concatenate(x) for x in zip(*pieces))
    kept = np.unique(merged[merged >= 0])
    keep = t >= 0
    return sparse.csr_matrix(
        (data[keep], (np.searchsorted(kept, t[keep]) * mod.dim + row[keep],
                      col[keep])),
        shape=(kept.size * mod.dim, mod.dim)).T


@pytest.mark.parametrize("p, left, right", TENSOR_PAIRS)
def test_tensor_word_stack_matches_full_kron_reference(p, left, right):
    """The tensor product's word stacks, and its dual's flipped and
    transposed, are the stacks scipy's Kronecker product of the factors'
    stacks of every word gives once the other rows are dropped."""
    mod = TensorModule(evaluate(left, p, n=4), evaluate(right, p, n=4))
    for comp in compositions(mod.D, mod.n):
        for base in (("words", comp), ("words", comp, "all")):
            for ref in (base, ("flip", base)):
                assert_same(module_stack(mod, ref), words_by_full_kron(mod, ref))


# -- Ext assembly against the per-coefficient loop ----------------------------


def summand_layout(stage):
    """Per summand of a stage: its partition, shape, the stage coordinate
    of its first dominant row, and its dominant rows, ascending."""
    out, offset = [], 0
    for lam in stage.summands:
        shape = stage.blocks[lam][0]
        rows = dominant_layout(shape)[0]
        out.append((lam, shape, offset, rows))
        offset += rows.size
    return out


def ext_dims_by_loop(res, target):
    """Graded dims of Ext^s from Hom(P_*, N): delta^s built one nonzero
    differential coefficient at a time, each adding the transposed block
    of one word operator on the target's weight spaces."""
    p, n, depth = res.p, res.n, res.depth
    wdims, offsets = [], []
    for stage in res.stages:
        ws = [target.weight_indices(comp_of_partition(lam, n)).size
              for lam in stage.summands]
        wdims.append(ws)
        offsets.append(list(np.cumsum([0] + ws[:-1])))
    totals = [sum(ws) for ws in wdims]
    ranks = []
    for s in range(depth):
        stage_s, stage_next = res.stages[s], res.stages[s + 1]
        delta = fp.zeros(totals[s + 1], totals[s])
        for j, (part_j, shape_j, offset_j, rows_j) in enumerate(
                summand_layout(stage_next)):
            wmu = wdims[s + 1][j]
            mu = comp_of_partition(part_j, n)
            block = res.diffs[s + 1].get(mu)
            group = stage_s.groups.get(mu)
            if wmu == 0 or block is None or block.size == 0 or group is None:
                continue
            # the generator: the word with letter b repeated part_j[b] times
            e_idx = shape_j.basis_index(tuple((b,) * part
                                              for b, part in enumerate(part_j)))
            coord = offset_j + int(np.searchsorted(rows_j, e_idx))
            gvec = block[:, int(np.searchsorted(stage_next.groups[mu], coord))]
            for k, (part_k, shape_k, offset_k, rows_k) in enumerate(
                    summand_layout(stage_s)):
                wlam = wdims[s][k]
                if wlam == 0:
                    continue
                lam = comp_of_partition(part_k, n)
                rows = weight_space(target, lam)
                mu_pivots = target.weight_indices(mu)
                for pos in np.flatnonzero(
                        (group >= offset_k) & (group < offset_k + rows_k.size)):
                    coeff = int(gvec[pos])
                    if coeff == 0:
                        continue
                    local = int(rows_k[group[pos] - offset_k])
                    key = word_key(part_k, basis_tuple(shape_k, local))
                    word = (as_scipy(xi_block(target, key)) @ rows.T % p).T[
                        :, list(mu_pivots)]
                    r0, c0 = offsets[s + 1][j], offsets[s][k]
                    delta[r0:r0 + wmu, c0:c0 + wlam] = (
                        delta[r0:r0 + wmu, c0:c0 + wlam] + coeff * word.T) % p
        ranks.append(fp.rank(delta, p))
    return [totals[s] - ranks[s] - (ranks[s - 1] if s else 0)
            for s in range(depth)]


# (p, source, depth, targets): shapes (S, L, G), submodules (schur, and the
# nested simple), duals of a shape and of a submodule (weyl), a tensor
# product outside the fragment, and a parameter module
EXT_CASES = [
    (2, "twist(I,1)*twist(I,1)", 5,
     ["S(4)", "L(4)", "G(4)", "schur(2,2)", "simple(2,2)", "weyl(3,1)",
      "dual(S(2)*G(2))", "dual(schur(3,1))", "simple(1,1)*G(2)",
      "param(L(2)*I*I,2)"]),
    (3, "twist(I,1)", 4,
     ["S(3)", "L(3)", "G(3)", "schur(2,1)", "simple(2,1)", "weyl(2,1)",
      "dual(L(2)*I)", "dual(simple(2,1))", "simple(1,1)*I",
      "param(G(2)*I,2)"]),
    (5, "S(2)*L(2)", 3,
     ["S(4)", "L(4)", "G(4)", "schur(2,2)", "simple(3,1)", "weyl(2,1,1)",
      "dual(G(2)*S(2))", "dual(schur(2,1,1))", "simple(2)*L(2)",
      "param(S(3)*I,2)"]),
]


@pytest.mark.parametrize("sweep", ["dominance", "reversed"])
@pytest.mark.parametrize("p,src,depth,targets", EXT_CASES)
def test_ext_dims_matches_loop_reference(p, src, depth, targets, sweep):
    res = resolve_expression(src, p, depth, sweep=sweep)
    kinds = set()
    for text in targets:
        target = evaluate(text, p)
        kinds.add(type(target).__name__)
        assert ext_dims(res, target) == ext_dims_by_loop(res, target), text
    assert kinds == {"ShapeModule", "SubmoduleModule", "DualModule",
                     "TensorModule"}
