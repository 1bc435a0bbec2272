"""The stacked word operators of Gamma^lam and what is built on them.

`("words", lam)` is checked against the vstack of the per-word xi
operators it replaces, and its flip against the flipped words.  The
stacked action of each module kind is checked against one operator at a
time through the tensor-space bridge.  `ext_dims_by_loop` is the Ext
assembly as it was before the stack: one word operator and one dense
block per nonzero differential coefficient.  It is kept here as the slow
reference for the block-assembled `ext_dims`.
"""

import numpy as np
import pytest
from scipy import sparse

from spfext import fp
from spfext.functors import evaluate
from spfext.homology import (comp_of_partition, ext_dims, gamma_layout,
                             gamma_shape, generator_index, resolve_expression)
from spfext.modules import (DualModule, ShapeModule, SubmoduleModule,
                            TensorModule)
from spfext.tensorspace import flip_ref, get_space, word_key

STACK_CASES = [(2, 4, (1, 1, 1, 1)), (2, 4, (2, 1, 1)), (2, 4, (3, 1)),
               (2, 4, (2, 2)), (2, 4, (4,)), (3, 3, (2, 1)),
               (3, 5, (2, 2, 1)), (5, 5, (1, 1, 1, 1, 1))]


def word_refs(p, n, lam, every=False):
    shape = gamma_shape(p, n, lam)
    words = range(shape.dim) if every else gamma_layout(p, n, lam)[0]
    return [("xi", word_key(lam, shape.basis_tuple(int(t)))) for t in words]


def assert_same(got, want):
    assert got.shape == want.shape and got.nnz == want.nnz
    assert (got != want).nnz == 0


@pytest.mark.parametrize("p,n,lam", STACK_CASES)
def test_word_stack_matches_per_word_operators(p, n, lam):
    space = get_space(p, n, sum(lam))
    refs = word_refs(p, n, lam)
    assert space.stack_refs(("words", lam)) == refs
    assert_same(space.matrix(("words", lam)),
                sparse.vstack([space.matrix(r) for r in refs], format="csr"))


@pytest.mark.parametrize("p,n,lam", STACK_CASES)
def test_flipped_word_stack_is_the_flipped_words(p, n, lam):
    space = get_space(p, n, sum(lam))
    flipped = [flip_ref(r) for r in word_refs(p, n, lam)]
    assert space.stack_refs(flip_ref(("words", lam))) == flipped
    assert_same(space.matrix(flip_ref(("words", lam))),
                sparse.vstack([space.matrix(r) for r in flipped], format="csr"))


@pytest.mark.parametrize("p,n,comp", [(2, 3, (2, 1, 0)), (3, 3, (1, 2, 0)),
                                      (2, 2, (0, 2))])
def test_every_word_stack_matches_per_word_operators(p, n, comp):
    """("words", c, "all") keeps the words at every weight, and c need not
    be a partition: block b of Gamma^c pairs with the b-th nonzero letter."""
    space = get_space(p, n, sum(comp))
    shape = gamma_shape(p, n, tuple(part for part in comp if part))
    refs = [("xi", word_key(comp, shape.basis_tuple(t)))
            for t in range(shape.dim)]
    assert_same(space.matrix(("words", comp, "all")),
                sparse.vstack([space.matrix(r) for r in refs], format="csr"))


def apply_by_bridge(mod: ShapeModule, ref, x):
    """One operator on a batch of rows: lift, act on each parameter word's
    tensor slots, project."""
    p, N, U = mod.p, mod.space.dim, mod._u_total
    amb = (mod.lift_matrix() @ x.T).reshape(U, N, -1)
    acted = np.stack([mod.space.matrix(ref) @ amb[u] for u in range(U)]) % p
    return ((mod.project_matrix() @ acted.reshape(U * N, -1)) % p).T


def test_stacked_action_on_a_parameter_module():
    """m = 2: the stack acts on the E slots of both parameter letters."""
    mod = evaluate("param(G(2)*L(1),2)", 3)
    assert isinstance(mod, ShapeModule) and mod.m == 2
    comp = comp_of_partition((2, 1), mod.n)
    x = np.random.default_rng(7).integers(0, 3, size=(5, mod.dim))
    got = mod.apply_stack(("words", comp), x)
    refs = word_refs(3, mod.n, (2, 1))
    assert got.shape == (len(refs), 5, mod.dim)
    for k, ref in enumerate(refs):
        assert (got[k] == apply_by_bridge(mod, ref, x)).all(), ref


def test_stacked_action_through_dual_and_submodule():
    """The dual applies the base's transposed flipped stack, a submodule
    its parent's stack at its pivots, a tensor product each word in turn:
    each agrees with one word at a time."""
    p = 2
    base = evaluate("param(S(2)*I,2)", p)
    sub = SubmoduleModule(base, base.weight_basis((2, 1, 0))[0][:3])
    cases = [DualModule(base), DualModule(sub), sub, evaluate("simple(1,1)*I", p)]
    assert isinstance(cases[-1], TensorModule)
    for mod in cases:
        comp = comp_of_partition((2, 1), mod.n)
        refs = word_refs(p, mod.n, (2, 1))
        x = np.random.default_rng(3).integers(0, p, size=(4, mod.dim))
        got = mod.apply_stack(("words", comp), x)
        for k, ref in enumerate(refs):
            assert (got[k] == mod.apply_ref(ref, x)).all(), (mod, ref)
    dual = cases[0]
    for ref in word_refs(p, dual.n, (2, 1)):
        want = apply_by_bridge(base, flip_ref(ref), np.eye(base.dim, dtype=np.int64))
        assert (dual.apply_ref(ref, np.eye(dual.dim, dtype=np.int64)) == want.T).all()


# -- Ext assembly against the per-coefficient loop ----------------------------


def ext_dims_by_loop(res, target):
    """Graded dims of Ext^s from Hom(P_*, N): delta^s built one nonzero
    differential coefficient at a time, each adding the transposed block
    of one word operator on the target's weight spaces."""
    p, n, built = res.p, res.n, res.built
    wdims, offsets = [], []
    for stage in res.stages:
        ws = [target.weight_dim(comp_of_partition(s.partition, n))
              for s in stage.summands]
        wdims.append(ws)
        offsets.append(list(np.cumsum([0] + ws[:-1])))
    totals = [sum(ws) for ws in wdims]
    ranks = []
    for s in range(built):
        stage_s, stage_next = res.stages[s], res.stages[s + 1]
        delta = fp.zeros(totals[s + 1], totals[s])
        for j, summand_j in enumerate(stage_next.summands):
            wmu = wdims[s + 1][j]
            mu = comp_of_partition(summand_j.partition, n)
            block = res.diffs[s + 1].get(mu)
            group = stage_s.groups.get(mu)
            if wmu == 0 or block is None or block.size == 0 or group is None:
                continue
            e_idx = generator_index(summand_j.shape, summand_j.partition)
            coord = summand_j.offset + int(np.searchsorted(summand_j.rows, e_idx))
            gvec = block[:, int(np.searchsorted(stage_next.groups[mu], coord))]
            for k, summand_k in enumerate(stage_s.summands):
                wlam = wdims[s][k]
                if wlam == 0:
                    continue
                lam = comp_of_partition(summand_k.partition, n)
                rows, _ = target.weight_basis(lam)
                _, mu_pivots = target.weight_basis(mu)
                for pos in np.flatnonzero(
                        (group >= summand_k.offset)
                        & (group < summand_k.offset + summand_k.rows.size)):
                    coeff = int(gvec[pos])
                    if coeff == 0:
                        continue
                    local = int(summand_k.rows[group[pos] - summand_k.offset])
                    ref = ("xi", word_key(summand_k.partition,
                                          summand_k.shape.basis_tuple(local)))
                    word = target.apply_ref(ref, rows)[:, list(mu_pivots)]
                    r0, c0 = offsets[s + 1][j], offsets[s][k]
                    delta[r0:r0 + wmu, c0:c0 + wlam] = (
                        delta[r0:r0 + wmu, c0:c0 + wlam] + coeff * word.T) % p
        ranks.append(fp.rank(delta, p))
    return [totals[s] - ranks[s] - (ranks[s - 1] if s else 0)
            for s in range(built)]


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
