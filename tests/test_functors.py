import re
from itertools import product
from math import comb

import numpy as np
import pytest
from scipy import sparse

from spfext import fp
from spfext.errors import (EquivarianceError, ParseError, SemanticError,
                           UnsupportedExpressionError)
from spfext.functors import (Atom, Dual, Ident, Param, Tensor, Twist, canon,
                             canonical_map, character, check_field, evaluate,
                             frobenius_substitute, kuhn_dual, parse,
                             schur_weyl_simple)
from spfext.homology import weight_space
from spfext.modules import (ModuleRep, ShapeModule, check_equivariance,
                            hom_space)
from spfext.tensorspace import compositions
from csr_reference import assert_canonical, assert_same
from test_tensorspace import full_basis_keys, full_generator_refs
from xi_reference import (basis_tuple, dense, distinct_permutations, encode,
                          stack_block, weight_key, xi_block)


# -- parser -------------------------------------------------------------------


def test_parse_round_trip():
    for text in ["I", "G(2)", "S(2,1)", "L(1,1)", "I*I",
                 "twist(I,1)*twist(G(2),2)", "dual(schur(2,2))",
                 "param(twist(G(2),1),2)", "simple(3,1)"]:
        assert canon(parse(text)) == text


def test_parse_left_associative_and_whitespace():
    node = parse(" I * I * I ")
    assert node == Tensor(Tensor(Ident(), Ident()), Ident())


def test_parse_errors():
    for bad in ["G(2", "G()", "twist(I)", "spam(2)", "G(2))", "G(0)",
                "schur(1,2)", ""]:
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_keeps_one_tree_per_text():
    """A text is parsed once: every later call gets the same frozen tree,
    while a text that does not parse is refused on every call."""
    text = "twist(I*I,1)"
    assert parse(text) is parse(text) == parse(" twist( I * I , 1 ) ")
    for _ in range(2):
        with pytest.raises(ParseError):
            parse("twist(I*I)")


def test_degree_arithmetic():
    from spfext.functors import degree
    assert degree(parse("twist(I,1)"), 2) == 2
    assert degree(parse("twist(I,2)"), 2) == 4
    assert degree(parse("twist(G(2),1)"), 3) == 6
    assert degree(parse("dual(G(2))*I"), 2) == 3
    assert degree(parse("param(G(2),2)"), 5) == 2


# -- evaluation ---------------------------------------------------------------


def test_evaluate_divided_square():
    mod = evaluate("G(2)", 2)
    assert mod.dim == 3


def test_evaluate_exterior_square():
    assert evaluate("L(2)", 2).dim == 1


def test_evaluate_free_pair():
    assert evaluate("S(1,1)", 2).dim == 4
    assert evaluate("S(1,1)", 3).dim == 4


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_dimension_laws(p, a):
    assert evaluate(f"G({a})", p).dim == comb(a + a - 1, a)
    assert evaluate(f"S({a})", p).dim == comb(a + a - 1, a)
    assert evaluate(f"L({a})", p).dim == 1  # n = a forces the top power


def test_dimension_laws_inside_larger_degree():
    # alphabet size grows with the ambient degree through tensoring
    mod = evaluate("G(2)*I*I", 2)  # degree 4, n = 4
    assert mod.dim == comb(4 + 2 - 1, 2) * 4 * 4


def test_gamma_is_symmetric_group_invariants():
    """The combinatorial divided-power basis spans exactly the invariants
    of the Young subgroup acting by place permutations."""
    from spfext.tensorspace import get_space
    mod = evaluate("G(2)", 3)
    ts = get_space(3, 2, 2)
    swap = ts.place_permutation((1, 0)).toarray()
    fixed = fp.kernel_basis((swap - np.eye(4, dtype=np.int64)) % 3, 3)
    lifted = (mod.lift_matrix().toarray() % 3).T
    # equal spans: each has the rank of both together
    both = fp.rank(np.concatenate([fixed, lifted]), 3)
    assert fp.rank(fixed, 3) == fp.rank(lifted, 3) == both


def test_weight_multiplicities_sum_to_dim():
    for text, p in [("G(2)", 2), ("L(2)", 3), ("S(2)*I", 2),
                    ("twist(I,1)", 2), ("schur(2,1)", 3)]:
        mod = evaluate(text, p)
        assert sum(mod.character().values()) == mod.dim


def test_sampled_action_associativity():
    mod = evaluate("G(2)*I", 2)
    keys = full_basis_keys(mod.space)
    rng = np.random.default_rng(0)
    vecs = rng.integers(0, 2, size=(3, mod.dim))
    for _ in range(50):
        a1 = dense(xi_block(mod, keys[int(rng.integers(len(keys)))]))
        a2 = dense(xi_block(mod, keys[int(rng.integers(len(keys)))]))
        left = fp.matmul(fp.matmul(a1, a2, 2), vecs.T, 2)
        right = fp.matmul(a1, fp.matmul(a2, vecs.T, 2), 2)
        assert (left == right).all()


# -- Frobenius substitution ---------------------------------------------------


def test_twisted_identity_weights():
    mod = evaluate("twist(I,1)", 2)
    assert mod.dim == 2
    assert mod.character() == {(2, 0): 1, (0, 2): 1}


def test_twisted_divided_square_dimension():
    mod = evaluate("twist(G(2),1)", 2)  # degree 4
    assert mod.dim == comb(4 + 2 - 1, 2)


def test_double_twist_identity():
    mod = evaluate("twist(I,2)", 2)  # degree 4
    assert mod.dim == 4
    assert all(sorted(c, reverse=True) == [4, 0, 0, 0]
               for c in mod.character())


def test_twist_scales_weights():
    from spfext.functors import shape_module
    base = shape_module(2, 4, (("G", 2, 0),), 1)  # G^2 evaluated on k^4
    twisted = evaluate("twist(G(2),1)", 2)        # degree 4, n = 4
    scaled = {tuple(2 * x for x in c): m for c, m in base.character().items()}
    assert scaled == twisted.character()


def test_twist_outside_fragment_rejected():
    with pytest.raises(UnsupportedExpressionError):
        evaluate("twist(dual(G(2)),1)", 2)


def test_param_cap():
    """The cap refuses m = 3 in evaluate, also once a shape of that m has
    been built directly."""
    from spfext.functors import shape_module
    with pytest.raises(SemanticError):
        evaluate("param(G(2),3)", 2)
    assert shape_module(2, 2, (("G", 2, 0),), 3).dim == comb(6 + 1, 2)
    with pytest.raises(SemanticError):
        evaluate("param(G(2),3)", 2)


@pytest.mark.parametrize("kind, sizes, name", [
    ("sym_mult", {"a": -1, "b": 3, "n": 4}, "a"),
    ("gamma_comult", {"a": 2, "b": -1}, "b"),
    ("koszul_diff", {"a": 1, "b": 1, "m": 0}, "m"),
    ("sym_mult", {"a": 2, "b": 2, "n": 3}, "n"),
    ("sym_mult", {}, "a + b"),
    ("gamma_comult", {"a": 1, "b": 1, "n": 0}, "n"),
    ("tableau_composite", {"lam": (2, 1), "n": 2}, "n"),
    ("tableau_composite", {"lam": ()}, "|lam|")])
def test_canonical_map_refuses_bad_sizes(kind, sizes, name):
    """Each bad size is refused by name, not deep in numpy or in the
    tensor space."""
    with pytest.raises(SemanticError, match=f"needs {re.escape(name)} >= "):
        canonical_map(kind, 2, **sizes)


def test_freshman_dream_span():
    """Classes of p-th powers of arbitrary vectors stay inside the span of
    the p-th powers of basis vectors."""
    p = 2
    twist = evaluate("twist(I,1)", p)
    sym = evaluate("S(2)", p)
    rows, pivots = fp.basis_rows(
        twist.lift_matrix().toarray().T @ sym.project_matrix().toarray().T % p, p)
    for coeffs in [(1, 1), (1, 0), (0, 1)]:
        vec = np.zeros(4, dtype=np.int64)
        # (c0 e0 + c1 e1)^{(x)2} expanded in tensor coordinates
        for a in range(2):
            for b in range(2):
                vec[2 * a + b] = coeffs[a] * coeffs[b]
        cls = (sym.project_matrix().toarray() @ vec) % p
        assert not fp.residual(rows, pivots, cls, p).any()


# -- duals --------------------------------------------------------------------


def test_kuhn_dual_of_symmetric_is_divided_character():
    sym = evaluate("S(2)", 2)
    dual = kuhn_dual(sym)
    assert character(dual) == character(evaluate("G(2)", 2))


def test_kuhn_dual_involutive_on_characters():
    for text in ["G(2)", "S(2)", "L(2)", "twist(I,1)"]:
        mod = evaluate(text, 2)
        assert character(kuhn_dual(kuhn_dual(mod))) == character(mod)


def test_kuhn_dual_exterior_self_dual():
    ext2 = evaluate("L(2)", 3)
    assert character(kuhn_dual(ext2)) == character(ext2)
    assert kuhn_dual(ext2).dim == comb(2, 2)


def test_character_dual_invariance_all_atoms():
    for text in ["G(3)", "S(2,1)", "L(2)*I", "twist(G(2),1)"]:
        p = 2
        mod = evaluate(text, p)
        assert character(kuhn_dual(mod)) == character(mod) or \
            character(kuhn_dual(mod)) == character(mod)


def test_dual_expression_evaluates():
    dual = evaluate("dual(S(2))", 2)
    assert character(dual) == character(evaluate("G(2)", 2))


def test_nodes_built_in_code_meet_the_parser_rules():
    from spfext.homology import ext, kr_cohomology
    for bad in [Twist(Ident(), 0), Twist(Ident(), -1),
                Param(Atom("G", (2,)), 0), Param(Atom("G", (2,)), -1),
                Tensor(Ident(), Twist(Ident(), 0))]:
        with pytest.raises(SemanticError):
            evaluate(bad, 2)
        with pytest.raises(SemanticError):
            ext(bad, bad, 2)
    for v in (0, -1):
        with pytest.raises(SemanticError):
            kr_cohomology("G(2)", v, 2, 1)


# -- canonical maps -----------------------------------------------------------


def test_koszul_chain_dimensions_and_square_zero():
    d1 = canonical_map("koszul_diff", 2, a=2, b=0)
    d2 = canonical_map("koszul_diff", 2, a=1, b=1)
    assert d1.source.dim == 3 and d1.target.dim == 4 and d2.target.dim == 1
    assert not fp.matmul(d2.matrix.toarray(), d1.matrix.toarray(), 2).any()


def _lambda_comult_by_loop(src, tgt, a, b, p):
    """dual_koszul_diff as it was first written: comultiply one letter out
    of the exterior block into the symmetric one, basis vector by basis
    vector, with the alternating sign that makes the squares cancel.
    Entries are collected sparsely, so the p = 5, m = 2 maps fit."""
    entries = {}
    for idx in range(src.dim):
        tup = basis_tuple(src, idx)
        lam_part = tup[0]
        sym_part = tup[1] if b > 0 else ()
        for s, letter in enumerate(lam_part):
            rest = lam_part[:s] + lam_part[s + 1:]
            new_sym = tuple(sorted(sym_part + (letter,)))
            t_tup = (rest, new_sym) if a - 1 > 0 else (new_sym,)
            key = (tgt.basis_index(t_tup), idx)
            entries[key] = (entries.get(key, 0) + (-1) ** s) % p
    rows, cols = zip(*entries) if entries else ((), ())
    return sparse.csr_matrix((list(entries.values()), (rows, cols)),
                             shape=(tgt.dim, src.dim))


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_dual_koszul_diff_matches_loop_reference(p, m):
    for a in range(1, p + 1):
        nat = canonical_map("dual_koszul_diff", p, a=a, b=p - a, m=m, n=p)
        assert_same(nat.matrix,
                    _lambda_comult_by_loop(nat.source, nat.target, a, p - a, p))


def test_gamma_comult_injective():
    nat = canonical_map("gamma_comult", 2, a=1, b=1)
    assert nat.rank == nat.source.dim


def test_sym_mult_surjective():
    nat = canonical_map("sym_mult", 3, a=1, b=1)
    assert nat.rank == nat.target.dim


def test_ext_mult_surjective():
    nat = canonical_map("ext_mult", 2, a=1, b=1)
    assert nat.rank == nat.target.dim


def test_tableau_composite_row():
    nat = canonical_map("tableau_composite", 2, lam=(2,))
    assert nat.source.dim == 4 and nat.target.dim == 3
    assert nat.rank == 3


def test_tableau_composite_column():
    nat = canonical_map("tableau_composite", 2, lam=(1, 1))
    assert nat.rank == 1


_EVERY_KIND = [("gamma_comult", 1, 1), ("gamma_comult", 2, 1),
               ("sym_mult", 1, 1), ("sym_mult", 2, 1),
               ("ext_mult", 1, 1), ("ext_mult", 2, 1),
               ("koszul_diff", 2, 1), ("koszul_diff", 1, 2), ("koszul_diff", 3, 0),
               ("dual_koszul_diff", 2, 1), ("dual_koszul_diff", 1, 2),
               ("dual_koszul_diff", 3, 0)]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_rank_by_dominant_blocks_matches_dense_rank(p, m):
    """NaturalMap.rank (orbit-weighted ranks of the dominant weight blocks)
    equals the rank of the whole map, densified; every matrix is a
    canonical fp.CSR: entries in [1, p), columns sorted, no duplicates."""
    maps = [canonical_map(kind, p, a=a, b=b, m=m, n=n)
            for kind, a, b in _EVERY_KIND for n in (a + b, a + b + 1)]
    maps += [canonical_map("tableau_composite", p, lam=lam, n=n)
             for lam in ((2,), (1, 1), (2, 1), (1, 1, 1), (3, 1), (2, 2))
             for n in (sum(lam), sum(lam) + 1)]
    for nat in maps:
        assert_canonical(nat.matrix)
        assert nat.matrix.p == p
        assert nat.rank == fp.rank(nat.matrix.toarray(), p)


def test_equivariance_checker_takes_sparse_and_dense():
    nat = canonical_map("koszul_diff", 3, a=2, b=1)
    before = nat.matrix.toarray()
    check_equivariance(nat.matrix, nat.source, nat.target)
    check_equivariance(nat.matrix.toarray(), nat.source, nat.target)
    check_equivariance((nat.matrix.toarray() * 4).tolist(), nat.source, nat.target)
    assert (nat.matrix.toarray() == before).all()
    bad = nat.matrix.toarray()
    bad[0, 0] = (bad[0, 0] + 1) % 3
    for form in (fp.CSR.from_dense(bad, 3), bad):
        with pytest.raises(EquivarianceError):
            check_equivariance(form, nat.source, nat.target)


def test_equivariance_checker_catches_garbage():
    src = evaluate("G(2)", 2)
    tgt = evaluate("S(2)", 2)
    bad = np.zeros((3, 3), dtype=np.int64)
    bad[0, 1] = 1
    with pytest.raises(EquivarianceError):
        check_equivariance(bad, src, tgt)


def test_equivariance_checker_catches_weight_preserving_map_d4():
    # the weight idempotent of (1,1,1,1) keeps every weight space but does
    # not commute with the root movers
    mod = evaluate("I*I*I*I", 2)
    bad = dense(xi_block(mod, weight_key((1, 1, 1, 1))))
    for comp in compositions(4, 4):
        rows = weight_space(mod, comp)
        assert fp.rank(np.vstack([rows, fp.matmul(rows, bad.T, 2)]), 2) \
            == rows.shape[0]
    with pytest.raises(EquivarianceError):
        check_equivariance(bad, mod, mod)


def test_equivariance_check_visits_every_generator():
    """check_equivariance multiplies by the stacked generator action: one
    block of columns per generator ref, in order, each the ref's own
    stack of one."""
    shape = evaluate("param(L(2)*I,2)", 3)
    dual = evaluate("dual(S(2)*I)", 2)
    assert isinstance(shape, ShapeModule) and shape.m == 2
    for mod in (shape, dual):
        refs, stacked = mod.generator_action()
        assert refs == mod.space.generator_refs()
        assert stacked.shape == (mod.dim, len(refs) * mod.dim)
        for g, ref in enumerate(refs):
            want = dense(mod.stack_matrix(ref))
            got = dense(stacked)[:, g * mod.dim: (g + 1) * mod.dim]
            assert (got == want).all(), ref


def test_check_field_refuses_primes_past_the_exact_bound():
    """65521, the largest prime below fp.PRIME_BOUND = 2^16, is a field;
    65537, the least prime above it, is refused, and so is 2^61 - 1, at
    once rather than after trial division up to its square root."""
    assert fp.PRIME_BOUND == 2**16
    check_field(65521)
    assert evaluate("I*I", 65521).dim == 4
    for p in (65537, 2**61 - 1):
        with pytest.raises(SemanticError, match="not below 65536"):
            check_field(p)
        with pytest.raises(SemanticError, match="not below 65536"):
            evaluate("I", p)


def test_equivariance_check_refuses_modules_of_two_categories():
    with pytest.raises(ValueError):
        check_equivariance(np.eye(4, dtype=np.int64), evaluate("I*I", 2),
                           evaluate("I*I", 3))


def test_canonical_map_refuses_a_non_prime_field():
    with pytest.raises(SemanticError, match="not prime"):
        canonical_map("koszul_diff", 4, a=2, b=0)
    with pytest.raises(SemanticError, match="not prime"):
        canonical_map("tableau_composite", 6, lam=(2, 1))


def test_equivariance_error_names_the_last_generator():
    """A twin of I*I*I whose action differs only on the last generator:
    the identity commutes with every other one, and the error names it."""
    mod = evaluate("I*I*I", 2)
    last = mod.space.generator_refs()[-1]

    class Twin(ModuleRep):
        def __init__(self):
            super().__init__(mod.p, mod.n, mod.D, mod.dim, mod.ambient)
            self.contents = mod.contents

        def _stack(self, ref):
            # the twin's one action rule: mod's stack, every entry shifted
            # on the block of the last generator
            mat = dense(mod.stack_matrix(ref)).copy()
            if ref == ("gens",):
                mat[:, -mod.dim:] += 1
            return fp.CSR.from_dense(mat, mod.p)

    with pytest.raises(EquivarianceError, match=re.escape(repr(last))):
        check_equivariance(np.eye(mod.dim, dtype=np.int64), mod, Twin())


def test_equivariance_refuses_a_change_of_value_alone():
    """Doubling one stored entry of a Koszul differential at p = 3 keeps
    its sparsity pattern, so every weight check passes and only the
    products' entries can tell; the error names a generator."""
    nat = canonical_map("koszul_diff", 3, a=2, b=1)
    phi, refs = nat.matrix, nat.source.space.generator_refs()
    for k in range(phi.nnz):
        data = phi.data.copy()
        data[k] = 2 * data[k] % 3
        bad = fp.CSR(phi.indptr, phi.indices, data, phi.shape, phi.p)
        with pytest.raises(EquivarianceError, match="fails to commute") as err:
            check_equivariance(bad, nat.source, nat.target)
        assert any(repr(ref) in str(err.value) for ref in refs)


# -- Schur, Weyl, simple ------------------------------------------------------


def test_schur_dimensions():
    assert schur_weyl_simple((2, 2), "schur", 2).dim == 20
    assert schur_weyl_simple((3, 1), "schur", 2).dim == 45
    assert schur_weyl_simple((2, 1), "schur", 3).dim == 8


def test_weyl_matches_schur_character():
    for lam, p in [((2, 1), 2), ((2, 2), 2), ((2, 1), 3)]:
        schur = schur_weyl_simple(lam, "schur", p)
        weyl = schur_weyl_simple(lam, "weyl", p)
        assert character(schur) == character(weyl)


def test_simple_row_of_two():
    simple = schur_weyl_simple((2,), "simple", 2)
    assert simple.dim == 2
    assert character(simple) == character(evaluate("twist(I,1)", 2))


def test_simple_column_of_two():
    simple = schur_weyl_simple((1, 1), "simple", 2)
    assert simple.dim == 1


def test_simple_versus_schur_in_semisimple_degree():
    # at p = 3 every degree-2 module is semisimple: heads fill their Schur
    for lam in [(2,), (1, 1)]:
        assert (schur_weyl_simple(lam, "simple", 3).dim
                == schur_weyl_simple(lam, "schur", 3).dim)
    # at p = 2 the head of S^2 is strictly smaller
    assert (schur_weyl_simple((2,), "simple", 2).dim
            < schur_weyl_simple((2,), "schur", 2).dim)


def test_weyl_to_schur_hom_is_line():
    weyl = schur_weyl_simple((2, 1), "weyl", 2)
    schur = schur_weyl_simple((2, 1), "schur", 2)
    assert len(hom_space(weyl, schur)) == 1


def test_tensor_module_agrees_with_shape():
    shape = evaluate("G(2)*L(1)", 2)
    composite = Tensor(Dual(Dual(Atom("G", (2,)))), Ident())
    mixed = evaluate(composite, 2)
    assert mixed.dim == shape.dim
    assert character(mixed) == character(shape)


def test_weight_space_completeness():
    for text in ["schur(2,2)", "dual(schur(2,2))", "simple(2,2)"]:
        mod = evaluate(text, 2)
        assert sum(mod.weight_indices(c).size for c in compositions(4, 4)) == mod.dim


def test_quotients_match_linear_algebra_route():
    """The combinatorial symmetric/exterior quotient dimensions agree with
    quotienting tensor space by the subspaces built from place swaps."""
    from spfext.tensorspace import get_space
    for p in (2, 3):
        ts = get_space(p, 2, 2)
        swap = ts.place_permutation((1, 0)).toarray()
        eye = np.eye(4, dtype=np.int64)
        sym_rel = fp.basis_rows(swap - eye, p)[0]
        assert 4 - sym_rel.shape[0] == evaluate("S(2)", p).dim
        plus = fp.basis_rows(swap + eye, p)[0]
        diag = np.zeros((2, 4), dtype=np.int64)
        diag[0, encode(ts, (0, 0))] = 1
        diag[1, encode(ts, (1, 1))] = 1
        ext_rel = fp.basis_rows(np.concatenate([plus, diag]), p)[0]
        assert 4 - ext_rel.shape[0] == evaluate("L(2)", p).dim


def test_frobenius_substitute_entry_point():
    mod = frobenius_substitute("I", 2, 2)
    assert mod.dim == 4
    assert all(max(c) == 4 for c in mod.character())


def test_shape_expression_round_trip():
    cases = {"twist(I*I,1)": "twist(I,1)*twist(I,1)",
             "twist(I,1)": "twist(I,1)",
             "S(1)*L(2)": "I*L(2)",
             "G(1,1)": "I*I",
             "param(twist(G(2),1),2)": "param(twist(G(2),1),2)",
             "param(I,2)*param(S(2),2)": "param(I*S(2),2)",
             "twist(S(2),1)*I": "twist(S(2),1)*I"}
    for text, rendered in cases.items():
        mod = evaluate(text, 2)
        assert mod.expression() == rendered
        back = evaluate(rendered, 2)
        assert (back.blocks, back.m, back.n) == (mod.blocks, mod.m, mod.n)


def test_spellings_of_one_shape_share_one_module():
    """Keyed on its normalized blocks, one shape is one module, with one
    set of lift, projection and action caches."""
    for spellings in [("I*I", "S(1)*S(1)", "L(1)*G(1)", "G(1,1)"),
                      ("twist(I*I,1)", "twist(S(1),1)*twist(I,1)")]:
        first = evaluate(spellings[0], 2)
        for text in spellings[1:]:
            assert evaluate(text, 2) is first


def _hom_space_by_assembly(src, tgt):
    """hom_space as it was first written: weight blocks read from the
    weight idempotents, the full generating set, and after every kernel
    cut each surviving coefficient vector assembled into its map anew."""
    p = src.p
    blocks = []
    for comp in compositions(src.D, src.n):
        ws, wt = src.weight_indices(comp).size, tgt.weight_indices(comp).size
        if ws and wt:
            blocks.append((tuple(comp), ws, wt))
    src_hat, tgt_rows = {}, {}
    for comp, _, _ in blocks:
        pivots = src.weight_indices(comp)
        proj = dense(xi_block(src, weight_key(comp))) % p
        src_hat[comp] = proj[list(pivots), :]
        tgt_rows[comp] = weight_space(tgt, comp)

    def assemble(y):
        x = fp.zeros(tgt.dim, src.dim)
        off = 0
        for comp, ws, wt in blocks:
            blk = y[off: off + ws * wt].reshape(wt, ws)
            off += ws * wt
            x = (x + fp.matmul(fp.matmul(tgt_rows[comp].T, blk, p),
                               src_hat[comp], p)) % p
        return x

    kernel = np.eye(sum(ws * wt for _, ws, wt in blocks), dtype=np.int64)
    mats = [assemble(row) for row in kernel]
    for ref in full_generator_refs(src.space):
        if ref[0] == "xi" or kernel.shape[0] == 0:
            continue
        a_src = dense(stack_block(src.stack_matrix(ref), 0, src.dim))
        a_tgt = dense(stack_block(tgt.stack_matrix(ref), 0, tgt.dim))
        resid = np.stack([((fp.matmul(x, a_src, p) - fp.matmul(a_tgt, x, p))
                           % p).reshape(-1) for x in mats], axis=1)
        coeffs = fp.kernel_basis(resid, p)
        if coeffs.shape[0] < kernel.shape[0]:
            kernel = fp.matmul(coeffs, kernel, p)
            mats = [assemble(row) for row in kernel]
    return mats


@pytest.mark.parametrize("src,tgt,p", [
    ("I*I", "S(2)", 2), ("I*I", "I*I", 3), ("I*I*I", "S(2)*I", 2),
    ("G(2)*I", "S(3)", 3), ("L(2)*I", "I*I*I", 3), ("weyl(2,1)", "schur(2,1)", 2),
    ("schur(2,1)", "dual(schur(2,1))", 3), ("weyl(2,2)", "schur(2,2)", 2),
    ("dual(S(2)*I)", "S(2)*I", 2), ("simple(1,1)*I", "I*I*I", 2),
    ("I*I", "simple(2)", 2)])
def test_hom_space_matches_assembly_reference(src, tgt, p):
    """Rebuilding the maps linearly after a kernel cut gives the very same
    basis, entry for entry, as assembling each one again."""
    got = hom_space(evaluate(src, p), evaluate(tgt, p))
    want = _hom_space_by_assembly(evaluate(src, p), evaluate(tgt, p))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        assert a.shape == b.shape and (a == b).all()


# -- tensor-space bridge against the loop reference ---------------------------


def _ambient_index_by_loop(mod, letters):
    u_idx = e_idx = pos = 0
    for _, size, twist in mod.blocks:
        for _ in range(size):
            u, a = divmod(letters[pos], mod.n)
            u_idx = u_idx * mod.m + u
            for _ in range(mod.p ** twist):
                e_idx = e_idx * mod.n + a
            pos += 1
    return u_idx * (mod.n ** mod.D) + e_idx


def _sort_with_sign_by_loop(letters):
    arr = list(letters)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and arr[j - 1] == arr[j]:
            return None
    return tuple(arr), sign


def _contents_by_loop(mod):
    """ShapeModule.contents as it was first written: each block's letter
    contents, then one basis index at a time, decoded block by block."""
    per_block = []
    for b, (_, _, twist) in enumerate(mod.blocks):
        rows = np.zeros((len(mod.block_bases[b]), mod.n), dtype=np.int64)
        for k, tup in enumerate(mod.block_bases[b]):
            for letter in tup:
                rows[k, letter % mod.n] += mod.p ** twist
        per_block.append(rows)
    contents = np.zeros((mod.dim, mod.n), dtype=np.int64)
    for idx in range(mod.dim):
        rem = idx
        for b in range(len(mod.blocks) - 1, -1, -1):
            size = len(mod.block_bases[b])
            contents[idx] += per_block[b][rem % size]
            rem //= size
    return contents


def _content_groups_by_loop(mod):
    """ShapeModule.content_groups as it was first written: one basis index
    at a time, each weight opened at its first index."""
    groups = {}
    for idx, row in enumerate(_contents_by_loop(mod)):
        groups.setdefault(tuple(int(c) for c in row), []).append(idx)
    return {c: np.array(ix, dtype=np.int64) for c, ix in groups.items()}


def _lift_by_loop(mod):
    """ShapeModule.lift_matrix as it was first written: one basis element
    and one arrangement of its G blocks at a time."""
    rows, cols = [], []
    for idx in range(mod.dim):
        tup = basis_tuple(mod, idx)
        expansions = [list(distinct_permutations(tup[b])) if kind == "G"
                      else [tup[b]] for b, (kind, _, _) in enumerate(mod.blocks)]
        for arrangement in product(*expansions):
            flat = tuple(x for part in arrangement for x in part)
            rows.append(_ambient_index_by_loop(mod, flat))
            cols.append(idx)
    return sparse.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)),
                             shape=(mod.m ** mod.nletters * mod.n ** mod.D,
                                    mod.dim))


def _project_by_loop(mod):
    """ShapeModule.project_matrix as it was first written: one ambient
    index at a time, decoded digit by digit."""
    nD = mod.n ** mod.D
    rows, cols, vals = [], [], []
    for u_idx in range(mod.m ** mod.nletters):
        u_digits = []
        rem = u_idx
        for _ in range(mod.nletters):
            u_digits.append(rem % mod.m)
            rem //= mod.m
        u_digits.reverse()
        for e_idx in range(nD):
            e_digits = []
            rem = e_idx
            for _ in range(mod.D):
                e_digits.append(rem % mod.n)
                rem //= mod.n
            e_digits.reverse()
            coeff, tup_blocks, slot, pos, ok = 1, [], 0, 0, True
            for kind, size, twist in mod.blocks:
                reps = mod.p ** twist
                letters = []
                for _ in range(size):
                    group = e_digits[slot: slot + reps]
                    slot += reps
                    if any(g != group[0] for g in group[1:]):
                        ok = False
                        break
                    letters.append(u_digits[pos] * mod.n + group[0])
                    pos += 1
                if not ok:
                    break
                if kind == "G":
                    if any(letters[i] > letters[i + 1]
                           for i in range(len(letters) - 1)):
                        ok = False
                        break
                    tup_blocks.append(tuple(letters))
                elif kind == "S":
                    tup_blocks.append(tuple(sorted(letters)))
                else:
                    sorted_sign = _sort_with_sign_by_loop(tuple(letters))
                    if sorted_sign is None:
                        ok = False
                        break
                    tup_blocks.append(sorted_sign[0])
                    coeff *= sorted_sign[1]
            if ok:
                rows.append(mod.basis_index(tuple(tup_blocks)))
                cols.append(u_idx * nD + e_idx)
                vals.append(coeff % mod.p)
    return sparse.csr_matrix((np.array(vals, dtype=np.int64), (rows, cols)),
                             shape=(mod.dim, mod.m ** mod.nletters * nD))


BRIDGE_SHAPES = [
    (2, (("G", 2, 0), ("L", 2, 0)), 1), (2, (("S", 2, 0), ("L", 2, 0)), 1),
    (2, (("G", 2, 1),), 2), (2, (("S", 2, 1),), 1), (2, (("L", 2, 1),), 2),
    (2, (("L", 3, 0),), 2), (2, (("G", 2, 0), ("G", 1, 1)), 1),
    (3, (("G", 3, 0),), 1), (3, (("L", 2, 0), ("S", 1, 0)), 2),
    (3, (("S", 1, 1),), 2), (3, (("S", 2, 0), ("L", 1, 1)), 1),
    (3, (("L", 2, 1),), 1), (5, (("S", 2, 0), ("L", 2, 0)), 2),
    (5, (("G", 1, 1),), 2), (5, (("L", 3, 0), ("G", 2, 0)), 1),
]


@pytest.mark.parametrize("p,blocks,m", BRIDGE_SHAPES)
def test_bridge_matches_loop_reference(p, blocks, m):
    """The vectorised lift and projection equal the digit-by-digit loops
    entry for entry, with the same stored entries."""
    D = sum(size * p ** twist for _, size, twist in blocks)
    mod = ShapeModule(p, D, blocks, m)
    assert_same(mod.lift_matrix(), _lift_by_loop(mod))
    assert_same(mod.project_matrix(), _project_by_loop(mod))
