import numpy as np
import pytest

from spfext import fp
from spfext.errors import (AdmissibilityError, DegreeMismatchError,
                           UnsupportedExpressionError)
from spfext.functors import evaluate
from spfext.homology import (duality_check, end_dimension, ext, gamma_shape,
                             hom_from_gamma, hom_pairing_check, kr_cohomology,
                             resolve, resolve_expression, weight_space)
from spfext.modules import (DualModule, SubmoduleModule, TensorModule,
                            check_equivariance)
from spfext.tensorspace import compositions


def test_weight_space_dimensions():
    gamma2 = evaluate("G(2)", 2)
    assert weight_space(gamma2, (2, 0)).shape[0] == 1
    twisted = evaluate("twist(I,1)", 2)
    assert weight_space(twisted, (1, 1)).shape[0] == 0
    for text in ["G(2)", "twist(I,1)", "S(1,1)"]:
        mod = evaluate(text, 2)
        assert sum(weight_space(mod, c).shape[0]
                   for c in compositions(2, 2)) == mod.dim


def test_hom_from_gamma_dimensions():
    twisted = evaluate("twist(I,1)", 2)
    assert hom_from_gamma((2, 0), twisted)[0] == 1
    assert hom_from_gamma((1, 1), twisted)[0] == 0
    free = evaluate("S(1,1)", 2)
    assert hom_from_gamma((1, 1), free)[0] == 2


@pytest.mark.parametrize("kind", ["shape", "dual", "submodule", "tensor"])
@pytest.mark.parametrize("comp", [(1, 1, 0), (3, 0), (-1, 3)])
def test_every_module_kind_refuses_a_non_weight(kind, comp):
    s2 = evaluate("S(2)", 2)
    module = {"shape": s2,
              "dual": DualModule(s2),
              "submodule": SubmoduleModule(s2, np.eye(s2.dim, dtype=np.int64)),
              "tensor": TensorModule(evaluate("I", 2, n=2),
                                     evaluate("I", 2, n=2))}[kind]
    with pytest.raises(ValueError):
        module.weight_indices(comp)
    with pytest.raises(ValueError):
        weight_space(module, comp)
    if sum(comp) == module.D:
        with pytest.raises(ValueError):
            hom_from_gamma(comp, module)


def test_hom_from_gamma_realize_is_equivariant():
    twisted = evaluate("twist(I,1)", 2)
    dim, realize = hom_from_gamma((2, 0), twisted)
    assert dim == 1
    rows = weight_space(twisted, (2, 0))
    mat = realize(rows[0])
    from spfext.homology import gamma_shape
    gamma = gamma_shape(2, 2, (2,))
    assert mat.shape == (2, gamma.dim)
    check_equivariance(mat, gamma, twisted)


def test_hom_from_gamma_refuses_a_vector_of_another_weight():
    """realize(v) must send the generator to v, so v must be a weight-comp
    vector of the module: e_0 of S(2) has weight (2, 0), not (1, 1)."""
    s2 = evaluate("S(2)", 2)
    _, realize = hom_from_gamma((1, 1), s2)
    e0 = np.zeros(s2.dim, dtype=np.int64)
    e0[0] = 1
    assert tuple(s2.contents[0]) == (2, 0)
    with pytest.raises(ValueError, match="weight"):
        realize(e0)
    with pytest.raises(ValueError, match="weight"):
        realize(np.zeros(s2.dim + 1, dtype=np.int64))
    rows = weight_space(s2, (1, 1))
    assert realize(rows[0] + 2 * e0).shape == (s2.dim, 4)  # 2 e_0 is 0 in F_2


def test_resolution_of_twisted_identity():
    res = resolve_expression("twist(I,1)", 2, 3)
    assert res.term_partitions() == [[(2,)], [(1, 1)], [(2,)], []]
    assert len(res.stages) == len(res.diffs) == res.depth + 1


def test_resolution_of_projective_stops_immediately():
    res = resolve_expression("G(2)", 2, 2)
    assert res.term_partitions() == [[(2,)], [], []]


def test_resolution_of_top_exterior_power_p3():
    res = resolve_expression("L(3)", 3, 1)
    assert res.term_partitions()[0] == [(1, 1, 1)]


def test_resolution_invariants_by_construction():
    # d o d = 0 and stage exactness are asserted inside resolve; getting a
    # resolution back at all certifies them, so just probe the blocks.
    res = resolve_expression("twist(I,1)*twist(I,1)", 2, 5)
    for s in range(1, len(res.diffs)):
        for comp, block in res.diffs[s].items():
            up = res.diffs[s - 1].get(comp)
            if up is not None and up.size and block.size:
                assert not fp.matmul(up, block, 2).any()


def test_ext_lemma_values():
    assert ext("twist(I,1)", "S(2)", 2).dims == [1, 0, 0]
    assert ext("twist(I,1)", "L(2)", 2).dims == [0, 1, 0]
    assert ext("twist(I,1)", "G(2)", 2).dims == [0, 0, 1]


def test_ext_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        ext("twist(I,1)", "G(3)", 2)


def test_ext_unsupported_source():
    with pytest.raises(UnsupportedExpressionError):
        ext("dual(G(2))", "S(2)", 2)


def test_ext_resolution_independent():
    for tgt in ["S(2)", "L(2)", "G(2)", "simple(2)"]:
        forward = ext("twist(I,1)", tgt, 2, sweep="dominance")
        backward = ext("twist(I,1)", tgt, 2, sweep="reversed")
        assert forward.dims == backward.dims


def test_yoneda_bottom_row():
    for tgt in ["S(2)", "L(2)", "G(2)", "twist(I,1)"]:
        mod = evaluate(tgt, 2)
        table = ext("G(2)", tgt, 2)
        assert table.dims[0] == mod.weight_indices((2, 0)).size
        table = ext("G(1,1)", tgt, 2)
        assert table.dims[0] == mod.weight_indices((1, 1)).size


def test_kuhn_duality_swap_symmetry():
    pairs = [("twist(I,1)", "S(2)", "G(2)", "twist(I,1)"),
             ("twist(I,1)", "L(2)", "L(2)", "twist(I,1)"),
             ("twist(I,1)", "G(2)", "S(2)", "twist(I,1)")]
    for src, tgt, dual_tgt, dual_src in pairs:
        a = ext(src, tgt, 2)
        b = ext(dual_tgt, dual_src, 2)
        assert a.dims == b.dims


def test_kr_matches_ext_for_trivial_parameter():
    direct = ext("twist(G(2),1)", "G(2)*G(2)", 2, i=1)
    routed = kr_cohomology("G(2)*G(2)", 1, 2, 1)
    assert direct.dims == routed.dims
    assert routed.source == "param(twist(G(2),1),1)"


def test_kr_rejects_indivisible_degree():
    from spfext.errors import SemanticError
    with pytest.raises(SemanticError):
        kr_cohomology("G(3)", 1, 2, 1)


def test_duality_small_simple_cases():
    rep = duality_check("I", "simple(2)", 2, i=1)
    assert rep.passed and rep.forward == [1, 0, 1]
    rep = duality_check("I", "simple(1,1)", 2, i=1)
    assert rep.passed and rep.forward == [0, 1, 0]


@pytest.mark.parametrize("target,forward", [
    ("simple(2)*G(2)", [0, 0, 2, 0, 2]), ("dual(S(2))*L(2)", [0, 0, 0, 2, 0]),
    ("simple(1,1)*S(2)", [0, 2, 0, 0, 0])])
def test_duality_on_tensor_targets(target, forward):
    """Mirror duality into tensor products outside the fragment, so Ext is
    read through TensorModule and, mirrored, through its dual."""
    rep = duality_check("I*I", target, 2, i=1)
    assert rep.passed and rep.forward == forward
    assert rep.backward == forward[::-1]


def test_duality_refuses_inadmissible():
    with pytest.raises(AdmissibilityError):
        duality_check("G(2)", "S(4)", 2, i=1)
    with pytest.raises(AdmissibilityError):
        # the block of (2) at p = 2 contains more than one simple
        duality_check("simple(2)", "S(4)", 2, i=1)


def test_duality_accepts_certified_simple():
    # (1) is a p-core for every p, certifying the unit simple as projective
    rep = duality_check("simple(1)", "S(2)", 2, i=1)
    assert rep.passed and rep.forward == [1, 0, 0]
    rep = duality_check("simple(1)", "L(3)", 3, i=1)
    assert rep.passed and rep.forward == [0, 0, 1, 0, 0]


def test_end_dimensions():
    assert end_dimension("I", 2) == 1
    assert end_dimension("I*I", 2) == 2
    assert end_dimension("I*I*I", 2) == 6


def test_pairing_reports():
    rep = hom_pairing_check("I", "I", 2)
    assert rep.dim_hom_pm == 1 and rep.right_nondegenerate
    rep = hom_pairing_check("I*I", "S(2)", 3)
    assert rep.dim_hom_pm == rep.dim_hom_mp == 1
    assert rep.right_nondegenerate
    rep = hom_pairing_check("I*I", "I*I", 2)
    assert rep.dim_hom_pm == 2 and rep.passed


def test_pairing_refuses_inadmissible():
    with pytest.raises(AdmissibilityError):
        hom_pairing_check("G(2)", "I*I", 2)
    with pytest.raises(AdmissibilityError):
        # the block of (2) at p = 2 contains more than one simple
        hom_pairing_check("simple(2)", "I*I", 2)


def test_ext_table_payload_shape():
    table = ext("twist(I,1)", "S(2)", 2)
    payload = table.payload()
    assert set(payload) == {"p", "i", "d", "source", "target", "dims",
                            "depth", "version"}
    assert payload["d"] == 1 and payload["version"] == 2


def test_kr_with_parameterized_source():
    """Resolving the parameterized twisted divided power itself: the
    parameter multiplies the expected Hom/Ext dimensions."""
    assert kr_cohomology("S(2)", 2, 2, 1).dims == [2, 0, 0]
    assert kr_cohomology("L(2)", 2, 2, 1).dims == [0, 2, 0]
    assert kr_cohomology("G(2)", 2, 2, 1).dims == [0, 0, 2]


def test_library_refuses_bad_field_and_twist():
    from spfext.errors import SemanticError
    with pytest.raises(SemanticError):
        ext("I*I", "S(2)", 4)
    with pytest.raises(SemanticError):
        ext("twist(I,1)", "S(2)", 2, i=0)
    with pytest.raises(SemanticError):
        ext("twist(I,1)", "S(2)", 1)
    with pytest.raises(SemanticError):
        resolve_expression("I*I", 4, 2)
    with pytest.raises(SemanticError):
        evaluate("I*I", 1)
    # a p, i or depth that is no Python int, a bool included
    for p, i in ((2.0, 1), (True, 1), (np.int64(2), 1), (2, 1.5), (2, 1.0),
                 (2, True)):
        with pytest.raises(SemanticError):
            ext("I*I", "S(2)", p, i=i)
    for depth in (2.5, 2.0, True, np.int64(1), -1):
        with pytest.raises(SemanticError):
            ext("I*I", "S(2)", 2, depth=depth)
        with pytest.raises(SemanticError):
            resolve_expression("I*I", 2, depth)
        with pytest.raises(SemanticError):
            resolve(evaluate("I*I", 2), depth)


def test_checks_refuse_bad_field_and_twist_first():
    """The field and twist order are refused before any degree rule."""
    from spfext.errors import SemanticError
    with pytest.raises(SemanticError, match="positive integer"):
        duality_check("I", "S(2)", 2, i=0)
    with pytest.raises(SemanticError, match="not prime"):
        duality_check("I*I", "S(4)", 4)
    with pytest.raises(SemanticError, match="not prime"):
        kr_cohomology("G(2)", 1, 4, 1)
    with pytest.raises(SemanticError, match="positive integer"):
        kr_cohomology("G(2)", 1, 2, 0)


def test_ext_above_full_basis_limit():
    assert ext("G(5)", "S(5)", 2).dims == [1, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2)])
def test_friedlander_suslin_twisted_identity(p, r):
    # Ext^*(I^(r), I^(r)) is F_p in the even degrees 0, 2, ..., 2p^r - 2
    # (Friedlander-Suslin, Invent. Math. 127, 1997)
    top = 2 * p ** r - 2
    expected = [1 if s % 2 == 0 else 0 for s in range(top + 1)]
    twist = f"twist(I,{r})"
    assert ext(twist, twist, p, i=r).dims == expected


def stage_dims(res):
    """The dimension of each stage as a whole sum of Gamma^lam summands,
    not only its dominant rows."""
    return [sum(gamma_shape(res.p, res.n, lam).dim for lam in stage.summands)
            for stage in res.stages]


def test_generator_selection_pinned():
    dominance = resolve_expression("twist(I,1)*twist(I,1)", 2, 5)
    assert stage_dims(dominance) == [135, 355, 721, 1255, 1290, 625]
    reversed_ = resolve_expression("twist(I,1)*twist(I,1)", 2, 5,
                                   sweep="reversed")
    assert stage_dims(reversed_) == [100, 576, 1288, 1920, 1700, 1088]


def test_yoneda_operator_carries_generator_to_v():
    """A module's Yoneda map, over every word, and a stage's, over the
    dominant words, send the generating word to v."""
    from spfext.homology import (comp_of_partition, dominant_layout,
                                 gamma_summand, yoneda_operator)
    res = resolve_expression("twist(I,1)*twist(I,1)", 2, 5)
    for text, lam in (("twist(I,1)*twist(I,1)", (2, 2)),
                      ("param(twist(G(1),1),2)", (2,)), ("dual(S(2))", (1, 1))):
        module = evaluate(text, 2)
        v = weight_space(module, comp_of_partition(lam, module.n))[-1]
        images = hom_from_gamma(lam, module)[1](v)
        _, shape, gen = gamma_summand(2, module.n, lam)
        assert images.shape == (module.dim, shape.dim)
        assert (images[:, gen] == v).all()
    stage = res.stages[0]
    for lam in ((2, 2), (2, 1, 1)):
        comp = comp_of_partition(lam, res.n)
        v = np.zeros(stage.dim, dtype=np.int64)
        idxs = stage.groups[comp]
        v[idxs] = np.arange(1, idxs.size + 1) % 2
        images = yoneda_operator(stage, comp)(v)
        _, shape, gen = gamma_summand(2, res.n, lam)
        words = dominant_layout(shape)[0]
        assert images.shape == (stage.dim, words.size)
        assert (images[:, np.searchsorted(words, gen)] == v).all()


def test_duality_check_reads_disk_cache(tmp_path, monkeypatch):
    import spfext.homology as homology
    homology.clear_resolution_memo()
    cold = duality_check("I", "simple(2)", 2, i=1, cache_dir=str(tmp_path))
    assert list(tmp_path.glob("*.json"))
    homology.clear_resolution_memo()

    def no_resolve(*args, **kwargs):
        raise AssertionError("resolved again instead of reading the cache")

    monkeypatch.setattr(homology, "resolve", no_resolve)
    warm = duality_check("I", "simple(2)", 2, i=1, cache_dir=str(tmp_path))
    assert warm == cold
    homology.clear_resolution_memo()
