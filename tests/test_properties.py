"""Property tests on small random parameters (degree <= 3, p in {2, 3}):
Ext tables do not depend on the sweep order that picks generators, and
twisted projective sources satisfy the mirror duality.  Random block
tuples (degree <= 4) check the vectorised tensor-space bridge and weight
contents against their loop references, and random targets (degree <= 4)
the block-assembled Ext differentials against theirs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from csr_reference import assert_same  # noqa: E402

from spfext import young  # noqa: E402
from spfext.functors import evaluate  # noqa: E402
from spfext.homology import (duality_check, ext, ext_dims,  # noqa: E402
                             resolve_expression)
from spfext.modules import ShapeModule  # noqa: E402
from test_functors import (_content_groups_by_loop,  # noqa: E402
                            _contents_by_loop, _lift_by_loop,
                            _project_by_loop)
from test_words import ext_dims_by_loop  # noqa: E402


@st.composite
def fragment(draw, p: int, degree: int) -> str:
    """A product of G/S/L atoms, possibly with one twisted identity letter."""
    parts = []
    left = degree
    if left >= p and draw(st.booleans()):
        parts.append("twist(I,1)")
        left -= p
    while left:
        size = draw(st.integers(1, left))
        parts.append(f"{draw(st.sampled_from('GSL'))}({size})")
        left -= size
    return "*".join(parts)


def target(p: int, degree: int):
    labels = st.sampled_from(young.partitions_of(degree)).map(
        lambda lam: ",".join(map(str, lam)))
    return st.one_of(
        fragment(p, degree),
        fragment(p, degree).map(lambda e: f"dual({e})"),
        st.tuples(st.sampled_from(("schur", "weyl", "simple")), labels).map(
            lambda kl: f"{kl[0]}({kl[1]})"))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_ext_is_sweep_independent(data):
    p = data.draw(st.sampled_from((2, 3)), label="p")
    degree = data.draw(st.integers(1, 3), label="degree")
    src = data.draw(fragment(p, degree), label="source")
    tgt = data.draw(target(p, degree), label="target")
    assert (ext(src, tgt, p, sweep="dominance").dims
            == ext(src, tgt, p, sweep="reversed").dims)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_mirror_duality_for_twisted_identity(data):
    p = data.draw(st.sampled_from((2, 3)), label="p")
    tgt = data.draw(target(p, p), label="target")
    report = duality_check("I", tgt, p, i=1)
    assert report.passed, (report.forward, report.backward)


def random_shape(data) -> ShapeModule:
    """A shape module of degree <= 4 from random blocks."""
    p = data.draw(st.sampled_from((2, 3)), label="p")
    m = data.draw(st.integers(1, 2), label="m")
    blocks, left = [], 4
    while left and (not blocks or data.draw(st.booleans())):
        twist = data.draw(st.integers(0, 1 if left >= p else 0))
        size = data.draw(st.integers(1, left // p ** twist))
        blocks.append((data.draw(st.sampled_from("GSL")), size, twist))
        left -= size * p ** twist
    return ShapeModule(p, 4 - left, tuple(blocks), m)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bridge_matches_loop_reference_on_random_blocks(data):
    mod = random_shape(data)
    assert_same(mod.lift_matrix(), _lift_by_loop(mod))
    assert_same(mod.project_matrix(), _project_by_loop(mod))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_contents_match_loop_reference_on_random_blocks(data):
    mod = random_shape(data)
    assert np.array_equal(mod.contents, _contents_by_loop(mod))
    got, want = mod.content_groups(), _content_groups_by_loop(mod)
    assert list(got) == list(want)  # first-appearance order
    for c, ix in want.items():
        assert got[c].dtype == ix.dtype and np.array_equal(got[c], ix)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_ext_dims_matches_loop_reference_on_random_targets(data):
    p = data.draw(st.sampled_from((2, 3)), label="p")
    degree = data.draw(st.integers(1, 4), label="degree")
    src = data.draw(fragment(p, degree), label="source")
    tgt = data.draw(target(p, degree), label="target")
    sweep = data.draw(st.sampled_from(("dominance", "reversed")), label="sweep")
    res = resolve_expression(src, p, degree + 1, sweep=sweep)
    module = evaluate(tgt, p)
    assert ext_dims(res, module) == ext_dims_by_loop(res, module)
