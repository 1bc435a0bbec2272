"""The stage loop of `resolve` against its span-per-pick reference, the
Yoneda operator against its per-pick reference, and the loop's
in-flight checks under injected faults.

`resolve_by_span_per_pick` is the stage loop as it was before each
weight's span was built only when the sweep reaches it: after every pick
it re-reduces the span at every weight the pick touches, checks each
block's rank with its own elimination and computes the kernels in a
separate pass.  An RREF is unique, so the span it tests a kernel row
against is the same matrix, and the generators and blocks must agree
byte for byte.

`yoneda_images_by_loop` is the Yoneda map as it was before the operator
was cut once per stage and weight: it re-cuts each summand name's
stacked action at every call, at all of its module's rows and at the
dominant rows of every word, and applies it to v padded out to the
whole module.
"""

import numpy as np
import pytest

from spfext import fp, young
from spfext.errors import SpfextError
from spfext.functors import evaluate
from spfext.homology import (Stage, comp_of_partition, dominant_layout,
                             gamma_summand, hom_from_gamma, resolve,
                             resolve_expression, yoneda_operator)
from spfext.modules import ModuleRep

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from test_properties import fragment  # noqa: E402


def resolve_by_span_per_pick(module, depth, sweep):
    """(generators per stage, differential blocks per stage)."""
    p, n = module.p, module.n
    sweep_parts = young.partitions_of(module.D, max_parts=n)
    if sweep == "reversed":
        sweep_parts = sweep_parts[::-1]
    prev = Stage([(module.expression(), module, None)])
    groups = prev.groups
    kernel_blocks = {c: np.eye(len(ix), dtype=np.int64) for c, ix in groups.items()
                     if len(ix)}
    stages, diffs = [], []
    for s in range(depth + 1):
        gens, columns, span = [], {}, {}
        for lam in sweep_parts:
            comp = comp_of_partition(lam, n)
            kern = kernel_blocks.get(comp)
            if kern is None:
                continue
            idxs = groups[comp]
            for row in kern:
                rows, piv = span.get(comp, (fp.zeros(0, idxs.size), []))
                if rows.shape[0] and not fp.residual(rows, piv, row, p).any():
                    continue
                v = np.zeros(prev.dim, dtype=np.int64)
                v[idxs] = row
                images = yoneda_operator(prev, comp)(v)
                summand = gamma_summand(p, n, lam)
                gens.append(summand)
                for c, local in dominant_layout(summand[1])[1].items():
                    if c not in groups:
                        assert not images[:, local].any()
                        continue
                    block = images[np.ix_(groups[c], local)]
                    columns.setdefault(c, []).append(block)
                    if block.any():
                        old, _ = span.get(c, (fp.zeros(0, groups[c].size), []))
                        span[c] = fp.basis_rows(np.concatenate([old, block.T]), p)
        stage = Stage(gens)
        diff = {c: np.concatenate(columns[c], axis=1) if c in groups
                else fp.zeros(0, ix.size) for c, ix in stage.groups.items()}
        for comp, block in diff.items():
            want = kernel_blocks.get(comp, fp.zeros(0, 0)).shape[0]
            assert fp.rank(block, p) == want
        stages.append(stage.summands)
        diffs.append(diff)
        if stage.dim == 0:
            stages.extend([] for _ in range(s + 1, depth + 1))
            diffs.extend({} for _ in range(s + 1, depth + 1))
            break
        kernel_blocks = {c: fp.kernel_basis(block, p)
                         for c, block in diff.items() if block.shape[1]}
        kernel_blocks = {c: k for c, k in kernel_blocks.items() if k.shape[0]}
        prev, groups = stage, stage.groups
    return stages, diffs


def assert_matches_reference(module, depth, sweep):
    res = resolve(module, depth, sweep=sweep)
    stages, diffs = resolve_by_span_per_pick(module, depth, sweep)
    assert res.term_partitions() == stages
    assert len(res.diffs) == len(diffs)
    for got, want in zip(res.diffs, diffs):
        assert list(got) == list(want)
        for c, block in want.items():
            assert got[c].dtype == block.dtype
            assert got[c].shape == block.shape
            assert got[c].tobytes() == block.tobytes()


@pytest.mark.parametrize("expr,p,depth", [("twist(I,1)*twist(I,1)", 2, 5),
                                          ("S(2)*L(2)", 3, 4),
                                          ("param(twist(G(2),1),2)", 2, 4)])
def test_resolve_matches_span_per_pick_reference(expr, p, depth):
    for sweep in ("dominance", "reversed"):
        assert_matches_reference(evaluate(expr, p), depth, sweep)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_resolve_matches_span_per_pick_reference_on_random_sources(data):
    p = data.draw(st.sampled_from((2, 3)), label="p")
    degree = data.draw(st.integers(1, 4), label="degree")
    src = data.draw(fragment(p, degree), label="source")
    module = evaluate(src, p)
    for sweep in ("dominance", "reversed"):
        assert_matches_reference(module, degree + 1, sweep)


def yoneda_images_by_loop(level, comp, v):
    """The images of v under every word on a module, or under the
    dominant words on a stage."""
    v = np.asarray(v, dtype=np.int64).reshape(-1)
    if not isinstance(level, Stage):
        stack = level.stack_matrix(("words", tuple(comp), "all"))
        return (v[None] @ stack).reshape(-1, level.dim).T
    out = None
    for module, _, offsets in level.blocks.values():
        rows = dominant_layout(module)[0]
        stack = module.stack_matrix(("words", tuple(comp)))
        T = stack.shape[1] // module.dim
        out = fp.zeros(level.dim, T) if out is None else out
        coords = offsets[None, :] + np.arange(rows.size)[:, None]
        x = np.zeros((offsets.size, module.dim), dtype=np.int64)
        x[:, rows] = v[coords].T
        keep = (np.arange(T)[:, None] * module.dim + rows).reshape(-1)
        images = x @ stack.take_cols(keep)
        out[coords] = images.reshape(-1, T, rows.size).transpose(2, 0, 1)
    return out


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_yoneda_operator_matches_per_pick_reference(data):
    """On a source module, with every word, and on the source's stage and
    the stages of its resolution, with the dominant words, at every weight
    a stage keeps, one operator applied to several vectors agrees byte for
    byte with the reference applied to each."""
    p = data.draw(st.sampled_from((2, 3)), label="p")
    degree = data.draw(st.integers(1, 4), label="degree")
    src = data.draw(fragment(p, degree), label="source")
    res = resolve_expression(src, p, 2)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    module = res.module
    source = Stage([(res.source, module, None)])
    cases = [(module, comp, module.weight_indices(comp),
              hom_from_gamma(comp, module)[1]) for comp in source.groups]
    cases += [(stage, comp, idxs, yoneda_operator(stage, comp))
              for stage in [source, *res.stages] if stage.dim
              for comp, idxs in stage.groups.items()]
    for level, comp, idxs, yoneda in cases:
        for _ in range(2):
            v = np.zeros(level.dim, dtype=np.int64)
            v[idxs] = rng.integers(0, p, idxs.size)
            got = yoneda(v)
            want = yoneda_images_by_loop(level, comp, v)
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


# -- fault injection: each check must fire on a broken resolution --------------


@pytest.mark.parametrize("p,n,labels", [
    (2, 4, [(2, 2), (3, 1), (2, 2), (4,), (3, 1)]),
    (3, 3, [(1, 1, 1), (2, 1), (3,), (2, 1), (1, 1, 1)])])
def test_stage_places_summands_in_order(p, n, labels):
    """A stage's coordinates are its summands' dominant rows in the order
    given, even when copies of one name are not adjacent (as in a cache
    entry written by hand): each weight's coordinates, placed summand by
    summand, ascend."""
    summands = [gamma_summand(p, n, lam) for lam in labels]
    stage = Stage(summands)
    groups, offset = {}, 0
    for _, module, _ in summands:
        rows, positions, _ = dominant_layout(module)
        for c, local in positions.items():
            groups.setdefault(c, []).append(local + offset)
        offset += rows.size
    assert stage.dim == offset
    assert stage.summands == labels
    assert list(stage.groups) == list(groups)
    for c, parts in groups.items():
        assert stage.groups[c].tobytes() == np.concatenate(parts).tobytes(), c
    starts = np.cumsum([0] + [dominant_layout(m)[0].size for _, m, _ in summands])
    for name, (module, gen, offs) in stage.blocks.items():
        at = [k for k, lam in enumerate(labels) if lam == name]
        assert offs.tolist() == starts[at].tolist()
        assert (module, gen) == gamma_summand(p, n, name)[1:]


def test_exactness_check_fires_on_a_lost_kernel_vector(monkeypatch):
    true_kernel = fp.kernel

    def lossy(a, p):
        # the last kernel row dropped: its free column joins the pivots
        # with zero coefficients, so the other rows are unchanged
        free, pivots, coef = true_kernel(a, p)
        if not free.size:
            return true_kernel(a, p)
        pivots = np.append(pivots, free[-1])
        order = pivots.argsort()
        coef = np.concatenate([coef[:, :-1], fp.zeros(1, free.size - 1)])
        return fp.Kernel(free[:-1], pivots[order], coef[order])

    a = np.array([[1, 1, 0], [0, 0, 0]])
    assert (lossy(a, 2).rows() == fp.kernel_basis(a, 2)[:-1]).all()
    monkeypatch.setattr(fp, "kernel", lossy)
    with pytest.raises(SpfextError, match="spans rank"):
        resolve(evaluate("twist(I,1)*twist(I,1)", 2), 3)


@pytest.mark.parametrize("dominant", [False, True])
@pytest.mark.parametrize("stage", [0, 1])
def test_grading_check_fires_on_a_misgraded_word(monkeypatch, stage, dominant):
    """One entry of each word stack moved, within its word's block, to a
    basis vector of another weight, dominant or not: on the source, whose
    stacks stage 0 reads, or on every Gamma^lam, whose stacks the later
    stages read.  The image escapes the weight grading."""
    module = evaluate("twist(I,1)*twist(I,1)", 2)
    real = ModuleRep.stack_matrix

    def misgraded(self, ref):
        stack = real(self, ref)
        if (self is module) != (stage == 0) or ref[0] != "words" or len(ref) > 2:
            return stack
        row, col, data = stack.coo()
        k = np.flatnonzero((self.contents[row] == ref[1]).all(axis=1))[0]
        image = col[k] % self.dim
        other = (self.contents != self.contents[image]).any(axis=1)
        at = (np.diff(self.contents, axis=1) <= 0).all(axis=1) == dominant
        col = col.copy()
        col[k] += np.flatnonzero(other & at)[0] - image
        return fp.CSR.from_coo(row, col, data, stack.shape, stack.p)

    monkeypatch.setattr(ModuleRep, "stack_matrix", misgraded)
    with pytest.raises(SpfextError, match="image escapes the weight grading"):
        resolve(module, 2)


def test_complex_check_fires_on_a_wrong_kernel(monkeypatch):
    true_kernel = fp.kernel

    def stray(a, p):
        # the same dimension, but every row gains a stray coordinate at
        # the first pivot column, which is no combination of the columns
        # right of it, and so leaves the kernel
        free, pivots, coef = true_kernel(a, p)
        coef = coef.copy()
        coef[:1] = (coef[:1] + 1) % p
        return fp.Kernel(free, pivots, coef)

    a = np.array([[1, 1, 0], [0, 0, 1]])
    assert (a @ stray(a, 2).rows().T % 2).any(axis=0).all()
    monkeypatch.setattr(fp, "kernel", stray)
    with pytest.raises(SpfextError, match="d o d != 0"):
        resolve(evaluate("twist(I,1)*twist(I,1)", 2), 3)
