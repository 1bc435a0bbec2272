"""Dominant-weight resolutions against the full-weight reference.

`full_resolve` is the resolution as it was built before it was cut to
dominant weights: every stage keeps every weight block, and each Yoneda
map applies every word of Gamma^lam.  It is kept here as the slow
reference.  The dominant resolution must reproduce its generator lists
and its blocks at partitions byte for byte, and the reference's blocks
at the other weights must match the dominant ones under sorting (the
Weyl group symmetry that makes the truncation faithful).
"""

from functools import lru_cache

import numpy as np
import pytest
from scipy import sparse

from csr_reference import as_scipy
from spfext import cache as ca
from spfext import fp, young
from spfext.functors import evaluate
from spfext.homology import comp_of_partition, gamma_shape, resolve
from xi_reference import basis_tuple, word_key, xi_matrix


class FullStage:
    def __init__(self, partitions, p, n):
        self.p, self.n = p, n
        self.partitions = list(partitions)
        self.shapes, self.offsets = [], []
        groups = {}
        offset = 0
        for lam in self.partitions:
            shape = gamma_shape(p, n, lam)
            self.shapes.append(shape)
            self.offsets.append(offset)
            for comp, local in shape.content_groups().items():
                groups.setdefault(comp, []).append(local + offset)
            offset += shape.dim
        self.dim = offset
        self.groups = {c: np.concatenate(parts) for c, parts in groups.items()}


def full_yoneda(level, pieces, comp, v):
    """Every word of Gamma^comp applied to v, on every row of the level."""
    p, n = level.p, level.n
    shape = gamma_shape(p, n, tuple(part for part in comp if part))
    nD = shape.space.dim
    amb = np.concatenate(
        [((as_scipy(piece.lift_matrix()) @ v[off: off + piece.dim]) % p)
         .reshape(piece.ambient // nD, nD).T for piece, off in pieces], axis=1)
    proj = sparse.block_diag([as_scipy(piece.project_matrix()) for piece, _ in pieces],
                             format="csr")
    out = fp.zeros(level.dim, shape.dim)
    for t in range(shape.dim):
        word = xi_matrix(shape.space, word_key(comp, basis_tuple(shape, t)))
        acted = (word @ amb) % p
        out[:, t] = (proj @ acted.T.reshape(-1)) % p
    return out


def full_resolve(module, depth, sweep):
    """(partitions per stage, differential blocks at every weight)."""
    p, n = module.p, module.n
    sweep_parts = young.partitions_of(module.D, max_parts=n)
    if sweep == "reversed":
        sweep_parts = sweep_parts[::-1]
    prev, pieces = module, [(module, 0)]
    groups = module.content_groups()
    kernel_blocks = {c: np.eye(len(ix), dtype=np.int64) for c, ix in groups.items()
                     if len(ix)}
    stages, diffs = [], []
    for _ in range(depth + 1):
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
                images = full_yoneda(prev, pieces, comp, v)
                gens.append(lam)
                for c, local in gamma_shape(p, n, lam).content_groups().items():
                    if c not in groups:
                        assert not images[:, local].any()
                        continue
                    block = images[np.ix_(groups[c], local)]
                    columns.setdefault(c, []).append(block)
                    if block.any():
                        old, _ = span.get(c, (fp.zeros(0, groups[c].size), []))
                        span[c] = fp.basis_rows(np.concatenate([old, block.T]), p)
        stage = FullStage(gens, p, n)
        diff = {c: np.concatenate(columns[c], axis=1) if c in groups
                else fp.zeros(0, ix.size) for c, ix in stage.groups.items()}
        stages.append(gens)
        diffs.append(diff)
        if not gens:
            stages.extend([] for _ in range(len(stages), depth + 1))
            diffs.extend({} for _ in range(len(diffs), depth + 1))
            break
        kernel_blocks = {c: fp.kernel_basis(block, p)
                         for c, block in diff.items() if block.shape[1]}
        kernel_blocks = {c: k for c, k in kernel_blocks.items() if k.shape[0]}
        prev, groups = stage, stage.groups
        pieces = list(zip(stage.shapes, stage.offsets))
    return stages, diffs


def is_partition(comp):
    return list(comp) == sorted(comp, reverse=True)


CASES = [("twist(I,1)*twist(I,1)", 2, 5, "dominance"),
         ("twist(I,1)*twist(I,1)", 2, 5, "reversed"),
         ("G(3)", 3, 4, "dominance"),
         ("param(twist(G(2),1),2)", 2, 5, "dominance")]

@lru_cache(maxsize=None)
def reference(expr, p, depth, sweep):
    return full_resolve(evaluate(expr, p), depth, sweep)


@pytest.mark.parametrize("expr,p,depth,sweep", CASES)
def test_dominant_payload_matches_full_reference(expr, p, depth, sweep):
    res = resolve(evaluate(expr, p), depth, sweep=sweep)
    stages, diffs = reference(expr, p, depth, sweep)
    payload = ca.resolution_payload(res)
    want_stages = [[",".join(map(str, lam)) for lam in gens] for gens in stages]
    want_diffs = [{",".join(map(str, c)): ca.encode_matrix(block, p)
                   for c, block in sorted(diff.items()) if is_partition(c)}
                  for diff in diffs]
    assert payload["stages"] == want_stages
    assert ca.stable_json(payload["diffs"]) == ca.stable_json(want_diffs)


@pytest.mark.parametrize("expr,p,depth,sweep", CASES)
def test_non_dominant_ranks_match_their_sorted_weight(expr, p, depth, sweep):
    res = resolve(evaluate(expr, p), depth, sweep=sweep)
    _, diffs = reference(expr, p, depth, sweep)
    checked = 0
    for s, diff in enumerate(diffs):
        # a few non-dominant weights per stage: reversed partitions
        alphas = sorted(c[::-1] for c in diff
                        if is_partition(c) and not is_partition(c[::-1]))
        for alpha in alphas[:4]:
            lam = tuple(sorted(alpha, reverse=True))
            block = res.diffs[s][lam]
            assert diff[alpha].shape == block.shape
            assert fp.rank(diff[alpha], p) == fp.rank(block, p)
            checked += 1
    assert checked
