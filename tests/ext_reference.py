"""The per-pair Ext assembly, as the reference for homology.assemble_ext.

Before the join of two flat halves, each block of delta^s between the
summands named mu (stage s + 1) and lam (stage s) was one product G @ W:
G, the differential's coefficients on the words of Gamma^lam of weight
mu, gathered per stage from the resolution, and W, the stacked action
of those words on N_lam read at N_mu.  Each pair is built here on its
own, so the two routes share only the resolution and the target's word
stacks.
"""

from itertools import accumulate, chain

import numpy as np

from spfext import fp
from spfext.homology import Resolution, dominant_layout
from spfext.modules import ModuleRep


def coefficient_blocks(res: Resolution, s: int) -> list[tuple]:
    """The half of the assembly that reads the resolution alone, at stage
    s: one (mu, lam, local, G, n_mu, n_lam) per summand name mu of stage
    s+1 and lam of stage s whose G has a nonzero.  local lists the
    dominant rows (words) of lam's module at the weight c of mu's
    generator, and row i * n_lam + j of G is the i-th mu summand's
    differential column read there in the j-th lam one."""
    stage, upper = res.stages[s], res.stages[s + 1]
    out = []
    for mu, (module, gen, gens_at) in upper.blocks.items():
        c = tuple(module.contents[gen].tolist())
        block = res.diffs[s + 1].get(c)
        group = stage.groups.get(c)
        if block is None or not block.size or group is None:
            continue
        gen = int(np.searchsorted(dominant_layout(module)[0], gen))
        cols = block[:, np.searchsorted(upper.groups[c], gens_at + gen)]
        for lam, (summand, _, offs) in stage.blocks.items():
            local = dominant_layout(summand)[1].get(c)
            if local is None:
                continue
            pos = np.searchsorted(group, offs[:, None] + local[None, :])
            G = cols[pos].transpose(2, 0, 1).reshape(-1, local.size)
            if G.any():
                out.append((mu, lam, local, G, gens_at.size, offs.size))
    return out


def assemble_ext(res: Resolution, target: ModuleRep) -> list[int]:
    """The Ext dims from one product G @ W per pair (mu, lam), each W the
    rows of N_lam's basis in the target's word stack, read at G's words
    and at N_mu's basis, one row slice and one column gather per lam."""
    p = res.p
    comp = {lam: tuple(module.contents[gen].tolist()) for stage in res.stages
            for lam, (module, gen, _) in stage.blocks.items()}
    pivots = {lam: target.weight_indices(c) for lam, c in comp.items()}
    wdim = {lam: ix.size for lam, ix in pivots.items()}
    starts = []  # per stage: each name's first row, and the total
    for stage in res.stages:
        sizes = {lam: offs.size * wdim[lam]
                 for lam, (_, _, offs) in stage.blocks.items()}
        ends = list(accumulate(sizes.values(), initial=0))
        starts.append((dict(zip(sizes, ends)), ends[-1]))
    pairs = [[pair for pair in coefficient_blocks(res, s)
              if wdim[pair[0]] and wdim[pair[1]]] for s in range(res.depth)]
    needed: dict[tuple[int, ...], dict] = {}  # per lam: each mu's words
    for mu, lam, local, *_ in chain.from_iterable(pairs):
        needed.setdefault(lam, {}).setdefault(mu, local)
    words: dict[tuple, np.ndarray] = {}  # W of (mu, lam)
    for lam, by_mu in needed.items():
        cols = np.concatenate([(local[:, None] * target.dim + pivots[mu]).reshape(-1)
                               for mu, local in by_mu.items()])
        order = cols.argsort()  # take_cols reads ascending columns
        dense = np.empty((wdim[lam], cols.size), dtype=np.int64)
        dense[:, order] = target.stack_matrix(("words", comp[lam]))[
            pivots[lam]].take_cols(cols[order]).toarray()
        ends = accumulate(local.size * wdim[mu] for mu, local in by_mu.items())
        for (mu, local), end in zip(by_mu.items(), ends):
            words[mu, lam] = dense[:, end - local.size * wdim[mu]: end].reshape(
                wdim[lam], local.size, -1).transpose(1, 0, 2).reshape(local.size, -1)
    ranks = []
    for s in range(res.depth):
        delta = fp.zeros(starts[s + 1][1], starts[s][1])
        for mu, lam, _, G, n_mu, n_lam in pairs[s]:
            piece = fp.matmul(G, words[mu, lam], p).reshape(n_mu, n_lam, wdim[lam], -1)
            r0, c0 = starts[s + 1][0][mu], starts[s][0][lam]
            delta[r0: r0 + n_mu * wdim[mu], c0: c0 + n_lam * wdim[lam]] = (
                piece.transpose(0, 3, 1, 2).reshape(-1, n_lam * wdim[lam]))
        ranks.append(fp.rank(delta, p))
    return [starts[s][1] - ranks[s] - (ranks[s - 1] if s else 0)
            for s in range(res.depth)]
