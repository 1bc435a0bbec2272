"""Projective resolutions by divided-power summands and Ext tables.

Resolutions are built stage by stage.  A weight-lam vector v of a module
M generates exactly the image of its Yoneda map Gamma^lam -> M, whose
columns are the algebra words of Gamma^lam applied to v (S(n,D)xi_lam is
Gamma^lam).  So each pick of weight lam contributes a Gamma^lam summand
whose differential columns are those images, and the submodule generated
so far is, weight by weight, the row space of the differential columns
picked so far.  Weights are swept in a fixed total order refining
dominance, and a kernel vector becomes a new pick only when it lies
outside that row space.  Every map here is weight-graded, so all linear
algebra is done per weight block.

Each kernel block is kept as its elimination leaves it (fp.Kernel): row
i of its RREF basis is the unit vector at its i-th free column plus
coefficients at the pivot columns, so the kernel is never materialized.
The span lies in the kernel, where the free coordinates determine a
vector, so it is kept in RREF in those coordinates alone and extended
by what each pick adds (fp.extend_rref).  Kernel row i, which reads e_i
there, lies in the span exactly when i is a pivot of that RREF whose row
is e_i.  So the next pick is the first later row that fails this test,
no kernel row is ever reduced, and a pick's vector is built only once
it is picked.

Only dominant weights (partitions, padded with zeros) are kept: the
stages, the differential blocks, the kernels and the Yoneda words all
live at weights c with c_0 >= c_1 >= ....  The permutation matrices of
GL_n(F_p) carry each weight space M_c onto M_{sort c} and commute with
every natural map, so a complex of these modules is exact iff it is
exact at every dominant weight (Morita truncation to eSe with e the sum
of the xi_lam, lam a partition: Green, LNM 830, 3; Donkin, J. Algebra
104, 1986).  The rank and d o d = 0 checks on dominant blocks are
therefore still a proof of exactness.  So every level a resolution
reads, its source included, is a Stage: a direct sum of module
summands, each kept at its rows of dominant weight.

Ext groups are the cohomology of Hom(P_*, N), whose terms are weight
spaces of N at partitions.  Every coboundary of a table comes from one
join on (lam, word): each nonzero coefficient of the differentials on a
word of Gamma^lam, gathered once per resolution (`resolution_half`),
meets each stored entry of the target's word stack at N_lam's basis,
and one exact sum writes every delta^s (`assemble_ext`).  Each table is
kept on the resolution per target module (`ext_dims`).  The same stacked
words, ("words", lam), give the Yoneda maps: one `yoneda_operator` per
stage and weight, cut once from each summand module's stack and applied
to every vector picked there.  A stack's row j holds the images of basis
vector j (see fp), so each cut is a row slice of one stack, read at the
columns it needs.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import fp, young
from .errors import (AdmissibilityError, DegreeMismatchError, SemanticError,
                     SpfextError, UnsupportedExpressionError)
from .functors import (Atom, Dual, Ident, Node, Param, Tensor, Twist, as_node,
                       canon, check_field, degree, evaluate, is_integer,
                       shape_module)
from .modules import ModuleRep, ShapeModule, hom_space
from .tensorspace import comp_of_partition, is_dominant


def gamma_shape(p: int, n: int, lam: tuple[int, ...]) -> ShapeModule:
    return shape_module(p, n, tuple(("G", part, 0) for part in lam), 1)


@cache  # the cache loader asks for one per summand of every stage
def gamma_summand(p: int, n: int, lam: tuple[int, ...]) -> tuple:
    """Gamma^lam as a stage summand, generated by its weight-lam word."""
    shape = gamma_shape(p, n, lam)
    return lam, shape, shape.basis_index(tuple((b,) * k for b, k in enumerate(lam)))


# -- resolution data ----------------------------------------------------------


@cache
def dominant_layout(module: ModuleRep) -> tuple[np.ndarray, dict, np.ndarray]:
    """The rows of a module at dominant weights (parts never increasing),
    ascending, each dominant weight's positions among them, and the weight
    of every basis vector as one integer.  The rows are the coordinates a
    stage keeps of a summand; on Gamma^lam, basis vector t is also word t,
    so they are the words of ("words", lam), in order."""
    rows = np.flatnonzero((np.diff(module.contents, axis=1) <= 0).all(axis=1))
    positions = {c: rows.searchsorted(ix)
                 for c, ix in module.content_groups().items() if is_dominant(c)}
    # contents lie in [0, D], so base D + 1 keys them one to one
    weights = module.contents @ (module.D + 1) ** np.arange(module.n)
    for arr in (rows, weights, *positions.values()):
        arr.setflags(write=False)  # shared by every caller of the memo
    return rows, positions, weights


class Stage:
    """A direct sum of (name, module, generator) summands, whose
    coordinates are each summand's dominant rows (dominant_layout) in
    turn: dim counts only those, and groups maps each dominant weight to
    its coordinates.  summands lists the names; blocks maps each name to
    the module and generator its summands share, and their offsets.  A
    Gamma^lam summand is named by lam (gamma_summand); the stage that
    stage 0 resolves is the source alone, with no generator."""

    def __init__(self, summands: list[tuple]):
        self.summands = [name for name, _, _ in summands]
        blocks, offset = {}, 0
        for name, module, gen in summands:
            blocks.setdefault(name, (module, gen, []))[2].append(offset)
            offset += dominant_layout(module)[0].size
        self.dim = offset
        self.blocks = {name: (module, gen, np.array(offs, dtype=np.int64))
                       for name, (module, gen, offs) in blocks.items()}
        # each name's weights are placed once, at all its offsets; the
        # summands' coordinates ascend, so sorting restores their order
        groups = {}
        for module, _, offs in self.blocks.values():
            for c, local in dominant_layout(module)[1].items():
                groups.setdefault(c, []).append((offs[:, None] + local).reshape(-1))
        self.groups = {c: np.sort(np.concatenate(parts))
                       for c, parts in groups.items()}


# -- weight spaces and Yoneda ------------------------------------------------


def yoneda_operator(stage: Stage, comp: tuple[int, ...]):
    """The Yoneda maps Gamma^comp -> stage, as v -> images: for v a
    weight-comp vector, the map sending the canonical generator to v,
    whose column k is the k-th dominant word of Gamma^comp applied to v.

    The words act on each summand module as one stacked operator,
    ("words", comp), cut once at the module's rows of weight comp, so one
    product per summand name serves every v.  A word lands at the rows of
    its own weight, which is dominant; an entry anywhere else escapes the
    weight grading and raises SpfextError.
    """
    comp = tuple(comp)
    T, cuts = 0, []
    for module, _, offsets in stage.blocks.values():
        rows, positions, weights = dominant_layout(module)
        gamma = gamma_shape(module.p, module.n, tuple(c for c in comp if c))
        words, _, word_weights = dominant_layout(gamma)
        T = words.size
        at = positions.get(comp)
        if at is None:
            continue  # v is zero on these summands
        stack = module.stack_matrix(("words", comp))[rows[at]]
        word, image = np.divmod(stack.indices, module.dim)
        if (weights[image] != word_weights[words[word]]).any():
            raise SpfextError("image escapes the weight grading")
        # every image is a dominant row, so entries stay sorted at word * R + row
        cut = fp.CSR(stack.indptr, word * rows.size + rows.searchsorted(image),
                     stack.data, (at.size, T * rows.size), module.p)
        cuts.append((offsets[None, :] + at[:, None],
                     offsets[None, :] + np.arange(rows.size)[:, None], cut))

    def apply(v):
        v = np.asarray(v, dtype=np.int64).reshape(-1)
        out = fp.zeros(stage.dim, T)
        for src, dst, cut in cuts:
            images = v[src].T @ cut  # per copy, T blocks of its dominant rows
            out[dst] = images.reshape(-1, T, dst.shape[0]).transpose(2, 0, 1)
        return out
    return apply


def weight_space(module: ModuleRep, comp: tuple[int, ...]) -> np.ndarray:
    """RREF rows spanning the weight space of `comp`: the unit rows at the
    basis vectors of that weight."""
    idxs = module.weight_indices(tuple(comp))
    return (idxs[:, None] == np.arange(module.dim)).astype(np.int64)


def hom_from_gamma(comp: tuple[int, ...], module: ModuleRep):
    """dim Hom(Gamma^comp, M) plus the realization of weight vectors:
    realize(v) is the equivariant matrix Gamma^comp(E) -> M sending the
    canonical generator to v: v @ the stack of every word at M_comp.
    realize raises ValueError unless v is a weight-comp vector of M."""
    comp = comp_of_partition(comp, module.n)
    if sum(comp) != module.D:
        raise SemanticError(f"{comp} does not sum to the degree {module.D}")
    idxs = module.weight_indices(comp)
    rows = module.stack_matrix(("words", comp, "all"))[idxs]

    def realize(v):
        v = np.asarray(v, dtype=np.int64).reshape(-1)
        if v.size != module.dim or (np.delete(v, idxs) % module.p).any():
            raise ValueError(f"v is no vector of weight {comp} in the module")
        return (v[None, idxs] @ rows).reshape(-1, module.dim).T

    return idxs.size, realize


@dataclass
class Resolution:
    source: str
    p: int
    n: int
    module: ModuleRep
    stages: list[Stage]
    diffs: list[dict[tuple[int, ...], np.ndarray]]
    depth: int
    sweep: str
    # its half of every Ext table, under None: built once, never stored
    _half: dict[None, ResolutionHalf] = field(default_factory=dict, init=False,
                                              repr=False, compare=False)
    # per target module: its Ext dims, kept like the half
    _ext_dims: dict[ModuleRep, tuple] = field(default_factory=dict, init=False,
                                              repr=False, compare=False)

    def term_partitions(self) -> list[list[tuple[int, ...]]]:
        return [list(st.summands) for st in self.stages]

    def half(self) -> ResolutionHalf:
        """resolution_half(self), built once; the first one stored wins."""
        return (self._half.get(None)
                or self._half.setdefault(None, resolution_half(self)))


def check_depth(depth) -> None:
    if not is_integer(depth) or depth < 0:
        raise SemanticError("depth must be a nonnegative integer")


def _shape_source(module: ModuleRep) -> ShapeModule:
    if not isinstance(module, ShapeModule):
        raise UnsupportedExpressionError(
            "resolution sources must lie in the substitution fragment")
    return module


def resolve(module: ShapeModule, depth: int,
            sweep: str = "dominance") -> Resolution:
    """Projective resolution of a shape module to the requested depth:
    always depth + 1 stages.

    Stages, differentials and kernels are kept at dominant weights only.
    At each weight in the sweep the picks are the kernel rows, in order,
    that lie outside the submodule generated so far, tested in the
    kernel's free coordinates (see the module docstring).

    Exactness of every computed stage and d o d = 0 are verified block by
    block as the stages are built, and violations raise immediately; a
    block's rank is its column count less its kernel's free columns.
    Since the Weyl group's permutation matrices carry every weight block
    onto a dominant one and commute with the maps, checking the dominant
    blocks proves exactness at every weight.  The d o d = 0 check also
    proves that every picked image lies in the kernel, which the free
    coordinates' test presumes.
    """
    _shape_source(module)
    check_depth(depth)
    p, n = module.p, module.n
    sweep_parts = young.partitions_of(module.D, max_parts=n)
    if sweep == "reversed":
        sweep_parts = list(reversed(sweep_parts))
    elif sweep != "dominance":
        raise SemanticError(f"unknown sweep {sweep!r}")

    res = Resolution(source=module.expression(), p=p, n=n, module=module,
                     stages=[], diffs=[], depth=depth, sweep=sweep)
    prev = Stage([(res.source, module, None)])
    groups = prev.groups
    # the kernel of the zero map out of each weight space: all of it
    kernels = {c: fp.kernel(fp.zeros(0, ix.size), p) for c, ix in groups.items()}

    for s in range(depth + 1):
        gens: list[tuple] = []
        # per weight of prev: the differential's columns picked so far,
        # whose span is the submodule generated so far
        columns: dict[tuple[int, ...], list[np.ndarray]] = {}
        for lam in sweep_parts:
            comp = comp_of_partition(lam, n)
            kern = kernels.get(comp)
            if kern is None:
                continue
            idxs = groups[comp]
            summand = gamma_summand(p, n, lam)
            local_groups = dominant_layout(summand[1])[1]
            # the span at comp, in the kernel's free coordinates, is read
            # only now, so it is reduced once, and each pick extends it by
            # its own block there, which holds v
            span, piv = fp.zeros(0, kern.free.size), []
            fresh = columns.get(comp, [])
            yoneda = None  # cut at the first pick of this weight
            i = 0  # the kernel rows before i lie in the span
            while True:
                if fresh:
                    span, piv = fp.extend_rref(span, piv, np.concatenate(
                        [b[kern.free].T for b in fresh]), p)
                    fresh = []
                i = _first_outside(span, piv, i, kern.free.size)
                if i == kern.free.size:
                    break
                if yoneda is None:
                    yoneda = yoneda_operator(prev, comp)
                v = np.zeros(prev.dim, dtype=np.int64)
                v[idxs] = kern.rows([i])[0]
                images = yoneda(v)
                gens.append(summand)
                # the words of a weight prev lacks have no images there
                for c, local in local_groups.items():
                    if c in groups:
                        columns.setdefault(c, []).append(
                            images[groups[c][:, None], local])
                fresh = columns[comp][-1:]
                i += 1

        stage = Stage(gens)
        diff = {c: np.concatenate(columns[c], axis=1) if c in groups
                else fp.zeros(0, ix.size) for c, ix in stage.groups.items()}
        # one elimination per block: its kernel feeds the next stage, and
        # the rank it leaves proves this stage exact at that weight
        next_kernels = {c: fp.kernel(block, p) for c, block in diff.items()}

        # invariant checks: complex property and stage exactness
        for comp, block in diff.items():
            want = kernels[comp].free.size if comp in kernels else 0
            rank = block.shape[1] - next_kernels[comp].free.size
            if rank != want:
                raise SpfextError(
                    f"stage {s}: block {comp} spans rank {rank} "
                    f"but the kernel there has dimension {want}")
            up = res.diffs[s - 1].get(comp) if s else None
            if up is not None and up.size and block.size and fp.matmul(
                    up, block, p).any():
                raise SpfextError(f"d o d != 0 in block {comp}")
        for comp in kernels:
            if comp not in diff:
                raise SpfextError(f"stage {s} misses kernel block {comp}")

        res.stages.append(stage)
        res.diffs.append(diff)
        if stage.dim == 0:
            # kernel was zero; the resolution is complete
            res.stages += [Stage([]) for _ in range(s, depth)]
            res.diffs += [{} for _ in range(s, depth)]
            break
        kernels = {c: k for c, k in next_kernels.items() if k.free.size}
        prev, groups = stage, stage.groups
    return res


def _first_outside(span: np.ndarray, piv: list[int], start: int,
                   k: int) -> int:
    """The first i >= start whose unit vector e_i in F_p^k lies outside
    the row space of the RREF `span`, or k.  e_i lies in it exactly when
    i is a pivot whose row is e_i: a combination of RREF rows is e_i only
    if it takes the row at pivot i alone, once."""
    piv = np.array(piv, dtype=np.int64)
    at = piv.searchsorted(start)
    inside = np.zeros(k + 1, dtype=bool)
    inside[piv[at:][np.count_nonzero(span[at:], axis=1) == 1]] = True
    return start + int(inside[start:].argmin())


_RES_CACHE: dict[tuple, Resolution] = {}
# Held over lookup, disk load, resolve and disk store, so that each
# resolution is built once even when suite cases run on threads.
_RES_LOCK = threading.Lock()


def resolve_expression(expr, p: int, depth: int, sweep: str = "dominance",
                       cache_dir: str | None = None) -> Resolution:
    """Resolve the module of an expression, memoized in-process and
    optionally backed by the on-disk cache.

    Both are keyed on the evaluated shape, so every spelling of one module
    (twist(I*I,1) and twist(I,1)*twist(I,1), or I*I and S(1)*S(1)) shares
    one entry; the resolution's source is the shape's own expression.
    """
    module = _shape_source(evaluate(as_node(expr), p))
    check_depth(depth)  # before the memo, where True would find depth 1
    key = (p, module.n, module.blocks, module.m, depth, sweep)
    with _RES_LOCK:
        res, write = _RES_CACHE.get(key), False
        if cache_dir is not None:
            from . import cache as cache_mod
            store = cache_mod.ResolutionCache(cache_dir)
            context = (module.expression(), p, module.n, depth, sweep)
            if res is None:
                res = store.load(*context)
                write = res is None
            else:  # a memo hit is written to a directory that lacks it
                path = store.path_for(cache_mod.resolution_context(*context))
                write = not path.exists()
        if res is None:
            res = resolve(module, depth, sweep=sweep)
        if write:
            store.store(res)
        _RES_CACHE[key] = res
        return res


def clear_resolution_memo() -> None:
    _RES_CACHE.clear()


# -- Ext tables ---------------------------------------------------------------


@dataclass
class ExtTable:
    p: int
    i: int
    d: int | None
    source: str
    target: str
    dims: list[int]
    depth: int

    def payload(self) -> dict:
        return {
            "p": self.p, "i": self.i, "d": self.d,
            "source": self.source, "target": self.target,
            "dims": list(self.dims), "depth": self.depth, "version": 2,
        }


ResolutionHalf = namedtuple("ResolutionHalf", "comps first weight layout bounds entries")


def resolution_half(res: Resolution) -> ResolutionHalf:
    """The half of every Ext table that reads res alone, from res.diffs.
    Summand names are numbered as the stages meet them, comps[k] the weight
    of name k's generator; its dominant words are keyed first[k], first[k]
    + 1, ..., and weight holds each key's weight.  Column r of layout is
    (stage, name, copies), stage s from column bounds[s] to bounds[s + 1].
    Column r of entries is (s, mu, i, lam, j, key, value): the generator of
    copy i of mu in stage s + 1 goes to value times word key of copy j of
    lam in stage s."""
    ids, comps, weights, layout, bounds = {}, [], [], [], [0]
    for s, stage in enumerate(res.stages):
        for name, (module, gen, offs) in stage.blocks.items():
            if name not in ids:
                ids[name] = len(comps)
                comps.append(tuple(module.contents[gen].tolist()))
                rows, _, weight = dominant_layout(module)
                weights.append(weight[rows])
            layout.append((s, ids[name], offs.size))
        bounds.append(len(layout))
    first = np.cumsum([0] + [w.size for w in weights])
    entries = [np.zeros((7, 0), dtype=np.int64)]
    for s in range(res.depth):
        stage, upper = res.stages[s], res.stages[s + 1]
        # each summand of stage s by its first coordinate: its name and copy
        starts, names, copy = np.array(sorted(
            (int(at), ids[name], j) for name, (_, _, offs) in stage.blocks.items()
            for j, at in enumerate(offs)), dtype=np.int64).reshape(-1, 3).T
        for mu, (module, gen, gens_at) in upper.blocks.items():
            c = comps[ids[mu]]
            block = res.diffs[s + 1][c]
            if not block.size:
                continue
            gen = dominant_layout(module)[0].searchsorted(gen)
            cols = block[:, upper.groups[c].searchsorted(gens_at + gen)]
            row, i = cols.nonzero()
            x = stage.groups[c][row]  # the coordinates of stage s they meet
            t = starts.searchsorted(x, side="right") - 1
            entries.append(np.stack((np.full(i.size, s), np.full(i.size, ids[mu]),
                                     i, names[t], copy[t],
                                     first[names[t]] + x - starts[t], cols[row, i])))
    return ResolutionHalf(comps, first, np.concatenate([first[:0]] + weights),
                          np.array(layout, dtype=np.int64).reshape(-1, 3).T,
                          np.array(bounds), np.concatenate(entries, axis=1))


def ext_dims(res: Resolution, target: ModuleRep) -> list[int]:
    """Graded dimensions of Ext^s for s < depth, from Hom(P_*, N).
    assemble_ext computes them once per target module; the resolution
    keeps them (the first stored wins) and each caller gets a copy."""
    hit = res._ext_dims.get(target)
    if hit is None:
        hit = res._ext_dims.setdefault(target, tuple(assemble_ext(res, target)))
    return list(hit)


def assemble_ext(res: Resolution, target: ModuleRep) -> list[int]:
    """The dims of ext_dims, from one join of the resolution's half and
    the target's (see the module docstring).  An image whose weight is not
    its word's escapes the weight grading and raises SpfextError."""
    comps, first, word_weight, (stages, names, copies), bounds, entries = res.half()
    s, mu, i, lam, j, key, value = entries
    wdim = np.array([target.weight_indices(c).size for c in comps], dtype=np.int64)
    # delta^s is total[s + 1] x total[s] at off[s], name k of stage s at start[s, k]
    ends = np.concatenate(([0], (copies * wdim[names]).cumsum()))
    total = np.diff(ends[bounds])
    start = np.zeros((total.size, wdim.size), dtype=np.int64)
    start[stages, names] = ends[:-1] - ends[bounds[stages]]
    off = np.concatenate(([0], (total[1:] * total[:-1]).cumsum()))
    # the target's half: each stored entry of the word stack of each lam
    # with N_mu and N_lam nonzero, at basis vector a of N_lam
    parts = [(first[:0],) * 4]
    for k in fp.distinct(lam[(wdim[mu] > 0) & (wdim[lam] > 0)]).tolist():
        stack = target.stack_matrix(("words", comps[k]))
        a, col, data = stack[target.weight_indices(comps[k])].coo()
        parts.append((first[k] + col // target.dim, a, col % target.dim, data))
    w_key, a, image, data = map(np.concatenate, zip(*parts))
    weight = target.contents @ (target.D + 1) ** np.arange(target.n)
    if (weight[image] != word_weight[w_key]).any():
        raise SpfextError("image escapes the weight grading")
    by_weight = weight.argsort(kind="stable")  # b: the image's place in its weight
    b = by_weight.argsort()[image] - weight[by_weight].searchsorted(weight[image])
    # the join: each entry of one half meets each of the other at its key
    order = w_key.argsort()
    lo, hi = (w_key[order].searchsorted(key, side) for side in ("left", "right"))
    w, g = order[fp._ranges(lo, hi - lo)[0]], np.arange(key.size).repeat(hi - lo)
    at = (off[s] + (start[s + 1, mu] + i * wdim[mu]) * total[s]
          + start[s, lam] + j * wdim[lam])
    # each product is below p: the float64 sum is exact below 2^53 / p terms
    flat = np.bincount(at[g] + total[s][g] * b[w] + a[w], minlength=off[-1],
                       weights=value[g] * data[w] % res.p).astype(np.int64) % res.p
    # each delta^s alone: eliminating their block diagonal is slower at degree 5
    ranks = [0] + [fp.rank(flat[off[t]: off[t + 1]].reshape(
        total[t + 1], total[t]), res.p) for t in range(res.depth)]
    return [int(total[t]) - ranks[t + 1] - ranks[t] for t in range(res.depth)]


def default_depth(p: int, i: int, D: int) -> tuple[int, int | None]:
    """(depth, d): one past the duality window when p^i divides D."""
    q = p ** i
    if D % q == 0:
        d = D // q
        return 2 * (q - 1) * d + 1, d
    return D + 1, None


def ext(src, tgt, p: int, i: int = 1, depth: int | None = None,
        sweep: str = "dominance", cache_dir: str | None = None) -> ExtTable:
    """Graded dims of Ext^s(source, target) for s = 0 .. depth-1."""
    check_field(p, i)
    src_node = as_node(src)
    tgt_node = as_node(tgt)
    d_src = degree(src_node, p)
    d_tgt = degree(tgt_node, p)
    if d_src != d_tgt:
        raise DegreeMismatchError(
            f"degree {d_src} of {canon(src_node)} differs from degree "
            f"{d_tgt} of {canon(tgt_node)}")
    auto_depth, d_param = default_depth(p, i, d_src)
    if depth is None:
        depth = auto_depth
    res = resolve_expression(src_node, p, depth, sweep=sweep,
                             cache_dir=cache_dir)
    target = evaluate(tgt_node, p)
    dims = ext_dims(res, target)
    return ExtTable(p=p, i=i, d=d_param, source=canon(src_node),
                    target=canon(tgt_node), dims=dims, depth=depth)


def kr_cohomology(f_expr, v: int, p: int, i: int,
                  depth: int | None = None, sweep: str = "dominance",
                  cache_dir: str | None = None) -> ExtTable:
    """Parameterized Ext against the twisted divided power with v slots."""
    check_field(p, i)
    node = as_node(f_expr)
    D = degree(node, p)
    d = default_depth(p, i, D)[1]
    if d is None:
        raise SemanticError(f"degree {D} is not divisible by p^i = {p ** i}")
    source = Param(Twist(Atom("G", (d,)), i), v)
    return ext(source, node, p, i=i, depth=depth, sweep=sweep,
               cache_dir=cache_dir)


# -- duality and pairing checks ----------------------------------------------


@dataclass
class DualityReport:
    source: str
    target: str
    p: int
    i: int
    window: int
    rows: list[tuple[int, int, int, bool]]  # (s, dim, mirrored dual dim, equal)
    passed: bool
    forward: list[int]
    backward: list[int]


def _is_tensor_power_of_identity(node: Node) -> int | None:
    if isinstance(node, Ident):
        return 1
    if isinstance(node, Tensor):
        left = _is_tensor_power_of_identity(node.left)
        right = _is_tensor_power_of_identity(node.right)
        if left is not None and right is not None:
            return left + right
    return None


def _admissible_source(node: Node, p: int) -> Node:
    """Certify the duality hypothesis and return a twistable realization.

    Accepted: tensor powers of I (self-dual projective), and simples that
    are certified projective by the p-core block criterion and realizable
    in the substitution fragment (exterior powers, or S^d with d < p).
    """
    d = _is_tensor_power_of_identity(node)
    if d is not None:
        return node
    if isinstance(node, Atom):
        if node.kind == "simple":
            lam = node.parts
        elif node.kind == "L" and len(node.parts) == 1:
            lam = (1,) * node.parts[0]
        elif node.kind == "S" and len(node.parts) == 1 and node.parts[0] < p:
            lam = node.parts
        else:
            lam = None
        if lam is not None:
            if not young.is_single_simple_block(lam, p):
                raise AdmissibilityError(
                    f"simple {lam} is not certified projective (not a "
                    f"{p}-core); refusing rather than guessing")
            d = sum(lam)
            if lam == (1,) * d:
                return Atom("L", (d,))
            if lam == (d,) and d < p:
                return Atom("S", (d,))
            raise AdmissibilityError(
                f"simple {lam} cannot be realized inside the twist-"
                f"substitution fragment")
    raise AdmissibilityError(
        "duality sources must be I^d or a certified projective simple")


def duality_check(p_expr, f_expr, p: int, i: int = 1,
                  sweep: str = "dominance",
                  cache_dir: str | None = None) -> DualityReport:
    """Per-degree comparison dim Ext^s(P^(i), F) vs dim Ext^{w-s}(P^(i), F#)."""
    check_field(p, i)
    p_node = as_node(p_expr)
    f_node = as_node(f_expr)
    realization = _admissible_source(p_node, p)
    d = degree(p_node, p)
    q = p ** i
    if degree(f_node, p) != q * d:
        raise DegreeMismatchError(
            f"target degree {degree(f_node, p)} != p^i * d = {q * d}")
    window = default_depth(p, i, q * d)[0] - 1
    src = Twist(realization, i)
    fwd = ext(src, f_node, p, i=i, depth=window + 1, sweep=sweep,
              cache_dir=cache_dir)
    bwd = ext(src, Dual(f_node), p, i=i, depth=window + 1, sweep=sweep,
              cache_dir=cache_dir)
    rows = []
    ok = True
    for s in range(window + 1):
        a = fwd.dims[s]
        b = bwd.dims[window - s]
        match = a == b
        ok = ok and match
        rows.append((s, a, b, match))
    return DualityReport(source=canon(p_node), target=canon(f_node), p=p, i=i,
                         window=window, rows=rows, passed=ok,
                         forward=fwd.dims, backward=bwd.dims)


@dataclass
class PairingReport:
    p_source: str
    module: str
    dim_hom_pm: int
    dim_hom_mp: int
    dims_equal: bool
    right_nondegenerate: bool

    @property
    def passed(self) -> bool:
        return self.dims_equal and self.right_nondegenerate


def hom_pairing_check(p_expr, m_expr, p: int) -> PairingReport:
    """Dimension equality and right-nondegeneracy of the composition pairing
    Hom(M, P) x Hom(P, M) -> End(P)."""
    p_node = as_node(p_expr)
    m_node = as_node(m_expr)
    _admissible_source(p_node, p)
    if degree(p_node, p) != degree(m_node, p):
        raise DegreeMismatchError("pairing requires equal degrees")
    pmod = evaluate(p_node, p)
    mmod = evaluate(m_node, p)
    psis = hom_space(pmod, mmod)   # maps P -> M
    phis = hom_space(mmod, pmod)   # maps M -> P
    nondeg = True
    if psis:
        rows = []
        for psi in psis:
            pieces = [fp.matmul(phi, psi, p).reshape(-1) for phi in phis]
            rows.append(np.concatenate(pieces) if pieces
                        else np.zeros(0, dtype=np.int64))
        stacked = np.stack(rows)
        nondeg = fp.rank(stacked, p) == len(psis)
    return PairingReport(p_source=canon(p_node), module=canon(m_node),
                         dim_hom_pm=len(psis), dim_hom_mp=len(phis),
                         dims_equal=len(psis) == len(phis),
                         right_nondegenerate=nondeg)


def end_dimension(expr, p: int) -> int:
    mod = evaluate(as_node(expr), p)
    return len(hom_space(mod, mod))
