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
therefore still a proof of exactness.

Ext groups are the cohomology of Hom(P_*, N), whose terms are weight
spaces of N at partitions.  Each block of a differential, between the
summands of partition mu and those of lam, is one product of two
halves: the differential's coefficients on the words of Gamma^lam of
weight mu, which depend on the resolution alone and are gathered once
per resolution (`coefficient_blocks`), times the stacked action of those
words on N_lam read at N_mu, the target's half.  The same stacked words,
("words", lam), give the Yoneda maps: one `yoneda_operator` per level
and weight, cut from the stack once and applied to every vector picked
there.  A stack's row j holds the images of basis vector j (see fp), so
each of these cuts is a row slice of one stack and a take of columns.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate

import numpy as np

from . import fp, young
from .errors import (AdmissibilityError, DegreeMismatchError, SemanticError,
                     SpfextError, UnsupportedExpressionError)
from .functors import (Atom, Dual, Ident, Node, Param, Tensor, Twist, as_node,
                       canon, check_field, degree, evaluate, shape_module)
from .modules import ModuleRep, ShapeModule, hom_space
from .tensorspace import comp_of_partition, get_space, is_dominant


def gamma_shape(p: int, n: int, lam: tuple[int, ...]) -> ShapeModule:
    return shape_module(p, n, tuple(("G", part, 0) for part in lam), 1)


def generator_index(shape: ShapeModule, lam: tuple[int, ...]) -> int:
    return shape.basis_index(tuple((b,) * part for b, part in enumerate(lam)))


# -- dominant weights ---------------------------------------------------------


def dominant_groups(groups: dict[tuple[int, ...], np.ndarray]
                    ) -> dict[tuple[int, ...], np.ndarray]:
    """The weight groups at dominant weights (parts never increasing), the
    only weights a resolution keeps."""
    return {c: ix for c, ix in groups.items() if is_dominant(c)}


@cache
def gamma_layout(p: int, n: int, lam: tuple[int, ...]
                 ) -> tuple[np.ndarray, dict[tuple[int, ...], np.ndarray]]:
    """The dominant rows of Gamma^lam, ascending, and each dominant
    weight's positions among them.  Basis vector t of Gamma^lam is also
    word t, so the rows are the words that land in a dominant weight."""
    groups = dominant_groups(gamma_shape(p, n, lam).content_groups())
    rows = np.sort(np.concatenate(list(groups.values())))
    positions = {c: np.searchsorted(rows, ix) for c, ix in groups.items()}
    for arr in (rows, *positions.values()):
        arr.setflags(write=False)  # shared by every caller of the memo
    return rows, positions


# -- resolution data ----------------------------------------------------------


class Stage:
    """A direct sum of Gamma^lam summands, kept at its dominant rows.

    summands lists each summand's partition.  The coordinates of a stage
    are the dominant rows of each summand in turn, so dim counts only
    those.  groups maps each dominant weight to its coordinates.
    """

    def __init__(self, partitions: list[tuple[int, ...]], p: int, n: int):
        self.p = p
        self.n = n
        self.summands = list(partitions)
        groups: dict[tuple[int, ...], list[np.ndarray]] = {}
        offsets: dict[tuple[int, ...], list[int]] = {}
        offset = 0
        for lam in self.summands:
            rows, local_groups = gamma_layout(p, n, lam)
            for c, local in local_groups.items():
                groups.setdefault(c, []).append(local + offset)
            offsets.setdefault(lam, []).append(offset)
            offset += rows.size
        self.dim = offset
        self.groups = {c: np.concatenate(parts) for c, parts in groups.items()}
        # per partition: the common shape and dominant rows, and each offset
        self.blocks = {lam: (gamma_shape(p, n, lam), gamma_layout(p, n, lam)[0],
                             np.array(offs, dtype=np.int64))
                       for lam, offs in offsets.items()}


# -- weight spaces and Yoneda ------------------------------------------------


def yoneda_operator(level: ModuleRep | Stage, comp: tuple[int, ...],
                    dominant: bool = False):
    """The Yoneda maps Gamma^comp -> level, as v -> images: for v a
    weight-comp vector, the map sending the canonical generator to v,
    whose column k is the k-th word of Gamma^comp applied to v, over
    every word (the whole map) or, with `dominant`, over the dominant ones
    in gamma_layout order, as `resolve` asks.

    The words act as one stacked operator, ("words", comp), and the
    operator is cut from it once, so every v it is applied to costs one
    product.  On a module, v lies in the weight space of comp, so the cut
    is the stack's rows there.  On a resolution stage, whose rows are its
    dominant coordinates, the summands of one partition share a shape,
    and its stack at the dominant rows, cut to the words' dominant
    columns, serves them all in one product.
    """
    ref = ("words", tuple(comp)) if dominant else ("words", tuple(comp), "all")
    if not isinstance(level, Stage):
        idxs = level.weight_indices(comp)
        rows = level.stack_matrix(ref)[idxs]
        def apply(v):
            v = np.asarray(v, dtype=np.int64).reshape(-1)
            return (v[None, idxs] @ rows).reshape(-1, level.dim).T
        return apply
    space = get_space(level.p, level.n, sum(comp))
    T = space.matrix(ref).shape[1] // space.dim
    cuts = []
    for shape, rows, offsets in level.blocks.values():
        coords = offsets[None, :] + np.arange(rows.size)[:, None]
        keep = (np.arange(T)[:, None] * shape.dim + rows).reshape(-1)
        cuts.append((coords, shape.stack_matrix(ref)[rows].take_cols(keep)))

    def apply(v):
        v = np.asarray(v, dtype=np.int64).reshape(-1)
        out = fp.zeros(level.dim, T)
        for coords, cut in cuts:
            images = v[coords].T @ cut
            out[coords] = images.reshape(-1, T, coords.shape[0]).transpose(
                2, 0, 1)
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
    canonical generator to v (see yoneda_operator).  realize raises
    ValueError unless v is a weight-comp vector of M."""
    comp = comp_of_partition(comp, module.n)
    if sum(comp) != module.D:
        raise SemanticError(f"{comp} does not sum to the degree {module.D}")
    idxs = module.weight_indices(comp)
    yoneda = yoneda_operator(module, comp)

    def realize(v):
        v = np.asarray(v, dtype=np.int64).reshape(-1)
        if v.size != module.dim or (np.delete(v, idxs) % module.p).any():
            raise ValueError(f"v is no vector of weight {comp} in the module")
        return yoneda(v)

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
    # per stage: its coefficient blocks, built on first use and never stored
    _coefficients: dict[int, list] = field(default_factory=dict, init=False,
                                           repr=False, compare=False)

    def term_partitions(self) -> list[list[tuple[int, ...]]]:
        return [list(st.summands) for st in self.stages]

    def coefficients(self, s: int) -> list[tuple]:
        """coefficient_blocks(self, s); the first list stored for s wins."""
        hit = self._coefficients.get(s)
        if hit is not None:
            return hit
        return self._coefficients.setdefault(s, coefficient_blocks(self, s))


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
    if depth < 0:
        raise SemanticError("depth must be nonnegative")
    p, n = module.p, module.n
    sweep_parts = young.partitions_of(module.D, max_parts=n)
    if sweep == "reversed":
        sweep_parts = list(reversed(sweep_parts))
    elif sweep != "dominance":
        raise SemanticError(f"unknown sweep {sweep!r}")

    res = Resolution(source=module.expression(), p=p, n=n, module=module,
                     stages=[], diffs=[], depth=depth, sweep=sweep)
    prev: ShapeModule | Stage = module
    groups = dominant_groups(module.content_groups())
    # the kernel of the zero map out of each weight space: all of it
    kernels = {c: fp.kernel(fp.zeros(0, len(ix)), p)
               for c, ix in groups.items() if len(ix)}

    for s in range(depth + 1):
        gens: list[tuple[int, ...]] = []
        # per weight of prev: the differential's columns picked so far,
        # whose span is the submodule generated so far
        columns: dict[tuple[int, ...], list[np.ndarray]] = {}
        for lam in sweep_parts:
            comp = comp_of_partition(lam, n)
            kern = kernels.get(comp)
            if kern is None:
                continue
            idxs = groups[comp]
            _, local_groups = gamma_layout(p, n, lam)
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
                    yoneda = yoneda_operator(prev, comp, dominant=True)
                v = np.zeros(prev.dim, dtype=np.int64)
                v[idxs] = kern.rows([i])[0]
                images = yoneda(v)
                gens.append(lam)
                for c, local in local_groups.items():
                    tgt_ix = groups.get(c)
                    if tgt_ix is None:
                        if images[:, local].any():
                            raise SpfextError("image escapes the weight grading")
                        continue
                    columns.setdefault(c, []).append(images[tgt_ix[:, None], local])
                fresh = columns[comp][-1:]
                i += 1

        stage = Stage(gens, p, n)
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
            if s > 0:
                up = res.diffs[s - 1].get(comp)
                if up is not None and up.size and block.size:
                    if fp.matmul(up, block, p).any():
                        raise SpfextError(f"d o d != 0 in block {comp}")
        for comp in kernels:
            if comp not in diff:
                raise SpfextError(f"stage {s} misses kernel block {comp}")

        res.stages.append(stage)
        res.diffs.append(diff)
        if stage.dim == 0:
            # kernel was zero; the resolution is complete
            for _ in range(s + 1, depth + 1):
                res.stages.append(Stage([], p, n))
                res.diffs.append({})
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


def coefficient_blocks(res: Resolution, s: int) -> list[tuple]:
    """The half of ext_dims that reads the resolution alone, at stage s:
    one (mu, lam, local, G, n_mu, n_lam) per partition mu of stage s+1 and
    lam of stage s whose G has a nonzero.  local lists the dominant rows
    (words) of Gamma^lam of weight mu, and row i * n_lam + j of G is the
    i-th mu summand's differential column read there in the j-th lam one."""
    p, n = res.p, res.n
    stage, upper = res.stages[s], res.stages[s + 1]
    out = []
    for mu, (shape, rows, gens_at) in upper.blocks.items():
        c = comp_of_partition(mu, n)
        block = res.diffs[s + 1].get(c)
        group = stage.groups.get(c)
        if block is None or not block.size or group is None:
            continue
        gen = int(np.searchsorted(rows, generator_index(shape, mu)))
        cols = block[:, np.searchsorted(upper.groups[c], gens_at + gen)]
        for lam, (_, _, offs) in stage.blocks.items():
            local = gamma_layout(p, n, lam)[1].get(c)
            if local is None:
                continue
            pos = np.searchsorted(group, offs[:, None] + local[None, :])
            G = cols[pos].transpose(2, 0, 1).reshape(-1, local.size)
            if G.any():
                out.append((mu, lam, local, G, gens_at.size, offs.size))
    return out


def ext_dims(res: Resolution, target: ModuleRep) -> list[int]:
    """Graded dimensions of Ext^s for s < depth, from Hom(P_*, N).

    Hom(Gamma^lam, N) is N_lam, so the term of degree s is the sum of N_lam
    over the summands of stage s, and delta^s sends a map to its
    composite with the differential.  Rows and columns are grouped by
    partition, which changes no rank.  For the summands of partition mu
    in stage s+1 and of lam in stage s, the block is one product G @ W:
    G, from res.coefficients, is the resolution's half, and W, the
    target's, is the rows of N_lam's basis in the target's word stack,
    read at G's words and at N_mu's basis.
    """
    p, n = res.p, res.n
    comp = {lam: comp_of_partition(lam, n)
            for stage in res.stages for lam in stage.blocks}
    pivots = {lam: target.weight_indices(c) for lam, c in comp.items()}
    wdim = {lam: ix.size for lam, ix in pivots.items()}
    rows: dict[tuple[int, ...], fp.CSR] = {}  # the word stack at N_lam's basis
    words: dict[tuple, np.ndarray] = {}  # W of (mu, lam)
    starts = []  # per stage: each partition's first row, and the total
    for stage in res.stages:
        sizes = {lam: offs.size * wdim[lam]
                 for lam, (_, _, offs) in stage.blocks.items()}
        ends = list(accumulate(sizes.values(), initial=0))
        starts.append((dict(zip(sizes, ends)), ends[-1]))
    ranks = []
    for s in range(res.depth):
        delta = fp.zeros(starts[s + 1][1], starts[s][1])
        for mu, lam, local, G, n_mu, n_lam in res.coefficients(s):
            if not wdim[mu] or not wdim[lam]:
                continue
            if lam not in rows:
                rows[lam] = target.stack_matrix(("words", comp[lam]))[pivots[lam]]
            if (mu, lam) not in words:
                cols = (local[:, None] * target.dim + pivots[mu]).reshape(-1)
                words[mu, lam] = rows[lam].take_cols(cols).toarray().reshape(
                    wdim[lam], local.size, -1).transpose(1, 0, 2).reshape(local.size, -1)
            piece = fp.matmul(G, words[mu, lam], p).reshape(n_mu, n_lam, wdim[lam], -1)
            r0, c0 = starts[s + 1][0][mu], starts[s][0][lam]
            delta[r0: r0 + n_mu * wdim[mu], c0: c0 + n_lam * wdim[lam]] = (
                piece.transpose(0, 3, 1, 2).reshape(-1, n_lam * wdim[lam]))
        ranks.append(fp.rank(delta, p))
    return [starts[s][1] - ranks[s] - (ranks[s - 1] if s else 0)
            for s in range(res.depth)]


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
