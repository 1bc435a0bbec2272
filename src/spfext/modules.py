"""Concrete Schur-algebra modules realizing strict polynomial functors.

Every module here is a module over S(n, D) given as a subquotient of
its ambient k^U (x) E^(x)D, parameter words times tensor space, by a
lift L and a projection P with P L = 1.  S(n, D) acts on the ambient
through tensor space, so an operator A acts on the module as P A L, and
one rule, ModuleRep._stack, reads every stack off L, P and the space's
stack (see fp for the stack layout).  ShapeModule, a product of
divided/symmetric/exterior power blocks over an alphabet of (parameter,
basis-vector) letters, each letter occupying p^twist tensor slots, reads
its pair off one decode of the ambient; every other kind derives its
pair from its operands' pairs.

Every basis is a basis of weight vectors, so a map commutes with the
weight idempotents iff it joins only basis vectors of equal weight.
generator_action stacks the other generators, the simple-root divided
powers at powers of p, once per module; check_equivariance proves a map
equivariant by the weight comparison and two canonical products with
the two modules' stacks, compared array by array.  Only hom_space, which
reads each generator as rows, transposes a stack: once per call.

A Kuhn dual swaps its base's pair: the flip xi_{I,J} -> xi_{J,I} is the
transpose on tensor space, so the dual acts as L^T A P^T.  A submodule
with RREF rows R lifts through R^T and projects onto its pivots.  A
tensor product's pair is the Kronecker product of its factors' pairs,
since E^(x)D1 (x) E^(x)D2 is E^(x)(D1 + D2) and S(n, D1 + D2) acts on it
through the comultiplication (Green, LNM 830).
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

import numpy as np

from . import fp
from .errors import BudgetExceededError, EquivarianceError
from .tensorspace import OpRef, compositions, get_space

AMBIENT_CAP = 1 << 22

Block = tuple[str, int, int]  # (kind in {G, S, L}, size, twist order)


def canonical_blocks(blocks) -> tuple[Block, ...]:
    """Blocks as a ShapeModule stores them: a one-letter block is G."""
    return tuple(("G" if size == 1 else kind, size, twist)
                 for kind, size, twist in blocks)


class ModuleRep:
    """Base class: a module over S(n, D), a subquotient of its ambient.

    The ambient is `ambient` = U * n^D coordinates, parameter word u and
    tensor-space slot e at u * n^D + e.  Each kind gives one rule,
    _build_bridge: the lift L and the transposed projection P^T, both
    (ambient x dim) CSRs, with P L = 1.  From them _stack(ref) reads the
    actions of the T operators that a tensor-space ref stacks (T = 1 for
    one operator), as one (dim x T * dim) matrix whose row j holds
    A_k e_j for k = 0 .. T - 1 side by side.  The Yoneda images of a
    vector, the Ext blocks and the generator action are all read from it.

    Every basis is a basis of weight vectors: row k of `contents` is the
    weight of basis vector k, and the weight spaces, the character and
    the weight check of check_equivariance are all read from it.
    """

    p: int
    n: int
    D: int
    dim: int
    contents: np.ndarray  # (dim, n)

    def __init__(self, p: int, n: int, D: int, dim: int, ambient: int):
        if ambient > AMBIENT_CAP:
            raise BudgetExceededError(
                f"ambient dimension {ambient} exceeds cap {AMBIENT_CAP}")
        self.p = p
        self.n = n
        self.D = D
        self.dim = dim
        self.ambient = ambient
        self.space = get_space(p, n, D)
        self._bridge: tuple[fp.CSR, fp.CSR] | None = None
        self._stacks: dict[OpRef, fp.CSR] = {}
        self._groups: dict[tuple[int, ...], np.ndarray] | None = None

    def bridge(self) -> tuple[fp.CSR, fp.CSR]:
        """(L, P^T), both (ambient x dim), built once."""
        if self._bridge is None:
            self._bridge = self._build_bridge()
        return self._bridge

    def lift_matrix(self) -> fp.CSR:
        """L: column j is basis vector j in the ambient."""
        return self.bridge()[0]

    def project_matrix(self) -> fp.CSR:
        """P: the coordinates of an ambient vector known to lie over the
        module."""
        return self.bridge()[1].T

    def stack_matrix(self, ref: OpRef) -> fp.CSR:
        """(dim, T * dim) CSR: block k of row j is A_k e_j, the k-th
        operator of ref applied to basis vector j, so v @ stack holds each
        A_k v in turn.  Kept for the module's lifetime; the first stack
        stored for a ref is the one every caller gets."""
        hit = self._stacks.get(ref)
        if hit is not None:
            return hit
        return self._stacks.setdefault(ref, self._stack(ref))

    def _stack(self, ref: OpRef) -> fp.CSR:
        """P A_k L for the T stacked tensor-space operators A_k of ref,
        acting on the E slots and as the identity on parameter words.
        Each entry of L, at a parameter word and a slot, meets the row of
        the space's stack at that slot on that word, and each image meets
        the row of P^T there: two row gathers and one from_coo."""
        lift, proj_t = self.bridge()
        S = self.space.matrix(ref)
        N = self.space.dim
        amb, basis, weight = lift.coo()
        word, slot = np.divmod(amb, N)
        # row k of S[slot] holds the images of the slot entry k of L meets
        owner, hit, data = S[slot].coo()
        block, image = np.divmod(hit, N)
        at, col, sign = proj_t[word[owner] * N + image].coo()
        owner = owner[at]
        return fp.CSR.from_coo(basis[owner], block[at] * self.dim + col,
                               weight[owner] * data[at] * sign,
                               (self.dim, S.shape[1] // N * self.dim), self.p)

    def generator_action(self) -> tuple[list[OpRef], fp.CSR]:
        """(refs, A) for refs = space.generator_refs(), the simple-root
        divided powers at powers of p: A = stack_matrix(("gens",)) holds
        their actions side by side, so columns g*dim .. (g+1)*dim - 1 are
        the transposed action of refs[g], and has no columns when n = 1."""
        return self.space.generator_refs(), self.stack_matrix(("gens",))

    def content_groups(self) -> dict[tuple[int, ...], np.ndarray]:
        """Each weight's basis indices, ascending, the weights in the order
        of their first basis vector."""
        if self._groups is None:
            # contents lie in [0, D], so base D + 1 keys them one to one
            key = self.contents @ (self.D + 1) ** np.arange(self.n)
            order = key.argsort(kind="stable")
            key = key[order]
            cuts = ((key[1:] != key[:-1]).nonzero()[0] + 1).tolist()
            runs = [order[a:b] for a, b in zip([0] + cuts, cuts + [key.size])
                    if a < b]
            self._groups = {tuple(self.contents[run[0]].tolist()): run
                            for run in sorted(runs, key=lambda run: run[0])}
        return self._groups

    def weight_indices(self, comp: tuple[int, ...]) -> np.ndarray:
        """The basis vectors of weight `comp`, ascending."""
        comp = tuple(comp)
        if len(comp) != self.n or sum(comp) != self.D or min(comp) < 0:
            raise ValueError(f"{comp} is not a composition of {self.D} in {self.n}")
        return self.content_groups().get(comp, np.zeros(0, dtype=np.int64))

    def character(self) -> dict[tuple[int, ...], int]:
        return {comp: idxs.size for comp, idxs in self.content_groups().items()}


def _block_basis(kind: str, size: int, alphabet: int) -> list[tuple[int, ...]]:
    letters = range(alphabet)
    if kind in ("G", "S"):
        return list(combinations_with_replacement(letters, size))
    if kind == "L":
        return list(combinations(letters, size))
    raise ValueError(f"unknown block kind {kind!r}")


class ShapeModule(ModuleRep):
    """A product of power blocks evaluated on (k^m (x) E), E = k^n.

    blocks is a tuple of (kind, size, twist); a block of twist r holds
    letters that each occupy p^r tensor slots (the letter's basis vector
    repeated, realizing the Frobenius power inside S^{p^r}).  The module
    basis is the product of canonical per-block letter tuples.
    """

    def __init__(self, p: int, n: int, blocks: tuple[Block, ...], m: int = 1):
        blocks = canonical_blocks(blocks)
        D = sum(size * p ** twist for _, size, twist in blocks)
        self.blocks = blocks
        self.m = m
        self.alphabet = m * n
        self.nletters = sum(size for _, size, _ in blocks)
        self.block_bases = [_block_basis(kind, size, self.alphabet)
                            for kind, size, _ in blocks]
        self._block_index = [{t: k for k, t in enumerate(bb)}
                             for bb in self.block_bases]
        dim = 1
        for bb in self.block_bases:
            dim *= len(bb)
        super().__init__(p, n, D, dim, m ** self.nletters * n ** D)
        self.contents = self._compute_contents()

    # basis handling ------------------------------------------------------

    def basis_index(self, tup: tuple[tuple[int, ...], ...]) -> int:
        idx = 0
        for b, t in enumerate(tup):
            idx = idx * len(self.block_bases[b]) + self._block_index[b][t]
        return idx

    def _compute_contents(self) -> np.ndarray:
        """Row idx is the weight of basis vector idx: one decode of every
        index into its block digits, and each block's letter contents
        scaled by p^twist."""
        digits = np.unravel_index(np.arange(self.dim),
                                  [len(bb) for bb in self.block_bases])
        contents = np.zeros((self.dim, self.n), dtype=np.int64)
        for (_, size, twist), bb, d in zip(self.blocks, self.block_bases, digits):
            letters = np.array(bb, dtype=np.int64).reshape(len(bb), size) % self.n
            counts = (letters[:, :, None] == np.arange(self.n)).sum(axis=1)
            contents += counts[d] * self.p ** twist
        return contents

    # tensor-space bridge -------------------------------------------------

    def _build_bridge(self) -> tuple[fp.CSR, fp.CSR]:
        """The lift and the transposed projection from one decode of the
        ambient.

        An ambient index is a parameter digit per letter (base m) followed
        by a letter per tensor slot (base n); it lies over the module when
        each letter's p^twist slots agree.  Sorting each block's letters
        names the basis element: the lift takes every arrangement of a G
        block (orbit sums) and the canonical one of an S or L block, the
        projection every arrangement of an S block, the sorted one of a G
        block, and repeat-free ones of an L block, signed by their
        inversion parity.  Each ambient index lifts from, and projects
        to, at most one basis element.
        """
        n, m, nD = self.n, self.m, self.space.dim
        words = self.ambient // nD
        reps = [self.p ** twist for _, size, twist in self.blocks
                for _ in range(size)]
        slot_letter = np.arange(self.nletters).repeat(reps)
        first_slot = np.array([0] + reps[:-1]).cumsum()
        e_digits = self.space.letters
        pure = (e_digits == e_digits[:, first_slot[slot_letter]]).all(axis=1)
        e_index = pure.nonzero()[0]
        u_digits = np.zeros((words, self.nletters), dtype=np.int64)
        rem = np.arange(words)
        for k in range(self.nletters - 1, -1, -1):
            u_digits[:, k] = rem % m
            rem //= m
        letters = (u_digits[:, None, :] * n
                   + e_digits[e_index][:, first_slot][None, :, :]).reshape(
                       -1, self.nletters)
        amb = (np.arange(words)[:, None] * nD + e_index[None, :]).reshape(-1)
        idx = np.zeros(amb.size, dtype=np.int64)
        lifts = np.ones(amb.size, dtype=bool)
        projects = np.ones(amb.size, dtype=bool)
        odd = np.zeros(amb.size, dtype=bool)
        pos = 0
        for (kind, size, _), basis in zip(self.blocks, self.block_bases):
            block = letters[:, pos: pos + size]
            pos += size
            ordered = (block[:, 1:] >= block[:, :-1]).all(axis=1)
            canon = np.sort(block, axis=1)
            if kind == "G":
                projects &= ordered
            elif kind == "S":
                lifts &= ordered
            else:
                distinct = (canon[:, 1:] > canon[:, :-1]).all(axis=1)
                lifts &= ordered & distinct
                projects &= distinct
                for i, j in combinations(range(size), 2):
                    odd ^= block[:, i] > block[:, j]
            weights = self.alphabet ** np.arange(size - 1, -1, -1)
            codes = np.array(basis, dtype=np.int64) @ weights
            idx = idx * len(basis) + np.searchsorted(codes, canon @ weights)
        shape = (self.ambient, self.dim)
        return (fp.CSR.from_coo(amb[lifts], idx[lifts],
                                np.ones(lifts.sum(), dtype=np.int64), shape, self.p),
                fp.CSR.from_coo(amb[projects], idx[projects],
                                np.where(odd, self.p - 1, 1)[projects], shape,
                                self.p))

    def expression(self) -> str:
        """The shape as a fragment expression that evaluates back to it:
        a one-letter block prints as I, a twisted block as twist(...,t),
        and m > 1 wraps the product in param(...,m)."""
        parts = []
        for kind, size, twist in self.blocks:
            tag = "I" if size == 1 else f"{kind}({size})"
            if twist:
                tag = f"twist({tag},{twist})"
            parts.append(tag)
        shape = "*".join(parts)
        if self.m > 1:
            shape = f"param({shape},{self.m})"
        return shape


class DualModule(ModuleRep):
    """Kuhn dual: the action of xi_{i,j} is the transpose of xi_{j,i}.
    On tensor space that transpose is xi_{i,j} itself, so the dual acts
    as L^T A P^T: its lift is the base's P^T and its projection L^T."""

    def __init__(self, base: ModuleRep):
        super().__init__(base.p, base.n, base.D, base.dim, base.ambient)
        self.base = base
        self.contents = base.contents

    def _build_bridge(self) -> tuple[fp.CSR, fp.CSR]:
        lift, proj_t = self.base.bridge()
        return proj_t, lift


class SubmoduleModule(ModuleRep):
    """Submodule spanned by RREF rows R of a stable subspace of the parent.

    Basis vector j lifts through row j of R, and a vector of the span has
    its coordinates at the pivots, so the pair is (L R^T, P^T at the
    pivots).  A stable subspace is the sum of its weight spaces, so each
    RREF row is a weight vector, of its pivot's weight; rows that mix
    weights are refused."""

    def __init__(self, parent: ModuleRep, rows: np.ndarray):
        rows, pivots = fp.basis_rows(rows, parent.p)
        super().__init__(parent.p, parent.n, parent.D, rows.shape[0],
                         parent.ambient)
        self.parent = parent
        self.rows = rows
        self.pivots = tuple(pivots)
        self.contents = parent.contents[list(pivots)]
        at, col = np.nonzero(rows)
        if (parent.contents[col] != self.contents[at]).any():
            raise ValueError("submodule rows are not weight vectors")

    def _build_bridge(self) -> tuple[fp.CSR, fp.CSR]:
        lift, proj_t = self.parent.bridge()
        return (lift @ fp.CSR.from_dense(self.rows.T, self.p),
                proj_t.take_cols(self.pivots))


class TensorModule(ModuleRep):
    """Tensor product of two modules, acting through the comultiplication
    of the Schur algebra (Green, LNM 830; Akin-Buchsbaum-Weyman, Adv.
    Math. 1982), which is the action on E^(x)D1 (x) E^(x)D2 =
    E^(x)(D1 + D2): the pair is the Kronecker product of the factors'
    pairs, the ambient index (u1, e1, u2, e2) read as (u1 U2 + u2, e1 N2 +
    e2) for U parameter words and N tensor slots."""

    def __init__(self, left: ModuleRep, right: ModuleRep):
        if (left.p, left.n) != (right.p, right.n):
            raise ValueError("tensor factors over different contexts")
        super().__init__(left.p, left.n, left.D + right.D, left.dim * right.dim,
                         left.ambient * right.ambient)
        self.left = left
        self.right = right
        self.contents = (left.contents[:, None] + right.contents[None, :]).reshape(
            self.dim, self.n)

    def _build_bridge(self) -> tuple[fp.CSR, fp.CSR]:
        N1, N2 = self.left.space.dim, self.right.space.dim
        A2 = self.right.ambient

        def join(one: fp.CSR, two: fp.CSR) -> fp.CSR:
            # row a1 * A2 + a2 of the kron, each a = u * N + e, moves to
            # (u1 * U2 + u2) * N1 * N2 + e1 * N2 + e2
            row, col, data = fp.kron(one, two).coo()
            (u1, e1), (u2, e2) = np.divmod(row // A2, N1), np.divmod(row % A2, N2)
            return fp.CSR.from_coo((u1 * (A2 // N2) + u2) * N1 * N2 + e1 * N2 + e2,
                                   col, data, (self.ambient, self.dim), self.p)

        return tuple(map(join, self.left.bridge(), self.right.bridge()))


# Hom spaces ---------------------------------------------------------------


def hom_space(src: ModuleRep, tgt: ModuleRep) -> list[np.ndarray]:
    """Basis of equivariant maps src -> tgt, as matrices (tgt.dim x src.dim),
    in RREF in the coordinates of the candidate maps.

    The candidates are the weight-preserving maps, which commute with the
    weight idempotents: one map per pair of a target and a source basis
    vector of the same weight, weight by weight in compositions order,
    the pairs in kron order.  Each generator of `generator_refs` then cuts
    the solution space down by an incremental kernel computation, all
    candidates at once, each generator read as rows of one transpose of
    the two modules' generator_action.
    """
    if (src.p, src.n, src.D) != (tgt.p, tgt.n, tgt.D):
        raise ValueError("hom between modules in different categories")
    p = src.p
    t, s = tgt.dim, src.dim
    src_groups, tgt_groups = src.content_groups(), tgt.content_groups()
    # candidate k has a single 1, at the flat entry flat[k] of a weight block
    flat = [(tgt_groups[comp][:, None] * s + src_groups[comp]).reshape(-1)
            for comp in compositions(src.D, src.n)
            if comp in src_groups and comp in tgt_groups]
    if not flat:
        return []
    flat = np.concatenate(flat)
    maps = fp.CSR.from_coo(np.arange(flat.size), flat,
                           np.ones(flat.size, dtype=np.int64),
                           (flat.size, t * s), p)

    # row k of the sparse stack `maps` is map k, flattened
    a_src, a_tgt = src.generator_action()[1].T, tgt.generator_action()[1].T
    for g in range(a_src.shape[0] // s):
        K = maps.shape[0]
        if K == 0:
            break
        act_src = a_src[g * s: (g + 1) * s]
        act_tgt = a_tgt[g * t: (g + 1) * t]
        # X A_src - A_tgt X for all K maps X at once; only the entries
        # where some map fails to commute constrain the kernel
        stacked = maps.reshape(K * t, s)
        resid = (stacked @ act_src
                 - fp.diagonal_copies(act_tgt, K) @ stacked).reshape(K, t * s)
        row, col, data = resid.coo()
        entries, at = np.unique(col, return_inverse=True)
        dense = fp.zeros(entries.size, K)
        dense[at, row] = data
        coeffs = fp.kernel_basis(dense, p)
        if coeffs.shape[0] == K:
            continue
        # maps depend linearly on their weight-block entries, so the
        # surviving maps are the kernel coefficients times the current ones
        maps = fp.CSR.from_dense(coeffs, p) @ maps
    return list(maps.toarray().reshape(-1, t, s))


def check_equivariance(matrix, src: ModuleRep, tgt: ModuleRep) -> None:
    """Raise EquivarianceError unless `matrix` commutes with the action.

    First every nonzero of phi must join two basis vectors of one weight,
    which is commuting with every weight idempotent.  Then every ref of
    `generator_refs` is checked at once: for the stacks A of
    generator_action, block g of A_src @ diagonal_copies(phi^T, R) and of
    phi^T @ A_tgt is (phi a_g)^T and (a_g phi)^T, and both products are
    canonical, so they must have equal arrays.  The weight idempotents and
    these divided powers generate the Schur algebra, so a pass is a proof.
    The error names the first weight mismatch, or else the first failing
    ref.  `matrix` may be dense or a CSR; it is not modified.
    """
    if src.space is not tgt.space:
        raise ValueError("equivariance between modules in different categories")
    p = src.p
    phi = matrix if isinstance(matrix, fp.CSR) else fp.CSR.from_dense(matrix, p)
    if phi.shape != (tgt.dim, src.dim):
        raise ValueError(f"a {phi.shape} matrix is no map of a {src.dim}-"
                         f"dimensional module to a {tgt.dim}-dimensional one")
    row, col, _ = phi.coo()
    clash = np.flatnonzero((tgt.contents[row] != src.contents[col]).any(axis=1))
    if clash.size:
        k = clash[0]
        raise EquivarianceError(
            f"map sends weight {tuple(src.contents[col[k]].tolist())} to "
            f"weight {tuple(tgt.contents[row[k]].tolist())}")
    refs, a_src = src.generator_action()
    left = a_src @ fp.diagonal_copies(phi.T, len(refs))
    right = phi.T @ tgt.generator_action()[1]
    if not all(map(np.array_equal, (left.indptr, left.indices, left.data),
                   (right.indptr, right.indices, right.data))):
        col = int((left - right).indices.min())
        raise EquivarianceError(
            f"map fails to commute with {refs[col // tgt.dim]!r}")
