"""Concrete Schur-algebra modules realizing strict polynomial functors.

Everything here is a finite-dimensional module over S(n, D) given by a
rule for applying operator refs to batches of row vectors.  The
workhorse is ShapeModule: a product of divided/symmetric/exterior power
blocks over an alphabet of (parameter, basis-vector) letters, each
letter occupying p^twist tensor slots.  Such modules carry explicit
sparse lift/project maps to tensor space, so the algebra action is
(project) o (tensor-space operator) o (lift).

Duals act through the flip anti-automorphism, submodules through an
RREF basis of a stable subspace, and binary tensor products through
splitting operator orbits across the two factors.
"""

from __future__ import annotations

import threading
from itertools import combinations, combinations_with_replacement, product

import numpy as np
from scipy import sparse

from . import fp
from .errors import BudgetExceededError, EquivarianceError
from .tensorspace import (OpRef, compositions, distinct_permutations,
                          flip_ref, get_space)

AMBIENT_CAP = 1 << 22

# Action matrices are cached per module only below this dimension; big
# modules recompute through the sparse pipeline instead.
_ACTION_CACHE_DIM = 220

Block = tuple[str, int, int]  # (kind in {G, S, L}, size, twist order)


class ModuleRep:
    """Base class: a module over S(n, D) with a batch action rule."""

    p: int
    n: int
    D: int
    dim: int

    def __init__(self, p: int, n: int, D: int, dim: int):
        self.p = p
        self.n = n
        self.D = D
        self.dim = dim
        self.space = get_space(p, n, D)
        self._action_cache: dict[OpRef, np.ndarray] = {}
        self._weight_cache: dict[tuple[int, ...], tuple[np.ndarray, tuple[int, ...]]] = {}
        self._lock = threading.RLock()

    def apply_ref(self, ref: OpRef, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def action_matrix(self, ref: OpRef):
        """Matrix A with column action v -> A v; cached for small modules."""
        with self._lock:
            hit = self._action_cache.get(ref)
        if hit is not None:
            return hit
        mat = self.apply_ref(ref, fp.identity(self.dim)).T
        if self.dim <= _ACTION_CACHE_DIM:
            with self._lock:
                self._action_cache[ref] = mat
        return mat

    def weight_basis(self, comp: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
        """RREF rows (and pivots) spanning the weight space of `comp`."""
        comp = tuple(comp)
        with self._lock:
            hit = self._weight_cache.get(comp)
        if hit is not None:
            return hit
        idem = ("xi", self.space.weight_key(comp))
        img = self.apply_ref(idem, fp.identity(self.dim))
        rows, pivots = fp.basis_rows(img, self.p)
        out = (rows, tuple(pivots))
        with self._lock:
            self._weight_cache[comp] = out
        return out

    def weight_dim(self, comp: tuple[int, ...]) -> int:
        return self.weight_basis(comp)[0].shape[0]

    def weight_coords(self, comp: tuple[int, ...], x: np.ndarray) -> np.ndarray:
        """Coordinates of rows of x (inside the weight space) in its RREF basis."""
        _, pivots = self.weight_basis(comp)
        return x[..., list(pivots)]

    def character(self) -> dict[tuple[int, ...], int]:
        out = {}
        for comp in compositions(self.D, self.n):
            w = self.weight_dim(comp)
            if w:
                out[tuple(comp)] = w
        return out


def _block_basis(kind: str, size: int, alphabet: int) -> list[tuple[int, ...]]:
    letters = range(alphabet)
    if kind in ("G", "S"):
        return list(combinations_with_replacement(letters, size))
    if kind == "L":
        return list(combinations(letters, size))
    raise ValueError(f"unknown block kind {kind!r}")


def _sort_with_sign(letters: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Sort, counting inversions; None when a letter repeats."""
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


class ShapeModule(ModuleRep):
    """A product of power blocks evaluated on (k^m (x) E), E = k^n.

    blocks is a tuple of (kind, size, twist); a block of twist r holds
    letters that each occupy p^r tensor slots (the letter's basis vector
    repeated, realizing the Frobenius power inside S^{p^r}).  The module
    basis is the product of canonical per-block letter tuples.
    """

    def __init__(self, p: int, n: int, blocks: tuple[Block, ...], m: int = 1):
        blocks = tuple(("G" if size == 1 else kind, size, twist)
                       for kind, size, twist in blocks)
        D = sum(size * p ** twist for _, size, twist in blocks)
        self.blocks = blocks
        self.m = m
        self.alphabet = m * n
        self.nletters = sum(size for _, size, _ in blocks)
        amb = (m ** self.nletters) * (n ** D)
        if amb > AMBIENT_CAP:
            raise BudgetExceededError(
                f"ambient dimension {amb} exceeds cap {AMBIENT_CAP}")
        self.block_bases = [_block_basis(kind, size, self.alphabet)
                            for kind, size, _ in blocks]
        self._block_index = [{t: k for k, t in enumerate(bb)}
                             for bb in self.block_bases]
        dim = 1
        for bb in self.block_bases:
            dim *= len(bb)
        super().__init__(p, n, D, dim)
        self._amb = amb
        self._u_total = m ** self.nletters
        self.contents = self._compute_contents()
        self._groups: dict[tuple[int, ...], np.ndarray] | None = None
        self._lift: sparse.csr_matrix | None = None
        self._proj: sparse.csr_matrix | None = None

    # basis handling ------------------------------------------------------

    def basis_tuple(self, idx: int) -> tuple[tuple[int, ...], ...]:
        out = []
        for bb in reversed(self.block_bases):
            out.append(bb[idx % len(bb)])
            idx //= len(bb)
        return tuple(reversed(out))

    def basis_index(self, tup: tuple[tuple[int, ...], ...]) -> int:
        idx = 0
        for b, t in enumerate(tup):
            idx = idx * len(self.block_bases[b]) + self._block_index[b][t]
        return idx

    def _compute_contents(self) -> np.ndarray:
        contents = np.zeros((self.dim, self.n), dtype=np.int64)
        per_block = []
        for b, (_, _, twist) in enumerate(self.blocks):
            scale = self.p ** twist
            rows = np.zeros((len(self.block_bases[b]), self.n), dtype=np.int64)
            for k, tup in enumerate(self.block_bases[b]):
                for letter in tup:
                    rows[k, letter % self.n] += scale
            per_block.append(rows)
        for idx in range(self.dim):
            rem = idx
            acc = np.zeros(self.n, dtype=np.int64)
            for b in range(len(self.blocks) - 1, -1, -1):
                size = len(self.block_bases[b])
                acc += per_block[b][rem % size]
                rem //= size
            contents[idx] = acc
        return contents

    def content_groups(self) -> dict[tuple[int, ...], np.ndarray]:
        if self._groups is None:
            groups: dict[tuple[int, ...], list[int]] = {}
            for idx in range(self.dim):
                groups.setdefault(tuple(int(c) for c in self.contents[idx]),
                                  []).append(idx)
            self._groups = {c: np.array(ix, dtype=np.int64)
                            for c, ix in groups.items()}
        return self._groups

    def weight_basis(self, comp):
        comp = tuple(comp)
        idxs = self.content_groups().get(comp)
        if idxs is None or idxs.size == 0:
            return fp.zeros(0, self.dim), ()
        rows = fp.zeros(idxs.size, self.dim)
        rows[np.arange(idxs.size), idxs] = 1
        return rows, tuple(int(i) for i in idxs)

    # ambient encoding ----------------------------------------------------

    def _ambient_index(self, letters: tuple[int, ...]) -> int:
        """Ambient index of a full letter arrangement (one entry per letter)."""
        u_idx = 0
        e_idx = 0
        pos = 0
        for b, (_, size, twist) in enumerate(self.blocks):
            reps = self.p ** twist
            for _ in range(size):
                letter = letters[pos]
                u, a = divmod(letter, self.n)
                u_idx = u_idx * self.m + u
                for _ in range(reps):
                    e_idx = e_idx * self.n + a
                pos += 1
        return u_idx * (self.n ** self.D) + e_idx

    def lift_matrix(self) -> sparse.csr_matrix:
        """Section of the subquotient: orbit sums on G blocks, canonical
        representatives on S and L blocks."""
        if self._lift is not None:
            return self._lift
        rows, cols, vals = [], [], []
        for idx in range(self.dim):
            tup = self.basis_tuple(idx)
            expansions = []
            for b, (kind, _, _) in enumerate(self.blocks):
                if kind == "G":
                    expansions.append(list(distinct_permutations(tup[b])))
                else:
                    expansions.append([tup[b]])
            for arrangement in product(*expansions):
                flat = tuple(x for part in arrangement for x in part)
                rows.append(self._ambient_index(flat))
                cols.append(idx)
                vals.append(1)
        mat = sparse.csr_matrix(
            (np.array(vals, dtype=np.int64), (rows, cols)),
            shape=(self._amb, self.dim))
        mat.data %= self.p
        self._lift = mat
        return mat

    def project_matrix(self) -> sparse.csr_matrix:
        """Coordinates of an ambient vector known to lie over the module:
        groups must be pure powers, G blocks are gathered at their sorted
        representative, S blocks sort, L blocks sort with sign."""
        if self._proj is not None:
            return self._proj
        nD = self.n ** self.D
        rows, cols, vals = [], [], []
        for u_idx in range(self._u_total):
            u_digits = []
            rem = u_idx
            for _ in range(self.nletters):
                u_digits.append(rem % self.m)
                rem //= self.m
            u_digits.reverse()
            for e_idx in range(nD):
                coeff = 1
                tup_blocks = []
                rem = e_idx
                e_digits = []
                for _ in range(self.D):
                    e_digits.append(rem % self.n)
                    rem //= self.n
                e_digits.reverse()
                pos_letter = 0
                pos_slot = 0
                ok = True
                for kind, size, twist in self.blocks:
                    reps = self.p ** twist
                    letters = []
                    for _ in range(size):
                        group = e_digits[pos_slot: pos_slot + reps]
                        pos_slot += reps
                        if any(g != group[0] for g in group[1:]):
                            ok = False
                            break
                        letters.append(u_digits[pos_letter] * self.n + group[0])
                        pos_letter += 1
                    if not ok:
                        break
                    if kind == "G":
                        if any(letters[i] > letters[i + 1] for i in range(len(letters) - 1)):
                            ok = False
                            break
                        tup_blocks.append(tuple(letters))
                    elif kind == "S":
                        tup_blocks.append(tuple(sorted(letters)))
                    else:
                        sorted_sign = _sort_with_sign(tuple(letters))
                        if sorted_sign is None:
                            ok = False
                            break
                        tup_blocks.append(sorted_sign[0])
                        coeff *= sorted_sign[1]
                if not ok:
                    continue
                rows.append(self.basis_index(tuple(tup_blocks)))
                cols.append(u_idx * nD + e_idx)
                vals.append(coeff % self.p)
        mat = sparse.csr_matrix(
            (np.array(vals, dtype=np.int64), (rows, cols)),
            shape=(self.dim, self._amb))
        mat.data %= self.p
        mat.eliminate_zeros()
        self._proj = mat
        return mat

    # action --------------------------------------------------------------

    def apply_ref(self, ref: OpRef, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        batch = x.shape[0]
        amb = self.lift_matrix() @ x.T  # (_amb, batch)
        nD = self.n ** self.D
        a = self.space.matrix(ref)
        if self._u_total == 1:
            acted = (a @ amb) % self.p
        else:
            v = amb.reshape(self._u_total, nD, batch)
            v = np.ascontiguousarray(v.transpose(1, 0, 2)).reshape(
                nD, self._u_total * batch)
            acted = (a @ v) % self.p
            acted = acted.reshape(nD, self._u_total, batch).transpose(1, 0, 2)
            acted = np.ascontiguousarray(acted).reshape(self._amb, batch)
        out = (self.project_matrix() @ acted) % self.p
        return out.T

    def decorated_operator(self, ref: OpRef) -> sparse.csr_matrix:
        """The operator on the parameter-decorated ambient (identity on the
        parameter letters, the tensor-space matrix on the E slots)."""
        a = self.space.matrix(ref)
        if self._u_total == 1:
            return a
        return sparse.kron(sparse.identity(self._u_total, dtype=np.int64,
                                           format="csr"), a, format="csr")

    def action_matrix(self, ref: OpRef):
        with self._lock:
            hit = self._action_cache.get(ref)
        if hit is not None:
            return hit
        mat = (self.project_matrix() @ self.decorated_operator(ref)
               @ self.lift_matrix()).tocsr()
        mat.data %= self.p
        mat.eliminate_zeros()
        if self.dim <= _ACTION_CACHE_DIM or mat.nnz * 3 <= self.dim * 40:
            with self._lock:
                self._action_cache[ref] = mat
        return mat

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
    """Kuhn dual: the action of xi_{i,j} is the transpose of xi_{j,i}."""

    def __init__(self, base: ModuleRep):
        super().__init__(base.p, base.n, base.D, base.dim)
        self.base = base

    def apply_ref(self, ref: OpRef, x: np.ndarray) -> np.ndarray:
        a = self.base.action_matrix(flip_ref(ref))
        if sparse.issparse(a):
            return np.asarray(x @ a) % self.p
        return fp.matmul(x, a, self.p)


class SubmoduleModule(ModuleRep):
    """Submodule spanned by RREF rows of a stable subspace of the parent."""

    def __init__(self, parent: ModuleRep, rows: np.ndarray, pivots=None):
        if pivots is None:
            rows, piv = fp.basis_rows(rows, parent.p)
            pivots = tuple(piv)
        super().__init__(parent.p, parent.n, parent.D, rows.shape[0])
        self.parent = parent
        self.rows = rows
        self.pivots = tuple(pivots)

    def apply_ref(self, ref: OpRef, x: np.ndarray) -> np.ndarray:
        up = fp.matmul(np.asarray(x, dtype=np.int64), self.rows, self.p)
        acted = self.parent.apply_ref(ref, up)
        return acted[:, list(self.pivots)]


class TensorModule(ModuleRep):
    """Tensor product of two modules, acting through orbit splitting."""

    def __init__(self, left: ModuleRep, right: ModuleRep):
        if (left.p, left.n) != (right.p, right.n):
            raise ValueError("tensor factors over different contexts")
        super().__init__(left.p, left.n, left.D + right.D, left.dim * right.dim)
        self.left = left
        self.right = right
        self._splits: dict[OpRef, list[tuple[OpRef, OpRef]]] = {}

    def _split_ref(self, ref: OpRef) -> list[tuple[OpRef, OpRef]]:
        hit = self._splits.get(ref)
        if hit is not None:
            return hit
        kind = ref[0]
        out: list[tuple[OpRef, OpRef]] = []
        if kind == "xi":
            key = ref[1]
            dl = self.left.D
            seen = set()
            for picks in combinations(range(len(key)), dl):
                pick_set = set(picks)
                k1 = tuple(key[s] for s in picks)
                k2 = tuple(key[s] for s in range(len(key)) if s not in pick_set)
                if (k1, k2) in seen:
                    continue
                seen.add((k1, k2))
                out.append((("xi", k1), ("xi", k2)))
        elif kind == "div":
            _, a, b, r = ref
            for r1 in range(r + 1):
                left = ("one",) if r1 == 0 else ("div", a, b, r1)
                right = ("one",) if r1 == r else ("div", a, b, r - r1)
                out.append((left, right))
        else:
            raise ValueError(f"cannot split operator ref {ref!r}")
        self._splits[ref] = out
        return out

    @staticmethod
    def _factor_matrix(mod: ModuleRep, ref: OpRef):
        if ref == ("one",):
            return fp.identity(mod.dim)
        a = mod.action_matrix(ref)
        return a.toarray() if sparse.issparse(a) else a

    def apply_ref(self, ref: OpRef, x: np.ndarray) -> np.ndarray:
        batch = x.shape[0]
        xv = np.asarray(x, dtype=np.int64).reshape(batch, self.left.dim,
                                                   self.right.dim)
        out = np.zeros_like(xv)
        for k1, k2 in self._split_ref(ref):
            ml = self._factor_matrix(self.left, k1)
            mr = self._factor_matrix(self.right, k2)
            t = np.einsum("xl,blr->bxr", ml, xv)
            out += np.einsum("bxr,yr->bxy", t, mr) % self.p
        return (out % self.p).reshape(batch, self.dim)


# Hom spaces ---------------------------------------------------------------


def hom_space(src: ModuleRep, tgt: ModuleRep) -> list[np.ndarray]:
    """Basis of equivariant maps src -> tgt, as matrices (tgt.dim x src.dim).

    Weight compatibility is imposed analytically first (equivariant maps
    preserve weight spaces, so they commute with the weight idempotents),
    then each divided-power generator of `generator_refs` cuts the
    solution space down by an incremental kernel computation.
    """
    if (src.p, src.n, src.D) != (tgt.p, tgt.n, tgt.D):
        raise ValueError("hom between modules in different categories")
    p = src.p
    blocks = []
    for comp in compositions(src.D, src.n):
        ws = src.weight_dim(comp)
        wt = tgt.weight_dim(comp)
        if ws and wt:
            blocks.append((tuple(comp), ws, wt))
    if not blocks:
        return []

    # the map with a single 1 at entry (i, j) of a weight block is the
    # outer product of target weight row i and source weight projector row j
    mats = []
    for comp, ws, wt in blocks:
        pivots = src.weight_basis(comp)[1]
        idem = ("xi", src.space.weight_key(comp))
        proj = src.apply_ref(idem, fp.identity(src.dim)).T  # column action
        src_hat = proj[list(pivots), :]  # (ws, src.dim)
        tgt_rows = tgt.weight_basis(comp)[0]  # (wt, tgt.dim)
        outer = tgt_rows[:, None, :, None] * src_hat[None, :, None, :]
        mats.append(outer.reshape(wt * ws, tgt.dim, src.dim) % p)
    mats = np.concatenate(mats)
    for ref in src.space.generator_refs():
        if len(mats) == 0:
            break
        if ref[0] == "xi":
            continue  # a weight idempotent: the weight blocks satisfy it
        a_src = src.action_matrix(ref)
        a_tgt = tgt.action_matrix(ref)
        cols = []
        for x in mats:
            if sparse.issparse(a_src):
                xa = np.asarray((a_src.T @ x.T).T) % p
            else:
                xa = fp.matmul(x, a_src, p)
            if sparse.issparse(a_tgt):
                ax = np.asarray(a_tgt @ x) % p
            else:
                ax = fp.matmul(a_tgt, x, p)
            cols.append(((xa - ax) % p).reshape(-1))
        resid = np.stack(cols, axis=1)
        coeffs = fp.kernel_basis(resid, p)
        if coeffs.shape[0] == len(mats):
            continue
        # maps depend linearly on their weight-block entries, so the
        # surviving maps are the kernel coefficients times the current ones
        mats = fp.matmul(coeffs, mats.reshape(len(mats), -1), p).reshape(
            -1, tgt.dim, src.dim)
    return list(mats)


def check_equivariance(matrix: np.ndarray, src: ModuleRep,
                       tgt: ModuleRep) -> None:
    """Raise EquivarianceError unless `matrix` commutes with the action.

    Every ref of `generator_refs` is checked; commuting with a generating
    set means commuting with the whole Schur algebra, so a pass is a proof.
    """
    p = src.p
    phi = sparse.csr_matrix(np.asarray(matrix, dtype=np.int64) % p)
    for ref in src.space.generator_refs():
        a_src = src.action_matrix(ref)
        a_tgt = tgt.action_matrix(ref)
        if not sparse.issparse(a_src):
            a_src = sparse.csr_matrix(a_src)
        if not sparse.issparse(a_tgt):
            a_tgt = sparse.csr_matrix(a_tgt)
        diff = phi @ a_src - a_tgt @ phi
        diff.data %= p
        diff.eliminate_zeros()
        if diff.nnz:
            raise EquivarianceError(f"map fails to commute with {ref!r}")
