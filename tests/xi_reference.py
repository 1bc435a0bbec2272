"""Single xi-basis operators, kept for the tests as references, and the
letter tuples of ShapeModule basis vectors (`basis_tuple`) that name them.

The engine acts only through stacks: ("words", c) and ("words", c,
"all") hold the word of each basis vector t of Gamma^c, and every
xi_{I,J} is the word of some t in Gamma^{content(J)}.  A stack holds the
images of basis vector j in its row j, block k of them in columns
k * dim .. (k + 1) * dim - 1, so the matrix of its k-th operator is the
transpose of that block (`stack_block`), and a single xi on a module is
read here as block t of that module's ("words", c, "all") stack
(`xi_block`).  `xi_matrix` builds a single xi on tensor space one
arrangement at a time, as the engine once did, and `xi_by_splitting`
and `div_by_splitting` act on a tensor product one operator at a time
through the splittings of its orbit across the factors, as TensorModule
once did.

The flip xi_{I,J} -> xi_{J,I} is kept here as the engine once stacked
it, as the independent rule a Kuhn dual is checked against: `flip_ref`
names a flipped stack, `space_stack` builds one on tensor space by
transposing each block of the stack (`block_transpose`), and
`module_stack` reads a module's flipped stack off its dual.
`gamma_letters` lays out the basis of Gamma^c, for the tensor product's
word split as it was first written.
"""

from itertools import combinations, combinations_with_replacement

import numpy as np
from scipy import sparse

from spfext import fp
from spfext.modules import DualModule, TensorModule


def distinct_permutations(items: tuple):
    """Yield the distinct permutations of a multiset, in lex order."""
    pool = sorted(items)
    n = len(pool)
    out: list = []

    def rec(remaining: list):
        if len(out) == n:
            yield tuple(out)
            return
        prev = object()
        for k in range(len(remaining)):
            if remaining[k] == prev:
                continue
            prev = remaining[k]
            out.append(remaining[k])
            yield from rec(remaining[:k] + remaining[k + 1:])
            out.pop()

    yield from rec(pool)


def basis_tuple(shape, idx: int) -> tuple[tuple[int, ...], ...]:
    """The letter tuple of each block of basis vector idx of a
    ShapeModule, the inverse of its basis_index."""
    out = []
    for bb in reversed(shape.block_bases):
        out.append(bb[idx % len(bb)])
        idx //= len(bb)
    return tuple(reversed(out))


def encode(ts, letters) -> int:
    """The basis index of a multi-index of tensor space."""
    idx = 0
    for a in letters:
        if not 0 <= a < ts.n:
            raise IndexError(f"letter {a} out of range for n={ts.n}")
        idx = idx * ts.n + a
    return idx


def word_key(comp, tup):
    """The xi key (sorted letter pairs) carrying the canonical generator
    of Gamma^comp onto the basis vector `tup`: block b pairs its letters
    with the b-th nonzero letter of comp."""
    letters = [a for a, part in enumerate(comp) if part]
    return tuple(sorted((t, letters[b])
                        for b, block in enumerate(tup) for t in block))


def weight_key(comp):
    """The xi key of the weight idempotent of comp."""
    return tuple((a, a) for a, mult in enumerate(comp) for _ in range(mult))


def flip_key(key):
    return tuple(sorted((b, a) for a, b in key))


def flip_ref(ref):
    """The ref of the flipped stack: a div moves the other way, and a
    stack of gens or words is named ("flip", ref)."""
    kind = ref[0]
    if kind == "div":
        _, a, b, r = ref
        return ("div", b, a, r)
    if kind == "flip":
        return ref[1]
    if kind in ("gens", "words"):
        return ("flip", ref)
    raise ValueError(f"unknown operator ref {ref!r}")


def block_transpose(stack, dim: int):
    """Each (dim x dim) block of a stack, side by side, transposed."""
    row, col, data = stack.coo()
    block, within = np.divmod(col, dim)
    return fp.CSR.from_coo(within, block * dim + row, data, stack.shape, stack.p)


def space_stack(ts, ref):
    """The stack of ref on tensor space, flipped refs included: on
    E^(x)D the flip of an operator is its transpose, so the flipped
    stack holds each block transposed."""
    if ref[0] == "flip":
        return block_transpose(ts.matrix(ref[1]), ts.dim)
    return ts.matrix(ref)


def module_stack(mod, ref):
    """The stack of ref on a module, flipped refs included: the dual's
    operator at ref is the transposed flipped operator, so the flipped
    stack holds each block of the dual's stack transposed."""
    if ref[0] == "flip":
        return block_transpose(DualModule(mod).stack_matrix(ref[1]), mod.dim)
    return mod.stack_matrix(ref)


def gamma_letters(comp, n: int) -> np.ndarray:
    """The basis of Gamma^comp in basis order, as a (T, |comp|) letter
    array: block a, the letters word t pairs with letter a, holds comp[a]
    places, sorted."""
    blocks = []
    for part in comp:
        basis = list(combinations_with_replacement(range(n), part))
        blocks.append(np.array(basis, dtype=np.int64).reshape(len(basis), part))
    digits = np.unravel_index(np.arange(np.prod([len(b) for b in blocks])),
                              [len(b) for b in blocks])
    return np.concatenate([b[d] for b, d in zip(blocks, digits)], axis=1)


def xi_matrix(ts, key) -> sparse.csr_matrix:
    """xi_key on tensor space: one entry per arrangement of its pairs."""
    rows, cols = [], []
    for arrangement in distinct_permutations(key):
        rows.append(encode(ts, tuple(a for a, _ in arrangement)))
        cols.append(encode(ts, tuple(b for _, b in arrangement)))
    mat = sparse.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)),
                            shape=(ts.dim, ts.dim))
    mat.data %= ts.p
    mat.eliminate_zeros()
    return mat


def key_word(key, n):
    """(c, k): xi_key is the word of basis vector k of Gamma^c, c the
    content of its column letters."""
    comp = tuple(sum(1 for _, b in key if b == a) for a in range(n))
    tup = tuple(tuple(sorted(a for a, b in key if b == letter))
                for letter in range(n) if comp[letter])
    k = 0
    for block in tup:
        basis = list(combinations_with_replacement(range(n), len(block)))
        k = k * len(basis) + basis.index(block)
    return comp, k


def stack_block(stack, k: int, dim: int):
    """The matrix of the k-th operator of a stack: the stack holds the
    images of basis vector j in row j, block k of them in columns
    k * dim .. (k + 1) * dim - 1, so block k is that operator's transpose."""
    return stack.take_cols(np.arange(k * dim, (k + 1) * dim)).T


def xi_block(mod, key):
    """The column action of xi_key on a module, or its matrix on a tensor
    space: block t of the stack of every word of Gamma^c."""
    comp, k = key_word(key, mod.n)
    ref = ("words", comp, "all")
    stack = mod.stack_matrix(ref) if hasattr(mod, "stack_matrix") else mod.matrix(ref)
    return stack_block(stack, k, mod.dim)


def dense(mat) -> np.ndarray:
    return mat.toarray() if hasattr(mat, "toarray") else np.asarray(mat)


def xi_by_splitting(mod, key) -> np.ndarray:
    """xi_key on `mod`, dense: on a tensor product the sum, over the
    distinct splittings of its orbit across the factors, of the Kronecker
    products of the factors' actions; on any other module its word."""
    if not isinstance(mod, TensorModule):
        return dense(xi_block(mod, key)) % mod.p
    seen, total = set(), np.zeros((mod.dim, mod.dim), dtype=np.int64)
    for picks in combinations(range(len(key)), mod.left.D):
        k1 = tuple(key[s] for s in picks)
        k2 = tuple(key[s] for s in range(len(key)) if s not in picks)
        if (k1, k2) not in seen:
            seen.add((k1, k2))
            total += np.kron(xi_by_splitting(mod.left, k1),
                             xi_by_splitting(mod.right, k2))
    return total % mod.p


def div_by_splitting(mod, a, b, r) -> np.ndarray:
    """("div", a, b, r) on `mod`, dense: on a tensor product the sum over
    r1 of E^(r1) (x) E^(r - r1) on the factors, one operator at a time."""
    if not isinstance(mod, TensorModule):
        return dense(stack_block(mod.stack_matrix(("div", a, b, r)), 0, mod.dim)) % mod.p

    def factor(m, s):
        return np.eye(m.dim, dtype=np.int64) if s == 0 else div_by_splitting(m, a, b, s)

    return sum(np.kron(factor(mod.left, r1), factor(mod.right, r - r1))
               for r1 in range(max(0, r - mod.right.D), min(r, mod.left.D) + 1)
               ) % mod.p
