"""Functor expressions and their evaluation to Schur-algebra modules.

The mini-language (whitespace insignificant, "*" left-associative):

    expr  := atom | expr "*" expr | "twist(" expr "," int ")"
           | "dual(" expr ")" | "param(" expr "," int ")"
    atom  := "G(" parts ")" | "S(" parts ")" | "L(" parts ")" | "I"
           | "simple(" parts ")" | "schur(" parts ")" | "weyl(" parts ")"
    parts := int { "," int }

G/S/L are divided, symmetric and exterior power products; I is the
identity functor.  Expressions built from G/S/L/I with twist/param form
the substitution fragment and evaluate to ShapeModule subquotients of
tensor space; duals, simples and mixed tensor products evaluate to
derived module representations.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from math import factorial, isqrt, prod

import numpy as np

from . import fp, young
from .errors import (ParseError, SemanticError, SpfextError,
                     UnsupportedExpressionError)
from .modules import (Block, DualModule, ModuleRep, ShapeModule, SubmoduleModule,
                      TensorModule, canonical_blocks, check_equivariance,
                      hom_space)  # unused here; benchmarks/layers.py wraps this name
from .tensorspace import comp_of_partition, is_dominant

MAX_PARAM = 2

_ATOM_KINDS = ("G", "S", "L", "simple", "schur", "weyl")


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Ident(Node):
    pass


@dataclass(frozen=True)
class Atom(Node):
    kind: str
    parts: tuple[int, ...]


@dataclass(frozen=True)
class Tensor(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Twist(Node):
    inner: Node
    order: int


@dataclass(frozen=True)
class Dual(Node):
    inner: Node


@dataclass(frozen=True)
class Param(Node):
    inner: Node
    mult: int


_TOKEN = re.compile(r"\s*([A-Za-z]+|\d+|[(),*])")


def _tokenize(text: str) -> list[str]:
    text = text.strip()
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse_int(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected integer, found {tok!r}")
        return int(tok)

    def parse_parts(self) -> tuple[int, ...]:
        parts = [self.parse_int()]
        while self.peek() == ",":
            self.take(",")
            parts.append(self.parse_int())
        return tuple(parts)

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek() == "*":
            self.take("*")
            node = Tensor(node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        tok = self.take()
        if tok == "I":
            return Ident()
        if tok == "twist":
            self.take("(")
            inner = self.parse_expr()
            self.take(",")
            order = self.parse_int()
            self.take(")")
            if order < 1:
                raise ParseError("twist order must be positive")
            return Twist(inner, order)
        if tok == "dual":
            self.take("(")
            inner = self.parse_expr()
            self.take(")")
            return Dual(inner)
        if tok == "param":
            self.take("(")
            inner = self.parse_expr()
            self.take(",")
            mult = self.parse_int()
            self.take(")")
            if mult < 1:
                raise ParseError("param multiplicity must be positive")
            return Param(inner, mult)
        if tok in _ATOM_KINDS:
            self.take("(")
            parts = self.parse_parts()
            self.take(")")
            if any(x < 1 for x in parts):
                raise ParseError(f"{tok} parts must be positive: {parts}")
            if tok in ("simple", "schur", "weyl"):
                try:
                    parts = young.check_partition(parts)
                except ValueError as exc:
                    raise ParseError(str(exc)) from exc
            return Atom(tok, parts)
        raise ParseError(f"unexpected token {tok!r}")


def parse(text: str) -> Node:
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input {parser.toks[parser.pos:]!r}")
    return node


def canon(node: Node) -> str:
    if isinstance(node, Ident):
        return "I"
    if isinstance(node, Atom):
        return f"{node.kind}({','.join(str(x) for x in node.parts)})"
    if isinstance(node, Tensor):
        return f"{canon(node.left)}*{canon(node.right)}"
    if isinstance(node, Twist):
        return f"twist({canon(node.inner)},{node.order})"
    if isinstance(node, Dual):
        return f"dual({canon(node.inner)})"
    if isinstance(node, Param):
        return f"param({canon(node.inner)},{node.mult})"
    raise TypeError(f"not a functor node: {node!r}")


def as_node(expr) -> Node:
    if isinstance(expr, Node):
        return expr
    return parse(str(expr))


def degree(node: Node, p: int) -> int:
    """The homogeneous degree; it also refuses what the parser would not build."""
    if isinstance(node, Twist) and node.order < 1:
        raise SemanticError("twist order must be positive")
    if isinstance(node, Param) and node.mult < 1:
        raise SemanticError("param multiplicity must be positive")
    if isinstance(node, Ident):
        return 1
    if isinstance(node, Atom):
        return sum(node.parts)
    if isinstance(node, Tensor):
        return degree(node.left, p) + degree(node.right, p)
    if isinstance(node, Twist):
        return p ** node.order * degree(node.inner, p)
    if isinstance(node, (Dual, Param)):
        return degree(node.inner, p)
    raise TypeError(f"not a functor node: {node!r}")


def to_shape(node: Node, p: int) -> tuple[tuple[Block, ...], int] | None:
    """Blocks and parameter multiplicity when the expression lies in the
    substitution fragment, else None."""
    if isinstance(node, Ident):
        return (("G", 1, 0),), 1
    if isinstance(node, Atom) and node.kind in ("G", "S", "L"):
        return tuple((node.kind, s, 0) for s in node.parts), 1
    if isinstance(node, Twist):
        inner = to_shape(node.inner, p)
        if inner is None:
            return None
        blocks, m = inner
        return tuple((k, s, t + node.order) for k, s, t in blocks), m
    if isinstance(node, Param):
        inner = to_shape(node.inner, p)
        if inner is None:
            return None
        blocks, m = inner
        return blocks, m * node.mult
    if isinstance(node, Tensor):
        left = to_shape(node.left, p)
        right = to_shape(node.right, p)
        if left is None or right is None:
            return None
        if left[1] != right[1]:
            return None
        return left[0] + right[0], left[1]
    return None


def is_integer(x) -> bool:
    """A Python int but no bool: numpy's integers would not serialize."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_field(p: int, i: int = 1) -> None:
    """Refuse a characteristic that is not prime or not below
    fp.PRIME_BOUND, a twist order below 1, and any p or i that is not an
    integer.  The bound is tested first, so no trial division runs long."""
    if is_integer(p) and p >= fp.PRIME_BOUND:
        raise SemanticError(f"p = {p} is not below {fp.PRIME_BOUND}, the "
                            f"bound of exact arithmetic over F_p")
    if not is_integer(p) or p < 2 or any(p % f == 0 for f in range(2, isqrt(p) + 1)):
        raise SemanticError(f"p = {p} is not prime")
    if not is_integer(i) or i < 1:
        raise SemanticError("i must be a positive integer")


_shape_cache: dict[tuple, ShapeModule] = {}
_eval_cache: dict[tuple, ModuleRep] = {}


def shape_module(p: int, n: int, blocks: tuple[Block, ...], m: int = 1) -> ShapeModule:
    key = (p, n, canonical_blocks(blocks), m)
    hit = _shape_cache.get(key)
    if hit is not None:
        return hit
    return _shape_cache.setdefault(key, ShapeModule(p, n, blocks, m))


def evaluate(expr, p: int, n: int | None = None) -> ModuleRep:
    """The module over S(n, D) realizing the expression.

    By default n = D = degree (the minimal faithful evaluation); tensor
    factors are evaluated over the n of the whole product.
    """
    check_field(p)
    node = as_node(expr)
    deg = degree(node, p)
    if n is None:
        n = deg
    if n < deg:
        raise SemanticError(f"evaluation dimension {n} below degree {deg}")
    key = (canon(node), p, n)
    hit = _eval_cache.get(key)
    if hit is not None:
        return hit
    shape = to_shape(node, p)
    if shape is not None:
        blocks, m = shape
        if m > MAX_PARAM:
            raise SemanticError(f"parameter multiplicity {m} above cap {MAX_PARAM}")
        mod: ModuleRep = shape_module(p, n, blocks, m)
    elif isinstance(node, Dual):
        mod = DualModule(evaluate(node.inner, p, n=n))
    elif isinstance(node, Tensor):
        mod = TensorModule(evaluate(node.left, p, n=n), evaluate(node.right, p, n=n))
    elif isinstance(node, Atom) and node.kind in ("simple", "schur", "weyl"):
        mod = _build_schur_weyl_simple(node.parts, node.kind, p, n)
    else:
        raise UnsupportedExpressionError(
            f"{canon(node)} is outside the substitution fragment")
    return _eval_cache.setdefault(key, mod)


def kuhn_dual(module: ModuleRep) -> ModuleRep:
    return DualModule(module)


def character(module: ModuleRep) -> dict[tuple[int, ...], int]:
    return module.character()


def frobenius_substitute(expr, r: int, p: int) -> ModuleRep:
    return evaluate(Twist(as_node(expr), r), p)


# canonical natural maps ----------------------------------------------------


def orbit_size(comp: tuple[int, ...]) -> int:
    """The number of distinct rearrangements of a weight: n! / prod mult!."""
    return factorial(len(comp)) // prod(factorial(k) for k in Counter(comp).values())


@dataclass(frozen=True)
class NaturalMap:
    """An equivariant map between two shape modules, proved so when built.

    matrix is the (target.dim, source.dim) fp.CSR of the column action."""

    source: ShapeModule
    target: ShapeModule
    matrix: fp.CSR

    @property
    def rank(self) -> int:
        """The sum of the weight-block ranks, read at dominant weights only.

        An equivariant map preserves weights, so it is the direct sum of
        its weight blocks, and the permutation matrices of GL_n commute
        with it, carrying the block at c onto the block at any
        rearrangement of c: each dominant block counts once per weight in
        its orbit (Green, LNM 830; Donkin, J. Algebra 104, 1986)."""
        cols, rows = self.source.content_groups(), self.target.content_groups()
        total = 0
        for comp, src_idx in cols.items():
            if comp in rows and is_dominant(comp):
                block = self.matrix[rows[comp]].take_cols(src_idx).toarray()
                total += orbit_size(comp) * fp.rank(block, self.source.p)
        return total


def _compose_lift_project(src: ShapeModule, tgt: ShapeModule) -> fp.CSR:
    return tgt.project_matrix() @ src.lift_matrix()


def _blocks(*sized: tuple[str, int]) -> tuple[Block, ...]:
    return tuple((kind, size, 0) for kind, size in sized if size > 0)


def canonical_map(kind: str, p: int, *, a: int = 0, b: int = 0,
                  lam: tuple[int, ...] = (), m: int = 1,
                  n: int | None = None) -> NaturalMap:
    """Explicit equivariant matrices for the structural maps.

    kinds: gamma_comult (G^{a+b} -> G^a * G^b), sym_mult (S^a * S^b ->
    S^{a+b}), ext_mult (L^a * L^b -> L^{a+b}), koszul_diff (G^a * L^b ->
    G^{a-1} * L^{b+1}), dual_koszul_diff (L^a * S^b -> L^{a-1} * S^{b+1}),
    tableau_composite (L^{conjugate(lam)} -> S^{lam} through the
    column-to-row slot permutation).
    """
    check_field(p)
    for name, value, least in (("a", a, 0), ("b", b, 0), ("m", m, 1)):
        if value < least:
            raise SemanticError(f"canonical_map needs {name} >= {least}, got {value}")
    if kind == "tableau_composite":
        D, what = sum(young.check_partition(lam)), "|lam|"
    else:
        D, what = a + b, "a + b"
    if D < 1:
        raise SemanticError(f"canonical_map needs {what} >= 1, got {D}")
    if n is None:
        n = D
    elif n < D:
        raise SemanticError(f"canonical_map needs n >= {what} = {D}, got {n}")
    if kind == "tableau_composite":
        return _tableau_composite(tuple(lam), p, n=n)
    if kind == "gamma_comult":
        src = shape_module(p, n, _blocks(("G", a + b)), m)
        tgt = shape_module(p, n, _blocks(("G", a), ("G", b)), m)
        mat = _compose_lift_project(src, tgt)
    elif kind == "sym_mult":
        src = shape_module(p, n, _blocks(("S", a), ("S", b)), m)
        tgt = shape_module(p, n, _blocks(("S", a + b)), m)
        mat = _compose_lift_project(src, tgt)
    elif kind == "ext_mult":
        src = shape_module(p, n, _blocks(("L", a), ("L", b)), m)
        tgt = shape_module(p, n, _blocks(("L", a + b)), m)
        mat = _compose_lift_project(src, tgt)
    elif kind == "koszul_diff":
        if a < 1:
            raise SemanticError("koszul_diff needs a divided-power slot to move")
        src = shape_module(p, n, _blocks(("G", a), ("L", b)), m)
        tgt = shape_module(p, n, _blocks(("G", a - 1), ("L", b + 1)), m)
        mat = _compose_lift_project(src, tgt)
    elif kind == "dual_koszul_diff":
        if a < 1:
            raise SemanticError("dual_koszul_diff needs an exterior slot to move")
        src = shape_module(p, n, _blocks(("L", a), ("S", b)), m)
        tgt = shape_module(p, n, _blocks(("L", a - 1), ("S", b + 1)), m)
        # the transpose of koszul_diff(b+1, a-1): G^{b+1} * L^{a-1} ->
        # G^b * L^a, with the two factors swapped on both sides (G and S
        # share a basis, and L is its own dual with no sign)
        kos_row, kos_col, kos_data = _compose_lift_project(
            shape_module(p, n, _blocks(("G", b + 1), ("L", a - 1)), m),
            shape_module(p, n, _blocks(("G", b), ("L", a)), m)).coo()
        s_src = src.dim // len(src.block_bases[0])  # S^b, 1 when b = 0
        s_tgt = len(tgt.block_bases[-1])  # S^{b+1}
        sym_col, ext_col = np.divmod(kos_row, src.dim // s_src)
        sym_row, ext_row = np.divmod(kos_col, tgt.dim // s_tgt)
        mat = fp.CSR.from_coo(ext_row * s_tgt + sym_row, ext_col * s_src + sym_col,
                              kos_data, (tgt.dim, src.dim), p)
    else:
        raise ValueError(f"unknown canonical map kind {kind!r}")
    check_equivariance(mat, src, tgt)
    return NaturalMap(src, tgt, mat)


def _tableau_composite(lam: tuple[int, ...], p: int,
                       n: int | None = None) -> NaturalMap:
    """Antisymmetrize each column of lam, then multiply along its rows.

    The transposed projection of L^{conjugate(lam)} sends a basis vector
    to the signed sum of every arrangement of each column's letters, and
    the projection of S^lam sends every arrangement to its sorted rows
    with coefficient 1.  Between them, the place permutation moves cell
    (r, c) from its slot read down columns to its slot read along rows.
    """
    lam = young.check_partition(lam)
    if n is None:
        n = sum(lam)
    conj = young.conjugate(lam)
    src = shape_module(p, n, _blocks(*(("L", c) for c in conj)))
    tgt = shape_module(p, n, _blocks(*(("S", r) for r in lam)))
    row_start = np.cumsum((0,) + lam[:-1])
    sigma = tuple(int(row_start[r]) + c
                  for c, height in enumerate(conj) for r in range(height))
    mat = (tgt.project_matrix() @ src.space.place_permutation(sigma)
           @ src.bridge()[1])
    check_equivariance(mat, src, tgt)
    return NaturalMap(src, tgt, mat)


# Schur, Weyl and simple functors -------------------------------------------


def schur_weyl_simple(lam: tuple[int, ...], which: str, p: int,
                      n: int | None = None) -> ModuleRep:
    """The module evaluate gives for schur(lam), weyl(lam) or simple(lam)."""
    if which not in ("schur", "weyl", "simple"):
        raise ValueError(f"unknown constructor {which!r}")
    return evaluate(Atom(which, young.check_partition(tuple(lam))), p, n=n)


def _build_schur_weyl_simple(lam: tuple[int, ...], which: str, p: int,
                             n: int) -> ModuleRep:
    """schur = image of the tableau composite; weyl = its Kuhn dual;
    simple = the submodule of schur generated by its weight-lam line.

    weyl(lam) is generated by its highest weight vector and schur(lam)_lam
    is a line, so the image of the one map weyl -> schur is the submodule
    that line generates: the Yoneda map Gamma^lam -> schur applied to it
    (Green, LNM 830; Akin-Buchsbaum-Weyman, Adv. Math. 1982)."""
    if which == "schur":
        nat = _tableau_composite(lam, p, n=n)
        return SubmoduleModule(nat.target, nat.matrix.T.toarray())
    schur = evaluate(Atom("schur", lam), p, n=n)
    if which == "weyl":
        return DualModule(schur)
    comp = comp_of_partition(lam, n)
    top = schur.weight_indices(comp)
    if top.size != 1:
        raise SpfextError(
            f"schur{lam} at p={p} has a weight-{lam} space of dimension "
            f"{top.size}, expected 1")
    images = schur.stack_matrix(("words", comp, "all"))[top].toarray()
    return SubmoduleModule(schur, images.reshape(-1, schur.dim))
