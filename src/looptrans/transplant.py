"""Exact decision of transplantability and intertwiner construction.

Two graphs with adjacency matrices (A^c) and (B^c) are transplantable iff an
invertible matrix T with B^c T = T A^c for every colour exists.  Two exact
routes are implemented:

* the orbit route propagates the constraint B^c T = T A^c over the entries of
  T: positions of T fall into signed orbits, each surviving orbit contributes
  one basis matrix with entries 0, +-1.  Whether the span contains an
  invertible element is settled exactly by a multiplicity argument: writing
  m, n for the multiplicity vectors of the two adjacency representations over
  the group they generate jointly, the orbit counts give dim Hom(1,2) = m.n,
  dim Hom(1,1) = |m|^2, dim Hom(2,2) = |n|^2, and |m - n|^2 = 0 holds exactly
  when all three are equal.

* the group route closes the generator pairs (A^c, B^c) and checks that the
  pairing is a bijection with equal traces throughout, which is the
  word-trace criterion in its group form.

Both routes are exact; they agree on every input (a tested invariant).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Literal, Sequence

from .algebra import (
    DEFAULT_CLOSURE_CAP,
    Code,
    RatMatrix,
    SignedPerm,
    bfs_closure,
    int_det,
)
from .graph import LoopSignedGraph, validate

_WITNESS_RETRIES = 32


@dataclass(frozen=True)
class Certificate:
    """Evidence for a negative verdict.

    Either a single colour word whose traces differ on the two graphs, or a
    pair of words whose products agree on one graph but not on the other.
    """

    kind: Literal["trace", "inconsistent"]
    word: tuple[int, ...]
    other_word: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Decision:
    verdict: bool
    method: Literal["group", "orbit"]
    witness: RatMatrix | None = None
    certificate: Certificate | None = None


@dataclass(frozen=True)
class PairClosure:
    """Closure of the generator pairs under multiplication, with word witnesses."""

    elements: tuple[tuple[SignedPerm, SignedPerm], ...]
    words: tuple[tuple[int, ...], ...]
    consistent: bool
    certificate: Certificate | None = None


def _check_compatible(g1: LoopSignedGraph, g2: LoopSignedGraph) -> None:
    for g in (g1, g2):
        err = validate(g)
        if err:
            raise ValueError(err)
    if g1.colors != g2.colors:
        raise ValueError(f"colour counts differ: {g1.colors} vs {g2.colors}")


def _pair_stream(
    g1: LoopSignedGraph, g2: LoopSignedGraph, cap: int
) -> Iterator[tuple[Code, Code, tuple[int, ...], tuple[int, ...] | None]]:
    """The pair closure as ``(A-half, B-half, word, clash)`` in BFS order.

    The pair closure is the closure of the diagonal generators A^c + B^c
    acting on 2n points, with B on points n+1 .. 2n.  ``clash`` is None while
    the pairing is a bijection; otherwise it is the word of an earlier
    element sharing one half with this one, and the stream ends there.
    """
    n = g1.vertices
    gens = [
        a.encode() + tuple(x + n if x > 0 else x - n for x in b.encode())
        for a, b in zip(g1.adjacency, g2.adjacency)
    ]
    left: dict[Code, tuple[int, ...]] = {}
    right: dict[Code, tuple[int, ...]] = {}
    for elem, word in bfs_closure(gens, cap):
        a, b = elem[:n], elem[n:]
        clash = left.get(a, right.get(b))
        yield a, b, word, clash
        if clash is not None:
            return
        left[a] = right[b] = word


def pair_closure(
    g1: LoopSignedGraph,
    g2: LoopSignedGraph,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> PairClosure:
    """Closure of {(A^c, B^c)} under left multiplication.

    Returns an inconsistent closure as soon as two words give equal first
    components but different second components (or vice versa).
    """
    _check_compatible(g1, g2)
    if g1.vertices != g2.vertices:
        raise ValueError("pair closure needs equal vertex counts")
    n = g1.vertices
    elements = []
    words = []
    for a, b, word, clash in _pair_stream(g1, g2, cap):
        if clash is not None:
            cert = Certificate("inconsistent", clash, word)
            return PairClosure(tuple(elements), tuple(words), False, cert)
        b = tuple(x - n if x > 0 else x + n for x in b)
        elements.append((SignedPerm.decode(a), SignedPerm.decode(b)))
        words.append(word)
    return PairClosure(tuple(elements), tuple(words), True)


def _signed_fixed_points(half: Code, first: int) -> int:
    """Trace of one half of an encoded direct sum starting at point ``first``."""
    return sum(1 if x > 0 else -1 for i, x in enumerate(half, first) if abs(x) == i)


def _group_verdict(
    g1: LoopSignedGraph, g2: LoopSignedGraph, cap: int
) -> Certificate | None:
    """None when the pair closure is consistent with equal traces throughout
    (the pair is transplantable), else a certificate for the first violation.
    """
    n = g1.vertices
    for a, b, word, clash in _pair_stream(g1, g2, cap):
        if clash is not None:
            # The two words give the same element on one side only, so the
            # first followed by the second reversed is the identity on that
            # side (generators are involutions) but not on the other: its
            # traces differ.
            return Certificate("trace", clash + tuple(reversed(word)))
        if _signed_fixed_points(a, 1) != _signed_fixed_points(b, n + 1):
            return Certificate("trace", word)
    return None


class _SignedUnionFind:
    """Union-find over positions carrying a relative sign; orbits mixing both
    signs of one position are marked dead."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.sign = [1] * n
        self.dead = [False] * n
        self.size = [1] * n

    def union(self, x: int, y: int, rel: int) -> None:
        rx, sx = self._find(x)
        ry, sy = self._find(y)
        if rx == ry:
            if sx * sy != rel:
                self.dead[rx] = True
            return
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
            sx, sy = sy, sx
        # attach ry under rx; sign(ry -> rx) chosen so that x and y differ by rel
        self.parent[ry] = rx
        self.sign[ry] = sx * sy * rel
        self.size[rx] += self.size[ry]
        if self.dead[ry]:
            self.dead[rx] = True

    def _find(self, x: int) -> tuple[int, int]:
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        s = 1
        for node in reversed(path):
            s *= self.sign[node]
            self.parent[node] = x
            self.sign[node] = s
        return x, 1 if not path else self.sign[path[0]]

    def components(self) -> tuple[int, list[tuple[int, int]]]:
        """Number of live orbits and per-position (root, sign to root)."""
        info = []
        live_roots = set()
        for x in range(len(self.parent)):
            r, s = self._find(x)
            info.append((r, s))
            if not self.dead[r]:
                live_roots.add(r)
        return len(live_roots), info


def _orbit_structure(g1: LoopSignedGraph, g2: LoopSignedGraph) -> _SignedUnionFind:
    """Signed orbits of the generator pairs acting on the entries of T.

    Position (i, j) indexes T_{ij} with i a vertex of g2 and j of g1; the
    colour-c constraint links (i, j) to (i', j') where i' and j' are the
    c-neighbours, with relative sign equal to the product of the two incidence
    signs.  A Dirichlet/Neumann clash at a loop pins the entry to zero.
    """
    n = g1.vertices
    uf = _SignedUnionFind(n * n)
    for c in range(1, g1.colors + 1):
        p1 = g1.color(c)
        p2 = g2.color(c)
        for i in range(n):
            ti, si = p2.targets[i], p2.signs[i]
            for j in range(n):
                tj, sj = p1.targets[j], p1.signs[j]
                uf.union(i * n + j, (ti - 1) * n + (tj - 1), si * sj)
    return uf


def intertwiner_space(g1: LoopSignedGraph, g2: LoopSignedGraph) -> list[RatMatrix]:
    """Basis of {T : B^c T = T A^c for all c}, one 0/+-1 matrix per orbit.

    Each basis matrix is normalized so that its first non-zero entry in
    row-major order is +1.  The empty list is valid output.
    """
    _check_compatible(g1, g2)
    if g1.vertices != g2.vertices:
        return []
    n = g1.vertices
    uf = _orbit_structure(g1, g2)
    _, info = uf.components()
    by_root: dict[int, list[tuple[int, int]]] = {}
    for pos, (root, sign) in enumerate(info):
        if not uf.dead[root]:
            by_root.setdefault(root, []).append((pos, sign))
    basis = []
    for root in sorted(by_root):
        members = by_root[root]
        lead_sign = min(members)[1]
        rows = [[0] * n for _ in range(n)]
        for pos, sign in members:
            rows[pos // n][pos % n] = sign * lead_sign
        basis.append(RatMatrix.from_rows(rows))
    return basis


def _orbit_dimension(g1: LoopSignedGraph, g2: LoopSignedGraph) -> int:
    live, _ = _orbit_structure(g1, g2).components()
    return live


def _equivalent_representations(g1: LoopSignedGraph, g2: LoopSignedGraph) -> bool:
    """Exact transplantability test via the three intertwiner dimensions."""
    if g1.vertices != g2.vertices:
        return False
    d12 = _orbit_dimension(g1, g2)
    d11 = _orbit_dimension(g1, g1)
    d22 = _orbit_dimension(g2, g2)
    return d12 == d11 == d22


def _invertible_combination(
    basis: Sequence[RatMatrix], n: int, seed: int | None
) -> RatMatrix | None:
    """An invertible integer combination of disjoint-support basis matrices."""
    if not basis:
        return None
    supports = [
        [(i, j) for i in range(n) for j in range(n) if b[i, j] != 0] for b in basis
    ]

    def assemble(coeffs: Sequence[int]) -> list[list[int]]:
        rows = [[0] * n for _ in range(n)]
        for b, sup, k in zip(basis, supports, coeffs):
            if k == 0:
                continue
            for i, j in sup:
                rows[i][j] = k * int(b[i, j])
        return rows

    def try_coeffs(coeffs: Sequence[int]) -> RatMatrix | None:
        rows = assemble(coeffs)
        if int_det(rows) != 0:
            return RatMatrix.from_rows(rows)
        return None

    found = try_coeffs([1] * len(basis))
    if found is not None:
        return found
    rng = random.Random(seed if seed is not None else 0)
    for bound in (3, 1 << 30):
        for _ in range(_WITNESS_RETRIES):
            coeffs = [rng.randint(-bound, bound) for _ in basis]
            found = try_coeffs(coeffs)
            if found is not None:
                return found
    if len(basis) <= 8:
        for coeffs in product((-1, 0, 1), repeat=len(basis)):
            found = try_coeffs(coeffs)
            if found is not None:
                return found
    return None


def verify_witness(g1: LoopSignedGraph, g2: LoopSignedGraph, t: RatMatrix) -> bool:
    """Exact check: T invertible and B^c T = T A^c for every colour."""
    _check_compatible(g1, g2)
    if g1.vertices != g2.vertices:
        return False
    n = g1.vertices
    if t.rows != n or t.cols != n:
        raise ValueError(f"witness must be {n}x{n}, got {t.rows}x{t.cols}")
    for c in range(1, g1.colors + 1):
        p1 = g1.color(c)
        p2 = g2.color(c)
        for i in range(n):
            ti, si = p2.targets[i], p2.signs[i]
            for j in range(n):
                tj, sj = p1.targets[j], p1.signs[j]
                # (B^c T)_{ij} = si * T[ti, j];  (T A^c)_{ij} = T[i, tj] * sj
                if si * t[ti - 1, j] != sj * t[i, tj - 1]:
                    return False
    return t.is_invertible()


def decide(
    g1: LoopSignedGraph,
    g2: LoopSignedGraph,
    method: Literal["auto", "group", "orbit"] = "auto",
    seed: int | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> Decision:
    """Decide transplantability exactly.

    ``orbit`` (and ``auto``) settles the verdict with the orbit-dimension
    test and emits a witness from the orbit basis; ``group`` closes the
    generator pairs and checks consistency plus equal traces element-wise.
    Negative verdicts carry a word certificate either way.
    """
    _check_compatible(g1, g2)
    if method not in ("auto", "group", "orbit"):
        raise ValueError(f"unknown method {method!r}")
    route: Literal["group", "orbit"] = "group" if method == "group" else "orbit"
    if g1.vertices != g2.vertices:
        return Decision(False, route, certificate=Certificate("trace", ()))
    if route == "group" or not _equivalent_representations(g1, g2):
        cert = _group_verdict(g1, g2, cap)
        if cert is not None:
            return Decision(False, route, certificate=cert)
        if route == "orbit":
            raise RuntimeError("the group route found no certificate for a negative verdict")
    if g1 == g2:
        return Decision(True, route, witness=RatMatrix.identity(g1.vertices))
    witness = _invertible_combination(intertwiner_space(g1, g2), g1.vertices, seed)
    if witness is None:
        raise RuntimeError("no invertible intertwiner found for a transplantable pair")
    return Decision(True, route, witness=witness)


def transplantable(g1: LoopSignedGraph, g2: LoopSignedGraph) -> bool:
    """Verdict only; no witness or certificate construction."""
    _check_compatible(g1, g2)
    return _equivalent_representations(g1, g2)


def pairwise_check(graphs: Sequence[LoopSignedGraph]) -> list[list[bool]]:
    """Symmetric matrix of transplantability verdicts; diagonal is true."""
    k = len(graphs)
    out = [[False] * k for _ in range(k)]
    for i in range(k):
        out[i][i] = True
        for j in range(i + 1, k):
            if graphs[i].vertices != graphs[j].vertices:
                continue
            v = transplantable(graphs[i], graphs[j])
            out[i][j] = out[j][i] = v
    return out
