"""Exact decision of transplantability and intertwiner construction.

Two graphs with adjacency matrices (A^c) and (B^c) are transplantable iff an
invertible matrix T with B^c T = T A^c for every colour exists.  Two exact
routes are implemented:

* the orbit route propagates the constraint B^c T = T A^c over the entries of
  T: ``algebra.signed_orbits`` labels every entry with the least entry of its
  signed orbit and a sign relative to it, and each orbit without a sign clash
  contributes one basis matrix with entries 0, +-1 (``_combination`` builds
  the basis and the witnesses from coefficients on the orbits).  Whether the
  span contains an invertible element is settled exactly by a multiplicity
  argument: writing m, n for the multiplicity vectors of the two adjacency
  representations over the group they generate jointly, the orbit counts give
  dim Hom(1,2) = m.n, dim Hom(1,1) = |m|^2, dim Hom(2,2) = |n|^2, and
  |m - n|^2 = 0 holds exactly when all three are equal.

* the group route closes the generator pairs (A^c, B^c) and checks that the
  pairing is a bijection with equal traces throughout, which is the
  word-trace criterion in its group form.  ``_group_verdict`` is the one
  walk of this pair closure; ``algebra.bfs_closure`` bounds it by element
  count and by memory.

``decide(method=...)`` names the route, ``"orbit"`` (the default) or
``"group"``.  Both routes are exact; they agree on every input (a tested
invariant).  A
negative verdict is certified by one colour word whose traces differ.  The
orbit route takes a shortest such word from the trie of bracelet
representatives (``invariants._bracelet_level``), walked level by level on
the pair's doubled code; only when a fixed node budget runs out does it take
the first violation of the pair closure, the group route's certificate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import eq
from typing import Callable, Literal, Sequence

from .algebra import (
    DEFAULT_CLOSURE_CAP,
    Code,
    RatMatrix,
    bfs_closure,
    int_det,
    left_steps,
    signed_orbits,
)
from .graph import LoopSignedGraph, validate
from .invariants import _bracelet_level

_WITNESS_RETRIES = 32
# trie nodes and word length a negative's certificate walk reaches before it
# falls back to the pair closure: at three colours the nodes run out first,
# past every word of length 13; two colours have one or two words a length
_CERTIFICATE_NODES = 4096
_CERTIFICATE_MAX_LEN = 24

# (root, sign, live) of every entry of T, as ``_orbit_labels`` returns them
_Labels = tuple[list[int], list[int], list[int]]


@dataclass(frozen=True)
class Certificate:
    """Evidence for a negative verdict: a colour word whose traces differ on
    the two graphs."""

    kind: Literal["trace"]
    word: tuple[int, ...]


@dataclass(frozen=True)
class Decision:
    verdict: bool
    method: Literal["group", "orbit"]
    witness: RatMatrix | None = None
    certificate: Certificate | None = None


def _check_compatible(g1: LoopSignedGraph, g2: LoopSignedGraph) -> None:
    for g in (g1, g2):
        err = validate(g)
        if err:
            raise ValueError(err)
    if g1.colors != g2.colors:
        raise ValueError(f"colour counts differ: {g1.colors} vs {g2.colors}")


def _pair_generators(g1: LoopSignedGraph, g2: LoopSignedGraph) -> list[Code]:
    """The diagonal generators A^c + B^c on 2n points, B on points n+1 .. 2n."""
    n = g1.vertices
    return [
        a.encode() + tuple(x + n if x > 0 else x - n for x in b.encode())
        for a, b in zip(g1.adjacency, g2.adjacency)
    ]


def _trace_test(n: int) -> Callable[[Code], bool]:
    """Whether the two halves of a pair code on 2n points have different traces.

    Against the identity signed + on the first half and - on the second, an
    entry matches where it is a fixed point of sign +1 on A or -1 on B; the
    opposite tuple counts the others, so the two counts differ exactly when
    tr A - tr B is nonzero.  Longer codes, such as the doubled form of
    :func:`~looptrans.algebra.left_steps`, are read on their first 2n entries.
    """
    plus = tuple(range(1, n + 1)) + tuple(range(-n - 1, -2 * n - 1, -1))
    minus = tuple(-x for x in plus)
    return lambda x: sum(map(eq, x, plus)) != sum(map(eq, x, minus))


def _group_verdict(
    g1: LoopSignedGraph, g2: LoopSignedGraph, cap: int
) -> Certificate | None:
    """None when the pair closure is consistent with equal traces throughout
    (the pair is transplantable), else a certificate for the first violation.

    The pair closure is the closure of the diagonal generators A^c + B^c
    acting on 2n points, with B on points n+1 .. 2n, walked in BFS order.  It
    is consistent while the pairing of its halves is a bijection.
    """
    n = g1.vertices
    differ = _trace_test(n)
    left: dict[Code, tuple[int, ...]] = {}
    right: dict[Code, tuple[int, ...]] = {}
    for elem, word in bfs_closure(_pair_generators(g1, g2), cap):
        a, b = elem[:n], elem[n:]
        clash = left.get(a, right.get(b))
        if clash is not None:
            # The two words give the same element on one side only, so the
            # first followed by the second reversed is the identity on that
            # side (generators are involutions) but not on the other: its
            # traces differ.
            return Certificate("trace", clash + tuple(reversed(word)))
        if differ(elem):
            return Certificate("trace", word)
        left[a] = right[b] = word
    return None


def _shortest_trace_word(g1: LoopSignedGraph, g2: LoopSignedGraph) -> tuple[int, ...] | None:
    """A shortest colour word whose traces differ on the two graphs, or None
    when none turns up within ``_CERTIFICATE_NODES`` trie nodes and
    ``_CERTIFICATE_MAX_LEN`` letters.

    Every word has the trace of a bracelet representative no longer than it,
    so the walk visits the representatives' trie level by level, words
    lexicographic within a level (:func:`~looptrans.invariants._bracelet_level`),
    and the first representative with differing traces is a shortest word
    that separates the graphs.  Each node is one gather on the doubled pair
    code (:func:`~looptrans.algebra.left_steps`) that applies its last
    colour to both halves of its parent's product at once.
    """
    steps, ident = left_steps(_pair_generators(g1, g2))
    differ = _trace_test(g1.vertices)
    values = [ident]
    budget = _CERTIFICATE_NODES
    for length in range(1, _CERTIFICATE_MAX_LEN + 1):
        below = []
        for word, parent, _, rep in _bracelet_level(g1.colors, length):
            if not budget:
                return None
            budget -= 1
            x = steps[word[-1]](values[parent])
            if rep and differ(x):
                return tuple(c + 1 for c in word)
            below.append(x)
        values = below
    return None


def _orbit_labels(g1: LoopSignedGraph, g2: LoopSignedGraph) -> _Labels:
    """Signed orbits of the generator pairs acting on the entries of T.

    Position p = i*n + j indexes T_{ij} with i a vertex of g2 and j of g1; the
    colour-c constraint links (i, j) to (i', j') where i' and j' are the
    c-neighbours, with relative sign equal to the product of the two incidence
    signs.  :func:`~looptrans.algebra.signed_orbits` labels each position
    with ``root``, the least position of its orbit, and ``sign``, its sign
    relative to the root.  An orbit that reaches a position with both signs (a
    Dirichlet/Neumann clash at a loop, say) pins its entries to zero; the
    others are ``live``, returned as their roots in increasing order.
    """
    n = g1.vertices
    maps = []
    for a, b in zip(g1.adjacency, g2.adjacency):
        t1 = [t - 1 for t in a.targets]
        rows = [(t - 1) * n for t in b.targets]
        maps.append((
            [r + t for r in rows for t in t1],
            [x * y for x in b.signs for y in a.signs],
        ))
    return signed_orbits(maps, n * n)


def _combination(labels: _Labels, n: int, coeffs: Sequence[int]) -> list[list[int]]:
    """Rows of the n x n matrix with coefficient k on the k-th live orbit.

    ``labels`` is an ``_orbit_labels`` result; the orbits have disjoint
    supports, so each entry is its orbit's coefficient times its sign.
    """
    root, sign, live = labels
    weight = dict(zip(live, coeffs))
    flat = [weight.get(r, 0) * s for r, s in zip(root, sign)]
    return [flat[i : i + n] for i in range(0, n * n, n)]


def intertwiner_space(g1: LoopSignedGraph, g2: LoopSignedGraph) -> list[RatMatrix]:
    """Basis of {T : B^c T = T A^c for all c}, one 0/+-1 matrix per orbit.

    Each basis matrix is +1 at its first non-zero entry in row-major order,
    and the basis is ordered by that entry.  The empty list is valid output.
    """
    _check_compatible(g1, g2)
    if g1.vertices != g2.vertices:
        return []
    n = g1.vertices
    labels = _orbit_labels(g1, g2)
    k = len(labels[2])
    return [
        RatMatrix.from_rows(_combination(labels, n, [int(j == i) for j in range(k)]))
        for i in range(k)
    ]


def _equivalent_representations(g1: LoopSignedGraph, g2: LoopSignedGraph) -> _Labels | None:
    """Exact transplantability test via the three intertwiner dimensions.

    Returns the (g1, g2) orbit labelling when dim Hom(1,2), dim Hom(1,1) and
    dim Hom(2,2) agree, else None.
    """
    if g1.vertices != g2.vertices:
        return None
    labels = _orbit_labels(g1, g2)
    d12 = len(labels[2])
    if d12 == len(_orbit_labels(g1, g1)[2]) == len(_orbit_labels(g2, g2)[2]):
        return labels
    return None


def _invertible_combination(labels: _Labels, n: int, seed: int | None) -> RatMatrix | None:
    """An invertible integer combination of the orbit basis matrices.

    ``labels`` is an ``_orbit_labels`` result; coefficient k scales the k-th
    live orbit, and the orbits have disjoint supports.
    """
    live = labels[2]
    if not live:
        return None

    def try_coeffs(coeffs: Sequence[int]) -> RatMatrix | None:
        rows = _combination(labels, n, coeffs)
        if int_det(rows) != 0:
            return RatMatrix.from_rows(rows)
        return None

    found = try_coeffs([1] * len(live))
    if found is not None:
        return found
    rng = random.Random(seed if seed is not None else 0)
    # det is a nonzero polynomial of degree n in the coefficients, so a draw
    # from [-2^30, 2^30] is singular with probability at most n / 2^31
    # (Schwartz-Zippel)
    for bound in (3, 1 << 30):
        for _ in range(_WITNESS_RETRIES):
            coeffs = [rng.randint(-bound, bound) for _ in live]
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
    rows = t.entries
    for a, b in zip(g1.adjacency, g2.adjacency):
        for row, ti, si in zip(rows, b.targets, b.signs):
            image = rows[ti - 1]
            # (B^c T)_{ij} = si * T[ti, j];  (T A^c)_{ij} = T[i, tj] * sj
            for x, tj, sj in zip(image, a.targets, a.signs):
                y = row[tj - 1]
                if x != (y if si == sj else -y):
                    return False
    return t.is_invertible()


def decide(
    g1: LoopSignedGraph,
    g2: LoopSignedGraph,
    method: Literal["group", "orbit"] = "orbit",
    seed: int | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> Decision:
    """Decide transplantability exactly.

    ``orbit`` settles the verdict with the orbit-dimension test and emits a
    witness from the orbit basis; ``group`` closes the generator pairs and
    checks consistency plus equal traces element-wise.  Negative verdicts
    carry a word certificate either way: on ``orbit`` a shortest word with
    differing traces, found on the bracelet trie within a fixed node budget,
    else the pair closure's; on ``group`` the pair closure's.  Any other
    ``method`` raises ``ValueError``.
    """
    _check_compatible(g1, g2)
    if method not in ("group", "orbit"):
        raise ValueError(f"unknown method {method!r}")
    if g1.vertices != g2.vertices:
        return Decision(False, method, certificate=Certificate("trace", ()))
    labels = _equivalent_representations(g1, g2) if method == "orbit" else None
    if labels is None:
        word = _shortest_trace_word(g1, g2) if method == "orbit" else None
        cert = Certificate("trace", word) if word is not None else _group_verdict(g1, g2, cap)
        if cert is not None:
            return Decision(False, method, certificate=cert)
        if method == "orbit":
            raise RuntimeError("the group route found no certificate for a negative verdict")
    if g1 == g2:
        return Decision(True, method, witness=RatMatrix.identity(g1.vertices))
    if labels is None:
        labels = _orbit_labels(g1, g2)
    witness = _invertible_combination(labels, g1.vertices, seed)
    if witness is None:
        raise RuntimeError("no invertible intertwiner found for a transplantable pair")
    return Decision(True, method, witness=witness)


def transplantable(g1: LoopSignedGraph, g2: LoopSignedGraph) -> bool:
    """Verdict only; no witness or certificate construction."""
    _check_compatible(g1, g2)
    return _equivalent_representations(g1, g2) is not None
