"""Cheap necessary conditions for transplantability.

Word traces, seeded randomized probes over a prime field, and the spectral
report of basic invariants.  Equality of any of these is necessary for
transplantability and never treated as sufficient.  None of them buckets
census candidates: that is the packed trace hash in ``enumeration``.
``kron_probe`` and ``det_probe`` serve the CLI ``invariants`` report, and
both read one seeded probe matrix.  The trie of bracelet representatives,
built level by level on demand, gives the trace hash its words and the
negative verdicts of ``transplant.decide`` their shortest certificates.
"""

from __future__ import annotations

import functools
import random
import threading
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .algebra import SignedPerm, compose, trace, word_product
from .graph import LoopSignedGraph, validate

PRIME_MODULUS = (1 << 61) - 1
DEFAULT_MAX_WORD = 6
DEFAULT_KRON_DIM = 3
# work caps: colors**max_len words for trace_profile (one colour walks one
# word per length), power * (V * dim)**3 multiplications for kron_probe;
# larger requests are refused up front
MAX_PROFILE_WORDS = 2**20
MAX_SINGLE_COLOUR_WORD = 1000
MAX_KRON_WORK = 2**27


@dataclass(frozen=True)
class SpectralReport:
    """Invariants with a direct reading on the underlying domains."""

    block_count: int
    boundary_balance: tuple[int, ...]
    corner_traces: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    loopless_edges: int | None


def word_trace(g: LoopSignedGraph, word: Sequence[int]) -> int:
    """Trace of the product A^{c_l} ... A^{c_1} for the word c_1 .. c_l."""
    return trace(word_product(g.adjacency, word))


def trace_profile(g: LoopSignedGraph, max_len: int = DEFAULT_MAX_WORD) -> dict[tuple[int, ...], int]:
    """Traces of the necklaces (least rotations) of words up to max_len."""
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    # with two or more colours max_len > 20 is over the cap, and the power
    # is only computed for max_len <= 20
    if g.colors > 1 and (max_len > 20 or g.colors**max_len > MAX_PROFILE_WORDS):
        raise ValueError(
            f"max_len {max_len} walks {g.colors}^{max_len} words, "
            f"more than {MAX_PROFILE_WORDS}"
        )
    if g.colors == 1 and max_len > MAX_SINGLE_COLOUR_WORD:
        raise ValueError(f"max_len {max_len} on one colour is more than {MAX_SINGLE_COLOUR_WORD}")
    profile: dict[tuple[int, ...], int] = {}
    # depth first over prenecklaces, colours ascending (Fredricksen, Kessler
    # and Maiorana): p is the length of the word's longest Lyndon prefix, a
    # word extends by colours c >= word[n - p], and it is a necklace, the
    # least rotation of its class, exactly when p divides n.  The walk over
    # all words would meet each class first at its necklace, so the keys
    # and their order are those of that walk.  Children are pushed in
    # reverse so that the least colour is walked first.
    stack = [((), SignedPerm.identity(g.vertices), 1)]
    while stack:
        word, acc, p = stack.pop()
        n = len(word)
        if n % p == 0:
            profile[word] = trace(acc)
        if n < max_len:
            lo = word[n - p] if word else 1
            stack.extend(
                (word + (c,), compose(g.color(c), acc), p if c == lo else n + 1)
                for c in range(g.colors, lo - 1, -1)
            )
    return profile


class _TrieNode(NamedTuple):
    """One node of the bracelet trie: a word of 0-based colours."""

    word: tuple[int, ...]
    parent: int  # index in the level above; the empty word for depth 1
    lyndon: int  # length of the word's longest Lyndon prefix
    representative: bool


# the levels of the bracelet trie built so far, per colour count; entry k
# holds the words of length k + 1
_BRACELET_LEVELS: dict[int, list[tuple[_TrieNode, ...]]] = {}
_BRACELET_LOCK = threading.Lock()


def _is_bracelet_representative(word: tuple[int, ...]) -> bool:
    """Cyclically reduced and least of its rotation and reversal class."""
    if len(word) > 1 and word[0] == word[-1]:
        return False
    turns = [word[i:] + word[:i] for i in range(len(word))]
    return word == min(turns + [t[::-1] for t in turns])


def _next_level(level: tuple[_TrieNode, ...], n: int, colors: int) -> tuple[_TrieNode, ...]:
    """The children of the trie's words of length n, in lexicographic order.

    A word extends by each colour c >= word[n - p] other than its last
    letter, where p is the length of its longest Lyndon prefix; a child is a
    necklace exactly when its own p divides its length.
    """
    nodes = []
    for i, (word, _, p, _) in enumerate(level):
        lo = word[n - p]
        for c in range(lo, colors):
            if c != word[-1]:
                w = word + (c,)
                q = p if c == lo else n + 1
                rep = (n + 1) % q == 0 and _is_bracelet_representative(w)
                nodes.append(_TrieNode(w, i, q, rep))
    return tuple(nodes)


def _bracelet_level(colors: int, length: int) -> tuple[_TrieNode, ...]:
    """The words of one length on the trie of bracelet representatives, in
    lexicographic order.

    A^c A^c = I, tr(A^c X A^c) = tr(X) and tr(W) = tr(W^T) give every colour
    word the trace of a word no longer than it that is cyclically reduced
    and least of its rotation and reversal class (its bracelet); those are
    the ``representative`` nodes.  The least word of a rotation class is a
    necklace, every prefix of a necklace is a prenecklace, so the trie holds
    the prenecklaces without two equal adjacent letters, extended colours
    ascending as Fredricksen, Kessler and Maiorana do (see
    :func:`trace_profile`).  Levels are built on demand, one below the
    other, and kept per colour count; none deeper than ``length`` is built.
    """
    levels = _BRACELET_LEVELS.setdefault(colors, [])
    if len(levels) < length:
        # levels are only appended, under the lock, so a reader needs none
        with _BRACELET_LOCK:
            if not levels:
                levels.append(tuple(_TrieNode((c,), 0, 1, True) for c in range(colors)))
            while len(levels) < length:
                levels.append(_next_level(levels[-1], len(levels), colors))
    return levels[length - 1]


@functools.cache
def _bracelet_trie(colors: int, max_len: int) -> tuple[tuple[int, int, bool], ...]:
    """Preorder nodes (depth, colour, is_representative) of the trie of the
    bracelet representatives of length 1 .. max_len (see
    :func:`_bracelet_level`), pruned to the prefixes of those words."""
    reps = {
        node.word
        for k in range(1, max_len + 1)
        for node in _bracelet_level(colors, k)
        if node.representative
    }
    prefixes = {rep[:k] for rep in reps for k in range(1, len(rep) + 1)}
    # lexicographic order of the prefixes is the trie's depth-first preorder
    return tuple((len(w), w[-1], w in reps) for w in sorted(prefixes))


def _probe_matrix(g: LoopSignedGraph, dim: int, seed: int | None) -> list[list[int]]:
    """sum_c A^c (x) Z^c over GF(p), each Z^c a seeded random dim x dim matrix.

    The Z^c are drawn colour by colour, row by row, so at ``dim == 1`` they
    are the scalars z_c of :func:`det_probe`.
    """
    p = PRIME_MODULUS
    rng = random.Random(0 if seed is None else seed)
    size = g.vertices * dim
    m = [[0] * size for _ in range(size)]
    for perm in g.adjacency:
        zc = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        for i, (t, s) in enumerate(zip(perm.targets, perm.signs)):
            for a in range(dim):
                row = m[i * dim + a]
                za = zc[a]
                for b in range(dim):
                    col = (t - 1) * dim + b
                    row[col] = (row[col] + s * za[b]) % p
    return m


def kron_probe(
    g: LoopSignedGraph,
    dim: int = DEFAULT_KRON_DIM,
    power: int | None = None,
    seed: int | None = None,
) -> tuple[int, ...]:
    """Traces of powers of sum_c A^c (x) Z^c with seeded random Z^c over GF(p).

    Deterministic for a fixed seed, and equal for transplantable graphs with
    equal vertex count.  The default power is twice the vertex count.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    k_max = 2 * g.vertices if power is None else power
    if k_max < 1:
        raise ValueError("power must be at least 1")
    p = PRIME_MODULUS
    size = g.vertices * dim
    if k_max * size**3 > MAX_KRON_WORK:
        raise ValueError(
            f"power {k_max} at dimension {size} needs more than "
            f"{MAX_KRON_WORK} multiplications"
        )
    m = _probe_matrix(g, dim, seed)
    out = []
    power_m = m
    out.append(sum(power_m[i][i] for i in range(size)) % p)
    for _ in range(1, k_max):
        power_m = _matmul_mod(power_m, m, p)
        out.append(sum(power_m[i][i] for i in range(size)) % p)
    return tuple(out)


def _matmul_mod(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    bt = list(zip(*b))
    return [
        [sum(x * y for x, y in zip(row, col)) % p for col in bt]
        for row in a
    ]


def det_probe(g: LoopSignedGraph, seed: int | None = None) -> int:
    """det(sum_c z_c A^c) at seeded random scalars z over GF(p)."""
    p = PRIME_MODULUS
    n = g.vertices
    m = _probe_matrix(g, 1, seed)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = p - det
        inv = pow(m[col][col], p - 2, p)
        det = det * m[col][col] % p
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv % p
                m[r] = [(x - factor * y) % p for x, y in zip(m[r], m[col])]
    return det


def spectral_report(g: LoopSignedGraph) -> SpectralReport:
    """Block count, per-colour boundary balance, corner traces, edge count.

    The loopless edge count is only defined for homogeneous loop signs, via
    E = (1/2) sum_c (Tr I +- Tr A^c) with + for all-Dirichlet graphs and -
    for all-Neumann ones; it is None on mixed-sign graphs.
    """
    err = validate(g)
    if err:
        raise ValueError(err)
    balance = tuple(trace(g.color(c)) for c in range(1, g.colors + 1))
    corners = []
    for c1 in range(1, g.colors + 1):
        for c2 in range(1, g.colors + 1):
            if c1 == c2:
                continue
            # both words multiply out to A^{c1} A^{c2} and its square
            t2 = word_trace(g, (c2, c1))
            t4 = word_trace(g, (c2, c1, c2, c1))
            corners.append(((c1, c2), (t2, t4)))
    loop_signs = {
        s
        for c in range(1, g.colors + 1)
        for i, (t, s) in enumerate(
            zip(g.color(c).targets, g.color(c).signs), start=1
        )
        if t == i
    }
    edges: int | None
    if loop_signs == {-1}:
        edges = sum(g.vertices + b for b in balance) // 2
    elif loop_signs <= {1}:
        edges = sum(g.vertices - b for b in balance) // 2
    else:
        edges = None
    return SpectralReport(
        block_count=g.vertices,
        boundary_balance=balance,
        corner_traces=tuple(corners),
        loopless_edges=edges,
    )
