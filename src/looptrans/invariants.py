"""Cheap necessary conditions for transplantability.

Word traces, seeded randomized probes over a prime field, and the spectral
report of basic invariants.  Equality of any of these is necessary for
transplantability and never treated as sufficient.  None of them buckets
census candidates: that is the packed trace hash in ``enumeration``.
``kron_probe`` and ``det_probe`` serve the CLI ``invariants`` report and
:func:`fingerprint`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .algebra import SignedPerm, compose, trace, word_product
from .graph import LoopSignedGraph, validate

PRIME_MODULUS = (1 << 61) - 1
DEFAULT_MAX_WORD = 6
DEFAULT_KRON_DIM = 3
# work caps: colors**max_len words for trace_profile (one colour walks one
# word per length, but its necklaces cost max_len**3 steps), power * (V * dim)**3
# multiplications for kron_probe; larger requests are refused up front
MAX_PROFILE_WORDS = 2**20
MAX_SINGLE_COLOUR_WORD = 1000
MAX_KRON_WORK = 2**27


@dataclass(frozen=True)
class Fingerprint:
    """Necessary-condition invariant vector: equal on transplantable graphs."""

    word_traces: tuple[tuple[tuple[int, ...], int], ...]
    probe: tuple[int, ...]
    det_probe: int


@dataclass(frozen=True)
class SpectralReport:
    """Invariants with a direct reading on the underlying domains."""

    block_count: int
    boundary_balance: tuple[int, ...]
    corner_traces: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    loopless_edges: int | None

    def corner_map(self) -> dict[tuple[int, int], tuple[int, int]]:
        return dict(self.corner_traces)


def word_trace(g: LoopSignedGraph, word: Sequence[int]) -> int:
    """Trace of the product A^{c_l} ... A^{c_1} for the word c_1 .. c_l."""
    return trace(word_product(g.adjacency, word))


def necklace_canonical(word: Sequence[int]) -> tuple[int, ...]:
    """Representative of the word's rotation class (traces are cyclic)."""
    w = tuple(word)
    if not w:
        return w
    return min(w[i:] + w[:i] for i in range(len(w)))


def trace_profile(g: LoopSignedGraph, max_len: int = DEFAULT_MAX_WORD) -> dict[tuple[int, ...], int]:
    """Traces of one representative per necklace class of words up to max_len."""
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
    # depth first, colours ascending; children are pushed in reverse so that
    # colour 1 is walked first
    stack = [((), SignedPerm.identity(g.vertices))]
    while stack:
        word, acc = stack.pop()
        key = necklace_canonical(word)
        if key not in profile:
            profile[key] = trace(acc)
        if len(word) < max_len:
            stack.extend(
                (word + (c,), compose(g.color(c), acc)) for c in range(g.colors, 0, -1)
            )
    return profile


def _probe_matrices(
    colors: int, dim: int, seed: int | None
) -> list[list[list[int]]]:
    rng = random.Random(0 if seed is None else seed)
    return [
        [[rng.randrange(PRIME_MODULUS) for _ in range(dim)] for _ in range(dim)]
        for _ in range(colors)
    ]


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
    n = g.vertices
    if k_max * (n * dim) ** 3 > MAX_KRON_WORK:
        raise ValueError(
            f"power {k_max} at dimension {n * dim} needs more than "
            f"{MAX_KRON_WORK} multiplications"
        )
    z = _probe_matrices(g.colors, dim, seed)
    size = n * dim
    m = [[0] * size for _ in range(size)]
    for c in range(1, g.colors + 1):
        perm = g.color(c)
        zc = z[c - 1]
        for i in range(n):
            t, s = perm.targets[i] - 1, perm.signs[i]
            for a in range(dim):
                row = m[i * dim + a]
                za = zc[a]
                for b in range(dim):
                    col = t * dim + b
                    row[col] = (row[col] + s * za[b]) % p
    out = []
    power_m = m
    out.append(sum(power_m[i][i] for i in range(size)) % p)
    for _ in range(1, k_max):
        power_m = _matmul_mod(power_m, m, p)
        out.append(sum(power_m[i][i] for i in range(size)) % p)
    return tuple(out)


def _matmul_mod(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    size = len(a)
    bt = list(zip(*b))
    return [
        [sum(x * y for x, y in zip(row, col)) % p for col in bt]
        for row in a
    ]


def det_probe(g: LoopSignedGraph, seed: int | None = None) -> int:
    """det(sum_c z_c A^c) at seeded random scalars z over GF(p)."""
    p = PRIME_MODULUS
    rng = random.Random(0 if seed is None else seed)
    zs = [rng.randrange(p) for _ in range(g.colors)]
    n = g.vertices
    m = [[0] * n for _ in range(n)]
    for c in range(1, g.colors + 1):
        perm = g.color(c)
        zc = zs[c - 1]
        for i in range(n):
            t, s = perm.targets[i] - 1, perm.signs[i]
            m[i][t] = (m[i][t] + s * zc) % p
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


def fingerprint(
    g: LoopSignedGraph,
    max_len: int = DEFAULT_MAX_WORD,
    kron_dim: int = DEFAULT_KRON_DIM,
    kron_pow: int | None = None,
    seed: int | None = None,
) -> Fingerprint:
    """Full fingerprint: trace profile plus the two randomized probes."""
    profile = trace_profile(g, max_len)
    return Fingerprint(
        word_traces=tuple(sorted(profile.items())),
        probe=kron_probe(g, kron_dim, kron_pow, seed),
        det_probe=det_probe(g, seed),
    )


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
            prod = compose(g.color(c1), g.color(c2))
            t2 = trace(prod)
            t4 = trace(compose(prod, prod))
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
