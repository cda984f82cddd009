"""Orderly generation of isomorphism classes and the transplantable-pair census.

Generation works in BFS-consistent labelings: a labeled graph is grown one
(vertex, colour) incidence at a time in the order a breadth-first walk from
vertex 1 (colours ascending) would visit them, so every connected graph is
produced in at most V labelings, one per start vertex.  A labeling survives
exactly when its own serialization is the minimum over all start vertices,
which makes each emitted graph equal to its own canonical form.

The labelings are grown on numpy frontiers of partial labelings.  The
V*C slots (v, c) are visited vertex by vertex, colours ascending within a
vertex: the order in which a depth-first search over the same choices
decides them.  At each slot every partial labeling gets a row of options
(pass-through if the slot is filled, else one loop per sign, then one edge
per admissible target, ascending), and ``np.nonzero`` lists the children
parent by parent in option order.  That is the order in which the search
would visit its branches, so the leaves come out in the search's order.  A
step that would make more than ``_CHUNK_LEAVES`` children first splits its
parents into consecutive blocks, each finished before the next, so memory
stays bounded and the order is kept.  Shards deal the rows that reach one
fixed slot round-robin by their index in the whole frontier; leaves
complete before that slot belong to shard 0.  A frontier step is also where a future pruning
test on partial labelings would run, vectorized over the rows.

The canonicity filter and the word-trace fingerprints are vectorized over
each finished block of leaves, with 1-D gathers on the flat int8 block at
``row*C*V + c*V + v``.  One packed routine computes the BFS code from one
start vertex; the filter runs each start vertex only on the rows that no
earlier one rejected and stops each row at the first byte where the two
codes differ, and :func:`canonical_codes` takes the minimum over all start
vertices, so a quotient codes every colour permutation of the pairs it reads
in one batch.  :func:`class_counts` counts the classes by Burnside's lemma
without the generator, as an independent check.

The fingerprint evaluates one colour word per trace class.  Every colour
matrix A^c is a symmetric signed permutation, so A^c A^c = I,
tr(A^c X A^c) = tr(X) and tr(W) = tr(W^T), the trace of the reversed word.
Every word of length at most L thus has the trace of a cyclically reduced
word of length at most L, and of the least word of that word's rotation and
reversal class (its bracelet).  For three colours and L = 6 that is 29
representatives on a trie of 43 prefixes, against 1,092 words.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Iterator, Sequence

import numpy as np

from .algebra import SignedPerm, signed_orbits
from .graph import (
    DIRICHLET_BYTE,
    LoopSignedGraph,
    NEUMANN_BYTE,
    # unused here, like det_probe and braid below; the traced benchmark run
    # wraps enumeration.canonical_form, enumeration.det_probe and
    # enumeration.braid
    canonical_form,  # noqa: F401
    is_treelike,
)
from .invariants import DEFAULT_MAX_WORD, _bracelet_trie, det_probe  # noqa: F401
from .transform import braid  # noqa: F401
from .transplant import transplantable

REGIMES = ("mixed", "dirichlet", "neumann", "signless")

_CHUNK_LEAVES = 120_000
# packed rows hold 1-based vertex numbers as int8
_MAX_PACKED_VERTICES = 127
_SHARD_SLOT = 8
# the colour keys of a batch of pairs are C! x 2 rows per pair
_MAX_QUOTIENT_ROWS = 1 << 24


@dataclass(frozen=True)
class CensusRow:
    """One row of the census table; counts are exact."""

    vertices: int
    colors: int
    regime: str
    class_count: int
    treelike_count: int
    pair_count: int
    treelike_pair_count: int
    class_pair_count: int
    treelike_class_pair_count: int
    quilt_count: int | None = None


def _loop_signs(regime: str) -> tuple[int, ...]:
    if regime == "mixed":
        return (1, -1)
    if regime == "dirichlet":
        return (-1,)
    if regime in ("neumann", "signless"):
        return (1,)
    raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")


def _check_size(vertices: int, colors: int) -> None:
    if not 1 <= vertices <= _MAX_PACKED_VERTICES:
        raise ValueError(
            f"vertices must be between 1 and {_MAX_PACKED_VERTICES}, got {vertices}"
        )
    if colors < 1:
        raise ValueError(f"colors must be at least 1, got {colors}")


def _generate_leaves(
    vertices: int,
    colors: int,
    signs: tuple[int, ...],
    shard_count: int = 1,
    shard_index: int = 0,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of BFS-consistent labeled connected graphs, as 1-based targets
    and signs, each (N, C, V) int8.

    A frontier of partial labelings is grown one slot (v, c) at a time, in
    the order a depth-first search over the same choices fills them: vertices
    ascending, colours ascending within a vertex.  A frontier row holds the
    targets and signs (0 where undecided), the discovered count k and the
    colour-1 class of vertex 1.  At each slot every row gets a row of
    options: pass-through when the slot is already filled, otherwise one loop
    per sign, then one edge per target w, ascending over the free vertices in
    v+1..k and the fresh vertex k+1.  ``np.nonzero`` expands the frontier
    parent by parent and, within a parent, in option order, which is the
    order of the search's branches, so the leaves come out in the search's
    order.  After a vertex's last colour, rows with k <= v cannot become
    connected and are dropped.

    When a step would make more than ``_CHUNK_LEAVES`` children, the parents
    are split into consecutive blocks that are each finished before the
    next, depth first; the order is kept and memory stays bounded.

    Sharding deals the rows that reach slot ``_SHARD_SLOT`` round-robin by
    their index in the whole frontier, across blocks; leaves that are
    complete before that slot go to shard 0.  Shards are disjoint and
    jointly exhaustive for any shard count.
    """
    V, C = vertices, colors
    cv = C * V
    k_col, f_col = 2 * cv, 2 * cv + 1
    first_edge = 1 + len(signs)
    # class of vertex 1's colour-1 incidence: 0 edge, 1 Neumann, 2 Dirichlet;
    # no other vertex may have a colour-1 incidence of smaller class,
    # otherwise the code from that start vertex would be smaller.  Indexed
    # by option column: 0 for pass-through and edges.
    column_class = np.zeros(first_edge + V, np.int8)
    column_class[1:first_edge] = [1 if s > 0 else 2 for s in signs]
    slots = [(v, c) for v in range(V) for c in range(C)]
    dealt = 0

    def options_at(rows: np.ndarray, v: int, c: int, free: np.ndarray) -> np.ndarray:
        """(N, 1 + loops + V-1-v) bool: pass-through, loops, edges to w > v."""
        targets = np.arange(v + 1, V)
        options = np.empty((len(rows), first_edge + len(targets)), bool)
        options[:, 0] = ~free
        options[:, 1:first_edge] = free[:, None]
        edges = free
        if c == 0 and v > 0:
            f = rows[:, f_col, None]
            options[:, 1:first_edge] &= column_class[1:first_edge] >= f
            edges = free & (f[:, 0] == 0)
        # free discovered targets, or the fresh vertex k+1 (0-based k)
        options[:, first_edge:] = (
            edges[:, None]
            & (targets <= rows[:, k_col, None])
            & (rows[:, c * V + v + 1 : (c + 1) * V] == 0)
        )
        return options

    def expand(rows: np.ndarray, options: np.ndarray, v: int, c: int) -> np.ndarray:
        """The children, parent by parent in option order, with slot (v, c) set."""
        parent, col = np.nonzero(options)
        rows = rows[parent]
        slot = c * V + v
        target = np.concatenate([[0], [v + 1] * len(signs), np.arange(v + 2, V + 1)])
        sign = np.array([0, *signs] + [1] * (V - 1 - v), np.int8)
        at = np.flatnonzero(col)
        rows[at, slot] = target[col[at]]
        rows[at, cv + slot] = sign[col[at]]
        if v == c == 0:
            rows[:, f_col] = column_class[col]
        at = np.flatnonzero(col >= first_edge)
        w = target[col[at]]
        rows[at, c * V + w - 1] = v + 1
        rows[at, cv + c * V + w - 1] = 1
        rows[at, k_col] = np.maximum(rows[at, k_col], w)
        return rows

    def grow(rows: np.ndarray, pos: int) -> Iterator[np.ndarray]:
        nonlocal dealt
        for pos in range(pos, len(slots)):
            v, c = slots[pos]
            free = rows[:, c * V + v] == 0
            if free.any():
                options = options_at(rows, v, c, free)
                if np.count_nonzero(options) > _CHUNK_LEAVES:
                    # a block starts where a parent's last child falls in a
                    # later chunk of _CHUNK_LEAVES children than the previous
                    # parent's, so no block exceeds a chunk by more than one
                    # parent's options
                    last = np.cumsum(options.sum(axis=1)) - 1
                    cuts = np.flatnonzero(np.diff(last // _CHUNK_LEAVES)) + 1
                    if len(cuts):
                        del options
                        for part in np.split(rows, cuts):
                            yield from grow(part, pos)
                        return
                rows = expand(rows, options, v, c)
            if c == C - 1 and v < V - 1:
                rows = rows[rows[:, k_col] > v + 1]
            if shard_count > 1 and pos + 1 == _SHARD_SLOT < len(slots):
                turn = (dealt + np.arange(len(rows))) % shard_count
                dealt += len(rows)
                rows = rows[turn == shard_index]
            if not len(rows):
                return
        if shard_count > 1 and shard_index and len(slots) <= _SHARD_SLOT:
            return
        yield rows

    start = np.zeros((1, 2 * cv + 2), np.int8)
    start[0, k_col] = 1
    for rows in grow(start, 0):
        yield rows[:, :cv].reshape(-1, C, V), rows[:, cv : 2 * cv].reshape(-1, C, V)


def _start_codes(
    tarr: np.ndarray, sarr: np.ndarray, rows: np.ndarray, start: int,
    ref: np.ndarray | None = None,
) -> np.ndarray:
    """BFS codes of some packed connected rows from one start vertex (0-based).

    ``tarr`` (1-based targets) and ``sarr`` are C-contiguous (N, C, V) and
    ``rows`` picks the rows.  Colour by colour, the code lists for each
    vertex in BFS discovery order (colours ascending) the discovery number
    1..V of its partner, or its loop byte: the per-start serialization of
    :func:`graph._component_code`.  Every lookup is a 1-D gather on the flat
    blocks at ``row*C*V + c*V + v``; numbers and order are (n, V) uint8.

    Without ``ref`` this returns the codes, (n, C*V) uint8; with the codes
    to beat, True where the code sorts strictly before ``ref``.  Byte j of
    the first colour is final before slot j is read, since the j-th vertex's
    partner has its number or takes the next one.  So a row stops at its
    first byte that differs from ``ref``, marked if smaller and dropped if
    larger; only rows tied through the first colour get the full code.
    """
    _, c_count, v_count = tarr.shape
    tflat, sflat = tarr.reshape(-1), sarr.reshape(-1)
    less, pos = np.zeros(len(rows), bool), np.arange(len(rows))
    base = rows * (c_count * v_count)
    rank, order = np.zeros((2, len(rows), v_count), np.uint8)
    rank[:, start] = 1
    order[:, 0] = start
    count = np.ones(len(rows), np.uint8)
    for j in range(v_count):
        at = base + order[:, j]
        t = tflat[at] - 1
        slots = np.arange(0, rank.size, v_count)
        seen = rank.reshape(-1)[slots + t]
        if ref is not None:
            byte = np.where(seen > 0, seen, count + 1)
            loop = np.flatnonzero(t == order[:, j])
            byte[loop] = np.where(sflat[at[loop]] < 0, DIRICHLET_BYTE, NEUMANN_BYTE)
            own = ref[pos, j]
            less[pos[byte < own]] = True
            tie = byte == own
            if not tie.all():
                pos, base, rank, order, count, at, t, seen = (
                    a[tie] for a in (pos, base, rank, order, count, at, t, seen)
                )
                slots = np.arange(0, rank.size, v_count)
        # a connected row has found every vertex before its last slot is read
        if j == v_count - 1 or not len(pos):
            break
        for c in range(c_count):
            if c:
                t = tflat[at + c * v_count] - 1
                seen = rank.reshape(-1)[slots + t]
            new = np.flatnonzero(seen == 0)
            k = count[new]
            rank.reshape(-1)[slots[new] + t[new]] = k + 1
            order.reshape(-1)[slots[new] + k] = t[new]
            count[new] = k + 1
    # colour by colour, so that temporaries stay (n, V)
    code = np.empty((len(pos), c_count, v_count), np.uint8)
    for c in range(c_count):
        at = (base + c * v_count)[:, None] + order
        t = tflat[at] - 1
        loop = np.where(sflat[at] < 0, np.uint8(DIRICHLET_BYTE), np.uint8(NEUMANN_BYTE))
        code[:, c] = np.where(t == order, loop, rank.reshape(-1)[slots[:, None] + t])
    code = code.reshape(len(pos), c_count * v_count)
    if ref is None:
        return code
    less[pos[_lex_less(code, ref[pos])]] = True
    return less


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows where code ``a`` sorts strictly before code ``b``."""
    neq = a != b
    first = neq.argmax(axis=1)[:, None]
    return np.take_along_axis(neq & (a < b), first, axis=1)[:, 0]


def _canonical_mask(tarr: np.ndarray, sarr: np.ndarray) -> np.ndarray:
    """True for rows whose labeling realizes the minimal BFS code.

    Rows must be connected and BFS-consistent from vertex 1 (the generator's
    output), so a row's own serialization equals its start-1 code and only
    the other start vertices need to be tried.  Each start vertex is tried
    on the rows that no earlier one has rejected, and stops on each row at
    the first byte where the two codes differ.
    """
    n, c_count, v_count = tarr.shape
    tarr, sarr = np.ascontiguousarray(tarr), np.ascontiguousarray(sarr)
    ref = np.where(
        tarr == np.arange(1, v_count + 1),
        np.where(sarr < 0, np.uint8(DIRICHLET_BYTE), np.uint8(NEUMANN_BYTE)),
        tarr.astype(np.uint8),
    ).reshape(n, c_count * v_count)
    live = np.arange(n)
    for start in range(1, v_count):
        if not len(live):
            break
        live = live[~_start_codes(tarr, sarr, live, start, ref[live])]
    mask = np.zeros(n, dtype=bool)
    mask[live] = True
    return mask


def canonical_codes(targets: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Minimal BFS code of each packed row over all start vertices.

    ``targets`` (1-based) and ``signs`` are (N, C, V).  For connected rows
    the result is (N, C*V) uint8 and row i equals
    ``canonical_form(g_i).code[1:]``; other rows give no meaningful code.
    """
    targets, signs = np.ascontiguousarray(targets), np.ascontiguousarray(signs)
    rows = np.arange(len(targets))
    best = _start_codes(targets, signs, rows, 0)
    for start in range(1, targets.shape[2]):
        code = _start_codes(targets, signs, rows, start)
        less = _lex_less(code, best)
        best[less] = code[less]
    return best


def _trace_hash(tarr: np.ndarray, sarr: np.ndarray, max_len: int) -> np.ndarray:
    """Rolling hash of the traces of all colour words of length 1 .. max_len.

    A^c A^c = I, tr(A^c X A^c) = tr(X) and tr(W) = tr(W^T) give every such
    word the trace of the least representative of a bracelet (rotation and
    reversal) class of cyclically reduced words, so only those words are
    evaluated, on a depth-first walk of their prefix trie that holds the
    current path only.  A prefix's signed map is followed by the next
    colour's, one 1-D gather on the flat blocks at ``row*C*V + c*V + v``;
    that is the matrix of the reversed word, whose trace is the same.  Equal
    hashes are necessary for equal trace profiles; collisions only send
    extra candidates to the exact decision.
    """
    n, c_count, v_count = tarr.shape
    idx = np.arange(v_count, dtype=np.int8)
    tflat, sflat = tarr.reshape(-1), sarr.reshape(-1)
    base = np.arange(0, tflat.size, c_count * v_count)[:, None]
    h = np.zeros(n, np.uint64)
    mul = np.uint64(1099511628211)
    path = [(np.broadcast_to(idx, (n, v_count)), np.ones((n, v_count), np.int8))]
    for depth, c, is_rep in _bracelet_trie(c_count, max_len):
        tw, sw = path[depth - 1]
        at = (base + c * v_count) + tw
        tn = tflat[at] - 1
        sn = sw * sflat[at]
        del path[depth:]
        path.append((tn, sn))
        if is_rep:
            tr = (sn * (tn == idx)).sum(axis=1, dtype=np.int64)
            h = h * mul + (tr + (v_count + 1)).astype(np.uint64)
    return h


def _treelike_mask(tarr: np.ndarray) -> np.ndarray:
    n, c_count, v_count = tarr.shape
    idx = np.arange(1, v_count + 1, dtype=np.int8)
    loop_count = (tarr == idx).sum(axis=(1, 2))
    edge_count = (c_count * v_count - loop_count) // 2
    return edge_count == v_count - 1


@dataclass
class PackedClasses:
    """Canonical classes as packed arrays plus their trace-hash fingerprints.

    ``leaves`` counts the labelings that :func:`_generate_leaves` built for
    these classes; it is 0 for classes packed from graphs.
    """

    vertices: int
    colors: int
    targets: np.ndarray  # (N, C, V), 1-based; int8 from the generator
    signs: np.ndarray  # (N, C, V) int8
    trace_hash: np.ndarray  # (N,) uint64
    leaves: int = 0

    def __len__(self) -> int:
        return len(self.targets)

    def graph(self, i: int) -> LoopSignedGraph:
        perms = tuple(
            SignedPerm(tuple(t), tuple(s))
            for t, s in zip(self.targets[i].tolist(), self.signs[i].tolist())
        )
        return LoopSignedGraph(self.vertices, perms)

    def treelike(self) -> np.ndarray:
        return _treelike_mask(self.targets)


def _join_classes(
    vertices: int, colors: int, parts: Sequence[PackedClasses]
) -> PackedClasses:
    """The classes of any number of records, in order, with their leaves summed."""
    empty = np.zeros((0, colors, vertices), np.int8)
    return PackedClasses(
        vertices,
        colors,
        np.concatenate([empty, *(p.targets for p in parts)]),
        np.concatenate([empty, *(p.signs for p in parts)]),
        np.concatenate([np.zeros(0, np.uint64), *(p.trace_hash for p in parts)]),
        sum(p.leaves for p in parts),
    )


def enumerate_packed(
    vertices: int,
    colors: int,
    regime: str = "mixed",
    shard_count: int = 1,
    shard_index: int = 0,
    progress: Callable[[int, int], None] | None = None,
) -> PackedClasses:
    """All canonical connected classes for the regime, as packed arrays, with
    the number of leaves generated for them.

    Each block of leaves from :func:`_generate_leaves` is filtered and hashed
    as it is finished; ``progress`` receives the running leaf and class
    totals after each block.  Shard ``shard_index`` of ``shard_count`` holds
    the classes of its share of the leaves, and the shards' joined records
    hold the whole row's classes and leaves.
    """
    _check_size(vertices, colors)
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            "need 0 <= shard_index < shard_count, "
            f"got shard_index={shard_index}, shard_count={shard_count}"
        )
    blocks: list[PackedClasses] = []
    for tarr, sarr in _generate_leaves(
        vertices, colors, _loop_signs(regime), shard_count, shard_index
    ):
        mask = _canonical_mask(tarr, sarr)
        tarr, sarr = tarr[mask], sarr[mask]
        hashes = _trace_hash(tarr, sarr, DEFAULT_MAX_WORD)
        blocks.append(PackedClasses(vertices, colors, tarr, sarr, hashes, len(mask)))
        if progress is not None:
            progress(sum(b.leaves for b in blocks), sum(map(len, blocks)))
    return _join_classes(vertices, colors, blocks)


def enumerate_classes(
    vertices: int,
    colors: int,
    regime: str = "mixed",
    treelike_only: bool = False,
) -> Iterator[LoopSignedGraph]:
    """One canonical representative per isomorphism class of connected graphs.

    The classes are enumerated, and the arguments checked, before this
    returns; the iterator only builds the graphs.
    """
    packed = enumerate_packed(vertices, colors, regime)
    mask = packed.treelike() if treelike_only else np.ones(len(packed), bool)
    return (packed.graph(i) for i in np.flatnonzero(mask))


def candidate_pairs_packed(packed: PackedClasses) -> list[tuple[int, int]]:
    """Index pairs of classes sharing a trace hash, the smaller index first:
    hash by hash in ascending hash order, and lexicographically within one."""
    order = np.argsort(packed.trace_hash, kind="stable")
    h = packed.trace_hash[order]
    # where each run of equal hashes starts, then where the last one ends;
    # only runs of two or more classes are read
    starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1], True])
    return [
        pair
        for k in np.flatnonzero(np.diff(starts) > 1)
        for pair in combinations(order[starts[k] : starts[k + 1]].tolist(), 2)
    ]


def find_pairs_packed(packed: PackedClasses) -> list[tuple[int, int]]:
    """Sorted index pairs of distinct transplantable classes: the candidate
    pairs that the exact decision accepts."""
    candidates = candidate_pairs_packed(packed)
    graphs = {i: packed.graph(i) for pair in candidates for i in pair}
    return sorted(
        (i, j) for i, j in candidates if transplantable(graphs[i], graphs[j])
    )


def _pack_graphs(graphs: Sequence[LoopSignedGraph]) -> tuple[np.ndarray, np.ndarray]:
    """1-based targets (int16) and signs (int8) of equal-size graphs, (N, C, V)."""
    tarr = np.array([[p.targets for p in g.adjacency] for g in graphs], np.int16)
    sarr = np.array([[p.signs for p in g.adjacency] for g in graphs], np.int8)
    return tarr, sarr


def _pair_keys(tarr: np.ndarray, sarr: np.ndarray) -> list[bytes]:
    """One key per packed pair: its two canonical codes, the smaller first."""
    codes = canonical_codes(tarr, sarr)
    a, b = codes[0::2], codes[1::2]
    swap = _lex_less(b, a)[:, None]
    keys = np.concatenate([np.where(swap, b, a), np.where(swap, a, b)], axis=1)
    width = keys.shape[1]
    blob = keys.tobytes()
    return [blob[k : k + width] for k in range(0, len(blob), width)]


def _vertex_signs(t0: np.ndarray, sarr: np.ndarray) -> np.ndarray:
    """Signs d with d = +1 at vertex 1 and d_t = d_i s_i along every edge
    (i, t) of a BFS forest from vertex 1, as (N, V) int8; 0 at vertices that
    vertex 1 does not reach.

    ``t0`` holds 0-based targets and ``sarr`` signs, (N, C, V), each colour a
    symmetric involution, so a vertex pulls its sign from its partner.  Each
    round extends the forest by at least one edge layer, so V - 1 rounds
    reach every vertex of a connected row.
    """
    n, c_count, v_count = t0.shape
    d = np.zeros((n, v_count), np.int8)
    d[:, 0] = 1
    for _ in range(v_count - 1):
        if d.all():
            break
        for c in range(c_count):
            pulled = np.take_along_axis(d, t0[:, c], axis=1) * sarr[:, c]
            np.copyto(d, pulled, where=d == 0)
    return d


def _braid_rows(
    tarr: np.ndarray, sarr: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every braid of every pair of packed connected rows, in numpy.

    Rows 2i and 2i + 1 are the two sides of pair i.  For each ordered colour
    pair (c, conj), c != conj, colour c becomes b a b with a = colour c and
    b = colour conj, and the row is conjugated by its diagonal sign
    normalizer, as :func:`~looptrans.transform.braid` does.  Braiding keeps
    the generated group (a = b (b a b) b), so a braided row is connected and
    its normalizer is unique with d = +1 at vertex 1; it exists when every
    off-diagonal entry of D p D is +1.  A braided pair is kept when both
    sides normalize, that is when neither ``braid`` call would raise
    :class:`~looptrans.transform.NotNormalizable`.

    Returns the source pair of each kept braided pair and their rows, 1-based
    targets and signs (2K, C, V) with sides adjacent: pair by pair, and
    within a pair by (c, conj) ascending.
    """
    m, c_count, v_count = tarr.shape
    moves = [(c, b) for c in range(c_count) for b in range(c_count) if c != b]
    t0 = tarr.astype(np.intp) - 1
    bt = np.repeat(t0[None], len(moves), axis=0)
    bs = np.repeat(sarr[None], len(moves), axis=0)
    for k, (c, b) in enumerate(moves):
        # targets b[a[b[i]]], signs s_b[i] s_a[b[i]] s_b[a[b[i]]]
        ab = np.take_along_axis(t0[:, c], t0[:, b], axis=1)
        bt[k, :, c] = np.take_along_axis(t0[:, b], ab, axis=1)
        bs[k, :, c] = (
            sarr[:, b]
            * np.take_along_axis(sarr[:, c], t0[:, b], axis=1)
            * np.take_along_axis(sarr[:, b], ab, axis=1)
        )
    bt = bt.reshape(-1, c_count, v_count)
    bs = bs.reshape(-1, c_count, v_count)
    d = _vertex_signs(bt, bs)[:, None, :]
    # D p D; a loop keeps its sign, and a vertex that vertex 1 does not
    # reach has d = 0, which fails the test below
    bs = bs * d * np.take_along_axis(np.broadcast_to(d, bt.shape), bt, axis=2)
    idx = np.arange(v_count)
    normal = ((bs == 1) | (bt == idx)).all(axis=(1, 2))
    kept = normal.reshape(len(moves), m // 2, 2).all(axis=2)
    source, move = np.nonzero(kept.T)
    rows = ((move * m + 2 * source)[:, None] + [0, 1]).ravel()
    bt, bs = bt[rows], bs[rows]
    # a kept row must be a valid graph: every braided colour is a symmetric
    # involution (+1 off the diagonal holds by the selection)
    if not (
        (np.take_along_axis(bt, bt, axis=2) == idx).all()
        and (np.take_along_axis(bs, bt, axis=2) == bs).all()
    ):
        raise RuntimeError("a braided row is not a valid graph")
    return source, bt + 1, bs


def _colour_keys(
    pairs: Sequence[tuple[LoopSignedGraph, LoopSignedGraph]],
) -> tuple[np.ndarray, np.ndarray, list[list[bytes]]]:
    """Packed rows of pairs of connected graphs (rows 2i and 2i + 1 are pair
    i) and each pair's C! keys, one per colour permutation, coded in one batch."""
    graphs = [g for pair in pairs for g in pair]
    vertices, colors = graphs[0].vertices, graphs[0].colors
    if any(g.vertices != vertices or g.colors != colors for g in graphs):
        raise ValueError("quotient needs graphs of equal vertex and colour counts")
    batch = math.factorial(colors) * len(graphs)
    if batch > _MAX_QUOTIENT_ROWS:
        raise ValueError(
            f"the colour quotient of {len(pairs)} pairs in {colors} colours would "
            f"code {batch} rows, more than {_MAX_QUOTIENT_ROWS}"
        )
    tarr, sarr = _pack_graphs(graphs)
    if not _vertex_signs(tarr.astype(np.intp) - 1, sarr).all():
        raise ValueError("quotient needs connected graphs")
    perms = np.array(list(permutations(range(colors))))
    keys = _pair_keys(
        tarr[:, perms].swapaxes(0, 1).reshape(-1, colors, vertices),
        sarr[:, perms].swapaxes(0, 1).reshape(-1, colors, vertices),
    )
    return tarr, sarr, [keys[i :: len(pairs)] for i in range(len(pairs))]


def colour_classes(
    pairs: Sequence[tuple[LoopSignedGraph, LoopSignedGraph]],
) -> list[list[tuple[LoopSignedGraph, LoopSignedGraph]]]:
    """Quotient of the pairs by simultaneous permutations of edge colours,
    each class in input order, ordered by their first member.  A class is
    named by the least of its C! keys."""
    if not pairs:
        return []
    classes: dict[bytes, list[tuple[LoopSignedGraph, LoopSignedGraph]]] = {}
    for pair, keys in zip(pairs, _colour_keys(pairs)[2]):
        classes.setdefault(min(keys), []).append(pair)
    return list(classes.values())


def quilt_classes(
    classes: Sequence[Sequence[tuple[LoopSignedGraph, LoopSignedGraph]]],
) -> list[list[tuple[LoopSignedGraph, LoopSignedGraph]]]:
    """The colour classes that :func:`colour_classes` returns, joined under
    braiding: each quilt lists its classes' pairs class by class, and the
    quilts come in the order of their first class.

    Only the first pair of each class is coded and braided.  A braid
    commutes with colour permutations and undoes itself (the normalizer with
    d = +1 at vertex 1 is unique), so braiding the first pair of each colour
    class links the classes symmetrically, and the orbits of
    :func:`~looptrans.algebra.signed_orbits` under the links are the quilts.
    Raises ``ValueError`` when two of the classes are one colour class.
    """
    if not classes:
        return []
    tarr, sarr, keys = _colour_keys([cls[0] for cls in classes])
    # a braided key names its class through any of its first pair's keys;
    # two classes with one orbit of keys leave the earlier one unnamed
    klass = {key: c for c, own in enumerate(keys) for key in own}
    if len(set(klass.values())) < len(classes):
        raise ValueError("two of the classes are one colour class")
    source, bt, bs = _braid_rows(tarr, sarr)
    n, colors = len(classes), tarr.shape[1]
    # map k sends class c to the class of its k-th kept braid, or to c
    slot = np.arange(len(source)) - np.searchsorted(source, source)
    links = [list(range(n)) for _ in range(colors * (colors - 1))]
    for k, c, key in zip(slot.tolist(), source.tolist(), _pair_keys(bt, bs)):
        links[k][c] = klass.get(key, c)
    root = signed_orbits([(link, [1] * n) for link in links], n)[0]
    quilts: dict[int, list[tuple[LoopSignedGraph, LoopSignedGraph]]] = {}
    for r, cls in zip(root, classes):
        quilts.setdefault(r, []).extend(cls)
    return list(quilts.values())


def _census_from_packed(
    packed: PackedClasses, regime: str, quilts: bool
) -> tuple[CensusRow, list[tuple[LoopSignedGraph, LoopSignedGraph]]]:
    idx_pairs = find_pairs_packed(packed)
    tree = packed.treelike()
    graph_pairs = [(packed.graph(i), packed.graph(j)) for i, j in idx_pairs]
    classes = colour_classes(graph_pairs)
    # colour permutation keeps a graph treelike, so each class holds only
    # tree pairs or none, and its first pair tells which
    tree_classes = [cls for cls in classes if all(map(is_treelike, cls[0]))]
    quilt_count = len(quilt_classes(classes)) if quilts else None
    row = CensusRow(
        vertices=packed.vertices,
        colors=packed.colors,
        regime=regime,
        class_count=len(packed),
        treelike_count=int(tree.sum()),
        pair_count=len(graph_pairs),
        treelike_pair_count=sum(bool(tree[i] and tree[j]) for i, j in idx_pairs),
        class_pair_count=len(classes),
        treelike_class_pair_count=len(tree_classes),
        quilt_count=quilt_count,
    )
    return row, graph_pairs


def census_details(
    vertices: int,
    colors: int,
    regime: str = "mixed",
    quilts: bool = False,
    threads: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[CensusRow, list[tuple[LoopSignedGraph, LoopSignedGraph]]]:
    """Census row plus the transplantable pairs it counted.

    A homogeneous regime gives every loop the same sign, so its classes are
    those of the signless edge-coloured graphs.  ``threads`` must be at least
    1 and is capped at the CPU count.  Several threads map
    :func:`enumerate_packed` over 4 shards per thread in a process pool, and
    ``progress`` receives the shards' summed leaf and class totals as each
    shard's record arrives.
    """
    if regime not in ("mixed", "dirichlet", "neumann"):
        raise ValueError("census regime must be mixed, dirichlet or neumann")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _check_size(vertices, colors)
    threads = min(threads, os.cpu_count() or 1)
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        shard_count = threads * 4
        shard = functools.partial(enumerate_packed, vertices, colors, regime, shard_count)
        parts: list[PackedClasses] = []
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(shard, range(shard_count)):
                parts.append(part)
                if progress is not None:
                    progress(sum(p.leaves for p in parts), sum(map(len, parts)))
        packed = _join_classes(vertices, colors, parts)
    else:
        packed = enumerate_packed(vertices, colors, regime, progress=progress)
    return _census_from_packed(packed, regime, quilts)


def census(
    vertices: int,
    colors: int,
    regime: str = "mixed",
    quilts: bool = False,
    threads: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> CensusRow:
    """Class and transplantable-pair counts for one table row."""
    return census_details(
        vertices, colors, regime, quilts=quilts, threads=threads, progress=progress
    )[0]


def _poly_mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _poly_add(p: list, q: list) -> list:
    if len(p) < len(q):
        p, q = q, p
    return [a + (q[i] if i < len(q) else 0) for i, a in enumerate(p)]


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def class_counts(vertices: int, colors: int, regime: str = "mixed") -> tuple[int, int]:
    """Connected classes and treelike connected classes, counted by
    Burnside's lemma without the generator.

    A vertex permutation with m cycles of length k fixes a(m) colour
    structures on those cycles: each cycle is either fixed pointwise with
    one loop sign (s ways), or for even k half-rotated into k/2 edges, or
    paired with another cycle by one of k rotations into k edges, so
    a(m) = (s + [k even]) a(m-1) + (m-1) k a(m-2).  With each edge weighted
    by y, the average over all permutations of the product of a(m)^C over
    the cycle lengths counts all classes, connected or not, by edge count;
    it is the coefficient of x^V in the product over k of
    sum_m a(m)^C x^(km) / (k^m m!).  The inverse Euler transform keeps the
    connected classes, and the treelike ones are its coefficient of y^(V-1).
    """
    s = len(_loop_signs(regime))
    if vertices < 1:
        raise ValueError(f"vertices must be at least 1, got {vertices}")
    if colors < 1:
        raise ValueError(f"colors must be at least 1, got {colors}")
    # series in x up to x^V; each coefficient a polynomial in y
    total: list[list] = [[1]] + [[0]] * vertices
    for k in range(1, vertices + 1):
        own = [s] + [0] * (k // 2)
        if k % 2 == 0:
            own[k // 2] += 1
        fixed = [[1], own]
        for m in range(2, vertices // k + 1):
            paired = [0] * k + [(m - 1) * k * a for a in fixed[m - 2]]
            fixed.append(_poly_add(_poly_mul(own, fixed[m - 1]), paired))
        product = [list(p) for p in total]
        for m in range(1, vertices // k + 1):
            power = [1]
            for _ in range(colors):
                power = _poly_mul(power, fixed[m])
            weight = Fraction(1, k**m * math.factorial(m))
            term = [weight * a for a in power]
            for n in range(k * m, vertices + 1):
                product[n] = _poly_add(product[n], _poly_mul(total[n - k * m], term))
        total = product
    # log of the series, from n L[n] = n u[n] - sum over i < n of i L[i] u[n-i]
    logs: list[list] = [[]]
    for n in range(1, vertices + 1):
        acc = [n * a for a in total[n]]
        for i in range(1, n):
            term = _poly_mul([i * a for a in logs[i]], total[n - i])
            acc = _poly_add(acc, [-a for a in term])
        logs.append([a / n for a in acc])
    # connected: the sum over j | V of mobius(j) / j * L[V / j](y^j)
    connected: list = [0]
    for j in range(1, vertices + 1):
        if vertices % j == 0 and _mobius(j):
            spread = [0] * (j * len(logs[vertices // j]))
            for e, a in enumerate(logs[vertices // j]):
                spread[j * e] = a * _mobius(j) / j
            connected = _poly_add(connected, spread)
    if any(a.denominator != 1 for a in connected):
        raise RuntimeError("Burnside count is not integral")
    treelike = connected[vertices - 1] if vertices - 1 < len(connected) else 0
    return int(sum(connected)), int(treelike)
