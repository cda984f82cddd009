"""Orderly generation of isomorphism classes and the transplantable-pair census.

Generation works in BFS-consistent labelings: a labeled graph is grown one
(vertex, colour) incidence at a time in the order a breadth-first walk from
vertex 1 (colours ascending) would visit them, so every connected graph is
produced in at most V labelings, one per start vertex.  A labeling survives
exactly when its own serialization is the minimum over all start vertices,
which makes each emitted graph equal to its own canonical form.  The
canonicity filter and the word-trace fingerprints are vectorized over chunks
of generated graphs.

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
import os
from array import array
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Iterator, Sequence

import numpy as np

from .algebra import SignedPerm
from .graph import (
    DIRICHLET_BYTE,
    LoopSignedGraph,
    NEUMANN_BYTE,
    canonical_form,
)
from .invariants import DEFAULT_MAX_WORD, det_probe
from .transform import NotNormalizable, braid
from .transplant import transplantable

REGIMES = ("mixed", "dirichlet", "neumann", "signless")

_CHUNK_LEAVES = 120_000
_SHARD_DEPTH = 3


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


def _generate_leaves(
    vertices: int,
    colors: int,
    signs: tuple[int, ...],
    emit: Callable[[list[list[int]], list[list[int]]], None],
    shard_count: int = 1,
    shard_index: int = 0,
) -> None:
    """DFS over BFS-consistent labeled connected graphs; emit at each leaf.

    Sharding partitions the subtrees below the first few decisions; shards
    are disjoint and jointly exhaustive for any shard count.
    """
    V, C = vertices, colors
    tgt = [[0] * (V + 1) for _ in range(C + 1)]
    sgn = [[0] * (V + 1) for _ in range(C + 1)]
    counter = [0]
    # class of vertex 1's colour-1 incidence: 0 edge, 1 Neumann, 2 Dirichlet;
    # no other vertex may have a colour-1 incidence of smaller class,
    # otherwise the code from that start vertex would be smaller.
    f1 = [0]

    def gate(depth: int) -> bool:
        if depth != _SHARD_DEPTH or shard_count == 1:
            return True
        take = counter[0] % shard_count == shard_index
        counter[0] += 1
        return take

    def rec(v: int, c: int, k: int, depth: int) -> None:
        if c > C:
            if v == V:
                if depth >= _SHARD_DEPTH or shard_count == 1 or shard_index == 0:
                    emit(tgt, sgn)
                return
            if k <= v:
                return
            rec(v + 1, 1, k, depth)
            return
        tc = tgt[c]
        if tc[v]:
            rec(v, c + 1, k, depth)
            return
        sc = sgn[c]
        nd = depth + 1
        # loops
        for s in signs:
            if c == 1:
                cls = 1 if s > 0 else 2
                if v == 1:
                    f1[0] = cls
                elif cls < f1[0]:
                    continue
            tc[v] = v
            sc[v] = s
            if gate(nd):
                rec(v, c + 1, k, nd)
            tc[v] = 0
            sc[v] = 0
        if c == 1 and v > 1 and f1[0] > 0:
            return  # colour-1 edges are only allowed when vertex 1 has one
        # edges to already-discovered, colour-free vertices
        for w in range(v + 1, k + 1):
            if tc[w]:
                continue
            if c == 1 and v == 1:
                f1[0] = 0
            tc[v], tc[w] = w, v
            sc[v] = sc[w] = 1
            if gate(nd):
                rec(v, c + 1, k, nd)
            tc[v] = tc[w] = 0
            sc[v] = sc[w] = 0
        # edge to a fresh vertex
        if k < V:
            w = k + 1
            if c == 1 and v == 1:
                f1[0] = 0
            tc[v], tc[w] = w, v
            sc[v] = sc[w] = 1
            if gate(nd):
                rec(v, c + 1, k + 1, nd)
            tc[v] = tc[w] = 0
            sc[v] = sc[w] = 0

    rec(1, 1, 1, 0)


def _canonical_mask(tarr: np.ndarray, sarr: np.ndarray) -> np.ndarray:
    """True for rows whose labeling realizes the minimal BFS code.

    Rows must be connected and BFS-consistent from vertex 1 (the generator's
    output), so a row's own serialization equals its start-1 code and only
    the other start vertices need to be tried.
    """
    n, c_count, v_count = tarr.shape
    if n == 0:
        return np.zeros(0, dtype=bool)
    idx = np.arange(1, v_count + 1, dtype=np.int8)
    loops = tarr == idx
    ref = np.where(
        loops, np.where(sarr < 0, DIRICHLET_BYTE, NEUMANN_BYTE), tarr
    ).astype(np.uint8).reshape(n, c_count * v_count)
    alive = np.ones(n, dtype=bool)
    rows = np.arange(n)
    t0 = (tarr.astype(np.int64) - 1)
    code = np.empty((n, c_count * v_count), np.uint8)
    for start in range(1, v_count):
        rank = np.full((n, v_count), -1, np.int8)
        order = np.zeros((n, v_count), np.int64)
        order[:, 0] = start
        rank[:, start] = 0
        cnt = np.ones(n, np.int64)
        for slot in range(v_count):
            u = order[:, slot]
            for c in range(c_count):
                t = t0[rows, c, u]
                new = rank[rows, t] < 0
                nr = rows[new]
                nt = t[new]
                rank[nr, nt] = cnt[new]
                order[nr, cnt[new]] = nt
                cnt[new] += 1
        for c in range(c_count):
            tt = np.take_along_axis(t0[:, c, :], order, axis=1)
            ss = np.take_along_axis(sarr[:, c, :], order, axis=1)
            rk = np.take_along_axis(rank, tt, axis=1).astype(np.int16) + 1
            code[:, c * v_count : (c + 1) * v_count] = np.where(
                tt == order, np.where(ss < 0, DIRICHLET_BYTE, NEUMANN_BYTE), rk
            )
        neq = code != ref
        has = neq.any(axis=1)
        first = neq.argmax(axis=1)
        worse = has & (code[rows, first] < ref[rows, first])
        alive &= ~worse
    return alive


@functools.cache
def _bracelet_trie(colors: int, max_len: int) -> tuple[tuple[int, int, bool], ...]:
    """Preorder nodes (depth, colour, is_representative) of the trie of the
    least representatives of the bracelet classes of cyclically reduced
    words of length 1 .. max_len.

    The least word of a class starts with its smallest letter, so no letter
    below the first is tried.
    """
    reps: set[tuple[int, ...]] = set()

    def extend(word: tuple[int, ...]) -> None:
        if len(word) == 1 or word[0] != word[-1]:
            turns = [word[i:] + word[:i] for i in range(len(word))]
            if word == min(turns + [t[::-1] for t in turns]):
                reps.add(word)
        if len(word) < max_len:
            for c in range(word[0], colors):
                if c != word[-1]:
                    extend(word + (c,))

    if max_len > 0:
        for c in range(colors):
            extend((c,))
    prefixes = {rep[:k] for rep in reps for k in range(1, len(rep) + 1)}
    # lexicographic order of the prefixes is the trie's depth-first preorder
    return tuple((len(w), w[-1], w in reps) for w in sorted(prefixes))


def _trace_hash(tarr: np.ndarray, sarr: np.ndarray, max_len: int) -> np.ndarray:
    """Rolling hash of the traces of all colour words of length 1 .. max_len.

    A^c A^c = I, tr(A^c X A^c) = tr(X) and tr(W) = tr(W^T) give every such
    word the trace of the least representative of a bracelet (rotation and
    reversal) class of cyclically reduced words, so only those words are
    evaluated, on a depth-first walk of their prefix trie that holds the
    current path only.  Equal hashes are necessary for equal trace profiles;
    collisions only send extra candidates to the exact decision.
    """
    n, c_count, v_count = tarr.shape
    idx = np.arange(v_count, dtype=np.int8)
    t0 = tarr - 1
    h = np.zeros(n, np.uint64)
    mul = np.uint64(1099511628211)
    path = [(np.broadcast_to(idx, (n, v_count)), np.ones((n, v_count), np.int8))]
    for depth, c, is_rep in _bracelet_trie(c_count, max_len):
        tw, sw = path[depth - 1]
        tc = t0[:, c, :]
        tn = np.take_along_axis(tw, tc, axis=1)
        sn = sarr[:, c, :] * np.take_along_axis(sw, tc, axis=1)
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
    """Canonical classes as packed arrays plus their trace-hash fingerprints."""

    vertices: int
    colors: int
    targets: np.ndarray  # (N, C, V) int8, 1-based
    signs: np.ndarray  # (N, C, V) int8
    trace_hash: np.ndarray  # (N,) uint64

    def __len__(self) -> int:
        return len(self.targets)

    def graph(self, i: int) -> LoopSignedGraph:
        perms = tuple(
            SignedPerm(
                tuple(int(x) for x in self.targets[i, c]),
                tuple(int(x) for x in self.signs[i, c]),
            )
            for c in range(self.colors)
        )
        return LoopSignedGraph(self.vertices, perms)

    def treelike(self) -> np.ndarray:
        return _treelike_mask(self.targets)


def enumerate_packed(
    vertices: int,
    colors: int,
    regime: str = "mixed",
    shard_count: int = 1,
    shard_index: int = 0,
    progress: Callable[[int, int], None] | None = None,
) -> PackedClasses:
    """All canonical connected classes for the regime, as packed arrays."""
    signs = _loop_signs(regime)
    row_len = 2 * colors * vertices
    buf = array("b")
    leaves = 0
    survivors_t: list[np.ndarray] = []
    survivors_s: list[np.ndarray] = []
    hashes: list[np.ndarray] = []

    def flush() -> None:
        nonlocal buf, leaves
        if not buf:
            return
        raw = np.frombuffer(buf.tobytes(), dtype=np.int8).reshape(-1, row_len)
        tarr = raw[:, : colors * vertices].reshape(-1, colors, vertices)
        sarr = raw[:, colors * vertices :].reshape(-1, colors, vertices)
        mask = _canonical_mask(tarr, sarr)
        tarr = np.ascontiguousarray(tarr[mask])
        sarr = np.ascontiguousarray(sarr[mask])
        survivors_t.append(tarr)
        survivors_s.append(sarr)
        hashes.append(_trace_hash(tarr, sarr, DEFAULT_MAX_WORD))
        if progress is not None:
            progress(leaves, sum(len(t) for t in survivors_t))
        buf = array("b")

    def emit(tgt: list[list[int]], sgn: list[list[int]]) -> None:
        nonlocal leaves
        for c in range(1, colors + 1):
            buf.extend(tgt[c][1:])
        for c in range(1, colors + 1):
            buf.extend(sgn[c][1:])
        leaves += 1
        if leaves % _CHUNK_LEAVES == 0:
            flush()

    _generate_leaves(vertices, colors, signs, emit, shard_count, shard_index)
    flush()
    if survivors_t:
        targets = np.concatenate(survivors_t)
        signs_arr = np.concatenate(survivors_s)
        hash_arr = np.concatenate(hashes)
    else:
        targets = np.zeros((0, colors, vertices), np.int8)
        signs_arr = np.zeros((0, colors, vertices), np.int8)
        hash_arr = np.zeros(0, np.uint64)
    return PackedClasses(vertices, colors, targets, signs_arr, hash_arr)


def _merge_shards(parts: Sequence[PackedClasses]) -> PackedClasses:
    first = parts[0]
    return PackedClasses(
        first.vertices,
        first.colors,
        np.concatenate([p.targets for p in parts]),
        np.concatenate([p.signs for p in parts]),
        np.concatenate([p.trace_hash for p in parts]),
    )


def enumerate_classes(
    vertices: int,
    colors: int,
    regime: str = "mixed",
    treelike_only: bool = False,
) -> Iterator[LoopSignedGraph]:
    """One canonical representative per isomorphism class of connected graphs."""
    packed = enumerate_packed(vertices, colors, regime)
    mask = packed.treelike() if treelike_only else np.ones(len(packed), bool)
    for i in range(len(packed)):
        if mask[i]:
            yield packed.graph(i)


def _hash_buckets(packed: PackedClasses) -> list[list[int]]:
    """Ascending class indices sharing a trace hash, for each hash shared by
    two or more classes, in ascending hash order."""
    order = np.argsort(packed.trace_hash, kind="stable")
    boundaries = np.nonzero(np.diff(packed.trace_hash[order]))[0] + 1
    return [
        [int(i) for i in group]
        for group in np.split(order, boundaries)
        if len(group) > 1
    ]


def find_pairs_packed(packed: PackedClasses) -> list[tuple[int, int]]:
    """Index pairs of distinct transplantable classes.

    Candidates are bucketed by the word-trace hash, large buckets are split
    further by the determinant probe, and every surviving candidate pair goes
    through the exact decision.
    """
    pairs: list[tuple[int, int]] = []
    for members in _hash_buckets(packed):
        graphs = {i: packed.graph(i) for i in members}
        buckets: dict[object, list[int]] = {}
        if len(members) > 16:
            for i in members:
                buckets.setdefault(det_probe(graphs[i], seed=0), []).append(i)
        else:
            buckets[0] = members
        for bucket in buckets.values():
            for a_pos in range(len(bucket)):
                for b_pos in range(a_pos + 1, len(bucket)):
                    i, j = bucket[a_pos], bucket[b_pos]
                    if transplantable(graphs[i], graphs[j]):
                        pairs.append((min(i, j), max(i, j)))
    pairs.sort()
    return pairs


def find_pairs(
    graphs: Sequence[LoopSignedGraph],
) -> list[tuple[LoopSignedGraph, LoopSignedGraph]]:
    """All unordered pairs of distinct classes that are transplantable."""
    if not graphs:
        return []
    vertices = graphs[0].vertices
    colors = graphs[0].colors
    if any(g.vertices != vertices or g.colors != colors for g in graphs):
        raise ValueError("find_pairs needs equal vertex and colour counts")
    tarr = np.zeros((len(graphs), colors, vertices), np.int8)
    sarr = np.zeros((len(graphs), colors, vertices), np.int8)
    for i, g in enumerate(graphs):
        for c in range(colors):
            tarr[i, c] = g.adjacency[c].targets
            sarr[i, c] = g.adjacency[c].signs
    packed = PackedClasses(
        vertices, colors, tarr, sarr, _trace_hash(tarr, sarr, DEFAULT_MAX_WORD)
    )
    return [(graphs[i], graphs[j]) for i, j in find_pairs_packed(packed)]


def candidate_pairs_packed(packed: PackedClasses) -> list[tuple[int, int]]:
    """All index pairs sharing a trace-hash bucket (the decide workload)."""
    return [pair for members in _hash_buckets(packed) for pair in combinations(members, 2)]


def _pair_key(
    g1: LoopSignedGraph, g2: LoopSignedGraph
) -> tuple[bytes, bytes]:
    c1 = canonical_form(g1).code
    c2 = canonical_form(g2).code
    return (c1, c2) if c1 <= c2 else (c2, c1)


def _permute_colours(g: LoopSignedGraph, perm: Sequence[int]) -> LoopSignedGraph:
    return LoopSignedGraph(g.vertices, tuple(g.adjacency[p - 1] for p in perm))


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def _quotient(
    pairs: Sequence[tuple[LoopSignedGraph, LoopSignedGraph]],
    with_braids: bool,
) -> list[list[tuple[LoopSignedGraph, LoopSignedGraph]]]:
    if not pairs:
        return []
    colors = pairs[0][0].colors
    keys = [_pair_key(g1, g2) for g1, g2 in pairs]
    index = {key: i for i, key in enumerate(keys)}
    uf = _UnionFind(len(pairs))

    def visit(i: int, h1: LoopSignedGraph, h2: LoopSignedGraph) -> None:
        key = _pair_key(h1, h2)
        j = index.get(key)
        if j is not None:
            uf.union(i, j)

    for i, (g1, g2) in enumerate(pairs):
        for perm in permutations(range(1, colors + 1)):
            h1 = _permute_colours(g1, perm)
            h2 = _permute_colours(g2, perm)
            visit(i, h1, h2)
        if with_braids:
            for c in range(1, colors + 1):
                for conj in range(1, colors + 1):
                    if c == conj:
                        continue
                    try:
                        visit(i, braid(g1, c, conj), braid(g2, c, conj))
                    except NotNormalizable:
                        continue
    classes: dict[int, list[tuple[LoopSignedGraph, LoopSignedGraph]]] = {}
    for i, pair in enumerate(pairs):
        classes.setdefault(uf.find(i), []).append(pair)
    return [classes[root] for root in sorted(classes)]


def colour_classes(
    pairs: Sequence[tuple[LoopSignedGraph, LoopSignedGraph]],
) -> list[list[tuple[LoopSignedGraph, LoopSignedGraph]]]:
    """Quotient of the pairs by simultaneous permutations of edge colours."""
    return _quotient(pairs, with_braids=False)


def quilt_classes(
    pairs: Sequence[tuple[LoopSignedGraph, LoopSignedGraph]],
) -> list[list[tuple[LoopSignedGraph, LoopSignedGraph]]]:
    """Quotient by the equivalence generated by braiding and colour permutation."""
    return _quotient(pairs, with_braids=True)


def _census_from_packed(
    packed: PackedClasses, regime: str, quilts: bool
) -> tuple[CensusRow, list[tuple[LoopSignedGraph, LoopSignedGraph]]]:
    idx_pairs = find_pairs_packed(packed)
    tree = packed.treelike()
    graph_pairs = [(packed.graph(i), packed.graph(j)) for i, j in idx_pairs]
    tree_pairs = [
        pair
        for (i, j), pair in zip(idx_pairs, graph_pairs)
        if tree[i] and tree[j]
    ]
    classes = colour_classes(graph_pairs)
    tree_classes = colour_classes(tree_pairs)
    quilt_count = len(quilt_classes(graph_pairs)) if quilts else None
    row = CensusRow(
        vertices=packed.vertices,
        colors=packed.colors,
        regime=regime,
        class_count=len(packed),
        treelike_count=int(tree.sum()),
        pair_count=len(graph_pairs),
        treelike_pair_count=len(tree_pairs),
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
    1 and is capped at the CPU count; with several threads ``progress``
    receives running totals as each shard's result arrives.
    """
    if regime not in ("mixed", "dirichlet", "neumann"):
        raise ValueError("census regime must be mixed, dirichlet or neumann")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    threads = min(threads, os.cpu_count() or 1)
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        shard_count = threads * 4
        parts: list[PackedClasses] = []
        leaves = classes = 0
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for shard_leaves, part in pool.map(
                _shard_worker,
                [
                    (vertices, colors, regime, shard_count, i)
                    for i in range(shard_count)
                ],
            ):
                parts.append(part)
                leaves += shard_leaves
                classes += len(part)
                if progress is not None:
                    progress(leaves, classes)
        packed = _merge_shards(parts)
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


def _shard_worker(args: tuple[int, int, str, int, int]) -> tuple[int, PackedClasses]:
    """One shard's leaf count and classes."""
    vertices, colors, regime, shard_count, shard_index = args
    leaves = 0

    def record(shard_leaves: int, _classes: int) -> None:
        nonlocal leaves
        leaves = shard_leaves

    packed = enumerate_packed(
        vertices,
        colors,
        regime,
        shard_count=shard_count,
        shard_index=shard_index,
        progress=record,
    )
    return leaves, packed
